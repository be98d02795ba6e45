"""Cozero-divisor graphs of finite commutative rings: construction, exact
clique/chromatic numbers, perfection certification, and claim verification."""

from .rings import (
    AssociateClasses,
    CapExceededError,
    RingSpec,
    RingSpecError,
    associate_classes,
    factorize,
    parse_spec,
    vertices,
)
from .graphs import (
    CozeroGraph,
    QuotientGraph,
    build_cozero_graph,
    complement,
    induced_subgraph,
    nzc,
    nzc_partition,
    quotient_by_associates,
    to_dot,
    to_json,
)
from .solvers import (
    ColoringResult,
    chromatic_number,
    is_perfect_desk_scale,
)

__version__ = "0.1.0"
