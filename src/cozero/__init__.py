"""Cozero-divisor graphs of finite commutative rings: construction, exact
clique/chromatic numbers, perfection certification, and claim verification."""

from .rings import (
    CapExceededError,
    RingSpec,
    RingSpecError,
    factorize,
    parse_spec,
)
from .graphs import (
    CozeroGraph,
    build_cozero_graph,
    complement,
    induced_subgraph,
    quotient_by_associates,
    to_dot,
    to_json,
)
from .solvers import (
    ColoringResult,
    chromatic_number,
    validated_order,
)

__version__ = "0.1.0"
