"""Cozero-divisor graphs of finite commutative rings: construction, exact
clique/chromatic numbers, perfection certification, and claim verification."""

from .rings import (
    AssociateClasses,
    CapExceededError,
    RingSpec,
    RingSpecError,
    associate_classes,
    crt_split,
    factorize,
    in_principal_ideal,
    is_unit,
    is_von_neumann_regular,
    min_prime_count,
    parse_spec,
    principal_ideal,
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
    CliqueResult,
    ColoringResult,
    OddCycleCertificate,
    are_isomorphic,
    chromatic_number,
    find_odd_hole,
    is_perfect_desk_scale,
    max_clique,
)

__version__ = "0.1.0"
