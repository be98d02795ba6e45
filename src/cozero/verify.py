"""Claim suite: each finitely checkable statement about cozero-divisor graphs
is a named check producing a structured pass/fail/skip report.

Checks re-derive everything from scratch rather than trusting the
ring-theoretic shortcuts: locality by closing the non-units under addition,
and principality and adjacency from the paper's membership definition (a-b
is an edge iff a is not in Rb and b is not in Ra), with each ideal Rb
enumerated in full factor by factor by rings.principal_ideal and no gcd.
Every witness embedded in a report is re-validated independently of the
solver that produced it.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

from . import graphs, rings, solvers
from .rings import CapExceededError, RingSpec
from .graphs import CozeroGraph


@dataclass(frozen=True)
class Caps:
    max_cardinality: int = rings.DEFAULT_MAX_CARDINALITY
    max_vertices: int = solvers.DEFAULT_VERTEX_CAP
    max_iso_vertices: int = solvers.ISO_VERTEX_CAP
    # perfection of a ring graph is certified by a transitive orientation of
    # the complement of its twin-reduced core, which needs no cap; this one
    # stays only so that the reports (and their cap-exceeded skips) remain
    # byte-identical
    max_hole_vertices: int = 64


@dataclass
class VerificationReport:
    claim_id: str
    spec: RingSpec
    expected: str
    observed: str
    passed: bool
    witness: dict | None = None
    elapsed: float = 0.0
    skipped: bool = False
    reason: str | None = None

    def to_json_dict(self) -> dict:
        # elapsed is intentionally left out so repeated runs are byte-identical
        return {
            "claim_id": self.claim_id,
            "spec": str(self.spec),
            "expected": self.expected,
            "observed": self.observed,
            "pass": self.passed,
            "witness": self.witness,
            "skipped": self.skipped,
            "reason": self.reason,
        }


def _skip(claim_id: str, spec: RingSpec, reason: str) -> VerificationReport:
    return VerificationReport(claim_id=claim_id, spec=spec, expected="",
                              observed="", passed=True, skipped=True,
                              reason=reason)


def _build(spec: RingSpec, caps: Caps) -> CozeroGraph:
    g = graphs.build_cozero_graph(spec, max_cardinality=caps.max_cardinality)
    if g.n > caps.max_vertices:
        raise CapExceededError(
            f"graph on {g.n} vertices exceeds solver cap {caps.max_vertices}")
    return g


def check_formula(spec: RingSpec, caps: Caps = Caps()) -> VerificationReport:
    """omega = chi = C(n, floor(n/2)) for a product of n fields."""
    claim = "clique-formula"
    start = time.perf_counter()
    if spec.cardinality > caps.max_cardinality:
        return _skip(claim, spec, "cap-exceeded")
    if not rings.is_von_neumann_regular(spec):
        return _skip(claim, spec, "not-vnr")
    n = rings.min_prime_count(spec)
    if n < 2:
        return _skip(claim, spec, "too-few-factors")
    try:
        g = _build(spec, caps)
    except CapExceededError:
        return _skip(claim, spec, "cap-exceeded")
    expected = math.comb(n, n // 2)
    clique = solvers.max_clique(g, max_vertices=caps.max_vertices)
    coloring = solvers.chromatic_number(g, max_vertices=caps.max_vertices)
    ok = (clique.size == expected == coloring.count
          and solvers.validate_clique(g, clique.witness)
          and solvers.validate_coloring(g, coloring.assignment, coloring.count))
    return VerificationReport(
        claim_id=claim, spec=spec,
        expected=f"omega = chi = C({n},{n // 2}) = {expected}",
        observed=f"omega={clique.size} chi={coloring.count}",
        passed=ok,
        witness={"clique": list(clique.witness)},
        elapsed=time.perf_counter() - start)


def check_perfection(spec: RingSpec, caps: Caps = Caps(),
                     graph_override: CozeroGraph | None = None) -> VerificationReport:
    """The graph of a product of fields has no odd hole or antihole.

    graph_override injects a hand-built graph (negative-control test hook).
    """
    claim = "perfection"
    start = time.perf_counter()
    if graph_override is None:
        if spec.cardinality > caps.max_cardinality:
            return _skip(claim, spec, "cap-exceeded")
        if not rings.is_von_neumann_regular(spec):
            return _skip(claim, spec, "not-vnr")
    try:
        g = graph_override if graph_override is not None else _build(spec, caps)
        if g.n > caps.max_vertices:
            raise CapExceededError("cap")
        perfect, cert = solvers.is_perfect_desk_scale(
            g, max_vertices=caps.max_hole_vertices)
    except CapExceededError:
        return _skip(claim, spec, "cap-exceeded")
    witness = None
    if cert is not None:
        if not solvers.validate_certificate(g, cert):
            raise AssertionError(f"odd-cycle certificate failed revalidation: {cert}")
        witness = {"where": cert.where, "cycle": list(cert.cycle)}
    return VerificationReport(
        claim_id=claim, spec=spec,
        expected="no induced odd cycle of length >= 5 in graph or complement",
        observed="perfect" if perfect else f"odd cycle in {cert.where}",
        passed=perfect, witness=witness,
        elapsed=time.perf_counter() - start)


def _is_integral_domain(spec: RingSpec) -> bool:
    # a finite commutative ring is a domain iff it is a prime field
    m = spec.moduli[0]
    return len(spec.moduli) == 1 and rings.factorize(m) == [(m, 1)]


def check_null_graph(spec: RingSpec, caps: Caps = Caps()) -> VerificationReport:
    """Edgeless graph iff the ring is local with principal maximal ideal.

    Locality is detected exhaustively (non-units closed under addition) and
    principality by searching for a non-unit x whose enumerated ideal Rx
    (rings.principal_ideal) holds every non-unit.
    """
    claim = "null-graph"
    start = time.perf_counter()
    if spec.cardinality > caps.max_cardinality:
        return _skip(claim, spec, "cap-exceeded")
    if _is_integral_domain(spec):
        return _skip(claim, spec, "is-domain")
    try:
        g = _build(spec, caps)
    except CapExceededError:
        return _skip(claim, spec, "cap-exceeded")
    edgeless = g.edge_count() == 0

    nonunits = [a for a in spec.elements() if not rings.is_unit(spec, a)]
    nonunit_set = set(nonunits)
    local = all(spec.add(a, b) in nonunit_set for a in nonunits for b in nonunits)
    principal = any(nonunit_set <= rings.principal_ideal(spec, x) for x in nonunits)
    ok = edgeless == (local and principal)
    return VerificationReport(
        claim_id=claim, spec=spec,
        expected="edgeless iff local with principal maximal ideal",
        observed=(f"edgeless={edgeless} local={local} "
                  f"principal-max-ideal={principal}"),
        passed=ok,
        elapsed=time.perf_counter() - start)


def check_reduction(spec: RingSpec, caps: Caps = Caps()) -> VerificationReport:
    """Collapsing associate classes preserves omega and chi, and the quotient
    is isomorphic to the graph of Z2^n built directly."""
    claim = "quotient-reduction"
    start = time.perf_counter()
    if spec.cardinality > caps.max_cardinality:
        return _skip(claim, spec, "cap-exceeded")
    if not rings.is_von_neumann_regular(spec):
        return _skip(claim, spec, "not-vnr")
    n = rings.min_prime_count(spec)
    if n < 2:
        return _skip(claim, spec, "too-few-factors")
    try:
        g = _build(spec, caps)
    except CapExceededError:
        return _skip(claim, spec, "cap-exceeded")
    q = graphs.quotient_by_associates(g)
    if q.graph.n > caps.max_iso_vertices:
        return _skip(claim, spec, "cap-exceeded")
    gw = solvers.max_clique(g, max_vertices=caps.max_vertices)
    gc = solvers.chromatic_number(g, max_vertices=caps.max_vertices)
    qw = solvers.max_clique(q.graph, max_vertices=caps.max_vertices)
    qc = solvers.chromatic_number(q.graph, max_vertices=caps.max_vertices)
    boolean = graphs.build_cozero_graph(RingSpec((2,) * n))
    bijection = solvers.are_isomorphic(q.graph, boolean,
                                       max_vertices=caps.max_iso_vertices)
    iso_ok = bijection is not None and all(
        q.graph.has_edge(i, j) == boolean.has_edge(bijection[i], bijection[j])
        for i in range(q.graph.n) for j in range(i + 1, q.graph.n))
    ok = gw.size == qw.size and gc.count == qc.count and iso_ok
    return VerificationReport(
        claim_id=claim, spec=spec,
        expected=f"quotient keeps omega and chi; quotient iso to graph of Z2^{n}",
        observed=(f"omega {gw.size}->{qw.size} chi {gc.count}->{qc.count} "
                  f"iso={'yes' if iso_ok else 'no'}"),
        passed=ok,
        witness={"bijection": bijection} if bijection is not None else None,
        elapsed=time.perf_counter() - start)


def _positions(keys) -> dict:
    """Each distinct key -> the bitset of the positions that hold it."""
    masks: dict = {}
    for i, key in enumerate(keys):
        masks[key] = masks.get(key, 0) | 1 << i
    return masks


def check_invariants(spec: RingSpec, caps: Caps = Caps()) -> VerificationReport:
    """Structural invariants checked exhaustively over the whole ring:
    every pair is adjacent iff a is not in Rb and b is not in Ra, with each
    Rb enumerated by rings.principal_ideal (no gcd), and each mismatched
    pair i < j is named in order of i, then j; associates share
    neighborhoods and are non-adjacent; the zero-count parts partition the
    vertex set and each induces a complete subgraph."""
    claim = "graph-invariants"
    start = time.perf_counter()
    try:
        g = _build(spec, caps)
    except CapExceededError:
        return _skip(claim, spec, "cap-exceeded")
    problems: list[str] = []

    # inside[i]: the vertices in R*label_i; contains[i]: the vertices whose
    # ideal holds label_i.  a-b is an edge iff b is in neither of a's masks.
    index = {label: i for i, label in enumerate(g.labels)}
    inside = [sum(1 << index[x] for x in rings.principal_ideal(spec, v) if x in index)
              for v in g.labels]
    by_ideal = _positions(inside)  # inside mask -> the vertices with that ideal
    contains = [0] * g.n
    for mask, members in by_ideal.items():
        for j in graphs.bits(mask):
            contains[j] |= members
    full = (1 << g.n) - 1
    for i in range(g.n):
        later = full >> (i + 1) << (i + 1)  # the vertices j > i
        for j in graphs.bits((g.adj[i] ^ ~(inside[i] | contains[i])) & later):
            problems.append(f"adjacency mismatch at {g.labels[i]},{g.labels[j]}")

    # a class pair a < b can only fail if b is adjacent to a, or has another
    # row, or a has a loop; only those b are tested pair by pair
    same_row = _positions(g.adj)
    classes = rings.associate_classes(spec)
    for rep, members in classes.classes:
        cls = sum(1 << index[m] for m in members)  # members are in index order
        for a in graphs.bits(cls):
            row = g.adj[a]
            suspects = row | ~same_row[row] | -(row >> a & 1)
            for b in graphs.bits(suspects & cls & full >> (a + 1) << (a + 1)):
                if g.has_edge(a, b):
                    problems.append(f"associates adjacent: {a},{b}")
                if row & ~(1 << b) != g.adj[b] & ~(1 << a):
                    problems.append(f"associate neighborhoods differ: {a},{b}")

    nzc_note = "nzc=checked"
    split_fields = all(rings.factorize(m) == [(m, 1)] for m in spec.moduli)
    if split_fields and len(spec.moduli) >= 2:
        parts = graphs.nzc_partition(g)
        covered = sorted(v for part in parts for v in part)
        if covered != list(range(g.n)):
            problems.append("zero-count parts do not partition the vertex set")
        # within a part, distinct zero patterns are incomparable hence
        # adjacent; equal patterns are associates hence non-adjacent (for
        # Z2 factors the patterns always differ, so each part is complete)
        patterns = [tuple(r == 0 for r in v) for v in g.labels]
        same_pattern = _positions(patterns)
        for i, part in enumerate(parts, start=1):
            in_part = sum(1 << v for v in part)  # parts are in index order
            for a in part:
                expected = in_part & ~same_pattern[patterns[a]]
                wrong = (g.adj[a] ^ expected) & in_part & full >> (a + 1) << (a + 1)
                for b in graphs.bits(wrong):
                    problems.append(f"zero-count part {i} adjacency wrong at {a},{b}")
        if all(m == 2 for m in spec.moduli):
            n = len(spec.moduli)
            for i, part in enumerate(parts, start=1):
                if len(part) != math.comb(n, i):
                    problems.append(f"|A_{i}| = {len(part)} != C({n},{i})")
    else:
        nzc_note = "nzc=skipped (not a split product of prime fields)"

    ok = not problems
    return VerificationReport(
        claim_id=claim, spec=spec,
        expected="adjacency definitions agree; associates are twins; "
                 "zero-count parts are cliques partitioning the vertices",
        observed="ok; " + nzc_note if ok else "; ".join(problems[:5]),
        passed=ok,
        elapsed=time.perf_counter() - start)


CLAIMS = {
    "clique-formula": check_formula,
    "perfection": check_perfection,
    "null-graph": check_null_graph,
    "quotient-reduction": check_reduction,
    "graph-invariants": check_invariants,
}


class UnknownClaimError(ValueError):
    pass


def run_suite(names: list[str], specs: list[RingSpec],
              caps: Caps = Caps()) -> list[VerificationReport]:
    """Run every named check against every spec; inapplicable pairs become
    skip reports, never dropped.  Output sorted by claim id then spec text."""
    for name in names:
        if name not in CLAIMS:
            raise UnknownClaimError(
                f"unknown claim {name!r}; known: {', '.join(sorted(CLAIMS))}")
    reports = []
    for name in names:
        for spec in specs:
            reports.append(CLAIMS[name](spec, caps))
    reports.sort(key=lambda r: (r.claim_id, str(r.spec)))
    return reports


def default_ring_set(max_cardinality: int = 256) -> list[RingSpec]:
    """Every product of prime fields with cardinality <= max_cardinality,
    plus the standard local non-VNR examples."""
    out: list[tuple[int, ...]] = []
    primes = [p for p in range(2, max_cardinality + 1)
              if rings.factorize(p) == [(p, 1)]]

    def extend(prefix: tuple[int, ...], product: int, minimum: int) -> None:
        if prefix:
            out.append(prefix)
        for p in primes:
            if p > max_cardinality // product:
                break
            if p >= minimum:
                extend(prefix + (p,), product * p, p)

    extend((), 1, 2)
    specs = [RingSpec(m) for m in out]
    specs.extend(RingSpec(m) for m in [(4,), (8,), (9,), (25,), (27,), (2, 4)])
    specs.sort(key=lambda s: (s.cardinality, s.moduli))
    return specs


def reports_to_json(reports: list[VerificationReport]) -> str:
    return json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n"
