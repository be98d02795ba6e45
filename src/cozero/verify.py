"""Claim suite: each finitely checkable statement about cozero-divisor graphs
is a named check producing a structured pass/fail/skip report.

Every claim is a function of one Case, which computes a ring's graph,
validated principal-ideal order and colouring at most once and shares them,
so run_suite builds each ring's graph once, validates its order once and
solves its omega and chi once, both by one chain cover: its antichain is
the maximum clique.  No exponential search runs.

Checks re-derive everything from scratch rather than trusting the
ring-theoretic shortcuts: locality by closing the non-units under addition,
and principality and adjacency from the paper's membership definition (a-b
is an edge iff a is not in Rb and b is not in Ra), with each ideal Rb
enumerated in full factor by factor, by rings.multiples, and no gcd.
Every witness embedded in a report is re-validated independently of the
solver that produced it.  The quotient's bijection onto the graph of Z2^n
is constructed from supports, not searched for, then validated row by row.
"""
from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

from . import graphs, rings, solvers
from .rings import CapExceededError, RingSpec
from .graphs import CozeroGraph


class Caps(NamedTuple):
    max_cardinality: int = rings.DEFAULT_MAX_CARDINALITY
    max_vertices: int = solvers.DEFAULT_VERTEX_CAP


# perfection and quotient-reduction skip a product of more fields than this
# as cap-exceeded: exactly the rings whose twin core and quotient (the graph
# of Z2^n, 2^n - 2 vertices) exceed 64 vertices.  Neither certificate needs a
# cap; this one stays only because perfbench's recorded outputs hold the skips
_MAX_FIELDS = 6


@dataclass(frozen=True)
class Case:
    """One ring of a run: its spec and caps, and its graph (None over either
    cap), validated principal-ideal order, and colouring with its maximum
    clique, each computed on first use; booleans, shared by a run's cases,
    holds the graphs of Z2^n that quotient-reduction compares with, by n."""
    spec: RingSpec
    caps: Caps = Caps()
    booleans: dict = field(default_factory=dict, compare=False, repr=False)

    @functools.cached_property
    def graph(self) -> CozeroGraph | None:
        try:
            g = graphs.build_cozero_graph(
                self.spec, max_cardinality=self.caps.max_cardinality)
        except CapExceededError:
            return None
        return g if g.n <= self.caps.max_vertices else None

    @functools.cached_property
    def order(self) -> solvers.ValidatedOrder:
        return solvers.validated_order(self.graph)

    @functools.cached_property
    def coloring(self) -> solvers.ColoringResult:
        return solvers.chromatic_number(self.graph, order=self.order)


@dataclass
class VerificationReport:
    claim_id: str
    spec: RingSpec
    expected: str
    observed: str
    passed: bool
    witness: dict | None = None
    skipped: bool = False
    reason: str | None = None

    def to_json_dict(self) -> dict:
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


def _skip_reason(case: Case, inapplicable=lambda spec: None) -> str | None:
    """Why a claim skips the case, or None: the cardinality cap (first, so a
    ring over it is never factored), inapplicable(spec), the graph's caps."""
    if case.spec.cardinality > case.caps.max_cardinality:
        return "cap-exceeded"
    return inapplicable(case.spec) or ("cap-exceeded" if case.graph is None else None)


def _not_vnr(spec: RingSpec) -> str | None:
    return None if rings.is_von_neumann_regular(spec) else "not-vnr"


def _not_field_product(spec: RingSpec) -> str | None:
    return _not_vnr(spec) or (
        "too-few-factors" if rings.min_prime_count(spec) < 2 else None)


def _too_many_fields(spec: RingSpec) -> str | None:
    return "cap-exceeded" if rings.min_prime_count(spec) > _MAX_FIELDS else None


def _is_domain(spec: RingSpec) -> str | None:
    # a finite commutative ring is a domain iff it is a prime field
    m = spec.moduli[0]
    domain = len(spec.moduli) == 1 and rings.factorize(m) == [(m, 1)]
    return "is-domain" if domain else None


def check_formula(case: Case) -> VerificationReport:
    """omega = chi = C(n, floor(n/2)) for a product of n fields."""
    claim, spec = "clique-formula", case.spec
    if reason := _skip_reason(case, _not_field_product):
        return _skip(claim, spec, reason)
    g, coloring = case.graph, case.coloring
    n = rings.min_prime_count(spec)
    expected = math.comb(n, n // 2)
    ok = (len(coloring.clique) == expected == coloring.count
          and solvers.validate_clique(g, coloring.clique)
          and solvers.validate_coloring(g, coloring.assignment, coloring.count))
    return VerificationReport(
        claim_id=claim, spec=spec,
        expected=f"omega = chi = C({n},{n // 2}) = {expected}",
        observed=f"omega={len(coloring.clique)} chi={coloring.count}",
        passed=ok,
        witness={"clique": list(coloring.clique)})


def check_perfection(case: Case) -> VerificationReport:
    """The graph of a product of fields has no odd hole or antihole."""
    claim, spec = "perfection", case.spec
    if reason := _skip_reason(case, lambda s: _not_vnr(s) or _too_many_fields(s)):
        return _skip(claim, spec, reason)
    perfect = solvers.is_perfect_desk_scale(case.graph, order=case.order)
    return VerificationReport(
        claim_id=claim, spec=spec,
        expected="no induced odd cycle of length >= 5 in graph or complement",
        observed="perfect" if perfect else "not perfect",
        passed=perfect)


def check_null_graph(case: Case) -> VerificationReport:
    """Edgeless graph iff the ring is local with principal maximal ideal.

    Locality is detected exhaustively (non-units closed under addition) and
    principality by searching for a non-unit x whose enumerated ideal Rx
    (rings.principal_ideal, for x with |Rx| large enough) holds every non-unit.
    """
    claim, spec = "null-graph", case.spec
    if reason := _skip_reason(case, _is_domain):
        return _skip(claim, spec, reason)
    edgeless = case.graph.edge_count() == 0

    nonunits = [a for a in spec.elements() if not rings.is_unit(spec, a)]
    nonunit_set = set(nonunits)
    local = all(spec.add(a, b) in nonunit_set for a in nonunits for b in nonunits)
    # only an Rx as large as the non-units (|Rx| = prod |multiples|) can hold them
    sizes = [[len(rings.multiples(y, n)) for y in range(n)] for n in spec.moduli]
    principal = any(nonunit_set <= rings.principal_ideal(spec, x) for x in nonunits
                    if math.prod(map(list.__getitem__, sizes, x)) >= len(nonunits))
    ok = edgeless == (local and principal)
    return VerificationReport(
        claim_id=claim, spec=spec,
        expected="edgeless iff local with principal maximal ideal",
        observed=(f"edgeless={edgeless} local={local} "
                  f"principal-max-ideal={principal}"),
        passed=ok)


def check_reduction(case: Case) -> VerificationReport:
    """Collapsing associate classes preserves omega and chi, and the quotient
    is isomorphic to the graph of Z2^n built directly, by the bijection that
    sends each class, fixed by the primes its members avoid, to its support
    (bit x % p != 0 for each prime p of each factor, in factorize order).  It
    is emitted only if it is a permutation carrying each row onto its image's."""
    claim, spec = "quotient-reduction", case.spec
    if reason := _skip_reason(
            case, lambda s: _not_field_product(s) or _too_many_fields(s)):
        return _skip(claim, spec, reason)
    n = rings.min_prime_count(spec)
    q = graphs.quotient_by_associates(case.graph).graph
    gc = case.coloring
    # over Z2^n the quotient is the ring's graph itself, solved once
    qc = gc if q is case.graph else solvers.chromatic_number(q)
    gw, qw = len(gc.clique), len(qc.clique)
    if n not in case.booleans:
        case.booleans[n] = graphs.build_cozero_graph(RingSpec((2,) * n))
    boolean = case.booleans[n]
    index = {label: v for v, label in enumerate(boolean.labels)}
    primes = [(i, p) for i, m in enumerate(spec.moduli) for p, _ in rings.factorize(m)]
    bijection = [index[tuple(int(label[i] % p != 0) for i, p in primes)]
                 for label in q.labels]
    iso_ok = sorted(bijection) == list(range(boolean.n)) and all(
        sum(1 << bijection[j] for j in graphs.bits(row)) == boolean.adj[image]
        for row, image in zip(q.adj, bijection))
    ok = gw == qw and gc.count == qc.count and iso_ok
    return VerificationReport(
        claim_id=claim, spec=spec,
        expected=f"quotient keeps omega and chi; quotient iso to graph of Z2^{n}",
        observed=(f"omega {gw}->{qw} chi {gc.count}->{qc.count} "
                  f"iso={'yes' if iso_ok else 'no'}"),
        passed=ok,
        witness={"bijection": bijection} if iso_ok else None)


def check_invariants(case: Case) -> VerificationReport:
    """Structural invariants checked exhaustively over the whole ring:
    every pair, and every vertex with itself, is adjacent iff a is not in Rb
    and b is not in Ra, with each Rb enumerated by rings.multiples (no gcd)
    per factor, and each mismatched pair i <= j is named in order of i, then j;
    associates share neighborhoods and are non-adjacent; the zero-count
    parts partition the vertex set and each induces a complete subgraph."""
    claim, spec = "graph-invariants", case.spec
    if reason := _skip_reason(case):
        return _skip(claim, spec, reason)
    g = case.graph
    problems: list[str] = []

    # inside[i]: the vertices in R*label_i; contains[i]: the vertices whose
    # ideal holds label_i.  a-b is an edge iff b is in neither of a's masks.
    # Rb is the product of its factors' multiples, so per factor into[y] (the
    # vertices whose residue lies in yZ_n) and onto[y] (those whose residue's
    # multiples hold y) are read off each column and ANDed over the factors.
    full = (1 << g.n) - 1
    inside = contains = [full] * g.n  # both rebound per factor, never mutated
    for column, n in zip(zip(*g.labels), spec.moduli):
        at = graphs.positions(column)  # residue -> the vertices with it here
        ideal = {y: rings.multiples(y, n) for y in at}
        into = {y: sum(map(at.__getitem__, at.keys() & yz)) for y, yz in ideal.items()}
        gens: dict = {}  # an ideal of Z_n -> the vertices whose residue generates it
        for y, yz in ideal.items():
            gens[yz] = gens.get(yz, 0) | at[y]
        onto = {x: sum(m for yz, m in gens.items() if x in yz) for x in at}
        inside = list(map(operator.and_, inside, map(into.__getitem__, column)))
        contains = list(map(operator.and_, contains, map(onto.__getitem__, column)))
    for i in range(g.n):
        for j in graphs.bits((g.adj[i] ^ ~(inside[i] | contains[i])) & full >> i << i):
            problems.append(f"adjacency mismatch at {g.labels[i]},{g.labels[j]}")

    # a class pair a < b can only fail if b is adjacent to a, or has another
    # row, or a has a loop; only those b are tested pair by pair
    index = {label: i for i, label in enumerate(g.labels)}
    same_row = graphs.positions(g.adj)
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
        same_pattern = graphs.positions(patterns)
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
        passed=ok)


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
    """Run every named check against every spec, one Case per spec;
    inapplicable pairs become skip reports, never dropped.  Output sorted by
    claim id then spec text."""
    for name in names:
        if name not in CLAIMS:
            raise UnknownClaimError(
                f"unknown claim {name!r}; known: {', '.join(sorted(CLAIMS))}")
    booleans: dict = {}
    cases = (Case(spec, caps, booleans) for spec in specs)
    reports = [CLAIMS[name](case) for case in cases for name in names]
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
