"""Claim suite: each finitely checkable statement about cozero-divisor graphs
is a named check producing a structured pass/fail/skip report.

Every claim is a function of one Case, which builds a ring's graph,
validates its principal-ideal order and solves omega and chi, both by one
chain cover whose antichain is the maximum clique, at most once per run;
quotient-reduction reads both from that cover, which chromatic_number
validated on the order's false-twin core, proven the associate quotient
(validate_rows: no row meets its class).  No exponential search runs.

Checks re-derive everything from scratch rather than trusting the
ring-theoretic shortcuts: units (each residue's multiples hold 1), locality
by closing the non-units under addition, and principality and adjacency from
the paper's membership definition (a-b is an edge iff a is not in Rb and b
is not in Ra), with Rb the product of its factors' multiples: once per run
and modulus, with no gcd, each distinct ideal is listed in full once and each
other generator y matched to it by two memberships (z in yZ, y in zZ).
Every witness embedded in a report is re-validated independently of the
solver that produced it.  The quotient's bijection onto the graph of Z2^n
is constructed from supports, not searched for, then validated on its rows.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from collections import namedtuple
from json.encoder import encode_basestring_ascii

from . import graphs, rings, solvers
from .rings import CapExceededError, RingSpec
from .graphs import CozeroGraph


# max_vertices, a guard and no search limit, is the cardinality cap when
# None: a graph has fewer vertices than its ring
Caps = namedtuple("Caps", "max_cardinality max_vertices",
                  defaults=(rings.DEFAULT_MAX_CARDINALITY, None))


# perfection and quotient-reduction skip a product of more fields than this
# as cap-exceeded: exactly the rings whose twin core and quotient (the graph
# of Z2^n, 2^n - 2 vertices) exceed 64 vertices.  Neither certificate needs a
# cap; this one stays only because perfbench's recorded outputs hold the skips
_MAX_FIELDS = 6


class Case:
    """One ring as analyze, verify and export take it: spec, caps, the graph
    or the message of the cap it exceeds (built; graph is None over either
    cap), row classes (each distinct row -> its vertices), the order validated
    from the graph and its row classes, and the colouring with maximum clique
    read from the order alone; each computed once, a failure raised again on
    each read.  tables, one per run, shared by its cases: per-residue tables
    keyed by modulus and kind, each kind from its own definition; Z2^n graphs;
    and each twin core's verdicts, keyed by its rows and out-rows."""

    def __init__(self, spec: RingSpec, caps: Caps = Caps(), tables: dict | None = None):
        self.spec, self.caps, self.failed = spec, caps, {}
        self.tables = {} if tables is None else tables

    def _once(self, solve, *args):
        """solve(*args), or the exception its first call raised."""
        if solve not in self.failed:
            try:
                return solve(*args)
            except Exception as exc:
                self.failed[solve] = exc
        raise self.failed[solve]

    @functools.cached_property
    def built(self) -> CozeroGraph | str:
        cardinality, vertices = self.caps
        try:
            g = graphs.build_cozero_graph(self.spec, max_cardinality=cardinality,
                                          tables=self.tables)
            solvers.check_cap(g.n, cardinality if vertices is None else vertices)
        except CapExceededError as exc:
            return str(exc)
        return g

    @functools.cached_property
    def graph(self) -> CozeroGraph | None:
        return None if isinstance(self.built, str) else self.built

    @functools.cached_property
    def row_classes(self) -> dict:
        return graphs.positions(self.graph.adj)  # in order of first member

    @functools.cached_property
    def order(self) -> solvers.ValidatedOrder:
        return self._once(solvers.validated_order, self.graph, self.row_classes, self.tables)

    @functools.cached_property
    def coloring(self) -> solvers.ColoringResult:
        return self._once(solvers.chromatic_number, self.order)


def _ideals(tables: dict, n: int) -> list[frozenset[int]]:
    """multiples(y, n) for each y in Z_n, kept by (n, "ideals"), each ideal one
    object: y's walk y, 2y, ... mod n runs through yZ_n, so y shares the ideal
    of its first z < y with y in zZ_n, or, if the walk reaches 0 first, the
    walk is yZ_n."""
    def make():
        table = [frozenset({0})]
        for y in range(1, n):
            walk, z = [0], y
            while z and not (z < y and y in table[z]):
                walk.append(z)
                z = (z + y) % n
            table.append(table[z] if z else frozenset(walk))
        return table
    return rings.tabled(tables, (n, "ideals"), make)


def _inclusions(tables: dict, n: int) -> tuple[list, list]:
    """Z_n's distinct ideals in order of first generator (_ideals), kept by
    (n, "<="), each with the indices of those it holds and of those holding it."""
    def make():
        distinct = list(dict.fromkeys(_ideals(tables, n)))
        return distinct, [([d for d, xz in enumerate(distinct) if xz <= yz],
                           [d for d, xz in enumerate(distinct) if yz <= xz])
                          for yz in distinct]
    return rings.tabled(tables, (n, "<="), make)


class VerificationReport(namedtuple(
        "VerificationReport", "claim_id spec expected observed passed witness skipped reason",
        defaults=(None, False, None))):
    __slots__ = ()

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


# skip rules: a reason and its test of the ring's RingSpec.fields; a claim
# lists its rules in order, and each may assume that none before it held
_NOT_VNR = "not-vnr", lambda fields: fields is None
_TOO_FEW_FIELDS = "too-few-factors", lambda fields: len(fields) < 2
_TOO_MANY_FIELDS = "cap-exceeded", lambda fields: len(fields) > _MAX_FIELDS
# a finite commutative ring is a domain iff it is a prime field
_DOMAIN = "is-domain", lambda fields: fields is not None and len(fields) == 1


def _skip_reason(case: Case, *rules) -> str | None:
    """Why a claim skips the case, or None: the cardinality cap (first, so a
    ring over it is never factored), the first rule that holds, in order,
    then the graph's caps."""
    if case.spec.cardinality > case.caps.max_cardinality:
        return "cap-exceeded"
    return (next((reason for reason, holds in rules if holds(case.spec.fields)), None)
            or ("cap-exceeded" if case.graph is None else None))


def check_formula(case: Case) -> VerificationReport:
    """omega = chi = C(n, floor(n/2)) for a product of n fields, chi read as
    the clique's size: chromatic_number raises unless the two agree."""
    claim, spec = "clique-formula", case.spec
    if reason := _skip_reason(case, _NOT_VNR, _TOO_FEW_FIELDS):
        return _skip(claim, spec, reason)
    g, coloring = case.graph, case.coloring
    n = len(spec.fields)
    expected = math.comb(n, n // 2)
    ok = (len(coloring.clique) == expected
          and solvers.validate_clique(g, coloring.clique)
          and solvers.validate_coloring(g, coloring.assignment, coloring.count))
    return VerificationReport(
        claim_id=claim, spec=spec,
        expected=f"omega = chi = C({n},{n // 2}) = {expected}",
        observed=f"omega={len(coloring.clique)} chi={coloring.count}",
        passed=ok,
        witness={"clique": list(coloring.clique)})


def check_perfection(case: Case) -> VerificationReport:
    """The graph of a product of fields has no odd hole or antihole: reading
    the case's order validates its certificate, or raises."""
    claim, spec = "perfection", case.spec
    if reason := _skip_reason(case, _NOT_VNR, _TOO_MANY_FIELDS):
        return _skip(claim, spec, reason)
    return VerificationReport(
        claim_id=claim, spec=spec,
        expected="no induced odd cycle of length >= 5 in graph or complement",
        observed="perfect", passed=bool(case.order))


def check_null_graph(case: Case) -> VerificationReport:
    """Edgeless graph iff the ring is local with principal maximal ideal.

    Locality is detected exhaustively (non-units closed under addition) and
    principality by searching for a non-unit x whose ideal Rx (the product of
    its residues' multiples, for x with |Rx| large enough) holds every non-unit.
    """
    claim, spec = "null-graph", case.spec
    if reason := _skip_reason(case, _DOMAIN):
        return _skip(claim, spec, reason)
    edgeless = case.graph.edge_count() == 0

    ideals = [_ideals(case.tables, n) for n in spec.moduli]
    units = set(itertools.product(*([y for y, yz in enumerate(ideal) if 1 in yz]
                                    for ideal in ideals)))
    nonunits = list(itertools.filterfalse(units.__contains__, spec.elements()))
    # the last non-unit of a product plus (0,...,0,1), the second, is a unit
    local = all(spec.add(a, b) not in units
                for a in reversed(nonunits) for b in nonunits)
    # only an Rx as large as the non-units (|Rx| = prod |multiples|) can hold
    # them; a non-unit x has a non-unit x_i, so |Rx| <= |x_i Z_{n_i}| * |R| / n_i
    sizes = [list(map(len, ideal)) for ideal in ideals]
    bound = max(max(m for m, yz in zip(size, ideal) if 1 not in yz) * spec.cardinality // n
                for size, ideal, n in zip(sizes, ideals, spec.moduli))
    principal = bound >= len(nonunits) and any(
        set(nonunits) <= set(itertools.product(*map(list.__getitem__, ideals, x)))
        for x in nonunits if math.prod(map(list.__getitem__, sizes, x)) >= len(nonunits))
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
    is emitted only if it is a permutation carrying each row onto its image's;
    on a split product of prime fields each representative is a 0/1 label, so
    it is the identity, and the rows must be the boolean graph's.
    Over fields Ra = Rb iff a and b have one support, and the order's
    validate_rows has checked that no row meets its class: if the row classes
    are the support classes, associates are false twins and the order's core,
    the first of each row class, is the quotient.  omega and chi are the
    case's cover's, which chromatic_number validated on this same core."""
    claim, spec = "quotient-reduction", case.spec
    if reason := _skip_reason(case, _NOT_VNR, _TOO_FEW_FIELDS, _TOO_MANY_FIELDS):
        return _skip(claim, spec, reason)
    n = len(spec.fields)
    expected = f"quotient keeps omega and chi; quotient iso to graph of Z2^{n}"
    g, order, gc = case.graph, case.order, case.coloring
    supports = list(zip(*(map([int(x % p != 0) for x in range(spec.moduli[i])].__getitem__,
                              map(operator.itemgetter(i), g.labels)) for i, p in spec.fields)))
    if list(graphs.positions(supports).values()) != list(case.row_classes.values()):
        return VerificationReport(claim, spec, expected, passed=False,
                                  observed="associates are not false twins")
    q, gw = order.core, len(gc.clique)
    boolean = rings.tabled(case.tables, key := RingSpec((2,) * n),
                           lambda: graphs.build_cozero_graph(key, tables=case.tables))
    index = {label: v for v, label in enumerate(boolean.labels)}
    bijection = [index.get(supports[rep], -1) for rep in order.keep]
    # a permutation moves bit j of each row to bit bijection[j], a gather by its inverse
    iso_ok = q.adj == boolean.adj if bijection == list(range(boolean.n)) else (
        sorted(bijection) == list(range(boolean.n))
        and graphs.gather(q.adj, sorted(range(q.n), key=bijection.__getitem__), q.n)
        == tuple(map(boolean.adj.__getitem__, bijection)))
    return VerificationReport(
        claim_id=claim, spec=spec, expected=expected,
        observed=f"omega {gw}->{gw} chi {gc.count}->{gc.count} iso={'yes' if iso_ok else 'no'}",
        passed=iso_ok,
        witness={"bijection": bijection} if iso_ok else None)


def check_invariants(case: Case) -> VerificationReport:
    """Structural invariants checked exhaustively over the whole ring, on
    whole rows: every pair, and every vertex with itself, is adjacent iff a
    is not in Rb and b is not in Ra, each wrong pair i <= j named once, in
    order of i, then j.  Rows equal to the expected rows prove associates
    non-adjacent twins and each zero-count part a clique up to associates;
    the parts must partition the vertices, and |A_k| = C(n, k) over Z2^n.  A
    vertex is keyed once by its ideal in each factor (from _ideals, no gcd),
    whose product is Ra: a key is an associate class, and b is in Ra iff
    Rb <= Ra, a in Rb iff Ra <= Rb, factor by factor, so each class has one
    expected row, folded from per-factor inclusion masks, and the keys
    sharing a prefix share its partial fold."""
    claim, spec = "graph-invariants", case.spec
    if reason := _skip_reason(case):
        return _skip(claim, spec, reason)
    g, same_row = case.graph, case.row_classes
    problems: list[str] = []

    keys = list(zip(*(map(_ideals(case.tables, n).__getitem__, column)
                      for n, column in zip(spec.moduli, zip(*g.labels)))))
    classes = graphs.positions(keys)  # in order of first member
    # each factor's ideals and inclusions, if the ring has a vertex to key
    distinct, inclusions = (zip(*(_inclusions(case.tables, n) for n in spec.moduli))
                            if keys else ((), ()))
    masks = [classes.get(key, 0) for key in itertools.product(*distinct)]
    full, level, folds = (1 << g.n) - 1, masks, []
    # per factor and ideal, the vertices whose ideal there lies inside it and
    # those whose ideal holds it; a-b is an edge iff b is in neither fold
    for inclusion in reversed(inclusions):  # the last factor varies fastest
        col = [sum(level[d::len(inclusion)]) for d in range(len(inclusion))]  # generators
        level = [sum(level[c:c + len(inclusion)]) for c in range(0, len(level), len(inclusion))]
        folds.insert(0, [(sum(map(col.__getitem__, inside)), sum(map(col.__getitem__, holding)))
                         for inside, holding in inclusion])

    def expected_rows():  # in product order, the last two factors folded into the rows
        down_up = [(full, full)]  # per key prefix
        *head, last2, last = [[(full, full)]] * (2 - len(folds)) + folds  # identity-padded to two
        for fold in head:
            down_up = [(p & q, u & w) for p, u in down_up for q, w in fold]
        return (full & ~(pq & q2 | uw & w2) for p, u in down_up for q, w in last2
                for pq, uw in ((p & q, u & w),) for q2, w2 in last)

    # the vertices whose row is not their class's; each wrong bit names its pair,
    # lower index first, once, from either row, and a row past n or negative its vertex
    off_row = sum(m & ~same_row.get(row, 0) for m, row in zip(masks, expected_rows()))
    rows = dict(zip(itertools.product(*distinct), expected_rows())) if off_row else {}
    pairs = sorted({(min(i, j), max(i, j)) for i in graphs.bits(off_row)
                    for j in graphs.bits((g.adj[i] ^ rows[keys[i]]) & full)})
    problems += [f"adjacency mismatch at {g.labels[i]},{g.labels[j]}" for i, j in pairs]
    problems += [f"row of {g.labels[i]} has bits outside the vertex range"
                 for i in graphs.bits(off_row) if g.adj[i] >> g.n]

    # a split product of prime fields: one field per modulus
    split = spec.fields is not None and len(spec.fields) == len(spec.moduli) >= 2
    if split:
        # over prime fields residue 0 generates {0} and any other the field,
        # so a key is a zero pattern, and the part of zero count k, A_k, the
        # union of the classes whose first member has k zeros
        n = len(spec.moduli)
        parts = [0] * (n + 1)
        for m in classes.values():
            parts[g.labels[(m & -m).bit_length() - 1].count(0)] |= m
        if parts[0] or parts[n]:
            problems.append("zero-count parts do not partition the vertex set")
        if all(m == 2 for m in spec.moduli):
            for k, part in enumerate(parts[1:n], start=1):
                if part.bit_count() != math.comb(n, k):
                    problems.append(f"|A_{k}| = {part.bit_count()} != C({n},{k})")

    return VerificationReport(
        claim_id=claim, spec=spec,
        expected="adjacency definitions agree; associates are twins; "
                 "zero-count parts are cliques partitioning the vertices",
        observed="; ".join(problems[:5]) or "ok; nzc=" + (
            "checked" if split else "skipped (not a split product of prime fields)"),
        passed=not problems)


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
    """Run each distinct named check against each distinct spec, one Case per
    spec; inapplicable pairs become skip reports, never dropped, and a check
    that raises becomes a failed report with reason "error" that names the
    exception, so the other pairs still report.  Output sorted by claim id
    then spec text."""
    for name in names:
        if name not in CLAIMS:
            raise UnknownClaimError(
                f"unknown claim {name!r}; known: {', '.join(sorted(CLAIMS))}")
    tables: dict = {}
    reports = []
    for case in (Case(spec, caps, tables) for spec in dict.fromkeys(specs)):
        for name in dict.fromkeys(names):
            try:
                reports.append(CLAIMS[name](case))
            except Exception as exc:  # an internal error fails its own report only
                reports.append(VerificationReport(
                    name, case.spec, expected="", passed=False, reason="error",
                    observed=f"error: {type(exc).__name__}: {exc}"))
    reports.sort(key=lambda r: (r.claim_id, str(r.spec)))
    return reports


def default_ring_set(max_cardinality: int = 256) -> list[RingSpec]:
    """Every product of prime fields with cardinality <= max_cardinality,
    plus the standard local non-VNR examples."""
    primes = [p for p in range(2, max_cardinality + 1)
              if rings.factorize(p) == [(p, 1)]]
    specs, level = [], [((), 1)]
    while level:  # the products of one more prime, in ascending order
        level = [(m + (p,), c * p) for m, c in level for p in primes
                 if p >= max(m, default=2) and c * p <= max_cardinality]
        specs.extend(RingSpec(m) for m, _ in level)
    specs.extend(RingSpec(m) for m in [(4,), (8,), (9,), (25,), (27,), (2, 4)])
    specs.sort(key=lambda s: (s.cardinality, s.moduli))
    return specs


def _layout(value, pad: str = "") -> str:
    """value as json.dumps(value, indent=2) writes it, nested at pad."""
    kind, inner, esc = type(value), pad + "  ", encode_basestring_ascii
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if not value or kind not in (list, tuple, dict):
        return json.dumps(value)  # a string, a number or an empty container
    if kind is dict:
        items = [f"{esc(k)}: {esc(v) if type(v) is str else _layout(v, inner)}"
                 for k, v in value.items()]
    else:  # a list of plain ints, such as a witness, in one call
        items = (map(int.__repr__, value) if {*map(type, value)} == {int}
                 else [_layout(v, inner) for v in value])
    start, end = "{}" if kind is dict else "[]"
    return f"{start}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{end}"


def reports_to_json(reports: list[VerificationReport]) -> str:
    """The reports as json.dumps([...], indent=2) writes them, byte for byte."""
    return _layout([r.to_json_dict() for r in reports]) + "\n"
