import itertools
import json
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from cozero import graphs, rings, solvers, verify
from cozero.graphs import CozeroGraph
from cozero.rings import RingSpec
from cozero.verify import (
    CLAIMS,
    Caps,
    Case,
    UnknownClaimError,
    check_formula,
    check_invariants,
    check_null_graph,
    check_perfection,
    check_reduction,
    default_ring_set,
    reports_to_json,
    run_suite,
)
from conftest import cycle_graph, ideal_by_enumeration, is_unit


class TestCheckFormula:
    def test_z2_fourth(self):
        r = check_formula(Case(RingSpec((2,) * 4)))
        assert r.passed and not r.skipped
        assert "6" in r.expected and "omega=6" in r.observed

    def test_mixed_fields(self):
        r = check_formula(Case(RingSpec((2, 3, 5))))
        assert r.passed and "3" in r.expected

    def test_field_skipped(self):
        r = check_formula(Case(RingSpec((2,))))
        assert r.skipped and r.reason == "too-few-factors"

    def test_non_vnr_skipped(self):
        r = check_formula(Case(RingSpec((4,))))
        assert r.skipped and r.reason == "not-vnr"

    def test_cap_skip(self):
        r = check_formula(Case(RingSpec((2, 3)), Caps(max_cardinality=5)))
        assert r.skipped and r.reason == "cap-exceeded"


class TestCheckPerfection:
    def test_z2_fifth(self):
        r = check_perfection(Case(RingSpec((2,) * 5)))
        assert r.passed and r.witness is None

    def test_z3z5z7(self):
        r = check_perfection(Case(RingSpec((3, 5, 7))))
        assert r.passed

    def test_negative_control_injection(self, monkeypatch):
        # C5 must never pass as perfect: bare, it has no ring to certify it,
        # and as rows under a ring's labels it has no transitive orientation
        g = graphs.build_cozero_graph(RingSpec((2, 2, 2)))
        wrong = CozeroGraph(spec=g.spec, labels=g.labels,
                            adj=cycle_graph(5).adj + (0,))
        monkeypatch.setattr(graphs, "build_cozero_graph",
                            lambda spec, max_cardinality: cycle_graph(5))
        with pytest.raises(ValueError):
            check_perfection(Case(RingSpec((2, 2))))
        monkeypatch.setattr(graphs, "build_cozero_graph",
                            lambda spec, max_cardinality: wrong)
        with pytest.raises(AssertionError, match="orientation"):
            check_perfection(Case(RingSpec((2, 2, 2))))

    def test_desk_scale_cap(self):
        # Z2^7 has no twins: its core keeps all 126 vertices, over 64, so the
        # suite skips it as a product of more than six fields
        r = check_perfection(Case(RingSpec((2,) * 7)))
        assert r.skipped and r.reason == "cap-exceeded"


class TestCheckNullGraph:
    @pytest.mark.parametrize("moduli", [(8,), (9,), (4,), (25,), (27,)])
    def test_local_principal_null(self, moduli):
        r = check_null_graph(Case(RingSpec(moduli)))
        assert r.passed
        assert "edgeless=True local=True" in r.observed

    def test_z2z2_not_local(self):
        r = check_null_graph(Case(RingSpec((2, 2))))
        assert r.passed
        assert "edgeless=False local=False" in r.observed

    def test_z2z4(self):
        r = check_null_graph(Case(RingSpec((2, 4))))
        assert r.passed and "edgeless=False" in r.observed

    @staticmethod
    def full_search(spec: RingSpec) -> str:
        """The claim's locality and principality, by is_unit, an all-pairs
        closure in element order and principal_ideal of every non-unit."""
        nonunits = [a for a in spec.elements() if not is_unit(spec, a)]
        local = all(spec.add(a, b) in nonunits for a in nonunits for b in nonunits)
        principal = any(set(nonunits) <= rings.principal_ideal(spec, x)
                        for x in nonunits)
        return f"local={local} principal-max-ideal={principal}"

    def test_pruned_principality_matches_full_search(self):
        # the claim enumerates Rx only for x with |Rx| >= #non-units, reads
        # units off the ideal tables and closes the non-units last one first
        for spec in default_ring_set() + [RingSpec(m) for m in [
                (4, 4), (8, 9), (2, 4), (16,), (27,), (2, 2, 4)]]:
            r = check_null_graph(Case(spec))
            if r.skipped:
                continue
            assert r.observed.endswith(self.full_search(spec)), spec

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 10, 12, 16]),
                    min_size=1, max_size=3))
    def test_small_products_match_full_search(self, moduli):
        spec = RingSpec(tuple(moduli))
        assume(spec.cardinality <= 300)
        r = check_null_graph(Case(spec))
        assert r.skipped == (len(moduli) == 1 and moduli[0] in (2, 3, 5))
        assert r.skipped or r.observed.endswith(self.full_search(spec))

    def test_domain_skipped(self):
        r = check_null_graph(Case(RingSpec((7,))))
        assert r.skipped and r.reason == "is-domain"


class TestCheckReduction:
    def test_z3z3(self):
        r = check_reduction(Case(RingSpec((3, 3))))
        assert r.passed
        assert r.witness["bijection"] is not None

    def test_z2_powers_identity(self):
        assert check_reduction(Case(RingSpec((2, 2, 2)))).passed

    def test_four_fields(self):
        r = check_reduction(Case(RingSpec((2, 3, 5, 7))))
        assert r.passed

    def test_non_vnr_skipped(self):
        assert check_reduction(Case(RingSpec((8,)))).skipped

    def test_bijection_is_the_search_reference(self):
        # the bijection built from supports is the one the backtracking
        # search finds, on every default field product of at most six fields
        checked = 0
        for spec in default_ring_set():
            if spec.fields is None or not 2 <= len(spec.fields) <= 6:
                continue
            r = check_reduction(Case(spec))
            assert r.passed and not r.skipped and r.observed.endswith("iso=yes")
            q = graphs.quotient_by_associates(graphs.build_cozero_graph(spec))
            boolean = graphs.build_cozero_graph(
                RingSpec((2,) * len(spec.fields)))
            assert r.witness["bijection"] == solvers.are_isomorphic(q, boolean)
            checked += 1
        assert checked >= 190

    def test_restricted_colouring_must_colour_the_quotient(self):
        # negative control: two adjacent representatives share a colour.
        # quotient-reduction checks the case's colouring restricted to the
        # quotient, the case's false-twin core, where it fails without an
        # exception
        case = Case(RingSpec((2, 3, 5)))
        order, gc = case.order, case.coloring
        a, b = (order.keep[v] for v in order.core.edges()[0])
        assignment = list(gc.assignment)
        assignment[b] = assignment[a]
        case.__dict__["coloring"] = gc._replace(assignment=tuple(assignment))
        r = check_reduction(case)
        assert not r.passed and not r.skipped
        assert r.observed == "omega 3->3 chi 3->no-coloring iso=yes"

    def test_restricted_antichain_must_lie_on_representatives(self):
        # negative control: one antichain vertex swapped for a false twin
        # that is not its class's representative; it is still a clique of
        # the whole graph, but names no vertex of the quotient
        case = Case(RingSpec((2, 3, 5)))
        g, gc = case.graph, case.coloring
        rep, members = next((r, m) for r, m in rings.associate_classes(g.spec).classes
                            if len(m) > 1 and g.labels.index(r) in gc.clique)
        v, twin = g.labels.index(rep), g.labels.index(members[1])
        clique = tuple(sorted({*gc.clique} - {v} | {twin}))
        assert solvers.validate_clique(g, clique)
        case.__dict__["coloring"] = gc._replace(clique=clique)
        r = check_reduction(case)
        assert not r.passed and not r.skipped
        assert r.observed == "omega 3->no-clique chi 3->3 iso=yes"

    def test_flipped_boolean_edge_fails(self, monkeypatch):
        # negative control: Z2^3's graph with the edge (0,0,1)-(0,1,0) removed
        # is no image of the quotient of Z2xZ3xZ5
        build = graphs.build_cozero_graph

        def flipped(spec, **caps):
            g = build(spec, **caps)
            if spec != RingSpec((2, 2, 2)):
                return g
            adj = (g.adj[0] ^ 1 << 1, g.adj[1] ^ 1) + g.adj[2:]
            return CozeroGraph(spec=g.spec, labels=g.labels, adj=adj)

        assert check_reduction(Case(RingSpec((2, 3, 5)))).passed
        monkeypatch.setattr(graphs, "build_cozero_graph", flipped)
        r = check_reduction(Case(RingSpec((2, 3, 5))))
        assert not r.passed and not r.skipped
        assert r.observed.endswith("iso=no") and r.witness is None

    @pytest.mark.parametrize("moduli,identity", [
        ((2, 3, 5), True), ((3, 2, 2), True), ((6, 5), False), ((10, 3), False)])
    def test_bijection_is_the_identity_on_split_specs(self, moduli, identity):
        # a split product of prime fields has 0/1 representatives, so its
        # rows are compared whole; a modulus holding two primes permutes
        r = check_reduction(Case(RingSpec(moduli)))
        assert r.passed and not r.skipped and r.observed.endswith("iso=yes")
        bijection = r.witness["bijection"]
        assert (bijection == list(range(len(bijection)))) == identity

    @pytest.mark.parametrize("moduli", [(2, 3, 5), (6, 5)], ids=["identity", "permuted"])
    def test_corrupted_quotient_row_fails(self, moduli):
        # negative control: one edge dropped from the core that the claim
        # reads as the quotient, after the colouring is computed, under the
        # whole-row comparison and under the permutation alike
        case = Case(RingSpec(moduli))
        order, _ = case.order, case.coloring
        q = order.core
        a, b = q.edges()[-1]
        adj = list(q.adj)
        adj[a], adj[b] = adj[a] ^ 1 << b, adj[b] ^ 1 << a
        case.__dict__["order"] = order._replace(
            core=CozeroGraph(q.spec, q.labels, tuple(adj)))
        r = check_reduction(case)
        assert not r.passed and not r.skipped
        assert r.observed.endswith("iso=no") and r.witness is None

    @staticmethod
    def planted(moduli, corrupt):
        """A case whose order and colouring are computed, then whose graph is
        replaced by corrupt(graph, a non-kept vertex, the mask of its class)."""
        case = Case(RingSpec(moduli))
        g, order, _ = case.graph, case.order, case.coloring
        v = next(v for v in range(g.n) if v not in order.keep)
        members = graphs.positions(g.adj)[g.adj[v]]
        case.__dict__["graph"] = CozeroGraph(g.spec, g.labels, corrupt(g, v, members))
        return case

    @pytest.mark.parametrize("moduli", [(2, 3, 5), (6, 5)], ids=["identity", "permuted"])
    def test_associate_with_another_row_fails(self, moduli):
        # negative control: one associate that the core does not keep loses
        # an edge, so its class has two rows; the report fails, naming the
        # class check, and nothing raises
        def drop_edge(g, v, members):
            w = graphs.bits(g.adj[v])[0]
            adj = list(g.adj)
            adj[v], adj[w] = adj[v] ^ 1 << w, adj[w] ^ 1 << v
            return tuple(adj)

        r = check_reduction(self.planted(moduli, drop_edge))
        assert not r.passed and not r.skipped and r.witness is None
        assert r.observed == "associates are not false twins"

    @pytest.mark.parametrize("moduli", [(2, 3, 5), (6, 5)], ids=["identity", "permuted"])
    def test_loop_inside_an_associate_class_fails(self, moduli):
        # negative control: each member of a class gets the whole class in
        # its row; the members still share one row, but it holds them
        def loop_class(g, v, members):
            adj = tuple(row | members if members >> u & 1 else row
                        for u, row in enumerate(g.adj))
            assert len({*adj}) == len({*g.adj})  # the row classes are kept
            return adj

        r = check_reduction(self.planted(moduli, loop_class))
        assert not r.passed and not r.skipped and r.witness is None
        assert r.observed == "associates are not false twins"

    def test_unit_label_fails_without_raising(self):
        # negative control: the one-member class (1,0,0) of Z2xZ3xZ5 relabelled
        # as the unit (1,1,1) keeps one support per row, but that support has
        # no image in the graph of Z2^3, so the bijection is no permutation
        case = Case(RingSpec((2, 3, 5)))
        g, _ = case.graph, case.coloring
        labels = list(g.labels)
        labels[labels.index((1, 0, 0))] = (1, 1, 1)
        case.__dict__["graph"] = CozeroGraph(g.spec, tuple(labels), g.adj)
        r = check_reduction(case)
        assert not r.passed and not r.skipped
        assert r.observed.endswith("iso=no") and r.witness is None

    def test_six_field_rule_is_the_old_vertex_cap(self):
        # more than six fields is exactly a twin core, and a quotient, of more
        # than 64 vertices; such rings skip before their graph is built
        wide = [RingSpec((2,) * n) for n in range(7, 11)] + [RingSpec((2,) * 6 + (5,))]
        vnr = [s for s in default_ring_set() if s.fields is not None]
        for spec in vnr + wide:
            g = graphs.build_cozero_graph(spec)
            core = len(solvers._all_twin_reduce(g))
            quotient = graphs.quotient_by_associates(g).n
            assert (len(spec.fields) > 6) == (core > 64) == (quotient > 64)
        for spec in wide:
            case = Case(spec, Caps(max_vertices=1022))
            for check in (check_perfection, check_reduction):
                r = check(case)
                assert r.skipped and r.reason == "cap-exceeded"
            assert "graph" not in case.__dict__


class TestCheckInvariants:
    def test_z6(self):
        r = check_invariants(Case(RingSpec((6,))))
        assert r.passed
        assert "nzc=skipped" in r.observed

    def test_z2_cubed(self):
        r = check_invariants(Case(RingSpec((2, 2, 2))))
        assert r.passed
        assert "nzc=checked" in r.observed

    def test_z2z4(self):
        r = check_invariants(Case(RingSpec((2, 4))))
        assert r.passed and "nzc=skipped" in r.observed

    def test_mixed_fields(self):
        assert check_invariants(Case(RingSpec((3, 5)))).passed

    def test_peak_allocation_on_large_classes(self):
        # 5,264 vertices in 79 associate classes: one expected row per class,
        # and the class map; a mask per vertex, such as a list of rows or of
        # ideal masks, would take the peak past 10 MB
        case = Case(RingSpec((9, 9, 9, 9)))
        assert case.graph.n == 5264
        tracemalloc.start()
        try:
            r = check_invariants(case)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.passed
        assert peak < 2e6, peak


def pairwise_mismatches(g: CozeroGraph) -> list[str]:
    """The adjacency mismatches of g, pair by pair in order of i, then j,
    against the definition: a-b is an edge iff a not in Rb and b not in Ra."""
    ideals = [ideal_by_enumeration(g.spec, v) for v in g.labels]
    return [f"adjacency mismatch at {g.labels[i]},{g.labels[j]}"
            for i, j in itertools.combinations(range(g.n), 2)
            if g.has_edge(i, j) != (g.labels[i] not in ideals[j]
                                    and g.labels[j] not in ideals[i])]


def pairwise_twin_problems(g: CozeroGraph) -> list[str]:
    """The associate and zero-count messages of g, pair by pair in order of
    i, then j, with the tests applied to every pair."""
    problems = []
    index = {label: i for i, label in enumerate(g.labels)}
    for _, members in rings.associate_classes(g.spec).classes:
        for a, b in itertools.combinations(sorted(index[m] for m in members), 2):
            if g.has_edge(a, b):
                problems.append(f"associates adjacent: {a},{b}")
            if g.adj[a] & ~(1 << b) != g.adj[b] & ~(1 << a):
                problems.append(f"associate neighborhoods differ: {a},{b}")
    if all(rings.factorize(m) == [(m, 1)] for m in g.spec.moduli):
        patterns = [tuple(r == 0 for r in v) for v in g.labels]
        for i, part in enumerate(graphs.nzc_partition(g), start=1):
            for a, b in itertools.combinations(part, 2):
                if g.has_edge(a, b) != (patterns[a] != patterns[b]):
                    problems.append(f"zero-count part {i} adjacency wrong at {a},{b}")
    return problems


class TestInvariantsOnWrongGraphs:
    """check_invariants against graphs.build_cozero_graph patched to return
    a wrong graph: it must fail and name the mismatched pairs in order."""

    # Z6xZ5: a squarefree composite modulus, whose Z6 column has four
    # ideals, so a product of fields with no zero-count check
    RINGS = [RingSpec(m) for m in [(2, 2, 2), (2, 3, 5), (4, 9), (8, 3), (6, 5)]]

    def report_on(self, monkeypatch, wrong: CozeroGraph):
        monkeypatch.setattr(graphs, "build_cozero_graph",
                            lambda spec, max_cardinality: wrong)
        return check_invariants(Case(wrong.spec))

    @pytest.mark.parametrize("spec", RINGS, ids=str)
    @pytest.mark.parametrize("flip", ["added", "dropped"])
    def test_one_edge_flipped(self, monkeypatch, spec, flip):
        g = graphs.build_cozero_graph(spec)
        # the last such pair, whose bits sit high in the rows
        i, j = [(i, j) for i, j in itertools.combinations(range(g.n), 2)
                if g.has_edge(i, j) == (flip == "dropped")][-1]
        rows = list(g.adj)
        rows[i] ^= 1 << j
        rows[j] ^= 1 << i
        wrong = CozeroGraph(spec=g.spec, labels=g.labels, adj=tuple(rows))
        r = self.report_on(monkeypatch, wrong)
        expected = pairwise_mismatches(wrong)
        assert expected == [f"adjacency mismatch at {g.labels[i]},{g.labels[j]}"]
        assert not r.passed and not r.skipped
        # the adjacency messages come first; a flipped edge may also break
        # the associate or zero-count invariants, which are reported after
        messages = r.observed.split("; ")
        assert messages[0] == expected[0]
        assert [m for m in messages if m.startswith("adjacency")] == expected

    # zero-count parts exist only over split products of prime fields
    @pytest.mark.parametrize("kind,spec", [
        (kind, RingSpec(m))
        for kind in ["associates", "same-part", "any", "one-way", "loop",
                     "edge-and-loop", "loop-and-edge"]
        for m in [(3, 5), (2, 2, 3), (2, 3, 5), (9,), (4, 9), (6, 5)]
        if kind != "same-part" or m in [(3, 5), (2, 2, 3), (2, 3, 5)]], ids=str)
    def test_twin_messages_match_pairwise(self, monkeypatch, spec, kind):
        # bits flipped inside an associate class or a zero-count part, in
        # both rows or only one, loops included: the messages after the
        # adjacency ones are those of the pair-by-pair tests, in order
        g = graphs.build_cozero_graph(spec)
        cls = max((c for _, c in rings.associate_classes(spec).classes), key=len)
        a, b = g.labels.index(cls[0]), g.labels.index(cls[-1])
        if kind == "same-part":
            b = max(v for v in range(g.n) if g.labels[v].count(0) == g.labels[a].count(0)
                    and v not in range(a, b + 1))
        elif kind == "any":
            a, b = 1, g.n - 2
        flips = {"one-way": [(a, b)], "loop": [(a, a)],
                 # twins whose rows stay equal: a loop makes them differ
                 "edge-and-loop": [(a, b), (b, b)], "loop-and-edge": [(a, a), (b, a)],
                 }.get(kind, [(a, b), (b, a)])
        rows = list(g.adj)
        for u, v in flips:
            rows[u] ^= 1 << v
        wrong = CozeroGraph(spec=g.spec, labels=g.labels, adj=tuple(rows))
        r = self.report_on(monkeypatch, wrong)
        twin = pairwise_twin_problems(wrong)
        messages = r.observed.split("; ")
        adjacency = [m for m in messages if m.startswith("adjacency")]
        assert twin, "the flips break no associate or zero-count test"
        assert not r.passed
        assert messages[len(adjacency):] == twin[:5 - len(adjacency)]

    @pytest.mark.parametrize("moduli", [(3, 4), (4, 9), (2, 3, 5)], ids=str)
    def test_failing_classes_named_in_order(self, monkeypatch, moduli):
        # an edge inside each of the two classes that come last in index
        # order: the messages follow the classes' first members, whatever
        # order the per-factor ideals are met in
        spec = RingSpec(moduli)
        g = graphs.build_cozero_graph(spec)
        classes = [[g.labels.index(m) for m in members]
                   for _, members in rings.associate_classes(spec).classes
                   if len(members) > 1]
        rows = list(g.adj)
        for a, b, *_ in classes[-2:]:
            rows[a] ^= 1 << b
            rows[b] ^= 1 << a
        wrong = CozeroGraph(spec=g.spec, labels=g.labels, adj=tuple(rows))
        r = self.report_on(monkeypatch, wrong)
        messages = r.observed.split("; ")
        twin = pairwise_twin_problems(wrong)
        assert len(twin) >= 2 and messages[2:] == twin[:3]

    def test_loop_is_a_mismatch(self, monkeypatch):
        # no pair test sees a loop in a ring with singleton associate classes
        g = graphs.build_cozero_graph(RingSpec((2, 2, 2)))
        wrong = CozeroGraph(spec=g.spec, labels=g.labels,
                            adj=(g.adj[0] | 1,) + g.adj[1:])
        r = self.report_on(monkeypatch, wrong)
        assert not r.passed
        assert r.observed == f"adjacency mismatch at {g.labels[0]},{g.labels[0]}"

    @pytest.mark.parametrize("label", [(0, 0, 0), (1, 1, 1)], ids=["zero", "unit"])
    def test_non_vertex_label_is_in_no_part(self, monkeypatch, label):
        # zero has three zero components and a unit none, so neither has a
        # zero-count part: planted at any vertex, it is filed into none and
        # the report fails, with no exception
        g = graphs.build_cozero_graph(RingSpec((2, 2, 2)))
        for v in range(g.n):
            labels = g.labels[:v] + (label,) + g.labels[v + 1:]
            wrong = CozeroGraph(spec=g.spec, labels=labels, adj=g.adj)
            assert v not in itertools.chain(*graphs.nzc_partition(wrong))
            r = self.report_on(monkeypatch, wrong)
            assert not r.passed and not r.skipped
            assert "zero-count parts do not partition the vertex set" in r.observed.split("; ")

    @pytest.mark.parametrize("spec", RINGS, ids=str)
    def test_every_pair_flipped(self, monkeypatch, spec):
        g = graphs.build_cozero_graph(spec)
        wrong = graphs.complement(g)
        r = self.report_on(monkeypatch, wrong)
        expected = pairwise_mismatches(wrong)
        assert len(expected) == g.n * (g.n - 1) // 2 > 5
        assert not r.passed
        assert r.observed == "; ".join(expected[:5])


class TestRunSuite:
    def test_cross_product(self):
        specs = [RingSpec((2, 2)), RingSpec((2, 2, 2))]
        reports = run_suite(["clique-formula"], specs)
        assert len(reports) == 2
        assert all(r.passed for r in reports)

    def test_unknown_claim(self):
        with pytest.raises(UnknownClaimError):
            run_suite(["bogus"], [RingSpec((2, 2))])

    def test_empty_names(self):
        assert run_suite([], [RingSpec((2, 2))]) == []

    def test_sorted_output(self):
        specs = [RingSpec((3, 3)), RingSpec((2, 2))]
        reports = run_suite(sorted(CLAIMS), specs)
        keys = [(r.claim_id, str(r.spec)) for r in reports]
        assert keys == sorted(keys)

    def test_skips_recorded_not_dropped(self):
        reports = run_suite(["null-graph"], [RingSpec((7,)), RingSpec((8,))])
        assert len(reports) == 2
        assert any(r.skipped for r in reports)

    def test_duplicates_report_once(self):
        # a report is keyed by (claim id, spec): a name or a spec given twice
        # runs once, in first-seen order before the sort
        z6, z9 = RingSpec((2, 3)), RingSpec((3, 3))
        once = run_suite(["quotient-reduction", "clique-formula"], [z6, z9])
        assert len(once) == 4
        twice = run_suite(["quotient-reduction", "clique-formula", "quotient-reduction"],
                          [z6, z9, RingSpec((2, 3))])
        assert twice == once


class TestOneCasePerRing:
    RINGS = [RingSpec(m) for m in [(2, 3, 5), (3, 3), (4,), (7,), (2, 4)]]

    def test_each_ring_built_and_solved_once(self, monkeypatch):
        built: dict = {}
        solved: list = []
        build = graphs.build_cozero_graph
        max_clique, chromatic_number = solvers.max_clique, solvers.chromatic_number

        def counting_build(spec, **caps):
            g = build(spec, **caps)
            built.setdefault(spec, []).append(g)
            return g

        def counting(name, solve):
            def wrapper(g, **caps):
                solved.append((name, g))
                return solve(g, **caps)
            return wrapper

        monkeypatch.setattr(graphs, "build_cozero_graph", counting_build)
        monkeypatch.setattr(solvers, "max_clique", counting("clique", max_clique))
        monkeypatch.setattr(solvers, "chromatic_number",
                            counting("chi", chromatic_number))
        reports = run_suite(sorted(CLAIMS), self.RINGS)
        assert len(reports) == 5 * len(self.RINGS)
        assert all(r.passed for r in reports)
        # quotient-reduction also builds Z2^n to compare its quotient with
        assert {s for s in built if s not in self.RINGS} == {
            RingSpec((2, 2, 2)), RingSpec((2, 2))}
        assert all(len(built[s]) == 1 for s in self.RINGS)
        # omega is the colouring's antichain: no clique search on any graph
        assert [h for n, h in solved if n == "clique"] == []
        for spec in self.RINGS:
            full = built[spec][0]
            expected = 1 if spec in [RingSpec((2, 3, 5)), RingSpec((3, 3))] else 0
            assert sum(h is full for n, h in solved if n == "chi") == expected

    def test_each_modulus_factored_once(self, monkeypatch):
        # the skip rules and claims all read RingSpec.fields, cached per spec
        specs = default_ring_set()
        factored: list = []
        factorize = rings.factorize
        monkeypatch.setattr(rings, "factorize",
                            lambda n: factored.append(n) or factorize(n))
        run_suite(sorted(CLAIMS), specs)
        assert sorted(factored) == sorted(m for spec in specs for m in spec.moduli)

    def test_analyze_runs_no_clique_search(self, monkeypatch, capsys):
        from cozero.cli import main
        searched: list = []
        monkeypatch.setattr(solvers, "max_clique",
                            lambda g, **caps: searched.append(g))
        assert main(["analyze", "--format", "json", "Z2xZ3xZ5", "Z4xZ9", "Z8"]) == 0
        infos = json.loads(capsys.readouterr().out)
        assert searched == []
        assert [info["omega"] for info in infos] == [3, 3, 1]


@pytest.mark.parametrize("text", ["Z2xZ3xZ5", "Z2xZ2xZ2xZ2xZ2", "Z3xZ5xZ7"])
def test_analyze_and_verify_share_a_witness(capsys, text):
    # both take the clique from one Case's colouring
    from cozero.cli import main
    assert main(["analyze", "--format", "json", text]) == 0
    [info] = json.loads(capsys.readouterr().out)
    [report] = run_suite(["clique-formula"], [rings.parse_spec(text)])
    assert report.passed and info["clique_witness"] == report.witness["clique"]


def count_validations(monkeypatch) -> tuple[list, list]:
    """Record the graph of each validated_order call, and the graph of each
    validate_orientation call, as the library makes them."""
    ordered: list = []
    validated: list = []
    validated_order, validate = solvers.validated_order, solvers.validate_orientation

    def counting_order(g):
        ordered.append(g)
        return validated_order(g)

    def counting_validate(g, *certificate):
        validated.append(g)
        return validate(g, *certificate)

    monkeypatch.setattr(solvers, "validated_order", counting_order)
    monkeypatch.setattr(solvers, "validate_orientation", counting_validate)
    return ordered, validated


class TestOneValidationPerGraph:
    def test_verify_validates_each_graph_once(self, monkeypatch):
        # colouring and perfection share the case's order; quotient-reduction
        # restricts the case's certificates to the order's core and builds no
        # quotient: one induced subgraph, the core, per ordered ring
        built: dict = {}
        build = graphs.build_cozero_graph
        monkeypatch.setattr(graphs, "build_cozero_graph", lambda spec, **caps:
                            built.setdefault(spec, []).append(build(spec, **caps))
                            or built[spec][-1])
        ordered, validated = count_validations(monkeypatch)
        induced, quotients = [], []
        induced_subgraph, quotient = graphs.induced_subgraph, graphs.quotient_by_associates
        for module in (graphs, solvers):
            monkeypatch.setattr(module, "induced_subgraph", lambda g, keep:
                                induced.append(g) or induced_subgraph(g, keep))
        monkeypatch.setattr(graphs, "quotient_by_associates",
                            lambda g: quotients.append(g) or quotient(g))
        rings_ = [RingSpec(m) for m in [(2, 3, 5), (3, 3), (4,), (7,), (2, 4), (2,) * 4]]
        reports = run_suite(sorted(CLAIMS), rings_)
        assert all(r.passed for r in reports)
        assert quotients == [] and induced == ordered
        assert len(validated) == len(ordered)
        assert len({id(g) for g in ordered}) == len(ordered)
        # exactly the rings with a colouring or a perfection claim, once each
        full = [built[s][0] for s in rings_ if s not in (RingSpec((4,)), RingSpec((2, 4)))]
        assert len(ordered) == len(full)
        assert all(g is h for g, h in zip(ordered, full))

    def test_analyze_validates_each_ring_once(self, monkeypatch, capsys):
        from cozero.cli import main
        ordered, validated = count_validations(monkeypatch)
        specs = ["Z2xZ3xZ5", "Z4xZ9", "Z8", "Z2xZ2xZ2xZ2xZ2"]
        assert main(["analyze", *specs]) == 0
        assert capsys.readouterr().out.count("perfect=true") == 4
        assert [str(g.spec) for g in ordered] == specs
        assert len(validated) == 4

    @staticmethod
    def count_builds(monkeypatch) -> list:
        """Record the spec text of each graph the library builds."""
        built: list = []
        build = graphs.build_cozero_graph
        monkeypatch.setattr(graphs, "build_cozero_graph", lambda spec, **caps:
                            built.append(str(spec)) or build(spec, **caps))
        return built

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_analyze_builds_each_ring_once(self, monkeypatch, capsys, fmt):
        # a ring over the vertex guard too: built once, its message the guard's
        from cozero.cli import main
        built = self.count_builds(monkeypatch)
        specs = ["Z2xZ3", "Z2xZ2xZ2", "Z4", "Z9"]
        assert main(["analyze", "--max-vertices", "5", "--format", fmt, *specs]) == 1
        assert built == specs
        out = capsys.readouterr().out
        if fmt == "json":
            assert json.loads(out)[1] == {"spec": "Z2xZ2xZ2",
                                          "error": "graph has 6 vertices, cap is 5"}
        else:
            assert "\nZ2xZ2xZ2: error: graph has 6 vertices, cap is 5\n" in out

    @pytest.mark.parametrize("argv,code", [
        (["Z2xZ2xZ2", "--max-vertices", "5"], 1),
        (["Z2xZ2xZ2", "--max-vertices", "5", "--quotient"], 1),
        (["Z12", "--quotient"], 0),
        (["Z12", "--complement"], 0),
    ])
    def test_export_builds_its_ring_once(self, monkeypatch, capsys, argv, code):
        from cozero.cli import main
        built = self.count_builds(monkeypatch)
        assert main(["export", *argv]) == code
        assert built == argv[:1]
        assert capsys.readouterr().err == (
            "cozero: error: graph has 6 vertices, cap is 5\n" if code else "")

    def test_verify_builds_a_ring_over_the_guard_once(self, monkeypatch, capsys):
        # each of the five claims skips it as cap-exceeded, from one build
        from cozero.cli import main
        built = self.count_builds(monkeypatch)
        assert main(["verify", "--max-vertices", "5", "Z2xZ2xZ2"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert [r["reason"] for r in reports] == ["cap-exceeded"] * 5
        assert built == ["Z2xZ2xZ2"]

    def test_boolean_graph_built_once_per_n(self, monkeypatch):
        built: list = []
        build = graphs.build_cozero_graph
        monkeypatch.setattr(graphs, "build_cozero_graph", lambda spec, **caps:
                            built.append(spec) or build(spec, **caps))
        rings_ = [RingSpec(m) for m in [(2, 3), (3, 5), (5, 7), (2, 3, 5), (3, 5, 7)]]
        reports = run_suite(["quotient-reduction"], rings_)
        assert all(r.passed and not r.skipped for r in reports)
        assert [s for s in built if s not in rings_] == [RingSpec((2, 2)), RingSpec((2, 2, 2))]
        # each run holds its own
        run_suite(["quotient-reduction"], rings_[:1])
        assert built.count(RingSpec((2, 2))) == 2


class TestRunTables:
    """Each run keeps its ideal tables and Z2^n graphs in one dict of its own;
    nothing is cached at module level, so concurrent runs share no state."""

    RINGS = [RingSpec(m) for m in [(2, 3), (4,), (3, 3), (2, 4), (12,)]]

    def test_two_runs_share_no_table(self, monkeypatch):
        seen: list = []
        ideals = verify._ideals
        monkeypatch.setattr(verify, "_ideals",
                            lambda tables, n: seen.append(tables) or ideals(tables, n))
        first = run_suite(sorted(CLAIMS), self.RINGS)
        runs = [seen[:]]
        seen.clear()
        assert run_suite(sorted(CLAIMS), self.RINGS) == first
        runs.append(seen)
        assert all(len({id(t) for t in run}) == 1 for run in runs)
        assert runs[0][0] is not runs[1][0]
        # the same moduli, listed once per run, in equal tables
        assert runs[0][0].keys() == runs[1][0].keys() >= {2, 3, 4, 12}

    def test_walk_matches_multiples(self):
        # each distinct ideal is one object, listed by its least generator
        for n in range(2, 301):
            table = verify._ideals({}, n)
            assert table == [rings.multiples(y, n) for y in range(n)], n
            divisors = sum(n % d == 0 for d in range(1, n + 1))
            assert len({id(yz) for yz in table}) == divisors, n

    def test_equal_ideals_are_one_object(self):
        tables: dict = {}
        table = verify._ideals(tables, 12)
        assert verify._ideals(tables, 12) is table is tables[12]
        assert list(table) == [rings.multiples(y, 12) for y in range(12)]
        # one object per ideal of Z12, one ideal per divisor
        assert len({id(yz) for yz in table}) == len(set(table)) == 6

    def test_cases_share_the_tables_given(self):
        spec, tables = RingSpec((2, 3)), {}
        assert Case(spec, Caps(), tables).tables is tables is Case(spec, tables=tables).tables
        assert Case(spec).tables == {} and Case(spec).tables is not Case(spec).tables

    @pytest.mark.parametrize("module", [rings, verify], ids=lambda m: m.__name__)
    def test_no_module_level_cache(self, module):
        def mutable_state():
            return {name: repr(value) for name, value in vars(module).items()
                    if not name.startswith("__")
                    and isinstance(value, (dict, list, set, bytearray))}

        before = mutable_state()
        run_suite(sorted(CLAIMS), self.RINGS)
        assert mutable_state() == before
        members = [*vars(module).values()] + [
            attr for cls in vars(module).values() if isinstance(cls, type)
            for attr in vars(cls).values()]
        assert [m for m in members if hasattr(m, "cache_info")] == []


class TestCapFirst:
    # each ring would skip for another reason if the cap were tested later
    @pytest.mark.parametrize("claim,moduli,later_reason", [
        ("clique-formula", (4,), "not-vnr"),
        ("clique-formula", (2,), "too-few-factors"),
        ("perfection", (4,), "not-vnr"),
        ("null-graph", (7,), "is-domain"),
        ("quotient-reduction", (9,), "not-vnr"),
        ("quotient-reduction", (3,), "too-few-factors"),
    ])
    def test_over_cap_skips_as_cap_exceeded(self, claim, moduli, later_reason):
        spec = RingSpec(moduli)
        assert CLAIMS[claim](Case(spec)).reason == later_reason
        r = CLAIMS[claim](Case(spec, Caps(max_cardinality=spec.cardinality - 1)))
        assert r.skipped and r.reason == "cap-exceeded"


class TestDefaultRingSet:
    def test_contains_required_rings(self):
        specs = {str(s) for s in default_ring_set()}
        for text in ["Z4", "Z8", "Z9", "Z25", "Z27", "Z2xZ4",
                     "Z2xZ2", "Z2xZ3xZ5", "Z3xZ5xZ7"]:
            assert text in specs

    def test_vnr_members_within_bound(self):
        for s in default_ring_set(64):
            assert s.cardinality <= 64 or s.moduli in \
                [(4,), (8,), (9,), (25,), (27,), (2, 4)]

    def test_deterministic(self):
        assert default_ring_set() == default_ring_set()


class TestReportJson:
    def test_shape(self):
        reports = run_suite(["clique-formula"], [RingSpec((2, 2))])
        data = json.loads(reports_to_json(reports))
        assert data[0]["claim_id"] == "clique-formula"
        assert data[0]["spec"] == "Z2xZ2"
        assert data[0]["pass"] is True
        assert "elapsed" not in data[0]

    @staticmethod
    def report(**fields) -> verify.VerificationReport:
        return verify.VerificationReport(**{
            "claim_id": "graph-invariants", "spec": RingSpec((2, 3)), "expected": "e",
            "observed": "o", "passed": True, **fields})

    def test_writer_matches_json_dumps(self):
        suite = run_suite(sorted(CLAIMS), [RingSpec(m) for m in [
            (2, 3, 5), (6, 5), (4,), (7,), (2,) * 7]])
        # passes with a clique, a bijection or no witness, and skips
        assert {(r.passed, r.skipped, r.witness and tuple(r.witness)) for r in suite} == {
            (True, False, ("clique",)), (True, False, ("bijection",)),
            (True, False, None), (True, True, None)}
        shapes = [self.report(passed=False, witness={"clique": []}),
                  self.report(witness={"bijection": [2, 0, 1], "clique": [0]}),
                  self.report(skipped=True, reason="cap-exceeded"),
                  self.report(witness={"bits": [1, True, 0, False]})]
        escapes = [self.report(
            claim_id='q"uote\\back\nline', observed="\u00e9t\u00e9 \u03c9 \U0001d4b3",
            reason="\t\x00", witness={'k"\n': ["s", -1, None, True, {}, [[]], 0.5]})]
        for reports in [[], suite, shapes, escapes]:
            expected = json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n"
            assert reports_to_json(reports) == expected

    def test_report_defaults_and_replace(self):
        r = verify.VerificationReport("null-graph", RingSpec((2,)), "e", "o", True)
        assert (r.witness, r.skipped, r.reason) == (None, False, None)
        failed = r._replace(passed=False)
        assert type(failed) is verify.VerificationReport and not failed.passed
        assert failed.to_json_dict() == {**r.to_json_dict(), "pass": False}

    def test_byte_identical_runs(self):
        specs = [RingSpec((2, 2)), RingSpec((3, 3)), RingSpec((8,))]
        a = reports_to_json(run_suite(sorted(CLAIMS), specs))
        b = reports_to_json(run_suite(sorted(CLAIMS), specs))
        assert a == b
