import collections
import itertools
import json
import sys
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from cozero import graphs, rings, solvers, verify
from cozero.graphs import CozeroGraph
from cozero.rings import RingSpec, parse_spec
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
from conftest import CLASS_RINGS, cycle_graph, ideal_by_enumeration, is_unit, nzc_partition


def planted_core(monkeypatch, spec: RingSpec, flips) -> Case:
    """A case of spec whose order's core, gathered by graphs.gather from the
    graph's rows, has each pair (a, b) of core vertices in flips flipped."""
    keep, gather = list(Case(spec).order.keep), graphs.gather

    def flipped(rows, cols, n):
        out = list(gather(rows, cols, n))
        if list(cols) == keep:
            for a, b in flips:
                out[a], out[b] = out[a] ^ 1 << b, out[b] ^ 1 << a
        return tuple(out)

    monkeypatch.setattr(graphs, "gather", flipped)
    return Case(spec)


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

    def test_count_off_its_clique_fails(self, monkeypatch):
        # a chain cover with one chain more than its antichain: the colouring
        # and the clique are each valid, but omega != chi, and chromatic_number
        # rejects the cover where it is made, so the claim reports its error
        cover = solvers._chain_cover

        def one_more(out):
            count, colors, antichain = cover(out)
            return count + 1, colors, antichain

        monkeypatch.setattr(solvers, "_chain_cover", one_more)
        [r] = run_suite(["clique-formula"], [RingSpec((2, 3, 5))])
        assert not r.passed and r.reason == "error"
        assert r.observed == ("error: AssertionError: chain cover of Z2xZ3xZ5 with 4 "
                              "chains is not matched by a clique of the same size")

    @pytest.mark.parametrize("plant,flips", [("clique", [(1, 5), (4, 5)]),
                                             ("colouring", [(1, 4)])],
                             ids=["clique", "colouring"])
    def test_cover_off_the_graph_fails(self, monkeypatch, plant, flips):
        # the lift from a core gathered wrong, whose order stays transitive
        # and of width 3: (1,1,0), its core row given (0,1,0) for (1,0,1),
        # is in an antichain with (0,1,0), a clique of the core but not of
        # the graph; the edge (0,1,0)-(1,0,1) dropped puts both on one
        # chain, a colouring of the core with an edge of the graph in one
        # colour.  Each keeps its size and count, and fails on the graph only
        case = planted_core(monkeypatch, RingSpec((2, 3, 5)), flips)
        g, gc = case.graph, case.coloring
        assert solvers.validate_clique(g, gc.clique) == (plant != "clique")
        assert solvers.validate_coloring(g, gc.assignment, gc.count) == (plant != "colouring")
        r = check_formula(case)
        assert not r.passed and r.observed == "omega=3 chi=3"


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
                            lambda spec, **caps: cycle_graph(5))
        with pytest.raises(ValueError):
            check_perfection(Case(RingSpec((2, 2))))
        monkeypatch.setattr(graphs, "build_cozero_graph",
                            lambda spec, **caps: wrong)
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

    @pytest.mark.parametrize("moduli", [(6, 5), (30,), (6, 10), (2, 15), (10, 21)], ids=str)
    def test_permuted_rows_gathered_as_moved_bit_by_bit(self, moduli):
        # the rings whose bijection is no identity: the core's rows gathered
        # by its inverse are the rows with each bit j moved to bijection[j],
        # which are the boolean graph's
        case = Case(RingSpec(moduli))
        r = check_reduction(case)
        bijection, q = r.witness["bijection"], case.order.core
        assert r.passed and bijection != sorted(bijection)
        moved = tuple(sum(1 << bijection[j] for j in graphs.bits(row)) for row in q.adj)
        inverse = sorted(range(q.n), key=bijection.__getitem__)
        assert graphs.gather(q.adj, inverse, q.n) == moved
        boolean = graphs.build_cozero_graph(RingSpec((2,) * len(RingSpec(moduli).fields)))
        assert moved == tuple(map(boolean.adj.__getitem__, bijection))

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

    @staticmethod
    def planted_cover(monkeypatch, plant):
        """The clique-formula and quotient-reduction reports of Z2xZ3xZ5 when
        each chain cover is plant(count, colors, antichain, the core's edges)."""
        spec, cover = RingSpec((2, 3, 5)), solvers._chain_cover
        edges = Case(spec).order.core.edges()
        monkeypatch.setattr(solvers, "_chain_cover", lambda out: plant(*cover(out), edges))
        reports = run_suite(["clique-formula", "quotient-reduction"], [spec])
        assert [r.claim_id for r in reports] == ["clique-formula", "quotient-reduction"]
        return reports

    def test_restricted_colouring_must_colour_the_quotient(self, monkeypatch):
        # negative control: the chain cover gives two adjacent core vertices
        # one colour; chromatic_number rejects it where it is made, and both
        # claims that read the colouring report its error
        def shared(count, colors, antichain, edges):
            a, b = edges[0]
            colors[b] = colors[a]
            return count, colors, antichain

        for r in self.planted_cover(monkeypatch, shared):
            assert not r.passed and r.reason == "error"
            assert r.observed == ("error: AssertionError: chain cover of Z2xZ3xZ5 with 3 "
                                  "chains is not matched by a clique of the same size")

    def test_cover_lies_on_and_colours_the_core(self):
        # the case's cover, which quotient-reduction reads as the quotient's
        # omega and chi, on every default ring and the analyze-classes rings:
        # its clique is count pairwise adjacent kept vertices, and its
        # colours on the kept vertices colour the core with count colours
        specs = default_ring_set() + [parse_spec(text) for text in CLASS_RINGS]
        for case in (Case(spec, Caps(max_vertices=2048)) for spec in specs):
            order, gc = case.order, case.coloring
            at = {rep: v for v, rep in enumerate(order.keep)}
            assert set(gc.clique) <= set(order.keep) and len(gc.clique) == gc.count
            assert all(order.core.has_edge(at[a], at[b])
                       for a, b in itertools.combinations(gc.clique, 2))
            colors = [gc.assignment[k] for k in order.keep]
            assert all(0 <= c < gc.count for c in colors)
            assert all(colors[a] != colors[b] for a, b in order.core.edges())

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

    @pytest.mark.parametrize("moduli,pair", [((2, 3, 5), (1, 4)), ((6, 5), (0, 1))],
                             ids=["identity", "permuted"])
    def test_corrupted_quotient_row_fails(self, monkeypatch, moduli, pair):
        # negative control: the core that the claim reads as the quotient is
        # gathered without the edge between a vertex and the one of the
        # complementary support; its order stays transitive and its cover
        # valid, and the rows fail under the whole-row comparison and under
        # the permutation alike
        r = check_reduction(planted_core(monkeypatch, RingSpec(moduli), [pair]))
        assert not r.passed and not r.skipped
        assert r.observed.endswith("iso=no") and r.witness is None

    @staticmethod
    def planted(moduli, corrupt):
        """A case whose order and colouring are computed, then whose graph is
        replaced by corrupt(graph, a non-kept vertex, the mask of its class),
        and whose row classes are then the corrupt graph's."""
        case = Case(RingSpec(moduli))
        g, order, _ = case.graph, case.order, case.coloring
        v = next(v for v in range(g.n) if v not in order.keep)
        members = graphs.positions(g.adj)[g.adj[v]]
        case.__dict__["graph"] = CozeroGraph(g.spec, g.labels, corrupt(g, v, members))
        del case.__dict__["row_classes"]
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
    def test_loop_inside_an_associate_class_fails(self, monkeypatch, moduli):
        # negative control: each member of a class of two or more gets the
        # whole class in its row; the members still share one row, but it
        # holds them, and the order's certificate, which the claim reads,
        # rejects the rows
        spec, build = RingSpec(moduli), graphs.build_cozero_graph
        g = build(spec)
        members = next(m for m in graphs.positions(g.adj).values() if m & m - 1)
        adj = tuple(row | members if members >> u & 1 else row for u, row in enumerate(g.adj))
        assert len({*adj}) == len({*g.adj})  # the row classes are kept
        wrong = CozeroGraph(g.spec, g.labels, adj)
        monkeypatch.setattr(graphs, "build_cozero_graph",
                            lambda s, **caps: wrong if s == spec else build(s, **caps))
        [r] = run_suite(["quotient-reduction"], [spec])
        assert not r.passed and r.reason == "error" and r.witness is None
        assert r.observed == (f"error: AssertionError: the rows of {spec} are not "
                              f"a symmetric, loopless graph")

    def test_unit_label_fails_without_raising(self, monkeypatch):
        # negative control: the one-member class (1,0,0) of Z2xZ3xZ5 built
        # with the unit label (1,1,1), whose rank is the ring's: the order
        # orients the complement up that rank, no longer transitively, and
        # the claim, which reads the order, reports its error
        spec, build = RingSpec((2, 3, 5)), graphs.build_cozero_graph

        def relabelled(s, **caps):
            g = build(s, **caps)
            labels = [(1, 1, 1) if s == spec and v == (1, 0, 0) else v for v in g.labels]
            return CozeroGraph(g.spec, tuple(labels), g.adj)

        monkeypatch.setattr(graphs, "build_cozero_graph", relabelled)
        [r] = run_suite(["quotient-reduction"], [spec])
        assert not r.passed and r.reason == "error" and r.witness is None
        assert r.observed == ("error: AssertionError: ideal orientation of Z2xZ3xZ5 does "
                              "not orient the complement transitively")

    @pytest.mark.parametrize("moduli", [(2, 3, 5), (6, 5)], ids=["identity", "permuted"])
    def test_boolean_graph_with_the_unit_fails_where_its_rows_agree(self, monkeypatch, moduli):
        # negative control: a build of Z2^3 that keeps the unit (1,1,1), which
        # is in no other vertex's row, as a last, isolated vertex; every
        # support has its image and every core row agrees with its image's,
        # but the map misses the unit, so it is no permutation
        build = graphs.build_cozero_graph

        def with_unit(spec, **caps):
            g = build(spec, **caps)
            if spec != RingSpec((2, 2, 2)):
                return g
            return CozeroGraph(g.spec, g.labels + ((1, 1, 1),), g.adj + (0,))

        monkeypatch.setattr(graphs, "build_cozero_graph", with_unit)
        r = check_reduction(Case(RingSpec(moduli)))
        assert not r.passed and not r.skipped
        assert r.observed.endswith("iso=no") and r.witness is None

    def test_count_off_its_clique_fails(self, monkeypatch):
        # TestCheckFormula's planted count, planted where the cover is made:
        # one chain more than its antichain, which chromatic_number rejects
        def one_more(count, colors, antichain, edges):
            return count + 1, colors, antichain

        for r in self.planted_cover(monkeypatch, one_more):
            assert not r.passed and r.reason == "error"
            assert r.observed == ("error: AssertionError: chain cover of Z2xZ3xZ5 with 4 "
                                  "chains is not matched by a clique of the same size")

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

    def test_part_sizes_are_checked(self):
        # Z2^4's graph without its first vertex, (0,0,0,1): every row is the
        # one its labels define, so only the size of A_3 tells
        case = Case(RingSpec((2,) * 4))
        g = case.graph
        case.__dict__["graph"] = graphs.induced_subgraph(g, range(1, g.n))
        r = check_invariants(case)
        assert not r.passed and r.observed == "|A_3| = 3 != C(4,3)"

    def test_peak_allocation_on_boolean_ring(self):
        # 2046 keys, each its own class, with the graph and its row classes
        # built: the expected rows are compared as they are made, none held,
        # and the partial folds of the first nine factors are 512 pairs
        spec = RingSpec((2,) * 11)
        check_invariants(Case(spec))  # its key tuples freed, as a run's earlier rings leave them
        case = Case(spec)
        assert len(case.row_classes) == case.graph.n == 2046
        tracemalloc.start()
        try:
            r = check_invariants(case)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.passed
        # the one-fold-per-class check peaked at 1.157 MB
        assert peak < 1.157e6 * 1.05, peak

    def test_peak_allocation_on_large_classes(self):
        # 5,264 vertices in 79 associate classes: one expected row per class,
        # the class map and the row classes, 0.635 MB at the warm peak; a
        # mask per vertex, such as a list of rows or of ideal masks, would
        # take the peak past 10 MB
        spec = RingSpec((9, 9, 9, 9))
        check_invariants(Case(spec))  # a warm interpreter, as a run's earlier rings leave it
        case = Case(spec)
        assert case.graph.n == 5264
        tracemalloc.start()
        try:
            r = check_invariants(case)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.passed
        assert peak < 6.35e5 * 1.05, peak


def plant_invariant_fault(g: CozeroGraph, fault: str) -> CozeroGraph:
    """g with one row fault: a bit of the middle row, below or above the
    diagonal, in that row only; rows 1 and n - 2 swapped; or one bit, of
    vertex 0, in the row of the last member of the largest associate class."""
    rows, i = list(g.adj), g.n // 2
    if fault == "bit below":
        rows[i] ^= 1 << g.n // 4
    elif fault == "bit above":
        rows[i] ^= 1 << 3 * g.n // 4
    elif fault == "rows swapped":
        rows[1], rows[-2] = rows[-2], rows[1]
    else:  # one twin's row
        members = max((m for _, m in rings.associate_classes(g.spec).classes), key=len)
        rows[g.labels.index(members[-1])] ^= 1
    return CozeroGraph(spec=g.spec, labels=g.labels, adj=tuple(rows))


# the reports of the one-fold-per-class check on each planted fault; Z2^7
# has no twins, and its 128 keys fold over seven levels
PLANTED_REPORTS = {
    ("Z2xZ2xZ2xZ2xZ2xZ2xZ2", "bit below"):
        "adjacency mismatch at (0, 1, 0, 0, 0, 0, 0),(1, 0, 0, 0, 0, 0, 0)",
    ("Z2xZ2xZ2xZ2xZ2xZ2xZ2", "bit above"):
        "adjacency mismatch at (1, 0, 0, 0, 0, 0, 0),(1, 0, 1, 1, 1, 1, 1)",
    ("Z2xZ2xZ2xZ2xZ2xZ2xZ2", "rows swapped"):
        "adjacency mismatch at (0, 0, 0, 0, 0, 0, 1),(0, 0, 0, 0, 0, 1, 0); "
        "adjacency mismatch at (0, 0, 0, 0, 0, 0, 1),(1, 1, 1, 1, 1, 0, 1); "
        "adjacency mismatch at (0, 0, 0, 0, 0, 1, 0),(0, 0, 0, 0, 0, 1, 0); "
        "adjacency mismatch at (0, 0, 0, 0, 0, 1, 0),(0, 0, 0, 0, 0, 1, 1); "
        "adjacency mismatch at (0, 0, 0, 0, 0, 1, 0),(0, 0, 0, 0, 1, 0, 0)",
    ("Z2xZ2xZ3xZ5", "bit below"):
        "adjacency mismatch at (0, 0, 2, 3),(0, 1, 2, 1)",
    ("Z2xZ2xZ3xZ5", "bit above"):
        "adjacency mismatch at (0, 1, 2, 1),(1, 0, 1, 4)",
    ("Z2xZ2xZ3xZ5", "rows swapped"):
        "adjacency mismatch at (0, 0, 0, 1),(0, 0, 0, 2); "
        "adjacency mismatch at (0, 0, 0, 1),(1, 1, 1, 0); "
        "adjacency mismatch at (0, 0, 0, 2),(0, 0, 0, 2); "
        "adjacency mismatch at (0, 0, 0, 2),(0, 0, 0, 3); "
        "adjacency mismatch at (0, 0, 0, 2),(0, 0, 0, 4)",
    ("Z2xZ2xZ3xZ5", "twin row"):
        "adjacency mismatch at (0, 0, 0, 1),(0, 0, 2, 4)",
    ("Z4xZ9", "bit below"): "adjacency mismatch at (0, 6),(2, 0)",
    ("Z4xZ9", "bit above"): "adjacency mismatch at (2, 0),(2, 6)",
    ("Z4xZ9", "rows swapped"):
        "adjacency mismatch at (0, 1),(0, 2); adjacency mismatch at (0, 1),(3, 3); "
        "adjacency mismatch at (0, 2),(0, 2); adjacency mismatch at (0, 2),(0, 4); "
        "adjacency mismatch at (0, 2),(0, 5)",
    ("Z4xZ9", "twin row"):
        "adjacency mismatch at (0, 1),(0, 8)",
}


@pytest.mark.parametrize("text,fault", PLANTED_REPORTS,
                         ids=[f"{text}-{fault.replace(' ', '-')}"
                              for text, fault in PLANTED_REPORTS])
def test_planted_invariant_fault_report(text, fault):
    case = Case(parse_spec(text))
    case.__dict__["graph"] = plant_invariant_fault(case.graph, fault)
    r = check_invariants(case)
    assert not r.passed and r.observed == PLANTED_REPORTS[text, fault]


def pairwise_mismatches(g: CozeroGraph) -> list[str]:
    """The adjacency mismatches of g, pair by pair in order of i, then j >= i,
    against the definition: a-b is an edge iff a not in Rb and b not in Ra,
    read from row i and from row j; a is in Ra, so a loop is named a,a."""
    ideals = [ideal_by_enumeration(g.spec, v) for v in g.labels]
    return [f"adjacency mismatch at {g.labels[i]},{g.labels[j]}"
            for i, j in itertools.combinations_with_replacement(range(g.n), 2)
            if not g.has_edge(i, j) == g.has_edge(j, i) == (
                g.labels[i] not in ideals[j] and g.labels[j] not in ideals[i])]


class TestInvariantsOnWrongGraphs:
    """check_invariants against graphs.build_cozero_graph patched to return
    a wrong graph: it must fail and name the mismatched pairs in order."""

    # Z6xZ5: a squarefree composite modulus, whose Z6 column has four
    # ideals, so a product of fields with no zero-count check
    RINGS = [RingSpec(m) for m in [(2, 2, 2), (2, 3, 5), (4, 9), (8, 3), (6, 5)]]

    def report_on(self, monkeypatch, wrong: CozeroGraph):
        monkeypatch.setattr(graphs, "build_cozero_graph",
                            lambda spec, **caps: wrong)
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
        assert r.observed == expected[0]

    # zero-count parts exist only over split products of prime fields
    @pytest.mark.parametrize("kind,spec", [
        (kind, RingSpec(m))
        for kind in ["associates", "same-part", "any", "one-way", "loop",
                     "edge-and-loop", "loop-and-edge"]
        for m in [(3, 5), (2, 2, 3), (2, 3, 5), (9,), (4, 9), (6, 5)]
        if kind != "same-part" or m in [(3, 5), (2, 2, 3), (2, 3, 5)]], ids=str)
    def test_twin_messages_match_pairwise(self, monkeypatch, spec, kind):
        # bits flipped inside an associate class or a zero-count part, in
        # both rows or only one, loops included: the whole-row comparison
        # names exactly the pairs the definition finds wrong, in order
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
        expected = pairwise_mismatches(wrong)
        assert expected and not r.passed
        assert r.observed == "; ".join(expected[:5])

    @pytest.mark.parametrize("moduli", [(3, 4), (4, 9), (2, 3, 5)], ids=str)
    def test_failing_classes_named_in_order(self, monkeypatch, moduli):
        # an edge inside each of the two classes that come last in index
        # order: the pairs are named in index order, whatever order the
        # per-factor ideals are met in
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
        expected = pairwise_mismatches(wrong)
        assert len(expected) == 2 and not r.passed
        assert r.observed == "; ".join(expected)

    def test_loop_is_a_mismatch(self, monkeypatch):
        # a vertex lies in its own ideal, so a loop is the pair a,a
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
            assert v not in itertools.chain(*nzc_partition(wrong))
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

    # a bit wrong in one row only, below the diagonal, or a row zeroed but
    # not its column (mask None): each pair is named once, from either row
    @pytest.mark.parametrize("moduli,row,mask", [
        ((2, 3, 5), 9, 1 << 4), ((2, 2, 2), -1, 1), ((2, 2, 3), -1, 1),
        ((2, 2, 2), -1, None), ((4, 9), -1, None)], ids=str)
    def test_one_row_fault_is_named(self, monkeypatch, moduli, row, mask):
        g = graphs.build_cozero_graph(RingSpec(moduli))
        rows = list(g.adj)
        rows[row] ^= g.adj[row] if mask is None else mask
        wrong = CozeroGraph(spec=g.spec, labels=g.labels, adj=tuple(rows))
        r = self.report_on(monkeypatch, wrong)
        expected = pairwise_mismatches(wrong)
        assert expected and not r.passed
        messages = r.observed.split("; ")
        assert [m for m in messages if m.startswith("adjacency")] == expected[:5]

    @pytest.mark.parametrize("spec", RINGS, ids=str)
    def test_every_one_row_bit_is_named(self, monkeypatch, spec):
        g = graphs.build_cozero_graph(spec)
        for i, j in itertools.product(range(g.n), repeat=2):
            rows = list(g.adj)
            rows[i] ^= 1 << j
            wrong = CozeroGraph(spec=g.spec, labels=g.labels, adj=tuple(rows))
            r = self.report_on(monkeypatch, wrong)
            a, b = sorted((i, j))
            assert not r.passed
            assert [m for m in r.observed.split("; ") if m.startswith("adjacency")] == [
                f"adjacency mismatch at {g.labels[a]},{g.labels[b]}"]


    @pytest.mark.parametrize("text", ["Z6xZ10", "Z2xZ3xZ5", "Z6xZ5", "Z4xZ9", "Z12",
                                      "Z2xZ2xZ3"])
    def test_every_one_bit_fault_fails_the_order(self, monkeypatch, text):
        # each bit j < n + 2 of each row flipped alone: the rows are no
        # graph, so the order raises, and graph-invariants names the pair,
        # or, for a bit at or above n, the row, and nothing else
        g = graphs.build_cozero_graph(parse_spec(text))
        for i, j in itertools.product(range(g.n), range(g.n + 2)):
            rows = list(g.adj)
            rows[i] ^= 1 << j
            wrong = CozeroGraph(spec=g.spec, labels=g.labels, adj=tuple(rows))
            with pytest.raises(AssertionError, match="^the rows of .* are not a symmetric"):
                solvers.validated_order(wrong, graphs.positions(wrong.adj))
            r = self.report_on(monkeypatch, wrong)
            a, b = sorted((i, j))
            assert not r.passed and r.observed == (
                f"adjacency mismatch at {g.labels[a]},{g.labels[b]}" if j < g.n
                else f"row of {g.labels[i]} has bits outside the vertex range")


def planted(g: CozeroGraph, fault: str) -> CozeroGraph:
    """g with one fault planted at its first and last vertices, which are
    not twins, so of different associate classes, or in every row, whose
    bits below n stay: bit n set, or the row made negative."""
    rows, labels, last = list(g.adj), list(g.labels), g.n - 1
    assert rows[0] != rows[last]
    if fault == "bit past the last vertex":
        rows = [row | 1 << g.n for row in rows]
    elif fault == "negative rows":
        rows = [row - (2 << g.n) for row in rows]
    elif fault == "edge flipped":
        rows[0] ^= 1 << last
        rows[last] ^= 1
    elif fault == "one-row bit flipped":
        rows[last] ^= 1
    elif fault == "row zeroed":
        rows[last] = 0
    elif fault == "labels swapped":
        labels[0], labels[last] = labels[last], labels[0]
    else:  # a unit label planted
        labels[0] = (1,) * len(labels[0])
    return CozeroGraph(spec=g.spec, labels=tuple(labels), adj=tuple(rows))


@pytest.mark.parametrize("fault", ["edge flipped", "one-row bit flipped", "row zeroed",
                                   "labels swapped", "unit planted",
                                   "bit past the last vertex", "negative rows"])
@pytest.mark.parametrize("moduli", [(2, 3, 5), (6, 5), (4, 9)], ids=str)
def test_planted_fault_sweep(monkeypatch, capsys, moduli, fault):
    # every claim runs on the faulty graph, and the other graphs a run
    # builds, such as quotient-reduction's Z2^n, stay sound: no exception
    # leaves run_suite, graph-invariants fails, and verify exits 1
    spec = RingSpec(moduli)
    build = graphs.build_cozero_graph
    wrong = planted(build(spec), fault)
    monkeypatch.setattr(graphs, "build_cozero_graph",
                        lambda s, **caps: wrong if s == spec else build(s, **caps))
    reports = run_suite(sorted(CLAIMS), [spec])
    assert len(reports) == len(CLAIMS)
    [r] = [r for r in reports if r.claim_id == "graph-invariants"]
    assert not r.passed and not r.skipped and r.reason is None
    from cozero.cli import main
    assert main(["verify", str(spec)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("fault", ["bit past the last vertex", "negative rows"])
def test_rows_outside_the_vertex_range_are_named(monkeypatch, fault):
    # the pairs are read from each row inside the vertex range, and the
    # twins' rows agree, so graph-invariants names the off-row vertices
    # whose rows reach outside it, first five in index order
    spec = RingSpec((2, 3, 5))
    build = graphs.build_cozero_graph
    wrong = planted(build(spec), fault)
    monkeypatch.setattr(graphs, "build_cozero_graph",
                        lambda s, **caps: wrong if s == spec else build(s, **caps))
    [r] = run_suite(["graph-invariants"], [spec])
    assert not r.passed and r.observed == "; ".join(
        f"row of {label} has bits outside the vertex range" for label in wrong.labels[:5])


@pytest.mark.parametrize("moduli", [(2, 3, 5), (6, 5)], ids=str)
def test_one_row_fault_fails_the_order(monkeypatch, moduli):
    # the sweep's one-row bit: the last row loses vertex 0, and row 0 keeps
    # the last vertex; the order's certificate reads both rows, so the
    # claims that read the order report its error, and graph-invariants
    # names the pair
    spec = RingSpec(moduli)
    build = graphs.build_cozero_graph
    wrong = planted(build(spec), "one-row bit flipped")
    monkeypatch.setattr(graphs, "build_cozero_graph",
                        lambda s, **caps: wrong if s == spec else build(s, **caps))
    reports = {r.claim_id: r for r in run_suite(sorted(CLAIMS), [spec])}
    for claim in ("clique-formula", "perfection"):
        r = reports[claim]
        assert not r.passed and r.reason == "error"
        assert r.observed == (f"error: AssertionError: the rows of {spec} are not "
                              f"a symmetric, loopless graph")
    r = reports["graph-invariants"]
    assert not r.passed and r.observed.startswith(
        f"adjacency mismatch at {wrong.labels[0]},{wrong.labels[-1]}")


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

        def counting(name, solve, graph_of=lambda g: g):
            def wrapper(arg, **caps):
                solved.append((name, graph_of(arg)))
                return solve(arg, **caps)
            return wrapper

        monkeypatch.setattr(graphs, "build_cozero_graph", counting_build)
        monkeypatch.setattr(solvers, "max_clique", counting("clique", max_clique))
        monkeypatch.setattr(solvers, "chromatic_number",
                            counting("chi", chromatic_number, lambda order: order.graph))
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

    def test_a_failed_certificate_is_kept(self, monkeypatch):
        # a colouring that raised is raised again on each read, not
        # recomputed, while the order it read stays valid; a value planted
        # in the case's __dict__ is still the one read
        calls = []

        def failing(order):
            calls.append(order)
            raise AssertionError("planted")

        monkeypatch.setattr(solvers, "chromatic_number", failing)
        case = Case(RingSpec((2, 3, 5)))
        raised = set()
        for _ in range(3):
            with pytest.raises(AssertionError, match="planted") as info:
                case.coloring
            raised.add(info.value)
        assert len(calls) == len(raised) == 1
        assert case.order.graph is case.graph
        planted = solvers.ColoringResult(0, (), ())
        case.__dict__["coloring"] = planted
        assert case.coloring is planted

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

    def counting_order(g, row_classes, tables):
        ordered.append(g)
        return validated_order(g, row_classes, tables)

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

    def test_rows_grouped_once_per_ring(self, monkeypatch):
        # the order, graph-invariants and quotient-reduction read one row
        # partition per ring, and no other graph's rows are grouped
        built, grouped = [], []
        build, positions = graphs.build_cozero_graph, graphs.positions
        monkeypatch.setattr(graphs, "build_cozero_graph", lambda spec, **caps:
                            built.append(build(spec, **caps)) or built[-1])

        def counting(keys):
            grouped.extend(str(g.spec) for g in built if g.adj is keys)
            return positions(keys)

        for module in (graphs, solvers):
            monkeypatch.setattr(module, "positions", counting)
        rings_ = [RingSpec(m) for m in [(2, 3, 5), (6, 5), (3, 3), (4, 9), (2,) * 4, (8,)]]
        reports = run_suite(sorted(CLAIMS), rings_)
        assert all(r.passed for r in reports)
        assert len(built) == len(rings_) + 3  # and quotient-reduction's Z2^2, Z2^3, Z2^4
        assert collections.Counter(grouped) == {str(spec): 1 for spec in rings_}

    def test_order_groups_no_rows_itself(self, monkeypatch):
        # the order takes the case's partition, a 0-vertex graph's empty one
        # too; calls are told apart by their caller's code, since every
        # 0-vertex graph's rows are the same () object
        callers, positions = [], graphs.positions

        def counting(keys):
            callers.append(sys._getframe(1).f_code)
            return positions(keys)

        for module in (graphs, solvers):
            monkeypatch.setattr(module, "positions", counting)
        rings_ = [RingSpec(m) for m in [(5,), (2,), (6, 5), (2, 3, 5)]]
        reports = run_suite(sorted(CLAIMS), rings_)
        assert all(r.passed for r in reports)
        assert [r.skipped for r in reports if r.claim_id == "perfection"] == [False] * 4
        assert callers.count(Case.row_classes.func.__code__) == len(rings_)
        assert callers.count(solvers.validated_order.__code__) == 0

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
        assert runs[0][0].keys() == runs[1][0].keys() >= {(n, "ideals") for n in (2, 3, 4, 12)}

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
        assert verify._ideals(tables, 12) is table is tables[12, "ideals"]
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


def flip_in_build(monkeypatch, text: str, bits_: list[tuple[int, int]]) -> None:
    """graphs.build_cozero_graph, with bit j of row i flipped for each (i, j)
    in bits_ in the graph of the ring named text as its Case builds it, under
    the cardinality cap; quotient-reduction's Z2^n, built with no cap, and
    every other graph are intact."""
    build = graphs.build_cozero_graph

    def flipped(spec, **caps):
        g = build(spec, **caps)
        if str(spec) != text or "max_cardinality" not in caps:
            return g
        rows = list(g.adj)
        for i, j in bits_:
            rows[i] ^= 1 << j
        return CozeroGraph(g.spec, g.labels, tuple(rows))

    monkeypatch.setattr(graphs, "build_cozero_graph", flipped)


ORDER_CLAIMS = ["clique-formula", "perfection", "quotient-reduction"]


class TestSharedVerdicts:
    """A run keeps each modulus's per-residue tables and each twin core's
    verdicts once, for all its rings: the reports are those of each ring in
    a run of its own, and a fault in one of two rings with equal cores and
    out-rows (Z2xZ3xZ5, Z2xZ3xZ7 and Z2xZ2xZ2 have one core) fails that ring
    alone, whichever comes first."""

    @pytest.mark.parametrize("specs", [default_ring_set(), list(map(parse_spec, CLASS_RINGS))],
                             ids=["default", "class-rings"])
    def test_sharing_changes_no_byte(self, capsys, specs):
        from cozero.cli import main
        alone = [r for spec in specs for r in run_suite(sorted(CLAIMS), [spec])]
        alone.sort(key=lambda r: (r.claim_id, str(r.spec)))
        assert reports_to_json(run_suite(sorted(CLAIMS), specs)) == reports_to_json(alone)
        texts = list(map(str, specs))
        assert main(["analyze", "--format", "json", *texts]) == 0
        together = json.loads(capsys.readouterr().out)
        for text, info in zip(texts, together, strict=True):
            assert main(["analyze", "--format", "json", text]) == 0
            assert json.loads(capsys.readouterr().out) == [info]

    def reports(self, texts: list[str]) -> dict:
        return {(r.claim_id, str(r.spec)): r for r in run_suite(sorted(CLAIMS),
                                                                list(map(parse_spec, texts)))}

    def assert_fails_alone(self, texts: list[str], faulty: str, message: str) -> None:
        for order in (texts, texts[::-1]):
            reports = self.reports(order)
            for (claim, spec), r in reports.items():
                if spec == faulty and claim in ORDER_CLAIMS:
                    assert not r.passed and r.observed == f"error: AssertionError: {message}"
                elif spec != faulty:
                    assert r.passed, r

    @pytest.mark.parametrize("row,col", [(0, 20), (1, 20)], ids=["core-bit", "twin-bit"])
    def test_faulty_ring_with_an_equal_core_fails_alone(self, monkeypatch, row, col):
        # (0, 0, 1) keeps its class, (0, 0, 2) is its twin, (1, 0, 0) is a core vertex
        flip_in_build(monkeypatch, "Z2xZ3xZ7", [(row, col)])
        self.assert_fails_alone(["Z2xZ3xZ5", "Z2xZ3xZ7"], "Z2xZ3xZ7",
                                "the rows of Z2xZ3xZ7 are not a symmetric, loopless graph")

    def test_asymmetric_core_with_equal_out_rows_fails(self, monkeypatch):
        # Z2^3 has no twins: a bit of (0, 0, 1) added to the row of (0, 1, 1),
        # which comes after it in the order, keeps every class, the size of
        # the core and its out-rows, and only the core's transpose tells
        flip_in_build(monkeypatch, "Z2xZ2xZ2", [(2, 0)])
        self.assert_fails_alone(["Z2xZ3xZ5", "Z2xZ2xZ2"], "Z2xZ2xZ2",
                                "the rows of Z2xZ2xZ2 are not a symmetric, loopless graph")

    def test_equal_core_rows_with_other_out_rows_fail(self, monkeypatch):
        # a rank that puts (0, 1, 1) between (0, 0, 1) and (0, 1, 0): the
        # core's rows are Z2xZ3xZ5's, its out-rows are not transitive
        rank = solvers.ideal_order
        monkeypatch.setattr(solvers, "ideal_order", lambda g, tables=None: (
            (0, 2, 1, 3, 4, 5) if str(g.spec) == "Z2xZ3xZ7" else rank(g, tables)))
        self.assert_fails_alone(["Z2xZ3xZ5", "Z2xZ3xZ7"], "Z2xZ3xZ7",
                                "ideal orientation of Z2xZ3xZ7 does not orient "
                                "the complement transitively")

    def test_cover_fault_raises_on_the_first_ring(self, monkeypatch):
        cover = solvers._chain_cover

        def one_more(out):
            count, colors, antichain = cover(out)
            return count + 1, colors, antichain

        monkeypatch.setattr(solvers, "_chain_cover", one_more)
        texts = ["Z2xZ3xZ5", "Z2xZ3xZ7", "Z2xZ2xZ2"]
        reports = run_suite(["clique-formula"], list(map(parse_spec, texts)))
        assert [r.observed for r in reports] == [
            f"error: AssertionError: chain cover of {text} with 4 chains is not matched "
            f"by a clique of the same size" for text in sorted(texts)]

    def test_each_run_covers_each_core_once(self, monkeypatch):
        # one cover per distinct core and out-rows in a run, and each run its own
        covers: list = []
        cover = solvers._chain_cover
        monkeypatch.setattr(solvers, "_chain_cover", lambda out: covers.append(out) or cover(out))
        ordered, validated = count_validations(monkeypatch)
        specs = list(map(parse_spec, ["Z2xZ3xZ5", "Z2xZ3xZ7", "Z2xZ2xZ2", "Z3xZ5", "Z2xZ3"]))
        for run in (1, 2):
            assert all(r.passed for r in run_suite(sorted(CLAIMS), specs))
            assert len(ordered) == 5 * run and len(validated) == 2 * run
            assert covers == [(20, 36, 0, 48, 0, 0), (0, 0)] * run


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

    def test_vertex_guard_defaults_to_the_cardinality_cap(self):
        # as in the CLI: Z2^14 has 16,382 vertices, over the default cap of
        # 10,000 but under its own cardinality, given as the cap
        assert Caps() == (rings.DEFAULT_MAX_CARDINALITY, None)
        g = Case(RingSpec((2,) * 14), Caps(max_cardinality=2 ** 14)).built
        assert isinstance(g, CozeroGraph) and g.n == 16382


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
