import itertools
import json
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from cozero import cli, solvers
from cozero.graphs import (
    CozeroGraph,
    bits,
    build_cozero_graph,
    complement,
    ideal_order,
    induced_subgraph,
    positions,
    quotient_by_associates,
    transpose,
)
from cozero.rings import CapExceededError, RingSpec, parse_spec, principal_ideal
from cozero.solvers import (
    OddCycleCertificate,
    _all_twin_reduce,
    _chain_cover,
    _false_twin_reduce,
    are_isomorphic,
    chromatic_number,
    find_odd_hole,
    is_perfect_desk_scale,
    max_clique,
    orient,
    validate_certificate,
    validate_clique,
    validate_coloring,
    validate_orientation,
    validate_rows,
)
from cozero.verify import Caps, Case, default_ring_set
from conftest import (
    brute_force_chromatic,
    brute_force_clique,
    chromatic_by_search,
    complete_graph,
    cycle_graph,
    from_edges,
    has_induced_odd_cycle_by_subsets,
    ordered,
    random_graph,
    random_ring_subgraph,
)


# DSATUR colors this 10-vertex graph with 4 colors, but omega = chi = 3, so
# the search oracle must backtrack; the path makes that search 1,200 levels
# deep
DSATUR_TRAP_EDGES = [(0, 1), (0, 4), (0, 6), (0, 9), (1, 3), (1, 5), (1, 6),
                     (1, 8), (2, 3), (2, 4), (2, 8), (3, 4), (3, 7), (4, 5),
                     (5, 6), (5, 7), (6, 7), (6, 8), (6, 9), (8, 9)]


class TestMaxClique:
    def test_ring_examples(self):
        assert max_clique(build_cozero_graph(RingSpec((2, 2)))).size == 2
        assert max_clique(build_cozero_graph(RingSpec((2,) * 4))).size == 6
        assert max_clique(build_cozero_graph(RingSpec((4,)))).size == 1

    def test_empty_graph(self):
        g = from_edges(0, [])
        assert max_clique(g).size == 0

    def test_witness_validates(self, small_spec):
        g = build_cozero_graph(small_spec)
        res = max_clique(g)
        assert len(res.witness) == res.size
        assert validate_clique(g, res.witness)

    def test_witness_checker_rejects_outside_vertices(self):
        # a negative index must not wrap around to the last row
        g = build_cozero_graph(RingSpec((2, 2, 2)))
        assert validate_clique(g, [0]) and validate_clique(g, [g.n - 1])
        for witness in ([99], [g.n], [-1], [-1, 0], [0, g.n]):
            assert not validate_clique(g, witness), witness

    def test_validate_clique_matches_pairwise(self):
        # the row masks accept exactly what the pair walk accepts, repeated
        # and out-of-range members included
        rng = random.Random(19)
        for _ in range(300):
            g = random_graph(rng.randint(1, 9), rng.choice([0.5, 0.8]), rng)
            witness = [rng.randint(-1, g.n) for _ in range(rng.randint(0, 4))]
            expected = (len(set(witness)) == len(witness)
                        and all(0 <= v < g.n for v in witness)
                        and all(g.has_edge(u, v)
                                for u, v in itertools.combinations(witness, 2)))
            assert validate_clique(g, witness) == expected, (g.adj, witness)

    def test_matches_brute_force_random(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_graph(rng.randint(1, 14), 0.5, rng)
            res = max_clique(g)
            assert validate_clique(g, res.witness)
            assert res.size == brute_force_clique(g)

    def test_deterministic_witness(self):
        g = build_cozero_graph(RingSpec((2,) * 4))
        assert max_clique(g).witness == max_clique(g).witness

    def test_vertex_cap(self):
        g = complete_graph(5)
        with pytest.raises(CapExceededError):
            max_clique(g, max_vertices=4)

    def test_brute_force_examples(self):
        assert brute_force_clique(complete_graph(4)) == 4
        assert brute_force_clique(cycle_graph(5)) == 2


class TestChromaticNumber:
    def test_ring_examples(self):
        assert chromatic_number(ordered(build_cozero_graph(RingSpec((2, 2))))).count == 2
        assert chromatic_number(ordered(build_cozero_graph(RingSpec((2,) * 5)))).count == 10

    def test_edgeless(self):
        # the graph of Z8 has three vertices and no edge
        g = build_cozero_graph(RingSpec((8,)))
        assert g.n == 3 and g.edge_count() == 0
        res = chromatic_number(ordered(g))
        assert res.count == 1
        assert chromatic_by_search(from_edges(4, []))[0] == 1
        assert chromatic_number(ordered(build_cozero_graph(RingSpec((5,))))).count == 0

    def test_assignment_proper(self, small_spec):
        g = build_cozero_graph(small_spec)
        res = chromatic_number(ordered(g))
        assert validate_coloring(g, res.assignment, res.count)

    def test_at_least_clique(self, small_spec):
        g = build_cozero_graph(small_spec)
        assert chromatic_number(ordered(g)).count >= max_clique(g).size

    def test_matches_brute_force_random(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_ring_subgraph(rng)
            res = chromatic_number(ordered(g))
            assert validate_coloring(g, res.assignment, res.count)
            assert res.count == brute_force_chromatic(g)
        for _ in range(40):
            g = random_graph(rng.randint(1, 10), 0.5, rng)
            count, colors = chromatic_by_search(g)
            assert validate_coloring(g, colors, count)
            assert count == brute_force_chromatic(g)

    @pytest.mark.parametrize("g", [
        cycle_graph(5), from_edges(10, DSATUR_TRAP_EDGES)],
        ids=["c5", "dsatur-trap"])
    def test_bare_graph_raises(self, g):
        with pytest.raises(ValueError):
            chromatic_number(ordered(g))

    def test_complement_raises(self):
        # complement() keeps the spec, but the ideal orientation orients the
        # complement's own edges, so it certifies nothing
        with pytest.raises(AssertionError, match="orientation"):
            chromatic_number(ordered(complement(build_cozero_graph(RingSpec((2, 2, 2))))))

    def test_brute_force_examples(self):
        assert brute_force_chromatic(complete_graph(4)) == 4
        assert brute_force_chromatic(cycle_graph(5)) == 3

    def test_validate_coloring_matches_pairwise(self):
        # the color-class masks accept exactly what the edge walk accepts,
        # wrong lengths and out-of-range colors included
        rng = random.Random(17)
        for _ in range(300):
            g = random_graph(rng.randint(0, 9), rng.choice([0.2, 0.5]), rng)
            count = rng.randint(0, 4)
            assignment = [rng.randint(-1, count) for _ in range(g.n + rng.choice([-1, 0, 0, 0, 1]))]
            expected = (len(assignment) == g.n
                        and all(0 <= c < count for c in assignment)
                        and all(assignment[i] != assignment[j] for i, j in g.edges()))
            assert validate_coloring(g, assignment, count) == expected, (g.adj, assignment)


class TestFindOddHole:
    def test_c5(self):
        cert = find_odd_hole(cycle_graph(5))
        assert cert is not None and len(cert.cycle) == 5
        assert validate_certificate(cycle_graph(5), cert)
        # each vertex blown up into 10 false twins: the cap counts the core
        blown = from_edges(50, [
            (10 * i + a, 10 * ((i + 1) % 5) + b)
            for i in range(5) for a in range(10) for b in range(10)])
        cert = find_odd_hole(blown, max_vertices=5)
        assert cert is not None and len(cert.cycle) == 5
        assert validate_certificate(blown, cert)

    def test_certificate_checker_rejects_outside_vertices(self):
        c5 = cycle_graph(5)
        assert validate_certificate(c5, OddCycleCertificate("graph", (0, 1, 2, 3, 4)))
        for cycle in ((0, 1, 2, 3, 5), (0, 1, 2, 3, 99), (-1, 0, 1, 2, 3),
                      (0, 1, 2, 3, -1)):
            for where in ("graph", "complement"):
                assert not validate_certificate(c5, OddCycleCertificate(where, cycle))

    def test_even_cycle_none(self):
        assert find_odd_hole(cycle_graph(6)) is None
        assert find_odd_hole(cycle_graph(8)) is None

    def test_c9_full_length(self):
        cert = find_odd_hole(cycle_graph(9))
        assert cert is not None and len(cert.cycle) == 9

    def test_min_len_skips_short(self):
        assert find_odd_hole(cycle_graph(5), min_len=7) is None
        cert = find_odd_hole(cycle_graph(9), min_len=7)
        assert cert is not None and len(cert.cycle) == 9

    def test_minimal_length_certificate(self):
        # C5 and C7 sharing no vertices: minimum is 5
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(5 + i, 5 + (i + 1) % 7) for i in range(7)]
        g = from_edges(12, edges)
        cert = find_odd_hole(g)
        assert len(cert.cycle) == 5

    def test_triangle_free_of_holes(self):
        assert find_odd_hole(complete_graph(3)) is None

    def test_bad_min_len(self):
        with pytest.raises(ValueError):
            find_odd_hole(cycle_graph(5), min_len=4)

    def test_agrees_with_subset_enumeration_random(self):
        rng = random.Random(5)
        for _ in range(60):
            g = random_graph(rng.randint(5, 9), rng.choice([0.3, 0.5]), rng)
            cert = find_odd_hole(g)
            expected = has_induced_odd_cycle_by_subsets(g)
            assert (cert is not None) == expected
            if cert is not None:
                assert validate_certificate(g, cert)


class TestIsPerfect:
    def test_ring_graphs_perfect(self):
        for moduli in [(2, 2, 2), (2, 3, 5), (3, 5, 7)]:
            assert is_perfect_desk_scale(ordered(build_cozero_graph(RingSpec(moduli)))) is True

    def test_c5_imperfect(self):
        # no ring behind the graph: no certificate, and no search stands in
        with pytest.raises(ValueError):
            is_perfect_desk_scale(ordered(cycle_graph(5)))
        cert = find_odd_hole(cycle_graph(5))
        assert len(cert.cycle) == 5
        assert validate_certificate(cycle_graph(5), cert)

    def test_antihole(self):
        g = complement(cycle_graph(7))
        with pytest.raises(ValueError):
            is_perfect_desk_scale(ordered(g))
        assert find_odd_hole(g) is None
        hole = find_odd_hole(complement(g))
        assert validate_certificate(g, OddCycleCertificate("complement", hole.cycle))

    def test_complement_has_same_twin_core(self):
        # find_odd_hole's core is the same for a graph and its complement
        rng = random.Random(13)
        for _ in range(100):
            g = random_graph(rng.randint(1, 12), rng.choice([0.1, 0.5, 0.9]), rng)
            assert _all_twin_reduce(g) == _all_twin_reduce(complement(g))

    def test_bipartite_perfect(self):
        g = from_edges(6, [(0, 3), (0, 4), (1, 4), (1, 5), (2, 5)])
        assert find_odd_hole(g) is None and find_odd_hole(complement(g)) is None
        with pytest.raises(ValueError):
            is_perfect_desk_scale(ordered(g))


# rings that are not products of fields: their associate classes have
# several members, which the u < v tie rule of the orientation must order
NON_VNR_MODULI = [(4,), (8,), (27,), (16,), (2, 4), (4, 4), (4, 9), (8, 3)]


def _arcs(out):
    return [(u, v) for u, row in enumerate(out) for v in bits(row)]


def _derived(g, rank):
    """The orientation of g's complement up (rank[u], u), from the
    definition: u->v iff v comes after u and is not adjacent to u."""
    order = sorted(range(g.n), key=lambda u: (rank[u], u))
    out = [0] * g.n
    for i, u in enumerate(order):
        for v in order[i + 1:]:
            if not g.has_edge(u, v):
                out[u] |= 1 << v
    return out


def _transitive(out):
    """u->w->x puts u->x, tried on every triple: for each arc u->w, all of
    w's out-row at once."""
    return all(not out[w] & ~out[u] for u in range(len(out)) for w in bits(out[u]))


def _validate(g, rank):
    """validate_orientation of the out-rows orient derives, as validated_order
    passes them."""
    return validate_orientation(g, rank, orient(g, rank))


def _ideal_out(g):
    return _validate(g, ideal_order(g))


class TestOrientation:
    def test_valid_on_default_rings(self):
        # Z2's graph has no vertex, and its valid out-rows () are falsy
        for spec in default_ring_set():
            g = build_cozero_graph(spec)
            out = _ideal_out(g)
            assert out is not None and len(out) == g.n, spec

    @pytest.mark.parametrize("moduli", NON_VNR_MODULI)
    def test_valid_on_non_vnr_rings(self, moduli):
        # and on their cores and quotients, which miss signatures of the
        # ring and keep several vertices of one rank
        g = build_cozero_graph(RingSpec(moduli))
        for h in (g, _core(g), quotient_by_associates(g)):
            assert _ideal_out(h) is not None

    def test_valid_on_induced_subgraph(self):
        for moduli in [(4, 9), (2, 3, 5), (3, 3, 3), (2, 2, 2, 2), (8, 3)]:
            g = build_cozero_graph(RingSpec(moduli))
            for keep in (range(1, g.n, 3), range(0, g.n, 2)):
                sub = induced_subgraph(g, keep)
                assert _ideal_out(sub) is not None

    def test_matches_the_definition(self):
        # u->v iff Ru is strictly inside Rv, or Ru = Rv and u < v, with
        # every ideal enumerated; rank[u] is |Ru|
        for moduli in [(2, 2, 2), (2, 3, 5), (4, 9), (8, 3), (12,)]:
            g = build_cozero_graph(RingSpec(moduli))
            for h in (g, induced_subgraph(g, range(1, g.n, 3))):
                ideals = [principal_ideal(h.spec, a) for a in h.labels]
                rank = ideal_order(h)
                out = _validate(h, rank)
                assert list(rank) == list(map(len, ideals))
                for u, v in itertools.product(range(h.n), repeat=2):
                    arc = ideals[u] < ideals[v] or (ideals[u] == ideals[v] and u < v)
                    assert bool(out[u] >> v & 1) == arc, (moduli, u, v)

    def test_complete_on_ring_graphs(self):
        # every default and non-VNR ring, its core, quotient, an induced
        # subgraph and their complements, up to 64 vertices: the order
        # validates exactly when the orientation up the rank is transitive.
        # The complements of Z8, Z16 and Z27 are complete graphs, and do
        seen = set()
        outcomes = {True: 0, False: 0}
        for spec in list(default_ring_set()) + [RingSpec(m) for m in NON_VNR_MODULI]:
            g = build_cozero_graph(spec)
            family = [g, _core(g), quotient_by_associates(g),
                      induced_subgraph(g, range(0, g.n, 2))]
            for h in family + list(map(complement, family)):
                if h.n > 64 or (h.spec, h.labels, h.adj) in seen:
                    continue
                seen.add((h.spec, h.labels, h.adj))
                transitive = _transitive(_derived(h, ideal_order(h)))
                outcomes[transitive] += 1
                if transitive:
                    order = ordered(h)
                    assert list(order.out) == _derived(order.core, ideal_order(order.core))
                else:
                    with pytest.raises(AssertionError, match="orientation"):
                        ordered(h)
        assert min(outcomes.values()) >= 100, outcomes
        for moduli in [(8,), (16,), (27,)]:
            h = complement(build_cozero_graph(RingSpec(moduli)))
            assert h.edge_count() == h.n * (h.n - 1) // 2 > 0
            assert ordered(h).out == (0,) * h.n

    def test_needs_ring(self):
        with pytest.raises(ValueError):
            ideal_order(cycle_graph(5))

    def test_results_describe_the_orders_graph(self):
        # the solvers read the graph off the order, even among graphs with
        # equal rows
        g, h = (build_cozero_graph(RingSpec((2, 3, 5))) for _ in range(2))
        order = ordered(g)
        assert order.graph is g and ordered(h).graph is h
        res = chromatic_number(order)
        assert res.count == 3 and len(res.assignment) == g.n
        assert validate_coloring(g, res.assignment, res.count)
        assert validate_clique(g, res.clique) and len(res.clique) == 3
        assert is_perfect_desk_scale(order) is True

    def test_rejects_broken_orientations(self):
        # moving v to just before u flips the arc u->v and no other when
        # every vertex between them is adjacent to v; Z2^4 has no twins,
        # and each such flip breaks transitivity
        g = build_cozero_graph(RingSpec((2,) * 4))
        rank = list(ideal_order(g))
        out = _validate(g, rank)
        assert list(out) == _derived(g, rank)
        order = sorted(range(g.n), key=rank.__getitem__)
        flips = 0
        for u, v in _arcs(out):
            between = order[order.index(u) + 1:order.index(v)]
            if not all(g.has_edge(x, v) for x in between):
                continue
            moved = [order.index(x) for x in range(g.n)]
            moved[v] = moved[u] - 0.5
            flipped = _derived(g, moved)
            assert set(_arcs(flipped)) ^ set(_arcs(out)) == {(u, v), (v, u)}
            assert _validate(g, moved) is None, (u, v)
            flips += 1
        assert flips
        # a rank of the wrong length
        assert validate_orientation(g, rank[:-1], out) is None
        assert validate_orientation(g, rank + [0], out) is None

    def test_rejects_a_cycle_disguised_by_false_ranks(self):
        # the rank is not trusted: ranks unlike |Ru| that order the same
        # arcs pass, and a false rank that reverses the long arc of a chain
        # u->w->v derives an orientation that is not transitive
        g = build_cozero_graph(RingSpec((2,) * 4))
        rank = list(ideal_order(g))
        out = _validate(g, rank)
        assert _validate(g, [0] * g.n) == out
        [(u, v)] = [(u, v) for u, v in _arcs(out)
                    if any(out[w] >> v & 1 for w in bits(out[u]))][:1]
        false = [rank[x] if x != v else rank[u] - 1 for x in range(g.n)]
        reversed_ = _derived(g, false)
        assert reversed_[v] >> u & 1 and not _transitive(reversed_)
        assert _validate(g, false) is None

    def test_rejects_an_arc_onto_a_neighbour(self):
        # with the edge 0-1, the order 0, 2, 1 takes 0->2->1 onto 0's
        # neighbour 1; the order 0, 1, 2 is transitive
        g = from_edges(3, [(0, 1)])
        assert _validate(g, [0, 1, 2]) == (0b100, 0b100, 0)
        assert _validate(g, [0, 2, 1]) is None
        # on a ring graph, a neighbour v of u lifted above every rank takes
        # the arcs u->w->v of each w above u that misses v: refused exactly
        # when the definition's rows are not transitive
        g = build_cozero_graph(RingSpec((2, 3, 5)))
        rank = list(ideal_order(g))
        refused = 0
        for v in sorted({v for e in g.edges() for v in e}):
            lifted = rank.copy()
            lifted[v] = max(rank) + 1
            out = _derived(g, lifted)
            if _transitive(out):
                assert _validate(g, lifted) == tuple(out), v
            else:
                assert _validate(g, lifted) is None, v
                refused += 1
        assert refused

    def test_rejects_every_orientation_of_c5(self):
        # the complement of C5 is C5, an odd hole, so none of the 120
        # rankings orients it transitively
        g = cycle_graph(5)
        for order in itertools.permutations(range(5)):
            rank = [order.index(u) for u in range(5)]
            assert not _transitive(_derived(g, rank))
            assert _validate(g, rank) is None, order

    def test_ring_graphs_skip_hole_search(self, monkeypatch):
        def refuse(adj, min_len):
            raise AssertionError("odd-hole search ran")

        monkeypatch.setattr(solvers, "_min_odd_hole_core", refuse)
        for moduli in [(2,) * 6, (2,) * 7, (2, 3, 5), (3, 3, 3)] + NON_VNR_MODULI:
            g = build_cozero_graph(RingSpec(moduli))
            assert is_perfect_desk_scale(ordered(g)) is True
            # the complement keeps the spec, but its rows are not the
            # ring's: it is certified exactly when the orientation up the
            # rank is transitive, and nothing falls back to a search
            h = complement(g)
            if _transitive(_derived(h, ideal_order(h))):
                assert is_perfect_desk_scale(ordered(h)) is True
            else:
                with pytest.raises(AssertionError, match="orientation"):
                    is_perfect_desk_scale(ordered(h))
        # a bare graph is refused before any search could run
        with pytest.raises(ValueError):
            is_perfect_desk_scale(ordered(cycle_graph(5)))

    def test_invalid_ring_orientation_raises(self):
        # a ring-backed graph whose rows are not those of its ring: no
        # search stands in for the failed certificate
        g = build_cozero_graph(RingSpec((2, 2, 2)))
        c5 = cycle_graph(5).adj + (0,)
        wrong = CozeroGraph(spec=g.spec, labels=g.labels, adj=c5)
        with pytest.raises(AssertionError, match="orientation"):
            is_perfect_desk_scale(ordered(wrong))


def test_orientation_against_brute_force():
    # random graphs of up to 8 vertices and random ranks, ties included:
    # the validator returns the rows of the definition when they are
    # transitive, and None when they are not
    rng = random.Random(31)
    outcomes = {True: 0, False: 0}
    for _ in range(2000):
        n = rng.randint(0, 8)
        g = random_graph(n, rng.choice([0.2, 0.4, 0.6]), rng)
        rank = [rng.randrange(n + 1) for _ in range(n)]
        out = _derived(g, rank)
        transitive = _transitive(out)
        outcomes[transitive] += 1
        expected = tuple(out) if transitive else None
        assert _validate(g, rank) == expected, (g.adj, rank)
    assert min(outcomes.values()) >= 500, outcomes


def _is_graph(g: CozeroGraph) -> bool:
    """Bit by bit: every row lies in g.n bits, holds no loop and mirrors
    every other row."""
    return all(0 <= row < 1 << g.n and not row >> i & 1 for i, row in enumerate(g.adj)) and all(
        g.has_edge(i, j) == g.has_edge(j, i) for i in range(g.n) for j in range(i))


def _validate_rows(g: CozeroGraph) -> bool:
    """validate_rows, with the core's own transpose test that validated_order
    keeps once per run for equal cores."""
    core = induced_subgraph(g, _false_twin_reduce(g))
    return validate_rows(g, positions(g.adj)) and transpose(core.adj) == list(core.adj)


class TestRowsAreAGraph:
    @pytest.mark.parametrize("moduli", [(2, 3, 5), (6, 5), (4, 9)], ids=str)
    def test_every_single_bit_flip_raises(self, moduli):
        # a loop on the diagonal; elsewhere one bit of a pair, in a core row
        # or in a twin's, whose class then splits
        g = build_cozero_graph(RingSpec(moduli))
        ordered(g)
        for i, j in itertools.product(range(g.n), repeat=2):
            rows = list(g.adj)
            rows[i] ^= 1 << j
            with pytest.raises(AssertionError, match="not a symmetric, loopless graph"):
                ordered(CozeroGraph(g.spec, g.labels, tuple(rows)))

    @pytest.mark.parametrize("moduli", [(2, 3, 5), (6, 5), (4, 9)], ids=str)
    def test_a_bit_past_the_vertices_raises(self, moduli):
        # in a first member's row and in a twin's, by one bit or a sign
        g = build_cozero_graph(RingSpec(moduli))
        twin = next(v for v in range(g.n) if v not in _false_twin_reduce(g))
        for v, extra in itertools.product([0, twin], [1 << g.n, 1 << g.n + 9, -1 << g.n]):
            rows = list(g.adj)
            rows[v] |= extra
            wrong = CozeroGraph(g.spec, g.labels, tuple(rows))
            assert not _is_graph(wrong)
            with pytest.raises(AssertionError, match="not a symmetric, loopless graph"):
                ordered(wrong)

    def test_a_partition_not_of_the_graph_fails_the_lift(self):
        # the unfaulted graph's row classes certify a graph with one bit added
        # to a twin's row, which is not its class's first: the core's rows are
        # unfaulted, so the order validates, and the lift to the twins, which
        # reads every row of the graph, meets a row that no core vertex has
        g = build_cozero_graph(RingSpec((6, 5)))
        classes = positions(g.adj)
        twins = next(m for m in classes.values() if m & m - 1)
        twin = (twins & twins - 1).bit_length() - 1
        rows = list(g.adj)
        free = ~rows[twin] & ~twins & (1 << g.n) - 1  # no neighbour, no twin
        rows[twin] |= free & -free
        wrong = CozeroGraph(g.spec, g.labels, tuple(rows))
        order = solvers.validated_order(wrong, classes)
        with pytest.raises(AssertionError, match=r"a row of Z6xZ5 is no row of its twin core"):
            chromatic_number(order)
        with pytest.raises(AssertionError, match="not a symmetric, loopless graph"):
            ordered(wrong)

    def test_matches_bit_by_bit_with_twins(self):
        # random cores blown up into false-twin classes, then perhaps one bit
        # flipped, the diagonal and two bits past the vertices included
        rng = random.Random(26)
        outcomes = {True: 0, False: 0}
        for _ in range(1500):
            k = rng.randint(1, 7)
            core = random_graph(k, rng.choice([0.3, 0.6]), rng)
            of = [rng.randrange(k) for _ in range(rng.randint(k, 14))]
            rows = [sum(1 << v for v, c in enumerate(of) if core.has_edge(of[u], c))
                    for u in range(len(of))]
            if rng.random() < 0.6:
                rows[rng.randrange(len(rows))] ^= 1 << rng.randrange(len(rows) + 2)
            g = CozeroGraph(None, tuple((v,) for v in range(len(rows))), tuple(rows))
            outcomes[_is_graph(g)] += 1
            assert _validate_rows(g) == _is_graph(g), rows
        assert min(outcomes.values()) >= 400, outcomes

    def test_accepts_ring_graphs(self):
        for spec in default_ring_set():
            g = build_cozero_graph(spec)
            assert _validate_rows(g) and _validate_rows(complement(g))


class TestVerdictsSharedByEqualCores:
    """validated_order keeps the verdicts on a core in the tables it is given,
    keyed by the core's rows and out-rows: Z2xZ3xZ5, Z2xZ3xZ7 and Z2xZ2xZ2
    have one core and one orientation.  That only equal keys share a verdict
    is tested on whole runs in test_verify.TestSharedVerdicts."""

    def test_equal_cores_share_one_verdict(self):
        tables: dict = {}
        graphs_ = [build_cozero_graph(parse_spec(text))
                   for text in ["Z2xZ3xZ5", "Z2xZ3xZ7", "Z2xZ2xZ2"]]
        orders = [solvers.validated_order(g, positions(g.adj), tables) for g in graphs_]
        assert len({id(order.verdicts) for order in orders}) == 1
        # the one key held with these out-rows is the core's rows with them
        assert [key for key in tables if key[1] == orders[0].out] == [
            (orders[0].core.adj, orders[0].out)]


def _core(g: CozeroGraph) -> CozeroGraph:
    return induced_subgraph(g, _false_twin_reduce(g))


def _fence(k: int) -> list[int]:
    """Out-rows of the fence a_1 < b_1 > a_2 < b_2 > ... > a_k < b_k, with a_1
    numbered after the other a's: the greedy matching takes each a_i (i >= 2)
    to b_{i-1}, so a_1 is matched by an augmenting path through all of them."""
    a = [k - 1] + list(range(k - 1))
    out = [0] * (2 * k)
    for i in range(k):
        out[a[i]] |= 1 << (k + i)
        if i:
            out[a[i]] |= 1 << (k + i - 1)
    return out


def _not_a_clique(count, colors, anti):
    """The antichain with one member traded for a vertex on another member's
    chain: as many vertices, but two of them comparable, so not adjacent."""
    u = next(u for u in anti if colors.count(colors[u]) > 1)
    v = next(v for v, c in enumerate(colors) if c == colors[u] and v != u)
    w = next(w for w in anti if w != u)
    return count, colors, sorted(set(anti) - {w} | {v})


class TestChainCover:
    """Ring graphs are colored by a minimum chain cover of the principal-ideal
    order, certified by an antichain (a clique) of the same size."""

    @staticmethod
    def certified(core: CozeroGraph) -> int:
        count, colors, antichain = _chain_cover(_ideal_out(core))
        assert validate_coloring(core, colors, count)
        assert validate_clique(core, antichain)
        assert len(antichain) == count
        return count

    def test_default_rings_match_search(self):
        for spec in default_ring_set():
            core = _core(build_cozero_graph(spec))
            expected = (brute_force_chromatic(core) if core.n <= 8
                        else chromatic_by_search(core)[0])
            assert self.certified(core) == expected, spec
            assert chromatic_number(ordered(core)).count == expected

    def test_boolean_power_ten(self):
        g = build_cozero_graph(RingSpec((2,) * 10))
        assert self.certified(g) == 252 == max_clique(g, max_vertices=1022).size
        res = chromatic_number(ordered(g))
        assert res.count == 252
        assert validate_coloring(g, res.assignment, res.count)

    def test_random_orders_match_width(self):
        # the transitive closure of a random DAG: the chain count equals the
        # largest antichain found by trying every vertex subset
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(1, 11)
            p = rng.choice([0.15, 0.3, 0.5])
            out = [0] * n
            for u in reversed(range(n)):
                for v in range(u + 1, n):
                    if rng.random() < p:
                        out[u] |= 1 << v | out[v]
            comparable = [out[u] | sum(1 << w for w in range(n) if out[w] >> u & 1)
                          for u in range(n)]
            width = max(bin(mask).count("1") for mask in range(1, 1 << n)
                        if all(not comparable[u] & mask for u in bits(mask)))
            count, colors, antichain = _chain_cover(out)
            assert count == len(antichain) == width, out
            assert sorted(set(colors)) == list(range(count))
            for u, v in itertools.combinations(range(n), 2):
                assert colors[u] != colors[v] or comparable[u] >> v & 1
            for u, v in itertools.combinations(antichain, 2):
                assert not comparable[u] >> v & 1

    def test_fence_needs_long_augmenting_path(self):
        count, colors, antichain = _chain_cover(_fence(50))
        assert count == len(antichain) == 50
        assert sorted(colors) == sorted(list(range(50)) * 2)

    @pytest.mark.parametrize("moduli", [(2,) * 5, (2, 3, 5), (3, 3, 3), (2, 2, 3)]
                             + NON_VNR_MODULI)
    def test_ring_graphs_skip_search(self, monkeypatch, moduli):
        # the library has no colouring search: every graph is coloured by
        # the chain cover
        covers = []
        real = _chain_cover
        monkeypatch.setattr(solvers, "_chain_cover",
                            lambda out: covers.append(out) or real(out))
        g = build_cozero_graph(RingSpec(moduli))
        for h in (g, quotient_by_associates(g),
                  induced_subgraph(g, range(0, g.n, 2))):
            res = chromatic_number(ordered(h))
            assert validate_coloring(h, res.assignment, res.count)
            assert res.count == max_clique(h).size
        assert len(covers) == 3

    def test_other_graphs_are_refused(self):
        # complement() keeps the spec, but the orientation orients the
        # complement's own edges, so it does not validate; these complements
        # are perfect, so the search oracle finds chi = omega
        complements = [complement(build_cozero_graph(RingSpec(m)))
                       for m in [(2, 2, 2), (2, 3, 5), (4, 9)]]
        for g in complements:
            assert chromatic_by_search(g)[0] == max_clique(g).size
            with pytest.raises(AssertionError, match="orientation"):
                chromatic_number(ordered(g))
        bare = [cycle_graph(5), from_edges(10, DSATUR_TRAP_EDGES)]
        assert [chromatic_by_search(g)[0] for g in bare] == [3, 3]
        for g in bare:
            with pytest.raises(ValueError):
                chromatic_number(ordered(g))

    @pytest.mark.parametrize("corrupt", [
        lambda count, colors, anti: (count, colors, anti[:-1]),
        lambda count, colors, anti: (count, colors, anti[:-1] + anti[:1]),
        lambda count, colors, anti: (count + 1, colors, anti),
        lambda count, colors, anti: (count - 1, [min(c, count - 2) for c in colors],
                                     anti[:-1]),
        _not_a_clique,
    ], ids=["antichain-short", "antichain-repeat", "extra-chain", "chains-merged",
            "antichain-not-clique"])
    def test_corrupted_certificate_raises(self, monkeypatch, corrupt):
        real = _chain_cover
        monkeypatch.setattr(solvers, "_chain_cover",
                            lambda out: corrupt(*real(out)))
        with pytest.raises(AssertionError, match="chain cover"):
            chromatic_number(ordered(build_cozero_graph(RingSpec((2,) * 4))))

    def test_shifted_orientation_raises(self, monkeypatch):
        # an orientation taken as valid whose rows belong to the next vertex:
        # its matching is no chain cover of the core, and no search stands in
        def shifted(g, rank, out):
            out = validate_orientation(g, rank, out)
            return out[1:] + out[:1]

        monkeypatch.setattr(solvers, "validate_orientation", shifted)
        for moduli in [(2,) * 4, (2, 3, 5), (4, 9)]:
            with pytest.raises(AssertionError, match="chain cover"):
                chromatic_number(ordered(build_cozero_graph(RingSpec(moduli))))


class TestDeepSearch:
    """The exact searches keep their own stacks: deep inputs run at the
    default recursion limit, and no solver changes that limit."""

    def test_long_hole(self):
        cert = find_odd_hole(cycle_graph(2001), max_vertices=2001)
        assert cert is not None and sorted(cert.cycle) == list(range(2001))

    def test_deep_coloring(self):
        path = [(10 + i, 11 + i) for i in range(1199)]
        g = from_edges(1210, DSATUR_TRAP_EDGES + path)
        count, colors = chromatic_by_search(g)
        assert count == 3
        assert validate_coloring(g, colors, count)

    def test_recursion_limit_untouched(self, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"solver set the recursion limit to {limit}")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        g = build_cozero_graph(RingSpec((2,) * 5))
        assert max_clique(g).size == 10
        assert chromatic_number(ordered(g)).count == 10
        assert is_perfect_desk_scale(ordered(g)) is True
        assert _chain_cover(_fence(3000))[0] == 3000

    def test_concurrent_workers(self):
        errors = []
        holes = []

        def deep():
            try:
                for _ in range(40):
                    holes.append(find_odd_hole(cycle_graph(2001),
                                               max_vertices=2001))
            except Exception as exc:
                errors.append(exc)

        def shallow():
            try:
                for _ in range(8_000):
                    assert max_clique(cycle_graph(7)).size == 2
            except Exception as exc:
                errors.append(exc)

        limit = sys.getrecursionlimit()
        threads = [threading.Thread(target=deep),
                   threading.Thread(target=shallow)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        assert errors == []
        assert sys.getrecursionlimit() == limit
        assert len(holes) == 40
        assert all(len(c.cycle) == 2001 for c in holes)


class TestIsomorphism:
    def test_quotient_vs_boolean(self):
        from cozero.graphs import quotient_by_associates
        q = quotient_by_associates(build_cozero_graph(RingSpec((3, 3))))
        h = build_cozero_graph(RingSpec((2, 2)))
        assert are_isomorphic(q, h) is not None

    def test_triangle_self(self):
        assert are_isomorphic(complete_graph(3), cycle_graph(3)) is not None

    def test_triangle_vs_path(self):
        p3 = from_edges(3, [(0, 1), (1, 2)])
        assert are_isomorphic(complete_graph(3), p3) is None

    def test_same_degree_sequence_non_isomorphic(self):
        # C6 vs two triangles: both 2-regular on 6 vertices
        two_triangles = from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert are_isomorphic(cycle_graph(6), two_triangles) is None

    def test_bijection_preserves_adjacency(self):
        rng = random.Random(3)
        g = random_graph(8, 0.5, rng)
        perm = list(range(8))
        rng.shuffle(perm)
        h = from_edges(
            8, [(perm[i], perm[j]) for i, j in g.edges()])
        mapping = are_isomorphic(g, h)
        assert mapping is not None
        for i, j in itertools.combinations(range(8), 2):
            assert g.has_edge(i, j) == h.has_edge(mapping[i], mapping[j])

    def test_symmetric(self):
        g = cycle_graph(5)
        h = from_edges(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
        assert (are_isomorphic(g, h) is None) == (are_isomorphic(h, g) is None)

    def test_size_cap(self):
        g = complete_graph(10)
        with pytest.raises(CapExceededError):
            are_isomorphic(g, g, max_vertices=5)


class TestCliqueFromAntichain:
    """The clique every report carries is chromatic_number's antichain; the
    branch-and-bound max_clique is its oracle, on the default rings, the
    rings the benchmark analyzes and verifies, and random induced subgraphs."""

    @staticmethod
    def check(g, clique, **cap):
        assert len(clique) == max_clique(g, **cap).size
        assert validate_clique(g, clique)
        assert list(clique) == sorted(clique)

    def test_default_rings(self):
        specs = default_ring_set()
        assert len(specs) == 261
        for spec in specs:
            case = Case(spec)
            self.check(case.graph, case.coloring.clique)
            assert len(case.coloring.clique) == case.coloring.count

    @pytest.mark.parametrize("n", [7, 8, 9, 10])
    def test_boolean_powers(self, n):
        case = Case(RingSpec((2,) * n), Caps(max_cardinality=1024, max_vertices=1022))
        self.check(case.graph, case.coloring.clique, max_vertices=1022)

    def test_analyzed_rings(self, capsys):
        specs = ["Z2xZ3xZ5xZ7xZ11", "Z7xZ7xZ7xZ7", "Z4xZ9xZ25", "Z9xZ9xZ9",
                 "Z5xZ5xZ5xZ5", "Z3xZ3xZ3xZ3xZ3", "Z8xZ27"]
        assert cli.main(["analyze", "--format", "json", "--max-vertices", "2048",
                         *specs]) == 0
        for info in json.loads(capsys.readouterr().out):
            g = build_cozero_graph(parse_spec(info["spec"]))
            assert info["omega"] == len(info["clique_witness"]) == info["chi"]
            self.check(g, info["clique_witness"], max_vertices=2048)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_ring_subgraphs(self, seed):
        h = random_ring_subgraph(random.Random(seed))
        res = chromatic_number(ordered(h))
        assert len(res.clique) == res.count
        self.check(h, res.clique)


class TestWeakPerfection:
    def test_omega_equals_chi_on_vnr_rings(self):
        for moduli in [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 3, 5),
                       (3, 5), (2, 2, 3), (6,), (2, 2, 2, 2)]:
            g = build_cozero_graph(RingSpec(moduli))
            assert max_clique(g).size == chromatic_number(ordered(g)).count


@given(st.integers(min_value=1, max_value=11), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_solver_agreement_property(n, seed):
    rng = random.Random(seed)
    g = random_graph(n, 0.5, rng)
    assert max_clique(g).size == brute_force_clique(g)
    if n <= 10:
        assert chromatic_by_search(g)[0] == brute_force_chromatic(g)
    h = random_ring_subgraph(rng)
    assert chromatic_number(ordered(h)).count == brute_force_chromatic(h)
