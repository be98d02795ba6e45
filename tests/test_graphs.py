import itertools
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cozero.graphs import (
    CozeroGraph,
    bits,
    build_cozero_graph,
    complement,
    gather,
    ideal_order,
    induced_subgraph,
    quotient_by_associates,
    to_dot,
    to_json,
    transpose,
)
from cozero.rings import (
    CapExceededError, RingSpec, associate_classes, parse_spec, vertices)
from cozero.solvers import _false_twin_reduce
from cozero.verify import default_ring_set
from conftest import (
    CLASS_RINGS, adjacency_by_oracle, from_edges, ideal_by_enumeration, nzc_partition,
    ordered, random_graph, rows_by_signature_fold)


def assert_quotient_is_by_associate_classes(spec):
    """The quotient's labels are the representatives of
    rings.associate_classes, in its order and ascending in the graph's, and
    its rows are the graph's between them."""
    g = build_cozero_graph(spec)
    q = quotient_by_associates(g)
    classes = associate_classes(spec).classes
    assert q.labels == tuple(rep for rep, _ in classes)
    at = {label: v for v, label in enumerate(g.labels)}
    reps = [at[label] for label in q.labels]
    assert all(a < b for a, b in zip(reps, reps[1:]))
    assert q.adj == induced_subgraph(g, reps).adj


def assert_core_is_quotient(spec):
    """Over fields, the false-twin core that quotient-reduction reads and the
    associate quotient that `export --quotient` writes are one graph."""
    g = build_cozero_graph(spec)
    q, core = quotient_by_associates(g), ordered(g).core
    assert (q.labels, q.adj) == (core.labels, core.adj), spec


def brute_edge_count(spec):
    vs = vertices(spec)
    return sum(1 for a, b in itertools.combinations(vs, 2)
               if adjacency_by_oracle(spec, a, b))


def oracle_rows(spec):
    """Adjacency rows from enumerated ideals: a-b iff a not in Rb, b not in Ra."""
    vs = vertices(spec)
    ideals = [ideal_by_enumeration(spec, v) for v in vs]
    return tuple(sum(1 << j for j, b in enumerate(vs)
                     if a not in ideals[j] and b not in ideals[i])
                 for i, a in enumerate(vs))


@st.composite
def moduli_lists(draw, limit=200):
    """Moduli lists of rings with at most limit elements."""
    moduli = [draw(st.integers(2, limit))]
    while limit // moduli[-1] >= 2 and draw(st.booleans()):
        limit //= moduli[-1]
        moduli.append(draw(st.integers(2, limit)))
    return tuple(moduli)


@st.composite
def moduli_with_repeats(draw, size=9, budget=4096):
    """Up to size moduli, repeats allowed, from primes, prime powers and
    composites, each drawn from those that keep the ring within budget."""
    pool = [2, 3, 5, 7, 11, 4, 8, 9, 16, 25, 27, 6, 10, 12, 15, 18, 30]
    moduli = [draw(st.sampled_from(pool))]
    for _ in range(draw(st.integers(0, size - 1))):
        fits = [m for m in pool if math.prod(moduli) * m <= budget]
        if not fits:
            break
        moduli.append(draw(st.sampled_from(fits)))
    return tuple(moduli)


class TestBuildMatchesSignatureFold:
    """The build grows each row's AND one factor per code prefix; the
    oracle folds every factor for every signature class."""

    def test_default_ring_set(self):
        specs = default_ring_set()
        assert len(specs) == 261
        for spec in specs:
            assert build_cozero_graph(spec).adj == rows_by_signature_fold(spec), spec

    @pytest.mark.parametrize("text", CLASS_RINGS + [
        "x".join(["Z2"] * k) for k in range(7, 12)] + [
        "Z4xZ4xZ4xZ4", "Z6xZ6xZ6", "Z12xZ18", "Z36", "Z16xZ4", "Z8xZ9"])
    def test_named_rings(self, text):
        spec = parse_spec(text)
        assert build_cozero_graph(spec).adj == rows_by_signature_fold(spec)

    @settings(max_examples=80, deadline=None)
    @given(moduli_with_repeats())
    @example((2,) * 9)
    @example((4, 4, 2, 2))
    @example((30, 6))
    def test_random_rings(self, moduli):
        spec = RingSpec(moduli)
        assert build_cozero_graph(spec).adj == rows_by_signature_fold(spec)

    def test_peak_allocation_on_boolean_ring(self):
        # 2048 signatures, each its own class: the rows, one per code, and
        # the partial ANDs of the first nine factors, 512 pairs; a list of
        # every code's full AND beside the rows would take the peak past the
        # 1.53 MB of the one-fold-per-class build
        spec = RingSpec((2,) * 11)
        build_cozero_graph(spec)  # its tuples freed, as a run's earlier rings leave them
        tracemalloc.start()
        try:
            g = build_cozero_graph(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n == 2046
        assert peak < 1.53e6 * 1.05, peak


class TestGather:
    def test_random_permutations_of_random_rows(self):
        # bit t of each gathered row is bit cols[t] of the row: for a
        # permutation's inverse, each bit j moves to perm[j]
        rng = random.Random(29)
        for n in [1, 2, 5, 31, 64, 65, 200]:
            perm = rng.sample(range(n), n)
            inverse = sorted(range(n), key=perm.__getitem__)
            rows = [rng.getrandbits(n) for _ in range(20)]
            assert gather(rows, inverse, n) == tuple(
                sum(1 << perm[j] for j in bits(row)) for row in rows)

    def test_bits_beyond_n_are_masked(self):
        assert gather([0b1101, 1 << 9 | 0b10], [2, 0, 1], 3) == (0b011, 0b100)
        assert gather([0b111], [], 3) == (0,)


class TestBuild:
    def test_equal_only_to_itself_and_immutable(self):
        g = build_cozero_graph(RingSpec((2, 3)))
        h = CozeroGraph(spec=g.spec, labels=g.labels, adj=g.adj)
        assert (h.spec, h.labels, h.adj) == (g.spec, g.labels, g.adj)
        assert g == g and g != h and len({g, h}) == 2
        with pytest.raises(AttributeError):
            g.adj = ()
        assert h.adj == g.adj

    def test_z2z2(self):
        g = build_cozero_graph(RingSpec((2, 2)))
        assert g.n == 2 and g.edge_count() == 1

    def test_z4_null(self):
        g = build_cozero_graph(RingSpec((4,)))
        assert g.n == 1 and g.edge_count() == 0

    def test_z2_cubed(self):
        g = build_cozero_graph(RingSpec((2, 2, 2)))
        assert g.n == 6
        assert g.edge_count() == 9
        assert g.edge_count() == brute_edge_count(RingSpec((2, 2, 2)))

    def test_symmetric_irreflexive(self, small_spec):
        g = build_cozero_graph(small_spec)
        for i in range(g.n):
            assert not g.has_edge(i, i)
            for j in range(g.n):
                assert g.has_edge(i, j) == g.has_edge(j, i)

    def test_matches_definitional_oracle(self, small_spec):
        g = build_cozero_graph(small_spec)
        for i, j in itertools.combinations(range(g.n), 2):
            assert g.has_edge(i, j) == \
                adjacency_by_oracle(small_spec, g.labels[i], g.labels[j])

    @pytest.mark.parametrize("text", ["Z4xZ9", "Z2xZ3xZ4", "Z6xZ10", "Z27",
                                      "Z16", "Z4xZ4", "Z8xZ3"])
    def test_mixed_and_non_vnr_match_oracle(self, text):
        spec = parse_spec(text)
        g = build_cozero_graph(spec)
        assert g.labels == tuple(vertices(spec))
        for i, j in itertools.combinations(range(g.n), 2):
            assert g.has_edge(i, j) == \
                adjacency_by_oracle(spec, g.labels[i], g.labels[j])

    @settings(max_examples=60, deadline=None)
    @given(moduli_lists())
    def test_random_rings_match_oracle(self, moduli):
        spec = RingSpec(moduli)
        assert spec.cardinality <= 200
        g = build_cozero_graph(spec)
        assert g.labels == tuple(vertices(spec))
        assert g.adj == oracle_rows(spec)

    # vertex and edge counts of the analyze-classes benchmark rings
    @pytest.mark.parametrize("text,n,edges", [
        ("Z2xZ3xZ5xZ7xZ11", 1829, 880802),
        ("Z3xZ3xZ3xZ3xZ3", 210, 14280),
        ("Z4xZ9xZ25", 659, 106700),
        ("Z5xZ5xZ5xZ5", 368, 42592),
        ("Z7xZ7xZ7xZ7", 1104, 400680),
        ("Z8xZ27", 143, 3822),
        ("Z9xZ9xZ9", 512, 73200),
    ])
    def test_large_ring_counts(self, text, n, edges):
        g = build_cozero_graph(parse_spec(text))
        assert g.n == n and g.edge_count() == edges

    def test_cardinality_cap(self):
        with pytest.raises(CapExceededError):
            build_cozero_graph(RingSpec((101, 101)), max_cardinality=10_000)


class TestContainmentAdjacency:
    def test_incomparable_patterns(self):
        assert adjacency_by_oracle(RingSpec((2, 2)), (0, 1), (1, 0))

    def test_equal_ideals_z6(self):
        assert not adjacency_by_oracle(RingSpec((6,)), (2,), (4,))

    def test_nested_ideals(self):
        assert not adjacency_by_oracle(RingSpec((2, 4)), (0, 2), (0, 1))

    def test_equals_definitional(self, small_spec):
        g = build_cozero_graph(small_spec)
        for i, j in itertools.combinations(range(g.n), 2):
            assert g.has_edge(i, j) == \
                adjacency_by_oracle(small_spec, g.labels[i], g.labels[j])


class TestComplement:
    def test_small(self):
        g = from_edges(2, [(0, 1)])
        assert complement(g).edge_count() == 0

    def test_involution(self, small_spec):
        g = build_cozero_graph(small_spec)
        gc = complement(complement(g))
        assert gc.adj == g.adj and gc.labels == g.labels

    def test_z2_cubed_complement_edges(self):
        g = build_cozero_graph(RingSpec((2, 2, 2)))
        assert complement(g).edge_count() == 15 - 9


class TestTranspose:
    def test_matches_bit_by_bit(self):
        # every size to 70, and either side of a power of two
        rng = random.Random(26)
        for n in [*range(71), 127, 128, 129]:
            rows = [rng.getrandbits(n) for _ in range(n)]
            assert transpose(rows) == [sum((rows[i] >> j & 1) << i for i in range(n))
                                       for j in range(n)], n

    def test_a_graph_is_its_own_transpose(self):
        for spec in default_ring_set()[:80]:
            g = build_cozero_graph(spec)
            assert transpose(g.adj) == list(g.adj)
            h = complement(g)
            assert transpose(h.adj) == list(h.adj)


class TestIdealOrder:
    def test_peak_allocation_on_boolean_core(self):
        # the certificate is one rank per vertex, about 24 kB at the peak;
        # a mask per signature of the vertices at or above it would take
        # the peak to 3.7 MB
        g = build_cozero_graph(RingSpec((2,) * 11))
        core = induced_subgraph(g, _false_twin_reduce(g))
        tracemalloc.start()
        try:
            rank = ideal_order(core)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rank) == core.n == 2046
        assert peak < 2.5e6, peak


class TestInducedSubgraph:
    def test_keep_all_identity(self, small_spec):
        g = build_cozero_graph(small_spec)
        assert induced_subgraph(g, range(g.n)) is g
        assert induced_subgraph(g, reversed(range(g.n))) is g

    def test_repeated_vertices_not_the_whole_graph(self):
        g = build_cozero_graph(RingSpec((2, 2, 2)))
        keep = [0] + list(range(g.n - 1))  # n entries, vertex n-1 missing
        sub = induced_subgraph(g, keep)
        assert sub is not g and g.labels[-1] not in sub.labels

    def test_keep_none(self):
        g = build_cozero_graph(RingSpec((2, 2)))
        assert induced_subgraph(g, []).n == 0

    def test_weight_two_triangle(self):
        # the three vertices of Z2^3 with one nonzero component form a triangle
        g = build_cozero_graph(RingSpec((2, 2, 2)))
        keep = [i for i, lab in enumerate(g.labels) if lab.count(0) == 2]
        sub = induced_subgraph(g, keep)
        assert sub.n == 3 and sub.edge_count() == 3

    def test_inherits_adjacency(self):
        g = build_cozero_graph(RingSpec((2, 3, 5)))
        keep = list(range(0, g.n, 2))
        sub = induced_subgraph(g, keep)
        assert sub.labels == tuple(g.labels[v] for v in keep)
        for a, b in itertools.combinations(range(sub.n), 2):
            assert sub.has_edge(a, b) == g.has_edge(keep[a], keep[b])

    def test_gather_matches_the_bit_loop(self):
        # random keep sets of every size class, on ring graphs and bare ones,
        # and on rows with bits past the vertices, which neither reads
        rng = random.Random(28)
        gs = [build_cozero_graph(RingSpec(m)) for m in [(2,), (4,), (2, 2), (6, 5), (4, 9)]]
        gs += [random_graph(n, 0.5, rng) for n in (1, 2, 7, 63, 64, 65)]
        gs.append(CozeroGraph(None, gs[-1].labels, tuple(r | 5 << 65 for r in gs[-1].adj)))
        for g in gs:
            for size in sorted({0, 1, 2, g.n // 2, g.n - 1} - {-1}):
                keep = rng.sample(range(g.n), min(size, g.n))
                cols = sorted(keep)
                sub = induced_subgraph(g, keep)
                assert sub.labels == tuple(g.labels[v] for v in cols)
                assert sub.adj == tuple(
                    sum(1 << new for new, col in enumerate(cols) if g.adj[old] >> col & 1)
                    for old in cols), (g.n, keep)


class TestNzc:
    @pytest.mark.parametrize("x,count", [
        ((0, 1, 1), 1),
        ((0, 0, 1), 2),
        ((0, 2), 1),
        ((1, 1), 0),
    ])
    def test_counts(self, x, count):
        # a vertex lies in the part of its zero count; a unit, with no zero,
        # is no vertex and lies in no part
        g = build_cozero_graph(RingSpec((3,) * len(x)))
        v = g.labels.index(x) if x in g.labels else None
        found = [k for k, part in enumerate(nzc_partition(g), start=1) if v in part]
        assert found == ([count] if count else [])

    def test_partition_z2_powers(self):
        for n in (3, 4):
            g = build_cozero_graph(RingSpec((2,) * n))
            parts = nzc_partition(g)
            assert [len(p) for p in parts] == [math.comb(n, i)
                                               for i in range(1, n)]
            covered = sorted(v for p in parts for v in p)
            assert covered == list(range(g.n))

    def test_partition_z2z3(self):
        g = build_cozero_graph(RingSpec((2, 3)))
        parts = nzc_partition(g)
        assert len(parts) == 1
        assert {g.labels[i] for i in parts[0]} == {(0, 1), (0, 2), (1, 0)}

    def test_parts_complete_over_z2(self):
        g = build_cozero_graph(RingSpec((2,) * 4))
        for part in nzc_partition(g):
            for a, b in itertools.combinations(part, 2):
                assert g.has_edge(a, b)

    def test_cross_part_nonneighbor_exists(self):
        # for i < j <= n/2, every weight-i vertex has a non-neighbor in A_j
        n = 5
        g = build_cozero_graph(RingSpec((2,) * n))
        parts = nzc_partition(g)
        for i in range(1, n // 2 + 1):
            for j in range(i + 1, n // 2 + 1):
                for x in parts[i - 1]:
                    assert any(not g.has_edge(x, y) for y in parts[j - 1])


class TestQuotient:
    def test_z3z3(self):
        q = quotient_by_associates(build_cozero_graph(RingSpec((3, 3))))
        assert q.n == 2
        assert q.edge_count() == 1
        assert q.labels == ((0, 1), (1, 0))

    def test_z2_powers_identity(self):
        g = build_cozero_graph(RingSpec((2, 2, 2)))
        q = quotient_by_associates(g)
        assert (q.labels, q.adj) == (g.labels, g.adj)

    def test_z3z5z7(self):
        q = quotient_by_associates(build_cozero_graph(RingSpec((3, 5, 7))))
        assert q.n == 6

    def test_members_must_be_false_twins_of_their_representative(self):
        # Z3xZ3: vertex 1 = (0,2) is an associate of vertex 0 = (0,1)
        g = build_cozero_graph(RingSpec((3, 3)))
        assert g.labels[:2] == ((0, 1), (0, 2))
        adjacent = from_edges(g.n, g.edges() + [(0, 1)], labels=g.labels, spec=g.spec)
        other_row = from_edges(g.n, [e for e in g.edges() if 1 not in e][:1]
                               + [(1, 2)], labels=g.labels, spec=g.spec)
        # equal rows with loops at both: only the adjacency test tells
        looped = CozeroGraph(spec=g.spec, labels=g.labels,
                             adj=(g.adj[0] | 0b11, g.adj[1] | 0b11) + g.adj[2:])
        for wrong, v, rep in ((adjacent, 1, 0), (other_row, 3, 2), (looped, 0, 0)):
            with pytest.raises(AssertionError, match=(
                    f"^associates {v}, {rep} are adjacent or have different rows$")):
                quotient_by_associates(wrong)

    def test_names_the_first_wrong_class(self):
        # Z4xZ3: the class of (1,0) is vertices 2 and 6, and that of (2,1)
        # vertices 4 and 5.  Dropping the edge 5-6 gives both a wrong member;
        # the first class in order of representative is named, with its
        # lowest wrong member, though vertex 5 comes before vertex 6
        g = build_cozero_graph(RingSpec((4, 3)))
        assert quotient_by_associates(g).labels == tuple(g.labels[v] for v in (0, 2, 3, 4))
        assert g.has_edge(5, 6)
        wrong = from_edges(g.n, [e for e in g.edges() if e != (5, 6)],
                           labels=g.labels, spec=g.spec)
        with pytest.raises(AssertionError,
                           match="^associates 6, 2 are adjacent or have different rows$"):
            quotient_by_associates(wrong)

    def test_sizes_sum_to_vertex_count(self, small_spec):
        # the associate classes partition the vertices, one quotient vertex each
        g = build_cozero_graph(small_spec)
        classes = associate_classes(small_spec).classes
        assert sum(len(members) for _, members in classes) == g.n
        assert quotient_by_associates(g).n == len(classes)

    def test_classes_are_the_associate_classes(self):
        # the quotient's classes come from the gcd-signature table; they are
        # rings.associate_classes', representatives in order, and sizes
        extra = [parse_spec(t) for t in ["Z4xZ9", "Z8xZ27", "Z2xZ4", "Z36", "Z9xZ9"]]
        for spec in default_ring_set() + extra:
            assert_quotient_is_by_associate_classes(spec)

    @given(st.lists(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 10, 12]),
                    min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_classes_are_the_associate_classes_property(self, moduli):
        spec = RingSpec(tuple(moduli))
        assume(spec.cardinality <= 600)
        assert_quotient_is_by_associate_classes(spec)

    def test_twin_core_is_the_quotient_over_fields(self):
        fields = [s for s in default_ring_set()
                  if s.fields is not None and len(s.fields) >= 2]
        assert len(fields) == 201
        for spec in fields:
            assert_core_is_quotient(spec)

    # squarefree moduli, split or not: every such product is one of fields
    @given(st.lists(st.sampled_from([2, 3, 5, 6, 7, 10, 14, 15, 30]),
                    min_size=1, max_size=3))
    @example([6, 5])
    @example([10, 3])
    @settings(max_examples=60, deadline=None)
    def test_twin_core_is_the_quotient_over_fields_property(self, moduli):
        spec = RingSpec(tuple(moduli))
        assume(spec.cardinality <= 600 and len(spec.fields) >= 2)
        assert_core_is_quotient(spec)


class TestExport:
    def test_dot_z2_cubed(self):
        g = build_cozero_graph(RingSpec((2, 2, 2)))
        dot = to_dot(g)
        assert dot.startswith("graph cozero {\n") and dot.endswith("\n}\n")
        assert dot.count(" -- ") == 9
        assert '0 [label="(0,0,1)"];' in dot

    def test_json_roundtrip(self):
        g = build_cozero_graph(RingSpec((2, 3)))
        data = json.loads(to_json(g))
        assert data["spec"] == "Z2xZ3"
        assert data["labels"] == [[0, 1], [0, 2], [1, 0]]
        assert data["edges"] == [[0, 2], [1, 2]]

    def test_byte_stable(self, small_spec):
        g1 = build_cozero_graph(small_spec)
        g2 = build_cozero_graph(small_spec)
        assert to_dot(g1) == to_dot(g2)
        assert to_json(g1) == to_json(g2)
