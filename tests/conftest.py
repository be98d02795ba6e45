import itertools
import math
import random

import pytest

from cozero.graphs import CozeroGraph, bits, build_cozero_graph, induced_subgraph, positions
from cozero.rings import (
    AssociateClasses, CapExceededError, RingSpec, divisors, signature_codes)
from cozero.solvers import ValidatedOrder, max_clique, validated_order


# ring arithmetic and bare graphs that only the tests need


def mul(spec: RingSpec, a, b):
    return tuple((x * y) % n for x, y, n in zip(a, b, spec.moduli))


def one(spec: RingSpec):
    return (1,) * len(spec.moduli)


def is_unit(spec: RingSpec, a) -> bool:
    return all(math.gcd(x, n) == 1 for x, n in zip(a, spec.moduli))


def from_edges(n: int, edges, labels=None, spec=None) -> CozeroGraph:
    """Build a bare graph from an edge list (negative controls)."""
    rows = [0] * n
    for i, j in edges:
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"bad edge ({i}, {j})")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    if labels is None:
        labels = tuple((i,) for i in range(n))
    return CozeroGraph(spec=spec, labels=tuple(labels), adj=tuple(rows))


def ordered(g: CozeroGraph) -> ValidatedOrder:
    """g's validated principal-ideal order, from g's own row classes as
    verify.Case groups them: the one input of chromatic_number and
    is_perfect_desk_scale."""
    return validated_order(g, positions(g.adj))


# independent oracles, kept deliberately naive


def ideal_by_enumeration(spec: RingSpec, b):
    return {mul(spec, r, b) for r in spec.elements()}


def unit_by_search(spec: RingSpec, a) -> bool:
    return any(mul(spec, a, b) == one(spec) for b in spec.elements())


def vertices_by_search(spec: RingSpec):
    """The non-zero non-units, element by element, in lexicographic order."""
    return [a for a in spec.elements() if a != spec.zero and not is_unit(spec, a)]


def associate_classes_by_gcd(spec: RingSpec) -> AssociateClasses:
    """The vertices bucketed by their tuple of gcds, one vertex at a time;
    classes ordered by representative, each the smallest of its members."""
    buckets: dict[tuple[int, ...], list] = {}
    for v in vertices_by_search(spec):
        key = tuple(math.gcd(x, n) for x, n in zip(v, spec.moduli))
        buckets.setdefault(key, []).append(v)
    classes = [(members[0], tuple(members)) for members in sorted(buckets.values())]
    return AssociateClasses(spec=spec, classes=tuple(classes))


def nzc_partition(g: CozeroGraph) -> list[list[int]]:
    """Vertex-index sets A_1..A_{n-1} of a graph over a product of n prime
    fields, grouped by zero-component count, one vertex at a time.

    Same-part vertices with distinct zero patterns are always adjacent, so
    over Z2 factors (where equal count forces distinct patterns) each part
    induces a complete subgraph.  A label with no zero or no non-zero
    component is no vertex, and is left out of every part.
    """
    n = len(g.spec.moduli)
    parts: list[list[int]] = [[] for _ in range(n - 1)]
    for i, label in enumerate(g.labels):
        if 0 < (k := label.count(0)) < n:
            parts[k - 1].append(i)
    return parts


def rows_by_signature_fold(spec: RingSpec) -> tuple[int, ...]:
    """The rows of spec's graph, one per signature code, each a k-way AND of
    per-factor masks (Rb is inside Ra iff gcd(a_i, n_i) divides gcd(b_i,
    n_i) for every i): every factor folded for every class, with no prefix
    shared between classes."""
    labels, codes = signature_codes(spec)
    sigs = list(itertools.product(*map(divisors, spec.moduli)))  # indexed by code
    members = positions(codes)
    below, above = [], []  # [i][d]: labels whose i-th gcd is a multiple / divisor of d
    for i in range(len(spec.moduli)):
        col: dict[int, int] = {}
        for code, mask in members.items():
            col[sigs[code][i]] = col.get(sigs[code][i], 0) | mask
        below.append({d: sum(m for e, m in col.items() if e % d == 0) for d in col})
        above.append({d: sum(m for e, m in col.items() if d % e == 0) for d in col})
    full = (1 << len(labels)) - 1
    rows = {}
    for code in members:
        down = up = full
        for i, d in enumerate(sigs[code]):
            down &= below[i][d]
            up &= above[i][d]
        rows[code] = full & ~(down | up)
    return tuple(map(rows.__getitem__, codes))


def vnr_by_search(spec: RingSpec) -> bool:
    return all(any(mul(spec, mul(spec, r, r), s) == r for s in spec.elements())
               for r in spec.elements())


def adjacency_by_oracle(spec: RingSpec, a, b) -> bool:
    return (a not in ideal_by_enumeration(spec, b)
            and b not in ideal_by_enumeration(spec, a))


def brute_force_clique(g: CozeroGraph) -> int:
    """Exact clique number by enumerating every clique (<= 20 vertices)."""
    if g.n > 20:
        raise CapExceededError(f"brute-force clique capped at 20 vertices, got {g.n}")
    best = 0

    def grow(size: int, cand: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand &= ~low
            grow(size + 1, cand & g.adj[v])

    grow(0, (1 << g.n) - 1)
    return best


def brute_force_chromatic(g: CozeroGraph) -> int:
    """Exact chromatic number by plain assignment backtracking (<= 12
    vertices); no heuristics shared with the main solver."""
    if g.n > 12:
        raise CapExceededError(f"brute-force coloring capped at 12 vertices, got {g.n}")
    if g.n == 0:
        return 0
    colors = [-1] * g.n

    def feasible(k: int, v: int) -> bool:
        if v == g.n:
            return True
        for c in range(k):
            if all(colors[nb] != c for nb in bits(g.adj[v]) if nb < v):
                colors[v] = c
                if feasible(k, v + 1):
                    colors[v] = -1
                    return True
                colors[v] = -1
        return False

    for k in range(1, g.n + 1):
        if feasible(k, 0):
            return k
    return g.n


def chromatic_by_search(g: CozeroGraph) -> tuple[int, list[int]]:
    """Exact chromatic number and a coloring of any graph, ring-backed or
    not: a DSATUR upper bound, then backtracking for each color count from
    the clique number up, with a maximum clique pre-colored."""
    if g.n == 0:
        return 0, []
    clique = list(max_clique(g, max_vertices=g.n).witness)
    ub, ub_colors = _dsatur(g.adj)
    for k in range(len(clique), ub):
        colors = _try_k_coloring(g.adj, k, clique)
        if colors is not None:
            return k, colors
    return ub, ub_colors


def _dsatur(adj) -> tuple[int, list[int]]:
    n = len(adj)
    colors = [-1] * n
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    degrees = [adj[v].bit_count() for v in range(n)]
    for _ in range(n):
        u = max((v for v in range(n) if colors[v] == -1),
                key=lambda v: (len(neighbor_colors[v]), degrees[v], -v))
        c = 0
        while c in neighbor_colors[u]:
            c += 1
        colors[u] = c
        for nb in bits(adj[u]):
            neighbor_colors[nb].add(c)
    return max(colors) + 1, colors


def _try_k_coloring(adj, k: int, clique: list[int]) -> list[int] | None:
    """Backtracking search for a proper k-coloring, clique pre-colored to break
    color symmetry; DSATUR vertex selection, lowest index on ties.  The search
    keeps its own stack, so deep inputs need no change to the recursion limit."""
    n = len(adj)
    colors = [-1] * n
    # forbidden[v] = bitset of colors used on v's neighbors
    forbidden = [0] * n
    degrees = [adj[v].bit_count() for v in range(n)]
    uncolored = set(range(n))

    def assign(v: int, c: int) -> list[int]:
        colors[v] = c
        uncolored.discard(v)
        touched = []
        bit = 1 << c
        for nb in bits(adj[v]):
            if colors[nb] == -1 and not forbidden[nb] & bit:
                forbidden[nb] |= bit
                touched.append(nb)
        return touched

    def undo(v: int, c: int, touched: list[int]) -> None:
        colors[v] = -1
        uncolored.add(v)
        bit = 1 << c
        for nb in touched:
            forbidden[nb] &= ~bit
    for i, v in enumerate(clique):
        if i >= k:
            return None
        assign(v, i)

    full = (1 << k) - 1
    # depth-first over color choices; stack holds one (v, avail, max_used,
    # c, touched) per vertex colored by the search
    stack: list[tuple[int, int, int, int, list[int]]] = []
    descend = True
    while True:
        if descend:
            if not uncolored:
                return colors.copy()
            v = max(uncolored,
                    key=lambda u: (forbidden[u].bit_count(), degrees[u], -u))
            avail = full & ~forbidden[v]
            max_used = max(colors)
        else:
            if not stack:
                return None
            v, avail, max_used, c, touched = stack.pop()
            undo(v, c, touched)
        low = avail & -avail
        c = low.bit_length() - 1
        # fresh colors are interchangeable; try only the first
        descend = bool(avail) and c <= max_used + 1
        if descend:
            avail &= ~low
            stack.append((v, avail, max_used, c, assign(v, c)))


def random_graph(n: int, p: float, rng: random.Random) -> CozeroGraph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return from_edges(n, edges)


def cycle_graph(n: int) -> CozeroGraph:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> CozeroGraph:
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def has_induced_odd_cycle_by_subsets(g: CozeroGraph, min_len: int = 5) -> bool:
    """Exhaustive check over vertex subsets: is some induced subgraph an odd
    cycle of length >= min_len?  Only for tiny graphs."""
    for size in range(min_len, g.n + 1, 2):
        for subset in itertools.combinations(range(g.n), size):
            degs = [sum(1 for j in subset if j != i and g.has_edge(i, j))
                    for i in subset]
            if any(d != 2 for d in degs):
                continue
            # all degrees 2 and connected means a single cycle
            seen = {subset[0]}
            frontier = [subset[0]]
            while frontier:
                v = frontier.pop()
                for w in subset:
                    if w not in seen and g.has_edge(v, w):
                        seen.add(w)
                        frontier.append(w)
            if len(seen) == size:
                return True
    return False


SMALL_SPECS = [
    RingSpec((4,)),
    RingSpec((6,)),
    RingSpec((8,)),
    RingSpec((9,)),
    RingSpec((12,)),
    RingSpec((2, 2)),
    RingSpec((2, 3)),
    RingSpec((2, 4)),
    RingSpec((3, 3)),
    RingSpec((2, 2, 2)),
    RingSpec((2, 2, 3)),
    RingSpec((2, 3, 5)),
    RingSpec((3, 5)),
    RingSpec((2, 2, 2, 2)),
]


# the rings of the analyze-classes benchmark, in its order: many vertices,
# few associate classes
CLASS_RINGS = ["Z2xZ3xZ5xZ7xZ11", "Z7xZ7xZ7xZ7", "Z4xZ9xZ25", "Z9xZ9xZ9",
               "Z5xZ5xZ5xZ5", "Z3xZ3xZ3xZ3xZ3", "Z8xZ27"]


def random_ring_subgraph(rng: random.Random) -> CozeroGraph:
    """A random induced subgraph, on at most 10 vertices, of the graph of
    one of SMALL_SPECS: ring-backed, so chromatic_number applies."""
    g = build_cozero_graph(rng.choice(SMALL_SPECS))
    return induced_subgraph(g, rng.sample(range(g.n), min(g.n, rng.randint(1, 10))))


@pytest.fixture(params=SMALL_SPECS, ids=str)
def small_spec(request):
    return request.param
