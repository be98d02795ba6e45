"""Exact combinatorial solvers: chromatic number with a maximum clique, and
perfection certificates by transitive orientations, for ring-backed graphs;
and three exponential searches that no CLI path runs.

Chromatic number and perfection take one principal-ideal order, which
validated_order makes from a ring-backed graph and its row classes, and
which raises ValueError on a bare graph: its out-rows are the complement's
edges taken up the rank |Ru|, derived from rows checked to be a graph, and
validated as a transitive orientation, which certifies perfection.  A
minimum chain cover of it (Dilworth) colors the graph, certified by an
antichain, a clique of the same size (König), which is also the maximum
clique the CLI reports.

The searches, max_clique (branch and bound), find_odd_hole and
are_isomorphic, serve any graph and stay here only as the tests' references;
the package namespace does not re-export them.  The benchmark's tracer wraps
them and validate_certificate by name in this module, and counts
rings.in_principal_ideal: deleting or moving any of these breaks perfbench's
--trace 1.  Their caps raise instead of degrading to heuristics.
Tie-breaking is by lowest vertex index throughout so witnesses are
reproducible.
"""
from __future__ import annotations

from collections import namedtuple

from .graphs import (
    CozeroGraph, bits, complement, ideal_order, induced_subgraph, positions, transpose)
from .rings import CapExceededError

DEFAULT_VERTEX_CAP = 512
ISO_VERTEX_CAP = 64


CliqueResult = namedtuple("CliqueResult", "size witness")

# assignment: vertex index -> color in [0, count); clique: count vertices,
# pairwise adjacent, so omega = chi
ColoringResult = namedtuple("ColoringResult", "count assignment clique")

OddCycleCertificate = namedtuple("OddCycleCertificate", "where cycle")  # "graph" or "complement"


class ValidatedOrder(namedtuple("ValidatedOrder", "graph keep core out")):
    """graph, its rows checked to be a graph, and its false-twin core, with
    its validated principal-ideal order as out-rows derived from the core's
    adjacency; keep maps each core vertex to its vertex of graph."""
    __slots__ = ()


def validate_clique(g: CozeroGraph, witness) -> bool:
    ws = list(witness)
    if len(set(ws)) != len(ws) or not all(0 <= v < g.n for v in ws):
        return False
    # each member's closed neighbourhood must hold the whole witness
    mask = sum(1 << v for v in ws)
    return all(not mask & ~(g.adj[v] | 1 << v) for v in ws)


def validate_coloring(g: CozeroGraph, assignment, count: int) -> bool:
    if len(assignment) != g.n or not all(0 <= c < count for c in assignment):
        return False
    classes = positions(assignment)  # color -> bitset of the vertices it colors
    return all(not g.adj[v] & classes[c] for v, c in enumerate(assignment))


def validate_certificate(g: CozeroGraph, cert: OddCycleCertificate) -> bool:
    """Check that cert.cycle is an induced odd cycle of length >= 5 in the
    flagged graph (the complement is rebuilt here, independent of the search)."""
    h = g if cert.where == "graph" else complement(g)
    cyc = list(cert.cycle)
    k = len(cyc)
    if (k < 5 or k % 2 == 0 or len(set(cyc)) != k
            or not all(0 <= v < h.n for v in cyc)):
        return False
    # two members are adjacent iff consecutive on the cycle
    return all(h.has_edge(cyc[i], cyc[j]) == (j - i == 1 or (i == 0 and j == k - 1))
               for i in range(k) for j in range(i + 1, k))


def validate_orientation(g: CozeroGraph, rank) -> tuple[int, ...] | None:
    """The orientation of the complement of g up the order (rank[u], u), as
    out-rows (bitsets) derived from g.adj, if it is transitive; else None.
    Walking down the order, out[u] is u's complement row restricted to the
    vertices after u.  Its vertices not yet joined, one rank level at a time
    and lowest first, are picks, each joined with its out-row; out[u] must
    equal the join.

    Each complement edge is oriented once, up a total order, so the arcs
    are acyclic.  The picks lie in out[u], so equality puts each pick's
    out-row inside out[u].  Transitivity, by induction down the order: let
    each out[v] after u be closed (w in out[v] puts out[w] inside it).
    Each w in out[u] is a pick, with out[w] inside out[u], or lies in
    out[v] of a pick v, after u, so out[w] is inside out[v], inside out[u].
    Nothing is assumed of rank, and a transitive orientation passes; lowest
    first, the picks are u's covers, bar ties.  The complement is then a
    comparability graph, so it and g are perfect.
    """
    n = g.n
    if len(rank) != n:
        return None
    levels = [mask for _, mask in sorted(positions(rank).items())]
    out = [0] * n
    after = 0  # the vertices after u in the order
    # a stable sort keeps equal ranks in index order
    for u in reversed(sorted(range(n), key=rank.__getitem__)):
        row = left = after & ~g.adj[u]
        joined = 0
        for level in levels:
            if picks := left & level:
                joined |= picks
                for v in bits(picks):
                    joined |= out[v]
                if not (left := left & ~joined):
                    break
        if joined != row:
            return None
        out[u] = row
        after |= 1 << u
    return tuple(out)


def validate_rows(g: CozeroGraph, row_classes: dict, core: CozeroGraph) -> bool:
    """Whether g's rows are a graph, symmetric and loopless, from row_classes
    (each distinct row -> its vertices) and core (g on each class's first
    vertex) alone: each row lies in g.n bits, misses its class and is a union
    of classes, and the core is its own transpose.  For i in class A, j in B:
    j in row i iff B's first in A's row iff A's first in B's row iff i in row j."""
    n, shared = g.n, [m for m in row_classes.values() if m & m - 1]  # two or more
    return (all(not row >> n and not row & m
                and all((x := row & c) == c or not x for c in shared)
                for row, m in row_classes.items())
            and transpose(core.adj) == list(core.adj))


def validated_order(g: CozeroGraph, row_classes: dict) -> ValidatedOrder:
    """The principal-ideal order on g's false-twin core, the first vertex of each
    row class, from the core's rows and rank |Ru|; row_classes must be g's own,
    graphs.positions(g.adj), as Case passes it.  ValueError on a bare graph;
    AssertionError unless the rows are a graph and the order is transitive."""
    keep = [(m & -m).bit_length() - 1 for m in row_classes.values()]
    core = induced_subgraph(g, keep)
    if not validate_rows(g, row_classes, core):
        raise AssertionError(f"the rows of {g.spec} are not a symmetric, loopless graph")
    out = validate_orientation(core, ideal_order(core))
    # a 0-vertex core (Z2, Z3, ...) has the valid, empty, out-rows ()
    if out is None:
        raise AssertionError(f"ideal orientation of {core.spec} does not orient "
                             f"the complement transitively")
    return ValidatedOrder(graph=g, keep=tuple(keep), core=core, out=out)


# ---------------------------------------------------------------------------
# twin reduction, for the searches: a clique or an induced cycle of length
# >= 5 uses at most one vertex of each class of equal open neighborhoods
# (non-adjacent "false twins") or closed ones (adjacent "true twins")
# ---------------------------------------------------------------------------

def _false_twin_reduce(g: CozeroGraph) -> list[int]:
    """The lowest vertex of each class of false twins (equal rows), ascending."""
    return [(m & -m).bit_length() - 1 for m in positions(g.adj).values()]


def _all_twin_reduce(g: CozeroGraph) -> list[int]:
    """Keep one vertex per open- or closed-neighborhood class."""
    open_seen, closed_seen, keep = set(), set(), []
    for v, row in enumerate(g.adj):
        if row not in open_seen and row | 1 << v not in closed_seen:
            open_seen.add(row)
            closed_seen.add(row | 1 << v)
            keep.append(v)
    return keep


def check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise CapExceededError(f"graph has {n} vertices, cap is {cap}")


# ---------------------------------------------------------------------------
# maximum clique: branch and bound over bitsets with greedy-coloring bounds,
# the tests' reference for the clique chromatic_number returns
# ---------------------------------------------------------------------------

def max_clique(g: CozeroGraph, max_vertices: int = DEFAULT_VERTEX_CAP) -> CliqueResult:
    check_cap(g.n, max_vertices)
    keep = _false_twin_reduce(g)
    best = _max_clique_core(induced_subgraph(g, keep).adj)
    return CliqueResult(size=len(best), witness=tuple(sorted(keep[v] for v in best)))


def _greedy_clique(adj: list[int], n: int) -> list[int]:
    # seed the bound: extend greedily from each vertex, highest degree first
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    best: list[int] = []
    for start in order[:min(n, 16)]:
        clique, cand = [start], adj[start]
        while cand:
            v = (cand & -cand).bit_length() - 1
            clique.append(v)
            cand &= adj[v]
        if len(clique) > len(best):
            best = clique
    return best


def _max_clique_core(adj: list[int]) -> list[int]:
    n = len(adj)
    best = _greedy_clique(adj, n)
    current: list[int] = []

    def color_sort(p: int) -> tuple[list[int], list[int]]:
        order, bounds, color = [], [], 0
        while p:
            color += 1
            q = p
            while q:
                low = q & -q
                v = low.bit_length() - 1
                q &= ~adj[v] & ~low
                p &= ~low
                order.append(v)
                bounds.append(color)
        return order, bounds

    # depth-first over candidate sets; stack holds the suspended levels
    # above the current one, each as (p, order, bounds, i)
    stack: list[tuple[int, list[int], list[int], int]] = []
    p = (1 << n) - 1
    order, bounds = color_sort(p)
    i = len(order) - 1
    while True:
        if i >= 0 and len(current) + bounds[i] > len(best):
            v = order[i]
            current.append(v)
            if sub := p & adj[v]:
                stack.append((p, order, bounds, i))
                p = sub
                order, bounds = color_sort(p)
                i = len(order) - 1
                continue
            if len(current) > len(best):
                best = current.copy()
        else:
            # level exhausted or bounded out: resume the level above
            if not stack:
                break
            p, order, bounds, i = stack.pop()
            v = order[i]
        current.pop()
        p &= ~(1 << v)
        i -= 1
    return sorted(best)


# ---------------------------------------------------------------------------
# chromatic number: a minimum chain cover of the principal-ideal order
# ---------------------------------------------------------------------------

def chromatic_number(order: ValidatedOrder) -> ColoringResult:
    """Exact chromatic number, a coloring and a maximum clique of the
    ring-backed graph order.graph, on its false-twin core: the chains of a
    minimum chain cover of the core's validated principal-ideal order, and
    an antichain of equal size, checked as a clique on the core's adjacency
    alone, so omega = chi.  AssertionError if either certificate fails."""
    g, core = order.graph, order.core
    count, colors, antichain = _chain_cover(order.out)
    if not (len(antichain) == count and validate_clique(core, antichain)
            and validate_coloring(core, colors, count)):
        raise AssertionError(
            f"chain cover of {core.spec} with {count} chains is not "
            f"matched by a clique of the same size")
    # removed false twins reuse the color of the kept vertex with their row
    color = dict(zip(map(g.adj.__getitem__, order.keep), colors))
    try:
        assignment = tuple(map(color.__getitem__, g.adj))
    except KeyError:  # the order was validated from another partition of the rows
        raise AssertionError(f"a row of {g.spec} is no row of its twin core") from None
    return ColoringResult(count=count, assignment=assignment,
                          clique=tuple(sorted(order.keep[v] for v in antichain)))


def _chain_cover(out) -> tuple[int, list[int], list[int]]:
    """(chain count, chain of each vertex, antichain) of the strict order
    with out-rows out (Fulkerson's proof of Dilworth's theorem).

    A maximum matching of u (left) to v (right) over the arcs u->v joins the
    n vertices into n - |matching| chains.  By König, the vertices that
    alternating paths from the unmatched left vertices reach on the left
    but not on the right form an antichain of the same size.
    """
    n = len(out)
    succ = [-1] * n  # succ[u] = v: arc u->v is matched
    pred = [-1] * n  # pred[v] = u
    free = (1 << n) - 1  # right vertices the greedy pass has not matched
    for u in range(n):
        cand = out[u] & free
        if cand:
            succ[u] = (cand & -cand).bit_length() - 1
            pred[succ[u]] = u
            free ^= 1 << succ[u]
    # a right vertex searched in vain stays a dead end until the matching
    # changes, so seen is cleared only after an augmentation
    seen = 0
    for s in [u for u in range(n) if succ[u] == -1]:
        # the left vertices of an alternating path from s: each next one is
        # matched to a right vertex the one before has an arc to
        lefts = [s]
        while lefts:
            cand = out[lefts[-1]] & ~seen
            if not cand:
                lefts.pop()
                continue
            low = cand & -cand
            seen |= low
            v = low.bit_length() - 1
            if pred[v] == -1:
                # augment: each left vertex takes its successor's match
                for u in reversed(lefts):
                    pred[v] = u
                    succ[u], v = v, succ[u]
                seen = 0
                break
            lefts.append(pred[v])
    starts = [v for v in range(n) if pred[v] == -1]
    colors = [-1] * n
    for c, v in enumerate(starts):
        while v != -1:
            colors[v], v = c, succ[v]
    # left/right: the vertices that alternating paths from the unmatched
    # left vertices reach on each side.  The matching is maximum, so every
    # right vertex reached is matched, and its partner is newly reached.
    left = todo = sum(1 << u for u in range(n) if succ[u] == -1)
    right = 0
    while todo:
        low = todo & -todo
        new = out[low.bit_length() - 1] & ~right
        right |= new
        reached = sum(1 << pred[v] for v in bits(new))
        left |= reached
        todo = todo ^ low | reached
    return len(starts), colors, bits(left & ~right)


# ---------------------------------------------------------------------------
# induced odd cycles (holes)
# ---------------------------------------------------------------------------

def find_odd_hole(g: CozeroGraph, min_len: int = 5,
                  max_vertices: int = DEFAULT_VERTEX_CAP) -> OddCycleCertificate | None:
    """Minimal-length induced odd cycle of length >= min_len, or None.

    Twin-reduced first (no induced cycle of length >= 5 uses two twins), and
    the max_vertices cap applies to that reduced core; then a DFS over
    canonical induced paths, branch-and-bound on cycle length so the
    returned certificate has minimal length.
    """
    if min_len < 5 or min_len % 2 == 0:
        raise ValueError("min_len must be odd and at least 5")
    keep = _all_twin_reduce(g)
    check_cap(len(keep), max_vertices)
    cycle = _min_odd_hole_core(induced_subgraph(g, keep).adj, min_len)
    return None if cycle is None else OddCycleCertificate(
        where="graph", cycle=tuple(keep[v] for v in cycle))


def _min_odd_hole_core(adj: list[int], min_len: int) -> list[int] | None:
    n = len(adj)
    if n < min_len:
        return None
    best: list[int] | None = None
    best_len = n + 1
    for s in range(n):
        adj_s = adj[s]
        # path = [s, v1, ..., tail]; avail holds vertices > s, unused, and
        # non-adjacent to every interior vertex (path[1:-1]); cand holds the
        # extensions of path still to try, and tail_mask is what the tail
        # forbids once it becomes interior (nothing for s itself)
        path = [s]
        avail = ((1 << n) - 1) & (-1 << (s + 1))
        cand = avail & adj_s
        tail_mask = -1
        stack: list[tuple[int, int, int]] = []  # (avail, cand, tail_mask) above
        while True:
            if not cand:
                if not stack:
                    break
                avail, cand, tail_mask = stack.pop()
                path.pop()
                continue
            low = cand & -cand
            cand ^= low
            child_avail = avail & ~low & tail_mask
            depth = len(path) + 1
            # a cycle through the extended path still needs a closer adjacent
            # to s and enough vertices, and must be shorter than the best
            if (depth + 1 >= best_len or not child_avail & adj_s
                    or depth + 1 + child_avail.bit_count() < min_len):
                continue
            w = low.bit_length() - 1
            path.append(w)
            adj_w = adj[w]
            if depth + 1 >= min_len and depth % 2 == 0:
                # one orientation per cycle: closer must exceed path[1]
                closers = child_avail & adj_w & adj_s & (-1 << (path[1] + 1))
                if closers:
                    best = path + [(closers & -closers).bit_length() - 1]
                    best_len = depth + 1
                    if best_len == min_len:
                        return best
            stack.append((avail, cand, tail_mask))
            # later vertices are non-consecutive with s, so must avoid N(s);
            # once w becomes interior its neighbors are off limits too
            avail = child_avail
            cand = child_avail & adj_w & ~adj_s
            tail_mask = ~adj_w
    return best


def is_perfect_desk_scale(order: ValidatedOrder) -> bool:
    """Perfection of the ring-backed graph order.graph, certified by order,
    the validated principal-ideal order of its false-twin core: validation
    returns it or raises, so this is True.  Substituting an independent set
    for a vertex keeps a graph perfect (Lovász), so the core is perfect iff
    order.graph is.
    """
    return True


# ---------------------------------------------------------------------------
# small-graph isomorphism, off the report path: the tests' reference for the
# quotient bijection that verify constructs from supports
# ---------------------------------------------------------------------------

def are_isomorphic(g: CozeroGraph, h: CozeroGraph,
                   max_vertices: int = ISO_VERTEX_CAP) -> list[int] | None:
    """A vertex bijection g -> h preserving adjacency both ways, or None.

    Backtracking over candidates compatible under iterated degree refinement.
    """
    check_cap(g.n, max_vertices)
    check_cap(h.n, max_vertices)
    if g.n != h.n or g.edge_count() != h.edge_count():
        return None
    n = g.n
    gcol = _refine_colors(g.adj, n)
    hcol = _refine_colors(h.adj, n)
    if sorted(gcol) != sorted(hcol):
        return None

    mapping = [-1] * n
    used = 0
    order = sorted(range(n), key=lambda v: (gcol.count(gcol[v]), v))

    def place(pos: int) -> bool:
        nonlocal used
        if pos == n:
            return True
        u = order[pos]
        for v in range(n):
            if used >> v & 1 or hcol[v] != gcol[u] or any(
                    g.has_edge(u, w) != h.has_edge(mapping[w], v) for w in order[:pos]):
                continue
            mapping[u] = v
            used |= 1 << v
            if place(pos + 1):
                return True
            used &= ~(1 << v)
            mapping[u] = -1
        return False

    return mapping if place(0) else None


def _refine_colors(adj: list[int], n: int) -> list[int]:
    """1-dimensional Weisfeiler-Leman color refinement to a fixed point."""
    colors = [adj[v].bit_count() for v in range(n)]
    for _ in range(n):
        sigs = [(colors[v], tuple(sorted(colors[w] for w in bits(adj[v])))) for v in range(n)]
        canon = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [canon[sig] for sig in sigs]
        if new == colors:
            break
        colors = new
    return colors
