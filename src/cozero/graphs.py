"""The cozero-divisor graph of a finite ring, with bitset adjacency rows.

Vertices are indices into a lex-sorted label list of ring elements; each
adjacency row is a Python int used as a bitset.  Graphs are immutable after
construction.
"""
from __future__ import annotations

import itertools
import json
import math

from .rings import (
    CapExceededError,
    DEFAULT_MAX_CARDINALITY,
    Element,
    RingSpec,
    factorize,
    vertices,
)


class CozeroGraph:
    """A graph on labels, immutable; equal only to itself."""
    __slots__ = ("spec", "labels", "adj")

    def __init__(self, spec: RingSpec | None, labels: tuple[Element, ...],
                 adj: tuple[int, ...]):  # adj[i] bit j set iff i-j is an edge
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "adj", adj)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a CozeroGraph is immutable")

    @property
    def n(self) -> int:
        return len(self.labels)

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adj[i] >> j & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in range(i + 1, self.n)
                if self.adj[i] >> j & 1]

    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.adj)) // 2


def bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def positions(keys) -> dict:
    """Each distinct key -> the bitset of the positions that hold it."""
    masks: dict = {}
    for i, key in enumerate(keys):
        masks[key] = masks.get(key, 0) | 1 << i
    return masks


def _gcd_signatures(spec: RingSpec, labels) -> list[tuple[int, ...]]:
    """Each label's gcd signature (gcd(a_i, n_i) for each i): Ra = R*signature."""
    # the i-th gcds are read column by column from a table of Z_{n_i}
    gcds = [[math.gcd(x, m) for x in range(m)] for m in spec.moduli]
    return list(zip(*(map(t.__getitem__, col) for t, col in zip(gcds, zip(*labels)))))


def build_cozero_graph(spec: RingSpec,
                       max_cardinality: int = DEFAULT_MAX_CARDINALITY) -> CozeroGraph:
    """The graph on the non-zero non-units, a-b an edge iff a not in Rb and b not in Ra.

    Rb is inside Ra iff gcd(a_i, n_i) divides gcd(b_i, n_i) for every i, so a
    row depends only on the gcd signature, and is read off per-factor masks.
    """
    if spec.cardinality > max_cardinality:
        raise CapExceededError(
            f"|{spec}| = {spec.cardinality} exceeds cardinality cap {max_cardinality}")
    labels = vertices(spec)
    sigs = _gcd_signatures(spec, labels)
    members = positions(sigs)
    below, above = [], []  # [i][d]: labels whose i-th gcd is a multiple / divisor of d
    for i in range(len(spec.moduli)):
        col: dict[int, int] = {}
        for sig, mask in members.items():
            col[sig[i]] = col.get(sig[i], 0) | mask
        # each label has one i-th gcd, so the masks are disjoint and sum is union
        below.append({d: sum(m for e, m in col.items() if e % d == 0) for d in col})
        above.append({d: sum(m for e, m in col.items() if d % e == 0) for d in col})
    full = (1 << len(labels)) - 1
    rows = {}
    for sig in members:
        # the labels whose ideal lies inside or contains Rs
        down = up = full
        for i, d in enumerate(sig):
            down &= below[i][d]
            up &= above[i][d]
        rows[sig] = full & ~(down | up)
    return CozeroGraph(spec=spec, labels=tuple(labels), adj=tuple(rows[s] for s in sigs))


def ideal_order(g: CozeroGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The certificate of the principal-ideal order on a ring-backed graph's
    labels, u->v iff Ru is strictly inside Rv, or Ru = Rv and u < v, that
    solvers.validate_orientation checks: (rank, covers), rank[u] = |Ru|.
    Comparable ideals of one size are equal, so the arcs are the complement
    edges taken up the (rank, index) order, and the validator derives them
    from the adjacency.  The next vertex of u's signature covers u; the last
    one is covered by the first vertex of each present signature one prime
    step d -> d/p up, the steps passing through absent ones, so cores,
    quotients and induced subgraphs are served too.
    """
    if g.spec is None:
        raise ValueError("orientation needs a ring-backed graph")
    moduli = g.spec.moduli
    sigs = _gcd_signatures(g.spec, g.labels)
    members = positions(sigs)
    # every signature, present or not, by its index in the product of the
    # divisor lists: a prime step d -> d/p lowers one entry's index, so it
    # lowers the signature's by a drop, and the signature reached comes first
    divs = [[d for d in range(1, m + 1) if m % d == 0] for m in moduli]
    lens = list(map(len, divs))
    drops = [[[(j - ds.index(d // p)) * math.prod(lens[i + 1:]) for p, _ in factorize(d)]
              for j, d in enumerate(ds)] for i, ds in enumerate(divs)]
    sizes = map(math.prod, itertools.product(*([m // d for d in ds]
                                               for m, ds in zip(moduli, divs))))
    # by index: the signature's first vertex or, if it has none, its covers
    reach = []
    at = {}  # present signature -> (covers of its last vertex, |Rs|)
    for c, (t, digits, size) in enumerate(zip(
            itertools.product(*divs), itertools.product(*map(range, lens)), sizes)):
        f = 0
        for drop, j in zip(drops, digits):
            for d in drop[j]:
                f |= reach[c - d]
        here = members.get(t, 0)
        reach.append(here & -here or f)
        if here:
            at[t] = f, size
    rank, covers = [], []
    for u, s in enumerate(sigs):
        f, size = at[s]
        later = members[s] & (-1 << (u + 1))
        rank.append(size)
        covers.append(later & -later or f)
    return tuple(rank), tuple(covers)


def complement(g: CozeroGraph) -> CozeroGraph:
    full = (1 << g.n) - 1
    rows = tuple((full & ~g.adj[i]) & ~(1 << i) for i in range(g.n))
    return CozeroGraph(spec=g.spec, labels=g.labels, adj=rows)


def induced_subgraph(g: CozeroGraph, keep) -> CozeroGraph:
    keep = sorted(keep)
    if keep == list(range(g.n)):
        return g
    rows = []
    for old in keep:
        row = g.adj[old]
        rows.append(sum(1 << new for new, col in enumerate(keep) if row >> col & 1))
    return CozeroGraph(spec=g.spec,
                       labels=tuple(g.labels[old] for old in keep),
                       adj=tuple(rows))


def nzc_partition(g: CozeroGraph) -> list[list[int]]:
    """Vertex-index sets A_1..A_{n-1} grouped by zero-component count.

    Only meaningful over a product of prime fields; same-part vertices with
    distinct zero patterns are always adjacent, so over Z2 factors (where
    equal count forces distinct patterns) each part induces a complete
    subgraph.  A label with no zero or no non-zero component is no vertex,
    and is left out of every part.
    """
    spec = g.spec
    if spec is None or spec.fields is None:
        raise ValueError("zero-count partition requires a product of fields")
    if len(spec.fields) != len(spec.moduli):
        raise ValueError("zero-count partition requires prime moduli (CRT-split spec)")
    n = len(spec.moduli)
    parts: list[list[int]] = [[] for _ in range(n - 1)]
    for i, label in enumerate(g.labels):
        if 0 < (k := label.count(0)) < n:
            parts[k - 1].append(i)
    return parts


def quotient_by_associates(g: CozeroGraph) -> CozeroGraph:
    """Collapse each associate class (one gcd signature, as Ra = Rb) to its
    first vertex, in vertex order: what `cozero export --quotient` writes.

    Each class is checked, on whole rows, to share its first vertex's row
    and to miss it, so the reduction re-proves on every instance that the
    members are false twins, whose deletion keeps omega and chi.
    """
    if g.spec is None:
        raise ValueError("quotient needs a ring-backed graph")
    classes = positions(_gcd_signatures(g.spec, g.labels)).values()
    reps = tuple((m & -m).bit_length() - 1 for m in classes)
    same_row = positions(g.adj)
    for members, rep in zip(classes, reps):
        if wrong := members & (g.adj[rep] | ~same_row[g.adj[rep]]):
            raise AssertionError(f"associates {bits(wrong)[0]}, {rep} are "
                                 f"adjacent or have different rows")
    return induced_subgraph(g, reps)


def _label_str(label: Element) -> str:
    return "(" + ",".join(str(r) for r in label) + ")"


def to_dot(g: CozeroGraph, name: str = "cozero") -> str:
    lines = [f"graph {name} {{"]
    for i, label in enumerate(g.labels):
        lines.append(f'  {i} [label="{_label_str(label)}"];')
    for i, j in g.edges():
        lines.append(f"  {i} -- {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(g: CozeroGraph) -> dict:
    return {
        "spec": str(g.spec) if g.spec is not None else None,
        "labels": [list(label) for label in g.labels],
        "edges": [list(e) for e in g.edges()],
    }


def to_json(g: CozeroGraph) -> str:
    return json.dumps(to_json_dict(g), indent=2, sort_keys=True) + "\n"
