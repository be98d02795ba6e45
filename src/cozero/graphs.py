"""The cozero-divisor graph of a finite ring, with bitset adjacency rows.

Vertices are indices into a lex-sorted label list of ring elements; each
adjacency row is a Python int used as a bitset.  Graphs are immutable after
construction.
"""
from __future__ import annotations

import json
import math
import operator

from .rings import (
    CapExceededError,
    DEFAULT_MAX_CARDINALITY,
    Element,
    RingSpec,
    divisors,
    signature_codes,
    tabled,
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


def transpose(rows) -> list[int]:
    """The transpose of a square bit matrix, bit j of row i its entry (i, j),
    by Eklundh's block swaps on whole rows: in the pass of width w, row a
    (a & w clear) trades the high half of each 2w-bit block for row a + w's low."""
    size = 1 << (len(rows) - 1).bit_length()
    t = [*rows] + [0] * (size - len(rows))
    for w in (1 << k for k in range(size.bit_length() - 1)):
        low = ((1 << size) - 1) // ((1 << 2 * w) - 1) * ((1 << w) - 1)
        for a in (a for a in range(size) if not a & w):
            swap = (t[a] >> w ^ t[a + w]) & low
            t[a], t[a + w] = t[a] ^ swap << w, t[a + w] ^ swap
    return t[:len(rows)]


def build_cozero_graph(spec: RingSpec, max_cardinality: int = DEFAULT_MAX_CARDINALITY,
                       tables: dict | None = None) -> CozeroGraph:
    """The graph on the non-zero non-units, a-b an edge iff a not in Rb and b not in Ra.

    Rb is inside Ra iff gcd(a_i, n_i) divides gcd(b_i, n_i) for every i, so a
    row is an AND of per-factor masks, and the signatures (rings.signature_codes)
    that share a prefix share its partial AND, grown one factor at a time.
    """
    if spec.cardinality > max_cardinality:
        raise CapExceededError(
            f"|{spec}| = {spec.cardinality} exceeds cardinality cap {max_cardinality}")
    tables = {} if tables is None else tables
    labels, codes = signature_codes(spec, tables)
    divs = [tabled(tables, (n, "divisors"), divisors, n)  # no vertex, no factor read
            for n in spec.moduli] if codes else []
    level = [0] * math.prod(map(len, divs))  # code -> its labels
    for i, code in enumerate(codes):
        level[code] |= 1 << i
    folds = []  # [i][d]: labels whose i-th gcd is a multiple, and a divisor, of divs[i][d]
    for ds in reversed(divs):  # the last factor is the least significant digit
        # each label has one gcd here, so the masks are disjoint and sum is union
        col = [sum(level[e::len(ds)]) for e in range(len(ds))]
        level = [sum(level[b:b + len(ds)]) for b in range(0, len(level), len(ds))]
        folds.insert(0, [(sum(m for e, m in zip(ds, col) if e % d == 0),
                          sum(m for e, m in zip(ds, col) if d % e == 0)) for d in ds])
    full = (1 << len(labels)) - 1
    # per code prefix, the labels whose ideal lies inside, and contains, Rs on it;
    # the last two factors fold into the rows: no list of their length is held
    down_up = [(full, full)]
    *head, last2, last = [[(full, full)]] * (2 - len(folds)) + folds  # identity-padded to two
    for fold in head:
        down_up = [(p & q, u & w) for p, u in down_up for q, w in fold]
    rows = [full & ~(pq & q2 | uw & w2) for p, u in down_up for q, w in last2
            for pq, uw in ((p & q, u & w),) for q2, w2 in last]
    return CozeroGraph(spec=spec, labels=tuple(labels), adj=tuple(map(rows.__getitem__, codes)))


def ideal_order(g: CozeroGraph, tables: dict | None = None) -> tuple[int, ...]:
    """The rank of the principal-ideal order on a ring-backed graph's labels
    (u->v iff Ru is strictly inside Rv, or Ru = Rv and u < v) that
    solvers.validate_orientation checks: rank[u] = |Ru| = prod n_i /
    gcd(a_i, n_i).  Comparable ideals of one size are equal, so the arcs
    are the complement edges taken up the (rank, index) order."""
    if g.spec is None:
        raise ValueError("orientation needs a ring-backed graph")
    tables = {} if tables is None else tables
    sizes = [tabled(tables, (m, "ranks"), lambda: [m // math.gcd(x, m) for x in range(m)])
             for m in g.spec.moduli]
    return tuple(math.prod(map(list.__getitem__, sizes, a)) for a in g.labels)


def complement(g: CozeroGraph) -> CozeroGraph:
    full = (1 << g.n) - 1
    rows = tuple((full & ~g.adj[i]) & ~(1 << i) for i in range(g.n))
    return CozeroGraph(spec=g.spec, labels=g.labels, adj=rows)


def gather(rows, cols, n: int) -> tuple[int, ...]:
    """Each of rows, bit t its bit cols[t], read from row & full in n + 1 binary
    digits: character n - j is bit j, and the leading '0' keeps a gather a tuple."""
    get = operator.itemgetter(0, *(n - col for col in reversed(cols)))
    full, width = (1 << n) - 1, f"0{n + 1}b"
    return tuple(int("".join(get(format(row & full, width))), 2) for row in rows)


def induced_subgraph(g: CozeroGraph, keep) -> CozeroGraph:
    """g on keep, ascending, each kept row gathered from the kept columns."""
    keep = sorted(keep)
    if keep == list(range(g.n)):
        return g
    return CozeroGraph(spec=g.spec, labels=tuple(g.labels[old] for old in keep),
                       adj=gather(map(g.adj.__getitem__, keep), keep, g.n))


def quotient_by_associates(g: CozeroGraph) -> CozeroGraph:
    """Collapse each associate class (one signature code of the ring's vertices,
    as Ra = Rb) to its first vertex, in vertex order: what `cozero export
    --quotient` writes of the ring's graph.

    Each class is checked, on whole rows, to share its first vertex's row
    and to miss it, so the reduction re-proves on every instance that the
    members are false twins, whose deletion keeps omega and chi.
    """
    if g.spec is None:
        raise ValueError("quotient needs a ring-backed graph")
    classes = positions(signature_codes(g.spec)[1]).values()
    reps = tuple((m & -m).bit_length() - 1 for m in classes)
    same_row = positions(g.adj)
    for members, rep in zip(classes, reps):
        if wrong := members & (g.adj[rep] | ~same_row[g.adj[rep]]):
            raise AssertionError(f"associates {bits(wrong)[0]}, {rep} are "
                                 f"adjacent or have different rows")
    return induced_subgraph(g, reps)


def _label_str(label: Element) -> str:
    return "(" + ",".join(str(r) for r in label) + ")"


def to_dot(g: CozeroGraph) -> str:
    lines = ["graph cozero {"]
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
