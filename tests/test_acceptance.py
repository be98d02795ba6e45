"""Acceptance suite: every criterion is exact-value or property-based and
prints one pass/fail line (run with `pytest tests/test_acceptance.py -s`)."""
import hashlib
import itertools
import json
import math
import random
import time

import pytest

from cozero.graphs import (
    CozeroGraph,
    build_cozero_graph,
    quotient_by_associates,
)
from cozero.rings import (
    RingSpec,
    associate_classes,
    in_principal_ideal,
)
from cozero.solvers import (
    are_isomorphic,
    chromatic_number,
    is_perfect_desk_scale,
    max_clique,
)
from cozero import cli, solvers, verify
from conftest import (
    brute_force_chromatic,
    brute_force_clique,
    chromatic_by_search,
    cycle_graph,
    ideal_by_enumeration,
    nzc_partition,
    ordered,
    random_graph,
    random_ring_subgraph,
    vnr_by_search,
)

BOOLEAN_POWERS = [RingSpec((2,) * n) for n in range(2, 6)]
MIXED_FIELDS = [
    (RingSpec((2, 3)), 2, None),
    (RingSpec((2, 3, 5)), 3, 21),
    (RingSpec((3, 5, 7)), 3, 56),
    (RingSpec((2, 3, 5, 7)), 6, None),
]
VNR_SUITE = BOOLEAN_POWERS + [spec for spec, _, _ in MIXED_FIELDS] + [
    RingSpec((3, 3)), RingSpec((6,)), RingSpec((3, 5)), RingSpec((2, 2, 3)),
]


def report(line):
    print(f"[acceptance] {line}")


def test_criterion_1_formula_boolean_powers():
    expected = {2: 2, 3: 3, 4: 6, 5: 10}
    for spec in BOOLEAN_POWERS:
        n = len(spec.moduli)
        start = time.perf_counter()
        g = build_cozero_graph(spec)
        omega = max_clique(g).size
        chi = chromatic_number(ordered(g)).count
        elapsed = time.perf_counter() - start
        assert omega == chi == expected[n], f"{spec}: omega={omega} chi={chi}"
        assert elapsed < 10, f"{spec} took {elapsed:.1f}s"
    report("criterion 1 (formula on Z2^n, n=2..5): PASS")


def test_criterion_2_formula_mixed_fields():
    for spec, expected, vertex_count in MIXED_FIELDS:
        start = time.perf_counter()
        g = build_cozero_graph(spec)
        if vertex_count is not None:
            assert g.n == vertex_count
        omega = max_clique(g).size
        chi = chromatic_number(ordered(g)).count
        elapsed = time.perf_counter() - start
        assert omega == chi == expected, f"{spec}: omega={omega} chi={chi}"
        assert elapsed < 60, f"{spec} took {elapsed:.1f}s"
    report("criterion 2 (formula on mixed field products): PASS")


def test_criterion_3_perfection():
    for spec in BOOLEAN_POWERS + [s for s, _, _ in MIXED_FIELDS]:
        assert is_perfect_desk_scale(ordered(build_cozero_graph(spec))) is True, spec
    # negative controls: C5 is no ring graph, and C5 rows under a ring's
    # labels admit no transitive orientation; neither may pass as perfect
    c5 = cycle_graph(5)
    with pytest.raises(ValueError):
        is_perfect_desk_scale(ordered(c5))
    g = build_cozero_graph(RingSpec((2, 2, 2)))
    wrong = CozeroGraph(spec=g.spec, labels=g.labels, adj=c5.adj + (0,))
    with pytest.raises(AssertionError, match="orientation"):
        is_perfect_desk_scale(ordered(wrong))
    report("criterion 3 (perfection + C5 negative controls): PASS")


def test_criterion_4_reduction():
    for spec in VNR_SUITE:
        g = build_cozero_graph(spec)
        q = quotient_by_associates(g)
        assert max_clique(q).size == max_clique(g).size
        assert chromatic_number(ordered(q)).count == chromatic_number(ordered(g)).count
        n = len(spec.fields)
        boolean = build_cozero_graph(RingSpec((2,) * n))
        bij = are_isomorphic(q, boolean)
        assert bij is not None, f"{spec}: quotient not iso to Z2^{n} graph"
        for i, j in itertools.combinations(range(q.n), 2):
            assert q.has_edge(i, j) == boolean.has_edge(bij[i], bij[j])
    q33 = quotient_by_associates(build_cozero_graph(RingSpec((3, 3))))
    assert q33.n == 2 and q33.edge_count() == 1
    report("criterion 4 (associate-quotient reduction): PASS")


def local_and_principal_by_search(spec):
    """Whether the non-units are closed under addition, and whether one of
    them generates them all, by the gcd membership test."""
    nonunits = [a for a in spec.elements()
                if any(math.gcd(x, n) != 1 for x, n in zip(a, spec.moduli))]
    closed = all(spec.add(a, b) in set(nonunits)
                 for a in nonunits for b in nonunits)
    principal = any(all(in_principal_ideal(spec, y, x) for y in nonunits)
                    for x in nonunits)
    return closed, principal


def test_criterion_5_null_graph():
    local_null = [RingSpec((m,)) for m in (4, 8, 9, 25, 27)]
    non_local = [RingSpec((2, 2)), RingSpec((2, 4))]

    for spec in local_null:
        g = build_cozero_graph(spec)
        assert g.edge_count() == 0, f"{spec} has edges"
        assert all(local_and_principal_by_search(spec))
    for spec in non_local:
        g = build_cozero_graph(spec)
        assert g.edge_count() >= 1
        assert not all(local_and_principal_by_search(spec))
    for spec in local_null + non_local:
        g = build_cozero_graph(spec)
        assert (g.edge_count() == 0) == all(local_and_principal_by_search(spec))
    report("criterion 5 (null graph iff local with principal max ideal): PASS")


def test_criterion_5_null_graph_oracle():
    checked = principal_rings = 0
    for spec in verify.default_ring_set():
        if spec.cardinality > 64:
            continue
        r = verify.check_null_graph(verify.Case(spec))
        if r.skipped:
            assert r.reason == "is-domain"
            continue
        local, principal = local_and_principal_by_search(spec)
        assert f"local={local} principal-max-ideal={principal}" in r.observed
        checked += 1
        principal_rings += principal
    assert checked >= 30 and principal_rings >= 5
    report(f"criterion 5 (null-graph locality and principality vs search "
           f"on {checked} rings): PASS")


def test_criterion_6_oracle_equivalence():
    suite = [s for s in verify.default_ring_set() if s.cardinality <= 200]
    assert suite
    mismatches = 0
    for spec in suite:
        g = build_cozero_graph(spec)
        elems = list(spec.elements())
        ideals = {b: ideal_by_enumeration(spec, b) for b in elems}
        # (a) definitional adjacency vs ideal-containment adjacency
        for i, j in itertools.combinations(range(g.n), 2):
            a, b = g.labels[i], g.labels[j]
            containment = (not ideals[a].issubset(ideals[b])
                           and not ideals[b].issubset(ideals[a]))
            if g.has_edge(i, j) != containment:
                mismatches += 1
        # (b) gcd fast path vs exhaustive multiples
        for a in elems:
            for b in elems:
                if in_principal_ideal(spec, a, b) != (a in ideals[b]):
                    mismatches += 1
        # (c) squarefree criterion vs regularity search
        if (spec.fields is not None) != vnr_by_search(spec):
            mismatches += 1
    assert mismatches == 0
    report(f"criterion 6 (oracle equivalence on {len(suite)} rings): PASS")


def test_criterion_7_solver_exactness():
    rng = random.Random(20240817)
    for _ in range(100):
        g = random_graph(rng.randint(1, 20), 0.5, rng)
        assert max_clique(g).size == brute_force_clique(g)
    rng = random.Random(20240818)
    for _ in range(100):
        g = random_graph(rng.randint(1, 12), 0.5, rng)
        assert chromatic_by_search(g)[0] == brute_force_chromatic(g)
    # chromatic_number takes ring-backed graphs: random induced subgraphs of
    # the small rings' graphs
    for _ in range(100):
        g = random_ring_subgraph(rng)
        assert chromatic_number(ordered(g)).count == brute_force_chromatic(g)
    report("criterion 7 (solvers vs brute force, 100+100+100 random graphs): PASS")


def test_criterion_8_associates_and_zero_counts():
    for spec in VNR_SUITE:
        g = build_cozero_graph(spec)
        label_index = {lab: i for i, lab in enumerate(g.labels)}
        for _, members in associate_classes(spec).classes:
            idx = [label_index[m] for m in members]
            for a, b in itertools.combinations(idx, 2):
                assert not g.has_edge(a, b)
                assert g.adj[a] & ~(1 << b) == g.adj[b] & ~(1 << a)
        if not all(m in (2, 3, 5, 7) for m in spec.moduli):
            continue  # zero-count partition needs a split product of fields
        parts = nzc_partition(g)
        assert sorted(v for p in parts for v in p) == list(range(g.n))
        for part in parts:
            for a, b in itertools.combinations(part, 2):
                distinct_patterns = tuple(r == 0 for r in g.labels[a]) != \
                    tuple(r == 0 for r in g.labels[b])
                assert g.has_edge(a, b) == distinct_patterns
    for spec in BOOLEAN_POWERS:
        n = len(spec.moduli)
        parts = nzc_partition(build_cozero_graph(spec))
        assert [len(p) for p in parts] == [math.comb(n, i) for i in range(1, n)]
    report("criterion 8 (associate twins + zero-count cliques): PASS")


def test_criterion_9_verify_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "run1.json", tmp_path / "run2.json"
    code1 = cli.main(["verify", "--out", str(out1)])
    code2 = cli.main(["verify", "--out", str(out2)])
    capsys.readouterr()
    assert code1 == 0 and code2 == 0
    bytes1, bytes2 = out1.read_bytes(), out2.read_bytes()
    assert bytes1 == bytes2
    # the byte contract: the Baseline's report, except that each
    # clique-formula witness is the chain cover's antichain (next test)
    assert hashlib.sha256(bytes1).hexdigest() == (
        "2e266f463c4d3b323e62d4ff592e426dee6c53d524f675ab94d3a5dd3ce996f8")
    reports = json.loads(bytes1)
    assert reports and not any(
        not r["pass"] and not r["skipped"] for r in reports)
    report(f"criterion 9 (default verify deterministic, {len(reports)} "
           f"reports, exit 0 twice): PASS")


def test_criterion_9_only_clique_witnesses_moved(tmp_path, capsys, monkeypatch):
    """With max_clique's witness in place of the antichain, the default
    report is the Baseline's, byte for byte; the antichain moves only the
    witnesses of 60 clique-formula reports."""
    ours, theirs = tmp_path / "antichain.json", tmp_path / "search.json"
    assert cli.main(["verify", "--out", str(ours)]) == 0
    coloring = solvers.chromatic_number

    def searched(order):
        result = coloring(order)
        witness = max_clique(order.graph).witness
        assert len(witness) == len(result.clique)
        return result._replace(clique=witness)

    monkeypatch.setattr(solvers, "chromatic_number", searched)
    assert cli.main(["verify", "--out", str(theirs)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(theirs.read_bytes()).hexdigest() == (
        "2aad37672c68ec967f19c49bc754d623ab2f8d5bcdd067d02d4e27e29bb6289e")
    moved = [(a, b) for a, b in zip(json.loads(ours.read_bytes()),
                                    json.loads(theirs.read_bytes())) if a != b]
    assert len(moved) == 60
    for a, b in moved:
        assert a["claim_id"] == "clique-formula"
        assert {k for k in a if a[k] != b[k]} == {"witness"}
    report("criterion 9 (the antichain moves only 60 clique-formula "
           "witnesses): PASS")
