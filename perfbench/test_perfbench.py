"""Tests of the benchmark itself: tracing is transparent, spans nest,
output checks count failures, and a run without sources fails.

    python3 -m pytest perfbench

The last test runs the whole default suite traced (about 90 s on 2 cores).
"""
from __future__ import annotations

import hashlib
import importlib
import json
import shutil
import subprocess
import sys

import run
import tracer as tracing
import worker
import workloads

SMALL = ["verify", "--rings", "Z2xZ2xZ2,Z4,Z2xZ3,Z2xZ2xZ2xZ2,Z3xZ3,Z8"]


def _bindings():
    worker.setup("verify-twinfree", 0)
    spaces = [vars(importlib.import_module(m)) for m in tracing.MODULES]
    spaces.append(importlib.import_module("cozero.verify").CLAIMS)
    return {(i, k): id(v) for i, ns in enumerate(spaces) for k, v in ns.items()}


def test_tracer_wraps_copied_bindings_and_restores_them():
    before = _bindings()
    from cozero import graphs, rings, solvers, verify
    originals = (graphs.vertices, graphs.in_principal_ideal, solvers.complement,
                 verify.CLAIMS["perfection"])
    with tracing.Tracer():
        assert graphs.vertices is not originals[0]
        assert graphs.vertices is rings.vertices
        assert graphs.in_principal_ideal is rings.in_principal_ideal
        assert solvers.complement is graphs.complement
        assert solvers.complement is not originals[2]
        assert verify.CLAIMS["perfection"] is not originals[3]
    assert _bindings() == before


def test_traced_output_is_identical_and_spans_nest():
    main, _ = worker.setup("verify-twinfree", 0)
    code, plain, _, _ = worker.call(main, SMALL, None)
    t = tracing.Tracer()
    with t:
        traced_code, traced, _, _ = worker.call(main, SMALL, t)
    assert (code, plain) == (traced_code, traced)
    names = {s.name for s in t.spans}
    assert {"cli.main", "verify.run_suite", "verify.perfection",
            "graphs.build_cozero_graph", "solvers.find_odd_hole",
            "graphs.complement"} <= names
    assert t.counts["rings.in_principal_ideal"] > 0
    assert tracing.nesting_violations(t.spans) == 0
    for s in t.spans:
        if s.parent >= 0:
            parent = t.spans[s.parent]
            assert s.end - s.start <= parent.end - parent.start
    assert all(own >= -1e-9 for own in tracing.self_times(t.spans))
    assert t.spans[0].name == "cli.main" and t.spans[0].parent == -1


def test_nesting_violations_are_counted():
    a = tracing.Span("parent", 1.0, -1)
    a.end = 2.0
    b = tracing.Span("child", 1.5, 0)
    b.end = 2.5
    assert tracing.nesting_violations([a, b]) == 1


def test_seed_only_permutes_rings():
    def tokens(argv):
        return sorted(t for arg in argv for t in arg.split(","))

    for name in workloads.DECLARED:
        a, b = workloads.argv(name, 1), workloads.argv(name, 2)
        assert a == workloads.argv(name, 1) and a != b
        assert tokens(a) == tokens(b)
    assert workloads.argv("verify-default", 7) == ["verify"]


def test_check_counts_wrong_items_and_never_raises():
    expected = workloads.load_expected()
    main, argv = worker.setup("verify-twinfree", 3)
    code, output, _, _ = worker.call(main, argv, None)
    ok = workloads.check("verify-twinfree", expected, code, output)
    assert ok["failed"] == 0 and ok["attempted"] == 20
    assert ok["sha256"] == expected["verify-twinfree"]["sha256"]
    assert (ok["reports"], ok["skipped"]) == (20, 8)

    items = json.loads(output)
    items[0]["pass"] = not items[0]["pass"]
    del items[5]
    bad = workloads.check("verify-twinfree", expected, 0, json.dumps(items))
    assert bad["failed"] == 2
    assert workloads.check("verify-twinfree", expected, 1, output)["failed"] == 20
    assert workloads.check("verify-twinfree", expected, 0, "not json")["failed"] == 20
    assert workloads.check("analyze-classes", expected, 0, "[1, 2]")["failed"] == 7


def test_check_accepts_another_valid_witness():
    expected = workloads.load_expected()
    main, argv = worker.setup("verify-twinfree", 3)
    code, output, _, _ = worker.call(main, argv, None)
    items = json.loads(output)
    clique = next(r for r in items if r["witness"] and "clique" in r["witness"])
    # the same size, other vertices, another order: still a correct answer
    clique["witness"]["clique"] = [v + 1 for v in reversed(clique["witness"]["clique"])]
    other = json.dumps(items)
    assert other != output
    assert workloads.check("verify-twinfree", expected, 0, other)["failed"] == 0

    clique["witness"]["clique"].pop()  # one vertex short
    assert workloads.check("verify-twinfree", expected, 0, json.dumps(items))["failed"] == 1
    clique["witness"]["clique"].append(clique["witness"]["clique"][0])  # repeats one
    assert workloads.check("verify-twinfree", expected, 0, json.dumps(items))["failed"] == 1


def test_witness_ok():
    assert workloads.witness_ok({"witness": {"bijection": [2, 0, 1]}})
    assert not workloads.witness_ok({"witness": {"bijection": [2, 0, 3]}})
    assert workloads.witness_ok({"witness": {"where": "graph", "cycle": [4, 1, 7, 2, 9]}})
    assert not workloads.witness_ok({"witness": {"clique": [1, 1]}})
    assert workloads.witness_ok({"witness": None})


def test_timeout_counts_the_cut_call_as_failed(monkeypatch):
    monkeypatch.setattr(run, "RUN_LIMIT_S", 1.0)
    out = run.summarize("analyze-classes", seed=0, seconds=1, trace=0)
    assert out["context"]["cut_short"]
    assert out["result"]["correct"] is False
    assert out["result"]["failed"] == out["result"]["attempted"] == 7


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-twinfree",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_default_suite_matches_untraced_hash():
    main, argv = worker.setup("verify-default", 0)
    with tracing.Tracer() as t:
        code, output, _, _ = worker.call(main, argv, t)
    assert code == 0
    digest = hashlib.sha256(output.encode()).hexdigest()
    assert digest == workloads.load_expected()["verify-default"]["sha256"]
    assert tracing.nesting_violations(t.spans) == 0
