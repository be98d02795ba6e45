"""The benchmark's tracer (perfbench/tracer.py, imported as it is) still
installs on the package: every function it pins by name exists, the
traced output is the untraced one, its spans nest, and uninstall puts every
binding back."""
import contextlib
import importlib
import io
from pathlib import Path

from cozero import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
ARGV = ["verify", "--rings", "Z2xZ3,Z2xZ2xZ2,Z4"]


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_traced_verify_matches_untraced_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    namespaces = [vars(importlib.import_module(m)) for m in tracer.MODULES]
    namespaces.append(importlib.import_module("cozero.verify").CLAIMS)
    before = [dict(ns) for ns in namespaces]
    untraced = run(ARGV)
    t = tracer.Tracer()
    t.install()
    try:
        traced = run(ARGV)
    finally:
        t.uninstall()
    assert traced == untraced and untraced[0] == 0
    assert t.spans and tracer.nesting_violations(t.spans) == 0
    assert {s.name for s in t.spans} >= {"verify.run_suite", "graphs.build_cozero_graph"}
    for ns, saved in zip(namespaces, before):
        assert ns.keys() == saved.keys()
        assert all(ns[k] is saved[k] for k in saved)
