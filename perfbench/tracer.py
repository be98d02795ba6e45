"""Spans around calls into cozero's public functions, installed from outside
the package.

A function is wrapped wherever a caller can reach it: in its own module, in
every module that copied it with ``from .x import name``, and in the
``verify.CLAIMS`` dispatch table.  Bindings are found by identity, so a new
``from`` import in the package is picked up without editing this file.
Every binding is restored by ``uninstall``.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time

MODULES = ("cozero", "cozero.cli", "cozero.verify", "cozero.graphs",
           "cozero.rings", "cozero.solvers")

# (module, function) pairs that get a span; the span is named "<layer>.<function>"
SPANNED = (
    ("cozero.verify", "run_suite"),
    ("cozero.verify", "reports_to_json"),
    ("cozero.graphs", "build_cozero_graph"),
    ("cozero.graphs", "complement"),
    ("cozero.graphs", "quotient_by_associates"),
    ("cozero.graphs", "induced_subgraph"),
    ("cozero.rings", "vertices"),
    ("cozero.rings", "associate_classes"),
    ("cozero.rings", "principal_ideal"),
    ("cozero.solvers", "max_clique"),
    ("cozero.solvers", "chromatic_number"),
    ("cozero.solvers", "find_odd_hole"),
    ("cozero.solvers", "is_perfect_desk_scale"),
    ("cozero.solvers", "are_isomorphic"),
    ("cozero.solvers", "validate_clique"),
    ("cozero.solvers", "validate_coloring"),
    ("cozero.solvers", "validate_certificate"),
)

# called O(n^2) times per graph build: counted, never timed
COUNTED = (("cozero.rings", "in_principal_ideal"),)

# what a span keeps of its call, beyond its times; nothing else is kept, so
# graphs are not held alive by the trace
NOTES = {
    "graphs.build_cozero_graph": lambda args, graph: (str(args[0]), graph.n),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "note")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent  # index into Tracer.spans, -1 for a root span
        self.note = None


class Tracer:
    """Records one span per wrapped call, in memory, in start order."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[dict, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a block."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if note:
                self.spans[index].note = note(args, result)
            return result
        return traced

    def _counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        """Replace every binding of the traced functions with a wrapper."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(m) for m in MODULES]
        wrappers: dict[int, object] = {}
        for module_name, attr in SPANNED + COUNTED:
            fn = getattr(importlib.import_module(module_name), attr)
            name = f"{module_name.rsplit('.', 1)[1]}.{attr}"
            make = self._counted if (module_name, attr) in COUNTED else self._spanned
            wrappers[id(fn)] = make(name, fn)
        verify = importlib.import_module("cozero.verify")
        for claim_id, fn in verify.CLAIMS.items():
            wrappers[id(fn)] = self._spanned(f"verify.{claim_id}", fn)

        namespaces = [vars(m) for m in modules] + [verify.CLAIMS]
        for ns in namespaces:
            for key, value in list(ns.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((ns, key, value))
                    ns[key] = wrapper

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._restore):
            ns[key] = original
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls are single-threaded and nested, so children never overlap and
    their durations add up to the covered part of the parent."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def nesting_violations(spans: list[Span]) -> int:
    """Spans that start before or end after their parent (must be 0)."""
    bad = 0
    for s in spans:
        if s.end < s.start:
            bad += 1
        elif s.parent >= 0:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end:
                bad += 1
    return bad
