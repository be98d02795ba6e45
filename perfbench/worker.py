"""One benchmark run, in a fresh interpreter started by run.py.

Imports cozero from the checkout's ``src``, builds the workload's arguments
from the seed and writes ``ready``.  Then it calls ``cozero.cli.main`` as
long as another call as long as the last one still ends within
``--seconds`` (at least once), and writes one JSON line per call, so that
the calls finished before a timeout are kept.  With ``--trace 1`` the calls alternate between
untraced and traced, and traced calls carry per-layer numbers.

Every call is timed twice: in wall seconds, and in reference seconds.  On a
shared machine the speed of the CPU drifts by tens of percent over minutes.
So a signal handler times a fixed calibration loop twice a second, and each
stretch of the call between two loops is rescaled by the speed measured at
its ends.  Reference seconds are the seconds the call would take on a
machine where the loop takes CALIBRATION_REF_S.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

CLAIM_IDS = ("clique-formula", "graph-invariants", "null-graph", "perfection",
             "quotient-reduction")
SKIP_REASONS = ("cap-exceeded", "is-domain", "not-vnr", "too-few-factors")

CALIBRATION_ITERATIONS = 40_000
CALIBRATION_REF_S = 0.010  # about the loop's time on a 2.1 GHz Xeon vCPU
CALIBRATION_PERIOD_S = 0.5


def _calibration_loop() -> int:
    # the interpreter work cozero does: small-int arithmetic, gcd, shifts
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc ^= math.gcd(i, 2310) << (i & 63)
    return acc


def loop_seconds() -> float:
    """Seconds the calibration loop takes now."""
    start = time.perf_counter()
    _calibration_loop()
    return time.perf_counter() - start


class SpeedSampler:
    """Times the calibration loop on entry, on exit and every
    CALIBRATION_PERIOD_S in between (from a SIGALRM handler)."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []  # (start, seconds) per loop

    def _calibrate(self, *_):
        self.marks.append((time.perf_counter(), loop_seconds()))

    def __enter__(self) -> "SpeedSampler":
        self._calibrate()
        signal.signal(signal.SIGALRM, self._calibrate)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S,
                         CALIBRATION_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._calibrate()

    def reference_seconds(self) -> float:
        """Time outside the loops, each stretch between two loops rescaled
        by the mean loop time at its ends."""
        total = 0.0
        for (s0, d0), (s1, d1) in zip(self.marks, self.marks[1:]):
            total += (s1 - s0 - d0) * CALIBRATION_REF_S / ((d0 + d1) / 2)
        return total


def setup(workload: str, seed: int):
    sys.path.insert(0, str(ROOT / "src"))
    import cozero.cli
    if not Path(cozero.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"cozero imported from {cozero.cli.__file__}, "
                          f"not from {ROOT / 'src'}")
    return cozero.cli.main, workloads.argv(workload, seed)


def call(main, argv: list[str], tracer: tracing.Tracer | None):
    """Run the CLI once with stdout captured.

    Returns (exit code, output, wall seconds, reference seconds)."""
    out = io.StringIO()
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    with SpeedSampler() as speed:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), span:
                code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash fails the call's items; the run goes on
            traceback.print_exc()
            code = None
        wall = time.perf_counter() - start
    return code, out.getvalue(), wall, speed.reference_seconds()


def _percentile_ms(samples: list[float], q: float, min_beyond: int = 10) -> float:
    """The q-quantile in ms, or 0 when fewer than min_beyond samples lie past it."""
    if len(samples) * (1 - q) < min_beyond:
        return 0.0
    ordered = sorted(samples)
    return 1000 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(t: tracing.Tracer, output: str, check: dict) -> dict:
    self_s = tracing.self_times(t.spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    longest: dict[str, float] = {}
    own: dict[str, float] = {}
    for span, mine in zip(t.spans, self_s):
        d = span.end - span.start
        calls[span.name] = calls.get(span.name, 0) + 1
        total[span.name] = total.get(span.name, 0.0) + d
        longest[span.name] = max(longest.get(span.name, 0.0), d)
        own[span.name] = own.get(span.name, 0.0) + mine
    builds = [s.note for s in t.spans if s.name == "graphs.build_cozero_graph"]
    reports = [s.end - s.start for s in t.spans
               if s.name.removeprefix("verify.") in CLAIM_IDS]

    m = {
        "solvers.find_odd_hole.calls": (calls.get("solvers.find_odd_hole", 0), "count"),
        "solvers.find_odd_hole.s": (total.get("solvers.find_odd_hole", 0.0), "s"),
        "solvers.find_odd_hole.max_s": (longest.get("solvers.find_odd_hole", 0.0), "s"),
        "solvers.is_perfect_desk_scale.s": (total.get("solvers.is_perfect_desk_scale", 0.0), "s"),
        "solvers.max_clique.calls": (calls.get("solvers.max_clique", 0), "count"),
        "solvers.max_clique.s": (total.get("solvers.max_clique", 0.0), "s"),
        "solvers.chromatic_number.calls": (calls.get("solvers.chromatic_number", 0), "count"),
        "solvers.chromatic_number.s": (total.get("solvers.chromatic_number", 0.0), "s"),
        "solvers.validate.s": (sum(total.get(f"solvers.{v}", 0.0) for v in (
            "validate_clique", "validate_coloring", "validate_certificate")), "s"),
        "solvers.are_isomorphic.s": (total.get("solvers.are_isomorphic", 0.0), "s"),
        "graphs.build_cozero_graph.calls": (len(builds), "count"),
        "graphs.build_cozero_graph.s": (total.get("graphs.build_cozero_graph", 0.0), "s"),
        "graphs.build_cozero_graph.vertices": (sum(n for _, n in builds), "count"),
        "graphs.build_cozero_graph.per_ring": (
            len(builds) / max(1, len({ring for ring, _ in builds})), "builds/ring"),
        "graphs.complement.s": (total.get("graphs.complement", 0.0), "s"),
        "graphs.quotient_by_associates.s": (total.get("graphs.quotient_by_associates", 0.0), "s"),
        "graphs.induced_subgraph.s": (total.get("graphs.induced_subgraph", 0.0), "s"),
        "rings.in_principal_ideal.calls": (t.counts.get("rings.in_principal_ideal", 0), "count"),
        "rings.vertices.s": (total.get("rings.vertices", 0.0), "s"),
        "rings.associate_classes.s": (total.get("rings.associate_classes", 0.0), "s"),
        "rings.principal_ideal.calls": (calls.get("rings.principal_ideal", 0), "count"),
        "rings.principal_ideal.s": (total.get("rings.principal_ideal", 0.0), "s"),
        "verify.run_suite.s": (total.get("verify.run_suite", 0.0), "s"),
        "verify.reports_to_json.s": (total.get("verify.reports_to_json", 0.0), "s"),
    }
    for claim in CLAIM_IDS:
        m[f"verify.{claim}.s"] = (total.get(f"verify.{claim}", 0.0), "s")
        m[f"verify.{claim}.self_s"] = (own.get(f"verify.{claim}", 0.0), "s")
    m["verify.report.p50_ms"] = (_percentile_ms(reports, 0.5, 1), "ms")
    m["verify.report.p99_ms"] = (_percentile_ms(reports, 0.99), "ms")
    for reason in SKIP_REASONS:
        m[f"verify.skipped.{reason}"] = (check["skip_reasons"].get(reason, 0), "count")
    m["cli.main.s"] = (total.get("cli.main", 0.0), "s")
    m["cli.self_s"] = (own.get("cli.main", 0.0), "s")
    m["cli.output_bytes"] = (len(output.encode()), "B")
    return {name: {"value": v, "unit": u} for name, (v, u) in m.items()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    cli_main, argv = setup(args.workload, args.seed)
    print("ready", flush=True)

    expected = workloads.load_expected()
    start = time.perf_counter()
    traced = False
    while True:
        if not traced:
            step_start = time.perf_counter()  # a call, or an untraced/traced pair
        tracer = tracing.Tracer() if traced else None
        cpu_start = time.process_time()
        with tracer or contextlib.nullcontext():
            code, output, wall, ref = call(cli_main, argv, tracer)
        cpu = time.process_time() - cpu_start
        check = workloads.check(args.workload, expected, code, output)
        record = {"traced": traced, "wall_s": wall, "ref_s": ref, "cpu_s": cpu,
                  "exit": code, "check": check,
                  "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if tracer:
            record["layers"] = layer_metrics(tracer, output, check)
            record["nesting_violations"] = tracing.nesting_violations(tracer.spans)
        print(json.dumps(record), flush=True)
        if args.trace:
            traced = not traced
            if traced:
                continue  # every untraced call is paired with a traced one
        now = time.perf_counter()
        # start another step only if one as long as the last still fits
        if now - start + (now - step_start) > args.seconds:
            return 0


if __name__ == "__main__":
    sys.exit(main())
