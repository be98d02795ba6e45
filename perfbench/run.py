"""Run one workload of the cozero benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root.  Each run starts fresh interpreters: several
that only set up (import cozero, ready the arguments) to time ``setup_s``
(see setup_probe.py), then one worker that calls ``cozero.cli.main`` for up
to S seconds (see worker.py).
The worker is killed if it outlives the run's time limit; the items of the
call it was running then count as failed, as they do if the worker dies.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before it
are a readable summary and the run's context (git sha, Python, nproc, load
average, seed and the sample count behind each median).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
import workloads  # noqa: E402

WORKER = HERE / "worker.py"
PROBE = HERE / "setup_probe.py"
SETUP_PROBES = 24  # after one warm-up probe that may compile bytecode
RUN_LIMIT_S = 160.0  # the whole run must end within 180 s
FULL_SUITE_LIMIT_S = 600.0  # verify-default is not a declared workload

END_TO_END_UNITS = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}


def git_sha() -> str:
    """HEAD of the checkout; "unknown" when it is not a git repository."""
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse",
                               "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("COZERO_MAX_CARDINALITY", None)  # the CLI's default cap must hold
    return env


def probe_setup(argv: list[str]) -> tuple[float, float]:
    """One set-up in a fresh interpreter: its wall seconds, and the same
    rescaled to reference seconds by the calibration loop timed after it."""
    cmd = [sys.executable, str(PROBE), str(ROOT / "src"), *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                          env=worker_env())
    try:
        wall, loop = map(float, proc.stdout.split())
    except ValueError:
        raise RuntimeError("setup failed: " + proc.stderr.strip()[-500:]) from None
    return wall, wall * worker.CALIBRATION_REF_S / loop


def run_worker(cmd: list[str], limit: float) -> tuple[list[dict], bool]:
    """The per-call records the worker wrote, and whether a call was cut
    short: the worker was killed at the limit or died."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          env=worker_env()) as proc:
        try:
            out, _ = proc.communicate(timeout=limit)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
    lines = out.splitlines()
    if not lines or lines[0] != "ready":
        raise RuntimeError("worker failed before its first call")
    records = []
    for line in lines[1:]:
        try:
            records.append(json.loads(line))
        except ValueError:  # a line cut off by the kill
            break
    return records, proc.returncode != 0 or len(records) < len(lines) - 1


def summarize(name: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload: its result object, context and a readable line."""
    load_start = os.getloadavg()[0]
    argv = workloads.argv(name, seed)
    probe_setup(argv)
    # half the probes before the calls and half after, so that the median
    # spans the run rather than one moment of a shared machine's speed
    setups = [probe_setup(argv) for _ in range(SETUP_PROBES // 2)]
    limit = FULL_SUITE_LIMIT_S if name == "verify-default" else RUN_LIMIT_S
    records, cut_short = run_worker(
        [sys.executable, str(WORKER), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)], limit)
    setups += [probe_setup(argv) for _ in range(SETUP_PROBES // 2)]

    items_per_call = workloads.load_expected()[name]["items"]
    attempted = sum(r["check"]["attempted"] for r in records)
    failed = sum(r["check"]["failed"] for r in records)
    if cut_short:  # the call that was running when the worker ended
        attempted += items_per_call
        failed += items_per_call
    reports = sum(r["check"]["reports"] for r in records)
    skipped = sum(r["check"]["skipped"] for r in records)
    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    violations = sum(r.get("nesting_violations", 0) for r in traced)

    # a run whose first call never finished reports the limit as its time
    wall_s = statistics.median(r["wall_s"] for r in plain) if plain else limit
    wall_ref_s = statistics.median(r["ref_s"] for r in plain) if plain else limit
    # the first call's peak: later calls in the same process can only raise it
    peak_kb = plain[0]["maxrss_kb"] if plain else 0
    e2e = {"setup_s": statistics.median(ref for _, ref in setups),
           "wall_ref_s": wall_ref_s,
           "peak_rss_mb": peak_kb / 1024}
    fail_frac = failed / attempted if attempted else 1.0
    skip_frac = skipped / reports if reports else 0.0
    if trace:
        metrics = {}
        for key, entry in (traced[0]["layers"] if traced else {}).items():
            values = [r["layers"][key]["value"] for r in traced]
            metrics[key] = {"value": statistics.median(values), "unit": entry["unit"]}
        overhead = (statistics.median(r["ref_s"] for r in traced) - wall_ref_s
                    if traced else 0.0)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        # these can read 0, so they are not end-to-end metrics
        metrics["fail_frac"] = {"value": fail_frac, "unit": "ratio"}
        metrics["skip_frac"] = {"value": skip_frac, "unit": "ratio"}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}

    context = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0], "cut_short": cut_short,
        "wall_s": wall_s,
        "cpu_s": statistics.median(r["cpu_s"] for r in plain) if plain else None,
        "setup_wall_s": statistics.median(wall for wall, _ in setups),
        "samples": {"setup_s": len(setups), "wall_s": len(plain),
                    "traced_calls": len(traced)},
        "nesting_violations": violations,
        "output_sha256": sorted({r["check"]["sha256"] for r in records}),
        "fail_frac": fail_frac, "skip_frac": skip_frac,
    }
    readable = (f"{name}: seed={seed} calls={len(plain)}+{len(traced)} traced "
                f"setup_s={e2e['setup_s']:.4f} wall_s={wall_s:.3f} "
                f"wall_ref_s={wall_ref_s:.3f} "
                f"peak_rss_mb={e2e['peak_rss_mb']:.1f} "
                f"fail_frac={failed}/{attempted} skip_frac={skipped}/{reports}")
    result = {"correct": failed == 0 and not cut_short and violations == 0,
              "attempted": max(attempted, 1), "failed": failed,
              "metrics": metrics}
    return {"result": result, "context": context, "readable": readable}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "cozero" / "cli.py").is_file():
        print(f"perfbench: no cozero sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    names = workloads.DECLARED if args.workload == "all" else (args.workload,)
    runs = {}
    for name in names:
        try:
            runs[name] = summarize(name, args.seed, args.seconds, args.trace)
        except RuntimeError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        print(runs[name]["readable"], flush=True)
        print(json.dumps({"context": runs[name]["context"]}), flush=True)

    if len(runs) == 1:
        result = runs[names[0]]["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in runs.values()),
            "attempted": sum(r["result"]["attempted"] for r in runs.values()),
            "failed": sum(r["result"]["failed"] for r in runs.values()),
            "metrics": {f"{name}/{key}": value for name, r in runs.items()
                        for key, value in r["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
