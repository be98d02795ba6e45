"""Measure a change against its parent commit with perfbench, in alternating
pairs, and write the result as a BENCH JSON file.

    python3 tools/bench_pairs.py --parent-sha PARENT --pairs 10 --seconds 35 \
        --out BENCH_11.json

Run from the repository root.  The change is HEAD when the working tree is
clean, else a commit object of the working tree on top of HEAD; new files
are part of it only once they are staged.  Both commits are extracted with
``git archive`` into temporary directories, so the two sides run the same
way, with no bytecode or untracked file of the working tree.  For each
workload, pair i runs ``perfbench/run.py --trace 0`` of both checkouts with
seed 1000 + i, the parent first in even pairs and the change first in odd
ones, each with its own benchmark files.  The file records every run's
end-to-end metrics and failure count, each side's median and quartiles, how
many pairs the change won on each metric (lower is better; ties count for
neither), and whether a gain would be claimable: the change wins at least
nine tenths of the pairs and the medians differ by more than the parent's
interquartile distance.  Both git shas, the change's tree of ``src``, nproc
and the Python version are recorded with them.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("analyze-classes", "verify-twinfree", "verify-default-slice")
METRICS = ("wall_ref_s", "peak_rss_mb", "setup_s")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def extract(commit: str, dest: Path) -> Path:
    """The files of commit, written into dest by ``git archive``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def change_sha() -> str:
    """HEAD when the tree is clean, else a commit object of the working tree
    on top of HEAD (``git stash create``), which changes no ref or file."""
    return git("stash", "create") or git("rev-parse", "HEAD")


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return {"seed": seed, "attempted": result["attempted"],
            "failed": result["failed"],
            **{m: result["metrics"][m]["value"] for m in METRICS}}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: list[dict], change: list[dict]) -> dict:
    out = {}
    for m in METRICS:
        before = [r[m] for r in parent]
        after = [r[m] for r in change]
        p, c = summary(before), summary(after)
        wins = sum(a < b for a, b in zip(after, before))
        out[m] = {"parent": p, "change": c, "change_wins": wins,
                  "pairs": len(before),
                  "gain_claimable": (wins >= 0.9 * len(before)
                                     and p["median"] - c["median"] > p["q3"] - p["q1"])}
    out["fail_frac"] = {
        side: sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
        for side, runs in (("parent", parent), ("change", change))}
    return out


def pair_count(text: str) -> int:
    """A --pairs value: quartiles need two runs a side, so at least 2."""
    pairs = int(text)
    if pairs < 2:
        raise argparse.ArgumentTypeError(f"{pairs} pairs; quartiles need at least 2")
    return pairs


def workload_list(text: str) -> list[str]:
    """A --workloads value: names from WORKLOADS, comma-separated, none empty."""
    names = text.split(",")
    if unknown := [name for name in names if name not in WORKLOADS]:
        raise argparse.ArgumentTypeError(
            f"unknown workload(s) {unknown}; choose from {', '.join(WORKLOADS)}")
    return names


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent-sha", required=True)
    ap.add_argument("--pairs", type=pair_count, default=10)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--workloads", type=workload_list, default=list(WORKLOADS))
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    parent, sha = git("rev-parse", args.parent_sha), change_sha()
    record = {"parent_sha": parent, "change_sha": sha,
              "change_src_tree": git("rev-parse", f"{sha}:src"),
              "nproc": len(os.sched_getaffinity(0)),
              "python": platform.python_version(),
              "command": f"perfbench/run.py --seconds {args.seconds} --trace 0",
              "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: extract(commit, Path(tmp, side))
                 for side, commit in (("parent", parent), ("change", sha))}
        for workload in args.workloads:
            runs: dict = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_once(sides[side], workload, 1000 + i,
                                               args.seconds))
                print(workload, i, {s: runs[s][-1]["wall_ref_s"] for s in order},
                      file=sys.stderr, flush=True)
            record["workloads"][workload] = {"runs": runs, **compare(runs["parent"],
                                                                     runs["change"])}
            args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
