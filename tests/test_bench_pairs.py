"""tools/bench_pairs.py refuses a pair count it cannot summarise, or a
workload it does not declare, before it extracts or runs anything."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def refused(tmp_path, option: str, value: str) -> None:
    """The tool, given option=value, exits 2 naming the option, writes no
    output and extracts nothing."""
    out = tmp_path / "BENCH.json"
    # the checkouts would be extracted under TMPDIR
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    done = subprocess.run(
        [sys.executable, str(TOOL), "--parent-sha", "0" * 40, f"{option}={value}",
         "--seconds", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "TMPDIR": str(scratch)})
    assert done.returncode == 2
    assert option in done.stderr and done.stdout == ""
    assert not out.exists()
    assert list(scratch.iterdir()) == []


@pytest.mark.parametrize("pairs", ["1", "0", "-3", "two"])
def test_fewer_than_two_pairs_exit_2(tmp_path, pairs):
    refused(tmp_path, "--pairs", pairs)


# "all" names perfbench's combined run, whose metrics are keyed by workload
@pytest.mark.parametrize("workloads", [
    "", "all", "verify-default", "no-such-workload", "verify-twinfree,",
    "verify-twinfree,,analyze-classes"])
def test_undeclared_workloads_exit_2(tmp_path, workloads):
    refused(tmp_path, "--workloads", workloads)
