"""tools/bench_pairs.py refuses a pair count it cannot summarise before it
runs anything."""
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.mark.parametrize("pairs", ["1", "0", "-3", "two"])
def test_fewer_than_two_pairs_exit_2(tmp_path, pairs):
    out = tmp_path / "BENCH.json"
    done = subprocess.run(
        [sys.executable, str(TOOL), "--parent-dir", str(tmp_path), "--parent-sha",
         "0" * 40, "--pairs", pairs, "--seconds", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=30)
    assert done.returncode == 2
    assert "--pairs" in done.stderr and done.stdout == ""
    assert not out.exists()
