"""tools/bench_pairs.py refuses a pair count it cannot summarise before it
extracts or runs anything."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.mark.parametrize("pairs", ["1", "0", "-3", "two"])
def test_fewer_than_two_pairs_exit_2(tmp_path, pairs):
    out = tmp_path / "BENCH.json"
    # the checkouts would be extracted under TMPDIR
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    done = subprocess.run(
        [sys.executable, str(TOOL), "--parent-sha", "0" * 40, "--pairs", pairs,
         "--seconds", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "TMPDIR": str(scratch)})
    assert done.returncode == 2
    assert "--pairs" in done.stderr and done.stdout == ""
    assert not out.exists()
    assert list(scratch.iterdir()) == []
