"""Record the expected outputs of every workload into expected.json.

Run from the repository root on a commit whose outputs are trusted:

    python3 perfbench/record_expected.py

Only a change that alters a claim on purpose should re-record, and it says so.
"""
from __future__ import annotations

import hashlib
import json
import sys

import worker
import workloads


def record(name: str) -> dict:
    main, argv = worker.setup(name, seed=0)
    code, output, _, _ = worker.call(main, argv, None)
    if code != 0:
        raise SystemExit(f"{name}: exit code {code}")
    items = json.loads(output)
    if name == "analyze-classes":
        return {"items": len(items),
                "rings": {item["spec"]: {f: item.get(f) for f in workloads.ANALYZE_FIELDS}
                          for item in items}}
    return {"items": len(items),
            "passed": sum(1 for r in items if r["pass"] and not r["skipped"]),
            "skipped": sum(1 for r in items if r["skipped"]),
            "failed": sum(1 for r in items if not r["pass"] and not r["skipped"]),
            "sha256": hashlib.sha256(output.encode()).hexdigest(),
            # byte digests are context; the check compares the answers
            "digests": {workloads.item_key(name, r): workloads.item_digest(r)
                        for r in items},
            "answers": {workloads.item_key(name, r):
                        workloads.item_digest(workloads.answer(r))
                        for r in items}}


def main() -> int:
    expected = {}
    for name in workloads.NAMES:
        print(f"recording {name}", file=sys.stderr, flush=True)
        expected[name] = record(name)
    (workloads.HERE / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
