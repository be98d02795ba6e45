"""The benchmark's workloads: the CLI arguments each one passes to
``cozero.cli.main``, and the check that its output is correct.

Why each workload exists, and the input property it varies, is written in
README.md next to this file.  Expected outputs are in expected.json; they
were recorded from the seed commit and are independent of ``--seed``, which
only permutes the order of the rings given on the command line.
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

HERE = Path(__file__).parent

# The rings each workload passes on its command line.  verify-default-slice
# is the default suite minus five of the seven rings whose twin-reduced core
# is the 62-vertex graph of Z2^6: those seven take ~53 s of the ~73 s suite,
# the same hole search seven times over.  Keeping two of them leaves the
# odd-hole search dominant while 22 runs of each workload fit in 3,420 s.
INPUTS = json.loads((HERE / "inputs.json").read_text())


def _shuffled(rings, seed: int) -> list[str]:
    rings = list(rings)
    random.Random(seed).shuffle(rings)
    return rings


def argv(workload: str, seed: int) -> list[str]:
    """The arguments the program receives; the seed only reorders rings."""
    if workload == "verify-default":
        return ["verify"]
    rings = _shuffled(INPUTS[workload], seed)
    if workload == "analyze-classes":
        return ["analyze", "--format", "json", "--max-vertices", "2048", *rings]
    if workload == "verify-twinfree":
        return ["verify", "--max-cardinality", "1024", "--max-vertices", "1024",
                "--rings", ",".join(rings)]
    return ["verify", "--rings", ",".join(rings)]


# The workloads of BENCHMARK.json.  verify-default, the whole default suite
# (~73 s a call on 2 cores), is left out of it because 22 runs of it do not
# fit in 3,420 s; run it by name for the headline figure.
DECLARED = ("analyze-classes", "verify-twinfree", "verify-default-slice")
NAMES = DECLARED + ("verify-default",)


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def item_digest(item: dict) -> str:
    text = json.dumps(item, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def item_key(workload: str, item: dict) -> str:
    if workload == "analyze-classes":
        return item["spec"]
    return f"{item['claim_id']} {item['spec']}"


ANALYZE_FIELDS = ("vertices", "edges", "associate_classes", "omega", "chi",
                  "perfect", "formula_match")


def answer(item: dict) -> dict:
    """A report with each witness list replaced by its length.

    Another clique of the same size, another bijection or another odd cycle
    is as correct as the recorded one, so only the answer fields and the
    witness sizes are compared; ``witness_ok`` checks the lists themselves."""
    witness = item.get("witness")
    if isinstance(witness, dict):
        witness = {k: len(v) if isinstance(v, list) else v
                   for k, v in witness.items()}
    return {**item, "witness": witness}


def witness_ok(item: dict) -> bool:
    """Every witness list holds distinct vertex numbers, and a bijection is
    a permutation of 0..n-1."""
    for key, value in (item.get("witness") or {}).items():
        if not isinstance(value, list):
            continue
        if not all(isinstance(v, int) and v >= 0 for v in value):
            return False
        if len(set(value)) != len(value):
            return False
        if key == "bijection" and sorted(value) != list(range(len(value))):
            return False
    return True


def check(workload: str, expected: dict, exit_code: int | None,
          output: str) -> dict:
    """Compare one call's output with the recorded one.

    Items are reports for ``verify`` and rings for ``analyze``.  An item
    fails when it is missing or unparsable, when an answer field differs
    from the record, or when a witness has another size than the recorded
    one or is not valid; the vertices a witness names may differ.  A
    non-zero exit fails every item.  Never raises on bad output."""
    want = expected[workload]
    attempted = want["items"]
    result = {"attempted": attempted, "failed": attempted, "reports": 0,
              "skipped": 0, "skip_reasons": {},
              "sha256": hashlib.sha256(output.encode()).hexdigest()}
    if exit_code != 0:
        return result
    try:
        items = json.loads(output)
        got = {item_key(workload, item): item for item in items}
    except (ValueError, TypeError, KeyError):
        return result
    if workload == "analyze-classes":
        failed = 0
        for spec, fields in want["rings"].items():
            item = got.get(spec)
            if (item is None
                    or any(item.get(f) != fields.get(f) for f in ANALYZE_FIELDS)
                    or len(item.get("clique_witness", ())) != fields["omega"]):
                failed += 1
    else:
        if result["sha256"] == want["sha256"]:
            failed = 0
        else:
            failed = sum(1 for key, d in want["answers"].items()
                         if key not in got
                         or item_digest(answer(got[key])) != d
                         or not witness_ok(got[key]))
        reasons: dict[str, int] = {}
        for item in items:
            if item.get("skipped"):
                reasons[item["reason"]] = reasons.get(item["reason"], 0) + 1
        result["reports"] = len(items)
        result["skipped"] = sum(reasons.values())
        result["skip_reasons"] = reasons
    result["failed"] = min(failed + max(0, len(got) - attempted), attempted)
    return result
