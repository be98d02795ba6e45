"""Mutation sweep over the graph build, the certificates and the claim checks.

    python tests/mutants.py --out mutants.json [--root DIR]

Each mutant names a function of src/cozero, an expression or statement in
it (in ``ast.unparse`` form) and what replaces it; the first node of the
function, in ``ast.walk`` order, whose unparsed text is the target is
replaced.  The src, tests, perfbench and tools of the repository at --root
(default: the one holding this script) are copied once, without bytecode,
into a temporary directory; each mutant rewrites its module there, the test
files that import that module (its own ``test_<module>.py`` first) run
against the copy with ``pytest -x``, and the module is restored.  A
mutant is killed if a test fails or the run outlasts TIMEOUT seconds,
survived if all pass, and not-applicable if its target is not in the
function.  The unmutated copy, unparsed the same way, runs first as a
control and must pass.  The result is JSON, written to --out.  The file
name keeps pytest from collecting it; it needs only the stdlib and pytest.
"""
from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TIMEOUT = 600.0

# (id, module, function, target, replacement): a target is an expression, a
# statement or a call's keyword argument; a replacement "pass" of a
# statement removes it.  Equivalent mutants are left out: the early break
# of validate_orientation (after it, left is empty, so the later levels add
# nothing to joined); check_null_graph's "local and principal" as "local"
# (a local product of Z_n is one Z_{p^k}, whose maximal ideal pZ is
# principal); and the build's or _inclusions' two folds swapped with each
# other (a row misses the union of both, so the swap keeps every row).
MUTANTS = [
    ("build-divides", "graphs", "build_cozero_graph", "e % d == 0", "d % e == 0"),
    ("build-full", "graphs", "build_cozero_graph", "full & ~(pq & q2 | uw & w2)",
     "~(pq & q2 | uw & w2)"),
    ("gather-leading-zero", "graphs", "gather",
     "operator.itemgetter(0, *(n - col for col in reversed(cols)))",
     "operator.itemgetter(*(n - col for col in reversed(cols)))"),
    ("gather-full", "graphs", "gather", "row & full", "row"),
    ("transpose-mask", "graphs", "transpose", "(t[a] >> w ^ t[a + w]) & low",
     "t[a] >> w ^ t[a + w]"),
    ("codes-radix", "rings", "signature_codes", "map(len(divs).__mul__, codes)", "codes"),
    ("codes-digit", "rings", "signature_codes", "divs.index(math.gcd(x, n))",
     "len(divs) - 1 - divs.index(math.gcd(x, n))"),
    ("codes-zero", "rings", "signature_codes", "del codes[0]", "pass"),
    ("ideal-order-size", "graphs", "ideal_order", "m // math.gcd(x, m)", "math.gcd(x, m)"),
    ("clique-duplicates", "solvers", "validate_clique", "len(set(ws)) != len(ws)", "False"),
    ("clique-range", "solvers", "validate_clique", "0 <= v < g.n", "True"),
    ("clique-adjacency", "solvers", "validate_clique",
     "not mask & ~(g.adj[v] | 1 << v)", "True"),
    ("coloring-length", "solvers", "validate_coloring", "len(assignment) != g.n", "False"),
    ("coloring-proper", "solvers", "validate_coloring", "not g.adj[v] & classes[c]", "True"),
    ("rows-width", "solvers", "validate_rows", "not row >> n", "True"),
    ("rows-loop", "solvers", "validate_rows", "not row & m", "True"),
    ("rows-union", "solvers", "validate_rows", "(x := (row & c)) == c or not x", "True"),
    ("rows-symmetric", "solvers", "validate_rows", "transpose(core.adj) == list(core.adj)",
     "True"),
    ("orientation-join", "solvers", "validate_orientation", "joined != row", "False"),
    ("orientation-after", "solvers", "validate_orientation", "after |= 1 << u", "pass"),
    ("cover-seen", "solvers", "_chain_cover", "seen = 0", "pass"),
    ("cover-roots", "solvers", "_chain_cover", "succ[u] == -1", "succ[u] != -1"),
    ("cover-antichain", "solvers", "_chain_cover", "left & ~right", "left"),
    ("order-rows", "solvers", "validated_order",
     "not validate_rows(g, row_classes, core)", "False"),
    ("order-transitive", "solvers", "validated_order", "out is None", "False"),
    ("chromatic-size", "solvers", "chromatic_number", "len(antichain) == count", "True"),
    ("chromatic-clique", "solvers", "chromatic_number", "validate_clique(core, antichain)",
     "True"),
    ("chromatic-coloring", "solvers", "chromatic_number",
     "validate_coloring(core, colors, count)", "True"),
    ("formula-clique", "verify", "check_formula",
     "solvers.validate_clique(g, coloring.clique)", "True"),
    ("formula-coloring", "verify", "check_formula",
     "solvers.validate_coloring(g, coloring.assignment, coloring.count)", "True"),
    ("perfection-order", "verify", "check_perfection", "bool(case.order)", "True"),
    ("skip-cardinality-first", "verify", "_skip_reason",
     "if case.spec.cardinality > case.caps.max_cardinality:\n    return 'cap-exceeded'", "pass"),
    ("skip-rules-first", "verify", "_skip_reason",
     "next((reason for reason, holds in rules if holds(case.spec.fields)), None) or "
     "('cap-exceeded' if case.graph is None else None)",
     "('cap-exceeded' if case.graph is None else None) or "
     "next((reason for reason, holds in rules if holds(case.spec.fields)), None)"),
    ("null-local", "verify", "check_null_graph", "spec.add(a, b) not in units", "True"),
    ("invariants-part-sizes", "verify", "check_invariants",
     "part.bit_count() != math.comb(n, k)", "False"),
    ("invariants-off-row", "verify", "check_invariants",
     "sum((m & ~same_row.get(row, 0) for m, row in zip(masks, expected_rows())))", "0"),
    ("invariants-range", "verify", "check_invariants", "g.adj[i] >> g.n", "0"),
    ("ideals-stop", "verify", "_ideals", "z < y and y in table[z]", "z < y"),
    ("inclusions-inside", "verify", "_inclusions", "xz <= yz", "xz < yz"),
    ("inclusions-holding", "verify", "_inclusions", "yz <= xz", "yz < xz"),
    ("reduction-cap", "verify", "check_reduction",
     "_skip_reason(case, _NOT_VNR, _TOO_FEW_FIELDS, _TOO_MANY_FIELDS)",
     "_skip_reason(case, _NOT_VNR, _TOO_FEW_FIELDS)"),
    ("reduction-support", "verify", "check_reduction", "x % p != 0", "x % p == 0"),
    ("reduction-classes", "verify", "check_reduction",
     "list(graphs.positions(supports).values()) != list(case.row_classes.values())", "False"),
    ("reduction-boolean", "verify", "check_reduction", "RingSpec((2,) * n)",
     "RingSpec((2,) * (n + 1))"),
    ("reduction-whole-rows", "verify", "check_reduction", "q.adj == boolean.adj", "True"),
    ("reduction-permutation", "verify", "check_reduction",
     "sorted(bijection) == list(range(boolean.n))", "True"),
    ("reduction-gather", "verify", "check_reduction",
     "graphs.gather(q.adj, sorted(range(q.n), key=bijection.__getitem__), q.n) "
     "== tuple(map(boolean.adj.__getitem__, bijection))", "True"),
    ("reduction-passed", "verify", "check_reduction", "passed=iso_ok", "passed=True"),
]


def mutate(source: str, function: str, target: str, replacement: str) -> str | None:
    """source with the first node of the top-level function whose unparsed
    text is target replaced, unparsed; None if there is no such node."""
    tree = ast.parse(source)
    [fn] = [node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == function]
    want = ast.unparse(ast.parse(target))
    for node in ast.walk(fn):
        for field, value in ast.iter_fields(node):
            children = value if isinstance(value, list) else [value]
            for i, child in enumerate(children):
                # a keyword unparses as arg=value, a statement as arg = value
                if (not isinstance(child, ast.AST)
                        or isinstance(getattr(child, "ctx", None), ast.Store)
                        or ast.unparse(child) != (target if isinstance(child, ast.keyword)
                                                  else want)):
                    continue
                if isinstance(child, ast.stmt):
                    children[i:i + 1] = ast.parse(replacement).body
                elif isinstance(child, ast.keyword):
                    children[i] = ast.parse(f"f({replacement})", mode="eval").body.keywords[0]
                else:
                    new = ast.parse(replacement, mode="eval").body
                    if isinstance(value, list):
                        children[i] = new
                    else:
                        setattr(node, field, new)
                return ast.unparse(ast.fix_missing_locations(tree))
    return None


def importers(tests: Path, module: str) -> list[str]:
    """The test files that import cozero.<module> themselves, its own first."""
    def imports(path: Path) -> bool:
        return any(
            isinstance(node, ast.ImportFrom) and (
                node.module == f"cozero.{module}"
                or node.module == "cozero" and any(a.name == module for a in node.names))
            or isinstance(node, ast.Import) and any(a.name == f"cozero.{module}"
                                                    for a in node.names)
            for node in ast.walk(ast.parse(path.read_text())))

    found = sorted(p.name for p in tests.glob("test_*.py") if imports(p))
    return sorted(found, key=lambda name: name != f"test_{module}.py")


def run_tests(copy: Path, files: list[str]) -> tuple[str, str | None]:
    """("passed" | "failed" | "timeout", the first failing test or None)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
             *(f"tests/{name}" for name in files)],
            cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout", None
    if done.returncode == 0:
        return "passed", None
    first = next((line.partition(" ")[2].partition(" - ")[0]
                  for line in done.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))), None)
    return "failed", first


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    results = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests", "perfbench", "tools"):
            if (args.root / name).is_dir():
                shutil.copytree(args.root / name, copy / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
        shutil.copy(args.root / "pyproject.toml", copy)
        modules = copy / "src" / "cozero"
        # each module as the mutants unparse it; unmutated, it is the control
        originals = {m: ast.unparse(ast.parse((modules / f"{m}.py").read_text()))
                     for m in {m[1] for m in MUTANTS}}
        for module, source in originals.items():
            (modules / f"{module}.py").write_text(source)
        control, first = run_tests(copy, sorted({f for m in originals
                                                 for f in importers(copy / "tests", m)}))
        if control != "passed":
            print(f"control run {control}: {first}", file=sys.stderr)
            return 2
        for ident, module, function, target, replacement in MUTANTS:
            path = modules / f"{module}.py"
            mutated = mutate(originals[module], function, target, replacement)
            entry = {"id": ident, "module": module, "function": function,
                     "target": target, "replacement": replacement}
            if mutated is None:
                results.append({**entry, "status": "not-applicable"})
                print(f"{ident}: not-applicable", file=sys.stderr)
                continue
            files = importers(copy / "tests", module)
            start = time.perf_counter()
            path.write_text(mutated)
            outcome, first = run_tests(copy, files)
            path.write_text(originals[module])
            status = "survived" if outcome == "passed" else "killed"
            results.append({**entry, "status": status, "outcome": outcome, "killed_by": first,
                            "files": files, "seconds": round(time.perf_counter() - start, 1)})
            print(f"{ident}: {status} {first or ''}", file=sys.stderr)
    args.out.write_text(json.dumps({
        "root": str(args.root),
        "counts": {s: sum(r["status"] == s for r in results)
                   for s in ("killed", "survived", "not-applicable")},
        "mutants": results}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
