"""The mutation sweep's list (tests/mutants.py, loaded by path) stays in step
with the source: each mutant's target is found in its function, so a target
that a change rewrites or deletes fails here, not as not-applicable after a
whole sweep."""
import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("ident,module,function,target,replacement", mutants.MUTANTS,
                         ids=[m[0] for m in mutants.MUTANTS])
def test_mutant_target_is_in_its_function(ident, module, function, target, replacement):
    # the module as the sweep unparses it, control and mutants alike
    source = ast.unparse(ast.parse((ROOT / "src" / "cozero" / f"{module}.py").read_text()))
    mutated = mutants.mutate(source, function, target, replacement)
    assert mutated is not None, f"{ident}: {target!r} is not in {module}.{function}"
    assert mutated != source
