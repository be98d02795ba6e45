"""Module boundaries inside the package: no module of src/cozero reads a
private (underscore) name of another, whether by ``from .x import _name`` or
by ``x._name`` on an imported module; no module imports a name it never
reads; the oracles of verify stay independent of the code they check;
importing the CLI loads neither dataclasses nor typing; and no module keeps
a cache of its own, since a run's tables are the one place results are kept."""
import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cozero"
PERFBENCH = SRC.parent.parent / "perfbench"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def package_reads(tree: ast.AST) -> list[tuple[str, str, str]]:
    """Every name that tree reads from a package module, as (module, name,
    form): ``from .m import name`` (module "" for the package itself), or
    ``alias.name`` on a name bound to package module m."""
    found = []
    aliases = {}  # local name -> package module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "cozero":
                continue
            # "from . import graphs" or "from cozero import graphs" binds a module
            module = (node.module or "").removeprefix("cozero").lstrip(".")
            for alias in node.names:
                found.append((module, alias.name, f"from {'.' * node.level}"
                                                  f"{node.module or ''} import {alias.name}"))
                if not module and alias.name in MODULES:
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, tail = alias.name.partition(".")
                if head == "cozero" and tail in MODULES and alias.asname:
                    aliases[alias.asname] = tail
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            module = aliases[node.value.id]
            found.append((module, node.attr, f"{module}.{node.attr}"))
    return found


def private_uses(source: str) -> list[str]:
    """Every cross-module private name the given module source reads."""
    return [form for _, name, form in package_reads(ast.parse(source)) if _private(name)]


@pytest.mark.parametrize("module", MODULES)
def test_no_cross_module_private_names(module):
    assert private_uses((SRC / f"{module}.py").read_text()) == []


def test_checker_catches_both_forms():
    source = ("from . import graphs, solvers as s\n"
              "from .graphs import _bits, complement\n"
              "import cozero.rings as r\n"
              "x = graphs._is_prime(3) + s._all_twin_reduce + r._squarefree\n"
              "y = graphs.complement, graphs.__name__\n")
    assert sorted(private_uses(source)) == sorted([
        "from .graphs import _bits", "graphs._is_prime",
        "solvers._all_twin_reduce", "rings._squarefree"])


def unused_imports(source: str) -> list[str]:
    """Names the module source imports but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.name
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported[name] for name in imported.keys() - used)


# the package's __init__ imports only to re-export its public API
@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__"])
def test_no_unused_imports(module):
    assert unused_imports((SRC / f"{module}.py").read_text()) == []


def test_unused_import_checker():
    source = ("from __future__ import annotations\n"
              "import math, os.path\n"
              "from dataclasses import dataclass, field\n"
              "from .rings import vertices as vs, factorize\n"
              "@dataclass\n"
              "class A:\n"
              "    x: int = math.gcd(4, 6)\n"
              "y = vs(None)\n")
    assert unused_imports(source) == ["factorize", "field", "os.path"]


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules outside the package that the
    module source imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


# start-up is most of a short run: dataclasses pulls in inspect, and with it
# ast, dis and tokenize, and typing is as costly, for a few small classes
SLOW_IMPORTS = {"dataclasses", "inspect", "typing"}


@pytest.mark.parametrize("module", MODULES)
def test_no_slow_imports(module):
    assert imported_modules((SRC / f"{module}.py").read_text()) & SLOW_IMPORTS == set()


def test_import_checker():
    source = ("from __future__ import annotations\n"
              "import os.path, typing as t\n"
              "from dataclasses import dataclass\n"
              "from . import graphs\n"
              "from .rings import RingSpec\n")
    assert imported_modules(source) == {"__future__", "os", "typing", "dataclasses"}


def test_cli_import_loads_no_slow_module():
    # -S: the site module may load typing itself, through a .pth file
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import cozero.cli; "
            f"print(sorted({sorted(SLOW_IMPORTS)!r} & sys.modules.keys()))")
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=30)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def reads(tree: ast.AST) -> set[str]:
    """Every name and attribute read, and every name imported, in tree."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            | {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names})


def names_in(source: str, function: str) -> set[str]:
    """Every name and attribute that the body of a top-level function reads."""
    [fn] = [node for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name == function]
    return reads(fn)


# the enumeration of Rb must not use the gcd shortcut it is the oracle for,
# and the claim checks must not derive adjacency or principality from the
# gcd test or from the graph build's own signature codes and masks
FAST_PATHS = {"in_principal_ideal", "ideal_order", "signature_codes"}


@pytest.mark.parametrize("module,function,forbidden", [
    ("rings", "principal_ideal", {"gcd", "in_principal_ideal"}),
    # nor read the case's solved clique, colouring or order, nor take its
    # associate classes from the ring layer or the quotient: they are keyed
    # by the run's own ideal tables; its rows fold per factor as the build's
    # do, but from those tables and their inclusions, not the build's
    # divisors or its graph
    ("verify", "check_invariants", FAST_PATHS | {
        "clique", "coloring", "gcd", "order", "associate_classes", "quotient_by_associates",
        "divisors", "build_cozero_graph"}),
    # nor tell units by gcd, through is_unit
    ("verify", "check_null_graph", FAST_PATHS | {"clique", "coloring", "gcd", "is_unit"}),
    # the checkers of the chain-cover and rank-and-cover certificates must
    # not read the order that produced them
    ("solvers", "validate_coloring", FAST_PATHS),
    ("solvers", "validate_clique", FAST_PATHS),
    ("rings", "multiples", {"gcd", "in_principal_ideal"}),
    ("solvers", "validate_orientation", FAST_PATHS),
    # the ideal tables both claims read are listed by walking the multiples
    # of each residue: additions and memberships alone
    ("verify", "_ideals", FAST_PATHS | {"gcd"}),
    # quotient-reduction solves, orders, reduces and re-validates nothing: it
    # reads omega and chi from the case's cover, validated on the order's
    # core, and checks only that the twin partition is the support partition
    # and that the support bijection carries the core onto the Z2^n graph
    ("verify", "check_reduction", {"chromatic_number", "validated_order", "ideal_order",
                                   "quotient_by_associates", "induced_subgraph",
                                   "validate_clique", "validate_coloring"}),
    # that the rows are a graph is read off the rows and their classes alone
    ("solvers", "validate_rows", FAST_PATHS | {"labels", "spec"}),
    # chromatic number and perfection take the validated order alone: no
    # path makes it, or groups the rows it is made from, in their place
    ("solvers", "chromatic_number", {"validated_order", "positions"}),
    ("solvers", "is_perfect_desk_scale", {"validated_order", "positions"}),
    # the inclusions graph-invariants folds come from the ideal tables alone
    ("verify", "_inclusions", FAST_PATHS | {"gcd", "divisors", "build_cozero_graph"}),
])
def test_oracles_stay_independent(module, function, forbidden):
    assert names_in((SRC / f"{module}.py").read_text(), function) & forbidden == set()


# colouring, omega and perfection have one path each, through the
# principal-ideal order, and the quotient's bijection is built from supports;
# the standalone odd-hole, clique, colouring and isomorphism searches stay
# off all of them
SEARCHES = {"find_odd_hole", "_min_odd_hole_core", "validate_certificate",
            "OddCycleCertificate", "_dsatur", "_chromatic_core", "_try_k_coloring",
            "are_isomorphic", "_refine_colors",
            "max_clique", "_max_clique_core", "_greedy_clique"}


@pytest.mark.parametrize("module,function", [
    ("solvers", "chromatic_number"),
    ("solvers", "is_perfect_desk_scale"),
    ("verify", "check_perfection"),
    ("cli", "_analyze_one"),
    ("verify", "check_reduction"),
])
def test_report_path_runs_no_search(module, function):
    assert names_in((SRC / f"{module}.py").read_text(), function) & SEARCHES == set()


# analyze, verify and export take each ring's graph, vertex guard, order and
# colouring from one verify.Case, and analyze counts the associate classes
# by their gcd signatures without listing them
def test_cli_takes_each_ring_from_a_case():
    assert reads(ast.parse((SRC / "cli.py").read_text())) & {
        "build_cozero_graph", "check_cap", "validated_order", "chromatic_number",
        "associate_classes"} == set()


# names_in sees top-level functions only, not methods such as verify.Case's
@pytest.mark.parametrize("module", ["verify", "cli"])
def test_report_modules_run_no_search(module):
    assert reads(ast.parse((SRC / f"{module}.py").read_text())) & SEARCHES == set()


def test_search_checker_sees_methods_and_imports():
    source = ("from .solvers import _greedy_clique as greedy\n"
              "class Case:\n"
              "    @property\n"
              "    def clique(self):\n"
              "        return solvers.max_clique(self.graph)\n")
    assert reads(ast.parse(source)) & SEARCHES == {"max_clique", "_greedy_clique"}


def test_oracle_checker_catches_planted_calls():
    source = ("import math\n"
              "from math import gcd\n"
              "from . import graphs, rings\n"
              "def principal_ideal(spec, b):\n"
              "    return {math.gcd(y, n) for y, n in zip(b, spec.moduli)}\n"
              "def check_invariants(spec, g):\n"
              "    def helper(a, b):\n"
              "        return rings.in_principal_ideal(spec, a, b)\n"
              "    return graphs.ideal_order(g), gcd(2, 4), helper\n")
    assert "gcd" in names_in(source, "principal_ideal")
    assert names_in(source, "check_invariants") >= {
        "in_principal_ideal", "ideal_order", "gcd"}


# public names that no package module reads, each with a reader elsewhere:
# the references that perfbench/tracer.py resolves by name in their modules;
# associate_classes, the tests' class oracle since analyze counts the gcd
# signatures, stays in rings for the tracer until it moves to the tests, as
# vertices, whose labels the build reads from signature_codes, and
# is_perfect_desk_scale, since perfection is the validated order returning
UNREAD_REFERENCES = {"max_clique", "find_odd_hole", "are_isomorphic",
                     "validate_certificate", "principal_ideal",
                     "in_principal_ideal", "associate_classes", "vertices",
                     "is_perfect_desk_scale"}


def unread_public_names(sources: dict[str, str]) -> list[str]:
    """The public top-level functions and classes of rings, graphs and
    solvers that no module but __init__ reads outside their own definition:
    their own module by a bare name, another by importing the name from it
    or by reading it off a bound alias of it, so a local of the same name
    is no read."""
    trees = {m: ast.parse(src) for m, src in sources.items() if m != "__init__"}
    imported = {(module, name) for tree in trees.values()
                for module, name, _ in package_reads(tree)}
    unread = []
    for module in ("rings", "graphs", "solvers"):
        for node in trees[module].body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and (module, node.name) not in imported
                    and not any(isinstance(n, ast.Name) and n.id == node.name
                                for stmt in trees[module].body if stmt is not node
                                for n in ast.walk(stmt))):
                unread.append(node.name)
    return unread


def package_sources() -> dict[str, str]:
    return {m: (SRC / f"{m}.py").read_text() for m in MODULES}


def test_every_public_name_is_read_by_the_package():
    # exactly: a reference that the package reads again leaves the list
    assert set(unread_public_names(package_sources())) == UNREAD_REFERENCES


def test_unread_references_are_tracer_pins(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    pinned = {(module.removeprefix("cozero."), name)
              for module, name in tracer.SPANNED + tracer.COUNTED}
    sources = package_sources()
    defined = {node.name: m for m in ("rings", "graphs", "solvers")
               for node in ast.parse(sources[m]).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert {(defined[name], name) for name in UNREAD_REFERENCES} <= pinned


def test_namespace_exports_only_names_the_package_reads():
    sources = package_sources()
    exported = {alias.name for node in ast.parse(sources["__init__"]).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert exported & (UNREAD_REFERENCES | set(unread_public_names(sources))) == set()


def test_unread_checker():
    sources = {
        "rings": ("class Spec:\n    pass\n"
                  "def unit(spec: Spec):\n    return unit(spec)\n"
                  "def vertices(spec):\n    return spec\n"),
        "graphs": ("from .rings import vertices\nx = vertices\n"
                   "def edges(g):\n    return g.edges\n"),
        # a local, and an attribute of no module, named like a public name
        "solvers": ("import math\nfrom . import graphs as gr\n"
                    "def solve(g):\n    edges, unit = g\n    return math.gcd(edges, unit)\n"
                    "def count(g):\n    return gr.edges(g)\n"),
        "verify": "def check(case):\n    return case.count\n",
        "__init__": "from .rings import unit\nfrom .solvers import solve\n",
    }
    assert unread_public_names(sources) == ["unit", "solve", "count"]


# what a function may call to write a dict, list or set in place
MUTATORS = {"append", "extend", "insert", "update", "setdefault", "add", "pop",
            "popitem", "clear", "remove", "discard", "__setitem__"}
CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def module_caches(source: str) -> list[str]:
    """What a module source keeps between calls: each function cached by
    functools.cache or lru_cache, each module-level name a function rebinds
    by a global statement, and each module-level dict, list or set that a
    function writes, by item or by a method that changes it."""
    tree = ast.parse(source)
    containers = set()  # the module-level names bound to a new dict, list or set
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if isinstance(node.value, CONTAINERS) or (
                isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) in {"dict", "list", "set"}):
            containers.update(t.id for t in targets if isinstance(t, ast.Name))
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in fn.decorator_list:
            called = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = getattr(called, "attr", None) or getattr(called, "id", None)
            if name in {"cache", "lru_cache"}:
                found.add(f"@{name} {fn.name}")
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                found.update(f"global {name}" for name in node.names)
            elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                  or isinstance(node, ast.Attribute) and node.attr in MUTATORS):
                if isinstance(node.value, ast.Name) and node.value.id in containers:
                    found.add(f"{fn.name} writes {node.value.id}")
    return sorted(found)


@pytest.mark.parametrize("module", MODULES)
def test_no_module_level_cache(module):
    assert module_caches((SRC / f"{module}.py").read_text()) == []


def test_module_cache_checker():
    source = ("import functools\n"
              "from functools import lru_cache\n"
              "TABLE = {}\n"
              "SEEN: list = []\n"
              "KINDS = dict(a=1)\n"
              "NAMES = ('a', 'b')\n"
              "COUNT = 0\n"
              "@functools.cache\n"
              "def cached(n):\n    return n\n"
              "@lru_cache(maxsize=None)\n"
              "def limited(n):\n    return n\n"
              "def fill(n, tables):\n"
              "    tables[n] = TABLE.get(n)\n"
              "    TABLE[n] = n\n"
              "    KINDS.setdefault(n, 0)\n"
              "    return NAMES[0], SEEN[-1]\n"
              "def count():\n"
              "    global COUNT\n"
              "    SEEN.append(COUNT)\n")
    assert module_caches(source) == [
        "@cache cached", "@lru_cache limited", "count writes SEEN", "fill writes KINDS",
        "fill writes TABLE", "global COUNT"]
