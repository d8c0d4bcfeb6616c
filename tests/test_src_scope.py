"""The package holds what the ``wedge`` commands run.  Every top-level
function and class in src/wedgeflow, and every method and property of its
classes, is referenced by package code outside its own body; the oracles
that only the tests read live under tests/.

The guard counts names, not bindings: a member whose name another
referenced member shares passes unseen.  Arc.tangent, read only by a test,
passed because ShockSolution.tangent is read in the package."""

import ast
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wedgeflow"

# unreferenced in the package, kept on purpose
ALLOWED = {
    "CompositeField": "perfbench's tracer wraps CompositeField.evaluate",
    "horizontal_downstream_shock": "perfbench's corner-family workload calls it",
}
ALLOWED_MEMBERS = {
    "CompositeField.evaluate": "perfbench's tracer wraps it",
}


def _names(node) -> Counter:
    """Every name read or attribute taken in node, with its count."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _trees():
    return [ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))]


def _unreferenced(trees, defs) -> set:
    """The qualified names of the defs whose name the package reads only
    inside the def's own body."""
    used = sum((_names(t) for t in trees), Counter())
    return {name for name, d in defs if used[d.name] == _names(d)[d.name]}


def test_every_top_level_name_is_referenced_by_the_package():
    trees = _trees()
    defs = [(n.name, n) for t in trees for n in t.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    assert _unreferenced(trees, defs) == set(ALLOWED)


def test_every_method_and_property_is_referenced_by_the_package():
    # dunder methods are called by the language, not by name
    trees = _trees()
    defs = [
        (f"{c.name}.{m.name}", m)
        for t in trees
        for c in t.body
        if isinstance(c, ast.ClassDef)
        for m in c.body
        if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
    ]
    assert _unreferenced(trees, defs) == set(ALLOWED_MEMBERS)


# the modules of the elliptic route may also import the scipy modules of its
# sparse and banded solves; every other module imports the standard library,
# numpy and the package alone, so that polar, pattern and simulate load
# numpy alone
SCIPY_MODULES = {"elliptic", "diagnostics"}
SCIPY_SOLVES = {"scipy.linalg", "scipy.sparse", "scipy.sparse.linalg"}


def test_module_level_imports_stay_in_their_layer():
    roots = set(sys.stdlib_module_names) | {"numpy", "wedgeflow"}
    outside = []
    for path in sorted(SRC.glob("*.py")):
        allowed = SCIPY_SOLVES if path.stem in SCIPY_MODULES else set()
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay in the package
            outside += [
                f"{path.stem}: {name}"
                for name in names
                if name.split(".")[0] not in roots and name not in allowed
            ]
    assert outside == []
