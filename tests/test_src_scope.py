"""The package holds what the ``wedge`` commands run.  Every top-level
function and class in src/wedgeflow is referenced by package code outside
its own body; the oracles that only the tests read live under tests/."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wedgeflow"

# unreferenced in the package, kept on purpose
ALLOWED = {
    "CompositeField": "perfbench's tracer wraps CompositeField.evaluate",
    "horizontal_downstream_shock": "perfbench's corner-family workload calls it",
}


def _names(node) -> Counter:
    """Every name read or attribute taken in node, with its count."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_top_level_name_is_referenced_by_the_package():
    trees = [ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))]
    used = sum((_names(t) for t in trees), Counter())
    defs = [n for t in trees for n in t.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    unreferenced = {d.name for d in defs if used[d.name] == _names(d)[d.name]}
    assert unreferenced == set(ALLOWED)
