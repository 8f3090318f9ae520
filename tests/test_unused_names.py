"""Every function, method and class in ``src/mqsim`` has a caller in the
program: a reference in ``src/`` or ``perfbench/`` other than its own
definition, an import of it, or an entry of an ``__all__`` list.  Code that
only tests call is a second path the simulator never runs."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mqsim"
PROGRAM = (ROOT / "src", ROOT / "perfbench")

# Reference definitions that the program computes another way and the
# tests check it against:
# - step_f is the paper's step function f(x) = 1 if x >= 1 else 0.  The chain
#   in comm_breakdown folds it into its case tests, but the tests' reference
#   chain (tests/oracle_reference.py) spells the paper's formulas out with it.
ALLOWED = {"step_f"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def references(tree: ast.Module) -> set[str]:
    """Names read as a variable or an attribute, or imported under another
    name.  A plain import, an ``__all__`` string and a docstring are not
    references."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias) and node.asname:
            found.add(node.name)
    return found


def definitions(tree: ast.Module) -> set[str]:
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def unreferenced() -> list[str]:
    defined = set()
    for path in PACKAGE.rglob("*.py"):
        defined |= definitions(_parse(path))
    used = set()
    for top in PROGRAM:
        for path in top.rglob("*.py"):
            used |= references(_parse(path))
    return sorted(defined - used - ALLOWED)


def test_every_definition_has_a_program_reference():
    assert unreferenced() == []


def test_guard_sees_a_name_only_its_definition_mentions():
    tree = ast.parse("__all__ = ['lonely']\n"
                     "from m import lonely\n"
                     "def lonely():\n    '''lonely'''\n"
                     "def used():\n    pass\n"
                     "x = used\n")
    assert definitions(tree) - references(tree) == {"lonely"}
