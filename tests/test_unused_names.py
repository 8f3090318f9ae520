"""Every function, method, class and module-level name in ``src/mqsim`` has
a caller in the program: a reference in ``src/`` or ``perfbench/`` other
than its own definition or assignment, an import of it, or an entry of an
``__all__`` list.  Every dataclass field and every attribute stored in
``src/mqsim`` is read, as an attribute, somewhere in the program.  Code
that only tests call, and state that only tests read, is a second path the
simulator never runs.

Both checks match by bare name, so they have blind spots: a definition or a
field is taken as used when any other one of the same name is.
``Message.nbytes`` went unflagged while it existed, because
``Send.nbytes`` was read.  Dunder names are skipped, and
parameters and their defaults are not checked at all."""

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
# Stored values the program never reads, for the same reason:
# - r is the paper's R (elapsed sender periods, unfloored), which the
#   reference chain in tests/oracle_reference.py computes and compares.
ALLOWED_UNREAD = {"r"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def references(tree: ast.Module) -> set[str]:
    """Names read as a variable or an attribute, or imported under another
    name.  An assignment, a plain import, an ``__all__`` string and a
    docstring are not references."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
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


def module_names(tree: ast.Module) -> set[str]:
    """Names a module's top-level statements assign, dunders skipped."""
    found = set()
    for st in tree.body:
        targets = st.targets if isinstance(st, ast.Assign) else (
            [st.target] if isinstance(st, ast.AnnAssign) else [])
        found |= {node.id for t in targets for node in ast.walk(t)
                  if isinstance(node, ast.Name)}
    return {n for n in found if not (n.startswith("__") and n.endswith("__"))}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def stored(tree: ast.Module) -> set[str]:
    """Dataclass fields and attributes assigned as ``obj.name = ...``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            found |= {st.target.id for st in node.body
                      if isinstance(st, ast.AnnAssign)
                      and isinstance(st.target, ast.Name)}
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            found.add(node.attr)
    return found


def attribute_reads(tree: ast.Module) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread() -> list[str]:
    kept = set()
    for path in PACKAGE.rglob("*.py"):
        kept |= stored(_parse(path))
    read = set()
    for top in PROGRAM:
        for path in top.rglob("*.py"):
            read |= attribute_reads(_parse(path))
    return sorted(kept - read - ALLOWED_UNREAD)


def unreferenced() -> list[str]:
    defined = set()
    for path in PACKAGE.rglob("*.py"):
        tree = _parse(path)
        defined |= definitions(tree) | module_names(tree)
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


def test_guard_sees_a_constant_only_its_assignment_mentions():
    tree = ast.parse("__version__ = '1'\n"
                     "LIMIT, _LEFT = 8, 2\n"
                     "_USED: int = 3\n"
                     "def f(x):\n    return min(x, LIMIT + _USED)\n")
    assert module_names(tree) - references(tree) == {"_LEFT"}


def test_every_stored_value_is_read():
    assert unread() == []


def test_guard_sees_a_field_only_its_writer_touches():
    tree = ast.parse("from dataclasses import dataclass\n"
                     "@dataclass\n"
                     "class Job:\n    label: str\n    work: int\n"
                     "def run(job, engine):\n"
                     "    engine.note = job.work\n"
                     "    engine.count += 1\n"
                     "    return Job(label='x', work=engine.count)\n")
    assert stored(tree) - attribute_reads(tree) == {"label", "note"}
