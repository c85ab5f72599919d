"""No dead names in the package: every name a module imports is used in it,
and every private module-level name is read somewhere in the repository's
code.  ``__init__.py``'s imports are its public re-exports, so it is not
checked for unused imports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "shaprank").glob("*.py"))
# the code that may read a private name of the package
CODE = PACKAGE + sorted(
    path for folder in ("tests", "scripts", "perfbench") for path in (ROOT / folder).rglob("*.py")
)


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def names_read(tree, attributes: bool = True) -> set:
    """The identifiers ``tree`` reads: names other than assignment targets,
    with ``attributes`` also attribute names and names imported from other
    modules.  A string that parses as an expression (an annotation, a
    ``monkeypatch`` target) is read as that expression."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif attributes and isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif attributes and isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                read |= names_read(ast.parse(node.value, mode="eval"), attributes)
            except (SyntaxError, ValueError):
                pass
    return read


def imported_names(tree) -> list:
    """The names that the module's imports bind, except ``__future__``'s."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    return bound


def private_definitions(tree) -> list:
    """The private, non-dunder names the module binds at its top level."""
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in bound if name.startswith("_") and not name.startswith("__")]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = parse(path)
    read = names_read(tree, attributes=False)
    unused = [name for name in imported_names(tree) if name not in read]
    assert not unused, f"{path.name} imports {unused} and never uses them"


def test_every_private_module_level_name_is_read():
    read = set().union(*(names_read(parse(path)) for path in CODE))
    unread = [f"{path.name}: {name}" for path in PACKAGE
              for name in private_definitions(parse(path)) if name not in read]
    assert not unread, f"private names that nothing reads: {unread}"


def test_the_checks_see_what_they_look_for():
    tree = ast.parse("from typing import Sequence, Optional\nimport os.path\n"
                     "_USED = 1\n_DEAD = 2\ndef _helper(x: 'Optional[int]'): return _USED\n")
    read = names_read(tree, attributes=False)
    assert [name for name in imported_names(tree) if name not in read] == ["Sequence", "os"]
    assert private_definitions(tree) == ["_USED", "_DEAD", "_helper"]
    assert "_DEAD" not in names_read(tree) and "_USED" in names_read(tree)
