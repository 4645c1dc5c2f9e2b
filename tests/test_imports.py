"""Every name a module of stcores imports at its top level is used in that module.

No linter runs on the package, so this is what catches an import left
behind when its last use goes.  The only names kept unused on purpose are
re-exports: `stcores.__all__`, and `search`'s documented re-export of
`InfiniteFamilyError`.
"""

import ast
from pathlib import Path

import pytest

import stcores

PACKAGE = Path(stcores.__file__).parent
REEXPORTS = {"__init__.py": set(stcores.__all__), "search.py": {"InfiniteFamilyError"}}


def _imported(tree: ast.Module) -> set:
    """The names bound by the module's top-level imports, `__future__` aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _read(tree: ast.Module) -> set:
    """Every name the module reads, in code or in an annotation."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = _imported(tree) - _read(tree) - REEXPORTS.get(path.name, set())
    assert not unused, f"{path.name} imports {sorted(unused)} and never reads them"
