"""Static checks on the package source, with the standard library's ast only."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ricci_spectrum"

# __init__.py imports names to re-export them, not to use them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

#: Modules whose definitions need no reader in the package: tolerances.py
#: is the documented table of constants that the tests import.
EXEMPT = {"tolerances"}


def _unused_imports(source: str) -> list:
    """Names a module imports but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def _dead_definitions(sources: dict) -> list:
    """(module, name) of each module-level definition that no package module reads.

    ``sources`` maps a module's name ("__init__" for the package) to its
    source.  A function, class or assigned name counts as read when its own
    module loads it or another module imports it with ``from .module import``.
    Dunder names such as ``__all__`` are left out.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    imported = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported.update((node.module or "__init__", a.name) for a in node.names)
    dead = []
    for module, tree in trees.items():
        loaded = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [
                (module, name) for name in names
                if not name.startswith("__") and name not in loaded
                and (module, name) not in imported
            ]
    return dead


def test_dead_definition_check_sees_unread_names():
    sources = {
        "a": "X = 1\nY = 2\ndef f():\n    return X\nclass C:\n    pass\n",
        "b": "from .a import C\n__all__ = []\n",
    }
    assert _dead_definitions(sources) == [("a", "Y"), ("a", "f")]


def test_every_module_level_definition_is_read():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    dead = _dead_definitions(sources)
    assert [(module, name) for module, name in dead if module not in EXEMPT] == []


def test_unused_import_check_sees_dead_names():
    source = "import math\nimport numpy as np\nfrom os import path, sep\nprint(np.pi, sep)\n"
    assert _unused_imports(source) == ["math", "path"]


def test_package_has_modules():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_package_has_no_assert_statement():
    # python -O strips asserts, so a consistency check must raise explicitly
    asserts = [
        (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
