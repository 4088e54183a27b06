"""Static checks on the package source, with the standard library's ast only."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ricci_spectrum"

# __init__.py imports names to re-export them, not to use them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def test_unused_import_check_sees_dead_names():
    source = "import math\nimport numpy as np\nfrom os import path, sep\nprint(np.pi, sep)\n"
    assert _unused_imports(source) == ["math", "path"]


def test_package_has_modules():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []
