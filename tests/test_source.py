"""Source hygiene of the fgw package, checked on its syntax trees.

Core claims:
    - no module of fgw other than __init__ (which re-exports) imports a
      name that it never uses

No linter ships with the test dependencies, so the check is made here
with the standard library's ast.
"""

import ast
from pathlib import Path

import pytest

import fgw

MODULES = sorted(p for p in Path(fgw.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement of source and never read in it."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_unused_imports_are_found():
    source = "import math\nimport os.path\nfrom fractions import Fraction as F\nmath.pi\n"
    assert unused_imports(source) == ["F", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
