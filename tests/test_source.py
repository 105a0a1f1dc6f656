"""Source hygiene of the fgw package, checked on its syntax trees.

Core claims:
    - no module of fgw imports a name that it never uses, and __init__
      imports nothing at all
    - the one product loop, radial._product_sums, is called only inside
      radial, and theorems reads its products through sphere_product,
      never through convolve_radial
    - the ground truth stays out of the certifier paths: only cli (for
      convolve --oracle) imports oracle; in a fresh interpreter, import
      fgw loads no submodule, and importing every certifier module (words,
      radial, lorentz, operators, theorems, reportio) leaves fgw.oracle
      unloaded
    - every top-level function of _kernels is called in fgw outside
      oracle, so no kernel is kept alive by the oracle or the tests alone
    - report text has one writer: no module of fgw imports csv, and only
      reportio imports from json
    - every top-level private function and class of fgw is named somewhere
      in fgw outside its own definition, so a refactor leaves no orphan

No linter ships with the test dependencies, so the check is made here
with the standard library's ast.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fgw

PACKAGE = Path(fgw.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


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


def called_names(source: str) -> set:
    """Names called in source, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return names


def test_called_names_are_found():
    source = "f(1)\nmod.g(h)\nx.y.z()\n"
    assert called_names(source) == {"f", "g", "z"}


def test_product_loop_is_called_only_in_radial():
    callers = [p.name for p in MODULES if "_product_sums" in called_names(p.read_text(encoding="utf-8"))]
    assert callers == ["radial.py"]


def test_theorems_never_calls_convolve_radial():
    source = (PACKAGE / "theorems.py").read_text(encoding="utf-8")
    assert "convolve_radial" not in called_names(source)


def imported_modules(source: str) -> set:
    """Last components of the modules that source imports, in any form."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and not node.module):
            names.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module.split(".")[-1])
    return names


def test_imported_modules_are_found():
    source = "import a.b\nfrom .c import d\nfrom . import e\nfrom f import g as h\n"
    assert imported_modules(source) == {"b", "c", "e", "f"}


def test_init_has_no_import_statement():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_only_cli_imports_the_oracle():
    importers = [p.name for p in MODULES if "oracle" in imported_modules(p.read_text(encoding="utf-8"))]
    assert importers == ["cli.py"]


def loaded_after(statement: str) -> list:
    """The fgw modules a fresh interpreter holds after running statement."""
    path = os.pathsep.join(p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    code = (
        f"import sys\n{statement}\n"
        "print(*sorted(m for m in sys.modules if m == 'fgw' or m.startswith('fgw.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    return done.stdout.split()


def test_import_fgw_loads_no_submodule():
    assert loaded_after("import fgw") == ["fgw"]


def test_certifier_modules_leave_the_oracle_unloaded():
    certifiers = ("words", "radial", "lorentz", "operators", "theorems", "reportio")
    loaded = loaded_after("import " + ", ".join(f"fgw.{name}" for name in certifiers))
    assert {f"fgw.{name}" for name in certifiers} <= set(loaded)
    assert "fgw.oracle" not in loaded


def test_every_kernel_is_called_outside_the_oracle():
    source = (PACKAGE / "_kernels.py").read_text(encoding="utf-8")
    kernels = {node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    called = set()
    for path in MODULES:
        if path.name != "oracle.py":
            called |= called_names(path.read_text(encoding="utf-8"))
    assert sorted(kernels - called) == []


def absolute_imports(source: str) -> set:
    """First components of the absolute modules that source imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_absolute_imports_are_found():
    source = "import a.b\nfrom .c import d\nfrom . import e\nfrom f.g import h as i\nimport j as k\n"
    assert absolute_imports(source) == {"a", "f", "j"}


def test_only_reportio_writes_report_text():
    sources = {p.name: absolute_imports(p.read_text(encoding="utf-8")) for p in MODULES}
    importers = {mod: [name for name, mods in sources.items() if mod in mods] for mod in ("csv", "json")}
    assert importers == {"csv": [], "json": ["reportio.py"]}


def orphans(sources: dict) -> list:
    """(module, name) of each top-level private def or class named nowhere else.

    sources maps a module name to its text.  A name counts as used when it
    is read as a bare name or as an attribute in any top-level statement of
    any module other than its own definition, so recursion does not count.
    """
    statements = [(mod, node) for mod, text in sources.items() for node in ast.parse(text).body]
    named = [
        {
            sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))
        }
        for _, node in statements
    ]
    found = []
    for i, (mod, node) in enumerate(statements):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_") or node.name.startswith("__"):
            continue
        if not any(node.name in names for j, names in enumerate(named) if j != i):
            found.append((mod, node.name))
    return found


def test_orphans_are_found():
    a = (
        "def _used():\n    pass\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "class _Orphan:\n    pass\n"
        "def _imported():\n    pass\n"
        "def _by_attribute():\n    pass\n"
        "def __dunder__():\n    pass\n"
        "def public():\n    return _used()\n"
    )
    b = "import a\nfrom a import _imported\nx = a._by_attribute\n"
    assert orphans({"a": a, "b": b}) == [("a", "_recursive"), ("a", "_Orphan"), ("a", "_imported")]


def test_every_private_definition_is_used():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert orphans(sources) == []
