"""Import hygiene: every module-level import in a bdtk module is used there."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bdtk

MODULES = sorted(p for p in Path(bdtk.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update({(a.asname or a.name).split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update({a.asname or a.name: node.lineno for a in node.names})
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)
    assert not unused, f"unused imports in {path.name}: {', '.join(unused)}"


def test_import_loads_no_scipy():
    # scipy.linalg adds about 0.3 s to `import bdtk`, which every CLI call pays
    # (setup_s in perfbench): the modules that use scipy import it lazily
    src = str(Path(bdtk.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, bdtk; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
