"""One spelling per operation: element arithmetic goes through the module
functions (bd_add, bdt_mul, k_scale, ...).  Only Scalar, the number type,
overloads the arithmetic operators."""

import ast
from pathlib import Path

import bdtk

PACKAGE = Path(bdtk.__file__).parent
OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__"}


def test_only_scalar_overloads_arithmetic():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef) or node.name == "Scalar":
                continue
            names = {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
            names |= {t.id for n in node.body if isinstance(n, ast.Assign)
                      for t in n.targets if isinstance(t, ast.Name)}
            found += [f"{path.name}:{node.name}.{name}" for name in sorted(names & OPERATORS)]
    assert not found, f"operators outside Scalar: {', '.join(found)}"
