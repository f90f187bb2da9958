"""Parameter hygiene: every parameter of a function in a bdtk module is read
somewhere in that function's body."""

import ast
from pathlib import Path

import pytest

import bdtk

MODULES = sorted(p for p in Path(bdtk.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unread_parameters(tree: ast.AST) -> list[str]:
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"{fn.name}({p}) (line {fn.lineno})" for p in params if p not in read]
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_parameter_is_read(path):
    unread = _unread_parameters(ast.parse(path.read_text()))
    assert not unread, f"unread parameters in {path.name}: {', '.join(unread)}"
