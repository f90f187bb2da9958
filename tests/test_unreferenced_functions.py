"""Dead-code hygiene: every module-level function and constant of a bdtk
module is referenced by name somewhere other than its own definition, in
bdtk (the re-exports of __init__ do not count), in the tests or in
perfbench.  Dunder names such as __all__ are exempt."""

import ast
from pathlib import Path

import pytest

import bdtk

PACKAGE = Path(bdtk.__file__).parent
REPO = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((REPO / "tests").glob("*.py")) \
    + sorted((REPO / "perfbench").glob("*.py"))


def _defined_names(node: ast.stmt) -> set[str]:
    """The names a top-level statement defines: a function's, or the plain
    names an assignment binds."""
    if isinstance(node, ast.FunctionDef):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _referenced_names() -> list[tuple[set[str], set[str]]]:
    """(names it defines, names it uses) for every top-level statement of
    every source; import statements use no name."""
    return [(_defined_names(node), {n.id if isinstance(n, ast.Name) else n.attr
                                    for n in ast.walk(node)
                                    if isinstance(n, (ast.Name, ast.Attribute))})
            for path in SOURCES for node in ast.parse(path.read_text()).body]


REFERENCES = _referenced_names()


def _unreferenced(names: list[tuple[str, int]]) -> list[str]:
    return [f"{name} (line {lineno})" for name, lineno in names
            if not any(name in used for owners, used in REFERENCES if name not in owners)]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_module_level_function_is_referenced(path):
    unreferenced = _unreferenced([(node.name, node.lineno)
                                  for node in ast.parse(path.read_text()).body
                                  if isinstance(node, ast.FunctionDef)])
    assert not unreferenced, f"unreferenced functions in {path.name}: {', '.join(unreferenced)}"


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_module_level_constant_is_referenced(path):
    unreferenced = _unreferenced([(name, node.lineno)
                                  for node in ast.parse(path.read_text()).body
                                  if isinstance(node, (ast.Assign, ast.AnnAssign))
                                  for name in sorted(_defined_names(node))
                                  if not (name.startswith("__") and name.endswith("__"))])
    assert not unreferenced, f"unreferenced constants in {path.name}: {', '.join(unreferenced)}"
