"""Dead-code hygiene: every module-level function of a bdtk module is
referenced by name somewhere other than its own body, in bdtk (the
re-exports of __init__ do not count), in the tests or in perfbench."""

import ast
from pathlib import Path

import pytest

import bdtk

PACKAGE = Path(bdtk.__file__).parent
REPO = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((REPO / "tests").glob("*.py")) \
    + sorted((REPO / "perfbench").glob("*.py"))


def _referenced_names() -> list[tuple[str | None, set[str]]]:
    """(name of the function it defines or None, names it uses) for every
    top-level statement of every source; import statements use no name."""
    out = []
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            owner = node.name if isinstance(node, ast.FunctionDef) else None
            out.append((owner, {n.id if isinstance(n, ast.Name) else n.attr
                                for n in ast.walk(node)
                                if isinstance(n, (ast.Name, ast.Attribute))}))
    return out


REFERENCES = _referenced_names()


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_module_level_function_is_referenced(path):
    defined = [node for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.FunctionDef)]
    unreferenced = [f"{fn.name} (line {fn.lineno})" for fn in defined
                    if not any(fn.name in names for owner, names in REFERENCES
                               if owner != fn.name)]
    assert not unreferenced, f"unreferenced functions in {path.name}: {', '.join(unreferenced)}"
