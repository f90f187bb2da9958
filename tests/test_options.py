"""Options census: every defaulted parameter of a function in a bdtk module is
passed by some call in src/bdtk or perfbench, by keyword, by position or
through * / **.  A default that no call overrides is a constant.

A function that is also referenced as a value (a suite in verify.SUITES, a
callback) is exempt, because its calls cannot be seen.  A call that passes a
parameter its own default value, as a literal keyword argument, overrides
nothing and is flagged too: it would otherwise hide an unused option."""

import ast
import importlib
import inspect
from pathlib import Path

import bdtk

SRC = Path(bdtk.__file__).parent
CALLERS = sorted(SRC.glob("*.py")) + sorted((SRC.parents[1] / "perfbench").glob("*.py"))


def _called_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _defaulted(fn: ast.FunctionDef, method: bool) -> list[tuple[int | None, str]]:
    """(position or None for keyword-only, name) of each defaulted parameter;
    positions skip the self or cls of a method."""
    a = fn.args
    positional = [p.arg for p in a.posonlyargs + a.args]
    if method and not any(_called_name(d) == "staticmethod" for d in fn.decorator_list):
        positional = positional[1:]
    out = [(i, p) for i, p in enumerate(positional) if i >= len(positional) - len(a.defaults)]
    return out + [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def _defaulted_parameters() -> dict[str, list[tuple[str, int | None, str]]]:
    """function name -> (module, position, parameter) of its defaulted
    parameters, over every function defined in src/bdtk."""
    out: dict[str, list] = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.setdefault(fn.name, []).extend(
                    (path.stem, i, p) for i, p in _defaulted(fn, id(fn) in methods))
    return out


def _passed_and_referenced() -> tuple[set[tuple[str, int | str]], set[str]]:
    """(function name, position or keyword) of every argument passed by a
    call, with "*" for an unpacked sequence and "**" for an unpacked mapping;
    and the names referenced other than as the callee of a call or as the
    namespace of an attribute (the module in bk.ulc.UlcFunction)."""
    passed, referenced = set(), set()
    for path in CALLERS:
        tree = ast.parse(path.read_text())
        not_values = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                not_values.add(id(node.value))
            if not isinstance(node, ast.Call) or _called_name(node.func) is None:
                continue
            name = _called_name(node.func)
            not_values.add(id(node.func))
            for i, arg in enumerate(node.args):
                passed.add((name, "*" if isinstance(arg, ast.Starred) else i))
            passed.update((name, kw.arg or "**") for kw in node.keywords)
        for node in ast.walk(tree):
            if id(node) in not_values:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                referenced.add(node.attr)
    return passed, referenced


def test_every_default_is_overridden_somewhere():
    passed, referenced = _passed_and_referenced()
    never = []
    for name, params in _defaulted_parameters().items():
        if name in referenced or {(name, "*"), (name, "**")} & passed:
            continue
        never += [f"{module}.{name}({p})" for module, i, p in params
                  if (name, p) not in passed and (i is None or (name, i) not in passed)]
    assert not never, f"defaults that no call overrides: {', '.join(sorted(never))}"


def _runtime_defaults() -> dict[str, list[dict[str, object]]]:
    """function name -> {parameter: default} of each function, method and
    static method of that name defined in a bdtk module (inspect.signature)."""
    out: dict[str, list] = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        mod = importlib.import_module(f"bdtk.{path.stem}")
        owned = [v for v in vars(mod).values() if getattr(v, "__module__", None) == mod.__name__]
        fns = [v for v in owned if inspect.isfunction(v)]
        for cls in filter(inspect.isclass, owned):
            fns += [getattr(v, "__func__", v) for v in vars(cls).values()
                    if inspect.isfunction(getattr(v, "__func__", v))]
        for fn in fns:
            out.setdefault(fn.__name__, []).append(
                {p.name: p.default for p in inspect.signature(fn).parameters.values()
                 if p.default is not inspect.Parameter.empty})
    return out


def test_no_call_passes_a_default_value():
    defaults = _runtime_defaults()
    flagged = []
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node.func)
            for kw in node.keywords:
                try:
                    value = ast.literal_eval(kw.value)
                except ValueError:
                    continue
                if any(kw.arg in d and type(d[kw.arg]) is type(value) and d[kw.arg] == value
                       for d in defaults.get(name, ())):
                    flagged.append(f"{path.name}:{node.lineno} {name}({kw.arg}={value!r})")
    assert not flagged, f"calls that pass a default value: {', '.join(flagged)}"
