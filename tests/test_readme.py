"""The README's library example runs as written and prints what its comments
say: an exact comment is matched verbatim, "x within t" to within t."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _example() -> str:
    text = README.read_text()
    return re.search(r"## Library example\n\n```python\n(.*?)```", text, re.S).group(1)


def test_library_example_runs_and_prints_its_comments():
    code = _example()
    expected = [line.partition("# ")[2].strip() for line in code.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    got = out.getvalue().splitlines()
    assert len(got) == len(expected)
    for line, want in zip(got, expected):
        value, _, tol = want.partition(" within ")
        if tol:
            assert abs(float(line) - float(value)) <= float(tol), (line, want)
        else:
            assert line == want
