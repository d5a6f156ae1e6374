"""Validation must not depend on ``assert``.  ``python -O`` strips assert
statements and the code under ``__debug__``, and changes nothing else, so
a library that holds neither behaves the same under it.  Every module of
``src/coxmon`` is parsed, and none may hold either: this covers every line
of the library, where a rerun of the tests under ``-O`` covers only the
lines they reach."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "coxmon"
MODULES = {"__init__.py", "cli.py", "elements.py", "exact.py", "graphs.py",
           "monoid.py", "morphisms.py", "partitions.py"}


def stripped_under_optimize(source: str) -> list:
    """The line of every assert statement and every ``__debug__`` name in
    ``source``: what ``python -O`` would strip or fold away."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert)
                  or isinstance(node, ast.Name) and node.id == "__debug__")


def test_library_holds_nothing_python_optimize_strips():
    # the checker sees both kinds, and passes code that raises instead
    assert stripped_under_optimize("def f(x):\n    assert x > 0\n    return x\n") == [2]
    assert stripped_under_optimize("x = 1\nif __debug__:\n    check(x)\n") == [2]
    assert stripped_under_optimize("def f(x):\n    if x <= 0:\n        raise ValueError\n") == []
    paths = sorted(SRC.rglob("*.py"))
    # a scan of no file would pass: every module must have been read
    assert MODULES <= {p.name for p in paths}
    found = {str(p.relative_to(SRC)): stripped_under_optimize(p.read_text(encoding="utf-8"))
             for p in paths}
    assert {name: lines for name, lines in found.items() if lines} == {}
