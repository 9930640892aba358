"""The library computes without floating point: no float literal and no
float() call appears anywhere in its source."""

import ast
from pathlib import Path

import isrlab

SOURCES = sorted(Path(isrlab.__file__).parent.glob("*.py"))


def _floats(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, repr(node.value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float(...)"


def test_no_float_in_library_source():
    assert SOURCES
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in _floats(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, found
