"""Checks on the package source itself."""

import ast
import pathlib

import decatkit


def test_package_has_no_assert_statements():
    # `python -O` strips asserts; invariants raise exactlin.InvariantError.
    src = pathlib.Path(decatkit.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
