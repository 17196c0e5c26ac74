"""Checks on the package source itself."""

import ast
import pathlib

import decatkit


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, and `raise AssertionError` hides which
    # invariant failed; both are exactlin.InvariantError instead.
    src = pathlib.Path(decatkit.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    assert found == []


def test_only_the_cli_writes_documents():
    # `cli.py` alone knows the keys of a JSON document; a report type
    # carries fields, not a serialization.
    src = pathlib.Path(decatkit.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and node.name == "to_json"
    ]
    assert found == []


def test_documents_are_written_without_json_dump():
    # json.dump with indent runs the pure-Python encoder, one write per
    # token; `cli.write_document` lays out the same bytes in batches.
    src = pathlib.Path(decatkit.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "dump"
    ]
    assert found == []
