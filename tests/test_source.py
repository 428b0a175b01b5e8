"""Source-level guards on the package itself."""

import ast
import pathlib

import padic_mahler

PACKAGE = pathlib.Path(padic_mahler.__file__).parent


def test_no_bare_asserts():
    # runtime checks must raise typed errors: python -O strips asserts
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
