"""Guards on the package source itself."""

import ast
from pathlib import Path

import constel


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts, so a self-check must raise instead
    found = []
    for path in sorted(Path(constel.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, found
