"""Source-level guards on the package."""

import ast
from pathlib import Path

import tempest

PACKAGE = Path(tempest.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips assert; invariants must raise explicit exceptions
    found = []
    for path in sorted(PACKAGE.glob("**/*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"
