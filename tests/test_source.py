"""Source-level rules for the package."""

import ast
from pathlib import Path

import weylcalc

PACKAGE = Path(weylcalc.__file__).parent


def test_no_assert_statements():
    """``python -O`` strips ``assert``: a correctness check in the package
    must raise explicitly."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(PACKAGE.glob("*.py"))) >= 8
    assert found == []
