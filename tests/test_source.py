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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_cross_module_private_access():
    """A module reads only the public names of the other package modules:
    neither ``mod._name`` nor ``from .mod import _name``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        modules = set()  # local names bound to package modules
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue  # package modules import each other relatively
            if node.module is None:  # from . import diagram as dg
                modules.update(a.asname or a.name for a in node.names)
            else:  # from .weyl import Perm
                found += [f"{path.name}:{node.lineno} imports {a.name}"
                          for a in node.names if _is_private(a.name)]
        found += [
            f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and _is_private(node.attr)
        ]
    assert found == []
