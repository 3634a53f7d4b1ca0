"""Source-level rules for the package."""

import ast
import importlib
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


def _stdout_writes(source: str) -> list[str]:
    """``scope:line`` of each ``print`` call and each ``sys.stdout`` in a
    module outside ``run`` and ``_Parser.print_help``."""
    tree = ast.parse(source)
    scopes = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            scopes += [(f"{node.name}.{getattr(item, 'name', '')}", item) for item in node.body]
        else:
            scopes.append((getattr(node, "name", "<module>"), node))
    return [
        f"{name}:{sub.lineno}"
        for name, node in scopes if name not in ("run", "_Parser.print_help")
        for sub in ast.walk(node)
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
            and sub.func.id == "print")
        or (isinstance(sub, ast.Attribute) and sub.attr == "stdout"
            and isinstance(sub.value, ast.Name) and sub.value.id == "sys")
    ]


def test_cli_run_is_the_only_stdout_writer():
    """In ``cli``, only ``run`` calls ``print`` or touches ``sys.stdout``
    (argparse's help goes through ``_Parser.print_help``): each verb
    returns its text."""
    assert _stdout_writes(
        "import sys\ndef run():\n    print(1)\ndef f():\n    def g():\n        print(2)\n"
        "    sys.stdout.write('x')\nclass _Parser:\n    def print_help(self):\n"
        "        sys.stdout.write('h')\n    def exit(self):\n        print(3)\n"
        "print(4)\n") == ["f:6", "f:7", "_Parser.exit:12", "<module>:13"]
    assert _stdout_writes((PACKAGE / "cli.py").read_text()) == []


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


def _unused_imports(source: str) -> list[str]:
    """Module-level imports whose bound name is never read as a name in
    the module and is not listed in ``__all__``."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    found = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [f"{node.lineno} imports {a.asname or a.name}" for a in node.names
                      if (a.asname or a.name.split(".")[0]) not in used]
    return found


def test_no_unused_imports():
    assert _unused_imports("import os\nfrom . import weyl as w\n__all__ = ['w']\n") == [
        "1 imports os"]
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in _unused_imports(path.read_text())]
    assert found == []


ROOT = Path(__file__).resolve().parent.parent


def _definitions(tree: ast.Module):
    """``(node, is_method)`` for the top-level functions and classes, and
    the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node, False
        if isinstance(node, ast.ClassDef):
            yield from ((item, True) for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _reads(tree: ast.Module):
    """``(name, line, bare)`` for every name a module loads (``bare``), and
    every attribute or string it reads.  A store is no read, and only an
    attribute or a string can reach a method."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno, False


def _unused_definitions(sources: dict[str, str], package: set[str]) -> list[str]:
    """Definitions in the ``package`` files that no file reads outside
    the lines of the definition itself; dunders are exempt."""
    trees = {path: ast.parse(text, path) for path, text in sources.items()}
    reads = {(path, *read) for path, tree in trees.items() for read in _reads(tree)}
    found = []
    for path in sorted(package):
        for node, is_method in _definitions(trees[path]):
            name, lines = node.name, range(node.lineno, node.end_lineno + 1)
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(n == name and not (p == path and line in lines)
                       and not (is_method and bare)
                       for p, n, line, bare in reads):
                found.append(f"{Path(path).name}:{node.lineno} {name}")
    return found


#: The definitions nothing in ``src/`` or ``bench/`` reads, each with the
#: reason it stays.  Reads from tests do not count: a test alone keeps
#: nothing alive.
KEPT_FOR = {
    "print_help": "argparse calls it for --help: a closed stdout must end help "
                  "as it ends any verb",
    "from_dict": "Diagram.from_dict inverts to_dict, which the JSON output writes "
                 "(README diagram row)",
    "parse_vector": "rootsys' parser for any vector, not only a root (README "
                    "rootsys row)",
    "simple_coefficients": "a root's coordinates in the simple roots (README "
                           "rootsys row)",
    "mat": "acceptance criterion 07 writes its Gram and Coxeter matrices with it",
    "word_matrix_from_gram": "acceptance criterion 07: the word matrix of the "
                             "obtuse square, which no root system realizes",
    "real_root_in_interval": "acceptance criterion 07: the Sturm-chain root of "
                             "that matrix's charpoly near 4.42",
    "is_product_of_cyclotomics": "acceptance criterion 07: that charpoly is not "
                                 "cyclotomic",
    "order_or_infinite": "acceptance criterion 07 and the README weyl row: "
                         "element order, or infinite for the obtuse square",
    "chain_root": "acceptance criterion 03: the theta/mu chain roots of the "
                  "pure D_l cycle",
    "verify_commutation": "acceptance criterion 04: the chain commutation "
                          "identities",
}


def test_no_unused_definitions():
    """Every function, class and method of the package is read somewhere
    in ``src/`` or ``bench/``, outside its own definition, or is kept in
    :data:`KEPT_FOR` with its reason; the two lists match exactly."""
    assert _unused_definitions(
        {"m.py": "def f():\n    return f()\n\nclass C:\n    def g(self):\n        pass\n"
                 "    def __len__(self):\n        return 0\n\nC().h\n"},
        {"m.py"}) == ["m.py:1 f", "m.py:5 g"]
    # A store reads nothing, and a bare name keeps no method alive: ``image``
    # is only assigned and ``g`` only loaded bare, while ``k`` is called bare.
    assert _unused_definitions(
        {"m.py": "class C:\n    def g(self):\n        pass\n"
                 "    def image(self):\n        pass\n\n"
                 "def k():\n    image = g = 1\n    return g\n\nk(C())\n"},
        {"m.py"}) == ["m.py:2 g", "m.py:4 image"]
    package = {str(p) for p in (ROOT / "src" / "weylcalc").glob("*.py")}
    sources = {str(p): p.read_text()
               for top in ("src", "bench") for p in sorted((ROOT / top).rglob("*.py"))}
    assert len(package) >= 8
    unread = [entry.split()[-1] for entry in _unused_definitions(sources, package)]
    assert sorted(unread) == sorted(KEPT_FOR)


def _tracer_boundaries() -> tuple[tuple[str, str, str], ...]:
    """``BOUNDARIES`` of ``bench/tracer.py``, read without importing it."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "BOUNDARIES" for t in node.targets)]
    return ast.literal_eval(value)


def test_tracer_boundaries_name_callables_of_the_package():
    """The benchmark tracer wraps each ``(layer, owner, attribute)`` and
    fails to install if one is gone: every one must name a callable."""
    boundaries = _tracer_boundaries()
    missing = []
    for _, owner, attr in boundaries:
        module, _, cls = owner.partition(":")
        target = importlib.import_module(f"weylcalc.{module}")
        if cls:
            target = getattr(target, cls, None)
        if not callable(getattr(target, attr, None)):
            missing.append(f"{owner}.{attr}")
    assert len(boundaries) >= 20
    assert missing == []
