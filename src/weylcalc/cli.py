"""Command-line surface for the exact Weyl-group diagram toolkit.

Verbs
-----
rootsys     root count or the full root list of a family/rank
charpoly    characteristic polynomial of a reflection word
diagram     connection diagram of a root list, with admissibility verdict
transform   long-cycle elimination scripts as replayable JSON traces
verify      named verification suites, one PASS/FAIL line per item
orbits      W-orbit counts of orthogonal root pairs and triples
catalog     a stored diagram: representative roots and frozen polynomial
render-dot  Graphviz text for a diagram

Every command is pure: the same argument vector produces byte-identical
output.  Machine output is JSON (schemas versioned under schema/);
``--pretty`` renders a human layout instead.  Each verb returns
``(status, text)`` and :func:`run` alone writes stdout.  Exit status: 0 on
success, 1 when a verification item fails, a script integrity check trips
or anything else fails, 2 for usage errors or malformed input.  A ``verify``
row is ``_item(label, check, *args)``: PASS with the detail ``check(*args)``
returns, FAIL with what it raises.  A reader that closes stdout early ends
the command quietly with status 1.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Sequence

from . import diagram as dg
from . import oracle, rewrite, rootsys, weyl
from .exactla import (
    Vector,
    mat_mul,
    poly_str,
)

ROOT_GRAMMAR = """\
root literals:
  A root is written as a signed combination of the unit coordinates
  e1 up to the system's dimension, with optional positive integer
  coefficients:

      e1-e2        2e2         -e1+2e2-e3

  A trailing "/2" halves the entire combination, which is how the
  half-integer roots of E6/E7/E8 and F4 are spelled:

      e1-e2-e3-e4-e5-e6-e7+e8/2

  Spaces are ignored.  Lists of roots are comma-separated.
"""

#: ``transform`` names of the Table 1 scripts: d6b2 runs D6(b2).
_TRANSFORM_NAMES = {
    b.lower().replace("(", "").replace(")", ""): b for b in rewrite.TABLE1
}


class _UsageError(Exception):
    """Bad input that the caller can fix; reported with exit status 2."""


# ---------------------------------------------------------------------------
# Argument helpers


def _system_arg(name: str) -> rootsys.RootSystem:
    try:
        return rootsys.build_by_name(name)
    except (ValueError, KeyError) as exc:
        raise _UsageError(f"unknown root system {name!r}: {exc}") from exc


def _roots_arg(system: rootsys.RootSystem, text: str) -> tuple[Vector, ...]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise _UsageError("empty entry in the root list")
        try:
            out.append(system.parse_root(chunk))
        except ValueError as exc:
            raise _UsageError(f"cannot parse root {chunk!r}: {exc}") from exc
    return tuple(out)


def _diagram_args(args) -> tuple[rootsys.RootSystem, tuple[Vector, ...], dg.Diagram]:
    """``--system`` and ``--roots`` read, and the diagram of the roots."""
    system = _system_arg(args.system)
    roots = _roots_arg(system, args.roots)
    try:
        return system, roots, dg.from_roots(system, roots)
    except ValueError as exc:  # a dependent or repeated root list
        raise _UsageError(str(exc)) from exc


def _catalog_entry(name: str) -> dg.CatalogEntry:
    """The catalog entry ``name``, or a usage error that lists the valid
    names."""
    try:
        return dg.catalog(name)
    except KeyError as exc:
        names = ", ".join(dg.catalog_names())
        raise _UsageError(f"unknown catalog name {name!r}; valid names: {names}") from exc


def _answer(args, obj: Callable[[], dict], pretty: Callable[[], Iterable[str]]):
    """A data verb's ``(0, text)``: the lines of ``pretty()`` under
    ``--pretty``, else ``obj()`` as JSON.  Only the answer is built."""
    if args.pretty:
        return 0, "\n".join(pretty())
    return 0, _json(obj())


#: The JSON text of each scalar type, by exact type.
_SCALARS: dict[type, Callable[[object], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for dicts with str
    keys, lists, tuples, str, int, bool and None; any other value is a
    TypeError.  ``json`` writes ``indent`` in pure Python; this writer
    joins the lines itself and puts strings through the C encoder that
    ``json`` uses without ``indent``."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = newline + "  "
    if isinstance(value, dict):
        # the encoder raises TypeError for a key that is not a str
        items = [f"{encode_basestring_ascii(k)}: "
                 + (f(v) if (f := _SCALARS.get(type(v))) else _json(v, inner))
                 for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [f(v) if (f := _SCALARS.get(type(v))) else _json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    if isinstance(value, str):  # a subclass
        return encode_basestring_ascii(value)
    if isinstance(value, int):  # a subclass; bool has none
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# Commands


def _cmd_rootsys(args) -> tuple[int, str]:
    try:
        system = rootsys.build(args.family, args.rank)
    except (ValueError, KeyError) as exc:
        raise _UsageError(str(exc)) from exc
    if args.list:
        return 0, "\n".join(system.format_root(r) for r in system.roots)
    return _answer(args, lambda: {
        "schema": "rootsys.v1",
        "system": system.name(),
        "family": system.family,
        "rank": system.rank,
        "dim": system.dim,
        "count": len(system.roots),
        "t": int(system.ratio),
    }, lambda: [f"{system.name()}: {len(system.roots)} roots in dimension "
                f"{system.dim} (length ratio t = {int(system.ratio)})"])


def _cmd_charpoly(args) -> tuple[int, str]:
    system = _system_arg(args.system)
    word = _roots_arg(system, args.word)
    try:
        p = rewrite.word_charpoly(system, word)
    except ValueError as exc:  # a dependent or repeated root list
        raise _UsageError(str(exc)) from exc
    text = poly_str(p, "t")
    return _answer(args, lambda: {
        "schema": "charpoly.v1",
        "system": system.name(),
        "word": [system.format_root(r) for r in word],
        "charpoly": text,
    }, lambda: [f"charpoly = {text}"])


def _cmd_diagram(args) -> tuple[int, str]:
    system, roots, d = _diagram_args(args)
    admissible = dg.is_admissible(d)
    identified = dg.identify_components(d)

    def pretty():
        yield f"diagram on {d.n} roots in {system.name()}"
        for i, root in enumerate(roots):
            yield f"  v{i} = {system.format_root(root)}  ({'long' if d.longs[i] else 'short'})"
        for i, j, style in d.edges:
            yield f"  v{i} -- v{j}  ({style})"
        if not d.edges:
            yield "  no edges"
        yield f"admissible: {'yes' if admissible else 'no'}"
        yield f"identified: {identified if identified else 'not in the catalog'}"

    return _answer(args, lambda: {
        "schema": "diagram.v1",
        "system": system.name(),
        "roots": [system.format_root(r) for r in roots],
        "diagram": d.to_dict(),
        "admissible": admissible,
        "identify": identified,
    }, pretty)


def _parse_transform_name(raw: str) -> tuple[str, int | None]:
    token = raw.lower()
    if token in _TRANSFORM_NAMES:
        return _TRANSFORM_NAMES[token], None
    if token.startswith("dl:"):
        try:
            l = rootsys.parse_count(token[3:])
        except ValueError as exc:
            raise _UsageError(f"bad cycle length in {raw!r}") from exc
        return "Dl(b)", l
    raise _UsageError(
        f"unknown transformation {raw!r}; choose from "
        f"{', '.join(sorted(_TRANSFORM_NAMES))}, or dl:<l> with l even"
    )


def _cmd_transform(args) -> tuple[int, str]:
    name, l = _parse_transform_name(args.name)
    try:
        trace = rewrite.transform_long_cycle(name, l=l)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    system = trace.steps[0].state.system
    final_name = dg.identify(dg.from_roots(system, trace.final_state.word))

    def obj():
        steps = trace.to_json_obj()
        return {
            "schema": "trace.v1",
            "name": trace.name,
            "system": system.name(),
            "initial_word": steps[0]["word_roots"],
            "final_word": steps[-1]["word_roots"],
            "final_identify": final_name,
            "steps": steps,
        }

    def pretty():
        yield f"{trace.name}: {len(trace.steps) - 1} moves in {system.name()}"
        for i, step in enumerate(trace.steps):
            word = " ".join(system.format_root(r) for r in step.state.word)
            yield f"  {i:3d} [{step.op:5s}] {step.detail}"
            yield f"        {word}"
        yield f"final diagram: {final_name}"

    return _answer(args, obj, pretty)


def _cmd_verify(args) -> tuple[int, str]:
    rows = _SUITES[args.suite]()
    failed = sum(status == "FAIL" for _, status, _ in rows)
    lines = [f"{status} {label}: {detail}" for label, status, detail in rows]
    lines.append(f"{args.suite}: {len(rows) - failed} passed, {failed} failed, 0 skipped")
    return 1 if failed else 0, "\n".join(lines)


def _cmd_orbits(args) -> tuple[int, str]:
    system = _system_arg(args.system)
    try:
        n = oracle.orthogonal_tuple_orbits(system, args.k)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    return _answer(args, lambda: {
        "schema": "orbits.v1",
        "system": system.name(),
        "k": args.k,
        "orbits": n,
    }, lambda: [f"W({system.name()}) has {n} orbit(s) on unordered sets of "
                f"{args.k} mutually orthogonal roots"])


def _cmd_catalog(args) -> tuple[int, str]:
    entry = _catalog_entry(args.name)
    system = rootsys.build_by_name(entry.system)
    poly = poly_str(entry.charpoly, "t")

    def pretty():
        yield f"{entry.name} (realized in {entry.system})"
        yield f"  word: {', '.join(system.format_root(r) for r in entry.word)}"
        yield f"  charpoly: {poly}"
        for i, j, style in entry.diagram.edges:
            yield f"  v{i} -- v{j}  ({style})"

    return _answer(args, lambda: {
        "schema": "catalog.v1",
        "name": entry.name,
        "system": entry.system,
        "word": [system.format_root(r) for r in entry.word],
        "charpoly": poly,
        "diagram": entry.diagram.to_dict(),
    }, pretty)


def _cmd_render_dot(args) -> tuple[int, str]:
    if args.name and (args.system or args.roots):
        raise _UsageError("render-dot takes --name, or --system and --roots, not both")
    if args.name:
        entry = _catalog_entry(args.name)
        system = rootsys.build_by_name(entry.system)
        d = entry.diagram
        labels = [system.format_root(r) for r in entry.word]
        title = entry.name
    elif args.system and args.roots:
        system, roots, d = _diagram_args(args)
        labels = [system.format_root(r) for r in roots]
        title = system.name()
    else:
        raise _UsageError("render-dot needs --name, or both --system and --roots")
    lines = [f'graph "{title}" {{', "  node [shape=circle];"]
    for i in range(d.n):
        attrs = [f'label="{labels[i]}"']
        if d.longs[i]:
            attrs.append("shape=doublecircle")
        lines.append(f"  v{i} [{', '.join(attrs)}];")
    for i, j, style in d.edges:
        suffix = " [style=dashed]" if style == dg.DOTTED else ""
        lines.append(f"  v{i} -- v{j}{suffix};")
    lines.append("}")
    return 0, "\n".join(lines)


# ---------------------------------------------------------------------------
# Verification suites.  Each is a list of ``_item(label, check, *args)``
# rows, ``(label, PASS|FAIL, detail)``: a check returns the detail of a
# pass, and any exception it raises is that item's failure (none skips).


def _item(label: str, check: Callable[..., str], *args) -> tuple[str, str, str]:
    try:
        return label, "PASS", check(*args)
    except Exception as exc:  # noqa: BLE001 - verdicts must not abort the run
        return label, "FAIL", f"{type(exc).__name__}: {exc}"


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def _check_table1(name: str, target: str, l: int | None) -> str:
    # transform_long_cycle certifies that the trace ends at target.
    trace = rewrite.transform_long_cycle(name, l=l)
    expected = poly_str(_catalog_entry(target).charpoly, "t")
    for row in trace.to_json_obj():
        _expect(row["charpoly"] == expected, f"charpoly drifted at a step: {row['charpoly']}")
    _expect(rewrite.replay(trace), "trace replay diverged")
    return f"{len(trace.steps) - 1} moves, charpoly {expected} at every step, ends at {target}"


def _suite_table1() -> list[tuple[str, str, str]]:
    return [_item(f"table1/{b}", _check_table1, b, a, None) for b, a in rewrite.TABLE1.items()] + [
        _item(f"table1/Dl(b) l={l}", _check_table1, "Dl(b)", rewrite.cycle_a_name(l), l)
        for l in (6, 8, 10, 12)
    ]


def _check_tits_zero(d: dg.Diagram, coeffs, t) -> str:
    value = dg.tits_value(d, coeffs, t)
    _expect(value == 0, f"Tits form value {value}, not 0")
    return f"B{tuple(coeffs)} = 0 at t = {int(t)}"


def _suite_titsform() -> list[tuple[str, str, str]]:
    return [_item(f"titsform/{name}", _check_tits_zero, d, coeffs, t)
            for name, d, coeffs, t in dg.affine_patterns()]


def _check_group_order() -> str:
    system, _ = rewrite.five_cycle_orientations()
    n = oracle.weyl_group_order(system)
    _expect(n == 1920, f"|W(D5)| computed as {n}")
    return "|W(D5)| = 1920"


def _check_orientation(r: int, expected: str) -> str:
    system, orientations = rewrite.five_cycle_orientations()
    result = rewrite.five_cycle_classify(r)
    _expect(result.name == expected, f"classified as {result.name}, expected {expected}")
    u = result.conjugator
    w = weyl.evaluate(system, orientations[r])
    _expect(mat_mul(u, w) == mat_mul(weyl.evaluate(system, result.word), u),
            "the returned conjugator does not carry the orientation to the canonical word")
    return f"orientation {r} lies in the class of {result.name}"


def _check_partition() -> str:
    system, orientations = rewrite.five_cycle_orientations()
    w = {r: weyl.evaluate(system, word) for r, word in orientations.items()}
    same_14 = oracle.are_conjugate(system, w[1], w[4])
    same_23 = oracle.are_conjugate(system, w[2], w[3])
    diff_12 = oracle.are_conjugate(system, w[1], w[2])
    _expect(same_14.status == "conjugate", "orientations 1 and 4 split")
    _expect(same_23.status == "conjugate", "orientations 2 and 3 split")
    _expect(diff_12.status == "not-conjugate", "orientations 1 and 2 merged into one class")
    return "the four orientations fall into exactly 2 classes (1~4, 2~3)"


def _suite_fivecycle() -> list[tuple[str, str, str]]:
    return [
        _item("fivecycle/group-order", _check_group_order),
        *(_item(f"fivecycle/orientation-{r}", _check_orientation, r, name)
          for r, name in {1: "D5", 2: "D5(a1)", 3: "D5(a1)", 4: "D5"}.items()),
        _item("fivecycle/partition", _check_partition),
    ]


def _check_unique_class(sysname: str, diagname: str) -> str:
    _expect(oracle.verify_unique_class(rootsys.build_by_name(sysname), diagname),
            "realizations fall into more than one conjugacy class")
    return f"every root subset realizing {diagname} gives one conjugacy class of W({sysname})"


def _suite_uniqueness() -> list[tuple[str, str, str]]:
    rows = (
        ("D4", "D4(a1)"),
        ("D5", "D5(a1)"),
        ("D6", "D6(a1)"),
        ("D6", "D6(a2)"),
        ("E6", "E6(a1)"),
        ("E6", "E6(a2)"),
    )
    return [_item(f"uniqueness/{diagname} in {sysname}", _check_unique_class, sysname, diagname)
            for sysname, diagname in rows]


def _check_complement(sysname: str, expected: list[str]) -> str:
    got = oracle.max_root_complement(rootsys.build_by_name(sysname))
    _expect(got == expected, f"complement computed as {got}")
    return f"highest-root complement is {'+'.join(expected)}"


def _check_orbit_count(sysname: str, k: int, expected: int) -> str:
    got = oracle.orthogonal_tuple_orbits(rootsys.build_by_name(sysname), k)
    _expect(got == expected, f"counted {got} orbits, expected {expected}")
    return f"{expected} orbit(s) of orthogonal {k}-sets"


def _suite_orbits() -> list[tuple[str, str, str]]:
    complement_rows = (
        ("E6", ["A5"]),
        ("A5", ["A3"]),
        ("E7", ["D6"]),
        ("D6", ["D4", "A1"]),
        ("E8", ["E7"]),
        ("D4", ["A1", "A1", "A1"]),
        ("D5", ["A3", "A1"]),
        ("D7", ["D5", "A1"]),
    )
    orbit_rows = (
        ("E6", 2, 1), ("D5", 2, 2), ("D6", 2, 2), ("E6", 3, 1), ("E7", 3, 2),
    )
    return [
        *(_item(f"orbits/complement {sysname}", _check_complement, sysname, expected)
          for sysname, expected in complement_rows),
        *(_item(f"orbits/{sysname} k={k}", _check_orbit_count, sysname, k, expected)
          for sysname, k, expected in orbit_rows),
    ]


_CYCLES = (
    (4, ((0, 1), (1, 2), (2, 3), (0, 3)), "4-cycle"),
    (5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)), "5-cycle"),
)

#: The parity certificates, one row each: the systems, the shapes (vertex
#: count, edges, text), and whether every styling class is searched or
#: only the all-solid one.
_PARITY_ROWS = (
    # Cycles of length 4 and 5 never embed in the A family: every
    # styling class of each shape comes up empty.
    (("A4", "A5"), _CYCLES, True),
    # Even-dotted cycles (the class of the all-solid styling) vanish in
    # the D family; the odd class is the realizable one.
    (("D4", "D5"), _CYCLES, False),
    # Two 4-cycles sharing a 2-edge path (the theta shape, equally the
    # three-endpoints pattern): empty in every styling class.
    (("D5", "D6"),
     ((5, ((0, 1), (0, 3), (0, 4), (1, 2), (2, 3), (2, 4)), "two cycles sharing a path"),),
     True),
    # A square with an apex joined to all four corners: empty likewise.
    (("D5", "D6"),
     ((5, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)), "square plus apex"),),
     True),
)


def _style_desc(edges, mask: int) -> str:
    if mask == 0:
        return "all solid"
    dotted = [
        f"({i},{j})" for k, (i, j) in enumerate(edges) if (mask >> k) & 1
    ]
    return "dotted " + ",".join(dotted)


def _check_empty(sysname: str, n: int, edges, mask: int) -> str:
    system = rootsys.build_by_name(sysname)
    found = oracle.find_subsets(system, dg.styled_diagram(n, edges, mask), limit=1)
    _expect(not found, f"realized by {len(found)} root subset(s)")
    return "certified empty: no independent root subset realizes it"


def _suite_parity() -> list[tuple[str, str, str]]:
    items = []
    for systems, shapes, every_class in _PARITY_ROWS:
        for sysname in systems:
            for n, edges, text in shapes:
                masks = dg.style_class_representatives(n, edges) if every_class else (0,)
                for mask in masks:
                    desc = (_style_desc(edges, mask) if every_class
                            else "all-solid class (even dotted count)")
                    items.append(_item(f"parity/{sysname} {text}, {desc}",
                                       _check_empty, sysname, n, edges, mask))
    return items


_SUITES: dict[str, Callable[[], list[tuple[str, str, str]]]] = {
    "table1": _suite_table1,
    "titsform": _suite_titsform,
    "fivecycle": _suite_fivecycle,
    "uniqueness": _suite_uniqueness,
    "orbits": _suite_orbits,
    "parity": _suite_parity,
}


# ---------------------------------------------------------------------------
# Parser and entry points


class _Parser(argparse.ArgumentParser):
    """argparse drops an ``OSError`` from writing help; here it propagates,
    so a closed stdout ends ``--help`` as it ends any verb."""

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``weylcalc`` parser, built on first use and shared by every later
    :func:`run` in the process (parsing leaves the parser unchanged)."""
    parser = _Parser(
        prog="weylcalc",
        description="Exact diagram calculus for finite Weyl groups.",
        epilog=ROOT_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "rootsys",
        help="root count or root list of a family/rank",
        epilog=ROOT_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("family", help="family letter A..G")
    p.add_argument("rank", type=rootsys.parse_count, help="rank of the system")
    p.add_argument("--list", action="store_true", help="print one root per line")
    p.add_argument("--pretty", action="store_true", help="human summary")
    p.set_defaults(func=_cmd_rootsys)

    p = sub.add_parser(
        "charpoly",
        help="characteristic polynomial of a reflection word",
        epilog=ROOT_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--system", required=True, help="root system, e.g. D4")
    p.add_argument(
        "--word", required=True, help="comma-separated roots, leftmost first"
    )
    p.add_argument("--pretty", action="store_true", help="human summary")
    p.set_defaults(func=_cmd_charpoly)

    p = sub.add_parser(
        "diagram",
        help="connection diagram of a root list",
        epilog=ROOT_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--system", required=True, help="root system, e.g. E8")
    p.add_argument("--roots", required=True, help="comma-separated roots")
    p.add_argument("--pretty", action="store_true", help="human summary")
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser(
        "transform",
        help="run a long-cycle elimination script",
        description=(
            f"Names: {', '.join(_TRANSFORM_NAMES)}, or dl:<l> for the generic "
            f"even cycle of length l (6 <= l <= {dg.DL_MAX})."
        ),
    )
    p.add_argument("name", help=" | ".join((*_TRANSFORM_NAMES, "dl:<l>")))
    p.add_argument("--pretty", action="store_true", help="step-by-step listing")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser(
        "verify",
        help="run a verification suite, one PASS/FAIL line per item",
    )
    p.add_argument("suite", choices=tuple(_SUITES))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "orbits",
        help="W-orbit count of unordered orthogonal root k-sets",
    )
    p.add_argument("--system", required=True, help="root system, e.g. E6")
    p.add_argument("--k", required=True, type=rootsys.parse_count, help="2 or 3")
    p.add_argument("--pretty", action="store_true", help="human summary")
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser(
        "catalog",
        help="representative roots and stored polynomial of a catalog diagram",
    )
    p.add_argument("name", help="catalog name, e.g. D4(a1)")
    p.add_argument("--pretty", action="store_true", help="human summary")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser(
        "render-dot",
        help="Graphviz source for a diagram (dotted edges become dashed)",
        epilog=ROOT_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--name", help="catalog name to render")
    p.add_argument("--system", help="root system for --roots")
    p.add_argument("--roots", help="comma-separated roots")
    p.set_defaults(func=_cmd_render_dot)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # help printed, or a usage error reported
            status = int(exc.code) if exc.code else 0
        else:
            status, text = args.func(args)
            print(text)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return status
    except BrokenPipeError:
        # The reader stopped reading: what is still buffered goes to devnull, so
        # the flush at exit cannot fail ("Note on SIGPIPE", Python's signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except rewrite.ScriptIntegrityError as exc:
        print(f"integrity failure: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - fail closed, not loud
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
