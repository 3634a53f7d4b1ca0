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
``--pretty`` renders a human layout instead.  Exit status: 0 on
success, 1 when a verification item fails or a script integrity check
trips, 2 for usage errors or malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, Sequence

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


def _diagram_arg(system: rootsys.RootSystem, roots: tuple[Vector, ...]) -> dg.Diagram:
    try:
        return dg.from_roots(system, roots)
    except ValueError as exc:  # a dependent or repeated root list
        raise _UsageError(str(exc)) from exc


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


# ---------------------------------------------------------------------------
# Commands


def _cmd_rootsys(args) -> int:
    try:
        system = rootsys.build(args.family, args.rank)
    except (ValueError, KeyError) as exc:
        raise _UsageError(str(exc)) from exc
    if args.list:
        for r in system.roots:
            print(system.format_root(r))
        return 0
    obj = {
        "schema": "rootsys.v1",
        "system": system.name(),
        "family": system.family,
        "rank": system.rank,
        "dim": system.dim,
        "count": len(system.roots),
        "t": int(system.ratio),
    }
    if args.pretty:
        print(
            f"{system.name()}: {len(system.roots)} roots in dimension "
            f"{system.dim} (length ratio t = {int(system.ratio)})"
        )
        return 0
    _emit_json(obj)
    return 0


def _cmd_charpoly(args) -> int:
    system = _system_arg(args.system)
    word = _roots_arg(system, args.word)
    try:
        p = rewrite.word_charpoly(system, word)
    except ValueError as exc:  # a dependent or repeated root list
        raise _UsageError(str(exc)) from exc
    text = poly_str(p, "t")
    if args.pretty:
        print(f"charpoly = {text}")
        return 0
    _emit_json(
        {
            "schema": "charpoly.v1",
            "system": system.name(),
            "word": [system.format_root(r) for r in word],
            "charpoly": text,
        }
    )
    return 0


def _cmd_diagram(args) -> int:
    system = _system_arg(args.system)
    roots = _roots_arg(system, args.roots)
    d = _diagram_arg(system, roots)
    admissible = dg.is_admissible(d)
    identified = dg.identify_components(d)
    if args.pretty:
        print(f"diagram on {d.n} roots in {system.name()}")
        for i in range(d.n):
            length = "long" if d.longs[i] else "short"
            print(f"  v{i} = {system.format_root(roots[i])}  ({length})")
        if d.edges:
            for i, j, style in d.edges:
                print(f"  v{i} -- v{j}  ({style})")
        else:
            print("  no edges")
        print(f"admissible: {'yes' if admissible else 'no'}")
        print(f"identified: {identified if identified else 'not in the catalog'}")
        return 0
    _emit_json(
        {
            "schema": "diagram.v1",
            "system": system.name(),
            "roots": [system.format_root(r) for r in roots],
            "diagram": d.to_dict(),
            "admissible": admissible,
            "identify": identified,
        }
    )
    return 0


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


def _cmd_transform(args) -> int:
    name, l = _parse_transform_name(args.name)
    try:
        trace = rewrite.transform_long_cycle(name, l=l)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    system = trace.steps[0].state.system
    final_word = trace.final_state.word
    final_name = dg.identify(dg.from_roots(system, final_word))
    if args.pretty:
        print(f"{trace.name}: {len(trace.steps) - 1} moves in {system.name()}")
        for i, step in enumerate(trace.steps):
            word = " ".join(system.format_root(r) for r in step.state.word)
            print(f"  {i:3d} [{step.op:5s}] {step.detail}")
            print(f"        {word}")
        print(f"final diagram: {final_name}")
        return 0
    _emit_json(
        {
            "schema": "trace.v1",
            "name": trace.name,
            "system": system.name(),
            "initial_word": [
                system.format_root(r) for r in trace.initial_state.word
            ],
            "final_word": [system.format_root(r) for r in final_word],
            "final_identify": final_name,
            "steps": trace.to_json_obj(),
        }
    )
    return 0


def _cmd_verify(args) -> int:
    items = _SUITES[args.suite]()
    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0}
    for label, status, detail in items:
        counts[status] += 1
        print(f"{status} {label}: {detail}")
    print(
        f"{args.suite}: {counts['PASS']} passed, {counts['FAIL']} failed, "
        f"{counts['SKIP']} skipped"
    )
    return 1 if counts["FAIL"] else 0


def _cmd_orbits(args) -> int:
    system = _system_arg(args.system)
    try:
        n = oracle.orthogonal_tuple_orbits(system, args.k)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    if args.pretty:
        print(
            f"W({system.name()}) has {n} orbit(s) on unordered sets of "
            f"{args.k} mutually orthogonal roots"
        )
        return 0
    _emit_json(
        {
            "schema": "orbits.v1",
            "system": system.name(),
            "k": args.k,
            "orbits": n,
        }
    )
    return 0


def _cmd_catalog(args) -> int:
    try:
        entry = dg.catalog(args.name)
    except (KeyError, ValueError) as exc:
        raise _UsageError(
            f"unknown catalog name {args.name!r}; valid names: "
            f"{', '.join(dg.catalog_names())}"
        ) from exc
    system = rootsys.build_by_name(entry.system)
    poly = poly_str(entry.charpoly, "t")
    if args.pretty:
        print(f"{entry.name} (realized in {entry.system})")
        print(f"  word: {', '.join(system.format_root(r) for r in entry.word)}")
        print(f"  charpoly: {poly}")
        for i, j, style in entry.diagram.edges:
            print(f"  v{i} -- v{j}  ({style})")
        return 0
    _emit_json(
        {
            "schema": "catalog.v1",
            "name": entry.name,
            "system": entry.system,
            "word": [system.format_root(r) for r in entry.word],
            "charpoly": poly,
            "diagram": entry.diagram.to_dict(),
        }
    )
    return 0


def _cmd_render_dot(args) -> int:
    if args.name and (args.system or args.roots):
        raise _UsageError("render-dot takes --name, or --system and --roots, not both")
    if args.name:
        try:
            entry = dg.catalog(args.name)
        except (KeyError, ValueError) as exc:
            raise _UsageError(f"unknown catalog name {args.name!r}") from exc
        system = rootsys.build_by_name(entry.system)
        d = entry.diagram
        labels = [system.format_root(r) for r in entry.word]
        title = entry.name
    elif args.system and args.roots:
        system = _system_arg(args.system)
        roots = _roots_arg(system, args.roots)
        d = _diagram_arg(system, roots)
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
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# Verification suites.  Each returns (label, PASS|FAIL|SKIP, detail) rows;
# any exception inside an item is reported as that item's failure.


def _item(label: str, fn: Callable[[], str]) -> tuple[str, str, str]:
    try:
        return label, "PASS", fn()
    except Exception as exc:  # noqa: BLE001 - verdicts must not abort the run
        return label, "FAIL", f"{type(exc).__name__}: {exc}"


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def _suite_table1() -> list[tuple[str, str, str]]:
    rows: list[tuple[str, str, int | None]] = [
        (b, a, None) for b, a in rewrite.TABLE1.items()
    ]
    rows += [(f"Dl(b) l={l}", rewrite.cycle_a_name(l), l) for l in (6, 8, 10, 12)]
    items = []
    for label_name, target, l in rows:
        def fn(label_name=label_name, target=target, l=l):
            # transform_long_cycle certifies that the trace ends at target.
            name = "Dl(b)" if l is not None else label_name
            trace = rewrite.transform_long_cycle(name, l=l)
            system = trace.steps[0].state.system
            expected = dg.catalog(target).charpoly
            for step in trace.steps:
                got = rewrite.word_charpoly(system, step.state.word)
                _expect(got == expected, f"charpoly drifted at a step: {poly_str(got, 't')}")
            _expect(rewrite.replay(trace), "trace replay diverged")
            return (
                f"{len(trace.steps) - 1} moves, charpoly "
                f"{poly_str(expected, 't')} at every step, ends at {target}"
            )
        items.append(_item(f"table1/{label_name}", fn))
    return items


def _suite_titsform() -> list[tuple[str, str, str]]:
    items = []
    for name, d, coeffs, t in dg.affine_patterns():
        def fn(d=d, coeffs=coeffs, t=t):
            value = dg.tits_value(d, coeffs, t)
            _expect(value == 0, f"Tits form value {value}, not 0")
            return f"B{tuple(coeffs)} = 0 at t = {int(t)}"
        items.append(_item(f"titsform/{name}", fn))
    return items


def _suite_fivecycle() -> list[tuple[str, str, str]]:
    items = []

    def order_item():
        system, _ = rewrite.five_cycle_orientations()
        n = oracle.weyl_group_order(system)
        _expect(n == 1920, f"|W(D5)| computed as {n}")
        return "|W(D5)| = 1920"

    items.append(_item("fivecycle/group-order", order_item))

    expected_names = {1: "D5", 2: "D5(a1)", 3: "D5(a1)", 4: "D5"}
    for r in (1, 2, 3, 4):
        def fn(r=r):
            system, orientations = rewrite.five_cycle_orientations()
            result = rewrite.five_cycle_classify(r)
            _expect(
                result.name == expected_names[r],
                f"classified as {result.name}, expected {expected_names[r]}",
            )
            u = result.conjugator
            w = weyl.evaluate(system, orientations[r])
            _expect(
                mat_mul(u, w) == mat_mul(weyl.evaluate(system, result.word), u),
                "the returned conjugator does not carry the orientation "
                "to the canonical word",
            )
            return f"orientation {r} lies in the class of {result.name}"
        items.append(_item(f"fivecycle/orientation-{r}", fn))

    def partition_item():
        system, orientations = rewrite.five_cycle_orientations()
        w = {r: weyl.evaluate(system, word) for r, word in orientations.items()}
        same_14 = oracle.are_conjugate(system, w[1], w[4])
        same_23 = oracle.are_conjugate(system, w[2], w[3])
        diff_12 = oracle.are_conjugate(system, w[1], w[2])
        _expect(same_14.status == "conjugate", "orientations 1 and 4 split")
        _expect(same_23.status == "conjugate", "orientations 2 and 3 split")
        _expect(
            diff_12.status == "not-conjugate",
            "orientations 1 and 2 merged into one class",
        )
        return "the four orientations fall into exactly 2 classes (1~4, 2~3)"

    items.append(_item("fivecycle/partition", partition_item))
    return items


def _suite_uniqueness() -> list[tuple[str, str, str]]:
    rows = (
        ("D4", "D4(a1)"),
        ("D5", "D5(a1)"),
        ("D6", "D6(a1)"),
        ("D6", "D6(a2)"),
        ("E6", "E6(a1)"),
        ("E6", "E6(a2)"),
    )
    items = []
    for sysname, diagname in rows:
        def fn(sysname=sysname, diagname=diagname):
            system = rootsys.build_by_name(sysname)
            _expect(
                oracle.verify_unique_class(system, diagname),
                "realizations fall into more than one conjugacy class",
            )
            return (
                f"every root subset realizing {diagname} gives one "
                f"conjugacy class of W({sysname})"
            )
        items.append(_item(f"uniqueness/{diagname} in {sysname}", fn))
    return items


def _suite_orbits() -> list[tuple[str, str, str]]:
    items = []
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
    for sysname, expected in complement_rows:
        def fn(sysname=sysname, expected=expected):
            system = rootsys.build_by_name(sysname)
            got = oracle.max_root_complement(system)
            _expect(got == expected, f"complement computed as {got}")
            return f"highest-root complement is {'+'.join(expected)}"
        items.append(_item(f"orbits/complement {sysname}", fn))

    orbit_rows = (
        ("E6", 2, 1), ("D5", 2, 2), ("D6", 2, 2), ("E6", 3, 1), ("E7", 3, 2),
    )
    for sysname, k, expected in orbit_rows:
        def fn(sysname=sysname, k=k, expected=expected):
            system = rootsys.build_by_name(sysname)
            got = oracle.orthogonal_tuple_orbits(system, k)
            _expect(got == expected, f"counted {got} orbits, expected {expected}")
            return f"{expected} orbit(s) of orthogonal {k}-sets"
        items.append(_item(f"orbits/{sysname} k={k}", fn))

    return items


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


def _empty_item(label: str, sysname: str, n: int, edges, mask: int):
    def fn():
        system = rootsys.build_by_name(sysname)
        found = oracle.find_subsets(
            system, dg.styled_diagram(n, edges, mask), limit=1
        )
        _expect(not found, f"realized by {len(found)} root subset(s)")
        return "certified empty: no independent root subset realizes it"

    return _item(label, fn)


def _suite_parity() -> list[tuple[str, str, str]]:
    items = []
    for systems, shapes, every_class in _PARITY_ROWS:
        for sysname in systems:
            for n, edges, text in shapes:
                masks = dg.style_class_representatives(n, edges) if every_class else (0,)
                for mask in masks:
                    desc = (_style_desc(edges, mask) if every_class
                            else "all-solid class (even dotted count)")
                    items.append(_empty_item(f"parity/{sysname} {text}, {desc}",
                                             sysname, n, edges, mask))
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``weylcalc`` parser, built on first use and shared by every later
    :func:`run` in the process (parsing leaves the parser unchanged)."""
    parser = argparse.ArgumentParser(
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
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
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
