"""Spans around the public functions of each weylcalc module.

The tracer wraps a function by rebinding every module (or class)
attribute that holds it, so callers that look the name up at call time,
including ``from .exactla import charpoly`` aliases in other modules,
go through the wrapper.  Hot helpers such as ``exactla.dot`` are left
alone: their time lands in the span of whichever public function called
them.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

#: (layer, owner, attribute).  The owner is a module name or "module:Class".
BOUNDARIES = (
    ("cli", "cli", "run"),
    ("rootsys", "rootsys", "build"),
    ("rootsys", "rootsys", "build_by_name"),
    ("rootsys", "rootsys:RootSystem", "parse_root"),
    ("diagram", "diagram", "from_roots"),
    ("diagram", "diagram", "identify"),
    ("diagram", "diagram", "identify_components"),
    ("diagram", "diagram", "catalog_names"),
    ("diagram", "diagram", "catalog"),
    ("weyl", "weyl", "evaluate"),
    ("weyl", "weyl", "word_matrix"),
    ("exactla", "exactla", "charpoly"),
    ("rewrite", "rewrite", "transform_long_cycle"),
    ("rewrite", "rewrite", "eliminate_4cycle"),
    ("rewrite", "rewrite", "five_cycle_classify"),
    ("rewrite", "rewrite", "replay"),
    ("rewrite", "rewrite:RewriteTrace", "to_json_obj"),
    ("rewrite", "rewrite", "word_charpoly"),
    ("rewrite", "rewrite", "apply_conjugation"),
    ("rewrite", "rewrite", "apply_s_permutation"),
    ("rewrite", "rewrite", "apply_sign_flip"),
    ("oracle", "oracle", "find_subsets"),
    ("oracle", "oracle", "verify_unique_class"),
    ("oracle", "oracle", "are_conjugate"),
    ("oracle", "oracle", "orthogonal_tuple_orbits"),
)

LAYERS = ("cli", "rootsys", "diagram", "weyl", "exactla", "rewrite", "oracle")

#: Spans whose result size is worth keeping (roots built, matches found).
_SIZE_OF = {
    "rootsys.build": lambda system: (id(system), len(system.roots)),
    "diagram.catalog_names": len,
    "oracle.find_subsets": len,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "size")

    def __init__(self, name, start, parent, request):
        self.name, self.start, self.end = name, start, start
        self.parent, self.request, self.size = parent, request, None

    def to_json(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "request": self.request}


class Tracer:
    """Records nested spans; one request id is shared by a request's spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _open(self, name: str, request=None) -> int:
        parent = self._stack[-1] if self._stack else None
        if request is None:
            request = self._request
        index = len(self.spans)
        self.spans.append(Span(name, perf_counter(), parent, request))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._stack.pop()

    @contextmanager
    def request(self, name: str, request_id):
        """A root span for one benchmark request; its spans share the id."""
        self._request = request_id
        index = self._open(name, request_id)
        try:
            yield
        finally:
            self._close(index)
            self._request = None

    def _wrap(self, name: str, fn):
        size_of = _SIZE_OF.get(name)

        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if size_of is not None:
                self.spans[index].size = size_of(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation ---------------------------------------------------

    def install(self, package: str = "weylcalc") -> None:
        modules = [m for key, m in sys.modules.items()
                   if key.startswith(package + ".") and m is not None]
        for layer, owner, attr in BOUNDARIES:
            mod_name, _, cls_name = owner.partition(":")
            target = sys.modules[f"{package}.{mod_name}"]
            if cls_name:
                target = getattr(target, cls_name)
            original = getattr(target, attr)
            wrapper = self._wrap(f"{layer}.{attr}", original)
            homes = [target] if cls_name else [
                m for m in modules if getattr(m, attr, None) is original]
            for home in homes:
                self._patches.append((home, attr, original))
                setattr(home, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            home, attr, original = self._patches.pop()
            setattr(home, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


# ---------------------------------------------------------------------------
# Aggregation into per-layer metrics


def _durations(spans):
    return [s.end - s.start for s in spans]


def layer_metrics(spans: list[Span], run_s: float,
                  untraced_run_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}.

    Op spans (the benchmark's own request spans) are named
    ``op.<workload>.<kind>``; search spans are classified by the op kind
    they ran under, so the same ``find_subsets`` counts as a find-first
    lookup on ``query`` and as a certificate on ``batch``.
    """
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)

    def self_time(i: int) -> float:
        s = spans[i]
        return (s.end - s.start) - sum(spans[c].end - spans[c].start
                                       for c in children.get(i, ()))

    def op_kind(i: int) -> str:
        while spans[i].parent is not None:
            i = spans[i].parent
        return spans[i].name

    def ancestors(i: int):
        while spans[i].parent is not None:
            i = spans[i].parent
            yield spans[i].name

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def named(name):
        return [spans[i] for i in by_name.get(name, ())]

    def total(name) -> float:
        return sum(_durations(named(name)))

    def mean(name, scale) -> float:
        d = _durations(named(name))
        return scale * sum(d) / len(d) if d else 0.0

    def searches(kind_suffix):
        return [i for i in by_name.get("oracle.find_subsets", ())
                if op_kind(i).endswith(kind_suffix)]

    built = {}
    for s in named("rootsys.build"):
        if s.size is not None:
            built[s.size[0]] = s.size[1]
    catalog_spans = by_name.get("diagram.catalog_names", []) + by_name.get("diagram.catalog", [])
    catalog_builds = sum(
        spans[i].end - spans[i].start for i in by_name.get("rootsys.build", ())
        if any(a.startswith("diagram.catalog") for a in ancestors(i)))
    find_first = searches(".realize")
    certify_empty = searches(".parity")
    enumerate_ = searches(".unique")
    cli_self = [self_time(i) for i in by_name.get("cli.run", ())]
    walk_self = [self_time(i) for i in by_name.get("oracle.verify_unique_class", ())]
    moves = sum(len(by_name.get(f"rewrite.{m}", ()))
                for m in ("apply_conjugation", "apply_s_permutation", "apply_sign_flip"))

    m: dict[str, tuple[float, str]] = {
        "rootsys.build_s": (total("rootsys.build"), "s"),
        "rootsys.roots_built": (sum(built.values()), "count"),
        "diagram.catalog_s": (sum(spans[i].end - spans[i].start for i in catalog_spans)
                              - catalog_builds, "s"),
        "diagram.catalog_entries": (max((s.size or 0 for s in named("diagram.catalog_names")),
                                        default=0), "count"),
        "cli.self_ms": (1e3 * sum(cli_self) / len(cli_self) if cli_self else 0.0, "ms"),
        "rootsys.parse_root_us": (mean("rootsys.parse_root", 1e6), "us"),
        "diagram.from_roots_us": (mean("diagram.from_roots", 1e6), "us"),
        "diagram.identify_us": (mean("diagram.identify", 1e6), "us"),
        "diagram.identify_calls": (len(by_name.get("diagram.identify", ())), "count"),
        "weyl.word_matrix_us": (mean("weyl.word_matrix", 1e6), "us"),
        "weyl.evaluate_us": (mean("weyl.evaluate", 1e6), "us"),
        "exactla.charpoly_us": (mean("exactla.charpoly", 1e6), "us"),
        "exactla.charpoly_calls": (len(by_name.get("exactla.charpoly", ())), "count"),
        "oracle.find_first_ms": (1e3 * sum(spans[i].end - spans[i].start for i in find_first)
                                 / len(find_first) if find_first else 0.0, "ms"),
        "oracle.find_first_calls": (len(find_first), "count"),
        "rewrite.script_s": (total("rewrite.transform_long_cycle")
                             + total("rewrite.eliminate_4cycle")
                             + total("rewrite.five_cycle_classify"), "s"),
        "rewrite.replay_s": (total("rewrite.replay"), "s"),
        "rewrite.trace_json_s": (total("rewrite.to_json_obj"), "s"),
        "rewrite.moves": (moves, "count"),
        "rewrite.conj_us": (mean("rewrite.apply_conjugation", 1e6), "us"),
        "rewrite.perm_us": (mean("rewrite.apply_s_permutation", 1e6), "us"),
        "rewrite.flip_us": (mean("rewrite.apply_sign_flip", 1e6), "us"),
        "oracle.certify_empty_s": (sum(spans[i].end - spans[i].start
                                       for i in certify_empty), "s"),
        "oracle.enumerate_s": (sum(spans[i].end - spans[i].start for i in enumerate_), "s"),
        "oracle.realizations": (sum(spans[i].size or 0 for i in enumerate_), "count"),
        "oracle.class_walk_s": (sum(walk_self), "s"),
        "oracle.orbits_s": (total("oracle.orthogonal_tuple_orbits"), "s"),
        "oracle.conjugacy_s": (total("oracle.are_conjugate"), "s"),
    }
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        layer = s.name.partition(".")[0]
        if layer in layer_self:
            layer_self[layer] += self_time(i)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m["trace.spans"] = (len(spans), "count")
    m["trace.run_s"] = (run_s, "s")
    m["trace.untraced_run_s"] = (untraced_run_s, "s")
    m["trace.overhead_s"] = (run_s - untraced_run_s, "s")
    return m
