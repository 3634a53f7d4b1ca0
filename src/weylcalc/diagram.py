"""Carter and connection diagrams as typed graphs.

A diagram records, for an ordered set of roots, which pairs are
non-orthogonal and whether each such pair is obtuse (solid edge) or
acute (dotted edge), together with each root's length class.  Vertex
order matters: vertex i of a catalog entry is position i of its
realization word.

Normalized units put short roots at norm 1 and long roots at norm t
(the squared length ratio).  Between two adjacent short vertices the
inner product is +-1/2; every pair involving a long vertex carries
+-t/2.  The Gram matrix built from those numbers is all any reflection
computation needs, so abstract diagrams work exactly like realized
ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

from . import rootsys
from .exactla import (
    Matrix,
    Poly,
    Vector,
    all_ones,
    charpoly,
    cyclotomic,
    poly_mul,
    poly_str,
    power_plus_one,
    rational,
)
from .rootsys import RootSystem
from .weyl import check_cap, int_word_matrix_from_gram

SOLID = "solid"
DOTTED = "dotted"

Edge = tuple[int, int, str]  # (i, j, style) with i < j


@dataclass(frozen=True)
class Diagram:
    """An edge-styled graph with a length class per vertex.  Its graph facts
    are made on first use and kept; they are not fields, so ``==``, ``hash``,
    ``repr`` and ``dataclasses.replace`` ignore them.  The graph has one
    kept form, the bitmask rows :attr:`rows`: every other fact is read off
    them, and none keeps a set per vertex."""

    longs: tuple[bool, ...]
    edges: tuple[Edge, ...]
    labels: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.longs)

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The bitmask rows ``(adj, dotted)``, which the other facts and
        :func:`embeddings` read: bit j of ``adj[i]`` is set when vertices i
        and j are adjacent, and of ``dotted[i]`` when their edge is dotted."""
        adj, dotted = [0] * self.n, [0] * self.n
        for a, b, style in self.edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
            if style == DOTTED:
                dotted[a] |= 1 << b
                dotted[b] |= 1 << a
        return tuple(adj), tuple(dotted)

    def edge_style(self, i: int, j: int) -> str | None:
        """The style of edge (i, j), or None for a non-edge (an index outside
        ``0..n-1`` too)."""
        adj, dotted = self.rows
        if not (0 <= i < self.n and 0 <= j < self.n and adj[i] >> j & 1):
            return None
        return DOTTED if dotted[i] >> j & 1 else SOLID

    @cached_property
    def _layered(self) -> tuple[tuple[int, ...], int]:
        """:func:`_layers` of :attr:`rows`, which both :attr:`bipartition`
        and :attr:`components` read."""
        return _layers(self.rows[0])

    @cached_property
    def bipartition(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """The two parts, the vertices an even and an odd number of steps
        from their component's least vertex, or None when an odd cycle
        exists: some vertex has a neighbour in its own part."""
        adj = self.rows[0]
        odd = self._layered[1]
        if any(a & (odd if odd >> v & 1 else ~odd) for v, a in enumerate(adj)):
            return None
        return tuple(v for v in range(self.n) if not odd >> v & 1), tuple(_bits(odd))

    @cached_property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """All chordless cycles, canonically rotated, sorted by (length, vertices).

        A cycle is listed once, starting from its smallest vertex and walking
        toward the smaller of that vertex's two cycle neighbors.  From each
        start s, one depth-first search on an explicit stack of candidate
        masks grows a path s, ..., u by a vertex above s that touches the
        path at u alone, or at u and s, which closes a cycle.
        """
        adj = self.rows[0]
        found = []
        for s in range(self.n):
            path, members, stack = [s], 1 << s, [adj[s] & -(2 << s)]
            while stack:
                cand = stack[-1]
                if not cand:
                    stack.pop()
                    members ^= 1 << path.pop()
                    continue
                w = cand.bit_length() - 1
                stack[-1] = cand ^ 1 << w
                if len(path) > 1:  # the first step out of s is a path edge
                    touches = adj[w] & members
                    closing = touches >> s & 1
                    if touches & ~(1 << path[-1] | closing << s):
                        continue  # chord against the path interior
                    if closing:
                        if path[1] < w:  # each cycle once, in its canonical direction
                            found.append((*path, w))
                        continue  # extending past w would leave the chord s--w
                path.append(w)
                members |= 1 << w
                stack.append(adj[w] & ~members & -(1 << s))
        return tuple(sorted(found, key=lambda c: (len(c), c)))

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components, each sorted, in the order of their least vertex."""
        return tuple(tuple(_bits(c)) for c in self._layered[0])

    @cached_property
    def colours(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's colour, which relabelling and switching keep: the
        code ``2 * degree + long`` of the vertex, then its neighbours' codes,
        sorted.  Equal colours are one shared tuple."""
        adj = self.rows[0]
        code = [2 * a.bit_count() + long for a, long in zip(adj, self.longs)]
        return tuple([_shared_colour((c, *sorted([code[w] for w in _bits(a)])))
                      for c, a in zip(code, adj)])

    @cached_property
    def plan(self) -> tuple[tuple[int, tuple[tuple[int, bool], ...], tuple[int, ...]], ...]:
        """The order :func:`embeddings` places the vertices in, high degree
        early so that edge constraints bind sooner: next the vertex with the
        most neighbours placed, then the highest degree, then the lowest
        index.  A component is so placed in one run, each vertex after its
        first next to an earlier one.  Each step is ``(v, placed
        neighbours, each with whether its edge to v is dotted, placed
        non-neighbours)``, both in placing order."""
        adj, dotted = self.rows
        placed_nbrs = [0] * self.n
        remaining = set(range(self.n))
        plan, placed = [], []
        while remaining:
            v = max(remaining, key=lambda v: (placed_nbrs[v], adj[v].bit_count(), -v))
            remaining.remove(v)
            a, d = adj[v], dotted[v]
            plan.append((v, tuple([(u, d >> u & 1 == 1) for u in placed if a >> u & 1]),
                         tuple([u for u in placed if not a >> u & 1])))
            placed.append(v)
            for w in _bits(a):
                placed_nbrs[w] += 1
        return tuple(plan)

    def to_dict(self) -> dict:
        return {
            "vertices": [
                {"index": i, "label": self.labels[i], "long": self.longs[i]}
                for i in range(self.n)
            ],
            "edges": [{"source": a, "target": b, "style": s} for a, b, s in self.edges],
        }

    @staticmethod
    def from_dict(data: dict) -> "Diagram":
        """Inverse of :meth:`to_dict`.  Input outside the ``diagram.v1``
        schema is refused, never coerced: an index or edge end that is not
        an int, a ``long`` that is not a bool or a ``label`` that is not a
        string (the last two by :func:`make_diagram`)."""
        verts = data["vertices"]
        if (not all(type(v["index"]) is int for v in verts)
                or sorted(v["index"] for v in verts) != list(range(len(verts)))):
            raise ValueError("vertex indices must be the ints 0..n-1, each once")
        verts = sorted(verts, key=lambda v: v["index"])
        longs = tuple(v.get("long", False) for v in verts)
        labels = tuple(v.get("label", f"v{v['index']}") for v in verts)
        edges = [(e["source"], e["target"], e["style"]) for e in data["edges"]]
        return make_diagram(len(longs), edges, longs=longs, labels=labels)


def _bits(mask: int) -> Iterator[int]:
    """The vertices of a row mask, lowest first."""
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit.bit_length() - 1


def _layers(adj: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """The components of the graph on the bitmask rows ``adj``, each a mask,
    in the order of their least vertex, and the mask of the vertices an odd
    number of steps from their component's least vertex.  One breadth-first
    search per component from that vertex, a whole layer per step."""
    comps, odd = [], 0
    left = (1 << len(adj)) - 1
    while left:
        layer = comp = left & -left
        far = False  # whether ``layer`` is an odd number of steps out
        while layer:
            reached = 0
            for v in _bits(layer):
                reached |= adj[v]
            layer = reached & ~comp
            comp |= layer
            far = not far
            if far:
                odd |= layer
        comps.append(comp)
        left &= ~comp
    return tuple(comps), odd


@lru_cache(maxsize=1024)
def _shared_colour(colour: tuple[int, ...]) -> tuple[int, ...]:
    """The first tuple equal to ``colour`` still kept: diagrams share their
    vertex colours instead of each holding its own copies."""
    return colour


@lru_cache(maxsize=None)
def _default_labels(n: int) -> tuple[str, ...]:
    """``v0, v1, ...``: one tuple per size, shared by every unlabelled diagram."""
    return tuple(f"v{i}" for i in range(n))


def make_diagram(
    n: int,
    edges: Iterable[tuple[int, int, str]],
    longs: Sequence[bool] | None = None,
    labels: Sequence[str] | None = None,
) -> Diagram:
    """Build a diagram from edge triples, normalizing edge order.  Labels
    default to ``v0, v1, ...``, the form :meth:`Diagram.to_dict` writes.  A
    vertex count that is not an int >= 0, an edge end that is not an int,
    a long flag that is not a bool or a label that is not a string is
    refused."""
    if not (type(n) is int and n >= 0):
        raise ValueError(f"vertex count {n!r} is not an int >= 0")
    longs = tuple(longs) if longs is not None else (False,) * n
    if len(longs) != n:
        raise ValueError("longs length mismatch")
    if not all(isinstance(x, bool) for x in longs):
        raise ValueError("vertex long flags must be booleans")
    norm_edges = []
    seen = set()
    for a, b, style in edges:
        if not (type(a) is int and type(b) is int and a != b and 0 <= a < n and 0 <= b < n):
            raise ValueError(f"bad edge ({a!r}, {b!r})")
        if style not in (SOLID, DOTTED):
            raise ValueError(f"bad edge style {style!r}")
        if a > b:
            a, b = b, a
        if (a, b) in seen:
            raise ValueError(f"duplicate edge ({a}, {b})")
        seen.add((a, b))
        norm_edges.append((a, b, style))
    lab = tuple(labels) if labels is not None else _default_labels(n)
    if len(lab) != n:
        raise ValueError("labels length mismatch")
    if not all(isinstance(x, str) for x in lab):
        raise ValueError("vertex labels must be strings")
    return Diagram(longs, tuple(sorted(norm_edges)), lab)


def from_roots(system: RootSystem, roots: Sequence[Vector]) -> Diagram:
    """Diagram of a root list: edge where the inner product is nonzero.

    Raises ValueError unless the roots are independent (their Gram matrix
    positive definite): a repeated or dependent list has no diagram.  The
    diagram comes from a bounded cache keyed on the roots' positions in
    ``system.roots``, so a repeated list gets the same ``Diagram`` back,
    with the facts it has made."""
    return _indexed_diagram(system, tuple(system.index(tuple(r)) for r in roots))


@lru_cache(maxsize=256)
def _indexed_diagram(system: RootSystem, idx: tuple[int, ...]) -> Diagram:
    """:func:`from_roots` of ``system.roots[i]`` for ``i`` in ``idx``.  An
    ``lru_cache`` keeps no exception, so a dependent list is refused, with
    the same message, on every call."""
    return signed_graph(system, system.independent_gram(idx))


def signed_graph(system: RootSystem, g: Sequence[Sequence[int]]) -> Diagram:
    """The diagram that the integer Gram matrix ``g`` of roots of ``system``
    (as :meth:`RootSystem.int_gram` makes it) reads as, under the default
    labels: an edge where an off-diagonal entry is nonzero, dotted where it
    is positive, and a vertex long where its diagonal entry is the long
    norm of a system with two root lengths.  The roots may be dependent."""
    long = system.int_long_norm
    longs = tuple(row[j] == long != system.int_short_norm for j, row in enumerate(g))
    edges = tuple((i, j, DOTTED if x > 0 else SOLID)
                  for i, row in enumerate(g) for j, x in enumerate(row[i + 1:], i + 1) if x)
    return Diagram(longs, edges, _default_labels(len(g)))


def int_gram(d: Diagram, t: Q) -> tuple[list[list[int]], int]:
    """``(scale * gram(d, t), scale)``: the normalized Gram matrix scaled to
    integers by ``scale = 2 * denominator(t)``.  ValueError for a ``t``
    that is not an int or a ``Fraction``."""
    t = rational(t)
    scale = 2 * t.denominator
    short, long = scale // 2, t.numerator  # 1/2 and t/2, scaled
    n = d.n
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2 * long if d.longs[i] else scale
    for a, b, style in d.edges:
        w = long if d.longs[a] or d.longs[b] else short
        rows[a][b] = rows[b][a] = -w if style == SOLID else w
    return rows, scale


def gram(d: Diagram, t: Q = Q(1)) -> Matrix:
    """Normalized Gram matrix of the diagram at length ratio ``t``."""
    rows, scale = int_gram(d, t)
    return tuple(tuple(Q(x, scale) for x in row) for row in rows)


def tits_value(d: Diagram, coeffs: Sequence, t: Q = Q(1)) -> Q:
    """The diagram's quadratic form evaluated at a coefficient vector of
    ints and Fractions (ValueError for any other entry)."""
    x = [rational(c) for c in coeffs]
    if len(x) != d.n:
        raise ValueError("coefficient count mismatch")
    g = gram(d, t)
    total = Q(0)
    for i in range(d.n):
        for j in range(d.n):
            total += g[i][j] * x[i] * x[j]
    return total


def is_admissible(d: Diagram) -> bool:
    """Carter admissibility: every cycle has even length."""
    return d.bipartition is not None


def dotted_parity_ok(d: Diagram) -> bool:
    """Every chordless cycle carries an odd number of dotted edges.

    Simple-but-chorded cycles are deliberately excluded: a chord splits a
    cycle into two chordless ones whose dotted counts add up to an even
    total on the outer rim, so the odd rule can only hold chordlessly.
    """
    return all(sum(d.edge_style(c[i - 1], c[i]) == DOTTED for i in range(len(c))) % 2
               for c in d.cycles)


def bicolored_word_order(d: Diagram) -> tuple[int, ...]:
    """Vertex order of the diagram's bicolored word (part 0, then part 1)."""
    if d.bipartition is None:
        raise ValueError("diagram is not admissible (odd cycle)")
    x, y = d.bipartition
    return x + y


def bicolored_charpoly(d: Diagram, t: Q = Q(1)) -> Poly:
    """Characteristic polynomial of the diagram's bicolored element: the
    charpoly of the matrix of its bicolored word on :func:`int_gram` at
    ratio ``t``.  It does not depend on the bipartition chosen, the vertex
    order or sign flips."""
    return charpoly(int_word_matrix_from_gram(int_gram(d, t)[0], bicolored_word_order(d)))


def induced_subdiagram(d: Diagram, vertices: Sequence[int]) -> Diagram:
    vs = list(vertices)
    if vs == list(range(d.n)):
        return d  # the same diagram, with the facts it has made
    pos = {v: i for i, v in enumerate(vs)}
    edges = [
        (pos[a], pos[b], style)
        for a, b, style in d.edges
        if a in pos and b in pos
    ]
    longs = tuple(d.longs[v] for v in vs)
    return make_diagram(len(vs), edges, longs=longs, labels=[d.labels[v] for v in vs])


# --------------------------------------------------------------------------
# Catalog of named Carter diagrams with frozen realizations.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    name: str
    system: str
    word: tuple[Vector, ...]          # bicolored realization, one root per vertex
    diagram: Diagram
    charpoly: Poly


# In D_l, ``e_i - e_{i+1}`` is the simple root ``simple_roots[i - 1]``.
def _d_ak_roots(l: int, k: int) -> tuple[Vector, ...]:
    """The roots of the standard D_l(a_k) realization: a 4-cycle with tails
    of k-1 and l-k-3."""
    system = rootsys.build("D", l)
    simple = system.simple_roots
    square = system.parse_root(f"e{k + 1}+e{k + 2}")
    return (*simple[:k + 2], square, *simple[k + 2:l - 1])


def _d_cycle_word(l: int) -> tuple[Vector, ...]:
    """Pure l-cycle realization in D_l, beta block first."""
    system = rootsys.build("D", l)
    simple = system.simple_roots
    m = l // 2
    alpha = [simple[0]] + [simple[l - 2 * i + 2] for i in range(2, m + 1)]
    beta = [system.parse_root(f"e1+e{l}")]
    beta += [simple[l - 2 * i + 1] for i in range(2, m + 1)]
    return tuple(beta + alpha)


# Frozen script realizations.  The E-family root lists were found by a
# deterministic first-solution search over the relevant root system and
# validated against every inner product the derivations in the rewrite
# module assert; the b-diagram words are the exact final words those
# derivations produce, so rewrite traces can start and end on catalog
# entries verbatim.  Each entry: system, root literals, vertex labels and
# the stated charpoly the catalog build checks.
_FROZEN: dict[str, tuple[str, tuple[str, ...], tuple[str, ...], Poly]] = {
    "E8(a3)": (
        "E8",
        ("-e1-e2", "-e1+e2", "-e3-e4", "-e5-e6",
         "e1+e4", "e1-e2+e3-e4-e5+e6-e7+e8/2",
         "-e1+e2+e3+e4+e5+e6-e7+e8/2", "e3-e8"),
        ("alpha1", "alpha2", "alpha3", "alpha4", "beta1", "beta2", "beta3", "beta4"),
        poly_mul(cyclotomic(12), cyclotomic(12)),
    ),
    "E8(b3)": (
        "E8",
        ("e1+e4", "e1-e2+e3-e4-e5+e6-e7+e8/2", "e3-e8", "-e5-e6",
         "-e1-e2", "-e1+e2", "-e3-e4", "e5-e8"),
        ("beta1", "beta2", "beta4", "alpha4", "alpha1", "alpha2", "alpha3", "sigma"),
        poly_mul(cyclotomic(12), cyclotomic(12)),
    ),
    "E7(a2)": (
        "E7",
        ("-e1-e2", "-e1+e2", "-e3-e4",
         "e1-e5", "e1+e2-e3+e4+e5+e6-e7+e8/2", "-e2+e4",
         "e1-e2+e3-e4+e5-e6-e7+e8/2"),
        ("alpha2", "alpha3", "alpha4", "beta1", "beta2", "beta3", "beta4"),
        poly_mul(poly_mul(cyclotomic(12), cyclotomic(6)), cyclotomic(2)),
    ),
    "E7(b2)": (
        "E7",
        ("e1-e5", "e1+e2-e3+e4+e5+e6-e7+e8/2", "e1-e2+e3-e4+e5-e6-e7+e8/2",
         "-e3-e4", "-e1-e2", "-e1+e2", "e3-e6"),
        ("beta1", "beta2", "beta4", "alpha4", "alpha2", "alpha3", "sigma"),
        poly_mul(poly_mul(cyclotomic(12), cyclotomic(6)), cyclotomic(2)),
    ),
    "D6(a2)": (
        "D6",
        ("e3-e4", "e1-e2", "e2-e3", "e4-e5", "e2+e3", "-e1+e6"),
        ("alpha2", "alpha3", "beta1", "beta2", "beta3", "beta4"),
        poly_mul(power_plus_one(3), power_plus_one(3)),
    ),
    "D6(b2)": (
        "D6",
        ("e2-e3", "e4-e5", "-e1+e6", "e3-e4", "e1-e2", "e5+e6"),
        ("beta1", "beta2", "beta4", "alpha2", "alpha3", "sigma"),
        poly_mul(power_plus_one(3), power_plus_one(3)),
    ),
    "E6(a1)": (
        "E6",
        ("-e1-e2", "-e1+e2", "-e3-e4",
         "e1+e4", "e2-e5", "e1+e2+e3-e4+e5+e6+e7-e8/2"),
        ("alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3"),
        cyclotomic(9),
    ),
    "E6(a2)": (
        "E6",
        ("-e1-e2", "-e1+e2", "-e3-e4",
         "-e2+e4", "e1-e5", "e1+e2+e3+e4+e5-e6-e7+e8/2"),
        ("alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3"),
        poly_mul(poly_mul(cyclotomic(6), cyclotomic(6)), cyclotomic(3)),
    ),
    "E8(b5)": (
        "E8",
        ("-e1-e2", "-e1+e2", "-e3-e4", "-e5-e6",
         "e1-e2-e3+e4+e5+e6-e7-e8/2", "e1+e8",
         "e1+e2+e3+e4-e5+e6+e7-e8/2", "-e1+e2+e3+e4+e5+e6-e7+e8/2"),
        ("beta1", "beta2", "beta4", "gamma", "alpha1", "alpha2", "alpha3", "alpha4"),
        cyclotomic(15),
    ),
    "E8(a5)": (
        "E8",
        ("-e3-e4", "e6-e8", "-e1-e2", "-e1+e2-e3+e4-e5-e6-e7-e8/2",
         "-e1-e2+e3+e4-e5-e6+e7+e8/2", "e1-e2+e3-e4-e5+e6+e7-e8/2",
         "e1-e2-e3+e4-e5-e6-e7-e8/2", "e1+e8"),
        ("beta4", "beta3", "beta1", "v", "u", "w4", "alpha1+gamma", "alpha2"),
        cyclotomic(15),
    ),
}

DL_MAX = 16  # D_l families are cataloged exhaustively up to this rank


def _catalog_specs() -> list[tuple[str, str, tuple[Vector, ...], tuple[str, ...] | None, Poly]]:
    """``(name, system, roots, labels, stated charpoly)`` of every entry.  An
    entry without labels has the roots in bicolored order as its word; a
    labelled one has them in the order given."""
    specs: list[tuple[str, str, tuple[Vector, ...], tuple[str, ...] | None, Poly]] = []

    for n in range(1, 9):
        roots = rootsys.build("A", n).simple_roots
        specs.append((f"A{n}", f"A{n}", roots, None, all_ones(n + 1)))

    for n in range(4, 9):
        roots = rootsys.build("D", n).simple_roots
        cp = poly_mul(power_plus_one(n - 1), power_plus_one(1))
        specs.append((f"D{n}", f"D{n}", roots, None, cp))

    e_polys = {
        6: poly_mul(cyclotomic(12), cyclotomic(3)),
        7: poly_mul(cyclotomic(18), cyclotomic(2)),
        8: cyclotomic(30),
    }
    for n in (6, 7, 8):
        roots = rootsys.build("E", n).simple_roots
        specs.append((f"E{n}", f"E{n}", roots, None, e_polys[n]))

    for l in range(4, DL_MAX + 1):
        for k in range(1, (l - 2) // 2 + 1):
            if (l, k) == (6, 2):
                continue  # covered by the frozen script-tied realization below
            cp = poly_mul(power_plus_one(k + 1), power_plus_one(l - k - 1))
            specs.append((f"D{l}(a{k})", f"D{l}", _d_ak_roots(l, k), None, cp))

    for l in range(8, DL_MAX + 1, 2):
        m = l // 2 - 1
        cp = poly_mul(power_plus_one(l // 2), power_plus_one(l // 2))
        specs.append((f"D{l}(b{m})", f"D{l}", _d_cycle_word(l), None, cp))

    for name, (system_name, literals, labels, cp) in _FROZEN.items():
        system = rootsys.build_by_name(system_name)
        word = tuple(system.parse_root(s) for s in literals)
        specs.append((name, system_name, word, labels, cp))

    return specs


@lru_cache(maxsize=1)
def _catalog() -> tuple[dict[str, CatalogEntry], dict[tuple, list[CatalogEntry]]]:
    """(entries by name, entries by colour key), built and checked once.
    Each entry's Gram matrix, independence proof and chordless cycles are
    made once, and its stated charpoly is checked against its diagram's
    :func:`bicolored_charpoly`.  An unlabelled entry's word is its
    bicolored word, so that one product is the word's own; a labelled
    entry's word keeps the order the scripts fix, and its own product is
    checked too.  No two entries are :func:`equivalent`."""
    entries: dict[str, CatalogEntry] = {}
    by_key: dict[tuple, list[CatalogEntry]] = {}
    for name, system_name, roots, labels, stated in _catalog_specs():
        if name in entries:
            raise RuntimeError(f"duplicate catalog name {name}")
        system = rootsys.build_by_name(system_name)
        g = system.independent_gram([system.index(r) for r in roots])
        d = signed_graph(system, g)
        if not is_admissible(d):
            raise RuntimeError(f"catalog entry {name} is not admissible")
        if labels is None:  # read again, renumbered in word order
            order = bicolored_word_order(d)
            d = signed_graph(system, [[g[i][j] for j in order] for i in order])
        else:
            order = range(d.n)
            d = make_diagram(d.n, d.edges, longs=d.longs, labels=labels)
        if not dotted_parity_ok(d):
            raise RuntimeError(f"catalog entry {name} fails dotted parity")
        polys = {"abstract": bicolored_charpoly(d)}
        if labels is not None:
            polys["realized"] = charpoly(int_word_matrix_from_gram(g, order))
        for kind, computed in polys.items():
            if computed != stated:
                raise RuntimeError(
                    f"catalog entry {name}: {kind} charpoly {poly_str(computed)} "
                    f"!= stored {poly_str(stated)}"
                )
        mates = by_key.setdefault(_colour_key(d), [])
        for mate in mates:
            if equivalent(d, mate.diagram):
                raise RuntimeError(f"catalog entries {name} and {mate.name} are equivalent")
        word = tuple(roots[i] for i in order)
        entries[name] = CatalogEntry(name, system_name, word, d, stated)
        mates.append(entries[name])
    return entries, by_key


def catalog_names() -> tuple[str, ...]:
    return tuple(_catalog()[0].keys())


def catalog(name: str) -> CatalogEntry:
    entries = _catalog()[0]
    if name not in entries:
        raise KeyError(f"unknown catalog name {name!r}")
    return entries[name]


def identify(d: Diagram) -> str | None:
    """Name of the catalog entry ``d`` is :func:`equivalent` to, or None
    when there is none.  Every entry is admissible, so a diagram with an
    odd cycle is never named."""
    for entry in _catalog()[1].get(_colour_key(d), ()):
        if _maps_onto(entry.diagram, d):
            return entry.name
    return None


def identify_components(d: Diagram) -> str | None:
    """Connected components named individually, joined by '+'; None if any
    component is not a catalog diagram."""
    names = []
    for comp in d.components:
        name = identify(induced_subdiagram(d, comp))
        if name is None:
            return None
        names.append(name)
    return "+".join(sorted(names, key=component_key))


def component_key(name: str) -> tuple[int, str]:
    """Order of component names: higher rank first, then by name.  The rank
    is the number after the family letter (``D4(a1)`` has rank 4)."""
    return (-int(name[1:].split("(")[0]), name)


def equivalent(d: Diagram, c: Diagram) -> bool:
    """Whether ``c`` is ``d`` relabelled and switched: some bijection of the
    vertices keeps length classes and adjacency, and the styles of ``d``
    become those of ``c`` once some vertices are switched.  Switching a
    vertex (negating its root) toggles the style of every edge at it."""
    return _colour_key(d) == _colour_key(c) and _maps_onto(c, d)


def _colour_key(d: Diagram) -> tuple[tuple[int, ...], ...]:
    """The sorted vertex colours, which fix the vertex and edge counts."""
    return tuple(sorted(d.colours))


def _maps_onto(c: Diagram, d: Diagram) -> bool:
    """:func:`equivalent` for two diagrams with one colour key: an
    :func:`embeddings` of ``c`` on ``d.rows`` that keeps colours.  It is a
    bijection, as each colour has as many vertices in both."""
    classes = {}
    for x, colour in enumerate(d.colours):
        classes[colour] = classes.get(colour, 0) | 1 << x
    return bool(embeddings(c, d.rows, [classes[colour] for colour in c.colours], limit=1))


def embeddings(
    target: Diagram,
    host: tuple[Sequence[int], Sequence[int]],
    classes: Sequence[int],
    limit: int | None = None,
) -> list[tuple[int, ...]]:
    """Placements of the vertices of ``target`` on distinct vertices of a
    host graph, each as the host vertex of every target vertex: a target
    edge lands on a host edge, a non-edge on a non-edge, and the edge
    styles agree up to switching.  One placement per host vertex set, in
    the order found, and at most ``limit`` of them (None or an int of at
    least 1, else ValueError).  A target too large for the search's call
    depth is a ValueError too.

    The host is given as its bitmask rows ``(adj, dotted)``, in the form
    of :attr:`Diagram.rows`: bit y of ``adj[x]`` is set when host vertices
    x and y are adjacent, and of ``dotted[x]`` when their edge is dotted.
    Target vertex v goes only to the host vertices in the mask
    ``classes[v]``.

    A backtracking search in :attr:`Diagram.plan` order, lowest host
    vertex first.  A target non-edge needs no rows of its own: the
    candidates leave out the placed vertices and the ``adj`` row of each
    placed non-neighbour's host vertex, in one mask.  Styles are checked
    as each vertex is placed, with one flip bit per placed vertex: the
    first placed neighbour u of v sets flip[v] = flip[u] xor (host dotted
    != target dotted), and every other placed neighbour w must give the
    same bit.  The plan places each component in one run, every vertex
    after the run's first next to an earlier one, so the placed part of a
    component stays connected and the bits exist exactly when its styles
    agree up to switching; a component's first vertex keeps flip 0, as
    switching a whole component changes no style.  The test runs on all
    candidates at once.  A candidate c is dotted against a placed vertex p
    exactly when c is in ``dotted[p]``.  So two placed neighbours whose
    bits flip xor (target dotted) are x and y ask c for the same flip bit
    exactly when c is in the xor of their ``dotted`` rows if x != y, and
    outside it if x == y.
    """
    check_cap(limit, "limit")
    if target.n > (most := 512):  # the search nests one Python call per placed vertex
        raise ValueError(f"embeddings places at most {most} target vertices, not {target.n}")
    k, plan = target.n, target.plan
    adj, host_dotted = host
    results: list[tuple[int, ...]] = []
    seen_sets: set[int] = set()  # ``used`` masks of the reported host sets
    image = [0] * k  # host vertex of each placed target vertex
    flip = [0] * k  # switching bit of each placed target vertex

    def descend(depth: int, used: int) -> bool:
        """Returns True when the limit is reached."""
        if depth == k:
            if used in seen_sets:
                return False
            seen_sets.add(used)
            results.append(tuple(image))
            return limit is not None and len(results) >= limit
        v, nbrs, non = plan[depth]
        barred = used  # placed, or a host neighbour of a placed non-neighbour
        for u in non:
            barred |= adj[image[u]]
        cand = classes[v] & ~barred
        for u, _ in nbrs:
            cand &= adj[image[u]]
        if not cand:
            return False
        # Each placed neighbour u asks for the flip bit
        # flip[u] xor (target dotted) xor (host dotted); they must agree.
        want = first = 0
        if nbrs:
            u, dotted = nbrs[0]
            want, first = flip[u] ^ dotted, host_dotted[image[u]]
            for u, dotted in nbrs[1:]:
                split = first ^ host_dotted[image[u]]
                cand &= split if flip[u] ^ dotted != want else ~split
        while cand:
            bit = cand & -cand
            cand ^= bit
            x = bit.bit_length() - 1
            image[v], flip[v] = x, want ^ (first >> x & 1)
            if descend(depth + 1, used | bit):
                return True
        return False

    descend(0, 0)
    return results


# --------------------------------------------------------------------------
# Extended (affine) diagram patterns for the Tits-form suite.
# --------------------------------------------------------------------------

def style_class_representatives(
    n: int, edges: Sequence[tuple[int, int]]
) -> list[int]:
    """Canonical dotted-edge masks, one per sign-flip class of stylings.

    Replacing a root by its negative toggles the style of every edge at
    that vertex, so stylings that differ on a cut of the graph realize
    the same root sets.  Bit k of a mask marks ``edges[k]`` as dotted;
    the representative of each class is its smallest mask, its least xor
    with a cut mask (the edges crossing some vertex set), and the list is
    ascending.  Searching one representative per class therefore covers
    every styling of the shape.
    """
    star = [0] * n  # the edges at each vertex, the cut of that vertex alone
    for k, (i, j) in enumerate(edges):
        star[i] ^= 1 << k
        star[j] ^= 1 << k
    cuts = {0}  # the cut of each vertex set: xors of its vertices' stars
    for mask in star:
        cuts |= {cut ^ mask for cut in cuts}
    return sorted({min(bits ^ cut for cut in cuts) for bits in range(1 << len(edges))})


def styled_diagram(
    n: int, edges: Sequence[tuple[int, int]], dotted_mask: int
) -> Diagram:
    """The diagram on ``edges`` whose dotted edges are the mask's bits."""
    return make_diagram(
        n,
        [
            (i, j, DOTTED if (dotted_mask >> k) & 1 else SOLID)
            for k, (i, j) in enumerate(edges)
        ],
    )


def affine_patterns() -> list[tuple[str, Diagram, tuple[int, ...], Q]]:
    """Named extended diagrams with their nil-root coefficients and ratio t.

    Each pattern's Tits form vanishes on the listed coefficients, which is
    exactly the linear dependency that keeps these graphs out of every
    Carter diagram.
    """
    S, L = False, True
    pats: list[tuple[str, Diagram, tuple[int, ...], Q]] = []

    def chain_edges(n):
        return [(i, i + 1, SOLID) for i in range(n - 1)]

    # F~4 variants: one short chain meeting a long tail.
    pats.append((
        "F~41", make_diagram(5, chain_edges(5), longs=(S, S, S, L, L)),
        (1, 2, 3, 2, 1), Q(2),
    ))
    pats.append((
        "F~42", make_diagram(5, chain_edges(5), longs=(L, L, L, S, S)),
        (1, 2, 3, 4, 2), Q(2),
    ))
    # B~2 / C~2 rank-2 affine pair.
    pats.append((
        "B~2", make_diagram(3, chain_edges(3), longs=(S, L, S)), (1, 1, 1), Q(2),
    ))
    pats.append((
        "C~2", make_diagram(3, chain_edges(3), longs=(L, S, L)), (1, 2, 1), Q(2),
    ))
    pats.append((
        "G~21", make_diagram(3, chain_edges(3), longs=(S, S, L)), (1, 2, 1), Q(3),
    ))
    pats.append((
        "G~22", make_diagram(3, chain_edges(3), longs=(L, L, S)), (1, 2, 3), Q(3),
    ))

    for n in range(3, 6):
        # B~n: two short prongs joined to a chain of longs.
        edges = [(0, 2, SOLID), (1, 2, SOLID)]
        edges += [(i, i + 1, SOLID) for i in range(2, n)]
        longs = (S, S) + (L,) * (n - 1)
        pats.append((
            f"B~{n}", make_diagram(n + 1, edges, longs=longs),
            (1,) * (n + 1), Q(2),
        ))
        # C~n: long ends, short interior.
        longs = (L,) + (S,) * (n - 1) + (L,)
        pats.append((
            f"C~{n}", make_diagram(n + 1, chain_edges(n + 1), longs=longs),
            (1,) + (2,) * (n - 1) + (1,), Q(2),
        ))

    for n in range(3, 9):
        edges = [(i, (i + 1) % n, SOLID) for i in range(n)]
        pats.append((
            f"solid-cycle-{n}", make_diagram(n, edges), (1,) * n, Q(1),
        ))
    return pats
