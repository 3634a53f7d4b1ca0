"""Finite crystallographic root systems in exact coordinates.

Roots live in an ambient rational space (dimension may exceed the rank,
e.g. A_n sits in R^{n+1} and E_6, E_7 sit in R^8).  Inner products are
reported in the normalization where short roots have squared length 1;
the squared length of a long root is then the integer ``t`` (1 for the
simply-laced families, 2 for B/C/F, 3 for G_2).  With that convention
two connected short roots have inner product +-1/2 and a pair involving
a long root has inner product +-t/2, which is the bookkeeping the
diagram layer relies on.

Every root has coordinates in (1/2)Z, so each system also holds its
roots as *doubled-integer* coordinates (``int_roots``, aligned index
for index with ``roots``).  Closure, norms, inner products and
reflections run on those integers; the Cartan number
``2<v, r>/<r, r>`` is an integer and unchanged by the doubling, so a
reflection needs no division.  The ``Fraction`` tuples in ``roots`` are
made once, from an intern table, and are what the API hands out; other
modules ask by root (``index``, ``int_gram``) and never convert.
``reflection_images`` serves ``weyl.PermSpace`` the simple reflections
only: every other reflection is their W-conjugate, built there.

This module is the integer boundary in both directions.  A root literal
is parsed straight to doubled integers (``_parse_doubled``; ``parse_vector``
halves its result) and ``parse_root`` hands out the interned ``roots[i]``.
A root is found by identity first: the system's own tuples (from
``roots``, ``parse_root``, the catalog, every rewrite move) map to their
index through a table of ``id``s, built on first use and confirmed by
``roots[i] is v``; any other tuple is converted with ``doubled``.
``format_root`` reads a literal table formatted once from ``int_roots``
on first use; the one formatter works on doubled integers.
"""

from __future__ import annotations

import re
from fractions import Fraction as Q
from functools import cached_property, lru_cache
from math import lcm
from typing import Sequence, Tuple

from .exactla import Vector, dot, idot, solve

IntVector = Tuple[int, ...]

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

_RANK_RANGE = {
    "A": (1, 16),
    "B": (2, 16),
    "C": (2, 16),
    "D": (3, 16),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

_ROOT_COUNT = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}


def _simple_literals(family: str, rank: int) -> tuple[int, list[str]]:
    """``(dim, literals)``: the ambient dimension and the simple roots in
    the numbering of Bourbaki, *Lie Groups and Lie Algebras*, Ch. VI,
    Plates I-IX.  The order fixes the class walk's generator order."""
    chain = [f"e{i}-e{i + 1}" for i in range(1, rank)]
    if family == "A":
        return rank + 1, chain + [f"e{rank}-e{rank + 1}"]
    if family == "B":
        return rank, chain + [f"e{rank}"]
    if family == "C":
        return rank, chain + [f"2e{rank}"]
    if family == "D":
        return rank, chain + [f"e{rank - 1}+e{rank}"]
    if family == "E":
        return 8, (["e1-e2-e3-e4-e5-e6-e7+e8/2", "e1+e2"]
                   + [f"e{i}-e{i - 1}" for i in range(2, 8)])[:rank]
    if family == "F":
        return 4, ["e2-e3", "e3-e4", "e4", "e1-e2-e3-e4/2"]
    if family == "G":
        return 3, ["e1-e2", "-2e1+e2+e3"]
    raise ValueError(f"unknown family {family!r}")


#: Shared Fraction objects for the halved coordinates of every root here.
_HALVES = {k: Q(k, 2) for k in range(-8, 9)}


def halved(v: Sequence[int]) -> Vector:
    """Fraction coordinates of a doubled-integer vector."""
    return tuple(_HALVES[k] if -8 <= k <= 8 else Q(k, 2) for k in v)


def doubled(v: Vector) -> IntVector:
    """Doubled-integer coordinates of a vector with entries in (1/2)Z;
    ValueError for any other entry, a float or a string too."""
    out = []
    try:
        for c in v:
            d = c.denominator
            if d == 1:
                out.append(2 * c.numerator)
            elif d == 2:
                out.append(c.numerator)
            else:
                raise ValueError(f"coordinate {c} is not a multiple of 1/2")
    except AttributeError:
        raise ValueError(f"coordinate {c!r} is not rational") from None
    return tuple(out)


def _close_under_reflections(simple: Sequence[IntVector]) -> list[IntVector]:
    norms = [idot(s, s) for s in simple]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for v in frontier:
            for s, ss in zip(simple, norms):
                c = 2 * idot(v, s) // ss  # a Cartan number: exact
                if c:
                    image = tuple([a - c * b for a, b in zip(v, s)])
                    if image not in roots:
                        roots.add(image)
                        nxt.append(image)
        frontier = nxt
    return sorted(roots)


class RootSystem:
    """An irreducible root system with exact rational coordinates."""

    def __init__(self, family: str, rank: int):
        family = family.upper()
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        lo, hi = _RANK_RANGE[family]
        if not lo <= rank <= hi:
            raise ValueError(f"rank {rank} out of range for {family} ({lo}..{hi})")
        self.family = family
        self.rank = rank
        self.dim, literals = _simple_literals(family, rank)
        simple = [_parse_doubled(s, self.dim) for s in literals]
        # Sorting doubled coordinates gives the order of the Fraction ones.
        self.int_roots = tuple(_close_under_reflections(simple))
        expected = _ROOT_COUNT[family](rank)
        if len(self.int_roots) != expected:
            raise AssertionError(
                f"{family}{rank}: built {len(self.int_roots)} roots, expected {expected}"
            )
        self.roots = tuple(halved(r) for r in self.int_roots)
        self.int_index = {r: i for i, r in enumerate(self.int_roots)}
        self.simple_roots = tuple(self.roots[self.int_index[s]] for s in simple)
        #: squared lengths of doubled coordinates: 4x the Fraction norms
        self.int_short_norm = min(idot(r, r) for r in self.int_roots)
        self.int_long_norm = max(idot(r, r) for r in self.int_roots)
        self.short_norm = Q(self.int_short_norm, 4)
        self.long_norm = Q(self.int_long_norm, 4)
        self.ratio = Q(self.int_long_norm, self.int_short_norm)  # the integer t

    # -- queries -----------------------------------------------------------

    def name(self) -> str:
        return f"{self.family}{self.rank}"

    @cached_property
    def _position(self) -> dict[int, int]:
        """``id(roots[i]) -> i`` (built on first use); ``roots`` keeps
        every key alive, so an ``id`` is never reused while it is here."""
        return {id(r): i for i, r in enumerate(self.roots)}

    def root_index(self, v: Vector) -> int | None:
        """Position of ``v`` in ``roots``, or None when it is not a root.
        The system's own tuples are found by identity, without converting."""
        i = self._position.get(id(v))
        if i is not None and self.roots[i] is v:
            return i
        try:
            return self.int_index.get(doubled(v))
        except ValueError:
            return None

    def index(self, v: Vector) -> int:
        """Position of the root ``v`` in ``roots``; ValueError for a non-root."""
        i = self.root_index(v)
        if i is None:
            coords = ", ".join(map(str, v))
            raise ValueError(f"({coords}) is not a root of {self.name()}")
        return i

    def is_root(self, v: Vector) -> bool:
        return self.root_index(v) is not None

    def int_gram(self, roots: Sequence[Vector]) -> list[list[int]]:
        """Gram matrix of a root list on doubled coordinates: 4x the
        ``Fraction`` one.  ValueError for a non-root."""
        lattice = [self.int_roots[self.index(r)] for r in roots]
        g = [[0] * len(lattice) for _ in lattice]
        for i, a in enumerate(lattice):  # each product once: g is symmetric
            for j in range(i + 1):
                g[i][j] = g[j][i] = idot(a, lattice[j])
        return g

    def reflection_images(self, root: Vector) -> list[int]:
        """Index of ``s_root(roots[i])`` for every ``i`` (ValueError for a
        non-root); ``weyl.PermSpace`` asks it for the simple roots only."""
        r = self.int_roots[self.index(root)]
        # s_r(v) = v - <v, r^vee> r on doubled coordinates, with an
        # integer Cartan number, so no Fraction is needed; only the
        # coordinates where r is nonzero enter (two for most simple roots).
        support = [(j, x) for j, x in enumerate(r) if x]
        rr, index = idot(r, r), self.int_index
        images = []
        for i, v in enumerate(self.int_roots):
            if c := 2 * sum([v[j] * x for j, x in support]) // rr:
                w = list(v)
                for j, x in support:
                    w[j] -= c * x
                i = index[tuple(w)]
            images.append(i)
        return images

    def _lattice(self, v: Vector) -> IntVector:
        """Doubled coordinates of ``v``, read from ``int_roots`` for a root."""
        i = self.root_index(v)
        return doubled(v) if i is None else self.int_roots[i]

    def normalized_inner(self, x: Vector, y: Vector) -> Q:
        return Q(idot(self._lattice(x), self._lattice(y)), self.int_short_norm)

    def is_long(self, root: Vector) -> bool:
        r = self._lattice(root)
        return idot(r, r) == self.int_long_norm != self.int_short_norm

    def sign_class_reps(self) -> tuple[Vector, ...]:
        """One representative per {r, -r} pair, the lex-positive one: negation
        reverses the sorted order (``roots[-1 - i] == -roots[i]``), so these
        are the upper half of ``roots``."""
        return self.roots[len(self.roots) // 2:]

    def sign_class(self, i: int) -> int:
        """Position in :meth:`sign_class_reps` of the class {r, -r} of
        ``roots[i]`` (``roots[n - 1 - i]`` is its negative)."""
        n = len(self.roots)
        return max(i, n - 1 - i) - n // 2

    @cached_property
    def coefficient_map(self) -> tuple[tuple[IntVector, ...], int]:
        """``(rows, den)``: the rank x dim matrix ``K = G^-1 S^T`` as integer
        rows over one common denominator, ``K = rows / den`` (built on
        first use).

        ``S`` has the simple roots as columns and ``G = S^T S`` is their
        Gram matrix, so ``K v`` is the simple-root coefficient vector of
        any ``v`` in the root span and ``K v = 0`` for ``v`` orthogonal to
        it.  Column ``j`` solves ``G k = S^T e_j``, on the integer Gram
        matrix of the doubled simple roots (which is ``4 G``).
        """
        gram = self.int_gram(self.simple_roots)
        cols = [solve(gram, [4 * s[j] for s in self.simple_roots]) for j in range(self.dim)]
        den = lcm(*(c.denominator for col in cols for c in col))
        rows = tuple(tuple(c.numerator * (den // c.denominator) for c in row)
                     for row in zip(*cols))
        return rows, den

    @cached_property
    def heights(self) -> tuple[int, ...]:
        """The height of each root of ``roots``, the sum of its simple
        coefficients (built on first use)."""
        rows, den = self.coefficient_map
        height = [sum(col) for col in zip(*rows)]
        return tuple(idot(height, r) // (2 * den) for r in self.int_roots)

    @cached_property
    def positive(self) -> tuple[bool, ...]:
        """Whether each root of ``roots`` is a nonnegative combination of
        the simple roots (built on first use; the sorted order does not
        follow this in E6-E8 and G2).  A root's simple coefficients share
        one sign, so the sign of their sum, its height, decides."""
        return tuple(h > 0 for h in self.heights)

    def max_root(self) -> Vector:
        """The highest root: the unique long root dominant against all simples."""
        return self.dominant_root(long=True)

    def dominant_root(self, long: bool) -> Vector:
        """The root of greatest height among the roots of one length: the
        highest root for ``long``, else the highest short root (the same
        root when the system is simply laced).  It is the one root of its
        length with ``<r, s> >= 0`` for every simple root ``s``."""
        norm = self.int_long_norm if long else self.int_short_norm
        return self.roots[max((i for i, r in enumerate(self.int_roots) if idot(r, r) == norm),
                              key=self.heights.__getitem__)]

    def simple_coefficients(self, v: Vector) -> Tuple[Q, ...]:
        """Coordinates of ``v`` in the simple-root basis: ``K v``."""
        rows, den = self.coefficient_map
        coeffs = tuple(dot(row, v) / den for row in rows)
        span = [sum((c * s[i] for c, s in zip(coeffs, self.simple_roots)), Q(0))
                for i in range(self.dim)]
        if span != list(v):
            raise ValueError("vector is not in the root lattice span")
        return coeffs

    def subsystem_name(self, simple: Sequence[Vector]) -> str:
        """The name of the irreducible subsystem with simple system
        ``simple`` (roots of this system), e.g. ``A3`` or ``B2``;
        ValueError for a reducible or unrecognised input.  The subsystem is
        closed on doubled integers and named by the rank and root count
        every construction is checked against, with one root length for
        A, D, E and two for B, C, F, G, the long roots not a minority in
        B.  The first family wins, so the smallest-rank name: ``A3``, never
        ``D3``; ``B2``, never ``C2``."""
        lattice = [self.int_roots[self.index(s)] for s in simple]
        linked = {0}
        for _ in lattice:  # grow the Dynkin component of simple[0]
            linked |= {j for j, s in enumerate(lattice)
                       if any(idot(s, lattice[i]) for i in linked)}
        if len(linked) != len(lattice):
            raise ValueError("the roots do not form a connected simple system")
        roots = _close_under_reflections(lattice)
        norms = [idot(r, r) for r in roots]
        longs = norms.count(max(norms))
        rank = len(lattice)
        for family in FAMILIES:
            lo, hi = _RANK_RANGE[family]
            if (lo <= rank <= hi and _ROOT_COUNT[family](rank) == len(roots)
                    and (longs < len(roots)) == (family in "BCFG")
                    and not (family == "B" and 2 * longs < len(roots))):
                return f"{family}{rank}"
        raise ValueError(f"no irreducible root system of rank {rank} has "
                         f"{len(roots)} roots of these lengths")

    def parse_root(self, text: str) -> Vector:
        """The interned root a literal names; ValueError for a malformed
        literal or a vector that is not a root."""
        i = self.int_index.get(_parse_doubled(text, self.dim))
        if i is None:
            raise ValueError(f"{text!r} is not a root of {self.name()}")
        return self.roots[i]

    @cached_property
    def _literals(self) -> tuple[str, ...]:
        """The literal of every root, aligned with ``roots`` (built on first use)."""
        return tuple(_format_doubled(r) for r in self.int_roots)

    def format_root(self, v: Vector) -> str:
        i = self.root_index(v)
        return format_vector(v) if i is None else self._literals[i]

    def __repr__(self) -> str:  # pragma: no cover
        return f"RootSystem({self.family!r}, {self.rank})"


def build(family: str, rank: int) -> RootSystem:
    """The root system of the given family (either case) and rank, built
    once per process: ``build("d", 4) is build("D", 4)``."""
    return _build(family.upper(), rank)


@lru_cache(maxsize=None)
def _build(family: str, rank: int) -> RootSystem:
    return RootSystem(family, rank)


def build_by_name(name: str) -> RootSystem:
    """Parse compact names like ``D4`` or ``E8``."""
    name = name.strip()
    if len(name) < 2 or name[0].upper() not in FAMILIES:
        raise ValueError(f"bad root system name {name!r}")
    try:
        rank = parse_count(name[1:])
    except ValueError as exc:
        raise ValueError(f"bad root system name {name!r}") from exc
    return build(name[0], rank)


def parse_count(text: str) -> int:
    """A rank, length or index written in ASCII digits only: ``int`` also
    takes a sign, spaces, underscores and other scripts' digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{text!r} is not a count in ASCII digits")
    return int(text)


# ---------------------------------------------------------------------------
# root literals: "e1-e2", "e2+e3", "e1-e2-e3-e4-e5-e6-e7+e8/2"


_SIGNS = re.compile(r"([+-])")


def _parse_doubled(text: str, dim: int) -> IntVector:
    """Doubled-integer coordinates of a root literal: terms ``[k]e<i>``
    joined by signs, the whole optionally over ``/2``, or ``0`` for the
    zero vector; spaces are ignored."""
    raw = text.strip().replace(" ", "")
    if raw == "0":
        return (0,) * dim
    over_two = raw.endswith("/2")
    if over_two:
        raw = raw[:-2]
    if not raw:
        raise ValueError("empty root literal")
    scale = 1 if over_two else 2
    out = [0] * dim
    if raw[0] not in "+-":
        raw = "+" + raw
    parts = _SIGNS.split(raw)  # "", then sign and term in turn
    for sign, token in zip(parts[1::2], parts[2::2]):
        coeff, _, unit = token.partition("e")
        try:
            k = parse_count(coeff) if coeff else 1
            idx = parse_count(unit) - 1
        except ValueError:
            raise ValueError(f"bad term {token!r} in root literal") from None
        if not 0 <= idx < dim:
            raise ValueError(f"coordinate e{unit} out of range for dimension {dim}")
        out[idx] += scale * k if sign == "+" else -scale * k
    return tuple(out)


def parse_vector(text: str, dim: int) -> Vector:
    """The ``Fraction`` vector a root literal names (any vector, root or not)."""
    return halved(_parse_doubled(text, dim))


def _format_doubled(v: IntVector) -> str:
    """The literal of a vector in doubled-integer coordinates."""
    if any(k & 1 for k in v):
        coords, tail = v, "/2"
    else:
        coords, tail = [k >> 1 for k in v], ""
    terms = "".join(f"{'-' if c < 0 else '+'}{'' if c in (1, -1) else abs(c)}e{i}"
                    for i, c in enumerate(coords, 1) if c)
    return terms.removeprefix("+") + tail if terms else "0"


def format_vector(v: Vector) -> str:
    """The root literal of any vector with entries in (1/2)Z."""
    try:
        return _format_doubled(doubled(v))
    except ValueError:
        twice = any(c.denominator == 2 for c in v)
        coords = [c * 2 for c in v] if twice else list(v)
        raise ValueError(f"vector has a non-half fractional part: {coords}") from None
