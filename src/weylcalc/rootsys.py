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
modules ask by root (``index``, ``int_gram``, ``reflection_images``) and
never convert.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import cached_property, lru_cache
from math import lcm
from typing import Sequence, Tuple

from .exactla import Vector, dot, idot, solve, vec_scale, vec_sub

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


def _basis_vector(i: int, dim: int) -> Vector:
    return tuple(Q(1) if j == i else Q(0) for j in range(dim))


def _half(v: Vector) -> Vector:
    return vec_scale(Q(1, 2), v)


def _simple_roots(family: str, rank: int) -> tuple[Vector, ...]:
    e = _basis_vector
    if family == "A":
        dim = rank + 1
        return tuple(vec_sub(e(i, dim), e(i + 1, dim)) for i in range(rank))
    if family == "B":
        dim = rank
        chain = [vec_sub(e(i, dim), e(i + 1, dim)) for i in range(rank - 1)]
        return tuple(chain + [e(rank - 1, dim)])
    if family == "C":
        dim = rank
        chain = [vec_sub(e(i, dim), e(i + 1, dim)) for i in range(rank - 1)]
        return tuple(chain + [vec_scale(2, e(rank - 1, dim))])
    if family == "D":
        dim = rank
        chain = [vec_sub(e(i, dim), e(i + 1, dim)) for i in range(rank - 1)]
        last = tuple(
            Q(1) if j in (rank - 2, rank - 1) else Q(0) for j in range(dim)
        )
        return tuple(chain + [last])
    if family == "E":
        dim = 8
        first = tuple(
            Q(1, 2) if j in (0, 7) else Q(-1, 2) for j in range(8)
        )
        second = tuple(Q(1) if j in (0, 1) else Q(0) for j in range(8))
        chain = [vec_sub(e(i + 1, dim), e(i, dim)) for i in range(6)]
        return tuple([first, second] + chain)[:rank]
    if family == "F":
        dim = 4
        return (
            vec_sub(e(1, dim), e(2, dim)),
            vec_sub(e(2, dim), e(3, dim)),
            e(3, dim),
            _half(
                tuple(Q(1) if j == 0 else Q(-1) for j in range(4))
            ),
        )
    if family == "G":
        dim = 3
        return (
            vec_sub(e(0, dim), e(1, dim)),
            (Q(-2), Q(1), Q(1)),
        )
    raise ValueError(f"unknown family {family!r}")


#: Shared Fraction objects for the halved coordinates of every root here.
_HALVES = {k: Q(k, 2) for k in range(-8, 9)}


def halved(v: Sequence[int]) -> Vector:
    """Fraction coordinates of a doubled-integer vector."""
    return tuple(_HALVES[k] if -8 <= k <= 8 else Q(k, 2) for k in v)


def doubled(v: Vector) -> IntVector:
    """Doubled-integer coordinates of a vector with entries in (1/2)Z."""
    out = []
    for c in v:
        d = c.denominator
        if d == 1:
            out.append(2 * c.numerator)
        elif d == 2:
            out.append(c.numerator)
        else:
            raise ValueError(f"coordinate {c} is not a multiple of 1/2")
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
        simple = [doubled(s) for s in _simple_roots(family, rank)]
        self.dim = len(simple[0])
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

    def root_index(self, v: Vector) -> int | None:
        """Position of ``v`` in ``roots``, or None when it is not a root."""
        try:
            return self.int_index.get(doubled(v))
        except ValueError:
            return None

    def index(self, v: Vector) -> int:
        """Position of the root ``v`` in ``roots``; ValueError for a non-root."""
        try:
            return self.int_index[doubled(v)]
        except (KeyError, ValueError):
            coords = ", ".join(map(str, v))
            raise ValueError(f"({coords}) is not a root of {self.name()}") from None

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
        """Index of ``s_root(roots[i])`` for every ``i`` (ValueError for a non-root)."""
        r = self.int_roots[self.index(root)]
        # s_r(v) = v - <v, r^vee> r on doubled coordinates, with an
        # integer Cartan number, so no Fraction is needed.
        rr, index = idot(r, r), self.int_index
        images = []
        for i, v in enumerate(self.int_roots):
            c = 2 * idot(v, r) // rr
            images.append(index[tuple([a - c * b for a, b in zip(v, r)])] if c else i)
        return images

    def normalized_inner(self, x: Vector, y: Vector) -> Q:
        return Q(idot(doubled(x), doubled(y)), self.int_short_norm)

    def is_long(self, root: Vector) -> bool:
        r = doubled(root)
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
    def positive(self) -> tuple[bool, ...]:
        """Whether each root of ``roots`` is a nonnegative combination of
        the simple roots (built on first use; the sorted order does not
        follow this in E6-E8 and G2).  A root's simple coefficients share
        one sign, so the sign of their sum, its height, decides."""
        rows, _ = self.coefficient_map
        height = [sum(col) for col in zip(*rows)]
        return tuple(idot(height, r) > 0 for r in self.int_roots)

    def max_root(self) -> Vector:
        """The highest root: the unique long root dominant against all simples."""
        return self.dominant_root(long=True)

    def dominant_root(self, long: bool) -> Vector:
        """The unique root of one length with ``<r, s> >= 0`` for every
        simple root ``s``: the highest root for ``long``, else the highest
        short root (the same root when the system is simply laced).  Each
        W-orbit meets the dominant chamber once and W is transitive on the
        roots of each length, hence one such root per length."""
        norm = self.int_long_norm if long else self.int_short_norm
        simple = [self.int_roots[self.index(s)] for s in self.simple_roots]
        found = [self.roots[i] for i, r in enumerate(self.int_roots)
                 if idot(r, r) == norm and all(idot(r, s) >= 0 for s in simple)]
        if len(found) != 1:
            raise RuntimeError(f"{self.name()}: {len(found)} dominant roots "
                               f"of one length, expected 1")
        return found[0]

    def simple_coefficients(self, v: Vector) -> Tuple[Q, ...]:
        """Coordinates of ``v`` in the simple-root basis: ``K v``."""
        rows, den = self.coefficient_map
        coeffs = tuple(dot(row, v) / den for row in rows)
        span = [sum((c * s[i] for c, s in zip(coeffs, self.simple_roots)), Q(0))
                for i in range(self.dim)]
        if span != list(v):
            raise ValueError("vector is not in the root lattice span")
        return coeffs

    def parse_root(self, text: str) -> Vector:
        v = parse_vector(text, self.dim)
        if not self.is_root(v):
            raise ValueError(f"{text!r} is not a root of {self.name()}")
        return v

    def format_root(self, v: Vector) -> str:
        return format_vector(v)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RootSystem({self.family!r}, {self.rank})"


@lru_cache(maxsize=None)
def build(family: str, rank: int) -> RootSystem:
    """Construct (and cache) the root system of the given family and rank."""
    return RootSystem(family, rank)


def build_by_name(name: str) -> RootSystem:
    """Parse compact names like ``D4`` or ``E8``."""
    name = name.strip()
    if len(name) < 2 or name[0].upper() not in FAMILIES:
        raise ValueError(f"bad root system name {name!r}")
    try:
        rank = int(name[1:])
    except ValueError as exc:
        raise ValueError(f"bad root system name {name!r}") from exc
    return build(name[0].upper(), rank)


# ---------------------------------------------------------------------------
# root literals: "e1-e2", "e2+e3", "e1-e2-e3-e4-e5-e6-e7+e8/2"


def parse_vector(text: str, dim: int) -> Vector:
    raw = text.strip().replace(" ", "")
    over_two = raw.endswith("/2")
    if over_two:
        raw = raw[:-2]
    if not raw:
        raise ValueError("empty root literal")
    out = [Q(0)] * dim
    token = ""
    sign = 1
    i = 0
    if raw[0] in "+-":
        sign = -1 if raw[0] == "-" else 1
        i = 1
    while i < len(raw):
        ch = raw[i]
        if ch in "+-":
            _apply_term_coeff(out, token, sign, dim)
            sign = -1 if ch == "-" else 1
            token = ""
        else:
            token += ch
        i += 1
    _apply_term_coeff(out, token, sign, dim)
    if over_two:
        out = [c / 2 for c in out]
    return tuple(out)


def _apply_term_coeff(out: list[Q], token: str, sign: int, dim: int) -> None:
    """Add one term ``[k]e<i>`` (coefficient ``k`` defaults to 1) to ``out``."""
    # ASCII only: str.isdigit and int also take other scripts' digits.
    k = 0
    while k < len(token) and token[k] in "0123456789":
        k += 1
    coeff = int(token[:k]) if k else 1
    unit = token[k:]
    if not (unit.startswith("e") and unit[1:].isascii() and unit[1:].isdigit()):
        raise ValueError(f"bad term {token!r} in root literal")
    idx = int(unit[1:]) - 1
    if not 0 <= idx < dim:
        raise ValueError(f"coordinate {unit} out of range for dimension {dim}")
    out[idx] += sign * coeff


def format_vector(v: Vector) -> str:
    has_halves = any(c.denominator == 2 for c in v)
    if has_halves:
        twice = [c * 2 for c in v]
        return _format_unit_combo(twice) + "/2"
    return _format_unit_combo(list(v))


def _format_unit_combo(coords: list[Q]) -> str:
    parts = []
    for i, c in enumerate(coords):
        if c == 0:
            continue
        if c.denominator != 1:
            raise ValueError(f"vector has a non-half fractional part: {coords}")
        mag = abs(c)
        term = f"e{i + 1}" if mag == 1 else f"{mag}e{i + 1}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+{term}" if c > 0 else f"-{term}")
    if not parts:
        return "0"
    return "".join(parts)
