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
for index with ``roots``).  The positive roots are grown from the
simple ones on their integer Cartan pairings, the negative roots are
their negations, and norms, inner products and reflections run on
those integers; the Cartan number ``2<v, r>/<r, r>`` is an integer and
unchanged by the doubling, so a reflection needs no division.  The
``Fraction`` tuples in ``roots`` are made once, from an intern table,
and are what the API hands out; other modules ask by root (``index``,
``int_gram``) and never convert.
``reflection_images`` serves ``weyl.PermSpace`` the simple reflections
only: every other reflection is their W-conjugate, built there.

This module is the integer boundary in both directions.  A root literal
is parsed straight to doubled integers (``_parse_doubled``; ``parse_vector``
halves its result) and ``parse_root`` hands out the interned ``roots[i]``,
keeping each literal that names a root with its index.
A root is found by identity first: the system's own tuples (from
``roots``, ``parse_root``, the catalog, every rewrite move) map to their
index through a table of ``id``s, built on first use and confirmed by
``roots[i] is v``; any other tuple is converted with ``doubled``.
``format_root`` formats each root's literal from ``int_roots`` the first
time it is asked for and keeps it; the one formatter works on doubled
integers.  Gram matrices (``int_gram``, ``independent_gram``) are built
from coordinate columns: row i adds up the columns of the word at the
nonzero coordinates of root i, so a sparse root costs two columns.
In A-D every root is +-e_a +- e_b or a multiple of e_a, so W permutes
the coordinate lines with signs; ``signed_cycle_type`` reads a word's
product that way, and ``independent_gram`` proves independence from it.
"""

from __future__ import annotations

import re
from fractions import Fraction as Q
from functools import cached_property, lru_cache
from typing import Sequence, Tuple

from .exactla import LeadingMinors, Vector, denominator, gram_positive_definite, idot, solve

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
    ValueError for an entry that :func:`exactla.denominator` refuses, a
    float or a string say, and for one off the half lattice."""
    if 2 % denominator(*v):
        raise ValueError(f"vector has a non-half fractional part: ({', '.join(map(str, v))})")
    return tuple([2 * c.numerator // c.denominator for c in v])


def _positive_roots(simple: Sequence[IntVector]) -> dict[IntVector, int]:
    """``{root: height}`` over the positive roots of the simple system
    ``simple``, grown from the simple roots (height 1) on their Cartan
    pairings ``p(v) = [<v, a_j^vee>]_j``.  When ``p_j(v) < 0``,
    ``s_j(v) = v - p_j(v) a_j`` is a positive root of height
    ``h(v) - p_j(v)`` with pairings ``p(v) - p_j(v) A_j``, ``A_j`` row j of
    the Cartan matrix; every positive root that is not simple is reached so
    from one of lower height (Humphreys, *Reflection Groups and Coxeter
    Groups*, 1.6 and 10.2), and no inner product is taken on the way."""
    cartan = [[2 * idot(a, b) // idot(b, b) for b in simple] for a in simple]
    heights = dict.fromkeys(simple, 1)
    frontier = list(zip(simple, cartan))
    while frontier:
        nxt = []
        for v, pairs in frontier:
            for j, c in enumerate(pairs):
                if c < 0:
                    image = tuple([a - c * b for a, b in zip(v, simple[j])])
                    if image not in heights:
                        heights[image] = heights[v] - c
                        nxt.append((image, [x - c * y for x, y in zip(pairs, cartan[j])]))
        frontier = nxt
    return heights


class RootSystem:
    """An irreducible root system with exact rational coordinates."""

    def __init__(self, family: str, rank: int):
        family = family.upper()
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if type(rank) is not int:
            raise ValueError(f"rank {rank!r} is not an int")
        lo, hi = _RANK_RANGE[family]
        if not lo <= rank <= hi:
            raise ValueError(f"rank {rank} out of range for {family} ({lo}..{hi})")
        self.family = family
        self.rank = rank
        self.dim, literals = _simple_literals(family, rank)
        simple = [_parse_doubled(s, self.dim) for s in literals]
        heights = _positive_roots(simple)
        heights.update([(tuple([-x for x in r]), -h) for r, h in heights.items()])
        # Sorting doubled coordinates gives the order of the Fraction ones.
        self.int_roots = tuple(sorted(heights))
        expected = _ROOT_COUNT[family](rank)
        if len(self.int_roots) != expected:
            raise AssertionError(
                f"{family}{rank}: built {len(self.int_roots)} roots, expected {expected}"
            )
        self.roots = tuple(halved(r) for r in self.int_roots)
        self.int_index = {r: i for i, r in enumerate(self.int_roots)}
        #: the height of each root, the sum of its simple coefficients
        self.heights = tuple(map(heights.__getitem__, self.int_roots))
        self.simple_roots = tuple(self.roots[self.int_index[s]] for s in simple)
        #: squared lengths of doubled coordinates: 4x the Fraction norms,
        #: read off the simple roots, of which every root is a W-conjugate
        self.int_short_norm = min(idot(s, s) for s in simple)
        self.int_long_norm = max(idot(s, s) for s in simple)
        self.ratio = Q(self.int_long_norm, self.int_short_norm)  # the integer t
        #: W acts on the coordinate lines by signed permutations (A-D): every
        #: root is +-e_a +- e_b or a multiple of e_a (see signed_cycle_type)
        self.monomial = family in "ABCD"
        #: literal -> root index, for literals ``parse_root`` has parsed
        self._parsed: dict[str, int] = {}

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
        return _gram([self.int_roots[self.index(r)] for r in roots])

    def independent_gram(self, idx: Sequence[int]) -> list[list[int]]:
        """The Gram matrix of the roots at positions ``idx`` in ``roots``,
        as :meth:`int_gram` makes it, proved linearly independent;
        ValueError naming the first root that depends on the roots before it.

        In A-D the proof is the fixed space of the word's product w: k
        roots are independent exactly when codim Fix(w) = k (Carter 1972,
        Lemma 3), and dim Fix(w) is the number of positive cycles of
        :meth:`signed_cycle_type`.  A word that count finds dependent, and
        every word in E-G, is proved by the Gram matrix's leading minors
        (positive definiteness), which name the first dependent root."""
        g = _gram([self.int_roots[i] for i in idx])
        if self.monomial and len(self.signed_cycle_type(idx)[0]) == self.dim - len(idx):
            return g
        minors = LeadingMinors()
        for j, row in enumerate(g):
            if not minors.push(row[:j], row[j]):
                raise ValueError(f"the roots are linearly dependent: "
                                 f"{self.format_root(self.roots[idx[j]])} "
                                 f"depends on the roots before it")
        return g

    @cached_property
    def _moves(self) -> tuple[bytes, bytes, bytes]:
        """``(first, last, flip)``, one byte per root (built on first use,
        A-D only): root i is nonzero at coordinates ``first[i] <= last[i]``
        only, and its reflection sends e_first to (-1)^flip[i] e_last and
        e_last to (-1)^flip[i] e_first.  For sigma_a e_a + sigma_b e_b that
        sign is -sigma_a sigma_b; for a multiple of e_a, first = last and
        the reflection negates e_a, so flip is 1 by the same rule."""
        first, last, flip = bytearray(), bytearray(), bytearray()
        for r in self.int_roots:
            a, *rest = [j for j, x in enumerate(r) if x]
            b = rest[-1] if rest else a
            first.append(a)
            last.append(b)
            flip.append(r[a] * r[b] > 0)
        return bytes(first), bytes(last), bytes(flip)

    def signed_cycle_type(self, idx: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(positive, negative)``: the sorted cycle lengths of the signed
        permutation of the coordinate lines that the product of the
        reflections at positions ``idx`` in ``roots`` induces, split by the
        product of the signs around each cycle.  ValueError outside A-D:
        the Weyl groups of E-G are not monomial in these coordinates.

        A cycle of length m and sign product sigma has charpoly
        t^m - sigma on its m coordinates, and a fixed line exactly when
        sigma = +1.  The type is a class invariant.  It names one class of
        W(A_n) and of W(B_n) = W(C_n), and one of W(D_n) unless every
        cycle is positive and even, when it names two (Carter 1972,
        section 7; Geck & Pfeiffer 2000, 3.4).  The product costs one swap
        and sign update per letter, the cycles one pass over the coordinates."""
        if not self.monomial:
            raise ValueError(f"{self.name()} is not a signed permutation group "
                             f"of its coordinates: no signed cycle type")
        first, last, flip = self._moves
        perm, neg = list(range(self.dim)), [0] * self.dim
        # w -> w s_r: e_a now goes where e_b went, with the sign factor.
        for i in idx:
            a, b, f = first[i], last[i], flip[i]
            perm[a], perm[b] = perm[b], perm[a]
            neg[a], neg[b] = neg[b] ^ f, neg[a] ^ f
        positive, negative = [], []
        for start in range(self.dim):
            if perm[start] < 0:
                continue
            j, length, sign = start, 0, 0
            while perm[j] >= 0:
                sign ^= neg[j]
                perm[j], j = -1, perm[j]
                length += 1
            (negative if sign else positive).append(length)
        return tuple(sorted(positive)), tuple(sorted(negative))

    def reflection_images(self, root: Vector) -> list[int]:
        """Index of ``s_root(roots[i])`` for every ``i`` (ValueError for a
        non-root); ``weyl.PermSpace`` asks it for the simple roots only."""
        r = self.int_roots[self.index(root)]
        # s_r(v) = v - <v, r^vee> r on doubled coordinates, with an
        # integer Cartan number, so no Fraction is needed; only the
        # coordinates where r is nonzero enter (two for most simple roots),
        # each as one column of ``int_roots``.
        support = [(j, x) for j, x in enumerate(r) if x]
        pairing = _combine(r, list(zip(*self.int_roots)))
        rr, index = idot(r, r), self.int_index
        images = []
        for i, (v, p) in enumerate(zip(self.int_roots, pairing)):
            if c := 2 * p // rr:
                w = list(v)
                for j, x in support:
                    w[j] -= c * x
                i = index[tuple(w)]
            images.append(i)
        return images

    def _lattice(self, v: Vector) -> IntVector:
        """Doubled coordinates of ``v``; ValueError for a vector of another
        dimension or one that :func:`doubled` refuses."""
        if len(v) != self.dim:
            raise ValueError(f"not a vector of dimension {self.dim}: {v!r}")
        return doubled(v)

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
        """Coordinates of ``v`` in the simple-root basis; ValueError for a
        vector of the wrong length, off the root span, or with a coordinate
        that :func:`solve` refuses (not an int or a ``Fraction``)."""
        if len(v) != self.dim:
            raise ValueError(f"not a vector of dimension {self.dim}: {v!r}")
        coeffs = solve(tuple(zip(*self.simple_roots)), v)
        if coeffs is None:
            raise ValueError("vector is not in the root lattice span")
        return coeffs

    def subsystem_name(self, simple: Sequence[Vector]) -> str:
        """The name of the irreducible subsystem with simple system
        ``simple`` (roots of this system), e.g. ``A3`` or ``B2``;
        ValueError for a reducible input or one that is not a simple
        system: dependent roots, or two at an acute angle.  The positive
        roots are grown from ``simple`` on doubled integers and named by
        the rank and root count every construction is checked against,
        with one root length for A, D, E and two for B, C, F, G, the long
        roots not a minority in B.  The first family wins, so the
        smallest-rank name: ``A3``, never ``D3``; ``B2``, never ``C2``."""
        lattice = [self.int_roots[self.index(s)] for s in simple]
        g = self.int_gram(simple)
        linked = {0}
        for _ in g:  # grow the Dynkin component of simple[0]
            linked |= {j for j, row in enumerate(g) if any(row[i] for i in linked)}
        if len(linked) != len(g):
            raise ValueError("the roots do not form a connected simple system")
        if not gram_positive_definite(g):
            raise ValueError("the roots are linearly dependent: not a simple system")
        for i, row in enumerate(g):
            for j, x in enumerate(row[:i]):
                if x > 0:
                    raise ValueError(
                        f"not a simple system: {self.format_root(simple[j])} and "
                        f"{self.format_root(simple[i])} are at an acute angle")
        norms = [idot(r, r) for r in _positive_roots(lattice)]
        longs, count, rank = norms.count(max(norms)), 2 * len(norms), len(g)
        for family in FAMILIES:
            lo, hi = _RANK_RANGE[family]
            if (lo <= rank <= hi and _ROOT_COUNT[family](rank) == count
                    and (2 * longs < count) == (family in "BCFG")
                    and not (family == "B" and 4 * longs < count)):
                return f"{family}{rank}"
        raise AssertionError(f"no irreducible root system of rank {rank} has "
                             f"{count} roots of these lengths")

    def parse_root(self, text: str) -> Vector:
        """The interned root a literal names; ValueError for a malformed
        literal or a vector that is not a root.  A literal that names a
        root is kept with its index, while fewer literals than roots are
        kept, so a repeated literal is parsed once."""
        i = self._parsed.get(text)
        if i is None:
            i = self.int_index.get(_parse_doubled(text, self.dim))
            if i is None:
                raise ValueError(f"{text!r} is not a root of {self.name()}")
            if len(self._parsed) < len(self.roots):
                self._parsed[text] = i
        return self.roots[i]

    @cached_property
    def _literals(self) -> dict[int, str]:
        """root index -> literal, each made on first use from ``int_roots``."""
        return {}

    def format_root(self, v: Vector) -> str:
        i = self.root_index(v)
        if i is None:
            return format_vector(v)
        literal = self._literals.get(i)
        if literal is None:
            literal = self._literals[i] = _format_doubled(self.int_roots[i])
        return literal

    def __repr__(self) -> str:  # pragma: no cover
        return f"RootSystem({self.family!r}, {self.rank})"


def _combine(v: IntVector, cols: Sequence[Sequence[int]]) -> list[int]:
    """``sum(x * col for x, col in zip(v, cols))``, entry by entry, over
    the nonzero coordinates x of ``v`` only; ``v`` is not zero."""
    out = None
    for x, col in zip(v, cols):
        if x:
            out = [x * c for c in col] if out is None else [a + x * c for a, c in zip(out, col)]
    return out


def _gram(lattice: Sequence[IntVector]) -> list[list[int]]:
    """Gram matrix of doubled-coordinate vectors.  Row i is the sum, over
    the nonzero coordinates x of vector i, of x times that coordinate's
    column of ``lattice``: a D16 root has 2 nonzero coordinates of 16."""
    cols = list(zip(*lattice))
    return [_combine(v, cols) for v in lattice]


def build(family: str, rank: int) -> RootSystem:
    """The root system of the given family (either case) and rank, built
    once per process: ``build("d", 4) is build("D", 4)``.  The cache is
    typed, so a rank of ``True`` or ``4.0`` reaches the int check instead
    of hitting the entry for 1 or 4."""
    return _build(family.upper(), rank)


@lru_cache(maxsize=None, typed=True)
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
    """The root literal of any vector with entries in (1/2)Z; ValueError
    for any other vector, as :func:`doubled` refuses it."""
    return _format_doubled(doubled(v))
