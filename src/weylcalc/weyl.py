"""Weyl group elements as root permutations and exact matrices,
reflection-word utilities, and the breadth-first walk behind every orbit.

Composition convention
----------------------
A word ``(r_1, ..., r_k)`` denotes the product of reflection matrices

    m(r_1) @ m(r_2) @ ... @ m(r_k)

acting on column vectors, i.e. the *rightmost* reflection is applied to
a vector first.  Every matrix in this package follows that convention;
it matches the way the bicolored words in the diagram layer are read.

Element representation
----------------------
A Weyl group acts faithfully on its root set and fixes the orthogonal
complement of the root span pointwise, so inside the package an element
is the permutation it induces on the sorted tuple ``system.roots``
(see :class:`PermSpace`).  Two elements are equal exactly when their
permutations are, and the ambient matrix is rebuilt on demand, exactly,
by evaluating a reduced word (:meth:`PermSpace.reduced_word`).
"""

from __future__ import annotations

import functools
from fractions import Fraction as Q
from math import lcm
from operator import itemgetter
from typing import Iterable, Sequence

from .exactla import (
    Matrix,
    Vector,
    charpoly,
    cyclotomic_factors,
    idot,
    identity,
    integer_matrix,
    mat_pow,
)
from .rootsys import RootSystem

Word = tuple[Vector, ...]
#: A root permutation: ``bytes`` for at most 256 roots, else an int tuple.
Perm = bytes | tuple[int, ...]


def evaluate(system: RootSystem, word: Sequence[Vector]) -> Matrix:
    """Ambient matrix of the word (see the composition convention above),
    as ``Fraction``s, computed on one integer matrix B = d A with
    d = ``int_long_norm // 2`` and divided by d once at the end.

    Each update stays integral: A r' for a doubled root r' is the doubled
    root A(r)' of the partial product A in W, so the rank-one term
    2 (B r') r'^T / <r', r'> is (``int_long_norm`` / <r', r'>) A(r)' r'^T,
    and that quotient is 1 or the length ratio t."""
    n, d = system.dim, system.int_long_norm // 2
    work = [[d * (i == j) for j in range(n)] for i in range(n)]
    for root in word:
        r = system.int_roots[system.index(root)]  # ValueError for a non-root
        support = [(q, x) for q, x in enumerate(r) if x]
        rr = idot(r, r)
        # B @ refl(r) = B - (2 / <r, r>) (B r) outer r
        for row in work:
            if br := sum([row[q] * x for q, x in support]):
                c = 2 * br // rr
                for q, x in support:
                    row[q] -= c * x
    return tuple(tuple(Q(x, d) for x in row) for row in work)


def word_matrix_from_gram(gram: Sequence[Sequence], order: Sequence[int]) -> Matrix:
    """Matrix of a reflection word over the basis the Gram matrix indexes.

    ``order`` lists basis indices in word order; index ``i`` stands for the
    reflection in basis vector ``i``.  Works for any symmetric bilinear
    form with nonzero diagonal, so abstract diagrams (no ambient
    realization) are handled too.  ``gram`` may hold ints or Fractions and
    any positive scaling of it gives the same matrix: the reflections only
    see the Cartan numbers ``2 g_qi / g_ii``.  Those are integers for
    roots, so a root Gram gives an integer product, returned as Fractions.
    """
    return tuple(tuple(Q(x) for x in row) for row in int_word_matrix_from_gram(gram, order))


def int_word_matrix_from_gram(gram: Sequence[Sequence], order: Sequence[int]) -> list[list]:
    """The rows of :func:`word_matrix_from_gram`, as ints where the Cartan
    numbers are."""
    n = len(gram)
    work = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in order:
        # s_i = I + e_i w^T, so A @ s_i = A + (column i of A) outer w; w is
        # nonzero only where the Cartan number is.
        w = [(q, -cartan_number(g[i], gram[i][i])) for q, g in enumerate(gram) if g[i]]
        for row in work:
            api = row[i]
            if api:
                for q, x in w:
                    row[q] += api * x
    return work


def cartan_number(x, d):
    """``2x/d``: an int when exact (always for roots), else a Fraction."""
    c, rem = divmod(2 * x, d)
    return c if rem == 0 else Q(2 * x) / d


def word_matrix(system: RootSystem, word: Sequence[Vector]) -> Matrix:
    """Matrix of the word over the basis formed by its own roots.

    Requires the word's roots to be linearly independent (true for any
    reduced decomposition); the resulting matrix has size ``len(word)``,
    so its characteristic polynomial has the word's length as degree.
    ValueError for a non-root or a dependent word.  Computed on the
    doubled-integer Gram matrix of the roots, whose leading minors settle
    independence (positive definiteness).
    """
    gram = system.independent_gram([system.index(r) for r in word])
    return tuple(tuple(Q(x) for x in row)
                 for row in int_word_matrix_from_gram(gram, range(len(gram))))


def order_or_infinite(m: Matrix, power_cap: int = 10_000) -> int | str:
    """Multiplicative order of a matrix, or the string ``"infinite"``.

    Finite order forces the characteristic polynomial to be a product of
    cyclotomic polynomials Φ_d.  Each Φ_d makes ``m`` have an eigenvalue
    that is a primitive d-th root of unity, so a finite order is a multiple
    of every d, hence of their lcm L: when ``m^L = I`` the order is L, and
    otherwise ``m`` has a nontrivial Jordan block.
    """
    n = len(m)
    if m == identity(n):
        return 1
    factors = cyclotomic_factors(charpoly(m))
    if factors is None:
        return "infinite"
    bound = lcm(*factors)
    if bound > power_cap:
        raise ValueError(f"order bound {bound} exceeds cap {power_cap}")
    if mat_pow(m, bound) != identity(n):
        return "infinite"  # cyclotomic spectrum but a nontrivial Jordan block
    return bound


# ---------------------------------------------------------------------------
# Elements as root permutations


class PermSpace:
    """Encodes the elements of W(system) as permutations of ``system.roots``.

    ``p[i] == j`` means the element maps root ``i`` to root ``j``.
    Permutations of at most 256 roots are packed into ``bytes`` and
    composed with ``bytes.translate``, whose 256-entry table pads ``p``
    with a tail built once per space; larger ones are integer tuples.

    Only the simple reflections are computed from coordinates
    (``rootsys.reflection_images``).  Every other reflection is a
    W-conjugate of one of them, s_{g(c)} = g s_c g^-1 (Humphreys §1.2,
    §1.5): a root b = s_k(c) gets s_b = s_k s_c s_k from a parent c one
    step nearer the simple roots, read off the root heights (see
    :meth:`reflection_at`).  Each reflection is built on first use, after
    the ones on its path down to a simple root.
    """

    def __init__(self, system: RootSystem):
        self.system = system
        self.roots = system.roots
        self.n = len(self.roots)
        self.packed = self.n <= 256
        self.ident = self._wrap(range(self.n))
        self._pad = bytes(range(self.n, 256))
        self._simple = tuple(map(system.index, system.simple_roots))
        self._depth = tuple(h - 1 if h > 0 else -h for h in system.heights)

    def _wrap(self, images: Iterable[int]) -> Perm:
        return bytes(images) if self.packed else tuple(images)

    def table(self, p: Perm) -> Perm:
        """Left-composition table of ``p`` for :meth:`mul`."""
        if self.packed:
            return p + self._pad
        return p

    def mul(self, table_a: Perm, b: Perm) -> Perm:
        """Permutation of the matrix product a @ b (b applied first).

        ``table_a`` must come from :meth:`table`; ``b`` is a raw perm.
        """
        if self.packed:
            return b.translate(table_a)
        return itemgetter(*b)(table_a)

    def compose(self, *perms: Perm) -> Perm:
        """Permutation of the matrix product of ``perms``, left to right."""
        out = perms[0] if perms else self.ident
        for p in perms[1:]:
            out = self.mul(self.table(out), p)
        return out

    def conjugates(self, u: Perm, p: Perm, q: Perm) -> bool:
        """u p u^-1 == q, checked as u·p == q·u."""
        return self.mul(self.table(u), p) == self.mul(self.table(q), u)

    @functools.cached_property
    def _reflections(self) -> dict[int, Perm]:
        """Reflections by root index, seeded with the simple ones."""
        return {i: self._wrap(self.system.reflection_images(self.roots[i]))
                for i in self._simple}

    @functools.cached_property
    def generators(self) -> tuple[tuple[Perm, Perm], ...]:
        """``(table, perm)`` of each simple reflection, in simple-root order."""
        return tuple((self.table(p), p) for p in (self._reflections[i] for i in self._simple))

    def reflection_at(self, i: int) -> Perm:
        """Permutation of s_b for b = ``roots[i]``, built on first use.  A
        root of height h has depth h - 1 if h > 0 and -h if h < 0, so the
        simple roots are the roots of depth 0.  A positive b that is not
        simple has a simple a_k with <b, a_k> > 0 (Humphreys §10.2), and
        s_k(b) is positive and lower; the k that lowers -b also lowers a
        negative b, and -a_k goes to a_k.  So b takes as parent c = s_k(b) for the
        first simple a_k that lowers its depth, and s_b = s_k·(s_c·s_k).
        ``roots[i]`` and its negative are built apart: comparing their
        reflections is a real check, not a cache hit."""
        p = self._reflections.get(i)
        if p is None:
            depth = self._depth
            gt, g = next((gt, g) for gt, g in self.generators if depth[g[i]] < depth[i])
            parent = self.table(self.reflection_at(g[i]))
            p = self._reflections[i] = self.mul(gt, self.mul(parent, g))
        return p

    def reflection_perm(self, root: Vector) -> Perm:
        """Permutation of s_root (see :meth:`reflection_at`); ValueError
        for a non-root."""
        return self.reflection_at(self.system.index(root))

    def word_perm(self, word: Sequence[Vector]) -> Perm:
        """Permutation of the word's product (see the composition convention)."""
        return self.index_word_perm(map(self.system.index, word))

    def index_word_perm(self, idx: Iterable[int]) -> Perm:
        """:meth:`word_perm` of the word at the positions ``idx`` of ``roots``."""
        return self.compose(*map(self.reflection_at, idx))

    def reduced_word(self, p: Perm) -> Word:
        """A reduced word for the element ``p``, as simple roots with
        ``word_perm(reduced_word(p)) == p``; ValueError for a root
        permutation outside W, such as -1 in A2.  Found by descent
        (Humphreys §1.6-1.7): while w sends a simple root a negative, w s_a
        has one inversion fewer, so it ends at an element keeping the simple
        roots positive, the identity exactly for w in W, within N+ steps.
        The letters come out first-applied first, so they are returned last
        first."""
        system, positive = self.system, self.system.positive
        letters = []
        w = p
        for _ in range(self.n // 2):
            k = next((k for k, i in enumerate(self._simple) if not positive[w[i]]), None)
            if k is None:
                break
            w = self.mul(self.table(w), self.generators[k][1])
            letters.append(system.simple_roots[k])
        if w != self.ident:
            raise ValueError(f"the permutation of the roots of {system.name()} "
                             f"is not in its Weyl group")
        return tuple(reversed(letters))

    def matrix_of_perm(self, p: Perm) -> Matrix:
        """Ambient matrix of the element: its reduced word, evaluated."""
        return evaluate(self.system, self.reduced_word(p))

    def perm_of_matrix(self, m: Matrix) -> Perm:
        """Permutation of an element's ambient matrix.  Any ``m`` not in W
        is a ValueError: one that does not permute the roots, permutes them
        as an automorphism outside W, such as -1 in A2, or moves the
        orthogonal complement of their span.

        ``m`` is scaled to integers once, den·m, and each root's image
        den·m(r') on doubled coordinates r' is looked up as den times a
        root; only the upper half of ``roots`` is mapped, as
        ``roots[n - 1 - i]`` is ``-roots[i]``.  :meth:`reduced_word`
        decides whether the images, as a permutation, are an element of W;
        its word then fixes the element on the span of the roots, and
        evaluated it must equal ``m`` on the whole space."""
        system = self.system
        n = system.dim
        if len(m) != n or any(len(row) != n for row in m):
            raise ValueError("matrix has the wrong shape")
        work, den = integer_matrix(m)
        index, last = system.int_index, self.n - 1
        upper = []
        for r in system.int_roots[self.n // 2:]:
            image = [idot(row, r) for row in work]
            i = None if any([x % den for x in image]) else index.get(
                tuple([x // den for x in image]))
            if i is None:
                raise ValueError(f"matrix does not permute the roots of {system.name()}")
            upper.append(i)
        p = self._wrap([last - i for i in reversed(upper)] + upper)
        if evaluate(system, self.reduced_word(p)) != tuple(tuple(row) for row in m):
            raise ValueError("matrix moves the orthogonal complement of the roots")
        return p


@functools.cache
def perm_space(system: RootSystem) -> PermSpace:
    """The (cached) permutation encoding of W(system)."""
    return PermSpace(system)


def check_cap(cap) -> None:
    """ValueError unless ``cap`` is None or an int of at least 1 (a bool
    is not a cap)."""
    if cap is not None and (type(cap) is not int or cap < 1):
        raise ValueError(f"cap must be None or an int of at least 1, not {cap!r}")


def walk(start, moves, cap: int | None = None, stop=None) -> dict | None:
    """Breadth-first walk from ``start``: the parent map ``{node: (prev,
    label)}``, with ``start`` mapped to None.  ``moves(node)`` yields the
    node's ``(label, neighbour)`` pairs, for example ``enumerate`` over its
    neighbours.  Nodes enter the map in discovery order, frontier by
    frontier and each node's moves in order, so every parent comes before
    its children.  The walk ends as soon as it discovers ``stop``, and
    gives None once it would hold more than ``cap`` nodes; ValueError for
    a ``cap`` that is not None or an int of at least 1."""
    check_cap(cap)
    parent: dict = {start: None}
    queue = [start]
    for node in queue:  # the queue grows while it is read
        for label, nxt in moves(node):
            if nxt not in parent:
                if cap is not None and len(parent) >= cap:
                    return None
                parent[nxt] = (node, label)
                if nxt == stop:
                    return parent
                queue.append(nxt)
    return parent
