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
permutations are, and the ambient matrix is rebuilt on demand with no
loss of exactness.
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
    dot,
    gram_positive_definite,
    idot,
    identity,
    mat_pow,
    mat_vec,
)
from .rootsys import RootSystem

Word = tuple[Vector, ...]
#: A root permutation: ``bytes`` for at most 256 roots, else an int tuple.
Perm = bytes | tuple[int, ...]


def reflection(system: RootSystem, root: Vector) -> Matrix:
    """Ambient matrix of the reflection in the hyperplane of ``root``."""
    return evaluate(system, (root,))


def evaluate(system: RootSystem, word: Sequence[Vector]) -> Matrix:
    """Ambient matrix of the word (see the composition convention above)."""
    n = system.dim
    work = [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]
    for root in word:
        r = tuple(root)
        system.index(r)  # ValueError for a non-root
        c = 2 / dot(r, r)
        # A @ refl(r) = A - c * (A r) outer r
        for p in range(n):
            ar = sum((work[p][q] * r[q] for q in range(n)), Q(0))
            if ar == 0:
                continue
            car = c * ar
            row = work[p]
            for q in range(n):
                if r[q]:
                    row[q] -= car * r[q]
    return tuple(tuple(row) for row in work)


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
    return tuple(tuple(Q(x) for x in row) for row in _word_product(gram, order))


def _word_product(gram: Sequence[Sequence], order: Sequence[int]) -> list[list]:
    """The rows of :func:`word_matrix_from_gram`, as ints where the Cartan
    numbers are."""
    n = len(gram)
    work = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in order:
        # s_i = I + e_i w^T, so A @ s_i = A + (column i of A) outer w.
        w = [-cartan_number(gram[q][i], gram[i][i]) for q in range(n)]
        for p in range(n):
            api = work[p][i]
            if api == 0:
                continue
            row = work[p]
            for q in range(n):
                row[q] += api * w[q]
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
    ValueError for a non-root or a dependent word.
    """
    return tuple(tuple(Q(x) for x in row) for row in int_word_matrix(system, word))


def int_word_matrix(system: RootSystem, word: Sequence[Vector]) -> list[list[int]]:
    """:func:`word_matrix` with int entries, for ``exactla.charpoly``.

    Computed on the doubled-integer Gram matrix of the roots, whose
    leading minors also settle independence (positive definiteness); the
    Cartan numbers of roots are integers, so every entry is an int.
    """
    gram = system.int_gram(word)
    if not gram_positive_definite(gram):
        raise ValueError("word roots are linearly dependent")
    return _word_product(gram, range(len(gram)))


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
    §1.5): one :func:`walk` per root orbit from a simple root, moving by
    the simple reflections, reaches every root, and a root b = s_k(c) gets
    s_b = s_k s_c s_k from its parent c.  Each reflection is built on
    first use, after the ones on its walk path.
    """

    def __init__(self, system: RootSystem):
        self.system = system
        self.roots = system.roots
        self.n = len(self.roots)
        self.packed = self.n <= 256
        self.ident = self._wrap(range(self.n))
        self._pad = bytes(range(self.n, 256))
        self._simple = tuple(map(system.index, system.simple_roots))

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

    def image(self, p: Perm, root: Vector) -> Vector:
        """The root ``p`` sends ``root`` to; ValueError for a non-root."""
        return self.roots[p[self.system.index(root)]]

    @functools.cached_property
    def _reflections(self) -> dict[int, Perm]:
        """Reflections by root index, seeded with the simple ones."""
        return {i: self._wrap(self.system.reflection_images(self.roots[i]))
                for i in self._simple}

    @functools.cached_property
    def generators(self) -> tuple[tuple[Perm, Perm], ...]:
        """``(table, perm)`` of each simple reflection, in simple-root order."""
        return tuple((self.table(p), p) for p in (self._reflections[i] for i in self._simple))

    @functools.cached_property
    def _root_tree(self) -> dict[int, tuple[int, int] | None]:
        """``{b: (c, k)}`` with ``roots[b]`` = s_k(``roots[c]``): one :func:`walk`
        from each simple root not yet reached, one per root orbit."""
        gens = [g for _, g in self.generators]
        tree: dict = {}
        for i in self._simple:
            if i not in tree:
                tree.update(walk(i, lambda b: enumerate(g[b] for g in gens)))
        return tree

    def reflection_at(self, i: int) -> Perm:
        """Permutation of s_r for r = ``roots[i]``, built on first use.  A
        root b = s_k(c) gets s_k·(s_c·s_k) from its walk parent c, so
        ``roots[i]`` and its negative are built apart: comparing their
        reflections is a real check, not a cache hit."""
        p = self._reflections.get(i)
        if p is None:
            c, k = self._root_tree[i]
            gt, g = self.generators[k]
            parent = self.table(self.reflection_at(c))
            p = self._reflections[i] = self.mul(gt, self.mul(parent, g))
        return p

    def reflection_perm(self, root: Vector) -> Perm:
        """Permutation of s_root (see :meth:`reflection_at`); ValueError
        for a non-root."""
        return self.reflection_at(self.system.index(root))

    def word_perm(self, word: Sequence[Vector]) -> Perm:
        """Permutation of the word's product (see the composition convention)."""
        return self.compose(*(self.reflection_perm(r) for r in word))

    def perm_of_matrix(self, m: Matrix) -> Perm:
        """Permutation of an element's ambient matrix.  Any ``m`` not in W
        is a ValueError: one that does not permute the roots, moves the
        orthogonal complement of their span, or permutes the roots as an
        automorphism outside W, such as -1 in A2.  The last is found by
        descent (Humphreys §1.6-1.7): while w sends a simple root a
        negative, w s_a has one inversion fewer, so it ends at an element
        keeping the simple roots positive, the identity exactly for w in W."""
        n = self.system.dim
        if len(m) != n or any(len(row) != n for row in m):
            raise ValueError("matrix has the wrong shape")
        images = []
        for r in self.roots:
            idx = self.system.root_index(mat_vec(m, r))
            if idx is None:
                raise ValueError(
                    f"matrix does not permute the roots of {self.system.name()}"
                )
            images.append(idx)
        p = self._wrap(images)
        if self.matrix_of_perm(p) != tuple(tuple(row) for row in m):
            raise ValueError("matrix moves the orthogonal complement of the roots")
        system, positive = self.system, self.system.positive
        simple = [(i, g) for i, (_, g) in zip(self._simple, self.generators)]
        w = p
        while descents := [s for i, s in simple if not positive[w[i]]]:
            w = self.mul(self.table(w), descents[0])
        if w != self.ident:
            raise ValueError(f"matrix permutes the roots of {system.name()} "
                             f"but is not in its Weyl group")
        return p

    def matrix_of_perm(self, p: Perm) -> Matrix:
        """Ambient matrix ``I + (T - S) K`` of the element.

        ``S`` has the simple roots as columns, ``T`` their images under
        ``p`` and ``K`` is the system's simple-coefficient map.  A vector
        ``v = S c`` of the root span has ``K v = c`` and goes to ``T c``;
        a vector orthogonal to the span has ``K v = 0`` and is fixed.
        Computed on integers: doubled roots and ``K = rows / den``.
        """
        system = self.system
        rows, den = system.coefficient_map
        lattice = system.int_roots
        moved = []  # 2 (T - S), by column
        for s in system.simple_roots:
            i = system.index(s)
            moved.append([a - b for a, b in zip(lattice[p[i]], lattice[i])])
        scale = 2 * den
        kcols = tuple(zip(*rows))
        return tuple(
            tuple(Q((scale if i == j else 0) + idot(row, col), scale)
                  for j, col in enumerate(kcols))
            for i, row in enumerate(zip(*moved))
        )


@functools.cache
def perm_space(system: RootSystem) -> PermSpace:
    """The (cached) permutation encoding of W(system)."""
    return PermSpace(system)


def walk(start, moves, cap: int | None = None, stop=None) -> dict | None:
    """Breadth-first walk from ``start``: the parent map ``{node: (prev,
    label)}``, with ``start`` mapped to None.  ``moves(node)`` yields the
    node's ``(label, neighbour)`` pairs, for example ``enumerate`` over its
    neighbours.  Nodes enter the map in discovery order, frontier by
    frontier and each node's moves in order, so every parent comes before
    its children.  The walk ends as soon as it discovers ``stop``, and
    gives None once it would hold more than ``cap`` nodes."""
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
