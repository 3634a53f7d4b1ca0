"""Brute-force verification engine over Weyl groups.

Everything here is exhaustive and exact: group elements are permutations
of their (finitely many) roots, conjugacy is settled in one place
(:func:`conjugating_perm`) by a breadth-first walk of one conjugacy
class (``weyl.walk``, which walks every orbit here) that either produces
an explicit, checked witness or exhausts the class, and
diagram-realization questions are settled by a backtracking search over
root subsets that either lists every match or certifies that none
exists.  Find-first searches and orbit counts are anchored by
W-transitivity on the roots of each length, and |W| comes from the root
heights.  The module is the referee against which the algebraic
shortcuts elsewhere in the package are checked.

Group elements are handled as root permutations (``weyl.PermSpace``);
ambient matrices are built only where they cross the API: conjugacy
inputs and witnesses.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from math import prod

from . import diagram as dg
from . import weyl
from .exactla import (
    Matrix,
    Vector,
    gram_positive_definite,
    mat_mul,
)
from .rootsys import RootSystem

DEFAULT_CONJUGACY_CAP = 1_000_000


def weyl_group_order(system: RootSystem) -> int:
    """Order of W(system) from the heights of its positive roots (not by
    enumeration).  By Kostant's theorem the exponents are the dual
    partition of the number of positive roots of each height: count[h] -
    count[h + 1] of them equal h, and |W| is the product of exponent + 1."""
    count = Counter(h for h in system.heights if h > 0)
    return prod((h + 1) ** (c - count[h + 1]) for h, c in count.items())


# ---------------------------------------------------------------------------
# Conjugacy


@dataclass(frozen=True)
class ConjugacyResult:
    """Outcome of a conjugacy search.

    ``status`` is ``"conjugate"`` (with a verified ``witness`` u such
    that u w1 u^-1 = w2), ``"not-conjugate"`` (the full class of w1 was
    walked without meeting w2), or ``"unresolved"`` (cap hit first).
    """

    status: str
    witness: Matrix | None = None

    def __bool__(self) -> bool:
        return self.status == "conjugate"


def are_conjugate(
    system: RootSystem,
    w1: Matrix,
    w2: Matrix,
    cap: int = DEFAULT_CONJUGACY_CAP,
) -> ConjugacyResult:
    """Decide whether w1 and w2 are conjugate in W(system).

    Walks the conjugacy class of w1 under conjugation by simple
    reflections (which generates conjugation by the whole group).  The
    witness is rebuilt as an exact matrix and re-verified before it is
    returned.
    """
    space = weyl.perm_space(system)
    status, u = conjugating_perm(space, space.perm_of_matrix(w1),
                                 space.perm_of_matrix(w2), cap)
    if u is None:
        return ConjugacyResult(status)
    witness = space.matrix_of_perm(u)
    if mat_mul(witness, w1) != mat_mul(w2, witness):
        raise AssertionError("conjugacy witness failed exact verification")
    return ConjugacyResult(status, witness)


def conjugating_perm(
    space: weyl.PermSpace, p: weyl.Perm, q: weyl.Perm, cap: int,
) -> tuple[str, weyl.Perm | None]:
    """Decide whether the root permutations p and q are conjugate.

    Returns ``("conjugate", u)`` with u p u^-1 == q checked,
    ``("not-conjugate", None)`` once the class of p is walked without
    meeting q, or ``("unresolved", None)`` when the class outgrows
    ``cap``.  u is the product of the conjugating simple reflections
    along the walk's path to q, last first.  ValueError for a ``cap``
    that is not None or an int of at least 1, even when p == q.
    """
    weyl.check_cap(cap, "cap")
    if p == q:
        return "conjugate", space.ident
    parent = _class_walk(space, p, cap, stop=q)
    if parent is None:
        return "unresolved", None
    if q not in parent:
        return "not-conjugate", None
    chain = []
    node = q
    while parent[node] is not None:
        node, gi = parent[node]
        chain.append(space.generators[gi][1])
    u = space.compose(*chain)
    if not space.conjugates(u, p, q):
        raise AssertionError("conjugating permutation failed verification")
    return "conjugate", u


def _class_walk(space: weyl.PermSpace, start, cap: int, stop=None) -> dict | None:
    """:func:`weyl.walk` of the conjugacy class of ``start``.

    Returns the parent map ``{q: (p, gi)}`` (q = g_gi p g_gi, ``start``
    maps to None) over the whole class, or over the part walked before
    ``stop`` was met; None when the class outgrows ``cap``.
    """
    mul, table, gens = space.mul, space.table, space.generators

    def moves(p):  # g·(p·g) = g p g^-1, with one table of p for every g
        pt = table(p)
        return enumerate(mul(gt, mul(pt, g)) for gt, g in gens)

    return weyl.walk(start, moves, cap, stop)


# ---------------------------------------------------------------------------
# Diagram realization search


@dataclass(frozen=True)
class LabeledDiagram:
    """A realization: roots aligned to the target's vertices, held as
    their positions ``idx`` in ``system.roots``."""

    system: RootSystem
    idx: tuple[int, ...]

    @property
    def roots(self) -> tuple[Vector, ...]:
        """The realization as the system's own root tuples."""
        roots = self.system.roots
        return tuple(roots[i] for i in self.idx)


@functools.cache
def _reps_host(system: RootSystem) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], int, int]:
    """``(rows, long mask, short mask)`` of the sign-class reps: the
    :attr:`diagram.Diagram.rows` of the :func:`diagram.signed_graph` of
    their Gram matrix, the host :func:`diagram.embeddings` places on, and
    the reps of each length class, read off its ``longs``.  The diagram
    itself is not kept (E8's has 3 360 edges).  Adjacency and the length
    classes fix the magnitude of an inner product: the product of two
    adjacent roots' Cartan numbers is 4 cos^2 of their angle, an integer
    from 1 to 3, so the shorter root's number against the longer is +-1,
    and |(a, b)| is half the longer root's norm.
    """
    reps = dg.signed_graph(system, system.int_gram(system.sign_class_reps()))
    long = sum(1 << i for i, is_long in enumerate(reps.longs) if is_long)
    return reps.rows, long, (1 << reps.n) - 1 ^ long


def find_subsets(
    system: RootSystem,
    target: dg.Diagram,
    limit: int | None = None,
) -> list[LabeledDiagram]:
    """All root subsets realizing ``target`` up to sign-flip equivalence.

    Backtracking over sign-class representatives in lexicographic
    order.  A candidate assignment must reproduce the target's
    adjacency (edge where and only where the target has one), its edge
    styles up to switching (negating the roots of some vertices), and
    be linearly independent (a positive definite Gram matrix), which is
    what makes an empty result a certificate of non-existence.

    The length classes and adjacency fix each inner product's magnitude
    (see :func:`_reps_host`).  So once the realized styles agree with
    the target's up to switching by a diagonal sign matrix D, the
    realized Gram matrix is c D G D, with G the target's own Gram matrix
    at the system's length ratio and c > 0, and its leading minors are
    c^k times G's (Carter 1972, admissible diagrams).  Positive
    definiteness is therefore one proof per call: a target whose G is
    not positive definite has no realization, and otherwise every
    switching-consistent placement is independent.  The placements are
    :func:`diagram.embeddings` of the target on the reps, each vertex on
    the reps of its length class, with the rows of the reps' signed graph
    as the host.

    Matches are reported once per root set, in the order the search
    finds them, each as the positions of its roots in ``system.roots``;
    ``limit`` (None or an int of at least 1) stops early (the result is
    then not exhaustive).

    A find-first search (``limit == 1``) is anchored: the class of the
    first vertex of :attr:`diagram.Diagram.plan` is masked down to the
    lowest representative of its length class.
    W is transitive on the roots of each length (the system is
    irreducible) and keeps lengths, adjacency, independence and styles up
    to sign flips, so any realization has a W-image through that
    representative.  The unanchored search explores that representative
    first, so the anchored one returns the same realization, and an empty
    result is still an emptiness certificate.  Full enumerations stay
    unanchored: the uniqueness check in the benchmark's ``unique``
    operation needs every realization from one exhaustive call.
    """
    weyl.check_cap(limit, "limit")
    if target.n > system.rank or not gram_positive_definite(dg.int_gram(target, system.ratio)[0]):
        return []  # more vertices than independent roots, or G not positive definite
    rows, long, short = _reps_host(system)
    classes = [long if is_long else short for is_long in target.longs]
    if limit == 1 and target.n:
        first = target.plan[0][0]
        classes[first] &= -classes[first]
    half = len(system.roots) // 2  # reps are the upper half of ``roots``
    return [LabeledDiagram(system, tuple(half + x for x in found))
            for found in dg.embeddings(target, rows, classes, limit)]


def verify_unique_class(
    system: RootSystem,
    name: str,
    cap: int = DEFAULT_CONJUGACY_CAP,
) -> bool:
    """True iff every realization of the named diagram gives one class.

    Finds every root subset realizing the catalog diagram ``name``,
    forms the bicolored element of each, and checks that they all lie
    in the conjugacy class of the first (walked once, exhaustively).  A
    ``cap`` that is not None or an int of at least 1 is a ValueError,
    before the search.
    """
    weyl.check_cap(cap, "cap")
    entry = dg.catalog(name)
    found = find_subsets(system, entry.diagram)
    if not found:
        raise ValueError(f"{name} has no realization in {system.name()}")
    space = weyl.perm_space(system)
    # Every realization has the target's adjacency, so one two-colouring
    # orders them all.
    order = dg.bicolored_word_order(entry.diagram)
    elements = (space.index_word_perm([item.idx[i] for i in order]) for item in found)
    seen = _class_walk(space, next(elements), cap)
    if seen is None:
        raise RuntimeError(
            f"conjugacy class of {name} in W({system.name()}) "
            f"exceeded the cap of {cap}; inconclusive"
        )
    return all(p in seen for p in elements)


# ---------------------------------------------------------------------------
# Orbit counting and complements


def orthogonal_tuple_orbits(system: RootSystem, k: int) -> int:
    """Number of W-orbits of unordered k-tuples of orthogonal root pairs.

    A tuple is a sorted k-subset of sign-class representatives, mutually
    orthogonal; W acts through root permutations, with images reduced
    back to representatives.  No group enumeration is needed, and only
    the tuples through one anchor per length class are built:

    - W is transitive on the roots of each length, so each orbit holds a
      tuple through the dominant root ``a`` of one length class: the long
      one when the tuple has a long root, else the short one (and then
      the tuple has no long root).
    - If w sends a tuple S through ``a`` to T, then w(a) = +-b for a
      member b of T of a's length, and w_b w fixes +-a, where w_b is a
      fixed element with w_b(b) = +-a.  So S and T share an orbit exactly
      when g(S) = w_b(T) for some g fixing +-a.
    - ``a`` is dominant, so the elements fixing it are generated by the
      simple reflections orthogonal to it (Steinberg 1964; Humphreys
      §1.12); with s_a they generate the elements fixing +-a.

    The tuples through ``a`` are the :func:`diagram.embeddings` of the
    edgeless (k-1)-vertex diagram on the reps orthogonal to ``a``, only
    short ones when ``a`` is short.  Each one that no earlier walk
    reached starts a walk, which applies those generators and each w_b
    (b != a a member of a's length) to every tuple it reaches.  Moves
    stay in the orbit, and from T, w_b then g^-1 reaches any S in T's
    orbit (g^-1 is a word in the generators, which are involutions), so
    the walks count the orbits of a's class.
    """
    if type(k) is not int or k not in (2, 3):
        raise ValueError("only pairs and triples are supported")
    rows, long_mask, short_mask = _reps_host(system)
    adj = rows[0]
    # Each element acts on reps: rep i goes to the sign class of its image.
    space = weyl.perm_space(system)
    half = len(system.roots) // 2  # reps are the upper half of ``roots``

    def on_reps(root) -> list[int]:
        return [system.sign_class(i) for i in space.reflection_perm(root)[half:]]

    simple = [on_reps(s) for s in system.simple_roots]
    edgeless = dg.make_diagram(k - 1, [])
    orbits = 0
    for long in (True, False) if long_mask else (False,):
        anchor = system.dominant_root(long)
        a = system.sign_class(system.index(anchor))
        same = long_mask if long else short_mask
        reanchor = _transversal(simple, a)
        if len(reanchor) != same.bit_count():
            raise AssertionError("W is not transitive on a length class")
        stabilizer = [g for g, s in zip(simple, system.simple_roots)
                      if system.normalized_inner(s, anchor) == 0] + [on_reps(anchor)]

        others = (long_mask | short_mask if long else same) & ~adj[a] & ~(1 << a)
        seen: set[tuple[int, ...]] = set()
        for rest in dg.embeddings(edgeless, rows, [others] * (k - 1)):
            start = tuple(sorted((a, *rest)))
            if start in seen:
                continue
            orbits += 1
            seen.update(weyl.walk(start, lambda t: enumerate(
                tuple(sorted(g[i] for i in t)) for g in
                stabilizer + [reanchor[b] for b in t if b != a and same >> b & 1])))
    return orbits


def _transversal(gens: list[list[int]], a: int) -> dict[int, list[int]]:
    """``{b: w_b}`` over the orbit of ``a`` under the involutions ``gens``
    (permutations as lists), with w_b(b) = a.  Read off a breadth-first
    walk from ``a``, parents first: w_{g(c)} = w_c g."""
    parent = weyl.walk(a, lambda c: ((g, g[c]) for g in gens))
    out = {a: list(range(len(gens[0])))}
    for b, (c, g) in list(parent.items())[1:]:
        out[b] = [out[c][x] for x in g]
    return out


def max_root_complement(system: RootSystem) -> list[str]:
    """Component names of the subsystem orthogonal to the highest root.

    The roots orthogonal to the highest root form a root subsystem.  The
    highest root is dominant, so the simple roots orthogonal to it are a
    simple system of that subsystem (Humphreys §1.12); each component of
    their diagram is named by :meth:`RootSystem.subsystem_name`, with the
    smallest-rank convention (a path of three is ``A3``, never ``D3``).
    """
    delta = system.max_root()
    base = [s for s in system.simple_roots if system.normalized_inner(s, delta) == 0]
    return sorted(
        (system.subsystem_name([base[i] for i in comp])
         for comp in dg.from_roots(system, base).components),
        key=dg.component_key,
    )
