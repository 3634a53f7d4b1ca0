"""Brute-force verification engine over Weyl groups.

Everything here is exhaustive and exact: group elements are permutations
of their (finitely many) roots, conjugacy is settled in one place
(:func:`conjugating_perm`) by a breadth-first walk of one conjugacy
class that either produces an explicit, checked witness or exhausts the
class, and diagram-realization questions are settled by a backtracking
search over root subsets that either lists every match or certifies
that none exists.  The module is deliberately slow-and-sure; it is the
referee against which the algebraic shortcuts elsewhere in the package
are checked.

Group elements are handled as root permutations (``weyl.PermSpace``);
ambient matrices are built only where they cross the API: conjugacy
inputs and witnesses.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import diagram as dg
from . import weyl
from .exactla import (
    LeadingMinors,
    Matrix,
    Vector,
    dot,
    idot,
    mat_mul,
    transpose,
    vec_sub,
)
from .rootsys import RootSystem, doubled, lex_positive_rep

DEFAULT_CONJUGACY_CAP = 1_000_000

#: |W| for each family, from the standard order formulas.
_EXCEPTIONAL_ORDER = {
    "E6": 51_840,
    "E7": 2_903_040,
    "E8": 696_729_600,
    "F4": 1_152,
    "G2": 12,
}


def weyl_group_order(system: RootSystem) -> int:
    """Order of W(system) from the product formula (not by enumeration)."""
    n = system.rank
    fam = system.family
    if fam == "A":
        out = 1
        for i in range(2, n + 2):
            out *= i
        return out
    if fam in ("B", "C"):
        out = 2**n
        for i in range(2, n + 1):
            out *= i
        return out
    if fam == "D":
        out = 2 ** (n - 1)
        for i in range(2, n + 1):
            out *= i
        return out
    return _EXCEPTIONAL_ORDER[system.name()]


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
    if mat_mul(mat_mul(witness, w1), transpose(witness)) != w2:
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
    along the walk's path to q, last first.
    """
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
        chain.append(space.reflection_perm(space.system.simple_roots[gi]))
    u = space.compose(*chain)
    if space.conjugate(u, p) != q:
        raise AssertionError("conjugating permutation failed verification")
    return "conjugate", u


def _class_walk(space: weyl.PermSpace, start, cap: int, stop=None) -> dict | None:
    """Breadth-first walk of the conjugacy class of ``start``.

    Returns the parent map ``{q: (p, gi)}`` (q = g_gi p g_gi, ``start``
    maps to None) over the whole class, or over the part walked before
    ``stop`` was met; None when the class outgrows ``cap``.
    """
    gens = [space.reflection_perm(r) for r in space.system.simple_roots]
    gen_tables = [space.table(g) for g in gens]
    parent: dict = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for gi, gt in enumerate(gen_tables):
                half = space.mul(gt, p)  # g·p
                q = space.mul(space.table(half), gens[gi])  # (g·p)·g = g p g^-1
                if q not in parent:
                    if len(parent) >= cap:
                        return None
                    parent[q] = (p, gi)
                    if q == stop:
                        return parent
                    nxt.append(q)
        frontier = nxt
    return parent


# ---------------------------------------------------------------------------
# Diagram realization search


@dataclass(frozen=True)
class LabeledDiagram:
    """A realization: roots aligned to the target's vertices."""

    roots: tuple[Vector, ...]
    diagram: dg.Diagram


class _SubsetIndex:
    """Pairwise inner-product tables over sign-class reps, as bitmasks.

    ``inner`` holds integer inner products of doubled coordinates (four
    times the Fraction ones).  ``mag_masks`` is keyed by twice the absolute
    inner product, which for an adjacent pair is the squared length of its
    longer root in doubled coordinates: ``int_short_norm`` between short
    roots and ``int_long_norm`` once a long root is involved.
    """

    def __init__(self, system: RootSystem):
        reps = system.sign_class_reps()
        m = len(reps)
        self.reps = reps
        lattice = [doubled(r) for r in reps]
        self.inner = [[idot(a, b) for b in lattice] for a in lattice]
        self.orth_mask = [0] * m
        self.mag_masks: dict[int, list[int]] = {}
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                x = self.inner[i][j]
                if x == 0:
                    self.orth_mask[i] |= 1 << j
                else:
                    masks = self.mag_masks.setdefault(2 * abs(x), [0] * m)
                    masks[i] |= 1 << j
        self.long_mask = 0
        for i, r in enumerate(reps):
            if system.is_long(r):
                self.long_mask |= 1 << i
        self.short_mask = ((1 << m) - 1) ^ self.long_mask


@functools.cache
def _subset_index(system: RootSystem) -> _SubsetIndex:
    return _SubsetIndex(system)


def find_subsets(
    system: RootSystem,
    target: dg.Diagram,
    limit: int | None = None,
) -> list[LabeledDiagram]:
    """All root subsets realizing ``target`` up to sign-flip equivalence.

    Backtracking over sign-class representatives in lexicographic
    order.  A candidate assignment must reproduce the target's
    adjacency (edge where and only where the target has one, with the
    inner-product magnitude the edge demands) and keep the running Gram
    matrix positive definite — which is exactly linear independence for
    root sets, and is what makes an empty result a certificate of
    non-existence.  Edge styles are compared only at the end, up to
    sign flips (style differences must form a cut of the target graph).

    Matches are reported once per root set, in the order the search
    finds them; ``limit`` (None or at least 1) stops early (the result
    is then not exhaustive).
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be None or at least 1, not {limit}")
    k = target.n
    if k == 0:
        return []
    if k > system.rank:
        return []  # more vertices than independent roots can exist
    idx = _subset_index(system)
    reps = idx.reps
    m = len(reps)

    # Visit high-degree vertices early so edge constraints bind sooner.
    visit: list[int] = []
    remaining = set(range(k))
    adj = target.adjacency()
    while remaining:
        best = max(
            remaining,
            key=lambda v: (len(adj[v] & set(visit)), len(adj[v]), -v),
        )
        visit.append(best)
        remaining.discard(best)

    def edge_magnitude(a: int, b: int) -> int:
        """The ``mag_masks`` key of an edge between vertices a and b."""
        if target.longs[a] or target.longs[b]:
            return system.int_long_norm
        return system.int_short_norm

    empty = [0] * m
    all_mask = (1 << m) - 1
    base_mask = [
        idx.long_mask if target.longs[v] else idx.short_mask for v in range(k)
    ]
    # constraint_masks[v] = for each earlier-placed u adjacent/non-adjacent
    # to v, the mask family its chosen root will index into.
    placement: list[tuple[int, list[list[int]]]] = []
    for depth, v in enumerate(visit):
        fams = []
        for u in visit[:depth]:
            if u in adj[v]:
                fams.append(idx.mag_masks.get(edge_magnitude(u, v), empty))
            else:
                fams.append(idx.orth_mask)
        placement.append((v, fams))

    results: list[LabeledDiagram] = []
    seen_sets: set[frozenset] = set()
    chosen_pos: list[int] = []  # rep indices, in visit order
    chosen: list[Vector | None] = [None] * k  # indexed by target vertex
    vertex_pos = [0] * k  # rep index chosen for each target vertex
    # Leading minors of the running Gram, for its positive-definiteness.
    minors = LeadingMinors()

    def pd_extend(pos: int) -> bool:
        row = idx.inner[pos]
        return minors.push([row[p] for p in chosen_pos], row[pos])

    def descend(depth: int, used: int) -> bool:
        """Returns True when the limit is reached."""
        if depth == k:
            key = frozenset(chosen)
            if key in seen_sets:
                return False
            realized = [
                (a, b, dg.DOTTED if idx.inner[vertex_pos[a]][vertex_pos[b]] > 0
                 else dg.SOLID)
                for a, b, _ in target.edges
            ]
            # Realized styles must differ from the target on a cut.
            if dg.two_coloring(k, [
                (a, b, style != want)
                for (a, b, style), (_, _, want) in zip(realized, target.edges)
            ]) is None:
                return False
            seen_sets.add(key)
            # Adjacency and length classes equal the target's by construction.
            results.append(LabeledDiagram(
                tuple(chosen), dg.make_diagram(k, realized, longs=target.longs)))
            return limit is not None and len(results) >= limit
        v, fams = placement[depth]
        cand = base_mask[v] & ~used & all_mask
        for i, fam in enumerate(fams):
            cand &= fam[chosen_pos[i]]
            if not cand:
                return False
        while cand:
            bit = cand & -cand
            cand ^= bit
            pos = bit.bit_length() - 1
            if pd_extend(pos):
                chosen_pos.append(pos)
                chosen[v] = reps[pos]
                vertex_pos[v] = pos
                if descend(depth + 1, used | bit):
                    return True
                chosen[v] = None
                chosen_pos.pop()
                minors.pop()
        return False

    descend(0, 0)
    return results


def verify_unique_class(
    system: RootSystem,
    name: str,
    cap: int = DEFAULT_CONJUGACY_CAP,
) -> bool:
    """True iff every realization of the named diagram gives one class.

    Finds every root subset realizing the catalog diagram ``name``,
    forms the bicolored element of each, and checks that they all lie
    in the conjugacy class of the first (walked once, exhaustively).
    """
    entry = dg.catalog(name)
    found = find_subsets(system, entry.diagram)
    if not found:
        raise ValueError(f"{name} has no realization in {system.name()}")
    space = weyl.perm_space(system)
    # Every realization has the target's adjacency, so one two-colouring
    # orders them all.
    order = dg.bicolored_word_order(entry.diagram)
    elements = [space.word_perm([item.roots[i] for i in order]) for item in found]
    seen = _class_walk(space, elements[0], cap)
    if seen is None:
        raise RuntimeError(
            f"conjugacy class of {name} in W({system.name()}) "
            f"exceeded the cap of {cap}; inconclusive"
        )
    return all(p in seen for p in elements[1:])


# ---------------------------------------------------------------------------
# Orbit counting and complements


def orthogonal_tuple_orbits(system: RootSystem, k: int) -> int:
    """Number of W-orbits of unordered k-tuples of orthogonal root pairs.

    A tuple is a sorted k-subset of sign-class representatives, mutually
    orthogonal; W acts through its generators, with images reduced back
    to representatives.  Counted by union-find over the full tuple set,
    so no group enumeration is needed.
    """
    if k not in (2, 3):
        raise ValueError("only pairs and triples are supported")
    idx = _subset_index(system)
    m = len(idx.reps)
    ortho = idx.orth_mask

    tuples: list[tuple[int, ...]] = []
    tuple_index: dict[tuple[int, ...], int] = {}

    def grow(prefix: tuple[int, ...], start: int) -> None:
        if len(prefix) == k:
            tuple_index[prefix] = len(tuples)
            tuples.append(prefix)
            return
        for j in range(start, m):
            if all(ortho[i] >> j & 1 for i in prefix):
                grow(prefix + (j,), j + 1)

    grow((), 0)

    uf = list(range(len(tuples)))

    def root_of(x: int) -> int:
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    # Generator g sends rep i to root g[root_of_rep[i]], whose sign class
    # is rep rep_of_root[g[root_of_rep[i]]].
    space = weyl.perm_space(system)
    rep_index = {r: i for i, r in enumerate(idx.reps)}
    root_of_rep = [system.root_index(r) for r in idx.reps]
    rep_of_root = [rep_index[lex_positive_rep(r)] for r in system.roots]
    gens = [space.reflection_perm(s) for s in system.simple_roots]
    for t_idx, t in enumerate(tuples):
        for g in gens:
            image = tuple(sorted(rep_of_root[g[root_of_rep[i]]] for i in t))
            a, b = root_of(t_idx), root_of(tuple_index[image])
            if a != b:
                uf[a] = b
    return len({root_of(i) for i in range(len(tuples))})


def max_root_complement(system: RootSystem) -> list[str]:
    """Component names of the subsystem orthogonal to the highest root.

    The roots orthogonal to the highest root form a root subsystem; its
    positive part's indecomposable elements are a simple system, whose
    components are classified by shape and length pattern.  Names use
    the smallest-rank convention (a path of three is ``A3``, never
    ``D3``).
    """
    delta = system.max_root()
    members = [r for r in system.roots if dot(r, delta) == 0]
    positives = [r for r in members if lex_positive_rep(r) == r]
    pos_set = set(positives)
    base = [
        p
        for p in positives
        if not any(vec_sub(p, q) in pos_set for q in positives if q != p)
    ]
    d = dg.from_roots(system, base)
    return sorted(
        (_classify_component(system, dg.induced_subdiagram(d, comp))
         for comp in dg.components(d)),
        key=dg.component_key,
    )


def _classify_component(system: RootSystem, comp: dg.Diagram) -> str:
    n = comp.n
    if n == 1:
        return "A1"
    adj = comp.adjacency()
    degrees = [len(nb) for nb in adj]
    if len(comp.edges) != n - 1:
        raise AssertionError("complement base must be a tree")
    if len(set(comp.longs)) == 1:
        if max(degrees) <= 2:
            return f"A{n}"
        if max(degrees) > 3 or degrees.count(3) != 1:
            raise AssertionError("unrecognized branching in complement base")
        branches = sorted(_branch_lengths(adj, degrees.index(3)))
        if branches[:2] == [1, 1]:
            return f"D{n}"
        if branches[:2] == [1, 2]:
            return f"E{n}"
        raise AssertionError(f"unrecognized simply-laced tree {branches}")
    if max(degrees) > 2:
        raise AssertionError("mixed-length complement base must be a path")
    shorts = comp.longs.count(False)
    if n == 2:
        return "G2" if system.ratio == 3 else "B2"
    if shorts == 2 and n == 4:
        return "F4"
    if shorts == 1:
        return f"B{n}"
    if shorts == n - 1:
        return f"C{n}"
    raise AssertionError("unrecognized mixed-length path")


def _branch_lengths(adj: list[set[int]], hub: int) -> list[int]:
    """Vertex count of each path that leaves the one branch vertex."""
    lengths = []
    for node in adj[hub]:
        prev, length = hub, 1
        while len(adj[node]) == 2:
            (nxt,) = adj[node] - {prev}
            prev, node, length = node, nxt, length + 1
        lengths.append(length)
    return lengths

