"""Brute-force group oracles: orders, conjugacy, subset searches, orbits."""

from itertools import combinations
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylcalc import diagram as dg
from weylcalc.exactla import LeadingMinors, identity, mat_mul
from weylcalc.oracle import (
    LabeledDiagram,
    _class_walk,
    are_conjugate,
    find_subsets,
    max_root_complement,
    orthogonal_tuple_orbits,
    verify_unique_class,
    weyl_group_order,
)
from weylcalc.rootsys import _RANK_RANGE, FAMILIES, RootSystem, build, build_by_name
from weylcalc import weyl

from test_diagram import cut_exists, neighbour_sets

SQUARE = ((0, 1), (1, 2), (2, 3), (0, 3))
PENTAGON = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
TRIANGLE = ((0, 1), (1, 2), (0, 2))


def textbook_order(family, n):
    """|W| from the product formulas (Humphreys, Reflection Groups and
    Coxeter Groups, §2.11)."""
    if family == "A":
        return factorial(n + 1)
    if family in "BC":
        return 2**n * factorial(n)
    if family == "D":
        return 2 ** (n - 1) * factorial(n)
    return {"E6": 51_840, "E7": 2_903_040, "E8": 696_729_600,
            "F4": 1_152, "G2": 12}[f"{family}{n}"]


def test_weyl_group_orders():
    systems = [(family, n) for family, (lo, hi) in _RANK_RANGE.items()
               for n in range(lo, hi + 1)]
    assert len(systems) == 65
    for family, n in systems:
        assert weyl_group_order(build(family, n)) == textbook_order(family, n), (family, n)
    assert weyl_group_order(build_by_name("D5")) == 1920


def test_are_conjugate_reflections():
    d4 = build_by_name("D4")
    w1 = weyl.evaluate(d4, (d4.parse_root("e1-e2"),))
    w2 = weyl.evaluate(d4, (d4.parse_root("e1+e2"),))
    result = are_conjugate(d4, w1, w2)
    assert result.status == "conjugate" and result
    u = result.witness
    assert mat_mul(u, w1) == mat_mul(w2, u)


def test_are_conjugate_separates_lengths():
    b2 = build_by_name("B2")
    short = weyl.evaluate(b2, (b2.parse_root("e1"),))
    long_ = weyl.evaluate(b2, (b2.parse_root("e1-e2"),))
    result = are_conjugate(b2, short, long_)
    assert result.status == "not-conjugate" and not result
    assert result.witness is None


def test_are_conjugate_unresolved_past_cap():
    """Two reflections of one class, but the walk stops at two elements."""
    d4 = build_by_name("D4")
    w1 = weyl.evaluate(d4, (d4.parse_root("e1-e2"),))
    w2 = weyl.evaluate(d4, (d4.parse_root("e1+e2"),))
    result = are_conjugate(d4, w1, w2, cap=2)
    assert result.status == "unresolved" and not result and result.witness is None
    assert are_conjugate(d4, w1, w2).status == "conjugate"


def test_are_conjugate_identity_fast_path():
    a2 = build_by_name("A2")
    m = identity(a2.dim)
    assert are_conjugate(a2, m, m).status == "conjugate"


def test_find_subsets_positive_controls():
    """The odd-dotted classes do realize; their Gram data is exact."""
    d4 = build_by_name("D4")
    hits = find_subsets(d4, dg.styled_diagram(4, SQUARE, 1))
    assert hits, "the odd square realizes in D4"
    for labeled in hits:
        realized = dg.from_roots(d4, labeled.roots)  # raises unless independent
        assert realized.n == 4
        assert dg.identify(realized) == "D4(a1)"

    d5 = build_by_name("D5")
    assert find_subsets(d5, dg.styled_diagram(5, PENTAGON, 1), limit=1)

    a4 = build_by_name("A4")
    odd_triangle = dg.styled_diagram(3, TRIANGLE, 1)
    assert find_subsets(a4, odd_triangle, limit=1)
    even_triangle = dg.styled_diagram(3, TRIANGLE, 0)
    assert find_subsets(a4, even_triangle) == []


def test_find_subsets_emptiness():
    a4 = build_by_name("A4")
    for mask in dg.style_class_representatives(4, SQUARE):
        assert find_subsets(a4, dg.styled_diagram(4, SQUARE, mask)) == []
    d4 = build_by_name("D4")
    assert find_subsets(d4, dg.styled_diagram(4, SQUARE, 0)) == []


def test_find_subsets_rank_short_circuit():
    a2 = build_by_name("A2")
    assert find_subsets(a2, dg.styled_diagram(4, SQUARE, 1)) == []
    # The empty root set realizes the empty diagram, so the answer is one
    # empty realization, never an emptiness certificate.
    for limit in (None, 1):
        assert find_subsets(a2, dg.make_diagram(0, []), limit=limit) == [LabeledDiagram(a2, ())]


def test_find_subsets_respects_limit():
    d4 = build_by_name("D4")
    capped = find_subsets(d4, dg.styled_diagram(4, SQUARE, 1), limit=1)
    assert len(capped) == 1


@pytest.mark.parametrize("limit", [0, -1, 2.5, True])
def test_find_subsets_rejects_limit_below_one(limit):
    target = dg.catalog("D4(a1)").diagram
    with pytest.raises(ValueError, match="limit"):
        find_subsets(build_by_name("D4"), target, limit=limit)


@pytest.mark.parametrize("limit", [0, -1, 2.5, True])
def test_embeddings_rejects_limit_below_one(limit):
    """One vertex on a one-vertex host: a bad limit is refused, not read
    as 1."""
    with pytest.raises(ValueError, match="limit"):
        dg.embeddings(dg.make_diagram(1, []), ((0,), (0,)), [1], limit)


def test_verify_unique_class_smallest_case():
    d4 = build_by_name("D4")
    assert verify_unique_class(d4, "D4(a1)")
    with pytest.raises(ValueError, match="D4\\(a1\\) has no realization in A3"):
        verify_unique_class(build_by_name("A3"), "D4(a1)")
    with pytest.raises(RuntimeError, match="exceeded the cap of 2; inconclusive"):
        verify_unique_class(d4, "D4(a1)", cap=2)
    # The D4(a1) class has 12 elements: a cap of 12 walks it all, 11 does not.
    assert verify_unique_class(d4, "D4(a1)", cap=12)
    with pytest.raises(RuntimeError, match="exceeded the cap of 11; inconclusive"):
        verify_unique_class(d4, "D4(a1)", cap=11)


def test_class_walk_matches_a_walk_by_g_p_then_g():
    """The class walk moves by g·(p·g); a walk by (g·p)·g, the same
    permutations in the same order, gives the same parent map."""
    system = build_by_name("D5")
    space = weyl.perm_space(system)
    start = space.word_perm(dg.catalog("D5(a1)").word)
    gens = [space.reflection_perm(s) for s in system.simple_roots]

    def moves(p):
        return enumerate(space.compose(space.compose(g, p), g) for g in gens)

    parent = _class_walk(space, start, cap=10**6)
    assert list(parent.items()) == list(weyl.walk(start, moves).items())
    assert len(parent) > 1


def test_orthogonal_tuple_orbits_small():
    assert orthogonal_tuple_orbits(build_by_name("A3"), 2) == 1
    assert orthogonal_tuple_orbits(build_by_name("B2"), 2) == 2
    assert orthogonal_tuple_orbits(build_by_name("D4"), 2) == 3
    assert orthogonal_tuple_orbits(build_by_name("D4"), 3) == 1
    with pytest.raises(ValueError):
        orthogonal_tuple_orbits(build_by_name("A3"), 4)
    with pytest.raises(ValueError):
        orthogonal_tuple_orbits(build_by_name("A3"), 1)


@pytest.mark.parametrize("k", [2.0, True])
def test_orthogonal_tuple_orbits_refuses_a_count_that_is_not_an_int(k):
    with pytest.raises(ValueError):
        orthogonal_tuple_orbits(build_by_name("D5"), k)


def full_tuple_orbits(system, k):
    """Reference count: union-find over every orthogonal k-set of sign
    classes, joined by the simple reflections."""
    reps = system.sign_class_reps()
    gram = system.int_gram(reps)
    tuples = [t for t in combinations(range(len(reps)), k)
              if all(gram[i][j] == 0 for i, j in combinations(t, 2))]
    where = {t: i for i, t in enumerate(tuples)}
    uf = list(range(len(tuples)))

    def root_of(x):
        while uf[x] != x:
            x = uf[x]
        return x

    # Rep i is root h + i, and root j shares a sign class with root n - 1 - j.
    n = len(system.roots)
    h = n // 2
    space = weyl.perm_space(system)
    for s in system.simple_roots:
        g = [max(j, n - 1 - j) - h for j in space.reflection_perm(s)[h:]]
        for i, t in enumerate(tuples):
            a, b = root_of(i), root_of(where[tuple(sorted(g[x] for x in t))])
            uf[a] = b
    return len({root_of(i) for i in range(len(tuples))})


def test_adjacent_roots_meet_at_one_magnitude_per_length_class():
    """Why ``find_subsets`` constrains an edge by non-orthogonality alone:
    between non-parallel roots, 2|<a, b>| on doubled coordinates is the
    long norm once a long root is involved, else the short norm."""
    for family, (lo, hi) in _RANK_RANGE.items():
        for rank in range(lo, hi + 1):
            s = build(family, rank)
            reps = s.sign_class_reps()
            longs = [s.is_long(r) for r in reps]
            for i, row in enumerate(s.int_gram(reps)):
                for j, x in enumerate(row):
                    if x and i != j:
                        norm = (s.int_long_norm if longs[i] or longs[j]
                                else s.int_short_norm)
                        assert 2 * abs(x) == norm, (s.name(), i, j)


def small_systems():
    """Every buildable system with at most 60 sign classes."""
    out = []
    for family in FAMILIES:
        for rank in range(1, 17):
            try:
                system = build_by_name(f"{family}{rank}")
            except ValueError:
                continue
            if len(system.roots) <= 120:
                out.append(system.name())
    return out


@pytest.mark.parametrize("name", small_systems())
def test_anchored_orbits_match_full_tuple_union_find(name):
    system = build_by_name(name)
    for k in (2, 3):
        assert orthogonal_tuple_orbits(system, k) == full_tuple_orbits(system, k), k


def test_small_systems_cover_each_family():
    assert {name[0] for name in small_systems()} == set(FAMILIES)
    assert len(small_systems()) == 31


def large_orbit_pins():
    """``{system: (orbits of pairs, orbits of triples)}`` for every system of
    rank 9 to 16, and for E7, E8, B8 and C8: all the systems past
    :func:`full_tuple_orbits`' reach (more than 120 roots), and A9 and A10.
    Recorded from an independent count: a walk of each orbit over the sets
    through a dominant root, under its stabilizer and re-anchoring
    elements."""
    pins = {"E7": (1, 2), "E8": (1, 1), "B8": (4, 6), "C8": (4, 6)}
    for rank in range(9, 17):
        pins |= {f"A{rank}": (1, 1), f"B{rank}": (4, 6), f"C{rank}": (4, 6),
                 f"D{rank}": (2, 2)}
    return pins


def test_orthogonal_tuple_orbits_large_pins():
    pins = large_orbit_pins()
    assert len(pins) == 36
    beyond = {f"{family}{rank}" for family, (lo, hi) in _RANK_RANGE.items()
              for rank in range(lo, hi + 1)} - set(small_systems())
    assert beyond <= pins.keys()
    for name, counts in pins.items():
        system = build_by_name(name)
        assert tuple(orthogonal_tuple_orbits(system, k) for k in (2, 3)) == counts, name


def test_max_root_complement_values():
    assert max_root_complement(build_by_name("E6")) == ["A5"]
    assert max_root_complement(build_by_name("D4")) == ["A1", "A1", "A1"]
    assert max_root_complement(build_by_name("A5")) == ["A3"]


def assert_realizes(system, target, roots):
    """``roots`` realize ``target`` up to sign flips: their diagram has the
    target's lengths and adjacency, and its styles differ on a cut."""
    d = dg.from_roots(system, roots)  # raises unless the roots are independent
    assert d.longs == target.longs
    assert neighbour_sets(d) == neighbour_sets(target)
    assert cut_exists(target.n, [
        (a, b, d.edge_style(a, b) != style) for a, b, style in target.edges
    ])


@pytest.mark.parametrize("name", ["D4(a1)", "D5(a1)"])
def test_find_subsets_leaf_diagram_is_from_roots(name):
    """The search reads edge styles off its own inner product table; the
    roots it reports must realize the target."""
    entry = dg.catalog(name)
    system = build_by_name(entry.system)
    items = find_subsets(system, entry.diagram)
    assert items
    for item in items:
        assert_realizes(system, entry.diagram, item.roots)


def test_realize_lookup_diagrams_are_from_roots():
    """Find-first lookups (``limit=1``) on every catalog entry of a system
    of rank at most 6."""
    names = [n for n in dg.catalog_names()
             if build_by_name(dg.catalog(n).system).rank <= 6]
    assert len(names) >= 10
    for name in names:
        entry = dg.catalog(name)
        system = build_by_name(entry.system)
        (item,) = find_subsets(system, entry.diagram, limit=1)
        assert_realizes(system, entry.diagram, item.roots)


@st.composite
def connected_targets(draw):
    """A connected diagram on 2-4 vertices with random edge styles."""
    n = draw(st.integers(2, 4))
    tree = {(draw(st.integers(0, j - 1)), j) for j in range(1, n)}
    others = [(i, j) for j in range(n) for i in range(j) if (i, j) not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    edges = sorted(tree | set(extra))
    return dg.styled_diagram(n, edges, draw(st.integers(0, (1 << len(edges)) - 1)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["A4", "D4", "D5"]), connected_targets())
def test_find_subsets_reports_each_root_set_once(name, target):
    system = build_by_name(name)
    found = find_subsets(system, target)
    for item in found:
        assert_realizes(system, target, item.roots)
    assert len({frozenset(item.roots) for item in found}) == len(found)
    assert find_subsets(system, target, limit=1) == found[:1]


_B3 = dg.make_diagram(3, [(0, 1, dg.SOLID), (1, 2, dg.SOLID)], longs=(True, True, False))
_C3 = dg.make_diagram(3, [(0, 1, dg.SOLID), (1, 2, dg.SOLID)], longs=(False, False, True))
_F4 = dg.make_diagram(4, [(0, 1, dg.SOLID), (1, 2, dg.DOTTED), (2, 3, dg.SOLID)],
                      longs=(True, True, False, False))
_G2 = dg.make_diagram(2, [(0, 1, dg.DOTTED)], longs=(False, True))


@st.composite
def mixed_length_targets(draw):
    """A connected target with at least one long and one short vertex."""
    target = draw(connected_targets())
    longs = draw(st.lists(st.booleans(), min_size=target.n, max_size=target.n))
    longs[0], longs[-1] = True, False
    return dg.make_diagram(target.n, target.edges, longs=longs)


@pytest.mark.parametrize("name,target", [("B3", _B3), ("C3", _C3), ("F4", _F4),
                                         ("G2", _G2)])
def test_mixed_length_examples_realize(name, target):
    """The explicit examples below are not vacuous."""
    assert find_subsets(build_by_name(name), target, limit=1)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["B3", "C3", "F4", "G2"]), mixed_length_targets())
@example("B3", _B3)
@example("C3", _C3)
@example("F4", _F4)
@example("G2", _G2)
def test_anchored_find_first_is_first_of_full_search_mixed_lengths(name, target):
    """The anchored find-first search starts from the lowest root of one
    length class; it must return the full search's first realization."""
    system = build_by_name(name)
    found = find_subsets(system, target)
    for item in found:
        assert_realizes(system, target, item.roots)
    assert find_subsets(system, target, limit=1) == found[:1]


@pytest.mark.parametrize("name,make_target", [
    ("D4", lambda: dg.catalog("D4(a1)").diagram), ("B3", lambda: _B3)], ids=["D4(a1)", "B3"])
def test_find_first_masks_the_first_planned_class_to_its_lowest_rep(
        monkeypatch, name, make_target):
    """A find-first search passes ``embeddings`` the class of the first
    vertex of the plan cut down to the lowest rep of its length class; an
    exhaustive one passes the whole class, and both pass the other classes
    whole.  An unanchored find-first search returns the same realization,
    only later, so the classes are where the anchor shows."""
    system, target = build_by_name(name), make_target()
    reps = system.sign_class_reps()
    long_mask = sum(1 << i for i, r in enumerate(reps) if system.is_long(r))
    whole = [long_mask if long else (1 << len(reps)) - 1 ^ long_mask for long in target.longs]
    passed = []
    embeddings = dg.embeddings

    def spy(target, host, classes, limit=None):
        passed.append(list(classes))
        return embeddings(target, host, classes, limit)

    monkeypatch.setattr(dg, "embeddings", spy)
    assert find_subsets(system, target) and find_subsets(system, target, limit=1)
    first = target.plan[0][0]
    assert whole[first].bit_count() > 1
    anchored = whole.copy()
    anchored[first] &= -whole[first]
    assert passed == [whole, anchored]


def reference_find_subsets(system, target, limit=None):
    """The search as it was before styles were checked by switching: one
    Bareiss bordering of the running Gram matrix per candidate, and the
    styles compared only at a full placement: they must differ on a cut.
    Same visit order, candidate order, depth-0 anchor and once-per-set
    reporting as ``find_subsets``, on adjacency, non-adjacency and length
    masks of its own, read off the reps' Gram matrix."""
    k = target.n
    if k > system.rank:
        return []
    reps = system.sign_class_reps()
    inner = system.int_gram(reps)
    m = len(reps)
    adj_mask = [sum(1 << j for j in range(m) if j != i and inner[i][j]) for i in range(m)]
    orth_mask = [sum(1 << j for j in range(m) if j != i and not inner[i][j]) for i in range(m)]
    long_mask = sum(1 << i for i, r in enumerate(reps) if system.is_long(r))
    short_mask = (1 << m) - 1 ^ long_mask
    adj = neighbour_sets(target)
    visit, remaining = [], set(range(k))
    while remaining:
        best = max(remaining, key=lambda v: (len(adj[v] & set(visit)), len(adj[v]), -v))
        visit.append(best)
        remaining.discard(best)
    slot = [visit.index(v) for v in range(k)]
    results, seen, chosen = [], set(), []

    def descend(depth, used, minors):
        if depth == k:
            if used in seen or not cut_exists(k, [
                (a, b, (inner[chosen[slot[a]]][chosen[slot[b]]] > 0) != (style == dg.DOTTED))
                for a, b, style in target.edges
            ]):
                return False
            seen.add(used)
            results.append(LabeledDiagram(system, tuple(len(reps) + chosen[s] for s in slot)))
            return limit is not None and len(results) >= limit
        v = visit[depth]
        cand = (long_mask if target.longs[v] else short_mask) & ~used
        for p, u in zip(chosen, visit):
            cand &= (adj_mask if u in adj[v] else orth_mask)[p]
        if not depth and limit == 1:
            cand &= -cand
        for pos in range(cand.bit_length()):
            if not cand >> pos & 1:
                continue
            row = inner[pos]
            grown = LeadingMinors()
            grown.elim, grown.minors = list(minors.elim), list(minors.minors)
            if grown.push([row[p] for p in chosen], row[pos]):
                chosen.append(pos)
                if descend(depth + 1, used | 1 << pos, grown):
                    return True
                chosen.pop()
        return False

    descend(0, 0, LeadingMinors())
    return results


@st.composite
def random_systems_and_targets(draw):
    """A system and any diagram on 1-5 vertices (at most its rank),
    connected or not, with random edges and styles, and random lengths
    where the system has two."""
    system = build_by_name(draw(st.sampled_from(["A4", "B3", "C3", "D4", "D5", "F4", "G2"])))
    n = draw(st.integers(1, min(5, system.rank)))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    edges = sorted(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else []
    styles = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    two_lengths = system.int_long_norm != system.int_short_norm
    longs = draw(st.lists(st.booleans() if two_lengths else st.just(False),
                          min_size=n, max_size=n))
    return system, dg.make_diagram(n, [(i, j, dg.DOTTED if d else dg.SOLID)
                                       for (i, j), d in zip(edges, styles)], longs=tuple(longs))


_SQUARE_SOLID = dg.styled_diagram(4, SQUARE, 0)
# An all-solid 4-cycle (the affine A3 diagram, singular Gram) with a pendant
# vertex on vertex 0: the Gram matrix stops being positive definite once
# the cycle is placed, at an interior depth of the search.
_SQUARE_PENDANT = dg.make_diagram(
    5, [(a, b, dg.SOLID) for a, b in SQUARE] + [(0, 4, dg.SOLID)])


@settings(max_examples=150, deadline=None)
@given(random_systems_and_targets())
@example((build_by_name("D5"), _SQUARE_PENDANT))
@example((build_by_name("D4"), _SQUARE_SOLID))
@example((build_by_name("A4"), _SQUARE_SOLID))
@example((build_by_name("D5"), dg.catalog("D5(a1)").diagram))
@example((build_by_name("F4"), _F4))
def test_find_subsets_matches_the_bareiss_reference(case):
    """Switching-class pruning lists the same realizations, in the same
    order, as a positive-definiteness test per candidate and a style test
    per leaf; find-first lookups return the same first one."""
    system, target = case
    for limit in (None, 1):
        assert find_subsets(system, target, limit) == reference_find_subsets(system, target, limit)


@pytest.mark.parametrize("cap", [0, -1, 2.5, True, "3"], ids=repr)
def test_a_cap_that_is_not_an_int_of_at_least_1_is_refused(cap):
    """A class of one element, two equal elements and a full check all
    refuse the cap before they walk."""
    d4 = build_by_name("D4")
    with pytest.raises(ValueError, match="cap must be"):
        weyl.walk(0, lambda node: (), cap)
    w = weyl.evaluate(d4, d4.simple_roots)
    with pytest.raises(ValueError, match="cap must be"):
        are_conjugate(d4, w, w, cap)
    with pytest.raises(ValueError, match="cap must be"):
        verify_unique_class(d4, "D4(a1)", cap)


def test_verify_unique_class_looks_no_root_up_once_warm(monkeypatch):
    """Realizations hold root indices, and their elements are composed from
    the reflections at those indices."""
    d5 = build_by_name("D5")
    assert verify_unique_class(d5, "D5(a1)")
    calls = []
    index = RootSystem.index
    monkeypatch.setattr(RootSystem, "index", lambda self, v: calls.append(v) or index(self, v))
    assert verify_unique_class(d5, "D5(a1)")
    assert calls == []
