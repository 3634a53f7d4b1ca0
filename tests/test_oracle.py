"""Brute-force group oracles: orders, conjugacy, subset searches, orbits."""

import pytest

from weylcalc import diagram as dg
from weylcalc.exactla import identity, mat_mul
from weylcalc.oracle import (
    are_conjugate,
    find_subsets,
    max_root_complement,
    orthogonal_tuple_orbits,
    verify_unique_class,
    weyl_group_order,
)
from weylcalc.rootsys import build_by_name
from weylcalc import weyl

SQUARE = ((0, 1), (1, 2), (2, 3), (0, 3))
PENTAGON = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
TRIANGLE = ((0, 1), (1, 2), (0, 2))


def transpose(m):
    n = len(m)
    return tuple(tuple(m[j][i] for j in range(n)) for i in range(n))


def test_weyl_group_orders():
    expected = {
        "A2": 6, "A3": 24, "B2": 8, "B3": 48, "C3": 48,
        "D4": 192, "D5": 1920, "G2": 12, "F4": 1152, "E6": 51840,
    }
    for name, order in expected.items():
        assert weyl_group_order(build_by_name(name)) == order, name


def test_are_conjugate_reflections():
    d4 = build_by_name("D4")
    w1 = weyl.reflection(d4, d4.parse_root("e1-e2"))
    w2 = weyl.reflection(d4, d4.parse_root("e1+e2"))
    result = are_conjugate(d4, w1, w2)
    assert result.status == "conjugate"
    u = result.witness
    assert mat_mul(mat_mul(u, w1), transpose(u)) == w2


def test_are_conjugate_separates_lengths():
    b2 = build_by_name("B2")
    short = weyl.reflection(b2, b2.parse_root("e1"))
    long_ = weyl.reflection(b2, b2.parse_root("e1-e2"))
    result = are_conjugate(b2, short, long_)
    assert result.status == "not-conjugate"
    assert result.witness is None


def test_are_conjugate_unresolved_past_cap():
    """Two reflections of one class, but the walk stops at two elements."""
    d4 = build_by_name("D4")
    w1 = weyl.reflection(d4, d4.parse_root("e1-e2"))
    w2 = weyl.reflection(d4, d4.parse_root("e1+e2"))
    result = are_conjugate(d4, w1, w2, cap=2)
    assert result.status == "unresolved" and result.witness is None
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


def test_find_subsets_respects_limit():
    d4 = build_by_name("D4")
    capped = find_subsets(d4, dg.styled_diagram(4, SQUARE, 1), limit=1)
    assert len(capped) == 1


@pytest.mark.parametrize("limit", [0, -1])
def test_find_subsets_rejects_limit_below_one(limit):
    target = dg.catalog("D4(a1)").diagram
    with pytest.raises(ValueError, match="limit"):
        find_subsets(build_by_name("D4"), target, limit=limit)


def test_verify_unique_class_smallest_case():
    d4 = build_by_name("D4")
    assert verify_unique_class(d4, "D4(a1)")


def test_orthogonal_tuple_orbits_small():
    assert orthogonal_tuple_orbits(build_by_name("A3"), 2) == 1
    assert orthogonal_tuple_orbits(build_by_name("B2"), 2) == 2
    assert orthogonal_tuple_orbits(build_by_name("D4"), 2) == 3
    assert orthogonal_tuple_orbits(build_by_name("D4"), 3) == 1
    with pytest.raises(ValueError):
        orthogonal_tuple_orbits(build_by_name("A3"), 4)
    with pytest.raises(ValueError):
        orthogonal_tuple_orbits(build_by_name("A3"), 1)


def test_max_root_complement_values():
    assert max_root_complement(build_by_name("E6")) == ["A5"]
    assert max_root_complement(build_by_name("D4")) == ["A1", "A1", "A1"]
    assert max_root_complement(build_by_name("A5")) == ["A3"]


@pytest.mark.parametrize("name", ["D4(a1)", "D5(a1)"])
def test_find_subsets_leaf_diagram_is_from_roots(name):
    """The search builds each realization's diagram from its own inner
    product table; it must be the diagram of the roots it reports."""
    entry = dg.catalog(name)
    system = build_by_name(entry.system)
    items = find_subsets(system, entry.diagram)
    assert items
    for item in items:
        assert item.diagram == dg.from_roots(system, item.roots)


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
        assert item.diagram == dg.from_roots(system, item.roots), name
