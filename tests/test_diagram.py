"""Diagrams: construction, styles, admissibility, catalog, Tits form."""

import pytest
from fractions import Fraction as Q
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from weylcalc import diagram as dg
from weylcalc.exactla import idot, poly_mul
from weylcalc.rootsys import build_by_name, doubled
from weylcalc.rewrite import eliminate_4cycle, initial_state, word_charpoly
from weylcalc.weyl import perm_space

SQUARE = ((0, 1), (1, 2), (2, 3), (0, 3))


def d4a1_word():
    s = build_by_name("D4")
    return s, tuple(s.parse_root(t) for t in ("e1-e2", "e3-e4", "e2-e3", "e2+e3"))


def test_make_diagram_normalizes_edges():
    d = dg.make_diagram(3, [(2, 0, dg.SOLID), (1, 2, dg.DOTTED)])
    assert d.edges == ((0, 2, "solid"), (1, 2, "dotted"))
    assert d.edge_style(0, 2) == "solid"
    assert d.edge_style(2, 1) == "dotted"
    assert d.edge_style(0, 1) is None
    assert d.adjacency()[2] == {0, 1}


def test_make_diagram_rejects_bad_input():
    with pytest.raises(ValueError):
        dg.make_diagram(2, [(0, 0, dg.SOLID)])
    with pytest.raises(ValueError):
        dg.make_diagram(2, [(0, 1, "wavy")])
    with pytest.raises(ValueError):
        dg.make_diagram(2, [(0, 1, dg.SOLID), (1, 0, dg.DOTTED)])
    with pytest.raises(ValueError):
        dg.make_diagram(2, [(0, 2, dg.SOLID)])
    for a, b in ((0.5, 1), (True, 0), (0, "1")):
        with pytest.raises(ValueError, match="bad edge"):
            dg.make_diagram(2, [(a, b, dg.SOLID)])
    with pytest.raises(ValueError, match="longs length mismatch"):
        dg.make_diagram(2, [], longs=(True,))
    with pytest.raises(ValueError, match="labels length mismatch"):
        dg.make_diagram(2, [], labels=("a", "b", "c"))
    with pytest.raises(ValueError, match="vertex long flags must be booleans"):
        dg.make_diagram(2, [], longs=("no", 0))
    with pytest.raises(ValueError, match="vertex labels must be strings"):
        dg.make_diagram(2, [], labels=("a", 5))


def test_from_roots_styles():
    """Solid marks an obtuse pair, dotted an acute pair."""
    s, word = d4a1_word()
    d = dg.from_roots(s, word)
    assert d.n == 4
    assert d.edges == (
        (0, 2, "solid"), (0, 3, "solid"), (1, 2, "solid"), (1, 3, "dotted"),
    )
    assert d.longs == (False, False, False, False)


def test_from_roots_mixed_lengths():
    s = build_by_name("B3")
    d = dg.from_roots(s, (s.parse_root("e1-e2"), s.parse_root("e2-e3"),
                          s.parse_root("e3")))
    assert d.longs == (True, True, False)
    assert d.edges == ((0, 1, "solid"), (1, 2, "solid"))


def test_from_roots_rejects_non_root():
    s = build_by_name("A3")
    with pytest.raises(ValueError):
        dg.from_roots(s, ((Q(1), Q(0), Q(0), Q(0)),))


#: Root lists that are not linearly independent: a root and its negative,
#: a repeated root, and the A3 4-cycle whose roots sum to zero.
DEPENDENT_A3 = {
    "negative": ("e1-e2", "e2-e1"),
    "repeated": ("e1-e2", "e1-e2"),
    "4-cycle": ("e1-e2", "e2-e3", "e3-e4", "-e1+e4"),
}


@pytest.mark.parametrize("case", sorted(DEPENDENT_A3))
def test_from_roots_rejects_dependent_lists(case):
    """A dependent list used to yield a diagram (``[e1-e2, e2-e1]`` identified
    as A2, the 4-cycle was admissible); it has no Carter diagram."""
    s = build_by_name("A3")
    with pytest.raises(ValueError, match="linearly dependent"):
        dg.from_roots(s, [s.parse_root(t) for t in DEPENDENT_A3[case]])


def test_eliminate_4cycle_rejects_dependent_cycle():
    s = build_by_name("A3")
    word = [s.parse_root(t) for t in DEPENDENT_A3["4-cycle"]]
    with pytest.raises(ValueError, match="linearly dependent"):
        eliminate_4cycle(initial_state(s, word))


def test_to_dict_round_trip():
    s, word = d4a1_word()
    d = dg.from_roots(s, word, labels=[s.format_root(r) for r in word])
    back = dg.Diagram.from_dict(d.to_dict())
    assert back == d
    assert back.labels[0] == "e1-e2"
    assert dg.catalog("D4(a1)").diagram.labels == ("v0", "v1", "v2", "v3")  # unlabelled
    for name in dg.catalog_names():
        d = dg.catalog(name).diagram
        assert dg.Diagram.from_dict(d.to_dict()) == d, name


@pytest.mark.parametrize("indices", [[0, 0], [3, 7], [1, 2], [0, 2],
                                     [0.0, 1], [1, True], ["0", 1]])
def test_from_dict_rejects_vertex_indices_other_than_0_to_n_minus_1(indices):
    data = {"vertices": [{"index": i} for i in indices],
            "edges": [{"source": indices[0], "target": indices[1], "style": dg.SOLID}]}
    with pytest.raises(ValueError, match="vertex indices"):
        dg.Diagram.from_dict(data)


def test_from_dict_rejects_a_bad_edge_style():
    data = {"vertices": [{"index": 0}, {"index": 1}],
            "edges": [{"source": 1, "target": 0, "style": "wavy"}]}
    with pytest.raises(ValueError, match="bad edge style 'wavy'"):
        dg.Diagram.from_dict(data)
    data["edges"][0]["style"] = dg.DOTTED
    d = dg.Diagram.from_dict(data)
    assert d.edges == ((0, 1, dg.DOTTED),)
    assert d.longs == (False, False) and d.labels == ("v0", "v1")  # the defaults


@pytest.mark.parametrize("edge,vertex,message", [
    ({"source": 0.9, "target": 2.7}, {}, "bad edge"),
    ({"source": True, "target": "2"}, {}, "bad edge"),
    ({"source": 0, "target": 2}, {"long": "no"}, "long flags"),
    ({"source": 0, "target": 2}, {"long": 1}, "long flags"),
    ({"source": 0, "target": 2}, {"label": 5}, "labels must be strings"),
    ({"source": 0, "target": 2}, {"label": None}, "labels must be strings"),
])
def test_from_dict_refuses_values_outside_the_schema(edge, vertex, message):
    """Edge ends are ints, ``long`` is a bool and ``label`` a string;
    nothing is coerced."""
    data = {"vertices": [{"index": i, **vertex} for i in range(3)],
            "edges": [{**edge, "style": dg.SOLID}]}
    with pytest.raises(ValueError, match=message):
        dg.Diagram.from_dict(data)


def test_gram_values():
    solid = dg.make_diagram(2, [(0, 1, dg.SOLID)])
    assert dg.gram(solid) == ((1, Q(-1, 2)), (Q(-1, 2), 1))
    dotted = dg.make_diagram(2, [(0, 1, dg.DOTTED)])
    assert dg.gram(dotted) == ((1, Q(1, 2)), (Q(1, 2), 1))
    # long-long edge at ratio t scales the off-diagonal entry by t/2
    both_long = dg.make_diagram(2, [(0, 1, dg.SOLID)], longs=(True, True))
    assert dg.gram(both_long, Q(2)) == ((2, -1), (-1, 2))


def test_tits_value_sign():
    chain = dg.make_diagram(2, [(0, 1, dg.SOLID)])
    assert dg.tits_value(chain, (1, 1)) == 1
    triangle = dg.make_diagram(3, [(0, 1, dg.SOLID), (1, 2, dg.SOLID),
                                   (0, 2, dg.SOLID)])
    assert dg.tits_value(triangle, (1, 1, 1)) == 0
    with pytest.raises(ValueError):
        dg.tits_value(chain, (1, 1, 1))


def test_affine_patterns_all_vanish():
    patterns = dg.affine_patterns()
    assert len(patterns) == 18
    names = [name for name, _, _, _ in patterns]
    assert names[:8] == ["F~41", "F~42", "B~2", "C~2", "G~21", "G~22",
                         "B~3", "C~3"]
    for name, d, coeffs, t in patterns:
        assert dg.tits_value(d, coeffs, t) == 0, name


def test_is_realizable():
    assert dg.is_realizable(dg.make_diagram(2, [(0, 1, dg.SOLID)]))
    solid_square = dg.styled_diagram(4, SQUARE, 0)
    assert not dg.is_realizable(solid_square)  # its Gram is singular
    odd_square = dg.styled_diagram(4, SQUARE, 1)
    assert dg.is_realizable(odd_square)


def test_bipartition_and_admissible():
    s, word = d4a1_word()
    d = dg.from_roots(s, word)
    part = dg.bipartition(d)
    assert part is not None
    left, right = part
    assert sorted(left + right) == [0, 1, 2, 3]
    assert dg.is_admissible(d)
    triangle = dg.make_diagram(3, [(0, 1, dg.SOLID), (1, 2, dg.SOLID),
                                   (0, 2, dg.DOTTED)])
    assert dg.bipartition(triangle) is None
    assert not dg.is_admissible(triangle)
    assert dg.identify(triangle) is None
    with pytest.raises(ValueError, match="odd cycle"):
        dg.bicolored_charpoly(triangle)


def test_cycles():
    d = dg.styled_diagram(4, SQUARE, 0)
    assert dg.cycles(d) == ((0, 1, 2, 3),)
    chain = dg.make_diagram(3, [(0, 1, dg.SOLID), (1, 2, dg.SOLID)])
    assert dg.cycles(chain) == ()
    k23 = dg.styled_diagram(5, ((0, 1), (0, 3), (0, 4), (1, 2), (2, 3), (2, 4)), 0)
    found = dg.cycles(k23)
    assert found, "the theta shape has cycles"
    for cyc in found:
        assert len(cyc) % 2 == 0


def test_dotted_parity():
    assert dg.dotted_parity_ok(dg.styled_diagram(4, SQUARE, 1))
    assert not dg.dotted_parity_ok(dg.styled_diagram(4, SQUARE, 0))
    assert not dg.dotted_parity_ok(dg.styled_diagram(4, SQUARE, 0b0011))


def test_flip_vertex_toggles_incident_styles():
    d = dg.styled_diagram(4, SQUARE, 0)
    f = dg.flip_vertex(d, 0)
    assert f.edge_style(0, 1) == "dotted"
    assert f.edge_style(0, 3) == "dotted"
    assert f.edge_style(1, 2) == "solid"
    assert dg.flip_vertex(f, 0) == d
    for i in (-1, 4):
        with pytest.raises(ValueError, match="vertex out of range"):
            dg.flip_vertex(d, i)


def test_style_class_representatives():
    assert dg.style_class_representatives(4, SQUARE) == [0, 1]
    five = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
    assert dg.style_class_representatives(5, five) == [0, 1]
    theta = ((0, 1), (0, 3), (0, 4), (1, 2), (2, 3), (2, 4))
    assert len(dg.style_class_representatives(5, theta)) == 4
    apex = SQUARE + ((0, 4), (1, 4), (2, 4), (3, 4))
    assert len(dg.style_class_representatives(5, apex)) == 16
    # every styling of a tree is equivalent to the all-solid one
    chain = ((0, 1), (1, 2), (2, 3))
    assert dg.style_class_representatives(4, chain) == [0]


def test_styled_diagram_masks():
    d = dg.styled_diagram(4, SQUARE, 0b0101)
    assert d.edge_style(0, 1) == "dotted"
    assert d.edge_style(1, 2) == "solid"
    assert d.edge_style(2, 3) == "dotted"
    assert d.edge_style(0, 3) == "solid"


def test_components_and_induced():
    d = dg.make_diagram(5, [(0, 1, dg.SOLID), (2, 3, dg.DOTTED)])
    comps = dg.components(d)
    assert sorted(len(c) for c in comps) == [1, 2, 2]
    sub = dg.induced_subdiagram(d, (2, 3))
    assert sub.edges == ((0, 1, "dotted"),)


def test_catalog_round_trip():
    names = dg.catalog_names()
    assert len(names) == 79
    assert "D4(a1)" in names and "E8(a5)" in names and "A1" in names
    for name in names:
        entry = dg.catalog(name)
        system = build_by_name(entry.system)
        realized = dg.from_roots(system, entry.word)
        assert dg.identify(realized) == name
        assert word_charpoly(system, entry.word) == entry.charpoly


def test_catalog_unknown_name():
    with pytest.raises(KeyError):
        dg.catalog("Z9(a1)")


def test_bicolored_charpoly_matches_catalog():
    for name in ("D4(a1)", "D6(a2)", "E6(a1)", "A4", "B3", "F4(a1)", "G2"):
        if name not in dg.catalog_names():
            continue
        entry = dg.catalog(name)
        t = build_by_name(entry.system).ratio
        assert dg.bicolored_charpoly(entry.diagram, t) == entry.charpoly, name


def test_identify_components():
    d4a1 = dg.catalog("D4(a1)").diagram
    a1 = dg.make_diagram(1, [])
    n = d4a1.n + 1
    edges = list(d4a1.edges)
    merged = dg.make_diagram(n, edges, longs=d4a1.longs + (False,))
    assert dg.identify_components(merged) == "D4(a1)+A1"
    assert dg.identify(a1) == "A1"


def test_identify_components_orders_by_rank_then_name():
    """Components are ordered by rank, not by every digit of the name (which
    ranked ``D4(a1)`` as 41, ahead of ``A5``)."""
    d10 = build_by_name("D10")
    literals = "e1-e2,e3-e4,e2-e3,e2+e3,e5-e6,e6-e7,e7-e8,e8-e9,e9-e10".split(",")
    d = dg.from_roots(d10, [d10.parse_root(t) for t in literals])
    assert dg.identify_components(d) == "A5+D4(a1)"
    names = ["A1", "D4(a1)", "E8(b5)", "A5", "D12(a3)", "D4"]
    assert sorted(names, key=dg.component_key) == [
        "D12(a3)", "E8(b5)", "A5", "D4", "D4(a1)", "A1"]


def test_invariant_separates_styles_within_class():
    """The invariant is a cut-class invariant: equal across sign flips,
    different between the two square classes."""
    even = dg.styled_diagram(4, SQUARE, 0)
    odd = dg.styled_diagram(4, SQUARE, 1)
    assert dg.invariant(dg.flip_vertex(even, 2)) == dg.invariant(even)
    assert dg.invariant(odd) != dg.invariant(even)


def test_charpoly_of_square_classes_differ():
    even = dg.styled_diagram(4, SQUARE, 0)
    odd = dg.styled_diagram(4, SQUARE, 1)
    assert dg.bicolored_charpoly(odd) == (1, 0, 2, 0, 1)
    # the even class has eigenvalue 1 twice: its roots are never independent
    assert dg.bicolored_charpoly(even) == poly_mul(
        poly_mul((Q(1), Q(-1)), (Q(1), Q(-1))), (Q(1), Q(2), Q(1))
    )


def test_identify_is_length_aware():
    """Long vertices never match a simply-laced catalog entry."""
    b3 = build_by_name("B3")
    b3_coxeter = [b3.parse_root(t) for t in ("e1-e2", "e2-e3", "e3")]
    d = dg.from_roots(b3, b3_coxeter)
    assert d.longs == (True, True, False)
    assert dg.identify(d) is None
    g2 = build_by_name("G2")
    d = dg.from_roots(g2, [g2.parse_root(t) for t in ("e1-e2", "-2e1+e2+e3")])
    assert d.longs == (False, True)
    assert dg.identify(d) is None
    # all-short roots of B3 still form an ordinary A1 + A1
    short = dg.from_roots(b3, [b3.parse_root("e1"), b3.parse_root("e2")])
    assert dg.identify_components(short) == "A1+A1"


# --------------------------------------------------------------------------
# Properties: the signed two-colouring against brute force over vertex cuts,
# and identification under the moves that keep a diagram's class.


@st.composite
def signed_graphs(draw, max_n=6, max_edges=None):
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_edges)
                  if pairs else st.just([]))
    odd = draw(st.lists(st.integers(0, 1), min_size=len(chosen), max_size=len(chosen)))
    return n, [(a, b, o) for (a, b), o in zip(chosen, odd)]


def cut_exists(n, edges):
    """Some vertex set S has exactly the odd edges crossing it."""
    return any(all(((cut >> a ^ cut >> b) & 1) == odd for a, b, odd in edges)
               for cut in range(1 << n))


@given(signed_graphs())
def test_two_coloring_exists_iff_odd_edges_form_a_cut(graph):
    n, edges = graph
    color = dg.two_coloring(n, edges)
    assert (color is not None) == cut_exists(n, edges)
    if color is not None:
        assert len(color) == n and set(color) <= {0, 1}
        assert all(color[a] ^ color[b] == odd for a, b, odd in edges)


@settings(max_examples=40)
@given(signed_graphs(max_n=5, max_edges=6), st.data())
def test_two_coloring_agrees_with_style_classes(graph, data):
    """Two stylings of one shape differ on a cut iff they share a
    representative, and the representatives are pairwise inequivalent."""
    n, edges = graph
    shape = [(a, b) for a, b, _ in edges]
    reps = dg.style_class_representatives(n, shape)

    def equivalent(m1, m2):
        diff = m1 ^ m2
        return dg.two_coloring(n, [(a, b, diff >> k & 1)
                                   for k, (a, b) in enumerate(shape)]) is not None

    def rep_of(mask):
        (rep,) = [r for r in reps if equivalent(mask, r)]
        return rep

    masks = st.integers(0, (1 << len(shape)) - 1)
    m1, m2 = data.draw(masks), data.draw(masks)
    assert equivalent(m1, m2) == (rep_of(m1) == rep_of(m2))


def smallest_masks_by_cut(n, shape):
    """Reference: each mask's class minimum over all 2^n vertex cuts."""
    reps = set()
    for bits in range(1 << len(shape)):
        best = bits
        for cut in range(1 << n):
            img = bits
            for k, (a, b) in enumerate(shape):
                if (cut >> a ^ cut >> b) & 1:
                    img ^= 1 << k
            best = min(best, img)
        reps.add(best)
    return sorted(reps)


@settings(max_examples=60)
@given(signed_graphs(max_n=5, max_edges=7))
def test_style_class_representatives_match_brute_force(graph):
    n, edges = graph
    shape = [(a, b) for a, b, _ in edges]
    assert dg.style_class_representatives(n, shape) == smallest_masks_by_cut(n, shape)


SMALL_CATALOG = [name for name in dg.catalog_names() if len(dg.catalog(name).word) <= 8]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_CATALOG), st.data())
def test_identify_is_stable_under_class_moves(name, data):
    """W-conjugation, swaps of adjacent orthogonal letters and sign flips keep
    a catalog word's identification and admissibility."""
    entry = dg.catalog(name)
    system = build_by_name(entry.system)
    word = list(entry.word)
    simple = system.simple_roots
    space = perm_space(system)
    for i in data.draw(st.lists(st.integers(0, len(simple) - 1), max_size=6)):
        word = [space.image(space.reflection_perm(simple[i]), r) for r in word]
    for i in data.draw(st.lists(st.integers(0, max(len(word) - 2, 0)), max_size=6)):
        if i + 1 < len(word) and idot(doubled(word[i]), doubled(word[i + 1])) == 0:
            word[i], word[i + 1] = word[i + 1], word[i]
    for i in data.draw(st.lists(st.integers(0, len(word) - 1), unique=True)):
        word[i] = tuple(-c for c in word[i])
    d = dg.from_roots(system, word)
    assert dg.identify(d) == name
    assert dg.is_admissible(d)
