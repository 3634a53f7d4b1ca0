"""Diagrams: construction, styles, admissibility, catalog, Tits form."""

import dataclasses
import gc
from enum import IntEnum
import re
import weakref

import pytest
from fractions import Fraction as Q
from itertools import combinations, permutations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylcalc import cli, rewrite
from weylcalc import diagram as dg
from weylcalc.exactla import charpoly, idot, poly_mul
from weylcalc.rootsys import RootSystem, build_by_name, doubled
from weylcalc.rewrite import eliminate_4cycle, initial_state, word_charpoly
from weylcalc.weyl import perm_space

SQUARE = ((0, 1), (1, 2), (2, 3), (0, 3))


def neighbour_sets(d):
    """Each vertex's neighbours, read off ``d.edges`` alone: the reference
    the kept graph facts are checked against."""
    nbrs = [set() for _ in range(d.n)]
    for a, b, _ in d.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    return nbrs


def d4a1_word():
    s = build_by_name("D4")
    return s, tuple(s.parse_root(t) for t in ("e1-e2", "e3-e4", "e2-e3", "e2+e3"))


def test_make_diagram_normalizes_edges():
    d = dg.make_diagram(3, [(2, 0, dg.SOLID), (1, 2, dg.DOTTED)])
    assert d.edges == ((0, 2, "solid"), (1, 2, "dotted"))
    assert d.edge_style(0, 2) == "solid"
    assert d.edge_style(2, 1) == "dotted"
    assert d.edge_style(0, 1) is None
    assert neighbour_sets(d)[2] == {0, 1}
    assert d.rows[0][2] == 0b011


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


@pytest.mark.parametrize("n", [True, 2.0, -1])
def test_make_diagram_refuses_a_vertex_count_that_is_not_an_int(n):
    with pytest.raises(ValueError, match="vertex count .* is not an int >= 0"):
        dg.make_diagram(n, [])


class Vertex(IntEnum):
    FIRST = 0
    SECOND = 1


def test_an_int_subclass_is_not_a_vertex_index():
    """Indices are tested by ``type(x) is int``, as everywhere in the
    package: an ``IntEnum`` member is refused like a bool."""
    with pytest.raises(ValueError, match="vertex count .* is not an int >= 0"):
        dg.make_diagram(Vertex.SECOND, [])
    with pytest.raises(ValueError, match="bad edge"):
        dg.make_diagram(2, [(Vertex.FIRST, Vertex.SECOND, dg.SOLID)])
    with pytest.raises(ValueError, match="vertex indices must be the ints 0..n-1"):
        dg.Diagram.from_dict({"vertices": [{"index": v} for v in Vertex], "edges": []})
    assert dg.make_diagram(int(Vertex.SECOND), []).n == 1


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
    plain = dg.from_roots(s, word)
    d = dg.make_diagram(plain.n, plain.edges, longs=plain.longs,
                        labels=[s.format_root(r) for r in word])
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
    assert dg.tits_value(chain, (Q(1, 2), 1)) == Q(3, 4)
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


def test_bipartition_and_admissible():
    s, word = d4a1_word()
    d = dg.from_roots(s, word)
    part = d.bipartition
    assert part is not None
    left, right = part
    assert sorted(left + right) == [0, 1, 2, 3]
    assert dg.is_admissible(d)
    triangle = dg.make_diagram(3, [(0, 1, dg.SOLID), (1, 2, dg.SOLID),
                                   (0, 2, dg.DOTTED)])
    assert triangle.bipartition is None
    assert not dg.is_admissible(triangle)
    assert dg.identify(triangle) is None
    with pytest.raises(ValueError, match="odd cycle"):
        dg.bicolored_charpoly(triangle)


def test_cycles():
    d = dg.styled_diagram(4, SQUARE, 0)
    assert d.cycles == ((0, 1, 2, 3),)
    chain = dg.make_diagram(3, [(0, 1, dg.SOLID), (1, 2, dg.SOLID)])
    assert chain.cycles == ()
    k23 = dg.styled_diagram(5, ((0, 1), (0, 3), (0, 4), (1, 2), (2, 3), (2, 4)), 0)
    found = k23.cycles
    assert found, "the theta shape has cycles"
    for cyc in found:
        assert len(cyc) % 2 == 0


def test_dotted_parity():
    assert dg.dotted_parity_ok(dg.styled_diagram(4, SQUARE, 1))
    assert not dg.dotted_parity_ok(dg.styled_diagram(4, SQUARE, 0))
    assert not dg.dotted_parity_ok(dg.styled_diagram(4, SQUARE, 0b0011))


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
    comps = d.components
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


def classical_signed_cycle_type(name):
    """The signed cycle type each classical catalog name's word has."""
    m = re.fullmatch(r"([AD])(\d+)(?:\(([ab])(\d+)\))?", name)
    family, rank, kind, k = m[1], int(m[2]), m[3], int(m[4] or 0)
    if family == "A":
        return (rank + 1,), ()
    if kind is None:
        return (), (1, rank - 1)
    if kind == "b":
        assert rank == 2 * k + 2
    return (), tuple(sorted((k + 1, rank - k - 1)))


def test_classical_catalog_signed_cycle_types():
    """A_n is ((n+1,), ()), D_n is ((), (1, n-1)), D_l(a_k) is
    ((), (k+1, l-k-1)), and D_l(b_m) with l = 2m + 2 is ((), (m+1, m+1)),
    the type of D_l(a_m).

    Each D type has a negative cycle, so none is split: a signed cycle
    type with a negative cycle names one class of W(D_l) (Carter 1972,
    section 7).  Equal types are therefore one class, and D_l(a_m) and
    D_l(b_m) are conjugate, the paper's a/b equivalence, shown with no
    rewrite trace.  No conjugating element is made here."""
    seen = {}
    for name in dg.catalog_names():
        entry = dg.catalog(name)
        system = build_by_name(entry.system)
        if not system.monomial:
            continue
        got = system.signed_cycle_type([system.index(r) for r in entry.word])
        assert got == classical_signed_cycle_type(name), name
        assert got[1] or system.family == "A", name
        seen.setdefault((entry.system, got), []).append(name)
    pairs = sorted(names for names in seen.values() if len(names) > 1)
    assert pairs == sorted([f"D{2 * m + 2}(a{m})", f"D{2 * m + 2}(b{m})"] for m in range(2, 8))
    assert seen["D6", ((), (3, 3))] == ["D6(a2)", "D6(b2)"]
    # every entry but the eleven in E6-E8
    assert sum(map(len, seen.values())) == 68


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


def cold_catalog(monkeypatch, specs):
    """Build the catalog afresh from ``specs``; the next call builds the
    real one again."""
    monkeypatch.setattr(dg, "_catalog_specs", lambda: specs)
    dg._catalog.cache_clear()
    try:
        return dg._catalog()
    finally:
        dg._catalog.cache_clear()


@pytest.mark.parametrize("name", ["D5(a1)", "E6(a2)"], ids=["unlabelled", "labelled"])
def test_a_cold_catalog_build_refuses_a_wrong_stated_charpoly(monkeypatch, name):
    specs = [(n, system, roots, labels, (cp[0] + 1, *cp[1:]) if n == name else cp)
             for n, system, roots, labels, cp in dg._catalog_specs()]
    message = rf"catalog entry {re.escape(name)}: \w+ charpoly .* != stored"
    with pytest.raises(RuntimeError, match=message):
        cold_catalog(monkeypatch, specs)


def test_a_cold_catalog_build_makes_one_charpoly_per_unlabelled_entry(monkeypatch):
    """Two for each of the frozen entries, whose word order the scripts fix."""
    calls = []
    monkeypatch.setattr(dg, "charpoly", lambda m: calls.append(m) or charpoly(m))
    entries = cold_catalog(monkeypatch, dg._catalog_specs())[0]
    assert len(calls) == len(entries) + len(dg._FROZEN) == 79 + 10


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


def test_equivalence_separates_styles_within_class():
    """Equivalence is up to switching: a sign flip keeps the class, and the
    two square classes differ."""
    even = dg.styled_diagram(4, SQUARE, 0)
    odd = dg.styled_diagram(4, SQUARE, 1)
    flipped = dg.styled_diagram(4, SQUARE, 0b0110)  # vertex 2 negated: (1, 2), (2, 3)
    assert dg.equivalent(flipped, even)
    assert not dg.equivalent(odd, even)


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
# Properties: styling classes against brute force over vertex cuts and
# against cycle parities, and identification under the moves that keep a
# diagram's class.


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


@settings(max_examples=40)
@given(signed_graphs(max_n=5, max_edges=6), st.data())
def test_style_classes_agree_with_cycle_parities(graph, data):
    """Two stylings of one shape share a representative exactly when every
    chordless cycle holds an even number of the edges they differ on (the
    chordless cycles span the cycle space, whose orthogonal complement is
    the cut space, so no cut is enumerated here), and each representative
    is the smallest mask of its class."""
    n, edges = graph
    shape = [(a, b) for a, b, _ in edges]
    reps = dg.style_class_representatives(n, shape)
    index = {edge: k for k, edge in enumerate(shape)}
    cycles = [sum(1 << index[min(c[i - 1], c[i]), max(c[i - 1], c[i])]
                  for i in range(len(c)))
              for c in dg.styled_diagram(n, shape, 0).cycles]

    def same_class(m1, m2):
        return not any((cycle & (m1 ^ m2)).bit_count() % 2 for cycle in cycles)

    def rep_of(mask):
        (rep,) = [r for r in reps if same_class(mask, r)]
        return rep

    assert reps == sorted(reps)
    assert all(rep_of(mask) <= mask for mask in range(1 << len(shape)))
    masks = st.integers(0, (1 << len(shape)) - 1)
    m1, m2 = data.draw(masks), data.draw(masks)
    assert same_class(m1, m2) == (rep_of(m1) == rep_of(m2))


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
    """An output pin: the reference runs the source's own algorithm (each
    mask's least xor with a cut), one vertex set at a time."""
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
        word = [system.roots[space.reflection_perm(simple[i])[system.index(r)]] for r in word]
    for i in data.draw(st.lists(st.integers(0, max(len(word) - 2, 0)), max_size=6)):
        if i + 1 < len(word) and idot(doubled(word[i]), doubled(word[i + 1])) == 0:
            word[i], word[i + 1] = word[i + 1], word[i]
    for i in data.draw(st.lists(st.integers(0, len(word) - 1), unique=True)):
        word[i] = tuple(-c for c in word[i])
    d = dg.from_roots(system, word)
    assert dg.identify(d) == name
    assert dg.is_admissible(d)


# --------------------------------------------------------------------------
# The graph facts a diagram keeps, against brute force over vertex subsets,
# and the work they save.

FACTS = {"rows", "bipartition", "cycles", "components", "colours", "plan"}


def holds_a_set(fact):
    """Whether a kept fact is, or nests in its tuples, a set or frozenset."""
    return (isinstance(fact, (set, frozenset))
            or isinstance(fact, tuple) and any(map(holds_a_set, fact)))


def induced_single_cycles(n, pairs):
    """Every vertex set of at least 3 whose induced graph is one cycle, read
    from its least vertex toward the smaller of that vertex's neighbours."""
    out = []
    for size in range(3, n + 1):
        for vs in combinations(range(n), size):
            nbrs = {v: sorted(w for w in vs if (min(v, w), max(v, w)) in pairs)
                    for v in vs}
            if any(len(ws) != 2 for ws in nbrs.values()):
                continue
            walk, prev = [vs[0]], None
            while len(walk) < size:
                nxt = [w for w in nbrs[walk[-1]] if w != prev][0]
                prev = walk[-1]
                walk.append(nxt)
            if len(set(walk)) < size:
                continue  # two or more disjoint cycles
            out.append(tuple(walk))
    return sorted(out, key=lambda c: (len(c), c))


@settings(max_examples=80, deadline=None)
@given(signed_graphs(max_n=7), st.integers(0, (1 << 7) - 1))
def test_kept_graph_facts_match_brute_force(graph, long_mask):
    n, signed = graph
    edges = [(a, b, dg.DOTTED if odd else dg.SOLID) for a, b, odd in signed]
    longs = tuple(bool(long_mask >> i & 1) for i in range(n))
    d = dg.make_diagram(n, edges, longs=longs)
    styles = {(a, b): style for a, b, style in edges}
    pairs = set(styles)
    for i in range(n):
        for j in range(n):
            key = (min(i, j), max(i, j))
            assert (d.rows[0][i] >> j & 1 == 1) == (key in pairs)
            assert d.edge_style(i, j) == styles.get(key)
    for i in (-1, n):  # no edge has an end outside 0..n-1
        for j in range(-1, n + 1):
            assert d.edge_style(i, j) is None and d.edge_style(j, i) is None
    reach = [[i == j or (min(i, j), max(i, j)) in pairs for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    assert d.components == tuple(sorted({tuple(j for j in range(n) if reach[i][j])
                                         for i in range(n)}))
    assert d.cycles == tuple(induced_single_cycles(n, pairs))
    code = [2 * sum(i in key for key in pairs) + longs[i] for i in range(n)]
    assert d.colours == tuple(
        (code[i], *sorted(code[j] for j in range(n) if (min(i, j), max(i, j)) in pairs))
        for i in range(n))
    odd_cycle = any(len(c) % 2 for c in d.cycles)
    assert (d.bipartition is None) == odd_cycle
    if d.bipartition is not None:
        x, y = d.bipartition
        assert sorted(x + y) == list(range(n))
        assert all((a in x) != (b in x) for a, b in pairs)
    assert len(d.plan) == n
    assert FACTS <= set(vars(d))
    assert not any(map(holds_a_set, vars(d).values()))
    fresh = dg.make_diagram(n, edges, longs=longs)
    assert d == fresh and hash(d) == hash(fresh) and repr(d) == repr(fresh)
    assert set(vars(dataclasses.replace(d))) == {"longs", "edges", "labels"}


def count_layered_searches(monkeypatch):
    calls = []
    layers = dg._layers
    monkeypatch.setattr(dg, "_layers", lambda adj: calls.append(adj) or layers(adj))
    return calls


def test_a_diagram_request_runs_one_layered_search(monkeypatch, capsys):
    dg.catalog_names()  # the catalog's own checks are not counted
    dg._indexed_diagram.cache_clear()
    calls = count_layered_searches(monkeypatch)
    argv = ["diagram", "--system", "D4", "--roots", "e1-e2,e3-e4,e2-e3,e2+e3", "--pretty"]
    # Cold: one search for ``bipartition`` and ``components`` both; then the
    # kept diagram with both.
    for expected in (1, 0):
        calls.clear()
        assert cli.run(argv) == 0
        assert "identified: D4(a1)" in capsys.readouterr().out
        assert len(calls) == expected


def test_a_long_cycle_transform_runs_one_layered_search(monkeypatch):
    dg.catalog_names()
    dg._indexed_diagram.cache_clear()
    calls = count_layered_searches(monkeypatch)
    rewrite.transform_long_cycle("D6(b2)")
    assert len(calls) == 1


def test_the_charpoly_cache_keeps_no_diagram_alive():
    d = dg.make_diagram(3, [(0, 1, dg.SOLID), (1, 2, dg.DOTTED)], longs=(False, True, False))
    dg.bicolored_charpoly(d, Q(2))
    ref = weakref.ref(d)
    del d
    gc.collect()
    assert ref() is None


# --------------------------------------------------------------------------
# Chordless cycles against the search started from every vertex, and the
# diagrams ``from_roots`` keeps.


def reference_cycles(d):
    """The chordless-cycle search run from, and through, every vertex,
    written recursively on neighbour sets: ``Diagram.cycles`` runs the same
    search on a stack of masks and must list the same cycles."""
    adj = neighbour_sets(d)
    found = []

    def extend(path, members):
        s, u = path[0], path[-1]
        for w in sorted(adj[u]):
            if w in members or w < s:
                continue
            touches = adj[w] & members
            if len(path) == 1:
                path.append(w)
                members.add(w)
                extend(path, members)
                path.pop()
                members.remove(w)
                continue
            closing = s in touches
            allowed = {u, s} if closing else {u}
            if touches - allowed:
                continue
            if closing:
                if path[1] < w:
                    found.append(tuple(path) + (w,))
                continue
            path.append(w)
            members.add(w)
            extend(path, members)
            path.pop()
            members.remove(w)

    for s in range(d.n):
        extend([s], {s})
    return tuple(sorted(found, key=lambda c: (len(c), c)))


@pytest.mark.parametrize("name", dg.catalog_names())
def test_cycles_match_the_reference_on_the_catalog(name):
    d = dg.catalog(name).diagram
    fresh = dg.make_diagram(d.n, d.edges, longs=d.longs)  # no kept facts
    assert fresh.cycles == reference_cycles(fresh) == d.cycles


def test_the_cycle_search_walks_a_long_tail_without_nesting():
    """A 1500-vertex tail hung from a triangle is walked to its end on the
    search's own stack: a recursive walk along it would nest deeper than
    Python's recursion limit."""
    n = 1500
    edges = [(0, 1, dg.SOLID), (0, 2, dg.SOLID)] + [(i, i + 1, dg.SOLID) for i in range(1, n - 1)]
    assert dg.make_diagram(n, edges).cycles == ((0, 1, 2),)


def test_a_cycle_longer_than_the_recursion_limit_is_listed():
    n = 1500
    edges = [(i, (i + 1) % n, dg.SOLID) for i in range(n)]
    assert dg.make_diagram(n, edges).cycles == (tuple(range(n)),)


@st.composite
def cycles_with_tails(draw, max_n=12):
    """One or two cycles (the second on new vertices, hung from the first by
    one shared vertex, one edge or nothing), up to two extra edges, and
    pendant trees, with the vertices shuffled and every edge styled."""
    edges = set()

    def cycle(vertices):
        edges.update((vertices[i - 1], vertices[i]) for i in range(len(vertices)))

    n = draw(st.integers(3, 6))
    cycle(list(range(n)))
    if draw(st.booleans()):
        m = draw(st.integers(3, 5))
        join = draw(st.sampled_from(["vertex", "edge", "apart"]))
        if join == "vertex":
            cycle([draw(st.integers(0, n - 1))] + list(range(n, n + m - 1)))
            n += m - 1
        else:
            cycle(list(range(n, n + m)))
            if join == "edge":
                edges.add((draw(st.integers(0, n - 1)), n))
            n += m
    pairs = list(combinations(range(n), 2))
    edges.update(draw(st.lists(st.sampled_from(pairs), max_size=2)))
    for v in range(n, draw(st.integers(n, max(n, max_n)))):
        edges.add((draw(st.integers(0, v - 1)), v))
        n = v + 1
    perm = draw(st.permutations(range(n)))
    keyed = {tuple(sorted((perm[a], perm[b]))) for a, b in edges}
    return dg.make_diagram(n, [(a, b, draw(st.sampled_from([dg.SOLID, dg.DOTTED])))
                               for a, b in sorted(keyed)])


@settings(max_examples=150, deadline=None)
@given(cycles_with_tails())
def test_cycles_match_the_reference_on_cycles_with_tails(d):
    assert d.cycles == reference_cycles(d)


@settings(max_examples=100, deadline=None)
@given(st.one_of(cycles_with_tails(max_n=9).filter(lambda d: d.n <= 9),
                 signed_graphs(max_n=9).map(lambda g: dg.make_diagram(
                     g[0], [(a, b, dg.SOLID) for a, b, _ in g[1]]))))
def test_cycles_match_brute_force_over_vertex_sets(d):
    """Up to 9 vertices, against every vertex set whose induced graph is
    one cycle, with no path search."""
    assert d.cycles == tuple(induced_single_cycles(d.n, {(a, b) for a, b, _ in d.edges}))


def count_independent_grams(monkeypatch):
    calls = []
    independent_gram = RootSystem.independent_gram
    monkeypatch.setattr(RootSystem, "independent_gram",
                        lambda self, roots: calls.append(roots) or independent_gram(self, roots))
    return calls


def test_a_repeated_diagram_request_reuses_its_diagram(monkeypatch, capsys):
    dg.catalog_names()
    dg._indexed_diagram.cache_clear()
    calls = count_independent_grams(monkeypatch)
    argv = ["diagram", "--system", "D4", "--roots", "e1-e2,e3-e4,e2-e3,e2+e3"]
    outputs = []
    for expected in (1, 0):
        calls.clear()
        assert cli.run(argv) == 0
        outputs.append(capsys.readouterr().out)
        assert len(calls) == expected
    assert outputs[0] == outputs[1]
    d4 = build_by_name("D4")
    roots = [d4.parse_root(t) for t in ("e1-e2", "e3-e4", "e2-e3", "e2+e3")]
    assert dg.from_roots(d4, roots) is dg.from_roots(d4, [tuple(r) for r in roots])


def test_a_new_root_list_looks_each_root_up_once(monkeypatch):
    """The cache key's root positions are the ones the Gram matrix is read at."""
    d4, literals = build_by_name("D4"), ("e1-e2", "e3-e4", "e2-e3", "e2+e3")
    roots = [d4.parse_root(t) for t in literals]
    dg._indexed_diagram.cache_clear()
    calls = []
    index = RootSystem.index
    monkeypatch.setattr(RootSystem, "index", lambda self, v: calls.append(v) or index(self, v))
    assert dg.identify(dg.from_roots(d4, roots)) == "D4(a1)"
    assert len(calls) == len(roots)


def test_a_dependent_root_list_is_refused_alike_every_time():
    d4 = build_by_name("D4")
    roots = [d4.parse_root(t) for t in ("e1-e2", "e2-e3", "e1-e3")]
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError, match="linearly dependent") as exc:
            dg.from_roots(d4, roots)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert "e1-e3 depends on the roots before it" in messages[0]
    for _ in range(2):
        with pytest.raises(ValueError, match="is not a root of D4"):
            dg.from_roots(d4, [roots[0], (Q(1),) * 4])


def test_the_diagram_cache_keeps_at_most_its_bound():
    dg._indexed_diagram.cache_clear()
    bound = dg._indexed_diagram.cache_info().maxsize
    lists = [(s, (r,)) for s in (build_by_name("E8"), build_by_name("D16")) for r in s.roots]
    assert len(lists) > bound
    for system, roots in lists:
        dg.from_roots(system, roots)
        assert dg._indexed_diagram.cache_info().currsize <= bound
    assert dg._indexed_diagram.cache_info().currsize == bound


# --------------------------------------------------------------------------
# Exact identification against the invariant lookup it replaced: the vertex
# count, the (length class, degree) of each vertex, the chordless-cycle
# lengths and the bicolored charpoly, matched against the catalog's.


def reference_invariant(d):
    adj = neighbour_sets(d)
    vertices = tuple(sorted((d.longs[i], len(adj[i])) for i in range(d.n)))
    cyc = tuple(sorted(len(c) for c in d.cycles))
    return (d.n, vertices, cyc, dg.bicolored_charpoly(d))


REFERENCE_NAMES = {}


def reference_identify(d):
    """The catalog name whose invariant matches, None when the diagram has
    an odd cycle or no entry matches."""
    if not REFERENCE_NAMES:
        REFERENCE_NAMES.update((reference_invariant(dg.catalog(name).diagram), name)
                               for name in dg.catalog_names())
    if not dg.is_admissible(d):
        return None
    return REFERENCE_NAMES.get(reference_invariant(d))


def reference_identify_components(d):
    names = []
    for comp in d.components:
        name = reference_identify(dg.induced_subdiagram(d, comp))
        if name is None:
            return None
        names.append(name)
    return "+".join(sorted(names, key=dg.component_key))


IDENTIFY_SYSTEMS = ("A5", "D5", "D6", "D7", "D8", "E6", "E7", "E8", "B4", "C5", "F4", "G2")


@st.composite
def independent_root_subsets(draw, systems=IDENTIFY_SYSTEMS):
    """A system and an independent list of its roots: the drawn roots, each
    kept when it is independent of those kept before it."""
    system = build_by_name(draw(st.sampled_from(systems)))
    picks = draw(st.lists(st.integers(0, len(system.roots) - 1), min_size=1,
                          max_size=system.rank, unique=True))
    kept = []
    for i in picks:
        try:
            system.independent_gram(kept + [i])
        except ValueError:
            continue
        kept.append(i)
    return system, [system.roots[i] for i in kept]


@settings(max_examples=300, deadline=None)
@given(independent_root_subsets())
def test_identification_matches_the_invariant_lookup_on_root_subsets(case):
    system, roots = case
    d = dg.from_roots(system, roots)
    assert dg.identify_components(d) == reference_identify_components(d)


@pytest.mark.parametrize("name", ["A5", "B4", "C4", "D6", "E7", "F4", "G2"])
def test_signed_graph_reads_a_gram_of_dependent_roots(name):
    """``signed_graph`` of the sign-class reps' Gram matrix, far more roots
    than the rank: an edge where the inner product is nonzero, dotted where
    it is positive, and a vertex long where its root is."""
    system = build_by_name(name)
    reps = system.sign_class_reps()
    d = dg.signed_graph(system, system.int_gram(reps))
    assert d.longs == tuple(system.is_long(r) for r in reps)
    assert d.labels == tuple(f"v{i}" for i in range(len(reps)))
    edges = [(i, j, dg.DOTTED if x > 0 else dg.SOLID)
             for i, j in combinations(range(len(reps)), 2)
             if (x := system.normalized_inner(reps[i], reps[j]))]
    assert {style for *_, style in edges} == {dg.SOLID, dg.DOTTED}
    assert d.edges == tuple(edges)


def relabelled(d, perm, switched):
    """``d`` with vertex v renamed ``perm[v]`` and the vertices in
    ``switched`` switched: every edge with one end among them toggles."""
    edges = [(perm[a], perm[b], style if (a in switched) == (b in switched)
              else dg.SOLID if style == dg.DOTTED else dg.DOTTED)
             for a, b, style in d.edges]
    longs = [False] * d.n
    for v, long in enumerate(d.longs):
        longs[perm[v]] = long
    return dg.make_diagram(d.n, edges, longs=longs)


@st.composite
def relabellings(draw, d):
    perm = draw(st.permutations(range(d.n)))
    switched = set(draw(st.lists(st.integers(0, max(d.n - 1, 0)), max_size=d.n)))
    return relabelled(d, perm, switched)


@st.composite
def perturbations(draw, d):
    """``d`` relabelled and switched, then left alone or with one edge's
    style flipped, one edge moved or one vertex made long."""
    d = draw(relabellings(d))
    edges, longs = list(d.edges), list(d.longs)
    kind = draw(st.sampled_from(("none", "flip", "move", "long")))
    if kind == "flip" and edges:
        a, b, style = edges.pop(draw(st.integers(0, len(edges) - 1)))
        edges.append((a, b, dg.SOLID if style == dg.DOTTED else dg.DOTTED))
    elif kind == "move" and edges:
        edges.pop(draw(st.integers(0, len(edges) - 1)))
        taken = {(a, b) for a, b, _ in edges}
        free = [(a, b) for a, b in combinations(range(d.n), 2) if (a, b) not in taken]
        if free:
            edges.append((*draw(st.sampled_from(free)),
                          draw(st.sampled_from((dg.SOLID, dg.DOTTED)))))
    elif kind == "long":
        longs[draw(st.integers(0, d.n - 1))] = True
    return dg.make_diagram(d.n, edges, longs=longs)


@st.composite
def perturbed_catalog_diagrams(draw):
    return draw(perturbations(dg.catalog(draw(st.sampled_from(dg.catalog_names()))).diagram))


@settings(max_examples=300, deadline=None)
@given(perturbed_catalog_diagrams())
def test_identification_matches_the_invariant_lookup_on_perturbed_catalog_diagrams(d):
    assert dg.identify_components(d) == reference_identify_components(d)


@settings(max_examples=160, deadline=None)
@given(st.sampled_from(dg.catalog_names()), st.data())
def test_a_catalog_diagram_is_equivalent_to_itself_relabelled_and_switched(name, data):
    d = dg.catalog(name).diagram
    copy = data.draw(relabellings(d))
    assert dg.equivalent(copy, d) and dg.equivalent(d, copy)
    assert dg.identify(copy) == name


def test_no_catalog_diagram_is_equivalent_to_a_colour_mate():
    """Entries whose sorted vertex colours agree, the only pairs the search
    is run on, are never equivalent; some such pairs exist."""
    diagrams = {name: dg.catalog(name).diagram for name in dg.catalog_names()}
    mates = [(a, b) for a, b in combinations(diagrams, 2)
             if sorted(diagrams[a].colours) == sorted(diagrams[b].colours)]
    assert len(mates) >= 5
    for a, b in mates:
        assert not dg.equivalent(diagrams[a], diagrams[b]), (a, b)
        assert not dg.equivalent(diagrams[b], diagrams[a]), (a, b)


# --------------------------------------------------------------------------
# ``equivalent`` against brute force over every relabelling and switching.


def equivalent_by_brute_force(d, c):
    """Some vertex bijection keeps length classes and adjacency, and some
    set of switched vertices then turns the styles of ``d`` into those of
    ``c``: tried one bijection and one switched set at a time."""
    if d.n != c.n:
        return False
    want = {(a, b): style == dg.DOTTED for a, b, style in c.edges}
    for perm in permutations(range(d.n)):
        if any(d.longs[v] != c.longs[perm[v]] for v in range(d.n)):
            continue
        got = {(min(perm[a], perm[b]), max(perm[a], perm[b])): style == dg.DOTTED
               for a, b, style in d.edges}
        if got.keys() != want.keys():
            continue
        for switched in range(1 << d.n):
            if all(got[a, b] ^ (switched >> a & 1) ^ (switched >> b & 1) == dotted
                   for (a, b), dotted in want.items()):
                return True
    return False


@st.composite
def small_diagrams(draw, max_n=5):
    n, signed = draw(signed_graphs(max_n=max_n))
    longs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return dg.make_diagram(n, [(a, b, dg.DOTTED if odd else dg.SOLID) for a, b, odd in signed],
                           longs=longs)


@st.composite
def small_diagram_pairs(draw):
    """A diagram with n <= 5 and either an independent one of its size or
    a :func:`perturbations` of it."""
    d = draw(small_diagrams())
    if draw(st.booleans()):
        return d, draw(small_diagrams(max_n=d.n).filter(lambda c: c.n == d.n))
    return d, draw(perturbations(d))


TRIANGLE = ((0, 1), (1, 2), (0, 2))
PATH3 = ((0, 1), (1, 2))


def long_at(d, *vertices):
    return dataclasses.replace(d, longs=tuple(v in vertices for v in range(d.n)))


@settings(max_examples=400, deadline=None)
@given(small_diagram_pairs())
# odd cycles: the dotted count's parity on a cycle survives switching
@example((dg.styled_diagram(3, TRIANGLE, 0), dg.styled_diagram(3, TRIANGLE, 0b100)))
@example((dg.styled_diagram(3, TRIANGLE, 0), dg.styled_diagram(3, TRIANGLE, 0b011)))
@example((dg.styled_diagram(4, SQUARE, 0b1000), dg.styled_diagram(4, SQUARE, 0b0111)))
@example((dg.styled_diagram(4, SQUARE, 0b1000), dg.styled_diagram(4, SQUARE, 0b0101)))
# disconnected: a triangle and an edge, against an edge and a triangle
@example((dg.styled_diagram(5, TRIANGLE + ((3, 4),), 0b1100),
          dg.styled_diagram(5, ((0, 1), (2, 3), (3, 4), (2, 4)), 0b1110)))
@example((dg.styled_diagram(5, TRIANGLE + ((3, 4),), 0b1100),
          dg.styled_diagram(5, ((0, 1), (2, 3), (3, 4), (2, 4)), 0b0110)))
# mixed lengths: where the long vertex sits on a path
@example((long_at(dg.styled_diagram(3, PATH3, 0b10), 0),
          long_at(dg.styled_diagram(3, PATH3, 0b11), 2)))
@example((long_at(dg.styled_diagram(3, PATH3, 0b10), 0),
          long_at(dg.styled_diagram(3, PATH3, 0), 1)))
def test_equivalent_matches_brute_force(pair):
    d, c = pair
    expected = equivalent_by_brute_force(d, c)
    assert dg.equivalent(d, c) == expected
    assert dg.equivalent(c, d) == expected


def path_diagram(n):
    return dg.make_diagram(n, [(i, i + 1, dg.SOLID) for i in range(n - 1)])


def test_equivalent_states_the_placement_bound():
    """``embeddings`` nests one call per placed vertex, so it refuses a
    target past a stated bound instead of raising ``RecursionError``: two
    512-vertex paths are equivalent, two 1500-vertex paths a ValueError."""
    assert dg.equivalent(path_diagram(512), path_diagram(512))
    with pytest.raises(ValueError, match="at most 512 target vertices, not 1500"):
        dg.equivalent(path_diagram(1500), path_diagram(1500))


@settings(max_examples=100, deadline=None)
@given(signed_graphs(max_n=7))
def test_the_plan_places_each_component_in_one_connected_run(graph):
    """Each step places the vertex with the most neighbours placed, then
    the highest degree, then the lowest index, and splits the vertices
    placed before it into its neighbours, with their edge styles, and its
    non-neighbours.  A component is placed in one run, and only its first
    vertex has no neighbour placed."""
    n, signed = graph
    d = dg.make_diagram(n, [(a, b, dg.DOTTED if odd else dg.SOLID) for a, b, odd in signed])
    adj = neighbour_sets(d)
    dotted_pairs = {(a, b) for a, b, style in d.edges if style == dg.DOTTED}
    order = [v for v, _, _ in d.plan]
    assert sorted(order) == list(range(n))
    for k, (v, nbrs, non) in enumerate(d.plan):
        before = set(order[:k])
        assert v == max(set(range(n)) - before,
                        key=lambda w: (len(adj[w] & before), len(adj[w]), -w))
        assert sorted([u for u, _ in nbrs] + list(non)) == sorted(before)
        assert all(u in adj[v] and ((min(u, v), max(u, v)) in dotted_pairs) is dotted
                   for u, dotted in nbrs)
        assert not set(non) & adj[v]
    assert sum(not nbrs for _, nbrs, _ in d.plan) == len(d.components)
    comp_of = {v: i for i, comp in enumerate(d.components) for v in comp}
    runs = [comp_of[v] for v in order]
    assert runs == sorted(runs, key=runs.index)
