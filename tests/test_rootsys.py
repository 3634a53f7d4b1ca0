"""Root system models: construction, membership, parsing, formatting."""

import re

import pytest
from fractions import Fraction as Q
from hypothesis import given
from hypothesis import strategies as st

from weylcalc.exactla import dot, idot, vec_add
from weylcalc.rootsys import (
    _RANK_RANGE,
    RootSystem,
    build,
    build_by_name,
    doubled,
    format_vector,
    parse_vector,
)
from weylcalc.weyl import perm_space

ROOT_COUNTS = {
    "A4": 20,
    "B3": 18,
    "C3": 18,
    "D4": 24,
    "G2": 12,
    "F4": 48,
    "E6": 72,
    "E7": 126,
    "E8": 240,
}


def test_root_counts():
    for name, expected in ROOT_COUNTS.items():
        assert len(build_by_name(name).roots) == expected, name


def test_length_ratios():
    assert build_by_name("D4").ratio == 1
    assert build_by_name("A5").ratio == 1
    assert build_by_name("B3").ratio == 2
    assert build_by_name("C3").ratio == 2
    assert build_by_name("F4").ratio == 2
    assert build_by_name("G2").ratio == 3


def test_rank_ranges_rejected():
    for family, rank in (("A", 0), ("A", 17), ("B", 1), ("D", 2), ("E", 9),
                         ("E", 5), ("F", 3), ("G", 3)):
        with pytest.raises(ValueError):
            build(family, rank)
    with pytest.raises(ValueError):
        build("H", 3)


@pytest.mark.parametrize("family, rank", [("A", True), ("A", 1.0), ("D", 4.0)])
def test_build_refuses_a_rank_that_is_not_an_int(family, rank):
    """An int-valued bool or float is refused, also once the int's system
    is cached: ``True == 1`` and ``4.0 == 4`` hash alike."""
    build(family, int(rank))
    with pytest.raises(ValueError, match="is not an int"):
        build(family, rank)


def test_build_by_name():
    s = build_by_name("D4")
    assert (s.family, s.rank) == ("D", 4)
    assert s.name() == "D4"
    assert build("d", 4) is build("D", 4) is build_by_name("d4") is s  # one D4 per process
    with pytest.raises((ValueError, KeyError)):
        build_by_name("Q7")
    # the rank is ASCII digits only: int() would take all of these
    for name in ["D+4", "D 4", "D\u0664", "D1_6", "D-4", "D"]:
        with pytest.raises(ValueError, match="bad root system name"):
            build_by_name(name)


def test_membership_and_closure():
    s = build_by_name("D4")
    assert s.is_root(s.parse_root("e1-e2"))
    assert s.is_root(s.parse_root("e1+e2"))
    assert not s.is_root((Q(1), Q(0), Q(0), Q(0)))  # that one lives in B4
    # closed under negation and reflection
    space = perm_space(s)
    for r in s.roots:
        assert s.is_root(tuple(-x for x in r))
        assert s.is_root(s.roots[space.reflection_perm(s.roots[0])[s.index(r)]])


def test_parse_format_round_trip_simply_laced():
    s = build_by_name("D5")
    for r in s.roots:
        assert parse_vector(format_vector(r), s.dim) == r


def test_parse_format_round_trip_mixed_lengths():
    for name in ("B3", "G2", "F4", "E8"):
        s = build_by_name(name)
        for r in s.roots:
            assert parse_vector(format_vector(r), s.dim) == r, format_vector(r)


def test_half_integer_roots():
    s = build_by_name("E8")
    r = s.parse_root("e1-e2-e3-e4-e5-e6-e7+e8/2")
    assert dot(r, r) == 2
    assert r == tuple(Q(x, 2) for x in parse_vector("e1-e2-e3-e4-e5-e6-e7+e8", 8))


def test_parse_vector_grammar():
    assert parse_vector("e1-e2", 4) == (1, -1, 0, 0)
    assert parse_vector("2e3", 4) == (0, 0, 2, 0)
    assert parse_vector(" e1 + e2 ", 4) == (1, 1, 0, 0)
    assert parse_vector("-e1+2e2-e3", 3) == (-1, 2, -1)
    for bad in ("", "e0", "e5", "1+e2", "e1++e2", "x1", "e1/3", "e\u0661-e2",
                "e\u00b2-e3", "\u0662e1"):
        with pytest.raises(ValueError):
            parse_vector(bad, 4)


@pytest.mark.parametrize("text,dim,message", [
    ("e0", 4, "coordinate e0 out of range for dimension 4"),
    ("e1-e10", 9, "coordinate e10 out of range for dimension 9"),
    ("2x1", 4, "bad term '2x1'"),
    ("e1--e2", 4, "bad term ''"),
    ("e\u0661-e2", 4, "bad term 'e\u0661'"),  # an Arabic-Indic one
    ("e\u00b2-e3", 4, "bad term 'e\u00b2'"),  # a superscript two
])
def test_parse_vector_error_paths(text, dim, message):
    with pytest.raises(ValueError, match=message):
        parse_vector(text, dim)


def test_format_vector_shapes():
    assert format_vector((1, -1, 0, 0)) == "e1-e2"
    assert format_vector((0, 0, 2, 0)) == "2e3"
    assert format_vector((0, 0, 0, 0)) == "0"
    half = tuple(Q(1, 2) if i != 1 else Q(-1, 2) for i in range(8))
    assert format_vector(half).endswith("/2")
    for thirds in ((Q(1, 3), Q(0)), (Q(1, 2), Q(1, 6))):
        with pytest.raises(ValueError, match="non-half fractional part"):
            format_vector(thirds)


@pytest.mark.parametrize("v", [(0.5, 0, 0, 0), ("1", 0, 0, 0)], ids=["float", "string"])
def test_format_vector_and_format_root_refuse_an_inexact_coordinate(v):
    d4 = build_by_name("D4")
    for fmt in (format_vector, d4.format_root):
        with pytest.raises(ValueError, match=f"entry {v[0]!r} is not an int or a Fraction"):
            fmt(v)


def test_parse_root_validates_membership():
    s = build_by_name("A3")
    with pytest.raises(ValueError):
        s.parse_root("e1+e2")  # a vector, but not a root of A3


def all_systems():
    return [build(family, rank) for family, (lo, hi) in _RANK_RANGE.items()
            for rank in range(lo, hi + 1)]


def test_parse_root_hands_out_the_interned_root():
    for s in all_systems():
        for i, r in enumerate(s.roots):
            assert s.parse_root(s.format_root(r)) is s.roots[i]


def test_equal_copies_answer_like_the_interned_roots():
    for name in ("A3", "B3", "G2", "F4", "E8"):
        s = build_by_name(name)
        for i, r in enumerate(s.roots):
            copy = tuple(Q(c.numerator, c.denominator) for c in r)
            assert copy == r and copy is not r
            assert s.index(copy) == s.root_index(copy) == i
            assert s.is_long(copy) == s.is_long(r)
            assert s.format_root(copy) == s.format_root(r) == format_vector(r)
            assert s.normalized_inner(copy, r) == s.normalized_inner(r, r)


def test_lookup_and_literal_tables_are_built_on_first_use():
    s = RootSystem("D", 5)
    assert "_position" not in vars(s) and "_literals" not in vars(s)
    s.parse_root("e1-e2")  # parsing needs neither table
    assert "_position" not in vars(s) and "_literals" not in vars(s)
    assert s.format_root(s.roots[0]) == "-e1-e2"
    assert "_position" in vars(s) and "_literals" in vars(s)


def test_format_root_makes_each_literal_on_first_use():
    s = RootSystem("D", 16)
    assert s.format_root(s.roots[0]) == s.format_root(tuple(s.roots[0])) == "-e1-e2"
    assert s._literals == {0: "-e1-e2"}
    assert s.format_root(s.roots[-1]) == "e1+e2"
    assert len(s._literals) == 2
    assert s.format_root(s.roots[0]) is s.format_root(s.roots[0])


_REFERENCE_TERM = re.compile(r"([+-]?)([0-9]*)e([0-9]+)")


def reference_vector(text, dim):
    """A ``Fraction`` reading of a well-formed root literal."""
    body = text.replace(" ", "")
    scale = Q(1, 2) if body.endswith("/2") else Q(1)
    out = [Q(0)] * dim
    for sign, k, i in _REFERENCE_TERM.findall(body.removesuffix("/2")):
        out[int(i) - 1] += (-1 if sign == "-" else 1) * int(k or 1) * scale
    return tuple(out)


@st.composite
def literals(draw, dim, index=None):
    """A root literal over ``dim`` coordinates: signed terms ``[k]e<i>``,
    the first sign optional, maybe over ``/2``, with spaces anywhere.
    ``index`` draws each term's coordinate number (default 1..dim)."""
    if index is None:
        index = st.integers(1, dim)
    terms = draw(st.lists(st.tuples(st.sampled_from("+-"), st.none() | st.integers(0, 12),
                                    index), min_size=1, max_size=6))
    text = "".join(f"{sign}{'' if k is None else k}e{i}" for sign, k, i in terms)
    if terms[0][0] == "+" and draw(st.booleans()):
        text = text[1:]
    if draw(st.booleans()):
        text += "/2"
    for at in draw(st.lists(st.integers(0, len(text)), max_size=4)):
        text = text[:at] + " " + text[at:]
    return text


@given(st.integers(1, 9).flatmap(lambda dim: st.tuples(st.just(dim), literals(dim))))
def test_parse_vector_matches_a_reference_parser(case):
    dim, text = case
    v = parse_vector(text, dim)
    assert v == reference_vector(text, dim)
    assert all(type(c) is Q for c in v)
    assert parse_vector(format_vector(v), dim) == v


def test_zero_literal_is_the_zero_vector_and_no_root():
    assert format_vector((Q(0),) * 3) == "0"
    assert parse_vector("0", 3) == parse_vector(" 0 ", 3) == (Q(0),) * 3
    s = build_by_name("D4")
    with pytest.raises(ValueError, match=re.escape("'0' is not a root of D4")):
        s.parse_root("0")


@given(st.data())
def test_parse_vector_error_messages(data):
    dim = data.draw(st.integers(1, 9))
    head = data.draw(literals(dim)).replace(" ", "").removesuffix("/2")
    bad = data.draw(st.sampled_from(["x1", "e", "2e", "ee1", "e1e", "1", "e+", "e1/3"]))
    with pytest.raises(ValueError, match=re.escape(f"bad term {bad.rstrip('+')!r}")):
        parse_vector(f"{head}+{bad}", dim)
    far = data.draw(st.sampled_from([0, dim + 1, dim + 7]))
    with pytest.raises(ValueError, match=f"coordinate e{far} out of range for dimension {dim}$"):
        parse_vector(f"{head}-2e{far}", dim)


@given(st.sampled_from(["A3", "B3", "C3", "D4", "G2", "F4", "E6"]).flatmap(
    lambda name: st.tuples(st.just(name), literals(build_by_name(name).dim, st.integers(1, 3)))))
def test_parse_root_names_roots_and_refuses_the_rest(case):
    name, text = case
    s = build_by_name(name)
    v = parse_vector(text, s.dim)
    i = s.root_index(v)
    if i is None:
        with pytest.raises(ValueError, match=re.escape(f"{text!r} is not a root of {name}")):
            s.parse_root(text)
    else:
        assert s.parse_root(text) is s.roots[i]


def test_sign_classes_are_the_upper_half():
    systems = [build(family, rank) for family, (lo, hi) in _RANK_RANGE.items()
               for rank in range(lo, hi + 1)]
    assert len(systems) == 65
    for s in systems:
        assert all(s.roots[-1 - i] == tuple(-x for x in r) for i, r in enumerate(s.roots))
        # the reps are exactly the roots whose first nonzero coordinate is positive
        lex_positive = tuple(r for r in s.roots if next(c for c in r if c) > 0)
        assert s.sign_class_reps() == lex_positive, s.name()
        assert len(lex_positive) == len(s.roots) // 2


@pytest.mark.parametrize("name", ["A1", "A4", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8"])
def test_positive_roots_are_the_nonnegative_simple_combinations(name):
    s = RootSystem(name[0], int(name[1:]))
    assert "positive" not in vars(s)
    for r, positive in zip(s.roots, s.positive):
        coeffs = s.simple_coefficients(r)
        assert all(c >= 0 for c in coeffs) if positive else all(c <= 0 for c in coeffs)
    assert sum(s.positive) == len(s.roots) // 2


def _closure_under_every_reflection(simple):
    """The roots reached from ``simple`` by reflecting every root in every
    root until nothing new appears, on doubled integers.  Roots are kept up
    to sign (s_b = s_-b and s_b(-v) = -s_b(v)), and each pair of them is
    reflected both ways once, when the later of the two is taken up."""
    def up_to_sign(v):
        return max(v, tuple([-x for x in v]))

    found = {up_to_sign(s) for s in simple}
    queue, done = list(found), []
    for a in queue:
        aa = idot(a, a)
        for b, support, bb in done:
            if ab := sum([a[i] * x for i, x in support]):
                for u, w, ww in ((a, b, bb), (b, a, aa)):
                    c = 2 * ab // ww
                    image = up_to_sign(tuple([x - c * y for x, y in zip(u, w)]))
                    if image not in found:
                        found.add(image)
                        queue.append(image)
        done.append((a, [(i, x) for i, x in enumerate(a) if x], aa))
    return found | {tuple(-x for x in v) for v in found}


def test_positive_walk_closes_every_system():
    """The roots grown from the simple ones on their Cartan pairings, and
    negated, are the reflection closure of the simple roots; heights are
    odd under negation, and the norms read off the simple roots are the
    extreme norms of all roots."""
    systems = [build(family, rank) for family, (lo, hi) in _RANK_RANGE.items()
               for rank in range(lo, hi + 1)]
    assert len(systems) == 65
    for s in systems:
        assert set(s.int_roots) == _closure_under_every_reflection(
            [doubled(r) for r in s.simple_roots]), s.name()
        heights = dict(zip(s.int_roots, s.heights))
        assert all(heights[tuple(-x for x in r)] == -h for r, h in heights.items()), s.name()
        norms = [idot(r, r) for r in s.int_roots]
        assert (s.int_short_norm, s.int_long_norm) == (min(norms), max(norms)), s.name()


def test_positive_roots_are_not_the_upper_half_everywhere():
    """In E8 (and E6, E7, G2) some simple roots are not lex-positive."""
    s = build_by_name("E8")
    upper = set(s.sign_class_reps())
    assert any(r not in upper for r in s.simple_roots)
    assert all(s.positive[s.index(r)] for r in s.simple_roots)


def test_heights_are_the_simple_coefficient_sums():
    for name in ("A1", "A4", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8"):
        s = RootSystem(name[0], int(name[1:]))
        assert all(type(h) is int for h in s.heights)
        assert list(s.heights) == [sum(s.simple_coefficients(r)) for r in s.roots], name


def test_subsystem_name_of_the_simple_roots_is_the_system():
    for family, (lo, hi) in _RANK_RANGE.items():
        for rank in range(lo, hi + 1):
            s = build(family, rank)
            own = {"D3": "A3", "C2": "B2"}.get(s.name(), s.name())
            assert s.subsystem_name(s.simple_roots) == own


def test_subsystem_name_of_subsystems():
    d6 = build_by_name("D6")
    assert d6.subsystem_name([d6.parse_root(t) for t in ("e5-e6", "e5+e6", "e4-e5")]) == "A3"
    assert d6.subsystem_name([d6.parse_root("e1-e2")]) == "A1"
    b4 = build_by_name("B4")
    assert b4.subsystem_name([b4.parse_root(t) for t in ("e2-e3", "e3-e4", "e4")]) == "B3"
    c4 = build_by_name("C4")
    assert c4.subsystem_name([c4.parse_root(t) for t in ("e2-e3", "e3-e4", "2e4")]) == "C3"


@pytest.mark.parametrize("name,literals", [
    ("A3", ("e1-e2", "e3-e4")),  # A1+A1
    ("D7", ("e1-e2", "e2-e3", "e3-e4", "e4-e5", "e4+e5", "e6-e7")),  # D5+A1: 42 roots, like A6
    ("A3", ()),
])
def test_subsystem_name_refuses_a_reducible_input(name, literals):
    s = build_by_name(name)
    with pytest.raises(ValueError, match="not form a connected simple system"):
        s.subsystem_name([s.parse_root(t) for t in literals])


def test_subsystem_name_refuses_a_dependent_input():
    """Connected but dependent: the three roots close to A2's six roots,
    which no rank-3 system has."""
    s = build_by_name("A3")
    with pytest.raises(ValueError, match="linearly dependent: not a simple system"):
        s.subsystem_name([s.parse_root(t) for t in ("e1-e2", "e2-e3", "e1-e3")])


@pytest.mark.parametrize("name,literals,message", [
    # acute: they were named A2, the subsystem the two roots generate
    ("D4", ("e1-e2", "e1-e3"), "not a simple system: e1-e2 and e1-e3 are at an acute angle"),
    ("A3", ("e1-e2", "e2-e3", "-e1+e3"), "linearly dependent"),  # pairwise obtuse
    ("A3", ("e1-e2", "-e1+e2"), "linearly dependent"),
])
def test_subsystem_name_refuses_a_non_simple_input(name, literals, message):
    s = build_by_name(name)
    with pytest.raises(ValueError, match=message):
        s.subsystem_name([s.parse_root(t) for t in literals])


def test_subsystem_name_refuses_a_non_root():
    s = build_by_name("A3")
    with pytest.raises(ValueError, match="is not a root of A3"):
        s.subsystem_name([s.roots[0], (Q(1), Q(1), Q(0), Q(0))])


def test_max_root_is_dominant_and_long():
    """Each length's dominant root is the only root of that length with
    ``<r, s> >= 0`` for every simple root ``s``; the long one is ``max_root``."""
    for s in all_systems():
        assert s.max_root() is s.dominant_root(long=True)
        simple = [doubled(r) for r in s.simple_roots]
        for norm, long in ((s.int_long_norm, True), (s.int_short_norm, False)):
            dominant = [s.roots[i] for i, r in enumerate(s.int_roots) if idot(r, r) == norm
                        and all(idot(r, t) >= 0 for t in simple)]
            assert dominant == [s.dominant_root(long)], (s.name(), long)


def test_simple_coefficients_reconstruct():
    s = build_by_name("D4")
    for r in (s.max_root(), s.roots[0], s.roots[-1]):
        coeffs = s.simple_coefficients(r)
        total = (Q(0),) * s.dim
        for c, simple in zip(coeffs, s.simple_roots):
            total = vec_add(total, tuple(c * x for x in simple))
        assert total == r
    a5 = build_by_name("A5")
    assert a5.simple_coefficients(a5.max_root()) == (1, 1, 1, 1, 1)


def test_simple_coefficients_reject_vectors_off_the_span():
    s = build_by_name("A3")  # the span is the sum-zero hyperplane of R^4
    with pytest.raises(ValueError):
        s.simple_coefficients((Q(1), Q(0), Q(0), Q(0)))
    assert s.simple_coefficients((Q(1, 3), Q(-1, 3), Q(0), Q(0))) == (Q(1, 3), 0, 0)


@pytest.mark.parametrize("v, message", [
    # floats: read as e1-e2, they would answer floats
    ((1.0, -1.0, 0, 0), "entry 1.0 is not an int or a Fraction"),
    (("1", "-1", "0", "0"), "entry '1' is not an int or a Fraction"),
    # the wrong length: unchecked, the solve would truncate both to (1, 0, 0)
    ((Q(1), Q(-1), Q(0)), "not a vector of dimension 4"),
    ((Q(1), Q(-1), Q(0), Q(0), Q(0)), "not a vector of dimension 4"),
], ids=["floats", "text", "3 coordinates", "5 coordinates"])
def test_simple_coefficients_reject_inexact_or_misshapen_vectors(v, message):
    s = build_by_name("A3")
    with pytest.raises(ValueError, match=message):
        s.simple_coefficients(v)


def test_normalized_inner():
    s = build_by_name("B3")
    long_root = s.parse_root("e1-e2")
    short_root = s.parse_root("e3")
    assert s.normalized_inner(short_root, short_root) == 1
    assert s.normalized_inner(long_root, long_root) == 2
    assert s.is_long(long_root)
    assert not s.is_long(short_root)


def test_normalized_inner_and_is_long_refuse_a_vector_of_another_dimension():
    d4 = build_by_name("D4")
    root = d4.parse_root("e1+e2")
    for call in (lambda: d4.normalized_inner((Q(1),), root),
                 lambda: d4.normalized_inner(root, (Q(1), Q(0), Q(0), Q(0), Q(0))),
                 lambda: d4.is_long((1, 1))):
        with pytest.raises(ValueError, match="not a vector of dimension 4"):
            call()
    assert d4.normalized_inner((Q(1), Q(0), Q(0), Q(0)), root) == Q(1, 2)


def test_parse_root_keeps_at_most_one_literal_per_root():
    d4 = build_by_name("D4")
    root = d4.parse_root("e1-e2")
    assert root is d4.roots[d4.index(root)]
    for text in ("e1-e2", "-e2+e1", " e1 - e2 ", "e1-e2"):
        assert d4.parse_root(text) is root
    for _ in range(2):  # a non-root is refused on every call, and not kept
        with pytest.raises(ValueError, match="is not a root of D4"):
            d4.parse_root("e1+e2+e3")
    assert "e1+e2+e3" not in d4._parsed
    a3 = RootSystem("A", 3)  # a fresh system, not the shared one
    spellings = []
    for r in a3.roots:
        terms = [t if t[0] in "+-" else "+" + t
                 for t in re.findall(r"[+-]?[^+-]+", a3.format_root(r))]
        spellings += [(r, "".join(terms)), (r, "".join(reversed(terms))), (r, " ".join(terms))]
    assert len({text for _, text in spellings}) == 3 * len(a3.roots)
    for r, text in spellings:
        assert a3.parse_root(text) is r
        assert len(a3._parsed) <= len(a3.roots)
    for r, text in spellings:  # kept or not, every spelling still names its root
        assert a3.parse_root(text) is r
