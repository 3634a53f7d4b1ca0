"""Reflections, word evaluation, and element orders."""

import pytest
from fractions import Fraction as Q
from hypothesis import given, settings, strategies as st

from weylcalc import diagram as dg
from weylcalc import rewrite
from weylcalc.exactla import charpoly, identity, mat, mat_mul, mat_vec, vec_neg
from weylcalc.oracle import are_conjugate
from weylcalc.rootsys import build_by_name
from weylcalc.weyl import (
    evaluate,
    order_or_infinite,
    perm_space,
    reflection,
    word_matrix,
    word_matrix_from_gram,
)


def test_reflection_properties():
    s = build_by_name("D4")
    r = s.parse_root("e1-e2")
    m = reflection(s, r)
    assert mat_mul(m, m) == identity(s.dim)
    assert mat_vec(m, r) == tuple(-c for c in r)
    orthogonal = s.parse_root("e3-e4")
    assert mat_vec(m, orthogonal) == orthogonal


def test_reflection_preserves_roots():
    for name in ("A3", "B3", "G2"):
        s = build_by_name(name)
        for r in s.roots[:4]:
            m = reflection(s, r)
            for other in s.roots:
                assert s.is_root(mat_vec(m, other))


def test_evaluate_composition_order():
    """A word (r1, ..., rk) acts as s_{r1} after s_{r2} after ... after s_{rk}:
    the rightmost reflection is applied to a vector first."""
    s = build_by_name("A3")
    a = s.parse_root("e1-e2")
    b = s.parse_root("e2-e3")
    ab = evaluate(s, (a, b))
    assert ab == mat_mul(reflection(s, a), reflection(s, b))
    assert ab != evaluate(s, (b, a))  # the two reflections do not commute


def test_word_matrix_is_word_basis_view():
    """word_matrix expresses the product in the basis of the word's own
    roots, so its charpoly has degree len(word)."""
    s = build_by_name("D4")
    word = tuple(s.parse_root(t) for t in ("e1-e2", "e3-e4", "e2-e3", "e2+e3"))
    m = word_matrix(s, word)
    assert len(m) == 4
    assert charpoly(m) == (1, 0, 2, 0, 1)


def test_word_matrix_from_gram_small():
    # two reflections at 120 degrees: a rotation of order three
    g = mat([[1, Q(-1, 2)], [Q(-1, 2), 1]])
    c = word_matrix_from_gram(g, (0, 1))
    assert charpoly(c) == (1, 1, 1)
    assert mat_mul(mat_mul(c, c), c) == identity(2)


def test_order_or_infinite_finite():
    s = build_by_name("A2")
    a, b = s.simple_roots
    coxeter = evaluate(s, (a, b))
    assert order_or_infinite(coxeter) == 3
    s4 = build_by_name("D4")
    word = tuple(s4.parse_root(t) for t in ("e1-e2", "e3-e4", "e2-e3", "e2+e3"))
    assert order_or_infinite(evaluate(s4, word)) == 4
    assert order_or_infinite(identity(3)) == 1
    assert order_or_infinite(mat([[-1]])) == 2
    e8 = build_by_name("E8")
    with pytest.raises(ValueError, match="order bound 30 exceeds cap 10"):
        order_or_infinite(evaluate(e8, e8.simple_roots), power_cap=10)


def test_order_or_infinite_is_the_least_power_on_the_catalog():
    """The lcm of the cyclotomic indices is the order itself: on every
    catalog element up to rank 8 it is the least k with w^k = I, found by
    repeated products."""
    names = [n for n in dg.catalog_names()
             if build_by_name(dg.catalog(n).system).rank <= 8]
    assert len(names) == 35
    orders = {}
    for name in names:
        entry = dg.catalog(name)
        w = evaluate(build_by_name(entry.system), entry.word)
        power, k = w, 1
        while power != identity(len(w)):
            power, k = mat_mul(power, w), k + 1
        assert order_or_infinite(w) == k, name
        orders[name] = k
    assert max(orders.values()) == orders["E8"] == 30


def test_order_or_infinite_infinite():
    shear = mat([[1, 1], [0, 1]])
    assert order_or_infinite(shear) == "infinite"
    stretch = mat([[2, 0], [0, 1]])
    assert order_or_infinite(stretch) == "infinite"


def test_word_rejects_non_roots():
    s = build_by_name("A3")
    with pytest.raises(ValueError):
        evaluate(s, ((Q(1), Q(0), Q(0), Q(0)),))
    with pytest.raises(ValueError):
        perm_space(s).reflection_perm((Q(2), Q(-2), Q(0), Q(0)))


NON_ROOTS_OF_A3 = {
    "lattice vector": (Q(1), Q(0), Q(0), Q(0)),
    "long multiple": (Q(2), Q(-2), Q(0), Q(0)),
    "off the half lattice": (Q(1, 3), Q(-1, 3), Q(0), Q(0)),
    "wrong dimension": (Q(1), Q(-1), Q(0)),
    # not rational: read by ``Fraction``, the first two would be half of e1-e2
    # and the last two e1-e2 itself
    "float coordinates": (0.5, -0.5, 0.0, 0.0),
    "text coordinates": ("1/2", "-1/2", "0", "0"),
    "float e1-e2": (1.0, -1.0, 0.0, 0.0),
    "text e1-e2": ("1", "-1", "0", "0"),
}
ENTRY_POINTS = {
    "from_roots": dg.from_roots,
    "word_matrix": word_matrix,
    "word_charpoly": rewrite.word_charpoly,
    "evaluate": evaluate,
    "initial_state": rewrite.initial_state,
    "image": lambda s, word: perm_space(s).image(perm_space(s).ident, word[-1]),
    "reflection_perm": lambda s, word: perm_space(s).reflection_perm(word[-1]),
    "int_gram": lambda s, word: s.int_gram(word),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("bad", sorted(NON_ROOTS_OF_A3))
def test_non_roots_raise_value_error_at_every_entry_point(entry, bad):
    s = build_by_name("A3")
    word = (s.parse_root("e1-e2"), NON_ROOTS_OF_A3[bad])
    with pytest.raises(ValueError, match="is not a root of A3"):
        ENTRY_POINTS[entry](s, word)


@pytest.mark.parametrize("v", [*NON_ROOTS_OF_A3.values(), (None,) * 4],
                         ids=[*NON_ROOTS_OF_A3, "missing coordinates"])
def test_non_roots_are_not_roots(v):
    s = build_by_name("A3")
    assert not s.is_root(v)
    assert s.root_index(v) is None
    with pytest.raises(ValueError, match="is not a root of A3"):
        s.index(v)


# A_n, E6, E7 and G2 span a proper subspace of their ambient space, so
# their elements must also fix the orthogonal complement.
@pytest.mark.parametrize(
    "name", ["A1", "A3", "A8", "B3", "C4", "G2", "D5", "E6", "E7", "F4"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_perm_encoding_matches_matrices(name, data):
    """The product of reflection permutations is the word's matrix, and
    the matrix encodes back to the same permutation."""
    s = build_by_name(name)
    word = data.draw(st.lists(st.sampled_from(s.roots), max_size=8))
    space = perm_space(s)
    p = space.compose(*(space.reflection_perm(r) for r in word))
    m = space.matrix_of_perm(p)
    assert m == evaluate(s, word)
    assert space.perm_of_matrix(m) == p


# D12 has 264 roots, past the packed ``bytes`` encoding.
@pytest.mark.parametrize("name", ["A3", "B3", "G2", "E6", "D12"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_conjugates_holds_exactly_for_u_p_u_inverse(name, data):
    """``conjugates(u, p, q)`` holds for q the word u, p, reversed u (the
    inverse of a reflection word is its reverse) and for no other q."""
    s = build_by_name(name)
    space = perm_space(s)
    words = [data.draw(st.lists(st.sampled_from(s.roots), max_size=5)) for _ in range(3)]
    u_word, p_word, other_word = words
    u, p = space.word_perm(u_word), space.word_perm(p_word)
    q = space.word_perm((*u_word, *p_word, *u_word[::-1]))
    assert space.conjugates(u, p, q)
    other = space.word_perm(other_word)
    assert space.conjugates(u, p, other) == (other == q)


def minus_one_on_the_roots(system):
    """-1 on the span of the roots and 1 on its orthogonal complement:
    ``I - 2 S K``, with the simple roots as the columns of ``S`` and ``K``
    the coefficient map."""
    rows, den = system.coefficient_map
    n = system.dim
    return tuple(
        tuple((Q(1) if i == j else Q(0))
              - 2 * sum(s[i] * row[j] for s, row in zip(system.simple_roots, rows)) / den
              for j in range(n))
        for i in range(n))


# -1 permutes the roots and fixes their complement in every system, but it
# is in W only when every degree of W is even (Humphreys §3.19): A2 has
# degree 3 and E6 degrees 5 and 9.
@pytest.mark.parametrize("name, in_w", [
    ("A2", False), ("E6", False), ("A1", True), ("B3", True), ("D4", True),
    ("G2", True), ("E8", True)])
def test_perm_of_matrix_accepts_minus_one_exactly_in_w(name, in_w):
    s = build_by_name(name)
    m = minus_one_on_the_roots(s)
    assert all(mat_vec(m, r) == vec_neg(r) for r in s.roots)
    space = perm_space(s)
    if in_w:
        p = space.perm_of_matrix(m)
        assert all(s.roots[p[i]] == vec_neg(r) for i, r in enumerate(s.roots))
        assert space.matrix_of_perm(p) == m
        return
    with pytest.raises(ValueError, match="not in its Weyl group"):
        space.perm_of_matrix(m)
    # so conjugacy and conjugation refuse it too, instead of answering
    state = rewrite.initial_state(s, s.simple_roots[:1])
    with pytest.raises(ValueError, match="not in its Weyl group"):
        rewrite.apply_conjugation(state, m)
    for other in (m, identity(s.dim)):
        with pytest.raises(ValueError, match="not in its Weyl group"):
            are_conjugate(s, m, other)


def test_perm_of_matrix_rejects_a_wrong_shape():
    s = build_by_name("A2")  # dim 3
    space = perm_space(s)
    for m in (identity(2), identity(4), identity(3)[:2], (*identity(3)[:2], (Q(1), Q(0)))):
        with pytest.raises(ValueError, match="wrong shape"):
            space.perm_of_matrix(m)
