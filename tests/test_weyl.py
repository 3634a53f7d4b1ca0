"""Reflections, word evaluation, and element orders."""

import pytest
from fractions import Fraction as Q
from hypothesis import given, settings, strategies as st

from weylcalc import diagram as dg
from weylcalc import rewrite
from weylcalc.exactla import (
    charpoly, dot, identity, idot, mat, mat_mul, solve)
from weylcalc.oracle import are_conjugate, conjugating_perm, find_subsets, verify_unique_class
from weylcalc.rootsys import build_by_name
from weylcalc.weyl import (
    PermSpace,
    evaluate,
    order_or_infinite,
    perm_space,
    walk,
    word_matrix,
    word_matrix_from_gram,
)


def test_reflection_properties():
    s = build_by_name("D4")
    r = s.parse_root("e1-e2")
    m = evaluate(s, (r,))
    assert mat_mul(m, m) == identity(s.dim)
    assert tuple(dot(row, r) for row in m) == tuple(-c for c in r)
    orthogonal = s.parse_root("e3-e4")
    assert tuple(dot(row, orthogonal) for row in m) == orthogonal


def test_reflection_preserves_roots():
    for name in ("A3", "B3", "G2"):
        s = build_by_name(name)
        for r in s.roots[:4]:
            m = evaluate(s, (r,))
            for other in s.roots:
                assert s.is_root(tuple(dot(row, other) for row in m))


def test_evaluate_composition_order():
    """A word (r1, ..., rk) acts as s_{r1} after s_{r2} after ... after s_{rk}:
    the rightmost reflection is applied to a vector first."""
    s = build_by_name("A3")
    a = s.parse_root("e1-e2")
    b = s.parse_root("e2-e3")
    ab = evaluate(s, (a, b))
    assert ab == mat_mul(evaluate(s, (a,)), evaluate(s, (b,)))
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


@pytest.mark.parametrize("cap", [0, -5, True, 2.5, 3.5], ids=repr)
def test_order_or_infinite_reads_its_cap_as_a_count(cap):
    """``power_cap`` is refused as every cap is, before any shortcut, and
    None means no cap."""
    s = build_by_name("A2")
    coxeter = evaluate(s, s.simple_roots)  # of order 3
    for m in (coxeter, identity(3)):
        with pytest.raises(ValueError, match="power_cap must be None or an int of at least 1"):
            order_or_infinite(m, cap)
    assert order_or_infinite(coxeter, None) == order_or_infinite(coxeter, 3) == 3
    e8 = build_by_name("E8")
    assert order_or_infinite(evaluate(e8, e8.simple_roots), power_cap=None) == 30


D4 = build_by_name("D4")
D4_W = evaluate(D4, D4.simple_roots)
COUNT_READERS = {
    "walk": ("cap", lambda n: walk(0, lambda node: (), n)),
    "conjugating_perm": ("cap", lambda n: conjugating_perm(
        perm_space(D4), perm_space(D4).ident, perm_space(D4).ident, n)),
    "are_conjugate": ("cap", lambda n: are_conjugate(D4, D4_W, D4_W, n)),
    "verify_unique_class": ("cap", lambda n: verify_unique_class(D4, "D4(a1)", n)),
    "find_subsets": ("limit", lambda n: find_subsets(D4, dg.catalog("A2").diagram, n)),
    "embeddings": ("limit", lambda n: dg.embeddings(dg.make_diagram(1, []), ((0,), (0,)),
                                                    [1], n)),
    "order_or_infinite": ("power_cap", lambda n: order_or_infinite(D4_W, n)),
}


@pytest.mark.parametrize("count", [0, -1, 2.5, True], ids=repr)
@pytest.mark.parametrize("reader", COUNT_READERS)
def test_every_count_reader_refuses_a_bad_count_alike(reader, count):
    """One rule, one message: each cap or limit on a count is read by
    ``check_cap``, which names it."""
    name, call = COUNT_READERS[reader]
    with pytest.raises(ValueError, match=f"^{name} must be None or an int of at least 1"):
        call(count)


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
    "apply_conjugation": lambda s, word: rewrite.apply_conjugation(
        rewrite.initial_state(s, word[:1]), word),
    "image": lambda s, word: s.roots[perm_space(s).ident[s.index(word[-1])]],
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
# D12 has 264 roots, past the packed ``bytes`` encoding.
@pytest.mark.parametrize(
    "name", ["A1", "A3", "A8", "B3", "C4", "G2", "D5", "E6", "E7", "F4", "D12"])
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


def coordinate_reflections(roots):
    """For each root r, the images of ``roots`` under s_r(v) = v - <v, r^vee> r,
    as indices, computed on doubled-integer coordinates."""
    lattice = [tuple(int(2 * c) for c in v) for v in roots]
    where = {v: i for i, v in enumerate(lattice)}
    for r in lattice:
        rr = sum(x * x for x in r)
        images = []
        for v in lattice:
            c = 2 * sum(x * y for x, y in zip(v, r)) // rr
            images.append(where[tuple(x - c * y for x, y in zip(v, r))] if c else where[v])
        yield images


# D16 has 480 roots and B16 512, past the packed ``bytes`` encoding; the
# heights in B16 step by 2 where a long root meets the short simple root.
@pytest.mark.parametrize(
    "name",
    ["A1", "A8", "B2", "B5", "B16", "C4", "D4", "D16", "E6", "E7", "E8", "F4", "G2"])
def test_reflection_perm_is_the_coordinate_reflection_of_every_root(name):
    """Every reflection, conjugated from a simple one down the root heights,
    is the one coordinates give, an involution, and sends r to -r."""
    s = build_by_name(name)
    space = PermSpace(s)  # fresh, so each reflection is built in this order
    for (i, r), want in zip(enumerate(s.roots), coordinate_reflections(s.roots)):
        p = space.reflection_perm(r)
        assert list(p) == want
        assert space.mul(space.table(p), p) == space.ident
        assert s.roots[p[i]] == tuple(-x for x in r)


@pytest.mark.parametrize("name", ["A1", "E8", "D16"])
def test_table_pads_to_the_identity_on_256_entries(name):
    space = perm_space(build_by_name(name))
    p = space.reflection_perm(space.roots[-1])
    if space.packed:
        assert space.table(p) == p + bytes(range(space.n, 256))
    else:
        assert space.table(p) is p


def minus_one_on_the_roots(system):
    """-1 on the span of the roots and 1 on its orthogonal complement:
    ``I - 2 P``, with ``P e_j = S c`` the orthogonal projection onto the
    span, ``S`` the simple roots as columns and ``c`` the solution of the
    normal equations ``S^T S c = S^T e_j``."""
    simple = system.simple_roots
    gram = [[dot(a, b) for b in simple] for a in simple]
    n = system.dim
    cols = [solve(gram, [s[j] for s in simple]) for j in range(n)]
    return tuple(
        tuple((Q(1) if i == j else Q(0)) - 2 * sum(s[i] * c for s, c in zip(simple, cols[j]))
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
    assert all(tuple(dot(row, r) for row in m) == tuple(-x for x in r) for r in s.roots)
    space = perm_space(s)
    if in_w:
        p = space.perm_of_matrix(m)
        assert all(s.roots[p[i]] == tuple(-x for x in r) for i, r in enumerate(s.roots))
        assert space.matrix_of_perm(p) == m
        return
    with pytest.raises(ValueError, match="not in its Weyl group"):
        space.perm_of_matrix(m)
    # so conjugacy refuses it too, instead of answering
    for other in (m, identity(s.dim)):
        with pytest.raises(ValueError, match="not in its Weyl group"):
            are_conjugate(s, m, other)


def complement_reflection(system, v):
    """The reflection of R^dim in ``v``, which is orthogonal to every root."""
    assert all(dot(v, r) == 0 for r in system.simple_roots)
    n, vv = system.dim, dot(v, v)
    return tuple(
        tuple((Q(1) if i == j else Q(0)) - 2 * v[i] * v[j] / vv for j in range(n))
        for i in range(n)
    )


def test_perm_of_matrix_rejects_a_moved_complement():
    """An orthogonal matrix that fixes every E6 root but reflects their
    orthogonal complement in R^8 is no element of W(E6): a root
    permutation cannot record it, so it is refused, not dropped, by
    ``perm_of_matrix`` and ``are_conjugate`` alike (in A2 too)."""
    e6 = build_by_name("E6")
    space = perm_space(e6)
    u = complement_reflection(e6, (Q(0),) * 6 + (Q(1), Q(1)))
    assert mat_mul(u, u) == identity(8)  # a reflection: u is its own inverse
    assert all(tuple(dot(row, r) for row in u) == r for r in e6.roots)
    with pytest.raises(ValueError, match="orthogonal complement"):
        space.perm_of_matrix(u)
    root = e6.simple_roots[3]
    assert space.perm_of_matrix(evaluate(e6, (root,))) == space.reflection_perm(root)
    a2 = build_by_name("A2")
    for system, m in ((e6, u), (a2, complement_reflection(a2, (Q(1),) * 3))):
        with pytest.raises(ValueError, match="orthogonal complement"):
            are_conjugate(system, m, identity(system.dim))
        with pytest.raises(ValueError, match="orthogonal complement"):
            are_conjugate(system, m, m)


def test_perm_of_matrix_rejects_a_matrix_that_does_not_permute_the_roots():
    """2·I sends each root to twice a root, and I/3 to a third of one."""
    a2 = build_by_name("A2")
    space = perm_space(a2)
    for c in (Q(2), Q(1, 3)):
        m = tuple(tuple(c * x for x in row) for row in identity(a2.dim))
        with pytest.raises(ValueError, match="does not permute the roots of A2"):
            space.perm_of_matrix(m)
        with pytest.raises(ValueError, match="does not permute the roots of A2"):
            are_conjugate(a2, m, identity(a2.dim))


def test_perm_of_matrix_rejects_a_wrong_shape():
    s = build_by_name("A2")  # dim 3
    space = perm_space(s)
    for m in (identity(2), identity(4), identity(3)[:2], (*identity(3)[:2], (Q(1), Q(0)))):
        with pytest.raises(ValueError, match="wrong shape"):
            space.perm_of_matrix(m)


# D12 has 264 roots, past the packed ``bytes`` encoding.
@pytest.mark.parametrize("name", ["A3", "B3", "G2", "D5", "E6", "E8", "D12"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_reduced_word_spells_the_element_in_simple_roots(name, data):
    """The reduced word is a word in the simple roots whose product is the
    element, as long as its inversion count (Humphreys §1.6-1.7)."""
    s = build_by_name(name)
    space = perm_space(s)
    word = data.draw(st.lists(st.sampled_from(s.roots), max_size=8))
    p = space.word_perm(word)
    reduced = space.reduced_word(p)
    assert all(r in s.simple_roots for r in reduced)
    assert space.word_perm(reduced) == p
    inversions = sum(pos and not s.positive[j] for pos, j in zip(s.positive, p))
    assert len(reduced) == inversions


def poincare_coefficients(degrees):
    """Coefficients of prod (1 + q + ... + q^(d - 1)) over the degrees."""
    coeffs = [1]
    for d in degrees:
        coeffs = [sum(coeffs[k - j] for j in range(d) if 0 <= k - j < len(coeffs))
                  for k in range(len(coeffs) + d - 1)]
    return coeffs


# The degrees of the basic invariants (Humphreys §3.7, Table 1).
@pytest.mark.parametrize("name, degrees", [
    ("A3", (2, 3, 4)), ("B3", (2, 4, 6)), ("G2", (2, 6)), ("D4", (2, 4, 4, 6))])
def test_reduced_word_lengths_give_the_poincare_polynomial(name, degrees):
    """Sum of q^l(w) over W is prod (1 + ... + q^(d_i - 1)) (Humphreys §3.15)."""
    space = perm_space(build_by_name(name))
    group = walk(space.ident, lambda w: enumerate(space.mul(gt, w) for gt, _ in space.generators))
    lengths = [len(space.reduced_word(w)) for w in group]
    assert [lengths.count(k) for k in range(max(lengths) + 1)] == poincare_coefficients(degrees)


@pytest.mark.parametrize("name, positive_roots", [("D4", 12), ("E8", 120)])
def test_longest_element_is_minus_one_of_length_n_plus(name, positive_roots):
    s = build_by_name(name)
    space = perm_space(s)
    w0 = space.perm_of_matrix(tuple(tuple(-x for x in row) for row in identity(s.dim)))
    assert len(space.reduced_word(w0)) == positive_roots == len(s.roots) // 2


def test_reduced_word_refuses_a_root_permutation_outside_w():
    """-1 permutes the roots of A2 (root i to root n - 1 - i) but is not in W."""
    space = perm_space(build_by_name("A2"))
    minus_one = bytes(reversed(range(space.n)))
    with pytest.raises(ValueError, match="not in its Weyl group"):
        space.reduced_word(minus_one)
    with pytest.raises(ValueError, match="not in its Weyl group"):
        space.matrix_of_perm(minus_one)


def test_reduced_word_ends_on_a_map_that_always_has_a_descent():
    """Every root to one negative root: each step keeps every simple root
    negative, so only the bound of N+ steps ends the descent."""
    s = build_by_name("A3")
    space = perm_space(s)
    negative = s.positive.index(False)
    with pytest.raises(ValueError, match="not in its Weyl group"):
        space.reduced_word(bytes([negative] * space.n))


def orthogonal_tuple(system, data):
    """Draw an ordered tuple of 1 to 4 mutually orthogonal roots, each of
    either sign, as positions in ``system.roots``; fewer when no root is
    orthogonal to those drawn."""
    ints = system.int_roots
    idx = []
    for _ in range(data.draw(st.integers(1, 4))):
        free = [i for i, r in enumerate(ints) if all(idot(r, ints[j]) == 0 for j in idx)]
        if not free:
            break
        idx.append(data.draw(st.sampled_from(free)))
    return idx


@pytest.mark.parametrize("name", ["A4", "B4", "C4", "D5", "E6", "F4", "G2"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_dominant_chain_is_a_canonical_form_of_orthogonal_tuples(name, data):
    """The chain of a tuple t is the chain of every g·t (g a word of simple
    reflections), lies in the W-orbit of t up to signs, and is its own
    chain.  Its members are positive, mutually orthogonal, and each
    J-dominant: <r, a_j> >= 0 for the simple roots a_j orthogonal to every
    member before r."""
    s = build_by_name(name)
    space = perm_space(s)
    gens = [g for _, g in space.generators]
    t = orthogonal_tuple(s, data)
    chain = space.dominant_chain(t)
    moved = t
    for j in data.draw(st.lists(st.integers(0, s.rank - 1), max_size=30)):
        moved = [gens[j][i] for i in moved]
    assert space.dominant_chain(moved) == chain
    assert space.dominant_chain(chain) == chain

    def up_to_sign(u):
        return tuple(i if s.positive[i] else space.n - 1 - i for i in u)

    orbit = walk(up_to_sign(t), lambda u: enumerate(up_to_sign(g[i] for i in u) for g in gens))
    assert chain in orbit
    ints = s.int_roots
    simple = [ints[s.index(a)] for a in s.simple_roots]
    for m, r in enumerate(chain):
        assert s.positive[r]
        assert all(idot(ints[r], ints[b]) == 0 for b in chain[:m])
        assert all(idot(ints[r], a) >= 0 for a in simple
                   if all(idot(a, ints[b]) == 0 for b in chain[:m]))


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "F4", "E8", "D12"])
def test_dominant_chain_of_one_root_is_the_dominant_root_of_its_length(name):
    s = build_by_name(name)
    space = perm_space(s)
    for i, r in enumerate(s.roots):
        (top,) = space.dominant_chain([i])
        assert s.roots[top] == s.dominant_root(s.is_long(r))


def _steps_mod_12(n):
    """Moves of a walk on Z/12: add one, then double."""
    return enumerate(((n + 1) % 12, 2 * n % 12))


def test_walk_lists_parents_before_children_in_breadth_first_order():
    parent = walk(1, _steps_mod_12)
    assert set(parent) == set(range(12))
    order = list(parent)
    depth = {1: 0}
    for node, link in parent.items():
        if link is not None:
            prev, label = link
            assert order.index(prev) < order.index(node)
            assert dict(_steps_mod_12(prev))[label] == node
            depth[node] = depth[prev] + 1
    assert [depth[n] for n in order] == sorted(depth[n] for n in order)


def test_walk_ends_at_stop_and_past_cap():
    full = walk(1, _steps_mod_12)
    stopped = walk(1, _steps_mod_12, stop=7)
    assert list(stopped)[-1] == 7
    assert list(stopped) == list(full)[:len(stopped)] and len(stopped) < len(full)
    assert walk(1, _steps_mod_12, cap=12) == full
    assert walk(1, _steps_mod_12, cap=11) is None
