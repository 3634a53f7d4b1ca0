"""The integer lattice kernel against plain Fraction references.

Roots, Gram matrices, word matrices and positive-definiteness checks run
on doubled-integer coordinates inside the package, ``solve`` runs a
fraction-free echelon form and linear independence is decided by
leading minors.  Each property here recomputes the same object the
textbook way, in ``Fraction`` arithmetic, with reference code kept in
this file, and demands exact equality.  The last property checks that
no float ever crosses the API.
"""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from weylcalc import diagram as dg
from weylcalc import exactla, rewrite
from weylcalc.exactla import (
    LeadingMinors,
    charpoly,
    gram_positive_definite,
    solve,
)
from weylcalc.rootsys import build_by_name, doubled
from weylcalc.weyl import (
    evaluate,
    int_word_matrix_from_gram,
    perm_space,
    word_matrix,
    word_matrix_from_gram,
)

SMALL = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
         "D3", "D4", "D5", "E6", "F4", "G2")
WORD_SYSTEMS = ("A4", "B3", "C4", "D5", "E6", "F4", "G2")
#: Every family, with the half-integer roots of E6-E8 and the length
#: ratios 2 (B, C, F4) and 3 (G2).
EVERY_FAMILY = ("A1", "A5", "B2", "B5", "C3", "C6", "D4", "D7", "D12",
                "E6", "E7", "E8", "F4", "G2")


# ---------------------------------------------------------------------------
# Fraction references


def ref_dot(x, y):
    return sum((Q(a) * Q(b) for a, b in zip(x, y)), Q(0))


def ref_reflect(r, v):
    c = 2 * ref_dot(v, r) / ref_dot(r, r)
    return tuple(a - c * b for a, b in zip(v, r))


def ref_closure(simple):
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for v in frontier:
            for s in simple:
                image = ref_reflect(s, v)
                if image not in roots:
                    roots.add(image)
                    nxt.append(image)
        frontier = nxt
    return tuple(sorted(roots))


def ref_rank(rows):
    work = [[Q(x) for x in row] for row in rows]
    r = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            f = work[i][col] / work[r][col]
            work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


def ref_det(m):
    work = [[Q(x) for x in row] for row in m]
    n = len(work)
    out = Q(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if work[i][k] != 0), None)
        if pivot is None:
            return Q(0)
        if pivot != k:
            work[k], work[pivot] = work[pivot], work[k]
            out = -out
        out *= work[k][k]
        for i in range(k + 1, n):
            f = work[i][k] / work[k][k]
            work[i] = [a - f * b for a, b in zip(work[i], work[k])]
    return out


def ref_solve(a, b):
    """Gauss-Jordan on the augmented matrix; free variables 0, None when
    the system is inconsistent."""
    nrows, ncols = len(a), len(a[0])
    aug = [[Q(x) for x in row] + [Q(c)] for row, c in zip(a, b)]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, nrows) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        p = aug[r][col]
        aug[r] = [x / p for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
    if any(aug[i][ncols] != 0 for i in range(len(pivots), nrows)):
        return None
    x = [Q(0)] * ncols
    for i, col in enumerate(pivots):
        x[col] = aug[i][ncols]
    return tuple(x)


def ref_positive_definite(g):
    return all(ref_det([row[:k] for row in g[:k]]) > 0 for k in range(1, len(g) + 1))


def ref_word_matrix(word):
    return ref_word_matrix_from_gram([[ref_dot(a, b) for b in word] for a in word],
                                     range(len(word)))


def ref_word_matrix_from_gram(g, order):
    n = len(g)
    work = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    for i in order:
        w = [-2 * Q(g[q][i]) / g[i][i] for q in range(n)]
        for row in work:
            api = row[i]
            for q in range(n):
                row[q] += api * w[q]
    return tuple(tuple(row) for row in work)


def ref_charpoly(m):
    """Faddeev-LeVerrier in Fractions, ascending coefficients."""
    n = len(m)
    coeffs = [Q(0)] * n + [Q(1)]
    acc = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        acc = [[sum((m[i][t] * acc[t][j] for t in range(n)), Q(0)) for j in range(n)]
               for i in range(n)]
        c = -sum(acc[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        for i in range(n):
            acc[i][i] += c
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# strategies


@st.composite
def independent_words(draw, systems=WORD_SYSTEMS):
    """A system and a list of linearly independent roots of it."""
    system = build_by_name(draw(st.sampled_from(systems)))
    picks = draw(st.lists(st.integers(0, len(system.roots) - 1),
                          min_size=1, max_size=system.rank))
    word = []
    for i in picks:
        root = system.roots[i]
        if ref_rank(word + [root]) == len(word) + 1:
            word.append(root)
    return system, tuple(word)


#: Small rationals; st.fractions is ten times slower to draw from.
ENTRIES = st.builds(Q, st.integers(-9, 9), st.sampled_from((1, 2, 3)))


@st.composite
def matrices(draw):
    """A small rational matrix, often rank-deficient: the product of an
    m x k and a k x n factor, k drawn from 0 to max(m, n).  Integral
    entries are sometimes plain ints (int / int would be a float)."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, max(m, n)))
    left = [[draw(ENTRIES) for _ in range(k)] for _ in range(m)]
    right = [[draw(ENTRIES) for _ in range(n)] for _ in range(k)]
    a = [[ref_dot(row, col) for col in zip(*right)] if k else [Q(0)] * n
         for row in left]
    if draw(st.booleans()):
        a = [[int(x) if x.denominator == 1 else x for x in row] for row in a]
    return tuple(tuple(row) for row in a)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=len(SMALL) * 2, deadline=None)
@given(st.sampled_from(SMALL))
def test_closure_matches_fraction_closure(name):
    system = build_by_name(name)
    assert system.roots == ref_closure(system.simple_roots)
    assert all(doubled(r) == l for r, l in zip(system.roots, system.int_roots))
    assert system.short_norm == min(ref_dot(r, r) for r in system.roots)
    assert system.long_norm == max(ref_dot(r, r) for r in system.roots)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL), st.data())
def test_reflect_and_inner_match_fraction_formulas(name, data):
    system = build_by_name(name)
    n = len(system.roots)
    r = system.roots[data.draw(st.integers(0, n - 1))]
    v = system.roots[data.draw(st.integers(0, n - 1))]
    space = perm_space(system)
    assert system.roots[space.reflection_perm(r)[system.index(v)]] == ref_reflect(r, v)
    assert system.normalized_inner(r, v) == ref_dot(r, v) / system.short_norm
    assert system.is_long(r) == (
        ref_dot(r, r) == system.long_norm != system.short_norm)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL), st.data())
def test_int_gram_is_four_times_the_fraction_gram(name, data):
    system = build_by_name(name)
    roots = data.draw(st.lists(st.sampled_from(system.roots), max_size=8))
    assert system.int_gram(roots) == [[4 * ref_dot(a, b) for b in roots] for a in roots]


def ref_evaluate(word, dim):
    """The word's ambient matrix, column by column: each basis vector
    reflected by the word's letters, rightmost first."""
    columns = []
    for j in range(dim):
        v = tuple(Q(int(i == j)) for i in range(dim))
        for r in reversed(word):
            v = ref_reflect(r, v)
        columns.append(v)
    return tuple(zip(*columns))


@pytest.mark.parametrize("name", EVERY_FAMILY)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_evaluate_matches_the_fraction_reflection_product(name, data):
    system = build_by_name(name)
    word = data.draw(st.lists(st.sampled_from(system.roots), max_size=20))
    assert evaluate(system, word) == ref_evaluate(word, system.dim)


@settings(max_examples=80, deadline=None)
@given(independent_words())
def test_word_matrix_and_charpoly_match_fraction_formula(case):
    system, word = case
    reference = ref_word_matrix(word)
    assert word_matrix(system, word) == reference
    assert rewrite.word_charpoly(system, word) == ref_charpoly(reference)


@st.composite
def symmetric_forms(draw):
    """A small symmetric rational matrix with nonzero diagonal and a word
    order over its basis: most Cartan numbers are not integers."""
    n = draw(st.integers(1, 4))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    g = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = draw(entry.filter(bool))
        for j in range(i):
            g[i][j] = g[j][i] = draw(entry)
    order = draw(st.lists(st.integers(0, n - 1), max_size=6))
    return g, order


@settings(max_examples=80, deadline=None)
@given(symmetric_forms())
def test_word_matrix_from_gram_matches_reference_on_any_form(case):
    g, order = case
    assert word_matrix_from_gram(g, order) == ref_word_matrix_from_gram(g, order)


@st.composite
def bipartite_diagrams(draw):
    """A diagram on at most 10 vertices with random long vertices whose
    edges, each solid or dotted at random, all cross one random cut."""
    n = draw(st.integers(0, 10))
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    longs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    edges = [(i, j, draw(st.sampled_from((dg.SOLID, dg.DOTTED))))
             for i in range(n) for j in range(i + 1, n)
             if side[i] != side[j] and draw(st.booleans())]
    return dg.make_diagram(n, edges, longs=longs)


def ref_bicolored_charpoly(d, t):
    """The Faddeev-LeVerrier charpoly of the Fraction matrix of the
    bicolored word."""
    return ref_charpoly(ref_word_matrix_from_gram(dg.int_gram(d, t)[0],
                                                  dg.bicolored_word_order(d)))


_EDGELESS = dg.make_diagram(3, [], longs=(False, True, False))
_STAR = dg.make_diagram(4, [(0, 1, dg.SOLID), (0, 2, dg.DOTTED), (0, 3, dg.SOLID)],
                        longs=(True, False, False, False))


@settings(max_examples=150, deadline=None)
@given(bipartite_diagrams(), st.sampled_from((Q(1), Q(2), Q(3), Q(5, 3))))
@example(dg.make_diagram(0, []), Q(1))
@example(_EDGELESS, Q(2))                   # one part empty
@example(_STAR, Q(5, 3))                    # parts of sizes 1 and 3
@example(dg.make_diagram(4, [(0, 1, dg.DOTTED), (0, 2, dg.DOTTED), (0, 3, dg.SOLID)],
                         longs=(True, False, False, False)), Q(3))  # _STAR, vertex 1 negated
def test_bicolored_charpoly_matches_dense_word_matrix(d, t):
    """The bicolored charpoly equals the reference charpoly of the
    bicolored word's matrix, and hands out Fractions only."""
    got = dg.bicolored_charpoly(d, t)
    assert got == ref_bicolored_charpoly(d, t)
    assert len(got) == d.n + 1 and all(type(c) is Q for c in got)


@st.composite
def square_matrices(draw):
    """A rational n x n matrix, n <= 12, about half its entries zero.  The
    numerators reach 2**4, 2**60 or 2**200, and most pivots leave the
    integers: the reduction then runs over fractions."""
    n = draw(st.integers(0, 12))
    bits = draw(st.sampled_from((4, 60, 200)))
    entry = st.one_of(st.just(Q(0)), st.builds(
        Q, st.integers(-2 ** bits, 2 ** bits), st.sampled_from((1, 2, 3, 7))))
    return tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))


def _jordan_block(n):
    return tuple(tuple(int(j == i + 1) for j in range(n)) for i in range(n))


#: (matrix, det(x*I - matrix)) for the shapes the reduction treats apart.
FIXED_CHARPOLYS = [
    ((), (1,)),
    (((Q(-3, 2),),), (Q(3, 2), 1)),
    # one large entry, past 2**61
    (((-(3 << 59),),), (3 << 59, 1)),
    (((0,) * 4,) * 4, (0, 0, 0, 0, 1)),                       # zero
    (((1, 0, 0), (0, 2, 0), (0, 0, 3)), (-6, 11, -6, 1)),      # diagonal
    (_jordan_block(5), (0, 0, 0, 0, 0, 1)),                    # nilpotent
    (((0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
     (-1, 0, 0, 0, 1)),                                        # 4-cycle
    # Zero under the diagonal of column 0 but not below it: the pivot
    # search swaps rows and columns 1 and 2.
    (((1, 2, 3), (0, 4, 5), (6, 7, 8)), (15, -9, -13, 1)),
    # The same in column 1 after column 0 is cleared.
    (((1, 0, 2, 0), (1, 1, 0, 3), (0, 0, 1, 0), (0, 1, 0, 2)),
     (-1, -1, 6, -5, 1)),
]


@pytest.mark.parametrize("m, expected", FIXED_CHARPOLYS)
def test_charpoly_fixed_examples(m, expected):
    got = charpoly(m)
    assert got == tuple(Q(c) for c in expected) == ref_charpoly(m)
    assert all(type(c) is Q for c in got)


@settings(max_examples=80, deadline=None)
@given(square_matrices())
def test_charpoly_matches_faddeev_leverrier(m):
    """The Hessenberg reduction, over fractions wherever a pivot does not
    divide its column, against the Fraction Faddeev-LeVerrier reference,
    on any rational matrix."""
    assert charpoly(m) == ref_charpoly(m)


def test_charpoly_of_huge_entries_is_exact():
    """No coefficient bound limits the answer: entries of 2**19934 to
    2**19937 give their exact polynomials."""
    near = 2 ** 19934
    assert charpoly(((near,),)) == (-near, 1)
    assert charpoly(((2 * near,) * 2,) * 2) == (0, -4 * near, 1)
    assert charpoly(((2 ** 19937,),)) == (-2 ** 19937, 1)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_gauss_jordan(a, data):
    """solve's particular solution (free variables 0), or None exactly
    when ``a x = b`` is inconsistent."""
    if data.draw(st.booleans(), label="consistent"):
        x0 = [data.draw(ENTRIES) for _ in a[0]]
        b = tuple(ref_dot(row, x0) for row in a)
    else:
        b = tuple(data.draw(ENTRIES) for _ in a)
    x = solve(a, b)
    assert x == ref_solve(a, b)
    if x is not None:
        assert all(type(c) is Q for c in x)
        assert tuple(ref_dot(row, x) for row in a) == b


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(WORD_SYSTEMS), st.data())
def test_leading_minors_match_sylvester(name, data):
    """The incremental Bareiss test accepts a root exactly while the
    running Gram matrix of the roots stays positive definite: the proof of
    independence behind ``diagram.from_roots`` and ``gram_positive_definite``
    (which ``find_subsets`` applies once, to the target's own Gram matrix),
    and the per-candidate reference search in ``tests/test_oracle.py``."""
    system = build_by_name(name)
    reps = system.sign_class_reps()
    inner = system.int_gram(reps)
    m = len(reps)
    picks = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=system.rank + 1))
    minors = LeadingMinors()
    chosen = []
    for pos in picks:
        roots = [reps[p] for p in chosen + [pos]]
        gram = [[ref_dot(a, b) for b in roots] for a in roots]
        expected = ref_positive_definite(gram)
        assert gram_positive_definite(gram) == expected
        row = inner[pos]
        assert minors.push([row[p] for p in chosen], row[pos]) == expected
        if not expected:
            break
        chosen.append(pos)


@settings(max_examples=60, deadline=None)
@given(independent_words())
def test_no_float_crosses_the_api(case):
    system, word = case

    def fractions(values):
        return all(type(x) is Q for x in values)

    assert fractions(c for r in system.roots for c in r)
    assert fractions(c for r in system.simple_roots for c in r)
    assert fractions((system.short_norm, system.long_norm, system.ratio))
    space = perm_space(system)
    image = system.roots[space.reflection_perm(word[0])[system.index(word[-1])]]
    assert image == ref_reflect(word[0], word[-1]) and fractions(image)
    assert fractions([system.normalized_inner(word[0], word[-1])])
    matrix = word_matrix(system, word)
    assert fractions(x for row in matrix for x in row)
    assert fractions(rewrite.word_charpoly(system, word))
    d = dg.from_roots(system, word)
    assert fractions(x for row in dg.gram(d, system.ratio) for x in row)
    if dg.is_admissible(d):
        assert fractions(dg.bicolored_charpoly(d, system.ratio))
    int_gram = [[2 * int(x) for x in row] for row in ((2, -1), (-1, 2))]
    assert fractions(x for row in word_matrix_from_gram(int_gram, (0, 1)) for x in row)
    assert fractions(charpoly(int_gram))
    assert fractions(solve(int_gram, (1, 0)))
    assert fractions(solve(((2,),), (4,)))
    assert fractions(system.simple_coefficients(word[0]))
    assert fractions(system.max_root())
    space = perm_space(system)
    assert fractions(x for row in space.matrix_of_perm(space.word_perm(word)) for x in row)


def test_integer_inputs_divide_exactly():
    """int / int would be a float: every kernel entry point takes ints."""
    g = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    assert charpoly(g) == (-4, 10, -6, 1)
    assert gram_positive_definite(g)
    assert not gram_positive_definite(((2, 3), (3, 2)))


# ---------------------------------------------------------------------------
# The word's charpoly certifies the word; the Hessenberg reduction on the
# integers; Gram matrices from coordinate columns.

CERTIFY_SYSTEMS = ("A5", "B4", "C4", "D6", "D10", "E6", "E7", "E8", "F4", "G2")


@st.composite
def root_words(draw, systems=CERTIFY_SYSTEMS):
    """A system and up to rank + 1 of its roots, repeats allowed: dependent
    words are common."""
    system = build_by_name(draw(st.sampled_from(systems)))
    word = draw(st.lists(st.sampled_from(system.roots), min_size=1,
                         max_size=system.rank + 1))
    return system, tuple(word)


@settings(max_examples=200, deadline=None)
@given(root_words())
def test_word_charpoly_certifies_its_own_word(case):
    """p(1) of the word matrix's charpoly is the determinant of the word's
    Cartan matrix: nonzero exactly when ``independent_gram`` proves the
    roots independent, and a dependent word gets that proof's message."""
    system, word = case
    k = len(word)
    gram = system.int_gram(word)
    p = charpoly(word_matrix_from_gram(gram, range(k)))
    cartan = [[Q(2 * gram[i][j], gram[j][j]) for j in range(k)] for i in range(k)]
    assert sum(p) == ref_det(cartan)
    try:
        system.independent_gram([system.index(r) for r in word])
    except ValueError as exc:
        assert sum(p) == 0
        with pytest.raises(ValueError) as refused:
            rewrite.word_charpoly(system, word)
        assert str(refused.value) == str(exc)
    else:
        assert sum(p) != 0
        assert rewrite.word_charpoly(system, word) == p


# The signed cycle type: in A-D the word's product is a signed permutation
# of the coordinates, and both proofs of a word read it.

CLASSICAL = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
             + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 17)])


def minors_message(system, word):
    """The leading minors' refusal of a word, read off its Gram matrix
    here, or None when every minor is positive."""
    gram, minors = system.int_gram(word), LeadingMinors()
    for j, row in enumerate(gram):
        if not minors.push(row[:j], row[j]):
            return (f"the roots are linearly dependent: {system.format_root(word[j])} "
                    f"depends on the roots before it")
    return None


def ambient_charpoly(cycle_type):
    """prod (t^m - sigma) over the cycles of a signed cycle type."""
    positive, negative = cycle_type
    p = (Q(1),)
    for m, sign in [(m, 1) for m in positive] + [(m, -1) for m in negative]:
        p = exactla.poly_mul(p, (Q(-sign),) + (Q(0),) * (m - 1) + (Q(1),))
    return p


@settings(max_examples=300, deadline=None)
@given(root_words(CLASSICAL))
def test_both_proofs_read_the_signed_cycle_type(case):
    """In A-D, ``word_charpoly`` and ``independent_gram`` answer as the
    matrix route does: the charpoly of the word matrix on the Gram matrix
    for an independent word, the leading minors' message for a dependent
    one; and the signed cycle type's prod (t^m - sigma) is the ambient
    charpoly of the word's product."""
    system, word = case
    idx = [system.index(r) for r in word]
    cycle_type = system.signed_cycle_type(idx)
    assert ambient_charpoly(cycle_type) == charpoly(evaluate(system, word))
    assert sum(map(sum, cycle_type)) == system.dim
    message = minors_message(system, word)
    if message is None:
        gram = system.int_gram(word)
        expected = charpoly(int_word_matrix_from_gram(gram, range(len(gram))))
        got = rewrite.word_charpoly(system, word)
        assert got == expected and all(type(c) is Q for c in got)
        assert system.independent_gram(idx) == gram
        assert len(cycle_type[0]) == system.dim - len(word)
    else:
        for prove in (lambda: rewrite.word_charpoly(system, word),
                      lambda: system.independent_gram(idx)):
            with pytest.raises(ValueError) as refused:
                prove()
            assert str(refused.value) == message
        assert len(cycle_type[0]) > system.dim - len(word)


@pytest.mark.parametrize("name", ["E6", "E7", "E8", "F4", "G2"])
def test_no_signed_cycle_type_outside_a_to_d(name):
    system = build_by_name(name)
    with pytest.raises(ValueError, match="not a signed permutation group"):
        system.signed_cycle_type([0])


def fraction_multipliers(m):
    """``charpoly(m)`` and the number of ``Fraction`` multipliers its
    reduction took: one for each entry its column's pivot does not divide."""
    calls = []

    def counted(*args):
        if len(args) == 2:  # Q(x, pivot); Q(c) hands a coefficient out
            calls.append(args)
        return Q(*args)

    exactla.Q = counted
    try:
        got = charpoly(m)
    finally:
        exactla.Q = Q
    return got, len(calls)


@st.composite
def unit_pivot_matrices(draw):
    """The word matrix of an independent simply-laced word whose reduction
    stays on the integers (most of them do)."""
    system, word = draw(independent_words(("A5", "D5", "E6")))
    m = [list(row) for row in word_matrix(system, word)]
    assume(fraction_multipliers(m)[1] == 0)
    return m


@st.composite
def middle_non_unit_matrices(draw):
    """Column 0 has a pivot of 1 or -1 and every other entry is even, so
    the first column cleared after it has none."""
    n = draw(st.integers(4, 7))
    small, even = st.integers(-1, 1), st.sampled_from((-4, -2, 0, 2, 4))
    m = [[draw(small)] + [draw(even) for _ in range(n - 1)] for _ in range(n)]
    m[draw(st.integers(1, n - 1))][0] = draw(st.sampled_from((1, -1)))
    m[draw(st.integers(2, n - 1))][0] = draw(st.integers(1, 3))
    return m


@st.composite
def zero_column_matrices(draw):
    """Small integer entries, one column already zero below the subdiagonal."""
    n = draw(st.integers(3, 7))
    m = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    col = draw(st.integers(0, n - 3))
    for i in range(col + 2, n):
        m[i][col] = 0
    return m


def growing_matrix(n, a):
    """Ones on the super- and second subdiagonal, and ``a`` in row 2 of
    column 0: each column cleared on the integers makes the next one's
    entries grow, to 32 bits for n = 12, a = 9."""
    m = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        m[i][i + 1] = 1
    for i in range(n - 2):
        m[i + 2][i] = 1
    m[1][0], m[2][0] = 1, a
    return m


@settings(max_examples=60, deadline=None)
@given(st.one_of(unit_pivot_matrices(), middle_non_unit_matrices(), zero_column_matrices(),
                 st.builds(growing_matrix, st.integers(4, 12), st.integers(2, 9))))
def test_charpoly_on_the_integers_and_over_fractions_matches_the_reference(m):
    assert charpoly(m) == ref_charpoly(m)


#: (matrix, Fraction multipliers its reduction takes): one per entry below
#: a pivot that does not divide it.
REDUCTION_PATHS = [
    # the word matrices of D4(a1)'s README word and of E6's simple roots
    ([[1, 0, -1, -1], [0, 1, -1, 1], [1, 1, -1, 0], [1, -1, 0, -1]], 0),
    ([[0, 1, 0, 0, 0, -1], [0, 0, 1, 0, 0, -1], [1, 1, 0, 0, 0, -1],
      [0, 1, 1, 0, 0, -1], [0, 0, 0, 1, 0, -1], [0, 0, 0, 0, 1, -1]], 0),
    # no pivot of 1 or -1 in columns 1 and 2, all even, but 2 divides them
    ([[0, 2, 0, 2, 0], [1, 0, 2, 2, 4], [1, 2, 4, 0, 2], [0, 4, 2, 2, 0],
      [0, 2, 0, 4, 2]], 0),
    # already upper Hessenberg: nothing to clear
    ([[1, 2, 3, 4], [5, 6, 7, 8], [0, 9, 1, 2], [0, 0, 3, 4]], 0),
    # six columns on the integers, their entries growing to 32 bits; then
    # 18230 divides no entry below it, and four columns take 4 + 3 + 2 + 1
    (growing_matrix(12, 9), 10),
]


@pytest.mark.parametrize("m, fractions", REDUCTION_PATHS)
def test_charpoly_leaves_the_integers_only_at_a_column_without_a_unit_pivot(m, fractions):
    assert fraction_multipliers(m) == (ref_charpoly(m), fractions)


def test_every_catalog_charpoly_stays_on_the_integers(monkeypatch):
    """Each charpoly a cold catalog build makes, and each catalog word's
    own word matrix, reduces with no Fraction multiplier."""
    built = []
    monkeypatch.setattr(dg, "charpoly", lambda m: built.append(m) or charpoly(m))
    dg._catalog.cache_clear()
    try:
        dg._catalog()
    finally:
        dg._catalog.cache_clear()
    assert len(built) == 89  # 79 bicolored elements, 10 labelled words
    for name in dg.catalog_names():
        entry = dg.catalog(name)
        built.append(word_matrix(build_by_name(entry.system), entry.word))
    for m in built:
        assert fraction_multipliers(m)[1] == 0, m


BENCH_SYSTEMS = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
                 + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 17)]
                 + ["E6", "E7", "E8", "F4", "G2"])


def pairwise_gram(lattice):
    g = [[0] * len(lattice) for _ in lattice]
    for i, a in enumerate(lattice):
        for j in range(i + 1):
            g[i][j] = g[j][i] = sum(x * y for x, y in zip(a, lattice[j]))
    return g


@pytest.mark.parametrize("name", BENCH_SYSTEMS)
def test_int_gram_from_columns_matches_the_pairwise_products(name):
    system = build_by_name(name)
    rng = random.Random(name)
    for size in (1, 2, system.rank, system.rank + 3):
        idx = [rng.randrange(len(system.roots)) for _ in range(size)]
        expected = pairwise_gram([system.int_roots[i] for i in idx])
        assert system.int_gram([system.roots[i] for i in idx]) == expected
        if len(set(idx)) == size <= system.rank and gram_positive_definite(expected):
            assert system.independent_gram(idx) == expected
