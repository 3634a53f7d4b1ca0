"""Exact linear algebra and polynomial arithmetic."""

import re
import pytest
from decimal import Decimal
from fractions import Fraction as Q

from weylcalc.exactla import (
    charpoly,
    count_real_roots_in_interval,
    cyclotomic,
    cyclotomic_factors,
    dot,
    gram_positive_definite,
    identity,
    is_product_of_cyclotomics,
    mat,
    mat_mul,
    mat_pow,
    poly_degree,
    poly_derivative,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_str,
    poly_trim,
    real_root_in_interval,
    solve,
    sturm_sequence,
    vec_add,
    vec_sub,
)
from weylcalc import diagram as dg
from weylcalc.rootsys import build_by_name, doubled, format_vector
from weylcalc.weyl import perm_space


def test_vector_arithmetic():
    x = (Q(1), Q(2), Q(3))
    y = (Q(4), Q(5), Q(6))
    assert vec_add(x, y) == (5, 7, 9)
    assert vec_sub(y, x) == (3, 3, 3)
    assert dot(x, y) == 32


def test_matrix_products():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert mat_mul(a, b) == ((2, 1), (4, 3))
    assert mat_mul(a, identity(2)) == a
    assert mat_pow(b, 2) == identity(2)
    assert mat_pow(a, 0) == identity(2)


A2_DIAGRAM = dg.make_diagram(2, [(0, 1, dg.SOLID)])
INEXACT_ENTRY_CALLS = {
    "charpoly": lambda e: charpoly(((e, 0), (0, 1))),
    "solve": lambda e: solve(((1, 0), (0, 1)), (e, 0)),
    "gram_positive_definite": lambda e: gram_positive_definite(((e,),)),
    "perm_of_matrix": lambda e: perm_space(build_by_name("A2")).perm_of_matrix(
        ((e, 0, 0), (0, 1, 0), (0, 0, 1))),
    "mat": lambda e: mat([[e]]),
    "poly_trim": lambda e: poly_trim((e, 1)),
    "poly_eval at": lambda e: poly_eval((Q(1), Q(1)), e),
    "poly_eval of": lambda e: poly_eval((e, Q(1)), Q(1)),
    "count_real_roots_in_interval": lambda e: count_real_roots_in_interval(
        (Q(-3, 10), Q(1)), Q(1, 10), e),
    "real_root_in_interval": lambda e: real_root_in_interval((Q(-3, 10), Q(1)), e, Q(1)),
    "int_gram": lambda e: dg.int_gram(A2_DIAGRAM, e),
    "gram": lambda e: dg.gram(A2_DIAGRAM, e),
    "bicolored_charpoly": lambda e: dg.bicolored_charpoly(A2_DIAGRAM, e),
    "tits_value": lambda e: dg.tits_value(A2_DIAGRAM, [e, 1]),
}


@pytest.mark.parametrize("entry", [1.0, "1"])
@pytest.mark.parametrize("call", INEXACT_ENTRY_CALLS)
def test_an_entry_that_is_not_exact_is_refused(call, entry):
    """Every integer scaling (``integer_matrix``) and every other public
    function that reads a number as a Fraction takes ints and Fractions
    only, by ``exactla.denominator``: read with ``Fraction(e)``, a float
    such as 0.3 (below 3/10) would give a plausible wrong answer, and a
    string would be parsed."""
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        INEXACT_ENTRY_CALLS[call](entry)


D4 = build_by_name("D4")
COORDINATE_READERS = {
    "doubled": doubled,
    "format_vector": format_vector,
    "format_root": lambda v: D4.format_root(v),
    "normalized_inner": lambda v: D4.normalized_inner(v, D4.simple_roots[0]),
    "is_long": lambda v: D4.is_long(v),
    "simple_coefficients": lambda v: D4.simple_coefficients(v),
    "mat": lambda v: mat([v]),
    "tits_value": lambda v: dg.tits_value(dg.make_diagram(4, []), v),
}


@pytest.mark.parametrize("entry", [0.5, "1/2", Decimal("0.5")], ids=repr)
@pytest.mark.parametrize("reader", COORDINATE_READERS)
def test_every_coordinate_reader_refuses_an_inexact_entry_alike(reader, entry):
    """One rule, one message: each reader of a vector's coordinates leaves
    the exactness check to ``denominator``."""
    with pytest.raises(ValueError, match=re.escape(f"entry {entry!r} is not an int or a Fraction")):
        COORDINATE_READERS[reader]((entry, 0, 0, 0))


def test_charpoly_is_monic_ascending():
    """charpoly returns det(xI - A), coefficients in ascending degree."""
    assert charpoly(identity(3)) == (-1, 3, -3, 1)
    d = mat([[2, 0], [0, 5]])
    assert charpoly(d) == (10, -7, 1)
    # companion matrix of x^2 + x + 1 (a rotation by a third of a turn)
    c = mat([[0, -1], [1, -1]])
    assert charpoly(c) == (1, 1, 1)


def test_charpoly_multiplicative_on_block_diagonal():
    a = mat([[0, -1, 0], [1, -1, 0], [0, 0, 7]])
    assert charpoly(a) == poly_mul((Q(1), Q(1), Q(1)), (Q(-7), Q(1)))


def test_solve():
    a = mat([[2, 0], [0, 3]])
    assert solve(a, (Q(4), Q(9))) == (2, 3)
    singular = mat([[1, 1], [1, 1]])
    assert solve(singular, (Q(1), Q(2))) is None


@pytest.mark.parametrize("a", [((1, 2, 3), (4, 5, 6)), ((1, 2), (3,))],
                         ids=["non-square", "ragged"])
def test_charpoly_refuses_a_matrix_that_is_not_square(a):
    with pytest.raises(ValueError, match="square"):
        charpoly(a)


@pytest.mark.parametrize("a, b", [(((1, 0), (0, 1)), (1,)),
                                  (((1, 0), (0, 1), (1, 1)), (1, 2)),
                                  (((1, 0), (0,)), (1, 2)),
                                  (((1,), (0, 1)), (1, 2)),
                                  ((), ())],
                         ids=["short-b", "long-a", "ragged-a", "ragged-first-row", "no-rows"])
def test_solve_refuses_mismatched_shapes(a, b):
    with pytest.raises(ValueError, match="one entry of b per row"):
        solve(a, b)


def test_gram_positive_definite():
    assert gram_positive_definite(identity(3))
    assert gram_positive_definite(mat([[1, Q(-1, 2)], [Q(-1, 2), 1]]))
    assert not gram_positive_definite(mat([[1, 2], [2, 1]]))
    # singular but non-negative: the nil-root Gram of a solid triangle
    g = mat([[1, Q(-1, 2), Q(-1, 2)],
             [Q(-1, 2), 1, Q(-1, 2)],
             [Q(-1, 2), Q(-1, 2), 1]])
    assert not gram_positive_definite(g)
    # Only the lower triangle is read: rows may stop at the diagonal.
    assert not gram_positive_definite([row[:k + 1] for k, row in enumerate(g)])
    assert gram_positive_definite(((1,), (Q(-1, 2), 1)))


@pytest.mark.parametrize("g", [((1,), ()), ((),), ((1, 0), (0,), (0, 0, 1))],
                         ids=["second-row-empty", "first-row-empty", "middle-row-short"])
def test_gram_positive_definite_refuses_a_row_short_of_its_diagonal(g):
    with pytest.raises(ValueError, match="reach its diagonal"):
        gram_positive_definite(g)


def test_poly_basics():
    p = (Q(-1), Q(0), Q(1))  # t^2 - 1, constant term first
    q = (Q(1), Q(1))         # t + 1
    assert poly_mul(p, q) == (-1, -1, 1, 1)
    quo, rem = poly_divmod(p, q)
    assert quo == (-1, 1) and rem == (0,)
    assert poly_degree(p) == 2
    assert poly_trim((Q(1), Q(2), Q(0), Q(0))) == (1, 2)
    assert poly_eval(p, Q(3)) == 8
    assert poly_gcd(poly_mul(p, q), q) == q
    with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
        poly_divmod(p, (Q(0), Q(0)))
    assert poly_derivative(p) == (0, 2)
    assert poly_derivative((Q(7),)) == (0,)


def test_poly_str():
    assert poly_str((Q(1), Q(-1), Q(1)), "t") == "t^2 - t + 1"
    assert poly_str((Q(1), Q(0), Q(2), Q(0), Q(1))) == "x^4 + 2*x^2 + 1"
    assert poly_str((Q(1), Q(1), Q(0), Q(1), Q(1)), "t") == "t^4 + t^3 + t + 1"
    assert poly_str((Q(5),)) == "5"
    assert poly_str((Q(0), Q(0)), "t") == "0"


def test_cyclotomic_values():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)
    assert poly_degree(cyclotomic(15)) == 8
    assert cyclotomic(15) == (1, -1, 0, 1, -1, 1, 0, -1, 1)
    with pytest.raises(ValueError, match="n must be positive"):
        cyclotomic(0)


def test_cyclotomic_product_is_t_power_minus_one():
    """The product of the d-th cyclotomics over divisors d of n is t^n - 1."""
    for n in (1, 2, 6, 12):
        prod = (Q(1),)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = poly_mul(prod, cyclotomic(d))
        assert prod == (Q(-1),) + (Q(0),) * (n - 1) + (Q(1),)


def test_cyclotomic_recognition():
    squared = poly_mul((Q(1), Q(0), Q(1)), (Q(1), Q(0), Q(1)))
    assert squared == (1, 0, 2, 0, 1)
    assert is_product_of_cyclotomics(squared)
    assert sorted(cyclotomic_factors(squared)) == [4, 4]
    assert sorted(cyclotomic_factors((Q(1), Q(0), Q(0), Q(1)))) == [2, 6]
    # x^4 - 4x^3 - x^2 - 4x + 1 has a real root near 4.42, so it cannot
    # be a product of cyclotomics
    p = (Q(1), Q(-4), Q(-1), Q(-4), Q(1))
    assert not is_product_of_cyclotomics(p)
    assert cyclotomic_factors(p) is None
    assert cyclotomic_factors((Q(1), Q(0), Q(2))) is None  # 2t^2 + 1 is not monic


def ref_divide(p, q):
    """Exact quotient of ``p`` by ``q`` in ``Fraction`` arithmetic, for a
    ``q`` that divides ``p``."""
    p, quot = [Q(c) for c in p], [Q(0)] * (len(p) - len(q) + 1)
    for shift in range(len(quot) - 1, -1, -1):
        quot[shift] = p[shift + len(q) - 1] / q[-1]
        for i, c in enumerate(q):
            p[shift + i] -= quot[shift] * c
    assert not any(p)
    return tuple(quot)


def ref_cyclotomic(n):
    """Phi_n as prod (x^d - 1)^mu(n/d) over the divisors d of n, Moebius
    inversion of x^n - 1 = prod Phi_d, in ``Fraction`` arithmetic."""
    def mu(m):
        primes = [p for p in range(2, m + 1) if m % p == 0
                  and all(p % q for q in range(2, p))]
        return 0 if any(m % (p * p) == 0 for p in primes) else (-1) ** len(primes)
    num, den = (Q(1),), (Q(1),)
    for d in range(1, n + 1):
        if n % d == 0 and mu(n // d):
            factor = (Q(-1),) + (Q(0),) * (d - 1) + (Q(1),)
            if mu(n // d) > 0:
                num = poly_mul(num, factor)
            else:
                den = poly_mul(den, factor)
    return ref_divide(num, den)


def test_cyclotomic_has_int_coefficients():
    for n in range(1, 61):
        got = cyclotomic(n)
        assert got == ref_cyclotomic(n), n
        assert all(type(c) is int for c in got), n


INT_POLYS = [
    (-3, 0, 1),                       # x^2 - 3: the leading 1 of a non-monic gcd
    (2, -3, 1),                       # (x - 1)(x - 2)
    (-6, 11, -6, 1),                  # (x - 1)(x - 2)(x - 3)
    (1, 2, 1),                        # a double root at -1
    (4, 0, -5, 0, 1),                 # (x^2 - 1)(x^2 - 4)
    (3, 1, 2),                        # no real root, not monic
    (1, 0, 2, 0, 1),                  # Phi_4^2
    (1, -1, 0, 1, -1, 1, 0, -1, 1),   # Phi_15
    (1, 0, 0, 1),                     # Phi_2 Phi_6
]


def no_float(value):
    """True when no float sits anywhere in a nest of tuples and lists."""
    if isinstance(value, (tuple, list)):
        return all(map(no_float, value))
    return not isinstance(value, float)


@pytest.mark.parametrize("p", INT_POLYS, ids=str)
def test_int_coefficients_give_the_fraction_answers(p):
    """Each helper answers int-coefficient input as it answers the same
    polynomial in ``Fraction``s, and no float comes out: a monic divisor
    divides by its leading 1, and any other division is a ``Fraction``."""
    f = tuple(map(Q, p))
    q = (-2, 1, 2)  # not monic, so the quotient has halves
    for compute in (
        lambda p: poly_divmod(p, q),
        lambda p: poly_divmod(p, (1, 1)),
        lambda p: poly_gcd(p, poly_derivative(p)),
        lambda p: poly_gcd(p, (-1, 0, 1)),
        sturm_sequence,
        lambda p: [count_real_roots_in_interval(p, lo, hi)
                   for lo, hi in ((0, 2), (-3, 0), (-2, 4), (Q(1, 2), 3))],
        cyclotomic_factors,
        lambda p: poly_mul(p, p),
    ):
        got = compute(p)
        assert got == compute(f)
        assert no_float(got)


def test_real_root_counting():
    p = poly_mul(poly_mul((Q(-1), Q(1)), (Q(-2), Q(1))), (Q(-3), Q(1)))
    assert count_real_roots_in_interval(p, Q(0), Q(4)) == 3
    assert count_real_roots_in_interval(p, Q(3, 2), Q(4)) == 2
    assert count_real_roots_in_interval(p, Q(4), Q(4)) == 0
    assert count_real_roots_in_interval(p, Q(4), Q(0)) == 0  # lo >= hi: empty
    assert count_real_roots_in_interval((Q(-3, 10), Q(1)), Q(1, 10), Q(3, 10)) == 1
    two = (Q(-2), Q(0), Q(1))
    assert real_root_in_interval(two, Q(7, 5), Q(3, 2))
    assert not real_root_in_interval(two, Q(0), Q(1))
