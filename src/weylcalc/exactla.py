"""Exact linear algebra over the rationals.

Every number that crosses the package API is a ``fractions.Fraction``
(or a plain ``int``); no floats anywhere.  Vectors are tuples of
Fractions, matrices are tuples of row tuples, and polynomials are tuples
of coefficients in *ascending* degree order (``poly[i]`` is the
coefficient of ``x**i``).

Inside, a rational matrix is first scaled to integers by its common
denominator (:func:`integer_matrix`).  Elimination serves two ends:
:func:`solve`, by a row echelon form, and the leading minors
(:class:`LeadingMinors`, Bareiss), which decide positive definiteness
and so, for a Gram matrix, linear independence.  Both run
fraction-free, with exact integer division and never ``/`` between two
ints.

The characteristic polynomial (:func:`charpoly`) is exact in O(n^3)
operations.  Every coefficient of the integer matrix's charpoly is at
most ``B = (1 + R)**n`` in absolute value, ``R`` the largest absolute row
sum.  The matrix is reduced to upper Hessenberg form by similarity
modulo the first Mersenne prime ``p = 2**e - 1 > 2B`` with ``e`` from
:data:`MERSENNE_EXPONENTS` (61 up to 19937), and the symmetric residues
of the Hessenberg recurrence's coefficients are the integers themselves.
A bound past ``2**19937 - 1`` raises ValueError: the answer is then
absent, never wrong.
"""

from __future__ import annotations

import functools
from fractions import Fraction as Q
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Tuple

Vector = Tuple[Q, ...]
Matrix = Tuple[Tuple[Q, ...], ...]
Poly = Tuple[Q, ...]

ZERO = Q(0)
ONE = Q(1)


def vec_add(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x: Vector, y: Vector) -> Vector:
    return tuple(a - b for a, b in zip(x, y))


def dot(x: Vector, y: Vector) -> Q:
    return sum((a * b for a, b in zip(x, y)), ZERO)


def idot(x: Sequence[int], y: Sequence[int]) -> int:
    """Inner product of two integer vectors."""
    return sum(map(mul, x, y))


def mat(rows: Iterable[Iterable]) -> Matrix:
    return tuple(tuple(Q(e) for e in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Product ``a @ b`` (entries of ``b`` read column-wise)."""
    cols = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def mat_pow(a: Matrix, k: int) -> Matrix:
    result = identity(len(a))
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def integer_matrix(a: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """``(den * a, den)`` with ``den`` the least common denominator of the
    entries, so the scaled matrix is integral.  ValueError for an entry
    with no ``denominator``, a float or a string say: it is not an int or
    a ``Fraction``, and the answer would not be exact."""
    den = 1
    try:
        for row in a:
            for e in row:
                if e.denominator != 1:
                    den = lcm(den, e.denominator)
    except AttributeError:
        raise ValueError(f"entry {e!r} is not an int or a Fraction") from None
    return [[e.numerator * (den // e.denominator) for e in row] for row in a], den


#: Exponents ``e`` of the Mersenne primes ``2**e - 1`` that :func:`charpoly`
#: works modulo, ascending; the first one above twice the coefficient bound
#: is used.
MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217,
                      4253, 4423, 9689, 9941, 11213, 19937)


def charpoly(a: Matrix) -> Poly:
    """Characteristic polynomial ``det(x*I - a)``, monic, ascending order.

    ``a`` is scaled to an integer matrix ``A = den * a``
    (:func:`integer_matrix`).  With ``R`` the largest absolute row sum of
    ``A``, every eigenvalue has ``|lambda| <= R``, so the coefficient of
    ``x**j`` is at most ``C(n, j) * R**(n - j) <= B = (1 + R)**n`` in
    absolute value.  ``A`` is reduced by similarity to upper Hessenberg
    form modulo the first prime ``p > 2B`` of :data:`MERSENNE_EXPONENTS`
    (``2**61 - 1`` for every catalog word), the Hessenberg recurrence gives
    ``det(x*I - A) mod p`` in O(n^3), and each coefficient's symmetric
    residue in ``(-p/2, p/2)`` is the exact integer.  The result maps back
    exactly: the coefficient of ``x**k`` is divided by ``den**(n - k)``.

    Raises ValueError for a matrix that is not square, and when ``2B``
    exceeds the last table prime ``2**19937 - 1``.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("charpoly needs a square matrix")
    if n == 0:
        return (ONE,)
    h, den = integer_matrix(a)
    bound = (1 + max(sum(map(abs, row)) for row in h)) ** n
    p = next((p for p in ((1 << e) - 1 for e in MERSENNE_EXPONENTS)
              if p > 2 * bound), None)
    if p is None:
        raise ValueError(f"charpoly coefficient bound 2 * (1 + R)^n has "
                         f"{(2 * bound).bit_length()} bits, past the largest "
                         f"table prime 2^{MERSENNE_EXPONENTS[-1]} - 1")
    h = [[e % p for e in row] for row in h]
    # Similarity to upper Hessenberg form: clear column col below row m.
    for m in range(1, n - 1):
        col = m - 1
        if not any(h[i][col] for i in range(m + 1, n)):
            continue  # already zero below the subdiagonal
        piv = next(i for i in range(m, n) if h[i][col])
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for row in h:
                row[m], row[piv] = row[piv], row[m]
        prow = h[m][col:]
        inv = pow(prow[0], -1, p)
        us = [h[i][col] * inv % p for i in range(m + 1, n)]
        # Row i -= u_i * row m, then column m += u_i * column i: the inverse.
        for i, u in enumerate(us, m + 1):
            if u:
                h[i][col:] = [(x - u * y) % p for x, y in zip(h[i][col:], prow)]
        for row in h:
            row[m] = (row[m] + sum(map(mul, us, row[m + 1:]))) % p
    # polys[m] = det(x*I - H[:m, :m]), expanded along its last column.
    polys = [[1]]
    for m in range(1, n + 1):
        prev = polys[-1]
        c = h[m - 1][m - 1]
        new = [0] + prev
        for k, y in enumerate(prev):
            new[k] -= c * y
        sub = 1
        for i in range(1, m):
            sub = sub * h[m - i][m - i - 1] % p
            if not sub:
                break
            f = sub * h[m - i - 1][m - 1] % p
            if f:
                for k, y in enumerate(polys[m - i - 1]):
                    new[k] -= f * y
        polys.append([x % p for x in new])
    half = p >> 1
    return tuple(Q(c if c <= half else c - p, den ** (n - k))
                 for k, c in enumerate(polys[n]))


def solve(a: Matrix, b: Vector) -> Vector | None:
    """Solve ``a x = b``; None when the system is inconsistent.

    ``a`` may be rectangular; when solutions exist, the one with every
    free variable 0 is returned (unique in our uses: independent
    columns).  The augmented matrix is scaled to integers and brought to
    row echelon form fraction-free: a row below the pivot row becomes
    ``p*row - f*prow`` (``p`` the pivot) divided by the gcd of its
    entries, so rows stay primitive.  The echelon form is then
    back-substituted over Fractions.  ValueError when ``a`` has no rows,
    its rows differ in length or ``b`` does not have one entry per row.
    """
    if not a or len(b) != len(a) or any(len(row) != len(a[0]) for row in a):
        raise ValueError("solve needs rows, of one length, and one entry of b per row")
    ncols = len(a[0])
    work, _ = integer_matrix([list(row) + [c] for row, c in zip(a, b)])
    cols: list[int] = []  # cols[i]: the pivot column of row i
    for col in range(ncols + 1):
        r = len(cols)
        pivot = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        prow = work[r]
        p = prow[col]
        for i in range(r + 1, len(work)):
            f = work[i][col]
            if f != 0:
                row = [p * e - f * q for e, q in zip(work[i], prow)]
                g = gcd(*row)
                work[i] = [e // g for e in row] if g > 1 else row
        cols.append(col)
        if len(cols) == len(work):
            break
    if cols and cols[-1] == ncols:  # a pivot in b's column: 0 = nonzero
        return None
    x = [ZERO] * ncols
    for row, col in reversed(list(zip(work, cols))):
        tail = sum((row[j] * x[j] for j in range(col + 1, ncols)), ZERO)
        x[col] = (row[ncols] - tail) / row[col]
    return tuple(x)


class LeadingMinors:
    """Leading principal minors of a growing symmetric integer matrix.

    Fraction-free (Bareiss) elimination, one bordering row at a time:
    ``elim[j][i]`` is entry (j, i) of the matrix after i elimination
    steps, and ``minors[j]`` the leading minor of order j + 1.  Every
    division is exact.  By Sylvester's criterion the matrix stays positive
    definite exactly while each new minor is positive.
    """

    def __init__(self):
        self.elim: list[list[int]] = []
        self.minors: list[int] = []

    def push(self, col: Sequence[int], diag: int) -> bool:
        """Border the matrix with ``col`` (the new row's entries against the
        rows so far) and ``diag``.  Kept, and True, iff the new leading
        minor is positive."""
        k = len(self.minors)
        v = list(col) + [diag]
        prev = 1
        for i in range(k):
            piv, vi = self.minors[i], v[i]
            for j in range(i + 1, k):
                v[j] = (piv * v[j] - vi * self.elim[j][i]) // prev
            v[k] = (piv * v[k] - vi * vi) // prev
            prev = piv
        if v[k] <= 0:
            return False
        self.elim.append(v[:k])
        self.minors.append(v[k])
        return True


def gram_positive_definite(g: Matrix) -> bool:
    """Sylvester's criterion for a symmetric ``g``: all leading principal
    minors positive, on its integer scaling (a positive factor keeps
    every sign).  Only the lower triangle ``g[k][:k + 1]`` is read, so
    the rows may stop at the diagonal; ValueError for one that stops before."""
    work, _ = integer_matrix(g)
    if any(len(row) <= k for k, row in enumerate(work)):
        raise ValueError("gram_positive_definite needs every row to reach its diagonal")
    minors = LeadingMinors()
    return all(minors.push(row[:k], row[k]) for k, row in enumerate(work))


# ---------------------------------------------------------------------------
# polynomial helpers


def poly_trim(p: Sequence[Q]) -> Poly:
    coeffs = list(p)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(Q(c) for c in coeffs)


def poly_degree(p: Poly) -> int:
    p = poly_trim(p)
    return len(p) - 1


def poly_mul(p: Poly, q: Poly) -> Poly:
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_divmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    p = list(poly_trim(p))
    q = poly_trim(q)
    if q == (ZERO,):
        raise ZeroDivisionError("polynomial division by zero")
    quot = [ZERO] * max(1, len(p) - len(q) + 1)
    while len(p) >= len(q) and any(c != 0 for c in p):
        shift = len(p) - len(q)
        factor = p[-1] / q[-1]
        quot[shift] = factor
        for i, c in enumerate(q):
            p[shift + i] -= factor * c
        while len(p) > 1 and p[-1] == 0:
            p.pop()
    return poly_trim(quot), poly_trim(p)


def power_plus_one(m: int) -> Poly:
    """``x^m + 1``."""
    return (ONE,) + (ZERO,) * (m - 1) + (ONE,)


def poly_eval(p: Poly, x) -> Q:
    x = Q(x)
    acc = ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_derivative(p: Poly) -> Poly:
    if len(p) <= 1:
        return (ZERO,)
    return poly_trim(tuple(Q(i) * c for i, c in enumerate(p) if i >= 1))


def poly_gcd(p: Poly, q: Poly) -> Poly:
    a, b = poly_trim(p), poly_trim(q)
    while b != (ZERO,):
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a[-1] != 0:
        a = tuple(c / a[-1] for c in a)
    return a


def poly_str(p: Poly, var: str = "x") -> str:
    """Human form, highest degree first, e.g. ``x^4 + 2*x^2 + 1``."""
    p = poly_trim(p)
    if p == (ZERO,):
        return "0"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        if i == 0:
            term = str(abs(c))
        else:
            mag = abs(c)
            base = var if i == 1 else f"{var}^{i}"
            term = base if mag == 1 else f"{mag}*{base}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def sturm_sequence(p: Poly) -> list[Poly]:
    seq = [poly_trim(p), poly_derivative(p)]
    while seq[-1] != (ZERO,) and poly_degree(seq[-1]) > 0:
        _, r = poly_divmod(seq[-2], seq[-1])
        if r == (ZERO,):
            break
        seq.append(tuple(-c for c in r))
    return seq


def _sign_changes(seq: list[Poly], x: Q) -> int:
    signs = []
    for p in seq:
        v = poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots_in_interval(p: Poly, lo, hi) -> int:
    """Distinct real roots of ``p`` in the half-open interval (lo, hi]."""
    lo, hi = Q(lo), Q(hi)
    if lo >= hi:
        return 0
    square_free = poly_divmod(p, poly_gcd(p, poly_derivative(p)))[0]
    seq = sturm_sequence(square_free)
    return _sign_changes(seq, lo) - _sign_changes(seq, hi)


def real_root_in_interval(p: Poly, lo, hi) -> bool:
    return count_real_roots_in_interval(p, lo, hi) > 0


# ---------------------------------------------------------------------------
# cyclotomic machinery


@functools.cache
def cyclotomic(n: int) -> Poly:
    """The n-th cyclotomic polynomial, exact coefficients (cached)."""
    if n < 1:
        raise ValueError("n must be positive")
    # x^n - 1 divided by the product of Phi_d over proper divisors d of n
    num: Poly = tuple([-ONE] + [ZERO] * (n - 1) + [ONE])
    for d in range(1, n):
        if n % d == 0:
            num, rem = poly_divmod(num, cyclotomic(d))
            if rem != (ZERO,):
                raise RuntimeError(f"Phi_{d} does not divide x^{n} - 1 "
                                   f"with zero remainder")
    return num


def _euler_phi(n: int) -> int:
    count = 0
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            count += 1
    return count


def is_product_of_cyclotomics(p: Poly) -> bool:
    """True when the monic polynomial factors completely into cyclotomics."""
    return cyclotomic_factors(p) is not None


def cyclotomic_factors(p: Poly) -> list[int] | None:
    """Indices n with multiplicity such that p = prod Phi_n, else None."""
    p = poly_trim(p)
    if p[-1] != 1:
        return None
    deg = poly_degree(p)
    factors: list[int] = []
    remaining = p
    candidates = [n for n in range(1, 2 * deg * deg + 3) if _euler_phi(n) <= deg]
    for n in candidates:
        phi_n = cyclotomic(n)
        while poly_degree(remaining) >= poly_degree(phi_n):
            quot, rem = poly_divmod(remaining, phi_n)
            if rem != (ZERO,):
                break
            remaining = quot
            factors.append(n)
    if poly_degree(remaining) == 0 and remaining[-1] == 1:
        return sorted(factors)
    return None
