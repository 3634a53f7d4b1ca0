"""Exact linear algebra over the rationals.

Every number that crosses the package API is a ``fractions.Fraction``
(or a plain ``int``); no floats anywhere.  Vectors are tuples of
Fractions, matrices are tuples of row tuples, and polynomials are tuples
of coefficients in *ascending* degree order (``poly[i]`` is the
coefficient of ``x**i``).  The polynomial helpers keep an int
coefficient an int wherever the answer is whole (a monic divisor
divides by its leading 1 as is); every other quotient is a ``Fraction``.

Inside, a rational matrix is first scaled to integers by its common
denominator (:func:`integer_matrix`).  Elimination serves two ends:
:func:`solve`, by a row echelon form, and the leading minors
(:class:`LeadingMinors`, Bareiss), which decide positive definiteness
and so, for a Gram matrix, linear independence.  Both run
fraction-free, with exact integer division and never ``/`` between two
ints.

The characteristic polynomial (:func:`charpoly`) is exact in O(n^3)
operations: one Hessenberg reduction by similarity, pivoting on the
entry of least absolute value and taking an exact integer quotient
wherever the pivot divides, so every catalog word's matrix stays on the
integers; any other quotient is a ``Fraction``.
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


def denominator(*entries) -> int:
    """The least common denominator of ints and Fractions.  ValueError for
    any other entry, a float or a string say: it is not read, as the
    answer would not be exact (the float 0.3 is below 3/10)."""
    try:
        return lcm(*{e.denominator for e in entries})
    except AttributeError:
        bad = next(e for e in entries if not hasattr(e, "denominator"))
        raise ValueError(f"entry {bad!r} is not an int or a Fraction") from None


def rational(x) -> Q:
    """``x`` as a ``Fraction``, refused as :func:`denominator` refuses it."""
    denominator(x)
    return Q(x)


def mat(rows: Iterable[Iterable]) -> Matrix:
    return tuple(tuple(rational(e) for e in row) for row in rows)


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
    that is not an int or a ``Fraction`` (:func:`denominator`)."""
    den = denominator(*[e for row in a for e in row])
    return [[e.numerator * (den // e.denominator) for e in row] for row in a], den


def charpoly(a: Matrix) -> Poly:
    """Characteristic polynomial ``det(x*I - a)``, monic, ascending order.

    ``a`` is reduced by similarity to upper Hessenberg form, column by
    column.  Each column pivots on its nonzero entry of least absolute
    value at or below the subdiagonal, a 1 or -1 wherever it has one, and
    each multiplier ``x / pivot`` is the exact quotient ``x // pivot`` when
    the pivot divides ``x``, else a ``Fraction``.  So an integer matrix
    stays on the integers while its pivots divide their columns (every
    catalog word's matrix does), and any other rational matrix gets its
    exact polynomial too.  The Hessenberg recurrence then gives it in
    O(n^3) operations.

    Raises ValueError for a matrix that is not square, and for an entry
    that is not an int or a ``Fraction`` (:func:`denominator`).
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("charpoly needs a square matrix")
    denominator(*[e for row in a for e in row])
    # whole entries as ints, so a word matrix handed out as Fractions reduces on ints
    h = [[e.numerator if e.denominator == 1 else e for e in row] for row in a]
    # Similarity to upper Hessenberg form, column by column: clear column
    # col below row m.
    for m in range(1, n - 1):
        col = m - 1
        if not any(h[i][col] for i in range(m + 1, n)):
            continue  # already zero below the subdiagonal
        piv = min((i for i in range(m, n) if h[i][col]), key=lambda i: abs(h[i][col]))
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for row in h:
                row[m], row[piv] = row[piv], row[m]
        prow = h[m][col:]
        p = prow[0]
        # Row i -= u_i * row m, then column m += u_i * column i: the inverse,
        # for the nonzero multipliers u_i = h[i][col] / p.
        us = [(i, x // p if x % p == 0 else Q(x, p))
              for i in range(m + 1, n) if (x := h[i][col])]
        for i, u in us:
            h[i][col:] = [x - u * y for x, y in zip(h[i][col:], prow)]
        for i, u in us:
            for row in h:
                row[m] += u * row[i]
    # polys[m] = det(x*I - H[:m, :m]), expanded along its last column.
    polys = [[1]]
    for m in range(1, n + 1):
        prev = polys[-1]
        c = h[m - 1][m - 1]
        new = [x - c * y for x, y in zip([0] + prev, prev + [0])]
        sub = 1
        for i in range(1, m):
            sub *= h[m - i][m - i - 1]
            if not sub:
                break
            if f := sub * h[m - i - 1][m - 1]:
                q = polys[m - i - 1]
                new[:len(q)] = [x - f * y for x, y in zip(new, q)]
        polys.append(new)
    return tuple(map(Q, polys[n]))


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
    """``p`` without its zero top coefficients (the zero polynomial keeps
    one), each coefficient as given, an int or a ``Fraction``; ValueError
    for any other, as :func:`denominator` refuses it."""
    coeffs = list(p)
    denominator(*coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_degree(p: Poly) -> int:
    p = poly_trim(p)
    return len(p) - 1


def poly_mul(p: Poly, q: Poly) -> Poly:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_divmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """``(quotient, remainder)``.  A monic ``q`` divides by its leading 1
    as is, so int coefficients stay ints; any other leading coefficient
    divides through ``Fraction``, never by ``/`` between two ints."""
    p = list(poly_trim(p))
    q = poly_trim(q)
    if q == (0,):
        raise ZeroDivisionError("polynomial division by zero")
    lead = q[-1]
    quot = [0] * max(1, len(p) - len(q) + 1)
    while len(p) >= len(q) and any(p):
        shift = len(p) - len(q)
        factor = p[-1] if lead == 1 else Q(p[-1], lead)
        quot[shift] = factor
        for i, c in enumerate(q):
            p[shift + i] -= factor * c
        while len(p) > 1 and p[-1] == 0:
            p.pop()
    return poly_trim(quot), poly_trim(p)


def power_plus_one(m: int) -> Poly:
    """``x^m + 1``."""
    return (1,) + (0,) * (m - 1) + (1,)


def all_ones(m: int) -> Poly:
    """``1 + x + ... + x^(m-1)``, which is ``(x^m - 1) / (x - 1)``."""
    return (1,) * m


def poly_eval(p: Poly, x) -> Q:
    x = rational(x)
    acc = ZERO
    for c in reversed(p):
        acc = acc * x + rational(c)
    return acc


def poly_derivative(p: Poly) -> Poly:
    if len(p) <= 1:
        return (0,)
    return poly_trim(tuple(i * c for i, c in enumerate(p) if i >= 1))


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """The monic gcd (the zero polynomial for two zeros); it is scaled
    through ``Fraction`` unless its leading coefficient is already 1."""
    a, b = poly_trim(p), poly_trim(q)
    while b != (0,):
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a[-1] not in (0, 1):
        a = tuple(Q(c, a[-1]) for c in a)
    return a


def poly_str(p: Poly, var: str = "x") -> str:
    """Human form, highest degree first, e.g. ``x^4 + 2*x^2 + 1``.  A whole
    coefficient is read as its int, which prints as the ``Fraction`` does."""
    p = [c.numerator if c.denominator == 1 else c for c in p]
    while len(p) > 1 and not p[-1]:
        p.pop()
    if p == [0]:
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
    lo, hi = rational(lo), rational(hi)
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
    """The n-th cyclotomic polynomial, int coefficients (cached)."""
    if n < 1:
        raise ValueError("n must be positive")
    # x^n - 1 divided by the product of Phi_d over proper divisors d of n
    num: Poly = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n):
        if n % d == 0:
            num, rem = poly_divmod(num, cyclotomic(d))
            if rem != (0,):
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
