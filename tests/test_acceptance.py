"""Acceptance suite: ten numbered end-to-end checks, exact arithmetic only.

Run `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Every equality below is exact (Fraction arithmetic); the wall
time limits are asserted after a one-time warm-up fixture that builds the
diagram catalog, so they measure the computations themselves rather than
first-use construction of shared tables.
"""

import time

import pytest
from fractions import Fraction as Q

from weylcalc import cli
from weylcalc import diagram as dg
from weylcalc.exactla import (
    charpoly,
    cyclotomic,
    is_product_of_cyclotomics,
    mat,
    mat_mul,
    poly_mul,
    real_root_in_interval,
    vec_add,
    vec_sub,
)
from weylcalc.oracle import are_conjugate, weyl_group_order
from weylcalc.rewrite import (
    chain_root,
    five_cycle_classify,
    five_cycle_orientations,
    transform_long_cycle,
    verify_commutation,
    word_charpoly,
    _canonical_cycle_labels,
    _entry_labels,
)
from weylcalc.rootsys import build_by_name
from weylcalc.weyl import evaluate, order_or_infinite, word_matrix_from_gram


@pytest.fixture(scope="module", autouse=True)
def warm():
    """Build the diagram catalog and the root systems the criteria share."""
    dg.catalog_names()
    dg.catalog("E8(a5)")
    for name in ("D4", "D5", "D6", "E6", "E7", "E8"):
        build_by_name(name)
    return None


def t_power_plus_one(m):
    return (Q(1),) + (Q(0),) * (m - 1) + (Q(1),)


def inner(system, x, y):
    return system.normalized_inner(x, y)


# -- 1 ---------------------------------------------------------------------

def test_criterion_01_square_orders_split_conjugacy():
    """The two readings of the D4 square word have different charpolys and
    are not conjugate, by full orbit search in W(D4)."""
    started = time.perf_counter()
    s = build_by_name("D4")
    carter = tuple(s.parse_root(t) for t in ("e1-e2", "e3-e4", "e2-e3", "e2+e3"))
    connection = (carter[0], carter[2], carter[1], carter[3])
    assert word_charpoly(s, carter) == (1, 0, 2, 0, 1)
    assert word_charpoly(s, connection) == (1, 1, 0, 1, 1)
    verdict = are_conjugate(s, evaluate(s, carter), evaluate(s, connection))
    assert verdict.status == "not-conjugate"
    assert time.perf_counter() - started < 1.0


# -- 2 ---------------------------------------------------------------------

def test_criterion_02_long_cycle_elimination_table():
    """All five elimination rows: constant charpoly equal to the stated
    polynomial, final diagram identifying as the paired a-diagram."""
    phi = cyclotomic
    rows = [
        ("D6(b2)", None, "D6(a2)",
         poly_mul(t_power_plus_one(3), t_power_plus_one(3))),
        ("E7(b2)", None, "E7(a2)",
         poly_mul(poly_mul(phi(12), phi(6)), phi(2))),
        ("E8(b3)", None, "E8(a3)", poly_mul(phi(12), phi(12))),
        ("E8(b5)", None, "E8(a5)", phi(15)),
    ] + [
        ("Dl(b)", l, f"D{l}(a{l // 2 - 1})",
         poly_mul(t_power_plus_one(l // 2), t_power_plus_one(l // 2)))
        for l in (6, 8, 10, 12)
    ]
    started = time.perf_counter()
    for name, l, target, expected in rows:
        trace = transform_long_cycle(name, l=l)
        system = trace.initial_state.system
        seen = {word_charpoly(system, step.state.word) for step in trace.steps}
        assert seen == {expected}, name
        final = dg.identify(dg.from_roots(system, trace.final_state.word))
        assert final == target, name
    assert time.perf_counter() - started < 10.0


# -- 3 ---------------------------------------------------------------------

def test_criterion_03_script_relation_values():
    """Every printed orthogonality value of the elimination scripts holds
    exactly: the sigma relations, the staged E8(b5) blocks, the chain-root
    orthogonality pattern, and both corollary computations."""
    started = time.perf_counter()

    # sigma = b3 + a3 - a2 - b2 + b4 over the E8(a3) labels.
    entry = dg.catalog("E8(a3)")
    lab = _entry_labels(entry)
    s = build_by_name(entry.system)
    a1, a2, a3, a4 = (lab[f"alpha{i}"] for i in range(1, 5))
    b1, b2, b3, b4 = (lab[f"beta{i}"] for i in range(1, 5))
    assert inner(s, a3, b4) == Q(-1, 2)
    assert inner(s, a3, b3) == Q(-1, 2)
    assert inner(s, a2, b2) == Q(-1, 2)
    assert inner(s, a2, b3) == Q(1, 2)
    assert inner(s, a2, b1) == Q(-1, 2)
    assert inner(s, a3, b1) == Q(-1, 2)
    sigma = vec_add(vec_sub(vec_add(b3, a3), vec_add(a2, b2)), b4)
    assert s.is_root(sigma)
    for root, value in ((a3, 0), (a2, 0), (b1, 0), (a1, 0),
                        (b4, Q(1, 2)), (b2, Q(-1, 2)), (a4, Q(-1, 2))):
        assert inner(s, sigma, root) == value

    # The staged E8(b5) script asserts its step-by-step inner products
    # while it runs; any printed-value failure raises.
    transform_long_cycle("E8(b5)")

    # Chain-root orthogonality pattern on pure cycles of length 4k.
    for l in (8, 12):
        system = build_by_name(f"D{l}")
        k = l // 4
        alphas, betas = _canonical_cycle_labels(l)
        beta_sum = 2 * k + 1

        for R in range(1, k + 1):
            L = beta_sum - R
            theta = chain_root("theta", system, L, R)
            for i in range(1, 2 * k + 1):
                value = inner(system, theta, betas[i - 1])
                if i in (R, L):
                    assert value != 0, (l, L, R, "beta", i)
                else:
                    assert value == 0, (l, L, R, "beta", i)
            for i in range(1, 2 * k + 1):
                value = inner(system, theta, alphas[i - 1])
                if R == k:
                    # the sponsors coincide at the top of the chain
                    assert value == 0, (l, L, R, "alpha", i)
                elif i in (R + 1, L):
                    assert value != 0, (l, L, R, "alpha", i)
                else:
                    assert value == 0, (l, L, R, "alpha", i)

        for R in range(2, k + 1):
            L = beta_sum + 1 - R
            theta = chain_root("theta", system, L, R)
            for i in range(1, 2 * k + 1):
                value = inner(system, theta, betas[i - 1])
                if i in (L - 1, R):
                    assert value != 0, (l, L, R, "beta", i)
                else:
                    assert value == 0, (l, L, R, "beta", i)
            for i in range(1, 2 * k + 1):
                if i not in (R, L):
                    assert inner(system, theta, alphas[i - 1]) == 0

        # first corollary: the top chain root turns the corner exactly
        theta = chain_root("theta", system, k + 1, k)
        assert inner(system, theta, alphas[k]) == 0
        assert inner(system, theta, betas[k - 1]) == Q(-1, 2)
        assert inner(system, theta, betas[k]) == Q(1, 2)

    # second corollary, on cycles of length 4k-2
    for l in (6, 10, 14):
        system = build_by_name(f"D{l}")
        k = (l + 2) // 4
        alphas, betas = _canonical_cycle_labels(l)
        mu = chain_root("mu", system, k + 1, k)
        assert inner(system, mu, betas[k - 1]) == 0
        assert inner(system, mu, alphas[k - 1]) == Q(-1, 2)
        assert inner(system, mu, alphas[k]) == Q(1, 2)

    assert time.perf_counter() - started < 5.0


# -- 4 ---------------------------------------------------------------------

def test_criterion_04_chain_commutation_identities():
    """The chain reflection passes through each bicolored block as a matrix
    identity for every admissible index pair, for all even l up to 16."""
    started = time.perf_counter()
    for l in (6, 8, 10, 12, 14, 16):
        case = "4k" if l % 4 == 0 else "4k-2"
        assert verify_commutation(build_by_name(f"D{l}"), case), l
    assert time.perf_counter() - started < 30.0


# -- 5 ---------------------------------------------------------------------

def test_criterion_05_oriented_pentagon_classes():
    """Orientations 1 and 4 give D5, orientations 2 and 3 give D5(a1);
    enumeration of W(D5) (order 1920) confirms exactly two classes."""
    started = time.perf_counter()
    system, orientations = five_cycle_orientations()
    assert weyl_group_order(system) == 1920
    expected = {1: "D5", 2: "D5(a1)", 3: "D5(a1)", 4: "D5"}
    for r, target in expected.items():
        result = five_cycle_classify(r)
        assert result.name == target, r
        u = result.conjugator
        w, w_new = evaluate(system, orientations[r]), evaluate(system, result.word)
        assert mat_mul(u, w) == mat_mul(w_new, u), r
    w = {r: evaluate(system, word) for r, word in orientations.items()}
    assert are_conjugate(system, w[1], w[4]).status == "conjugate"
    assert are_conjugate(system, w[2], w[3]).status == "conjugate"
    assert are_conjugate(system, w[1], w[2]).status == "not-conjugate"
    assert time.perf_counter() - started < 5.0


# -- 6 ---------------------------------------------------------------------

def test_criterion_06_affine_tits_values_vanish():
    """All eighteen affine patterns evaluate to exactly zero."""
    started = time.perf_counter()
    patterns = dg.affine_patterns()
    coeff_table = {name: (coeffs, t) for name, _, coeffs, t in patterns}
    assert coeff_table["F~41"] == ((1, 2, 3, 2, 1), 2)
    assert coeff_table["F~42"] == ((1, 2, 3, 4, 2), 2)
    assert coeff_table["B~2"] == ((1, 1, 1), 2)
    assert coeff_table["C~2"] == ((1, 2, 1), 2)
    assert coeff_table["B~3"] == ((1, 1, 1, 1), 2)
    assert coeff_table["C~3"] == ((1, 2, 2, 1), 2)
    assert coeff_table["G~21"] == ((1, 2, 1), 3)
    assert coeff_table["G~22"] == ((1, 2, 3), 3)
    for n in (4, 5):
        assert f"B~{n}" in coeff_table and f"C~{n}" in coeff_table
    for n in range(3, 9):
        assert coeff_table[f"solid-cycle-{n}"] == ((1,) * n, 1)
    assert len(patterns) == 18
    for name, d, coeffs, t in patterns:
        assert dg.tits_value(d, coeffs, t) == 0, name
    assert time.perf_counter() - started < 1.0


# -- 7 ---------------------------------------------------------------------

def test_criterion_07_obtuse_square_is_infinite():
    """The long-short obtuse square: exact matrix, non-cyclotomic charpoly
    with a real root in (4.41, 4.43), hence infinite order."""
    started = time.perf_counter()
    d = dg.make_diagram(
        4,
        [(0, 1, dg.SOLID), (1, 2, dg.SOLID), (2, 3, dg.SOLID), (0, 3, dg.SOLID)],
        longs=(True, False, False, True),
    )
    g = dg.gram(d, Q(2))
    assert g == mat([
        [2, -1, 0, -1],
        [-1, 1, Q(-1, 2), 0],
        [0, Q(-1, 2), 1, -1],
        [-1, 0, -1, 2],
    ])
    c = word_matrix_from_gram(g, (0, 1, 2, 3))
    assert c == mat([
        [4, 0, 2, -3],
        [4, 0, 1, -2],
        [2, 1, 1, -2],
        [1, 0, 1, -1],
    ])
    p = charpoly(c)
    assert p == (1, -4, -1, -4, 1)
    assert not is_product_of_cyclotomics(p)
    assert real_root_in_interval(p, Q(441, 100), Q(443, 100))
    assert order_or_infinite(c) == "infinite"
    assert time.perf_counter() - started < 1.0


# -- 8 ---------------------------------------------------------------------

def test_criterion_08_impossibility_searches_certified_empty():
    """Cycles in the A family, even-class cycles in the D family, and the
    two compound patterns: every styling class is certified empty."""
    started = time.perf_counter()
    items = cli._suite_parity()
    assert len(items) == 52
    failures = [(label, detail) for label, status, detail in items
                if status != "PASS"]
    assert failures == []
    assert time.perf_counter() - started < 300.0


# -- 9 ---------------------------------------------------------------------

def test_criterion_09_orthogonality_tables():
    """Highest-root complements and orthogonal-set orbit counts, W(E7)
    k=3 included."""
    started = time.perf_counter()
    items = cli._suite_orbits()
    by_label = {label: (status, detail) for label, status, detail in items}
    for label in (
        "orbits/complement E6", "orbits/complement A5", "orbits/complement E7",
        "orbits/complement D6", "orbits/complement E8", "orbits/complement D4",
        "orbits/complement D5", "orbits/complement D7",
        "orbits/E6 k=2", "orbits/D5 k=2", "orbits/D6 k=2", "orbits/E6 k=3",
        "orbits/E7 k=3",
    ):
        assert by_label[label][0] == "PASS", (label, by_label[label])
    assert time.perf_counter() - started < 120.0


# -- 10 --------------------------------------------------------------------

def test_criterion_10_unique_class_theorem_small_rank():
    """Every realization of each enumerable a-diagram falls into a single
    conjugacy class of its Weyl group."""
    started = time.perf_counter()
    items = cli._suite_uniqueness()
    assert len(items) == 6
    failures = [(label, detail) for label, status, detail in items
                if status != "PASS"]
    assert failures == []
    assert time.perf_counter() - started < 600.0
