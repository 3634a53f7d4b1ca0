"""Rewrite states, primitive moves, elimination scripts, chain roots."""

import dataclasses
import random
import re

import pytest
from fractions import Fraction as Q
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weylcalc import diagram as dg
from weylcalc import rewrite
from weylcalc.exactla import dot, mat_mul, poly_mul, poly_str
from weylcalc.rootsys import RootSystem, build_by_name
from weylcalc.rewrite import (
    LONG_CYCLE_NAMES,
    ScriptIntegrityError,
    apply_conjugation,
    apply_s_permutation,
    apply_sign_flip,
    chain_root,
    eliminate_4cycle,
    five_cycle_classify,
    five_cycle_orientations,
    initial_state,
    replay,
    transform_long_cycle,
    verify_commutation,
    word_charpoly,
)
from weylcalc import weyl


def connection_square_state():
    s = build_by_name("D4")
    word = tuple(s.parse_root(t) for t in ("e1-e2", "e2-e3", "e3-e4", "e2+e3"))
    return initial_state(s, word)


def test_initial_state():
    st = connection_square_state()
    space = weyl.perm_space(st.system)
    assert space.matrix_of_perm(st.element_perm) == weyl.evaluate(st.system, st.word)
    assert st.conjugator_perm == space.ident
    with pytest.raises(ValueError):
        initial_state(st.system, ((Q(1), Q(0), Q(0), Q(0)),))


def test_apply_conjugation_updates_element_and_conjugator():
    """Conjugating by a word moves the element to u w u^-1 and multiplies
    the conjugator by u on the left, as the matrices confirm."""
    st = connection_square_state()
    system = st.system
    space = weyl.perm_space(system)
    u_word = tuple(system.parse_root(t) for t in ("e1-e3", "e2+e4"))
    moved = apply_conjugation(st, u_word)
    twice = apply_conjugation(moved, u_word[:1])
    u = weyl.evaluate(system, u_word)
    assert mat_mul(u, weyl.evaluate(system, st.word)) == mat_mul(
        space.matrix_of_perm(moved.element_perm), u)
    assert space.matrix_of_perm(moved.conjugator_perm) == u
    assert twice.conjugator_perm == space.word_perm((u_word[0], *u_word))
    assert all(system.is_root(r) for r in moved.word)
    assert space.word_perm(moved.word) == moved.element_perm
    assert apply_conjugation(st, ()) == st
    with pytest.raises(ValueError, match="is not a root of D4"):
        apply_conjugation(st, ((Q(2), Q(0), Q(0), Q(0)),))


MOVES = ("apply_conjugation", "apply_s_permutation", "apply_sign_flip")


def count_moves(monkeypatch):
    """Calls of each public move function, counted from now on."""
    counts = dict.fromkeys(MOVES, 0)
    for name in MOVES:
        def counted(*args, _name=name, _move=getattr(rewrite, name)):
            counts[_name] += 1
            return _move(*args)
        monkeypatch.setattr(rewrite, name, counted)
    return counts


def test_scripts_and_replay_play_every_move_through_its_public_function(monkeypatch):
    """A script plays each recorded step through its move's function (the
    named cases also play the forward moves they invert), and ``replay``
    exactly once per step."""
    counts = count_moves(monkeypatch)
    trace = transform_long_cycle("D6(b2)")
    ops = [step.op for step in trace.steps[1:]]
    steps = {name: ops.count(op) for name, op in zip(MOVES, ("conj", "perm", "flip"))}
    assert all(counts[name] >= steps[name] > 0 for name in MOVES), counts
    counts.update(dict.fromkeys(MOVES, 0))
    assert replay(trace)
    assert counts == steps


def test_apply_s_permutation_preserves_product():
    st = connection_square_state()
    for i in range(3):
        for direction in ("left", "right"):
            out = apply_s_permutation(st, i, direction)
            assert out.element_perm == st.element_perm
            assert out.conjugator_perm == st.conjugator_perm
            assert len(out.word) == len(st.word)
            assert all(st.system.is_root(r) for r in out.word)
    # left then right at the same spot restores the word
    there = apply_s_permutation(st, 1, "left")
    back = apply_s_permutation(there, 1, "right")
    assert back.word == st.word
    with pytest.raises(ValueError):
        apply_s_permutation(st, 3, "left")
    with pytest.raises(ValueError):
        apply_s_permutation(st, 0, "sideways")


def test_apply_sign_flip_is_involutive():
    st = connection_square_state()
    once = apply_sign_flip(st, 2)
    assert once.element_perm == st.element_perm
    assert once.word[2] == tuple(-c for c in st.word[2])
    assert apply_sign_flip(once, 2).word == st.word
    with pytest.raises(ValueError):
        apply_sign_flip(st, 9)


@pytest.mark.parametrize("i", [True, 1.0])
@pytest.mark.parametrize("move", [lambda st, i: apply_s_permutation(st, i, "right"),
                                  apply_sign_flip], ids=["s_permutation", "sign_flip"])
def test_moves_refuse_a_position_that_is_not_an_int(move, i):
    """``True`` and ``1.0`` would index the word as 1, and the trace would
    record them as they are."""
    with pytest.raises(ValueError, match="out of range"):
        move(connection_square_state(), i)


def catalog_script(name):
    """A script with no moves, started on the catalog word of ``name``."""
    entry = dg.catalog(name)
    return rewrite._Script(name, build_by_name(entry.system), entry.word)


def test_finish_certifies_the_end_of_a_script():
    sc = catalog_script("D4")
    word = sc.word
    assert dg.catalog("D4").diagram.bipartition == ((0, 1, 2), (3,))  # leaves, centre
    trace = sc.finish("D4", (word[:3], word[3:]))
    assert trace.steps == tuple(sc.steps) and replay(trace)
    with pytest.raises(ScriptIntegrityError, match="identifies as D4, expected D4\\(a1\\)"):
        sc.finish("D4(a1)", (word[:3], word[3:]))
    for parts in ((word[:2], word[2:]), (word, ())):  # a leaf with the centre
        with pytest.raises(ScriptIntegrityError,
                           match="not bicolored: a block is not orthogonal"):
            sc.finish("D4", parts)
    with pytest.raises(ScriptIntegrityError, match="final word \\(alpha block, beta block\\)"):
        sc.finish("D4", (word[:3], ()))
    with pytest.raises(ScriptIntegrityError, match="final word \\(alpha block, beta block\\)"):
        sc.finish("D4", (word[1::-1] + word[2:3], word[3:]))  # the right product, reordered
    hexagon = catalog_script("D6(b2)")
    with pytest.raises(ScriptIntegrityError, match="cycle longer than 4"):
        hexagon.finish("D6(b2)", (hexagon.word[:3], hexagon.word[3:]))


@pytest.mark.parametrize("name", ["D6(b2)", "E7(b2)", "E8(b3)", "E8(b5)"])
def test_long_cycle_scripts_end_on_the_catalog_word(name):
    """Each Table 1 script ends on its a-entry's catalog word, which is in
    bipartition order, so ``finish``'s block check covers the whole word."""
    a = dg.catalog(rewrite.TABLE1[name])
    x, y = a.diagram.bipartition
    assert x + y == tuple(range(len(a.word)))
    assert transform_long_cycle(name).final_state.word == a.word


# The canonical labels (alphas, betas) of the D_l(b) cycle word.
CYCLE_LABELS = {
    6: ("e5+e6 e1-e2 e3-e4", "-e1+e6 e2-e3 e4-e5"),
    8: ("e1-e2 e7-e8 e5-e6 e3-e4", "e1+e8 e6-e7 e4-e5 e2-e3"),
    10: ("e1-e2 e9-e10 e7-e8 e5-e6 e3-e4", "e1+e10 e8-e9 e6-e7 e4-e5 e2-e3"),
    12: ("e1-e2 e11-e12 e9-e10 e7-e8 e5-e6 e3-e4",
         "e1+e12 e10-e11 e8-e9 e6-e7 e4-e5 e2-e3"),
    14: ("e1-e2 e13-e14 e11-e12 e9-e10 e7-e8 e5-e6 e3-e4",
         "e1+e14 e12-e13 e10-e11 e8-e9 e6-e7 e4-e5 e2-e3"),
    16: ("e1-e2 e15-e16 e13-e14 e11-e12 e9-e10 e7-e8 e5-e6 e3-e4",
         "e1+e16 e14-e15 e12-e13 e10-e11 e8-e9 e6-e7 e4-e5 e2-e3"),
}


@pytest.mark.parametrize("l", sorted(CYCLE_LABELS))
def test_cycle_labels_are_pinned(l):
    system = build_by_name(f"D{l}")
    alphas, betas = rewrite._canonical_cycle_labels(l)
    assert (" ".join(map(system.format_root, alphas)),
            " ".join(map(system.format_root, betas))) == CYCLE_LABELS[l]
    # a_1 b_1 is the dotted edge; a_i meets b_{i-1} and b_i around the cycle
    assert system.normalized_inner(alphas[0], betas[0]) == Q(1, 2)
    for i in range(len(alphas)):
        assert system.normalized_inner(alphas[i], betas[i - 1]) == Q(-1, 2)
        assert system.normalized_inner(alphas[i], betas[i]) != 0


def test_cycle_labels_refusals():
    a4, d4, d6 = build_by_name("A4"), build_by_name("D4"), build_by_name("D6")
    star, chain, hexagon = (dg.catalog(name).word for name in ("D4", "A4", "D6(b2)"))
    alphas, betas = rewrite._canonical_cycle_labels(6)
    far = next(i for i, r in enumerate(hexagon) if r not in (alphas[0], betas[0]))
    three_dotted = tuple(tuple(-c for c in r) if i == far else r
                         for i, r in enumerate(hexagon))
    for system, word, message in (
        (d4, star[:3], "odd word length"),
        (d4, star[::-1], "word halves are not orthogonal sets"),  # centre first
        (a4, chain, "word is not a single cycle"),
        (d6, three_dotted, "expected exactly one dotted edge"),
    ):
        with pytest.raises(ScriptIntegrityError, match=message):
            rewrite._cycle_labels(system, word)


def test_long_cycle_names_cover_all_scripts():
    assert LONG_CYCLE_NAMES == ("D6(b2)", "E7(b2)", "E8(b3)", "E8(b5)", "Dl(b)")


def test_transform_d6b2():
    trace = transform_long_cycle("D6(b2)")
    system = trace.initial_state.system
    expected = poly_mul((Q(1), Q(0), Q(0), Q(1)), (Q(1), Q(0), Q(0), Q(1)))
    assert word_charpoly(system, trace.initial_state.word) == expected
    assert word_charpoly(system, trace.final_state.word) == expected
    assert dg.identify(dg.from_roots(system, trace.final_state.word)) == "D6(a2)"
    assert replay(trace)
    # the accumulated conjugator carries the start element to the end element
    c = weyl.perm_space(system).matrix_of_perm(trace.final_state.conjugator_perm)
    w0 = weyl.evaluate(system, trace.initial_state.word)
    assert mat_mul(c, w0) == mat_mul(weyl.evaluate(system, trace.final_state.word), c)


def test_transform_generic_cycle_length_eight():
    trace = transform_long_cycle("Dl(b)", l=8)
    system = trace.initial_state.system
    expected = poly_mul((Q(1),) + (Q(0),) * 3 + (Q(1),),
                        (Q(1),) + (Q(0),) * 3 + (Q(1),))
    charpolys = {word_charpoly(system, step.state.word) for step in trace.steps}
    assert charpolys == {expected}
    assert dg.identify(dg.from_roots(system, trace.final_state.word)) == "D8(a3)"
    assert replay(trace)


def test_transform_rejections():
    with pytest.raises(ValueError):
        transform_long_cycle("D4(a1)")
    with pytest.raises(ValueError):
        transform_long_cycle("Dl(b)")  # needs a length
    with pytest.raises(ValueError):
        transform_long_cycle("Dl(b)", l=7)
    with pytest.raises(ValueError):
        transform_long_cycle("Dl(b)", l=4)
    with pytest.raises(ValueError):
        transform_long_cycle("D6(b2)", l=8)  # named cases fix their length


def test_trace_json_shape():
    trace = transform_long_cycle("Dl(b)", l=6)
    obj = trace.to_json_obj()
    assert obj[0]["op"] == "start"
    assert {"op", "detail", "word_roots", "charpoly"} <= set(obj[0])
    assert len({row["charpoly"] for row in obj}) == 1
    assert all(row["op"] in ("start", "conj", "perm", "flip") for row in obj[1:])


def own_charpolys(trace):
    """Each step's word charpoly, computed afresh from the word."""
    system = trace.initial_state.system
    return [poly_str(word_charpoly(system, step.state.word), "t") for step in trace.steps]


def seeded_4cycle_trace(system_name, seed):
    """``eliminate_4cycle`` on the connection square moved by seeded reflections."""
    system = build_by_name(system_name)
    word = [system.parse_root(t) for t in ("e1-e2", "e2-e3", "e3-e4", "e2+e3")]
    rng = random.Random(seed)
    for _ in range(6):
        u = weyl.evaluate(system, (rng.choice(system.roots),))
        word = [tuple(dot(row, r) for row in u) for r in word]
    return eliminate_4cycle(initial_state(system, word))


def assert_rows_carry_own_charpolys(trace):
    """Serialisation computes one charpoly per product, and every row still
    reads its own word's polynomial."""
    assert [row["charpoly"] for row in trace.to_json_obj()] == own_charpolys(trace)


@pytest.mark.parametrize("name,l", [*((name, None) for name in rewrite.TABLE1),
                                    *(("Dl(b)", l) for l in (6, 8, 10, 12))])
def test_table1_trace_json_charpolys_are_the_words_own(name, l):
    assert_rows_carry_own_charpolys(transform_long_cycle(name, l=l))


@pytest.mark.parametrize("system_name,seed", [("D4", 1), ("D6", 2), ("E8", 3)])
def test_4cycle_trace_json_charpolys_are_the_words_own(system_name, seed):
    assert_rows_carry_own_charpolys(seeded_4cycle_trace(system_name, seed))


def test_trace_json_ignores_the_stored_element():
    """States whose ``element_perm`` is wrong still serialise their own words'
    polynomials, which differ here."""
    system = build_by_name("D4")
    words = [dg.catalog("D4").word, dg.catalog("D4(a1)").word,
             [system.parse_root(t) for t in ("e1-e2", "e1+e2", "e3-e4", "e3+e4")]]
    states = [initial_state(system, word) for word in words]
    wrong = states[0].element_perm
    trace = rewrite.RewriteTrace("tampered", tuple(
        rewrite.RewriteStep("start", (), "", dataclasses.replace(s, element_perm=wrong))
        for s in states))
    rows = [row["charpoly"] for row in trace.to_json_obj()]
    assert rows == own_charpolys(trace) and len(set(rows)) == 3


def test_trace_json_refuses_a_dependent_word():
    """A dependent word has no word-basis charpoly, alone or after the
    shorter independent word with the same product."""
    system = build_by_name("D4")
    dependent, shorter = (
        initial_state(system, [system.parse_root(t) for t in literals])
        for literals in (("e1-e2", "e1-e2", "e3-e4", "e2+e3"), ("e3-e4", "e2+e3")))
    assert dependent.element_perm == shorter.element_perm
    for states in ((dependent,), (shorter, dependent)):
        trace = rewrite.RewriteTrace("dependent", tuple(
            rewrite.RewriteStep("start", (), "", s) for s in states))
        with pytest.raises(ValueError):
            trace.to_json_obj()


def rebuilt_from(trace, start):
    """The trace's moves re-run from the state ``start`` by the public
    primitives, so every later state is consistent with ``start``."""
    steps = [dataclasses.replace(trace.steps[0], state=start)]
    for step in trace.steps[1:]:
        state = steps[-1].state
        if step.op == "conj":
            state = apply_conjugation(state, *step.args)
        elif step.op == "perm":
            state = apply_s_permutation(state, *step.args)
        else:
            state = apply_sign_flip(state, *step.args)
        steps.append(dataclasses.replace(step, state=state))
    return dataclasses.replace(trace, steps=tuple(steps))


def test_replay_rejects_tampering():
    trace = transform_long_cycle("Dl(b)", l=6)  # starts at the D6(b2) catalog word
    # swap two roots inside a recorded state: the snapshot no longer matches
    bad_step = trace.steps[5]
    idx = bad_step.state.idx
    tampered_state = dataclasses.replace(
        bad_step.state, idx=(idx[1], idx[0]) + idx[2:]
    )
    tampered = dataclasses.replace(
        trace,
        steps=trace.steps[:5]
        + (dataclasses.replace(bad_step, state=tampered_state),)
        + trace.steps[6:],
    )
    assert not replay(tampered)
    relabeled = dataclasses.replace(
        trace,
        steps=(dataclasses.replace(trace.steps[0], op="warp"),) + trace.steps[1:],
    )
    assert not replay(relabeled)
    with_args = dataclasses.replace(
        trace,
        steps=(dataclasses.replace(trace.steps[0], args=(0,)),) + trace.steps[1:],
    )
    assert not replay(with_args)
    assert not replay(dataclasses.replace(trace, steps=()))
    broken_op = dataclasses.replace(
        trace,
        steps=trace.steps[:5]
        + (dataclasses.replace(bad_step, op="warp"),)
        + trace.steps[6:],
    )
    assert not replay(broken_op)
    # steps whose arguments cannot be re-run are False verdicts, not errors
    assert trace.steps[6].op == "conj"
    not_a_root = ((Q(1),) + (Q(0),) * 5,)  # e1 is not a root of D6
    for i, args in [(5, (99, "left")), (5, (0, "up")), (5, ()),
                    (6, (not_a_root,)), (6, (("x",),)), (6, ("x",))]:
        step = dataclasses.replace(trace.steps[i], args=args)
        bad_args = dataclasses.replace(
            trace, steps=trace.steps[:i] + (step,) + trace.steps[i + 1:])
        assert not replay(bad_args), args
    # a first state whose element or conjugator does not come from its word,
    # even when every later state follows from it by the recorded moves
    start = trace.initial_state
    assert rebuilt_from(trace, start) == trace and replay(trace)
    space = weyl.perm_space(start.system)
    reflection = space.reflection_perm(start.system.simple_roots[0])
    for field, perm in (("element_perm", space.ident), ("conjugator_perm", reflection)):
        assert getattr(start, field) != perm
        wrong = rebuilt_from(trace, dataclasses.replace(start, **{field: perm}))
        assert not replay(wrong), field


def test_an_empty_trace_has_no_rows_and_no_states():
    empty = rewrite.RewriteTrace("empty", ())
    assert empty.to_json_obj() == []
    for end in ("initial_state", "final_state"):
        with pytest.raises(ValueError, match="'empty' has no steps"):
            getattr(empty, end)


def test_eliminate_4cycle():
    st = connection_square_state()
    trace = eliminate_4cycle(st)
    system = st.system
    assert dg.identify(dg.from_roots(system, trace.final_state.word)) == "D4"
    assert word_charpoly(system, trace.final_state.word) == word_charpoly(
        system, st.word
    )
    assert replay(trace)


def test_eliminate_4cycle_pattern_mismatch():
    s = build_by_name("D4")
    chain = tuple(s.parse_root(t) for t in ("e1-e2", "e2-e3", "e3-e4"))
    with pytest.raises(ValueError):
        eliminate_4cycle(initial_state(s, chain))
    carter_order = tuple(
        s.parse_root(t) for t in ("e1-e2", "e3-e4", "e2-e3", "e2+e3")
    )
    with pytest.raises(ValueError):
        eliminate_4cycle(initial_state(s, carter_order))


def test_five_cycle_orientations_share_roots():
    system, orientations = five_cycle_orientations()
    assert sorted(orientations) == [1, 2, 3, 4]
    base = set(orientations[4])
    for word in orientations.values():
        assert set(word) == base
        assert all(system.is_root(r) for r in word)
        d = dg.from_roots(system, word)
        assert len(d.cycles) == 1


def test_five_cycle_classify():
    expected = {1: "D5", 2: "D5(a1)", 3: "D5(a1)", 4: "D5"}
    system, orientations = five_cycle_orientations()
    for r, name in expected.items():
        result = five_cycle_classify(r)
        assert result.name == name
        u = result.conjugator
        w = weyl.evaluate(system, orientations[r])
        assert mat_mul(u, w) == mat_mul(weyl.evaluate(system, result.word), u)
    with pytest.raises(ValueError):
        five_cycle_classify(0)
    with pytest.raises(ValueError):
        five_cycle_classify(5)


@pytest.mark.parametrize("r", [True, 1.0])
def test_five_cycle_classify_refuses_an_index_that_is_not_an_int(r):
    with pytest.raises(ValueError):
        five_cycle_classify(r)


@pytest.mark.parametrize("l", [8.0, True])
def test_transform_long_cycle_refuses_a_length_that_is_not_an_int(l):
    with pytest.raises(ValueError, match="l must be even"):
        transform_long_cycle("Dl(b)", l)


def test_chain_root_orthogonality_spot_check():
    """The detached chain root meets only its two sponsors in each chain."""
    system = build_by_name("D8")
    from weylcalc.rewrite import _canonical_cycle_labels

    alphas, betas = _canonical_cycle_labels(8)
    k = 2
    theta = chain_root("theta", system, k + 1, k)
    assert system.is_root(theta)
    assert dot(theta, alphas[k]) == 0  # orthogonal to alpha_{k+1}
    assert system.normalized_inner(theta, betas[k - 1]) == Q(-1, 2)
    assert system.normalized_inner(theta, betas[k]) == Q(1, 2)


def test_chain_root_rejections():
    d8 = build_by_name("D8")
    d6 = build_by_name("D6")
    with pytest.raises(ValueError):
        chain_root("mu", d8, 3, 2)  # mu lives on l = 4k-2 cycles
    with pytest.raises(ValueError):
        chain_root("theta", d6, 3, 2)  # theta lives on l = 4k cycles
    with pytest.raises(ValueError):
        chain_root("sigma", d8, 3, 2)
    with pytest.raises(ValueError):
        chain_root("theta", build_by_name("A4"), 3, 2)


@pytest.mark.parametrize("bad", [True, 4.0, "4"], ids=repr)
def test_chain_root_refuses_an_index_that_is_not_an_int(bad):
    """A bool read as 1 gave the (4, 1) chain root, a float a TypeError
    from the chain's slices and a string one from the comparison; each is
    refused with a ValueError, as either index."""
    d8 = build_by_name("D8")
    for L, R in ((4, bad), (bad, 1), (1, bad), (bad, 4)):
        with pytest.raises(ValueError, match="must be ints"):
            chain_root("theta", d8, L, R)


@pytest.mark.parametrize("l", range(6, 17, 2))
def test_chain_root_index_errors(l):
    """With m = l/2, beta pairs have L+R = m+1 and 1 <= R <= m//2, alpha
    pairs L+R = m+2 and 2 <= R <= m//2+1, for theta and mu alike."""
    system = build_by_name(f"D{l}")
    kind, m = ("theta" if l % 4 == 0 else "mu"), l // 2
    with pytest.raises(ValueError, match=re.escape(
            f"index sum L+R must be {m + 1} (beta pair) or {m + 2} (alpha pair) "
            f"for {kind} chains at l={l}")):
        chain_root(kind, system, m, m)
    with pytest.raises(ValueError, match=re.escape(
            f"index R=0 out of range [1,{m // 2}] for the beta pair")):
        chain_root(kind, system, m + 1, 0)
    with pytest.raises(ValueError, match=re.escape(
            f"index R=1 out of range [2,{m // 2 + 1}] for the alpha pair")):
        chain_root(kind, system, 1, m + 1)  # the pair is order-insensitive
    if m % 2:  # the middle beta pair of a mu chain is one past the range
        with pytest.raises(ValueError, match=re.escape(
                f"index R={m // 2 + 1} out of range [1,{m // 2}] for the beta pair")):
            chain_root(kind, system, m // 2 + 1, m // 2 + 1)


def _index_range_chain(pair, alphas, betas, L, R):
    """The paper's chain vector: a_1 - (b_1 + ... + b_R) - (a_2 + ... + a_R)
    + (b_L + ... + b_m) + (a_{L+1} + ... + a_m) for a beta pair, and
    a_1 - (b_1 + ... + b_{R-1}) - (a_2 + ... + a_R) + (b_L + ... + b_m)
    + (a_L + ... + a_m) for an alpha pair (1-based indices)."""
    m = len(alphas)
    a, b = (lambda i: alphas[i - 1]), (lambda i: betas[i - 1])
    if pair == "beta":
        neg = [b(i) for i in range(1, R + 1)] + [a(i) for i in range(2, R + 1)]
        pos = [b(i) for i in range(L, m + 1)] + [a(i) for i in range(L + 1, m + 1)]
    else:
        neg = [b(i) for i in range(1, R)] + [a(i) for i in range(2, R + 1)]
        pos = [b(i) for i in range(L, m + 1)] + [a(i) for i in range(L, m + 1)]
    return tuple(x - sum(r[c] for r in neg) + sum(r[c] for r in pos)
                 for c, x in enumerate(alphas[0]))


@pytest.mark.parametrize("l", range(6, 17, 2))
def test_chain_vector_is_the_index_range_sum(l):
    """The arcs of the cycle walk give the paper's index-range chain vector
    for both pairs and every 1 <= L, R <= m, the valid pairs among them."""
    alphas, betas = rewrite._canonical_cycle_labels(l)
    m = l // 2
    for pair in ("beta", "alpha"):
        for L in range(1, m + 1):
            for R in range(1, m + 1):
                assert (rewrite._chain_vector(pair, alphas, betas, L, R)
                        == _index_range_chain(pair, alphas, betas, L, R)), (pair, L, R)


def test_run_plays_swaps_and_rotation_macros():
    """``_Script.run`` plays an int as ``swap`` and a name as that rotation
    macro, with the same steps as the explicit calls; a non-orthogonal
    position is refused as ``swap`` refuses it."""
    ran, explicit = catalog_script("E8(b5)"), catalog_script("E8(b5)")
    ran.run(rewrite._LAST_TO_FRONT, 1, 2, rewrite._FIRST_TO_LAST)
    explicit.rotate_last_to_front()
    explicit.swap(1)
    explicit.swap(2)
    explicit.rotate_first_to_last()
    assert ran.steps == explicit.steps
    assert {st.op for st in ran.steps} == {"start", "conj", "flip", "perm"}
    word = ran.word
    i = next(p for p in range(len(word) - 1) if dot(word[p], word[p + 1]) != 0)
    before = list(ran.steps)
    with pytest.raises(ScriptIntegrityError, match=f"swap at {i} requires an orthogonal pair"):
        ran.run(i)
    assert ran.steps == before


def test_script_assertions_refuse_what_they_check():
    """On the D4(a1) catalog word (e1-e2, e3-e4, e2-e3, e2+e3): e2-e3 is
    not orthogonal to e1-e2, the two meet at normalized inner -1/2, and
    position 0 does not hold e3-e4.  A refusal records no step."""
    sc = catalog_script("D4(a1)")
    word = sc.word
    with pytest.raises(ScriptIntegrityError, match="requires an orthogonal tail"):
        sc.conjugate_to_front(0)
    with pytest.raises(ScriptIntegrityError,
                       match="pair: expected normalized inner 0, got -1/2"):
        sc.require_inner(word[0], ((word[2], 0, "pair"),))
    with pytest.raises(ScriptIntegrityError,
                       match="slot: position 0 holds e1-e2, expected e3-e4"):
        sc.require_root_at(0, word[1], "slot")
    assert [st.op for st in sc.steps] == ["start"]


def test_require_inner_stops_at_the_first_failing_row():
    """On the D4(a1) catalog word, e1-e2 is orthogonal to e3-e4 and meets
    both e2-e3 and e2+e3 at -1/2: the second row is the one reported, under
    the current stage."""
    sc = catalog_script("D4(a1)")
    word = sc.word
    sc.set_stage("stage 9")
    with pytest.raises(ScriptIntegrityError) as exc:
        sc.require_inner(word[0], ((word[1], 0, "first"), (word[2], 0, "second"),
                                   (word[3], 0, "third")))
    assert str(exc.value) == "D4(a1): stage 9: second: expected normalized inner 0, got -1/2"
    sc.require_inner(word[0], ((word[1], 0, "first"), (word[2], Q(-1, 2), "second")))


def test_verify_commutation():
    assert verify_commutation(build_by_name("D8"), "4k")
    assert verify_commutation(build_by_name("D6"), "4k-2")
    with pytest.raises(ValueError):
        verify_commutation(build_by_name("D8"), "4k-2")
    with pytest.raises(ValueError):
        verify_commutation(build_by_name("D7"), "4k")
    with pytest.raises(ValueError):
        verify_commutation(build_by_name("E6"), "4k")
    with pytest.raises(ValueError):
        verify_commutation(build_by_name("D6"), "mystery")


SMALL_WORDS = [name for name in dg.catalog_names() if len(dg.catalog(name).word) <= 6]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_WORDS), st.data())
def test_random_moves_keep_word_charpoly(name, data):
    """s-permutations, sign flips and conjugations by reflections keep the
    word's charpoly, and the conjugator carries the initial element to the
    current one after every move."""
    entry = dg.catalog(name)
    system = build_by_name(entry.system)
    space = weyl.perm_space(system)
    start = initial_state(system, entry.word)
    poly = word_charpoly(system, start.word)
    k = len(start.word)
    moves = ("perm", "flip", "conj") if k > 1 else ("flip", "conj")
    state = start
    for move in data.draw(st.lists(st.sampled_from(moves), min_size=1, max_size=8)):
        if move == "perm":
            i = data.draw(st.integers(0, k - 2))
            state = apply_s_permutation(state, i, data.draw(st.sampled_from(("left", "right"))))
        elif move == "flip":
            state = apply_sign_flip(state, data.draw(st.integers(0, k - 1)))
        else:
            roots = st.lists(st.sampled_from(system.roots), min_size=1, max_size=3)
            state = apply_conjugation(state, data.draw(roots))
        assert word_charpoly(system, state.word) == poly
        assert space.conjugates(state.conjugator_perm, start.element_perm, state.element_perm)
        assert space.word_perm(state.word) == state.element_perm


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_WORDS), st.data())
def test_inverse_undoes_every_move(name, data):
    """Playing a move and then its ``_inverse`` restores the exact previous
    state, conjugator included; the script's moves replay."""
    entry = dg.catalog(name)
    system = build_by_name(entry.system)
    sc = rewrite._Script(name, system, entry.word)
    k = len(sc.word)
    moves = ("perm", "flip", "conj") if k > 1 else ("flip", "conj")
    for op in data.draw(st.lists(st.sampled_from(moves), min_size=1, max_size=6)):
        if op == "perm":
            args = (data.draw(st.integers(0, k - 2)),
                    data.draw(st.sampled_from(("left", "right"))))
        elif op == "flip":
            args = (data.draw(st.integers(0, k - 1)),)
        else:
            roots = st.lists(st.sampled_from(system.roots), min_size=1, max_size=3)
            args = (tuple(data.draw(roots)),)
        before = sc.state
        sc.play(op, args)
        sc.play(*rewrite._inverse(op, args))
        assert sc.state == before, (op, args)
        sc.play(op, args)
    assert replay(rewrite.RewriteTrace(sc.name, tuple(sc.steps)))


CARRY_WORDS = [name for name in dg.catalog_names()
               if dg.catalog(name).system in ("D4", "D5", "D6", "E6")]


@st.composite
def random_move_traces(draw):
    """A trace of random moves from a seeded W-conjugate of a catalog word
    in D4, D5, D6 or E6: conjugations by 1-3 roots, s-permutations at any
    position and direction, and sign flips."""
    entry = dg.catalog(draw(st.sampled_from(CARRY_WORDS)))
    system = build_by_name(entry.system)
    letters = draw(st.lists(st.sampled_from(system.simple_roots), max_size=6))
    moved = apply_conjugation(initial_state(system, entry.word), letters).word
    steps = [rewrite.RewriteStep("start", (), "", initial_state(system, moved))]
    k = len(moved)
    roots = st.lists(st.sampled_from(system.roots), min_size=1, max_size=3)
    for op in draw(st.lists(st.sampled_from(("conj", "perm", "flip")), max_size=10)):
        state = steps[-1].state
        if op == "conj":
            args = (tuple(draw(roots)),)
            state = apply_conjugation(state, *args)
        elif op == "perm":
            args = (draw(st.integers(0, k - 2)), draw(st.sampled_from(("left", "right"))))
            state = apply_s_permutation(state, *args)
        else:
            args = (draw(st.integers(0, k - 1)),)
            state = apply_sign_flip(state, *args)
        steps.append(rewrite.RewriteStep(op, args, "", state))
    return rewrite.RewriteTrace("random moves", tuple(steps))


def conj_positions(trace):
    return [t for t, step in enumerate(trace.steps) if step.op == "conj"]


@settings(max_examples=60, deadline=None)
@given(random_move_traces())
def test_a_carried_charpoly_is_the_computed_one(trace):
    """A ``conj`` step that takes its predecessor's polynomial serialises
    what its own word computes afresh."""
    assert_rows_carry_own_charpolys(trace)


@settings(max_examples=40, deadline=None)
@given(random_move_traces(), st.data())
def test_a_conj_step_with_another_conjugator_still_reads_its_own_word(trace, data):
    """A ``conj`` step whose recorded ``u_word`` is not the one that made its
    state serialises its own word's polynomial at every step."""
    positions = conj_positions(trace)
    assume(positions)
    t = data.draw(st.sampled_from(positions))
    system = trace.initial_state.system
    u_word = data.draw(st.lists(st.sampled_from(system.roots), min_size=1, max_size=3))
    assume(tuple(u_word) != trace.steps[t].args[0])
    steps = list(trace.steps)
    steps[t] = dataclasses.replace(steps[t], args=(tuple(u_word),))
    assert_rows_carry_own_charpolys(dataclasses.replace(trace, steps=tuple(steps)))


@settings(max_examples=40, deadline=None)
@given(random_move_traces(), st.data())
def test_a_conj_step_holding_a_dependent_word_is_refused(trace, data):
    """A ``conj`` step whose word repeats a root has no word-basis charpoly:
    it cannot take its predecessor's."""
    positions = conj_positions(trace)
    assume(positions)
    t = data.draw(st.sampled_from(positions))
    steps = list(trace.steps)
    idx = steps[t].state.idx
    dependent = dataclasses.replace(steps[t].state, idx=(idx[0], idx[0]) + idx[2:])
    steps[t] = dataclasses.replace(steps[t], state=dependent)
    with pytest.raises(ValueError):
        dataclasses.replace(trace, steps=tuple(steps)).to_json_obj()


def test_e8b5_is_built_and_serialised_with_two_charpolys(monkeypatch):
    """``finish`` makes the first and the last word's polynomials; every
    ``conj`` step carries its predecessor's and serialising reads the first
    word's again."""
    transform_long_cycle("E8(b5)")  # the catalog and the reflections are built
    rewrite._index_charpoly.cache_clear()
    calls = []
    charpoly = rewrite.charpoly
    monkeypatch.setattr(rewrite, "charpoly", lambda m: calls.append(m) or charpoly(m))
    transform_long_cycle("E8(b5)").to_json_obj()
    assert len(calls) == 2


def test_position_moves_look_no_root_up(monkeypatch):
    """s-permutations and sign flips read reflections by root index alone."""
    state = connection_square_state()
    calls = []
    index = RootSystem.index
    monkeypatch.setattr(RootSystem, "index", lambda self, v: calls.append(v) or index(self, v))
    state = apply_s_permutation(state, 0, "left")
    state = apply_s_permutation(state, 2, "right")
    state = apply_sign_flip(state, 1)
    assert calls == []
    assert weyl.perm_space(state.system).word_perm(state.word) == state.element_perm
