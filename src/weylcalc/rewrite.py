"""Equivalence transformations on reflection words.

A word of reflections can be rewritten without leaving the conjugacy
class of its product by three primitive moves:

* conjugation -- replace every root by its image under the product u
  of a word of reflections, turning w into u w u^{-1};
* s-permutation -- replace the adjacent pair (a_i, a_{i+1}) by
  (s_{a_i}(a_{i+1}), a_i) or by (a_{i+1}, s_{a_{i+1}}(a_i)), which
  leaves the product untouched;
* sign flip -- negate one root, which fixes its reflection.

Each move is one public function (``apply_conjugation``,
``apply_s_permutation``, ``apply_sign_flip``) taking the arguments a
trace step records; the scripts and ``replay`` play every move through
it.  States hold the word as positions in ``system.roots`` and the
element and the conjugator as root permutations only, so a move reads
reflections by index and looks no root up.  This module provides those
states, replayable traces with built-in integrity checking, and the
explicit elimination scripts that convert each long-cycle Carter diagram
into its partner containing only 4-cycles: the named case scripts for
D6/E7/E8, the generic walk on a pure D_l cycle (both parity cases,
driven by chain-root vectors), the 4-cycle elimination move, and the
classification of oriented 5-cycles in D_5.

Composition convention: a word (r_1, ..., r_k) denotes the product
s_{r_1} ... s_{r_k} acting on column vectors, rightmost factor first.

Every identity a move claims is re-proved exactly by comparing root
permutations (``weyl.PermSpace``): W acts faithfully on its roots and
fixes the orthogonal complement of their span, so equal permutations
mean equal matrices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Iterable, Sequence

from . import diagram as dg
from . import oracle
from . import rootsys
from . import weyl
from .exactla import (
    Matrix,
    Poly,
    Vector,
    charpoly,
    idot,
    poly_str,
    vec_add,
    vec_sub,
)
from .rootsys import RootSystem
from .weyl import Perm, Word


class ScriptIntegrityError(RuntimeError):
    """An intermediate identity of a rewrite script failed exactly."""

    def __init__(self, step: str, message: str):
        super().__init__(f"{step}: {message}")
        self.step = step
        self.message = message


# --------------------------------------------------------------------------
# States and primitive operations.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RewriteState:
    """A reflection word, held as the positions ``idx`` of its roots in
    ``system.roots``, together with its product and the accumulated
    conjugator, both as root permutations (``weyl.PermSpace``):
    conjugator · initial element · conjugator^-1 == element.  A matrix is
    ``PermSpace.matrix_of_perm`` of either."""

    system: RootSystem
    idx: tuple[int, ...]
    element_perm: Perm
    conjugator_perm: Perm

    @property
    def word(self) -> tuple[Vector, ...]:
        """The word as the system's own root tuples."""
        roots = self.system.roots
        return tuple(roots[i] for i in self.idx)


def initial_state(system: RootSystem, word: Sequence[Vector]) -> RewriteState:
    """The word as a state; ValueError for a non-root."""
    idx = tuple(map(system.index, word))
    space = weyl.perm_space(system)
    return RewriteState(system, idx, space.index_word_perm(idx), space.ident)


def apply_conjugation(s: RewriteState, u_word: Sequence[Vector]) -> RewriteState:
    """Conjugate the whole word by the product u of the reflections in
    ``u_word``, the word a ``conj`` step records: w -> u w u^{-1};
    ValueError for a non-root."""
    space = weyl.perm_space(s.system)
    u = space.word_perm(u_word)
    idx = tuple(u[i] for i in s.idx)
    # Exactness per letter: u s_r u^{-1} == s_{u(r)}.  Together these prove
    # that the product of the new letters is u w u^{-1}.
    reflections = [space.reflection_at(i) for i in idx]
    for old, new in zip(s.idx, reflections):
        if not space.conjugates(u, space.reflection_at(old), new):
            raise ScriptIntegrityError("conjugation", "reflection transport identity failed")
    return RewriteState(s.system, idx, space.compose(*reflections),
                        space.compose(u, s.conjugator_perm))


def apply_s_permutation(s: RewriteState, i: int, direction: str) -> RewriteState:
    """Exchange positions i, i+1 without changing the product.

    left:  (a_i, a_{i+1}) -> (s_{a_i}(a_{i+1}), a_i)
    right: (a_i, a_{i+1}) -> (a_{i+1}, s_{a_{i+1}}(a_i))
    """
    k = len(s.idx)
    if type(i) is not int or not 0 <= i < k - 1:
        raise ValueError(f"position {i!r} out of range for a word of length {k}")
    if direction not in ("left", "right"):
        raise ValueError("direction must be 'left' or 'right'")
    a, b = s.idx[i], s.idx[i + 1]
    space = weyl.perm_space(s.system)
    ra, rb = space.reflection_at(a), space.reflection_at(b)
    pair = (ra[b], a) if direction == "left" else (b, rb[a])
    if space.compose(ra, rb) != space.index_word_perm(pair):
        raise ScriptIntegrityError("s-permutation", "two-letter product identity failed")
    idx = s.idx[:i] + pair + s.idx[i + 2:]
    return RewriteState(s.system, idx, s.element_perm, s.conjugator_perm)


def apply_sign_flip(s: RewriteState, i: int) -> RewriteState:
    """Negate the root at position i; its reflection is unchanged.  -r is
    read off s_r (s_r(r) = -r), and the check compares s_r with s_{-r},
    which ``weyl.PermSpace.reflection_at`` builds apart, along -r's path."""
    if type(i) is not int or not 0 <= i < len(s.idx):
        raise ValueError(f"position {i!r} out of range for a word of length {len(s.idx)}")
    space = weyl.perm_space(s.system)
    r = s.idx[i]
    reflection = space.reflection_at(r)
    neg = reflection[r]
    if space.reflection_at(neg) != reflection:
        raise ScriptIntegrityError("sign flip", "reflection changed under negation")
    idx = s.idx[:i] + (neg,) + s.idx[i + 1:]
    return RewriteState(s.system, idx, s.element_perm, s.conjugator_perm)


# --------------------------------------------------------------------------
# Traces.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RewriteStep:
    op: str          # "start" | "conj" | "perm" | "flip"
    args: tuple      # () | (u_word,) | (i, direction) | (i,)
    detail: str
    state: RewriteState


@dataclass(frozen=True)
class RewriteTrace:
    name: str
    steps: tuple[RewriteStep, ...]

    @property
    def initial_state(self) -> RewriteState:
        return self._step(0).state

    @property
    def final_state(self) -> RewriteState:
        return self._step(-1).state

    def _step(self, i: int) -> RewriteStep:
        if not self.steps:
            raise ValueError(f"rewrite trace {self.name!r} has no steps")
        return self.steps[i]

    def to_json_obj(self) -> list[dict]:
        """One row per step, with the word's :func:`word_charpoly`.

        The polynomial is made once per (product permutation, word
        length), read off each step's own word, never its stored
        ``element_perm``.  This is exact.  Take independent roots
        r_1..r_n with product w.  The word-basis charpoly is that of w on
        span(word); w fixes span(word)^perp pointwise, so it equals
        charpoly_ambient(w) / (t-1)^(dim-n), a function of w and n alone,
        and W acts faithfully on its roots, so the permutation determines
        w.  A dependent word of length n never meets an entry stored
        from an independent one: its product fixes span(word)^perp, so
        codim Fix(w) <= rank of the word < n, while an independent word
        has codim Fix(w) = n exactly (Carter 1972, Lemma 3).  So it
        misses, and :func:`word_charpoly` raises ValueError on it.

        A ``conj`` step that misses takes the previous step's polynomial
        when the product u of its recorded ``u_word`` conjugates the
        previous word's product to its own and the two words have the same
        length.  Then w = u w_prev u^-1, so the ambient charpolys agree;
        the previous word is independent (its entry was made or carried
        from one), so codim Fix(w) = codim Fix(w_prev) = n and the new word
        cannot be dependent either.  Any other miss is computed."""
        if not self.steps:
            return []
        out = []
        system = self.initial_state.system
        space = weyl.perm_space(system)
        charpolys: dict[tuple, str] = {}
        prev = None
        for step in self.steps:
            idx = step.state.idx
            key = (space.index_word_perm(idx), len(idx))
            if key not in charpolys:
                if (step.op == "conj" and prev is not None and prev[1] == key[1]
                        and space.conjugates(space.word_perm(step.args[0]), prev[0], key[0])):
                    charpolys[key] = charpolys[prev]
                else:
                    charpolys[key] = poly_str(_index_charpoly(system, idx), "t")
            out.append({
                "op": step.op,
                "detail": step.detail,
                "word_roots": [system.format_root(system.roots[i]) for i in idx],
                "charpoly": charpolys[key],
            })
            prev = key
        return out


def word_charpoly(system: RootSystem, word: Sequence[Vector]) -> Poly:
    """Characteristic polynomial of the word's product in the word-root
    basis (degree equals the word length); ValueError for a non-root or
    a dependent word, whose message names the first dependent root.

    The polynomial certifies its own word.  With A the word's Cartan
    matrix and W its word matrix, p(1) = det(I - W) = det A
    = 2^k det G / prod (r_i, r_i), G the Gram matrix, which is positive
    semidefinite: p(1) != 0 exactly when the roots are independent, and
    the word matrix is then the product on span(word).  p(1) = 0 sends the
    word to the leading minors of :meth:`RootSystem.independent_gram`,
    which refuse it naming its first dependent root.
    """
    gram = system.int_gram(word)
    p = charpoly(weyl.int_word_matrix_from_gram(gram, range(len(gram))))
    # an int matrix has whole coefficients, so p(1) is a sum of ints
    if not sum(c.numerator for c in p):
        system.independent_gram([system.index(r) for r in word])
    return p


@functools.lru_cache(maxsize=256)
def _index_charpoly(system: RootSystem, idx: tuple[int, ...]) -> Poly:
    """:func:`word_charpoly` of the word at positions ``idx``, kept for
    the last words asked: a script's ``finish`` makes its first word's, and
    serialising the trace reads it again.  The polynomial is an immutable
    tuple, so every caller may share it."""
    return word_charpoly(system, tuple(system.roots[i] for i in idx))


def replay(trace: RewriteTrace) -> bool:
    """Rebuild the trace with the script builder, from its first word, and
    compare every snapshot exactly; a first step other than a bare
    ``start`` or a step that cannot be re-run is a False verdict."""
    if not trace.steps:
        return False
    start = trace.steps[0]
    if start.op != "start" or start.args != ():
        return False
    try:
        sc = _Script(trace.name, start.state.system, start.state.word)
        for step in trace.steps[1:]:
            sc.play(step.op, step.args)
    except (ValueError, IndexError, TypeError, ScriptIntegrityError):
        return False
    return [st.state for st in sc.steps] == [st.state for st in trace.steps]


# --------------------------------------------------------------------------
# Script builder: macros over the primitive moves, checked at every step.
# --------------------------------------------------------------------------

#: Rotation macros of :class:`_Script`, named in a move list for ``run``.
_FIRST_TO_LAST = "rotate_first_to_last"
_LAST_TO_FRONT = "rotate_last_to_front"


class _Script:
    def __init__(self, name: str, system: RootSystem, word: Sequence[Vector],
                 note: str = "starting word"):
        self.name = name
        self.system = system
        start = initial_state(system, word)
        self.steps: list[RewriteStep] = [RewriteStep("start", (), note, start)]
        self._space = weyl.perm_space(system)
        self._stage = ""

    # -- bookkeeping --------------------------------------------------------

    @property
    def state(self) -> RewriteState:
        return self.steps[-1].state

    @property
    def word(self) -> tuple[Vector, ...]:
        return self.state.word

    def set_stage(self, text: str) -> None:
        self._stage = text

    def _detail(self, text: str) -> str:
        return f"{self._stage}: {text}" if self._stage else text

    def _check_conjugator(self, state: RewriteState) -> None:
        w0 = self.steps[0].state.element_perm
        if not self._space.conjugates(state.conjugator_perm, w0, state.element_perm):
            raise ScriptIntegrityError(self.name, "conjugator invariant broken")

    def finish(self, expected: str,
               parts: tuple[Sequence[Vector], Sequence[Vector]]) -> RewriteTrace:
        """The one exit of a script: re-check the whole-script invariants
        and the end it certifies, then return the trace.

        The end is the bicolored word ``parts`` = (alpha block, beta
        block), the two blocks in order and each an orthogonal set, whose
        diagram identifies as ``expected``, is admissible and has no cycle
        longer than 4.
        """
        first, last = self.steps[0].state, self.steps[-1].state
        if _index_charpoly(self.system, first.idx) != _index_charpoly(self.system, last.idx):
            raise ScriptIntegrityError(self.name, "word characteristic polynomial drifted")
        self._check_conjugator(last)
        final = dg.from_roots(self.system, last.word)
        self.require_word((*parts[0], *parts[1]), "final word (alpha block, beta block)")
        k = len(parts[0])
        self.require(all((i < k) != (j < k) for i, j, _ in final.edges),
                     "final word is not bicolored: a block is not orthogonal")
        found = dg.identify(final)
        self.require(found == expected,
                     f"final diagram identifies as {found}, expected {expected}")
        self.require(dg.is_admissible(final), "final diagram is not admissible")
        self.require(all(len(c) <= 4 for c in final.cycles),
                     "final diagram still has a cycle longer than 4")
        return RewriteTrace(self.name, tuple(self.steps))

    # -- primitive moves ----------------------------------------------------

    def play(self, op: str, args: tuple, note: str = "") -> None:
        """Apply the move ``op`` with ``args`` and record it.  Only a
        conjugation changes the element and the conjugator, so only it
        re-proves their invariant; the other moves check their own product."""
        if op == "conj":
            u_word = tuple(tuple(r) for r in args[0])
            args = (u_word,)
            new = apply_conjugation(self.state, u_word)
            self._check_conjugator(new)
            label = " ".join("s_" + self.system.format_root(r) for r in u_word)
            default = f"conjugate by {label}"
        elif op == "perm":
            i, direction = args
            new = apply_s_permutation(self.state, i, direction)
            default = f"exchange positions {i},{i + 1} ({direction})"
        elif op == "flip":
            (i,) = args
            new = apply_sign_flip(self.state, i)
            default = f"flip the sign of position {i}"
        else:
            raise ValueError(f"unknown op {op!r}")
        self.steps.append(RewriteStep(op, args, self._detail(note or default), new))

    def conj(self, u_word: Sequence[Vector], note: str = "") -> None:
        self.play("conj", (u_word,), note)

    def perm(self, i: int, direction: str, note: str = "") -> None:
        self.play("perm", (i, direction), note)

    def flip(self, i: int, note: str = "") -> None:
        self.play("flip", (i,), note)

    # -- macros -------------------------------------------------------------

    def _orthogonal(self, i: int, j: int) -> bool:
        """Whether the roots at positions i and j of the word are orthogonal."""
        idx, lattice = self.state.idx, self.system.int_roots
        return idot(lattice[idx[i]], lattice[idx[j]]) == 0

    def swap(self, i: int, note: str = "") -> None:
        if not self._orthogonal(i, i + 1):
            raise ScriptIntegrityError(
                self.name, f"swap at {i} requires an orthogonal pair")
        self.perm(i, "right", note or f"swap the orthogonal pair {i},{i + 1}")

    def run(self, *moves: int | str) -> None:
        """Play a run of moves with their default notes: an int ``i`` is
        ``swap(i)``, a string names a rotation macro (``_FIRST_TO_LAST``,
        ``_LAST_TO_FRONT``)."""
        for move in moves:
            if isinstance(move, int):
                self.swap(move)
            else:
                getattr(self, move)()

    def move_left(self, i: int, j: int) -> None:
        """Carry position i leftwards to position j by orthogonal swaps."""
        self.run(*range(i - 1, j - 1, -1))

    def move_right(self, i: int, j: int) -> None:
        """Carry position i rightwards to position j by orthogonal swaps."""
        self.run(*range(i, j))

    def rotate_last_to_front(self, note: str = "") -> None:
        self.conjugate_to_front(len(self.word) - 1,
                                note or "rotate: conjugate by the last reflection")

    def rotate_first_to_last(self, note: str = "") -> None:
        k = len(self.word)
        self.conj((self.word[0],),
                  note or "rotate: conjugate by the first reflection")
        self.flip(0)
        for p in range(k - 1):
            self.perm(p, "left")

    def conjugate_to_front(self, p: int, note: str = "") -> None:
        """Conjugate by the reflection at position p and carry it to the
        front; every letter right of p must be orthogonal to it."""
        if not all(self._orthogonal(p, q) for q in range(p + 1, len(self.state.idx))):
            raise ScriptIntegrityError(
                self.name, "conjugate_to_front requires an orthogonal tail")
        self.conj((self.word[p],), note or "conjugate by the chosen reflection")
        self.flip(p)
        for q in range(p - 1, -1, -1):
            self.perm(q, "right")

    # -- assertions ---------------------------------------------------------

    def require(self, condition: bool, what: str) -> None:
        if not condition:
            raise ScriptIntegrityError(self.name, what)

    def require_inner(self, x: Vector, rows: Iterable[tuple[Vector, Q, str]]) -> None:
        """Require the normalized inner product of x with each row's root
        ``y`` to be its ``expected`` value; a failing row's ``what`` is
        reported under the current stage."""
        for y, expected, what in rows:
            got = self.system.normalized_inner(x, y)
            if got != expected:
                raise ScriptIntegrityError(
                    self.name,
                    f"{self._detail(what)}: expected normalized inner {expected}, got {got}")

    def require_word(self, expected: Sequence[Vector], what: str) -> None:
        expected = tuple(tuple(r) for r in expected)
        if self.word != expected:
            got = ", ".join(self.system.format_root(r) for r in self.word)
            want = ", ".join(self.system.format_root(r) for r in expected)
            raise ScriptIntegrityError(self.name, f"{what}: word is ({got}), expected ({want})")

    def require_root_at(self, pos: int, expected: Vector, what: str) -> None:
        if self.word[pos] != tuple(expected):
            raise ScriptIntegrityError(
                self.name,
                f"{what}: position {pos} holds {self.system.format_root(self.word[pos])}, "
                f"expected {self.system.format_root(tuple(expected))}")


def _inverse(op: str, args: tuple) -> tuple[str, tuple]:
    """The move that undoes ``op`` with ``args``; a sign flip undoes itself."""
    if op == "conj":
        return op, (args[0][::-1],)
    if op == "perm":
        i, direction = args
        return op, (i, "right" if direction == "left" else "left")
    return op, args


# --------------------------------------------------------------------------
# Catalog helpers.
# --------------------------------------------------------------------------

def _entry_labels(entry: dg.CatalogEntry) -> dict[str, Vector]:
    return {label: entry.word[i] for i, label in enumerate(entry.diagram.labels)}


# --------------------------------------------------------------------------
# The named case scripts, written in the catalog a -> b direction and
# delivered inverted (b -> a).
# --------------------------------------------------------------------------

#: The paper's Table 1: each long-cycle b-diagram and its 4-cycle partner.
TABLE1 = {"D6(b2)": "D6(a2)", "E7(b2)": "E7(a2)", "E8(b3)": "E8(a3)", "E8(b5)": "E8(a5)"}
LONG_CYCLE_NAMES = (*TABLE1, "Dl(b)")


@dataclass(frozen=True)
class _Case:
    """A named case script, written a -> b in three stages.

    Each stage plays its move list with :meth:`_Script.run`.  Stages 1 and
    2 then absorb two letters at ``absorb``, creating mu and then sigma;
    stage 2 first rotates the last two letters to the front.
    """

    absorb: int
    stage1: tuple[int, ...]
    stage2: tuple[int, ...]
    stage3: tuple[int | str, ...]
    # Normalized inner products of the cut root sigma against every other
    # letter of the b-side word, asserted on the inverted script before it
    # plays a move.
    sigma_relations: tuple[tuple[str, Q], ...]


_CASES = {
    "E8(b3)": _Case(
        3, (2, 1, 5, 4), (1, 0, 2, 1),
        (0, _FIRST_TO_LAST, 6, 5, 4, 0, _FIRST_TO_LAST, 6, 0, 1, 2, _LAST_TO_FRONT),
        (("alpha3", Q(0)), ("alpha2", Q(0)), ("beta1", Q(0)), ("alpha1", Q(0)),
         ("beta4", Q(1, 2)), ("beta2", Q(-1, 2)), ("alpha4", Q(-1, 2)))),
    "E7(b2)": _Case(
        2, (1, 0, 4, 3), (1, 0),
        (_FIRST_TO_LAST, 5, 4, 3, _FIRST_TO_LAST, 5, _LAST_TO_FRONT),
        (("alpha3", Q(0)), ("alpha2", Q(0)), ("beta1", Q(0)),
         ("beta4", Q(1, 2)), ("beta2", Q(-1, 2)), ("alpha4", Q(-1, 2)))),
    "D6(b2)": _Case(
        1, (3, 2), (),
        (_FIRST_TO_LAST, 4, _LAST_TO_FRONT),
        (("alpha3", Q(0)), ("alpha2", Q(0)), ("beta1", Q(0)),
         ("beta4", Q(1, 2)), ("beta2", Q(-1, 2)))),
}


def _forward_case(name: str, system: RootSystem) -> _Script:
    """The catalog word of the case's a-diagram -> the b-diagram word."""
    case = _CASES[name]
    a = dg.catalog(TABLE1[name])
    lab = _entry_labels(a)
    sc = _Script(f"{a.name} → {name}", system, a.word)
    p = case.absorb

    sc.set_stage("stage 1")
    sc.run(*case.stage1)
    sc.perm(p, "left", "absorb: s_{a3} carries b3 to b3+a3")
    sc.perm(p - 1, "left", "absorb: s_{a2} carries b3+a3 to the new root mu")
    mu = vec_sub(vec_add(lab["beta3"], lab["alpha3"]), lab["alpha2"])
    sc.require_root_at(p - 1, mu, "mu = b3 + a3 - a2")

    sc.set_stage("stage 2")
    sc.run(_LAST_TO_FRONT, _LAST_TO_FRONT, *case.stage2)
    sc.perm(p, "left", "absorb: s_{b4} carries mu to mu+b4")
    sc.perm(p - 1, "left", "absorb: s_{b2} carries mu+b4 to the new root sigma")
    sigma = vec_sub(vec_add(mu, lab["beta4"]), lab["beta2"])
    sc.require_root_at(p - 1, sigma, "sigma = mu + b4 - b2")

    sc.set_stage("stage 3")
    sc.run(*case.stage3)
    sc.set_stage("")
    return sc


def _inverted_case_trace(name: str) -> RewriteTrace:
    b_entry = dg.catalog(name)
    a_entry = dg.catalog(TABLE1[name])
    system = rootsys.build_by_name(b_entry.system)
    lab = _entry_labels(b_entry)
    sc = _Script(f"{name} → {a_entry.name}", system, b_entry.word,
                 note=f"catalog word of {name}")
    sc.require_inner(lab["sigma"], ((lab[other], expected, f"(sigma, {other})")
                                    for other, expected in _CASES[name].sigma_relations))

    fwd = _forward_case(name, system)
    fwd.require_word(b_entry.word, "forward script must land on the catalog word")
    for step in reversed(fwd.steps[1:]):
        sc.play(*_inverse(step.op, step.args))
    x, y = a_entry.diagram.bipartition
    return sc.finish(a_entry.name, ([a_entry.word[i] for i in x], [a_entry.word[i] for i in y]))


# --------------------------------------------------------------------------
# The E8(b5) -> E8(a5) script (direct, six stages).
# --------------------------------------------------------------------------

def _e8b5_trace() -> RewriteTrace:
    b = dg.catalog("E8(b5)")
    a = dg.catalog(TABLE1[b.name])
    system = rootsys.build_by_name(b.system)
    lab = _entry_labels(b)
    b1, b2, b4 = lab["beta1"], lab["beta2"], lab["beta4"]
    g = lab["gamma"]
    a1, a2, a3, a4 = lab["alpha1"], lab["alpha2"], lab["alpha3"], lab["alpha4"]

    sc = _Script(f"{b.name} → {a.name}", system, b.word, note=f"catalog word of {b.name}")

    sc.set_stage("stage 1")
    sc.run(_LAST_TO_FRONT, 1, 2)
    sc.perm(0, "right", "absorb: s_{b2} carries a4 to a4-b2")
    sc.perm(1, "right", "absorb: s_{b4} carries a4-b2 to the new root mu")
    mu = vec_add(vec_sub(a4, b2), b4)
    sc.require_root_at(2, mu, "mu = a4 - b2 + b4")
    sc.require_word((b2, b4, mu, b1, g, a1, a2, a3), "stage 1 word")
    sc.require_inner(mu, ((a3, Q(-1, 2), "(mu,a3)"), (b4, Q(1, 2), "(mu,b4)"),
                          (a2, Q(1, 2), "(mu,a2)"), (b2, Q(-1, 2), "(mu,b2)"),
                          (a1, Q(1, 2), "(mu,a1)")))

    sc.set_stage("stage 2")
    sc.run(2, 5, 4, 6, 5)
    sc.perm(3, "right", "absorb: s_{a2} carries mu to mu-a2")
    sc.perm(4, "right", "absorb: s_{a3} carries mu-a2 to the new root b3")
    b3 = vec_add(vec_sub(mu, a2), a3)
    sc.require_root_at(5, b3, "b3 = mu - a2 + a3")
    sc.require_word((b2, b4, b1, a2, a3, b3, g, a1), "stage 2 word")
    sc.require_inner(b3, ((a3, Q(1, 2), "(b3,a3)"), (b4, Q(0), "(b3,b4)"),
                          (a2, Q(-1, 2), "(b3,a2)"), (b2, Q(0), "(b3,b2)")))

    sc.set_stage("stage 3")
    sc.run(_FIRST_TO_LAST, _FIRST_TO_LAST, _FIRST_TO_LAST)
    sc.perm(3, "left", "absorb: s_g carries a1 to a1+g")
    sc.run(4, 5, 6)
    sc.perm(3, "right", "absorb: s_{b2} carries a1+g to the new root v")
    v = vec_add(vec_add(a1, g), b2)
    sc.require_root_at(4, v, "v = a1 + g + b2")
    sc.run(4, 5, _FIRST_TO_LAST, _FIRST_TO_LAST, 5, 6, 0, 2, 1)
    sc.require_word((b2, b1, b3, b4, v, a2, a3, g), "stage 3 word")
    sc.require_inner(v, ((b3, Q(0), "(v,b3)"), (g, Q(1, 2), "(v,g)"),
                         (a2, Q(-1, 2), "(v,a2)"), (b2, Q(1, 2), "(v,b2)")))

    sc.set_stage("stage 4")
    sc.run(0, 1, 2)
    sc.perm(3, "right", "absorb: s_v carries b2 to b2-v")
    sc.flip(4, "flip b2-v to the new root y")
    y = vec_add(a1, g)
    sc.require_root_at(4, y, "y = a1 + g")
    sc.require_word((b1, b3, b4, v, y, a2, a3, g), "stage 4 word")
    sc.require_inner(y, ((a2, Q(0), "(y,a2)"), (b1, Q(0), "(y,b1)"), (b3, Q(0), "(y,b3)"),
                         (b4, Q(0), "(y,b4)"), (a3, Q(0), "(y,a3)"), (g, Q(1, 2), "(y,g)")))

    sc.set_stage("stage 5")
    sc.run(_LAST_TO_FRONT, 1, 3, 2)
    sc.perm(0, "right", "absorb: s_{b3} carries g to g+b3")
    sc.perm(1, "right", "absorb: s_v carries g+b3 to the new root x")
    x = vec_sub(vec_sub(b3, a1), b2)
    sc.require_root_at(2, x, "x = b3 - a1 - b2")
    sc.run(4, 3)
    sc.require_word((b3, v, x, y, b1, b4, a2, a3), "stage 5 word")
    # (x, a3) reduces to (b3, a3), which the stage-2 block fixed at +1/2.
    sc.require_inner(x, ((y, Q(0), "(x,y)"), (b1, Q(0), "(x,b1)"), (b4, Q(0), "(x,b4)"),
                         (a2, Q(0), "(x,a2)"), (b3, Q(1, 2), "(x,b3)"),
                         (v, Q(-1, 2), "(x,v)"), (a3, Q(1, 2), "(x,a3)")))

    sc.set_stage("stage 6")
    sc.run(3, 2, 1, _LAST_TO_FRONT)
    sc.conj((b4,), "conjugate by s_{b4}")
    sc.flip(6, "restore the sign of b4")
    sc.run(5, 4, 3, 2, 1)
    sc.perm(0, "right", "absorb: s_{b4} returns a3+b4 to a3")
    sc.perm(1, "right", "absorb: s_{b3} carries a3 to a3-b3")
    sc.perm(2, "right", "absorb: s_{b1} carries a3-b3 to the new root u")
    u = vec_add(vec_sub(a3, b3), b1)
    sc.require_root_at(3, u, "u = a3 - b3 + b1")
    sc.swap(3)
    sc.require_inner(u, ((a2, Q(0), "(u,a2)"), (y, Q(0), "(u,y)"), (v, Q(0), "(u,v)"),
                         (b3, Q(-1, 2), "(u,b3)"), (b1, Q(1, 2), "(u,b1)"),
                         (b4, Q(-1, 2), "(u,b4)"), (x, Q(0), "(u,x)")))
    sc.set_stage("")
    return sc.finish(a.name, ((b4, b3, b1, v), (u, x, y, a2)))


# --------------------------------------------------------------------------
# Chain roots on the pure D_l cycle and the generic walk.
# --------------------------------------------------------------------------

def _cycle_b_name(l: int) -> str:
    return f"D{l}(b{l // 2 - 1})"


def cycle_a_name(l: int) -> str:
    """The D_l(a) class that the generic D_l(b) walk ends at."""
    return f"D{l}(a{l // 2 - 1})"


def _cycle_labels(system: RootSystem, word: Sequence[Vector]
                  ) -> tuple[list[Vector], list[Vector]]:
    """Label a bicolored pure-cycle word canonically.

    Returns (alphas, betas) with the single dotted edge at (a_1, b_1),
    a_{i+1} adjacent to b_i and b_{i+1}, and a_1 closing the cycle
    against b_m.  The first half of the word must be one orthogonal
    block and the second half the other.
    """
    word = tuple(tuple(r) for r in word)
    l = len(word)
    if l % 2:
        raise ScriptIntegrityError("cycle labels", "odd word length")
    m = l // 2
    d = dg.from_roots(system, word)
    if any((i < m) == (j < m) for i, j, _ in d.edges):
        raise ScriptIntegrityError("cycle labels", "word halves are not orthogonal sets")
    cycles = d.cycles
    if [len(c) for c in cycles] != [l]:
        raise ScriptIntegrityError("cycle labels", "word is not a single cycle")
    dotted = [(i, j) for i, j, style in d.edges if style == dg.DOTTED]
    if len(dotted) != 1:
        raise ScriptIntegrityError("cycle labels", "expected exactly one dotted edge")
    ((b1, a1),) = dotted                # edges run first half -> second half
    s = cycles[0].index(a1)
    walk = cycles[0][s:] + cycles[0][:s]
    if walk[1] != b1:                   # read across the dotted edge first
        walk = walk[:1] + walk[:0:-1]
    return [word[t] for t in walk[0::2]], [word[t] for t in walk[1::2]]


def _chain_vector(pair: str, alphas: Sequence[Vector], betas: Sequence[Vector],
                  L: int, R: int) -> Vector:
    """Chain vector on canonical cycle labels (1-based L >= R), as arcs of
    the cycle walk a_1, b_1, a_2, ..., a_m, b_m: walk[0] - sum(walk[1:cut])
    + sum(walk[back:]), where (cut, back) is (2R, 2L-1) for a beta pair
    and (2R-1, 2L-2) for an alpha pair."""
    walk = [r for ab in zip(alphas, betas) for r in ab]
    cut, back = (2 * R, 2 * L - 1) if pair == "beta" else (2 * R - 1, 2 * L - 2)
    v = walk[0]
    for r in walk[1:cut]:
        v = vec_sub(v, r)
    for r in walk[back:]:
        v = vec_add(v, r)
    return v


def _canonical_cycle_labels(l: int) -> tuple[list[Vector], list[Vector]]:
    entry = dg.catalog(_cycle_b_name(l))
    system = rootsys.build_by_name(entry.system)
    return _cycle_labels(system, entry.word)


def chain_root(kind: str, system: RootSystem, L: int, R: int) -> Vector:
    """Chain vector theta/mu(., .) on the pure cycle of D_l, checked to be
    a root.  (L, R) is order-insensitive; the pair family (beta or alpha)
    is recovered from the index sum.  An index that is not an int (a bool
    or a float included) is a ValueError."""
    if type(L) is not int or type(R) is not int:
        raise ValueError(f"chain indices L={L!r}, R={R!r} must be ints")
    if kind not in ("theta", "mu"):
        raise ValueError("kind must be 'theta' or 'mu'")
    if system.family != "D" or system.rank % 2 or system.rank < 6:
        raise ValueError("chain roots live on even D_l, l >= 6")
    l = system.rank
    if kind == "theta" and l % 4 != 0:
        raise ValueError(f"theta chains need l divisible by 4, got l={l}")
    if kind == "mu" and l % 4 != 2:
        raise ValueError(f"mu chains need l = 4k-2, got l={l}")
    m = l // 2
    L, R = max(L, R), min(L, R)
    if L + R == m + 1:
        pair, lo, hi = "beta", 1, m // 2
    elif L + R == m + 2:
        pair, lo, hi = "alpha", 2, m // 2 + 1
    else:
        raise ValueError(
            f"index sum L+R must be {m + 1} (beta pair) or {m + 2} "
            f"(alpha pair) for {kind} chains at l={l}")
    if not lo <= R <= hi:
        raise ValueError(f"index R={R} out of range [{lo},{hi}] for the {pair} pair")
    alphas, betas = _canonical_cycle_labels(l)
    v = _chain_vector(pair, alphas, betas, L, R)
    if not system.is_root(v):
        raise ScriptIntegrityError("chain_root", "chain vector is not a root")
    return v


def verify_commutation(system: RootSystem, case: str) -> bool:
    """Check the chain-passing identities on the pure D_l cycle: the chain
    reflection moves through a whole bicolored block, emerging as the next
    chain reflection, for every admissible index pair."""
    case = case.replace("−", "-")
    if case not in ("4k", "4k-2"):
        raise ValueError("case must be '4k' or '4k-2'")
    l = system.rank
    if system.family != "D" or l % 2 or l < 6:
        raise ValueError("commutation checks live on even D_l, l >= 6")
    if (l % 4 == 0) != (case == "4k"):
        raise ValueError(f"case {case} does not match l={l}")
    m, k = l // 2, (l + 2) // 4
    alphas, betas = _canonical_cycle_labels(l)
    space = weyl.perm_space(system)
    prod_a = space.word_perm(alphas)
    prod_b = space.word_perm(betas)
    refl = space.reflection_perm

    def chain(pair: str, L: int, R: int) -> Vector:
        return _chain_vector(pair, alphas, betas, L, R)

    ok = True
    # passing the alpha block: s_{chain(beta,L,R)} A == A s_{chain(alpha,L,R+1)}
    for R in range(1, m // 2 + 1):
        L = m + 1 - R
        ok = ok and space.conjugates(prod_a, refl(chain("alpha", L, R + 1)),
                                     refl(chain("beta", L, R)))
    # passing the beta block: s_{chain(alpha,L,R)} B == B s_{chain(beta,L-1,R)}
    for R in range(2, k + 1):
        L = m + 2 - R
        ok = ok and space.conjugates(prod_b, refl(chain("beta", L - 1, R)),
                                     refl(chain("alpha", L, R)))
    return ok


def _dl_trace(l: int) -> RewriteTrace:
    if type(l) is not int or l % 2 or not 6 <= l <= dg.DL_MAX:
        raise ValueError(f"l must be even with 6 <= l <= {dg.DL_MAX}")
    b_name = _cycle_b_name(l)
    entry = dg.catalog(b_name)
    system = rootsys.build_by_name(entry.system)
    m, k = l // 2, (l + 2) // 4
    four_k = l % 4 == 0
    kind = "theta" if four_k else "mu"

    sc = _Script(f"{b_name} cycle walk", system, entry.word,
                 note=f"catalog word of {b_name}")
    alphas, betas = _cycle_labels(system, sc.word)

    sc.set_stage("stage 1")
    target = tuple(betas) + tuple(alphas)
    for pos in range(l):
        sc.move_left(sc.word.index(target[pos], pos), pos)
    sc.require_word(target, "sorted bicolored word (b-block then a-block)")

    sc.set_stage("stage 2")
    sc.conjugate_to_front(m, "conjugate by s_{a1} and carry it to the front")
    sc.require_inner(alphas[0], ((betas[0], Q(1, 2), "dotted edge (a1, b1)"),))
    sc.perm(0, "right", "absorb: s_{b1} carries a1 to a1-b1")
    sc.move_right(1, m - 1)
    sc.perm(m - 1, "right", "absorb: s_{b_m} closes the first chain root")
    chain = _chain_vector("beta", alphas, betas, m, 1)
    sc.require_root_at(m, chain, f"chain {kind}(b_{m}, b_1)")

    sc.set_stage("stage 3")
    L, R = m, 1
    while True:
        for p in range(m, 2 * m - 1):
            sc.perm(p, "right")
        R += 1
        chain = _chain_vector("alpha", alphas, betas, L, R)
        sc.require_root_at(2 * m - 1, chain,
                           f"chain passed the a-block: {kind}(a_{L}, a_{R})")
        sc.rotate_last_to_front()
        if (L, R) == (k + 1, k):  # only when l = 4k-2: L+R is m+2 here
            break
        for p in range(m):
            sc.perm(p, "right")
        L -= 1
        chain = _chain_vector("beta", alphas, betas, L, R)
        sc.require_root_at(m, chain,
                           f"chain passed the b-block: {kind}(b_{L}, b_{R})")
        if (L, R) == (k + 1, k):  # only when l = 4k: L+R is m+1 here
            break
    sc.set_stage("")

    # The final word is (b-block, chain, a-tail) for 4k and
    # (chain, b-block, a-tail) for 4k-2.
    if four_k:
        theta = _chain_vector("beta", alphas, betas, k + 1, k)
        sc.require_inner(theta, ((alphas[k], Q(0), "(chain, a_{k+1})"),
                                 (betas[k - 1], Q(-1, 2), "(chain, b_k)"),
                                 (betas[k], Q(1, 2), "(chain, b_{k+1})")))
        parts = (betas, (theta, *alphas[1:]))
    else:
        mu = _chain_vector("alpha", alphas, betas, k + 1, k)
        sc.require_inner(mu, ((betas[k - 1], Q(0), "(chain, b_k)"),
                              (alphas[k - 1], Q(-1, 2), "(chain, a_k)"),
                              (alphas[k], Q(1, 2), "(chain, a_{k+1})")))
        parts = ((mu, *betas), alphas[1:])
    return sc.finish(cycle_a_name(l), parts)


# --------------------------------------------------------------------------
# Public entry point for the long-cycle scripts.
# --------------------------------------------------------------------------

def transform_long_cycle(name: str, l: int | None = None) -> RewriteTrace:
    """Run the elimination script for a long-cycle diagram.

    Every trace starts at the catalog word of the named b-diagram and ends
    at a word whose diagram identifies as the paired a-diagram; each step
    is verified as an exact permutation identity while the trace is built.
    """
    if name == "Dl(b)":
        if l is None:
            raise ValueError("Dl(b) needs the rank parameter l")
        return _dl_trace(l)
    if l is not None:
        raise ValueError("the parameter l is only valid for Dl(b)")
    if name == "E8(b5)":
        return _e8b5_trace()
    if name in _CASES:
        return _inverted_case_trace(name)
    raise ValueError(
        f"unknown transform {name!r}; valid names: {', '.join(LONG_CYCLE_NAMES)}")


# --------------------------------------------------------------------------
# 4-cycle elimination.
# --------------------------------------------------------------------------

def eliminate_4cycle(state: RewriteState) -> RewriteTrace:
    """Turn a 4-cycle word (a1, b1, a2, b2) into a word on the D4 tree."""
    system = state.system
    if len(state.word) != 4:
        raise ValueError("pattern mismatch: need a word of exactly 4 roots")
    d = dg.from_roots(system, state.word)
    if {(i, j) for i, j, _ in d.edges} != {(0, 1), (1, 2), (2, 3), (0, 3)}:
        raise ValueError("pattern mismatch: word is not a 4-cycle in the order "
                         "a1, b1, a2, b2")
    a1, b1, a2, b2 = state.word
    sc = _Script("4-cycle elimination", system, state.word)
    sc.perm(0, "left", "absorb: s_{a1} twists b1 away from the front")
    sc.rotate_first_to_last()
    sc.perm(2, "left", "absorb: s_{b2} finishes the detached root")
    tau = sc.word[2]
    sc.require_inner(tau, ((a1, Q(0), "(detached root, a1)"),
                           (a2, Q(0), "(detached root, a2)")))
    return sc.finish("D4", ((a1, a2, tau), (b2,)))


# --------------------------------------------------------------------------
# Oriented 5-cycles in D5.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FiveCycleResult:
    name: str
    word: tuple[Vector, ...]
    conjugator: Matrix


#: The oriented 5-cycle phi_1, ..., phi_5 in D5.
_D5_CYCLE = ("e1-e2", "e2-e3", "e3-e4", "e4-e5", "-e1-e5")


def five_cycle_orientations() -> tuple[RootSystem, dict[int, Word]]:
    """The four oriented words of the D5 pentagon, keyed by orientation index.

    Orientation r reads the cycle roots in the order the corresponding
    oriented Coxeter element multiplies them; all four words use the same
    underlying root pentagon.
    """
    system = rootsys.build_by_name("D5")
    p1, p2, p3, p4, p5 = (system.parse_root(s) for s in _D5_CYCLE)
    return system, {
        1: (p1, p5, p4, p3, p2),
        2: (p1, p2, p5, p4, p3),
        3: (p1, p3, p4, p5, p2),
        4: (p1, p2, p3, p4, p5),
    }


def _five_cycle_r1(system: RootSystem, word: Word) -> RewriteTrace:
    p1, p5, p4, p3, p2 = word
    sc = _Script("5-cycle orientation 1", system, word)
    sc.perm(2, "right", "absorb: s_{phi3} carries phi4 to phi3+phi4")
    sc.run(_FIRST_TO_LAST, 0)
    sc.perm(2, "right", "absorb: s_{phi2} extends the chain")
    sc.perm(3, "right", "absorb: s_{phi1} closes the chain root")
    sigma = vec_add(vec_add(vec_add(p2, p3), p4), p1)
    sc.require_root_at(4, sigma, "chain root phi2+phi3+phi4+phi1")
    sc.run(_FIRST_TO_LAST, 3, _LAST_TO_FRONT, 3)
    return sc.finish("D5", ((sigma, p5, p2), (p3, p1)))


def _five_cycle_r2(system: RootSystem, word: Word) -> RewriteTrace:
    p1, p2, p5, p4, p3 = word
    sc = _Script("5-cycle orientation 2", system, word)
    sc.perm(3, "right", "absorb: s_{phi3} carries phi4 to phi3+phi4")
    sc.run(_LAST_TO_FRONT, 0)
    sc.perm(1, "right", "absorb: s_{phi2} extends the chain")
    sc.perm(2, "right", "absorb: s_{phi5} closes the chain root")
    sigma = vec_sub(vec_add(vec_add(p3, p4), p2), p5)
    sc.require_root_at(3, sigma, "chain root phi3+phi4-phi5+phi2")
    sc.run(_FIRST_TO_LAST, 0, 3)
    return sc.finish("D5(a1)", ((p5, p2), (sigma, p1, p3)))


def five_cycle_classify(r_lambda: int) -> FiveCycleResult:
    """Classify the oriented 5-cycle with orientation index r_lambda.

    Orientations 1 and 4 give the tree class D5; orientations 2 and 3 give
    D5(a1).  For 1 and 2 the conjugator comes from the explicit script; for
    3 and 4 it is found by walking the conjugacy class (as root
    permutations) to the paired script's element.
    """
    if type(r_lambda) is not int or r_lambda not in (1, 2, 3, 4):
        raise ValueError("orientation index must be 1, 2, 3 or 4")
    system, words = five_cycle_orientations()
    if r_lambda in (1, 4):
        name, paired = "D5", _five_cycle_r1(system, words[1])
    else:
        name, paired = "D5(a1)", _five_cycle_r2(system, words[2])
    word = paired.final_state.word
    space = weyl.perm_space(system)
    if r_lambda in (1, 2):
        u = paired.final_state.conjugator_perm
    else:
        start = space.word_perm(words[r_lambda])
        _, u = oracle.conjugating_perm(space, start, paired.final_state.element_perm,
                                       oracle.DEFAULT_CONJUGACY_CAP)
        if u is None:
            raise ScriptIntegrityError(
                "5-cycle classification",
                f"orientation {r_lambda} is not conjugate to the paired scripted word")
    return FiveCycleResult(name, word, space.matrix_of_perm(u))
