"""The workloads: seeded operations and the checks on their answers.

Each workload turns (seed, pass index, size) into a list of operations.
An operation is one request a single client would make and wait for:
``run`` is timed, ``check`` and ``digest`` run after the timed section.
Inputs come from the benchmark's own references (``refs``); the library
only ever sees the generated words, diagrams and names.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import refs

#: BENCHMARK.json measures ``query`` and ``batch``; ``rewrite`` and
#: ``certify`` are the two blocks of ``batch`` on their own, for runs by hand.
WORKLOADS = ("query", "batch", "rewrite", "certify")

WHY = {
    "query": "interactive CLI answers (diagram, charpoly, catalog) and find-first "
             "realize lookups on seeded conjugates of all 79 catalog words",
    "batch": "certificates: table1 rewrite traces built, replayed and serialised, "
             "then exhaustive oracle searches (emptiness, unique class, orbits, walk)",
    "rewrite": "table1 elimination scripts, 5-cycle classes and 4-cycle eliminations: "
               "rewrite moves, replay and per-step charpoly serialisation",
    "certify": "exhaustive oracle work: parity emptiness certificates, unique-class "
               "enumerations, orthogonal-tuple orbits and a class walk",
}


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    digest: Callable[[object], str | None] = lambda out: None
    same_as: int | None = None     # index of an earlier op whose bytes this repeats


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def literals(word) -> list[str]:
    return [refs.format_root(r) for r in word]


def to_fractions(word):
    return tuple(tuple(Fraction(a, 2) for a in r) for r in word)


def scramble(rng: random.Random, system: refs.Roots, word):
    """A seeded word with the same charpoly and the same diagram class.

    W-conjugation by a random product of simple reflections, swaps of
    adjacent orthogonal (hence commuting) letters, a cyclic rotation
    (conjugation by a prefix) and sign flips (which fix each reflection).
    """
    letters = [rng.randrange(len(system.simple))
               for _ in range(rng.randint(len(system.simple), 3 * len(system.simple)))]
    word = list(refs.conjugate_word(system, word, letters))
    for _ in range(2 * len(word)):
        i = rng.randrange(len(word) - 1) if len(word) > 1 else 0
        if len(word) > 1 and refs.dot(word[i], word[i + 1]) == 0:
            word[i], word[i + 1] = word[i + 1], word[i]
    shift = rng.randrange(len(word))
    word = word[shift:] + word[:shift]
    return tuple(refs.neg(r) if rng.random() < 0.5 else r for r in word)


def diagram_edges(d) -> dict:
    """Edge signs of a library Diagram (an input the benchmark built)."""
    return {(a, b): 1 if style == "dotted" else -1 for a, b, style in d.edges}


# ---------------------------------------------------------------------------
# query


def _cli_call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_doc(out, schema):
    rc, stdout, stderr = out
    if rc != 0:
        raise ValueError(f"exit status {rc}: {stderr.strip()[:200]}")
    doc = json.loads(stdout)
    if doc.get("schema") != schema:
        raise ValueError(f"schema {doc.get('schema')!r}, expected {schema}")
    return doc


def _check_diagram_field(doc_diagram, word, system) -> str | None:
    want_edges = [{"source": i, "target": j, "style": "dotted" if s > 0 else "solid"}
                  for (i, j), s in sorted(refs.edges_of(word).items())]
    if doc_diagram["edges"] != want_edges:
        return "diagram edges differ from the inner products of the roots"
    if [v["long"] for v in doc_diagram["vertices"]] != [system.is_long(r) for r in word]:
        return "length classes differ"
    return None


def _diagram_op(mods, entry, word) -> Op:
    system = refs.roots_of(entry.system)
    lits = literals(word)
    argv = ["diagram", f"--system={entry.system}", f"--roots={','.join(lits)}"]

    def check(out):
        doc = _cli_doc(out, "diagram.v1")
        if doc["system"] != entry.system or doc["roots"] != lits:
            return "system or roots echoed wrongly"
        if doc["admissible"] is not True:
            return "a Carter diagram was reported inadmissible"
        if doc["identify"] != entry.name:
            return f"identified as {doc['identify']}, expected {entry.name}"
        return _check_diagram_field(doc["diagram"], word, system)

    return Op("diagram", f"diagram {entry.name}", lambda: _cli_call(mods["cli"], argv),
              check, lambda out: sha256(out[1]))


def _charpoly_op(mods, entry, word) -> Op:
    lits = literals(word)
    argv = ["charpoly", f"--system={entry.system}", f"--word={','.join(lits)}"]

    def check(out):
        doc = _cli_doc(out, "charpoly.v1")
        if doc["system"] != entry.system or doc["word"] != lits:
            return "system or word echoed wrongly"
        got = refs.parse_poly(doc["charpoly"])
        return None if got == entry.poly else f"charpoly {doc['charpoly']} for {entry.name}"

    return Op("charpoly", f"charpoly {entry.name}", lambda: _cli_call(mods["cli"], argv),
              check, lambda out: sha256(out[1]))


def _catalog_op(mods, entry) -> Op:
    system = refs.roots_of(entry.system)

    def check(out):
        doc = _cli_doc(out, "catalog.v1")
        if doc["name"] != entry.name or doc["system"] != entry.system:
            return "name or system differs"
        if refs.parse_poly(doc["charpoly"]) != entry.poly:
            return f"charpoly {doc['charpoly']} for {entry.name}"
        word = tuple(refs.parse_root(s, system.dim) for s in doc["word"])
        if any(r not in system.roots for r in word) or refs.rank(word) != len(word):
            return "catalog word is not an independent set of roots"
        if not refs.isomorphic_up_to_flips(word, entry.word, system):
            return "catalog word does not realize the named diagram"
        return _check_diagram_field(doc["diagram"], word, system)

    return Op("catalog", f"catalog {entry.name}",
              lambda: _cli_call(mods["cli"], ["catalog", entry.name]),
              check, lambda out: sha256(out[1]))


def _realize_op(mods, entry) -> Op:
    system = refs.roots_of(entry.system)
    holder = {}

    def run():
        target = mods["diagram"].catalog(entry.name).diagram
        holder["target"] = target
        found = mods["oracle"].find_subsets(
            mods["rootsys"].build_by_name(entry.system), target, limit=1)
        return found

    def check(found):
        if len(found) != 1:
            return f"{len(found)} realizations returned with limit=1"
        target = holder["target"]
        roots = tuple(refs.from_fractions(r) for r in found[0].roots)
        if not refs.isomorphic_up_to_flips(roots, entry.word, system):
            return "realization has another diagram"
        return refs.realizes(system, roots, target.n, diagram_edges(target), target.longs)

    def digest(found):
        return sha256(";".join(",".join(literals(
            refs.from_fractions(r) for r in f.roots)) for f in found))

    return Op("realize", f"realize {entry.name}", run, check, digest)


#: Requests per catalog entry in one full pass.  The mix is fixed so that
#: a seed changes which conjugates are asked and in what order, but not how
#: much work a pass holds: 79 * (5 + 2 + 3 + 1) + 21 * 4 + 35 + 12 = 1000.
DIAGRAMS_PER_ENTRY = 5
REPEATS_PER_ENTRY = 2
CHARPOLYS_PER_ENTRY = 3
CHARPOLYS_PER_COXETER = 4
EXTRA_CATALOG = 12


def query_ops(mods, rng: random.Random, size: str) -> list[Op]:
    """One pass of ``query`` requests in a seeded order.

    The hot set is one of the ``diagram`` requests of each catalog entry;
    each is asked again ``REPEATS_PER_ENTRY`` times and must return the
    same bytes.
    Realize lookups cover every catalog entry of rank at most 8 once.
    """
    entries = refs.catalog_entries()
    names = sorted(entries)
    coxeter = refs.coxeter_entries()
    if size == "full":
        tokens = [("realize", e.name) for e in entries.values() if int(e.system[1:]) <= 8]
        for name in names:
            tokens += [("diagram", name)] * (DIAGRAMS_PER_ENTRY - 1)
            tokens += [("hot", name)] * (1 + REPEATS_PER_ENTRY)
            tokens += [("charpoly", name)] * CHARPOLYS_PER_ENTRY + [("catalog", name)]
        tokens += [("coxeter", i) for i in range(len(coxeter))] * CHARPOLYS_PER_COXETER
        tokens += [("catalog", rng.choice(names)) for _ in range(EXTRA_CATALOG)]
    else:
        few = ("A2", "D4", "D4(a1)", "E6", "D8(b3)")
        tokens = [("realize", n) for n in few[:3]] + [("hot", n) for n in few] * 2
        tokens += [(kind, n) for n in few for kind in ("diagram", "charpoly", "catalog")]
        tokens += [("coxeter", i) for i in range(0, len(coxeter), 6)]
    rng.shuffle(tokens)
    first_hot: dict[str, int] = {}
    ops: list[Op] = []
    for kind, key in tokens:
        if kind == "hot" and key in first_hot:
            src = ops[first_hot[key]]
            ops.append(Op(src.kind, src.label + " (repeat)", src.run, src.check,
                          src.digest, same_as=first_hot[key]))
            continue
        if kind == "hot":
            first_hot[key] = len(ops)
        if kind == "realize":
            ops.append(_realize_op(mods, entries[key]))
        elif kind == "catalog":
            ops.append(_catalog_op(mods, entries[key]))
        else:
            entry = coxeter[key] if kind == "coxeter" else entries[key]
            word = scramble(rng, refs.roots_of(entry.system), entry.word)
            make = _charpoly_op if kind in ("charpoly", "coxeter") else _diagram_op
            ops.append(make(mods, entry, word))
    return ops


# ---------------------------------------------------------------------------
# rewrite

_SCRIPTS = {
    "d6b2": ("D6(b2)", None), "e7b2": ("E7(b2)", None), "e8b3": ("E8(b3)", None),
    "e8b5": ("E8(b5)", None), "dl:6": ("Dl(b)", 6), "dl:8": ("Dl(b)", 8),
    "dl:10": ("Dl(b)", 10), "dl:12": ("Dl(b)", 12),
}


def _trace_ops(mods, label, build, start_word, final_entry, poly, system) -> list[Op]:
    """Build, replay and serialise one trace: three requests in a row."""
    holder = {}

    def run_build():
        holder["trace"] = build()
        return holder["trace"]

    def check_build(trace):
        first = tuple(refs.from_fractions(r) for r in trace.initial_state.word)
        if first != tuple(start_word):
            return "trace does not start at the expected word"
        final = tuple(refs.from_fractions(r) for r in trace.final_state.word)
        if any(r not in system.roots for r in final) or refs.rank(final) != len(final):
            return "final word is not an independent set of roots"
        if not refs.isomorphic_up_to_flips(final, final_entry.word, system):
            return f"final word does not realize {final_entry.name}"
        return None

    def check_json(text):
        steps = json.loads(text)
        if len(steps) != len(holder["trace"].steps):
            return "serialised step count differs"
        if steps[0]["word_roots"] != literals(start_word):
            return "serialised trace does not start at the expected word"
        for k, step in enumerate(steps):
            if refs.parse_poly(step["charpoly"]) != poly:
                return f"charpoly {step['charpoly']} at step {k}"
        return None

    rw = mods["rewrite"]
    return [
        Op("script", f"{label} script", run_build, check_build),
        Op("replay", f"{label} replay", lambda: rw.replay(holder["trace"]),
           lambda ok: None if ok is True else "replay rejected its own trace"),
        Op("json", f"{label} json",
           lambda: json.dumps(holder["trace"].to_json_obj(), indent=2),
           check_json, sha256),
    ]


def _five_cycle_op(mods, r, entries) -> Op:
    system, words = refs.pentagon()

    def check(result):
        want = refs.FIVE_CYCLE_CLASSES[r]
        if result.name != want:
            return f"orientation {r} classified as {result.name}, expected {want}"
        word = tuple(refs.from_fractions(v) for v in result.word)
        if not refs.isomorphic_up_to_flips(word, entries[want].word, system):
            return f"canonical word does not realize {want}"
        u = [list(row) for row in result.conjugator]
        ut = [list(col) for col in zip(*u)]
        moved = refs.mat_mul(refs.mat_mul(u, refs.word_product(words[r], 5)), ut)
        if moved != refs.word_product(word, 5):
            return "the conjugator does not carry the orientation to the word"
        return None

    def digest(result):
        rows = ";".join(",".join(str(x) for x in row) for row in result.conjugator)
        words_ = ",".join(literals(refs.from_fractions(v) for v in result.word))
        return sha256(f"{result.name}|{words_}|{rows}")

    return Op("fivecycle", f"5-cycle orientation {r}",
              lambda: mods["rewrite"].five_cycle_classify(r), check, digest)


def rewrite_ops(mods, rng: random.Random, size: str) -> list[Op]:
    entries = refs.catalog_entries()
    scripts = list(_SCRIPTS) if size == "full" else ["d6b2", "dl:6"]
    orientations = (1, 2, 3, 4) if size == "full" else (1, 3)
    # Fourteen 4-cycle eliminations make the typical rewrite request: the
    # median latency falls among their builds rather than on one script.
    n_four = 14 if size == "full" else 1
    rw = mods["rewrite"]
    groups: list[list[Op]] = []
    for name in scripts:
        arg, l = _SCRIPTS[name]
        b_name, a_name = refs.TABLE1[name]
        system = refs.roots_of(entries[b_name].system)
        groups.append(_trace_ops(
            mods, name, lambda arg=arg, l=l: rw.transform_long_cycle(arg, l=l),
            entries[b_name].word, entries[a_name], entries[b_name].poly, system))
    for r in orientations:
        groups.append([_five_cycle_op(mods, r, entries)])
    d4 = refs.roots_of("D4")
    square = tuple(refs.parse_root(s, 4) for s in ("e1-e2", "e2-e3", "e3-e4", "e2+e3"))
    for k in range(n_four):
        letters = [rng.randrange(4) for _ in range(rng.randint(4, 12))]
        word = refs.conjugate_word(d4, square, letters)

        def build(word=word):
            system = mods["rootsys"].build_by_name("D4")
            return rw.eliminate_4cycle(rw.initial_state(system, to_fractions(word)))

        groups.append(_trace_ops(mods, f"4-cycle #{k}", build, word, entries["D4"],
                                 entries["D4"].poly, d4))
    rng.shuffle(groups)
    return [op for group in groups for op in group]


# ---------------------------------------------------------------------------
# certify

CYCLE4 = ((0, 1), (1, 2), (2, 3), (0, 3))
CYCLE5 = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
K23 = ((0, 1), (0, 3), (0, 4), (1, 2), (2, 3), (2, 4))


def style_classes(n: int, edges) -> list[int]:
    """Smallest dotted-edge mask of each class of stylings up to sign flips."""
    reps = set()
    for bits in range(1 << len(edges)):
        images = []
        for cut in range(1 << n):
            img = bits
            for k, (i, j) in enumerate(edges):
                if ((cut >> i) ^ (cut >> j)) & 1:
                    img ^= 1 << k
            images.append(img)
        reps.add(min(images))
    return sorted(reps)


def _parity_op(mods, rng, sysname, n, edges, mask) -> Op:
    perm = list(range(n))
    rng.shuffle(perm)
    moved = [(perm[i], perm[j]) for i, j in edges]

    def run():
        target = mods["diagram"].styled_diagram(n, moved, mask)
        return mods["oracle"].find_subsets(
            mods["rootsys"].build_by_name(sysname), target, limit=1)

    return Op("parity", f"parity {sysname} {len(edges)}-edge shape mask {mask} "
              f"relabelled {perm}", run,
              lambda found: None if found == [] else "a forbidden diagram was realized")


def _unique_op(mods, sysname, entry) -> Op:
    name = entry.name
    want = refs.UNIQUE_CLASS_COUNTS[(sysname, name)]
    system = refs.roots_of(sysname)

    def run():
        oracle = mods["oracle"]
        searches = []
        search = oracle.find_subsets

        def capture(*args, **kwargs):
            found = search(*args, **kwargs)
            searches.append((args[1], found))
            return found

        oracle.find_subsets = capture
        try:
            verdict = oracle.verify_unique_class(
                mods["rootsys"].build_by_name(sysname), name)
        finally:
            oracle.find_subsets = search
        return verdict, searches

    def check(out):
        verdict, searches = out
        if verdict is not True:
            return f"realizations of {name} split into several classes"
        if len(searches) != 1:
            return f"{len(searches)} searches, expected one exhaustive search"
        target, found = searches[0]
        if len(found) != want:
            return f"{len(found)} realizations of {name}, expected {want}"
        if not refs.isomorphic_up_to_flips(
                tuple(refs.from_fractions(r) for r in found[0].roots), entry.word, system):
            return "search target is not the named diagram"
        edges = diagram_edges(target)
        subsets = set()
        for item in found:
            roots = tuple(refs.from_fractions(r) for r in item.roots)
            why = refs.realizes(system, roots, target.n, edges, target.longs)
            if why:
                return f"bad realization: {why}"
            subsets.add(frozenset(r if next(a for a in r if a) > 0 else refs.neg(r)
                                  for r in roots))
        if len(subsets) != want:
            return "a root subset was reported twice"
        return None

    return Op("unique", f"unique class {name} in {sysname}", run, check)


def _orbits_op(mods, sysname, k) -> Op:
    want = refs.ORBIT_COUNTS[(sysname, k)]
    return Op("orbits", f"orbits {sysname} k={k}",
              lambda: mods["oracle"].orthogonal_tuple_orbits(
                  mods["rootsys"].build_by_name(sysname), k),
              lambda got: None if got == want else f"{got} orbits, expected {want}")


def _walk_op(mods, rng) -> Op:
    system, words = refs.pentagon()
    pair = []
    for r in (1, 2):
        letters = [rng.randrange(5) for _ in range(rng.randint(5, 15))]
        pair.append(to_fractions(refs.conjugate_word(system, words[r], letters)))

    def run():
        d5 = mods["rootsys"].build_by_name("D5")
        weyl = mods["weyl"]
        return mods["oracle"].are_conjugate(
            d5, weyl.evaluate(d5, pair[0]), weyl.evaluate(d5, pair[1]))

    return Op("walk", "pentagon orientations 1 and 2", run,
              lambda res: None if res.status == "not-conjugate"
              else f"status {res.status}, expected not-conjugate")


def certify_ops(mods, rng: random.Random, size: str) -> list[Op]:
    ops: list[Op] = []
    full = size == "full"
    for sysname in ("A4", "A5") if full else ("A4",):
        for n, edges in ((4, CYCLE4), (5, CYCLE5)):
            for mask in style_classes(n, edges):
                ops.append(_parity_op(mods, rng, sysname, n, edges, mask))
    for sysname in ("D4", "D5") if full else ("D4",):
        for n, edges in ((4, CYCLE4), (5, CYCLE5)):
            ops.append(_parity_op(mods, rng, sysname, n, edges, 0))
    if full:
        # Two relabellings of every D5 class give the many mid-size
        # certificates the median falls among; D6 keeps one class for time.
        for mask in style_classes(5, K23) * 2:
            ops.append(_parity_op(mods, rng, "D5", 5, K23, mask))
        ops.append(_parity_op(mods, rng, "D6", 5, K23, 0))
    uniques = refs.UNIQUE_CLASS_COUNTS if full else {("D4", "D4(a1)"): 72}
    entries = refs.catalog_entries()
    ops += [_unique_op(mods, s, entries[name]) for s, name in uniques]
    orbit_rows = refs.ORBIT_COUNTS if full else {("D6", 2): 2}
    ops += [_orbits_op(mods, s, k) for s, k in orbit_rows]
    ops.append(_walk_op(mods, rng))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# batch


def batch_ops(mods, rng: random.Random, size: str) -> list[Op]:
    """One pass of certificate requests: the rewrite traces, then the searches.

    Both kinds share one workload so that a run holds enough work to be
    timed steadily within the run budget; the per-layer metrics keep the
    rewrite and oracle costs apart.
    """
    return rewrite_ops(mods, rng, size) + certify_ops(mods, rng, size)


BUILDERS = {"query": query_ops, "batch": batch_ops,
            "rewrite": rewrite_ops, "certify": certify_ops}


def build_ops(mods, workload: str, seed: int, pass_index: int, size: str) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    return BUILDERS[workload](mods, rng, size)
