"""Reference mathematics held by the benchmark itself.

Nothing here imports weylcalc: every answer the benchmark asserts is
either a closed form from the literature (Carter 1972, Table 3; Coxeter
numbers and exponents) or is checked with the small integer routines
below.  Vectors are tuples of ints holding *twice* the ambient
coordinates, so the half-integer roots of E6/E7/E8 and F4 stay integral
and every test is exact.
"""

from __future__ import annotations

from fractions import Fraction

# ---------------------------------------------------------------------------
# Root systems in doubled coordinates


def _unit(i: int, dim: int, scale: int = 2) -> tuple[int, ...]:
    return tuple(scale if j == i else 0 for j in range(dim))


def _sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def _add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def dot(x, y) -> int:
    return sum(a * b for a, b in zip(x, y))


def neg(x):
    return tuple(-a for a in x)


def simple_roots(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Simple roots in the same ambient model as the library (doubled)."""
    e = _unit
    if family in "ABCD":
        dim = rank + 1 if family == "A" else rank
        chain = [_sub(e(i, dim), e(i + 1, dim)) for i in range(rank - 1)]
        if family == "A":
            return tuple(chain + [_sub(e(rank - 1, dim), e(rank, dim))])
        last = {
            "B": e(rank - 1, dim),
            "C": e(rank - 1, dim, 4),
            "D": _add(e(rank - 2, dim), e(rank - 1, dim)),
        }[family]
        return tuple(chain + [last])
    if family == "E":
        first = tuple(1 if j in (0, 7) else -1 for j in range(8))
        second = _add(e(0, 8), e(1, 8))
        chain = [_sub(e(i + 1, 8), e(i, 8)) for i in range(6)]
        return tuple([first, second] + chain)[:rank]
    if family == "F":
        return (_sub(e(1, 4), e(2, 4)), _sub(e(2, 4), e(3, 4)), e(3, 4),
                (1, -1, -1, -1))
    if family == "G":
        return ((2, -2, 0), (-4, 2, 2))
    raise ValueError(f"unknown family {family!r}")


def reflect(root, v):
    """s_root(v); the Cartan integer 2(v,root)/(root,root) is exact."""
    c, rem = divmod(2 * dot(v, root), dot(root, root))
    if rem:
        raise ValueError("not a crystallographic pair")
    return tuple(a - c * b for a, b in zip(v, root))


class Roots:
    """The root set of one system, closed under its simple reflections."""

    def __init__(self, family: str, rank: int):
        self.family, self.rank = family, rank
        self.name = f"{family}{rank}"
        self.simple = simple_roots(family, rank)
        self.dim = len(self.simple[0])
        seen = set(self.simple)
        frontier = list(self.simple)
        while frontier:
            nxt = []
            for r in frontier:
                for s in self.simple:
                    img = reflect(s, r)
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
        self.roots = frozenset(seen)
        norms = {dot(r, r) for r in seen}
        self.short, self.long = min(norms), max(norms)

    def is_long(self, r) -> bool:
        return self.long != self.short and dot(r, r) == self.long


_ROOTS: dict[str, Roots] = {}


def roots_of(name: str) -> Roots:
    if name not in _ROOTS:
        _ROOTS[name] = Roots(name[0], int(name[1:]))
    return _ROOTS[name]


def conjugate_word(system: Roots, word, letters) -> tuple:
    """Image of every root under the product of the given simple reflections."""
    out = []
    for r in word:
        for i in reversed(letters):
            r = reflect(system.simple[i], r)
        out.append(r)
    return tuple(out)


def rank(vectors) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination on ints."""
    rows = [list(v) for v in vectors]
    if not rows:
        return 0
    ncols = len(rows[0])
    r, prev = 0, 1
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            rows[i] = [(rows[r][c] * rows[i][j] - rows[i][c] * rows[r][j]) // prev
                       for j in range(ncols)]
        prev = rows[r][c]
        r += 1
        if r == len(rows):
            break
    return r


# ---------------------------------------------------------------------------
# Root literals, in the library's spelling: "e1-e2", "2e3", "...+e8/2"


def format_root(v) -> str:
    halves = any(a % 2 for a in v)
    coords = list(v) if halves else [a // 2 for a in v]
    parts = []
    for i, c in enumerate(coords):
        if c == 0:
            continue
        term = f"e{i + 1}" if abs(c) == 1 else f"{abs(c)}e{i + 1}"
        parts.append(("+" if parts else "") + term if c > 0 else "-" + term)
    text = "".join(parts) or "0"
    return text + "/2" if halves else text


def parse_root(text: str, dim: int) -> tuple[int, ...]:
    raw = text.replace(" ", "")
    halved = raw.endswith("/2")
    if halved:
        raw = raw[:-2]
    out = [0] * dim
    for term in raw.replace("-", "+-").split("+"):
        if not term:
            continue
        sign = -1 if term.startswith("-") else 1
        coeff, _, idx = term.lstrip("-").partition("e")
        out[int(idx) - 1] += sign * (int(coeff) if coeff else 1)
    return tuple(c if halved else 2 * c for c in out)


def from_fractions(v) -> tuple[int, ...]:
    doubled = [Fraction(c) * 2 for c in v]
    if any(c.denominator != 1 for c in doubled):
        raise ValueError(f"coordinates outside 1/2 Z: {v}")
    return tuple(int(c) for c in doubled)


# ---------------------------------------------------------------------------
# Diagrams: edge (i, j) -> sign of the inner product (-1 solid, +1 dotted)


def edges_of(word) -> dict[tuple[int, int], int]:
    out = {}
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            x = dot(word[i], word[j])
            if x:
                out[(i, j)] = 1 if x > 0 else -1
    return out


def bipartition(n: int, edges) -> tuple[list[int], list[int]] | None:
    adj = {i: [] for i in range(n)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    color: dict[int, int] = {}
    for s in range(n):
        if s in color:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            a = stack.pop()
            for b in adj[a]:
                if b not in color:
                    color[b] = 1 - color[a]
                    stack.append(b)
                elif color[b] == color[a]:
                    return None
    return ([i for i in range(n) if color[i] == 0],
            [i for i in range(n) if color[i] == 1])


def signs_differ_by_cut(n: int, a: dict, b: dict) -> bool:
    """Same edge set, and the sign patterns differ by negating some roots."""
    if a.keys() != b.keys():
        return False
    adj = {i: [] for i in range(n)}
    for (i, j), s in a.items():
        flip = 0 if s == b[(i, j)] else 1
        adj[i].append((j, flip))
        adj[j].append((i, flip))
    color: dict[int, int] = {}
    for s in range(n):
        if s in color:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for v, flip in adj[u]:
                want = color[u] ^ flip
                if v not in color:
                    color[v] = want
                    stack.append(v)
                elif color[v] != want:
                    return False
    return True


def isomorphic_up_to_flips(word_a, word_b, system: Roots) -> bool:
    """Do two root lists have the same diagram, up to relabeling and flips?"""
    n = len(word_a)
    if n != len(word_b):
        return False
    ea, eb = edges_of(word_a), edges_of(word_b)
    if len(ea) != len(eb):
        return False
    adj_a = [set() for _ in range(n)]
    adj_b = [set() for _ in range(n)]
    for i, j in ea:
        adj_a[i].add(j)
        adj_a[j].add(i)
    for i, j in eb:
        adj_b[i].add(j)
        adj_b[j].add(i)
    long_a = [system.is_long(r) for r in word_a]
    long_b = [system.is_long(r) for r in word_b]
    order = sorted(range(n), key=lambda v: -len(adj_a[v]))
    image: dict[int, int] = {}

    def extend(depth: int) -> bool:
        if depth == n:
            mapped = {}
            for (i, j), s in ea.items():
                p, q = sorted((image[i], image[j]))
                mapped[(p, q)] = s
            return signs_differ_by_cut(n, mapped, eb)
        v = order[depth]
        used = set(image.values())
        for w in range(n):
            if w in used or long_a[v] != long_b[w] or len(adj_a[v]) != len(adj_b[w]):
                continue
            if all((image[u] in adj_b[w]) == (u in adj_a[v]) for u in image):
                image[v] = w
                if extend(depth + 1):
                    return True
                del image[v]
        return False

    return extend(0)


def realizes(system: Roots, roots, n: int, target_edges: dict, target_longs) -> str | None:
    """Why the roots do not realize the target diagram, or None if they do.

    The i-th root stands for target vertex i.  A realization consists of
    roots of the system, linearly independent, with an edge exactly where
    the target has one, the length class the target asks for, and edge
    styles that agree with the target up to negating some roots.
    """
    if len(roots) != n:
        return f"{len(roots)} roots for {n} vertices"
    for r in roots:
        if r not in system.roots:
            return f"{format_root(r)} is not a root of {system.name}"
    if rank(roots) != n:
        return "roots are linearly dependent"
    if [system.is_long(r) for r in roots] != list(target_longs):
        return "length classes differ"
    got = edges_of(roots)
    for (i, j) in got:
        want = system.long if (system.is_long(roots[i]) or system.is_long(roots[j])) \
            else system.short
        if 2 * abs(dot(roots[i], roots[j])) != want:
            return f"edge ({i},{j}) has the wrong inner-product magnitude"
    if not signs_differ_by_cut(n, got, target_edges):
        return "edges or styles differ from the target beyond sign flips"
    return None


# ---------------------------------------------------------------------------
# Polynomials: ascending integer coefficient tuples


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _poly_divexact(p, q):
    p = list(p)
    out = [0] * (len(p) - len(q) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = p[k + len(q) - 1] // q[-1]
        out[k] = c
        for j, b in enumerate(q):
            p[k + j] -= c * b
    if any(p):
        raise ArithmeticError("inexact polynomial division")
    return tuple(out)


_PHI: dict[int, tuple] = {}


def cyclotomic(n: int) -> tuple:
    if n not in _PHI:
        num = (-1,) + (0,) * (n - 1) + (1,)
        for d in range(1, n):
            if n % d == 0:
                num = _poly_divexact(num, cyclotomic(d))
        _PHI[n] = num
    return _PHI[n]


def one_plus(k: int) -> tuple:
    """t^k + 1."""
    return (1,) + (0,) * (k - 1) + (1,)


def phis(*ns: int) -> tuple:
    out = (1,)
    for n in ns:
        out = poly_mul(out, cyclotomic(n))
    return out


def parse_poly(text: str) -> tuple:
    """Read the library's printed form, e.g. ``t^4 + 2*t^2 + 1``."""
    coeffs: dict[int, int] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        term = term.strip()
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        if "t" in term:
            c, _, power = term.partition("t")
            c = int(c.rstrip("*")) if c else 1
            power = int(power[1:]) if power.startswith("^") else 1
        else:
            c, power = int(term), 0
        coeffs[power] = coeffs.get(power, 0) + sign * c
    top = max(coeffs)
    return tuple(coeffs.get(i, 0) for i in range(top + 1))


# ---------------------------------------------------------------------------
# Carter diagrams: closed-form characteristic polynomials (Carter 1972,
# Table 3) and one realization of each catalog name.

FROZEN_WORDS = {
    "E8(a3)": ("E8", ("-e1-e2", "-e1+e2", "-e3-e4", "-e5-e6", "e1+e4",
                      "e1-e2+e3-e4-e5+e6-e7+e8/2", "-e1+e2+e3+e4+e5+e6-e7+e8/2",
                      "e3-e8")),
    "E8(b3)": ("E8", ("e1+e4", "e1-e2+e3-e4-e5+e6-e7+e8/2", "e3-e8", "-e5-e6",
                      "-e1-e2", "-e1+e2", "-e3-e4", "e5-e8")),
    "E7(a2)": ("E7", ("-e1-e2", "-e1+e2", "-e3-e4", "e1-e5",
                      "e1+e2-e3+e4+e5+e6-e7+e8/2", "-e2+e4",
                      "e1-e2+e3-e4+e5-e6-e7+e8/2")),
    "E7(b2)": ("E7", ("e1-e5", "e1+e2-e3+e4+e5+e6-e7+e8/2",
                      "e1-e2+e3-e4+e5-e6-e7+e8/2", "-e3-e4", "-e1-e2", "-e1+e2",
                      "e3-e6")),
    "D6(a2)": ("D6", ("e3-e4", "e1-e2", "e2-e3", "e4-e5", "e2+e3", "-e1+e6")),
    "D6(b2)": ("D6", ("e2-e3", "e4-e5", "-e1+e6", "e3-e4", "e1-e2", "e5+e6")),
    "E6(a1)": ("E6", ("-e1-e2", "-e1+e2", "-e3-e4", "e1+e4", "e2-e5",
                      "e1+e2+e3-e4+e5+e6+e7-e8/2")),
    "E6(a2)": ("E6", ("-e1-e2", "-e1+e2", "-e3-e4", "-e2+e4", "e1-e5",
                      "e1+e2+e3+e4+e5-e6-e7+e8/2")),
    "E8(b5)": ("E8", ("-e1-e2", "-e1+e2", "-e3-e4", "-e5-e6",
                      "e1-e2-e3+e4+e5+e6-e7-e8/2", "e1+e8",
                      "e1+e2+e3+e4-e5+e6+e7-e8/2", "-e1+e2+e3+e4+e5+e6-e7+e8/2")),
    "E8(a5)": ("E8", ("-e3-e4", "e6-e8", "-e1-e2", "-e1+e2-e3+e4-e5-e6-e7-e8/2",
                      "-e1-e2+e3+e4-e5-e6+e7+e8/2", "e1-e2+e3-e4-e5+e6+e7-e8/2",
                      "e1-e2-e3+e4-e5-e6-e7-e8/2", "e1+e8")),
}

FROZEN_POLYS = {
    "E8(a3)": phis(12, 12), "E8(b3)": phis(12, 12),
    "E7(a2)": phis(12, 6, 2), "E7(b2)": phis(12, 6, 2),
    "D6(a2)": poly_mul(one_plus(3), one_plus(3)),
    "D6(b2)": poly_mul(one_plus(3), one_plus(3)),
    "E6(a1)": phis(9), "E6(a2)": phis(6, 6, 3),
    "E8(b5)": phis(15), "E8(a5)": phis(15),
}


class Entry:
    """A named Carter diagram: its system, one realization, its charpoly."""

    def __init__(self, name: str, system: str, word, poly):
        self.name, self.system, self.word, self.poly = name, system, tuple(word), poly


def _chain(i: int, dim: int):
    """e_i - e_{i+1}, 1-based."""
    return _sub(_unit(i - 1, dim), _unit(i, dim))


def bicolored(word):
    parts = bipartition(len(word), edges_of(word))
    if parts is None:
        raise ValueError("word has an odd cycle")
    return tuple(word[i] for i in parts[0] + parts[1])


def d_ak_word(l: int, k: int):
    """A 4-cycle with tails of k-1 and l-k-3 roots, in D_l."""
    p = k - 1
    roots = [_chain(i, l) for i in range(1, p + 4)]
    roots.append(_add(_unit(p + 1, l), _unit(p + 2, l)))
    roots += [_chain(i, l) for i in range(p + 4, l)]
    return bicolored(roots)


def d_cycle_word(l: int):
    """A pure l-cycle in D_l, beta block first."""
    m = l // 2
    alpha = [_chain(1, l)] + [_chain(l - 2 * i + 3, l) for i in range(2, m + 1)]
    beta = [_add(_unit(0, l), _unit(l - 1, l))]
    beta += [_chain(l - 2 * i + 2, l) for i in range(2, m + 1)]
    return tuple(beta + alpha)


def catalog_entries() -> dict[str, Entry]:
    """The 79 catalog names with independent realizations and charpolys."""
    out: dict[str, Entry] = {}
    for n in range(1, 9):
        word = bicolored([_chain(i, n + 1) for i in range(1, n + 1)])
        out[f"A{n}"] = Entry(f"A{n}", f"A{n}", word, (1,) * (n + 1))
    for n in range(4, 9):
        out[f"D{n}"] = Entry(f"D{n}", f"D{n}", bicolored(simple_roots("D", n)),
                             poly_mul(one_plus(n - 1), one_plus(1)))
    for n, poly in ((6, phis(12, 3)), (7, phis(18, 2)), (8, phis(30))):
        out[f"E{n}"] = Entry(f"E{n}", f"E{n}", bicolored(simple_roots("E", n)), poly)
    for l in range(4, 17):
        for k in range(1, (l - 2) // 2 + 1):
            if (l, k) != (6, 2):
                out[f"D{l}(a{k})"] = Entry(
                    f"D{l}(a{k})", f"D{l}", d_ak_word(l, k),
                    poly_mul(one_plus(k + 1), one_plus(l - k - 1)))
    for l in range(8, 17, 2):
        name = f"D{l}(b{l // 2 - 1})"
        out[name] = Entry(name, f"D{l}", d_cycle_word(l),
                          poly_mul(one_plus(l // 2), one_plus(l // 2)))
    for name, (system, literals) in FROZEN_WORDS.items():
        dim = roots_of(system).dim
        out[name] = Entry(name, system, [parse_root(s, dim) for s in literals],
                          FROZEN_POLYS[name])
    return out


def coxeter_entries() -> list[Entry]:
    """Words in the non-simply-laced families with settled charpolys.

    Coxeter elements: t^n + 1 for B_n and C_n (h = 2n), Phi_12 for F4 and
    Phi_6 for G2.  The long roots of B_n form D_n, whose Coxeter element
    has (t^(n-1) + 1)(t + 1).
    """
    out = []
    for n in range(2, 9):
        for fam in "BC":
            out.append(Entry(f"{fam}{n} Coxeter", f"{fam}{n}",
                             simple_roots(fam, n), one_plus(n)))
    for n in range(4, 9):
        out.append(Entry(f"D{n} in B{n}", f"B{n}", simple_roots("D", n),
                         poly_mul(one_plus(n - 1), one_plus(1))))
    out.append(Entry("F4 Coxeter", "F4", simple_roots("F", 4), phis(12)))
    out.append(Entry("G2 Coxeter", "G2", simple_roots("G", 2), phis(6)))
    return out


# ---------------------------------------------------------------------------
# Settled results of the paper and of Carter's classification

#: Every realization of these a-diagrams lies in one conjugacy class, and
#: the search finds exactly this many root subsets (one per subset, up to
#: sign).  The counts were confirmed by an independent brute-force count
#: over subsets of positive roots with the routines of this module.
UNIQUE_CLASS_COUNTS = {
    ("D4", "D4(a1)"): 72,
    ("D5", "D5(a1)"): 960,
}

#: W-orbits on unordered sets of k mutually orthogonal roots.  In E6, E7
#: the roots orthogonal to a root form A5, D6, on which the stabilizer
#: acts transitively (and again A3 inside A5); in D6 they form A1 + D4.
ORBIT_COUNTS = {("E6", 3): 1, ("D6", 2): 2, ("E7", 2): 1}

#: Oriented pentagons in D5: orientations 1 and 4 give the tree D5,
#: 2 and 3 give D5(a1).
FIVE_CYCLE_CLASSES = {1: "D5", 2: "D5(a1)", 3: "D5(a1)", 4: "D5"}

#: The long-cycle eliminations of Table 1: script -> (b-diagram, a-diagram).
TABLE1 = {
    "d6b2": ("D6(b2)", "D6(a2)"),
    "e7b2": ("E7(b2)", "E7(a2)"),
    "e8b3": ("E8(b3)", "E8(a3)"),
    "e8b5": ("E8(b5)", "E8(a5)"),
    "dl:6": ("D6(b2)", "D6(a2)"),
    "dl:8": ("D8(b3)", "D8(a3)"),
    "dl:10": ("D10(b4)", "D10(a4)"),
    "dl:12": ("D12(b5)", "D12(a5)"),
}


def pentagon() -> tuple[Roots, dict[int, tuple]]:
    """The D5 pentagon phi_1..phi_5 and its four oriented words."""
    system = roots_of("D5")
    p = [_chain(i, 5) for i in range(1, 5)]
    p.append(neg(_add(_unit(0, 5), _unit(4, 5))))
    p1, p2, p3, p4, p5 = p
    return system, {
        1: (p1, p5, p4, p3, p2),
        2: (p1, p2, p5, p4, p3),
        3: (p1, p3, p4, p5, p2),
        4: (p1, p2, p3, p4, p5),
    }


def reflection_matrix(root) -> list[list[Fraction]]:
    n, norm = len(root), dot(root, root)
    return [[Fraction(int(i == j)) - Fraction(2 * root[i] * root[j], norm)
             for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def word_product(word, dim: int):
    m = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for r in word:
        m = mat_mul(m, reflection_matrix(r))
    return m
