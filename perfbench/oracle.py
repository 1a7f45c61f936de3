"""Reference computations that check the program's outputs.

Nothing here imports qba, so a defect in the code under test cannot hide
itself in its own check. Algebras are plain ``Table`` tuples over the
indices 0..n-1; partitions are canonical block tuples (blocks sorted
ascending, ordered by least element), the same convention the program uses.
"""
from __future__ import annotations

import random
from itertools import product
from math import comb, factorial
from typing import NamedTuple


class Table(NamedTuple):
    names: tuple
    join: tuple
    meet: tuple
    star: tuple
    zero: int
    one: int

    @property
    def size(self) -> int:
        return len(self.names)


# ---------------------------------------------------------------------------
# Text format and constructions.

def parse(text: str) -> Table:
    """Read the .alg format (size, names, zero, one, join, meet, star)."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    n = int(lines[0][1])
    names = tuple(lines[1][1:])
    idx = {nm: i for i, nm in enumerate(names)}
    zero, one = idx[lines[2][1]], idx[lines[3][1]]
    join = tuple(tuple(idx[t] for t in lines[5 + i]) for i in range(n))
    meet = tuple(tuple(idx[t] for t in lines[6 + n + i]) for i in range(n))
    star = tuple(idx[t] for t in lines[7 + 2 * n])
    return Table(names, join, meet, star, zero, one)


def dump(t: Table) -> str:
    def row(r):
        return " ".join(t.names[v] for v in r)
    out = [f"size {t.size}", "names " + " ".join(t.names),
           f"zero {t.names[t.zero]}", f"one {t.names[t.one]}", "join"]
    out += [row(r) for r in t.join] + ["meet"] + [row(r) for r in t.meet]
    out += ["star", row(t.star)]
    return "\n".join(out) + "\n"


def permute(t: Table, perm) -> Table:
    """Move element x to index perm[x]; names travel with their elements."""
    n = t.size
    inv = [0] * n
    for x, p in enumerate(perm):
        inv[p] = x
    return Table(
        names=tuple(t.names[inv[i]] for i in range(n)),
        join=tuple(tuple(perm[t.join[inv[i]][inv[j]]] for j in range(n)) for i in range(n)),
        meet=tuple(tuple(perm[t.meet[inv[i]][inv[j]]] for j in range(n)) for i in range(n)),
        star=tuple(perm[t.star[inv[i]]] for i in range(n)),
        zero=perm[t.zero], one=perm[t.one])


def product_of(a: Table, b: Table) -> Table:
    nb = b.size
    pairs = [(i, j) for i in range(a.size) for j in range(nb)]
    return Table(
        names=tuple(f"{a.names[i]}.{b.names[j]}" for i, j in pairs),
        join=tuple(tuple(a.join[i][k] * nb + b.join[j][l] for k, l in pairs) for i, j in pairs),
        meet=tuple(tuple(a.meet[i][k] * nb + b.meet[j][l] for k, l in pairs) for i, j in pairs),
        star=tuple(a.star[i] * nb + b.star[j] for i, j in pairs),
        zero=a.zero * nb + b.zero, one=a.one * nb + b.one)


def flat(n: int, k: int) -> Table:
    """Flat algebra: all joins and meets 0, star fixing 0..k-1 and swapping
    the remaining elements in consecutive pairs."""
    star = list(range(k))
    for i in range(k, n, 2):
        star += [i + 1, i]
    zeros = ((0,) * n,) * n
    return Table(("0",) + tuple(f"x{i}" for i in range(1, n)), zeros, zeros,
                 tuple(star), 0, 0)


def boolean(atoms: int) -> Table:
    n = 1 << atoms
    return Table(tuple(f"s{i}" for i in range(n)),
                 tuple(tuple(i | j for j in range(n)) for i in range(n)),
                 tuple(tuple(i & j for j in range(n)) for i in range(n)),
                 tuple(i ^ (n - 1) for i in range(n)), 0, n - 1)


# ---------------------------------------------------------------------------
# Structure.

def axioms_hold(t: Table) -> bool:
    """QL1-QL5, QB2-QB5 and distributivity, by exhaustive iteration."""
    J, M, S, n = t.join, t.meet, t.star, t.size
    r = range(n)
    for x in r:
        if J[x][x] != M[x][x] or S[S[x]] != x:
            return False
        if J[x][t.one] != t.one or M[x][t.zero] != t.zero:
            return False
        if J[x][S[x]] != t.one or M[x][S[x]] != t.zero:
            return False
        if S[M[x][x]] != J[S[x]][S[x]]:
            return False
        for y in r:
            if J[x][y] != J[y][x] or M[x][y] != M[y][x]:
                return False
            if J[x][M[x][y]] != J[x][x] or M[x][J[x][y]] != M[x][x]:
                return False
            if J[x][J[y][y]] != J[x][y] or M[x][M[y][y]] != M[x][y]:
                return False
            for z in r:
                if J[x][J[y][z]] != J[J[x][y]][z] or M[x][M[y][z]] != M[M[x][y]][z]:
                    return False
                if J[x][M[y][z]] != M[J[x][y]][J[x][z]]:
                    return False
                if M[x][J[y][z]] != J[M[x][y]][M[x][z]]:
                    return False
    return True


def is_flat(t: Table) -> bool:
    return t.zero == t.one


def regulars(t: Table) -> list[int]:
    return [x for x in range(t.size) if t.join[x][x] == x]


def is_closed(t: Table, subset) -> bool:
    s = set(subset)
    return all(t.star[x] in s and all(t.join[x][y] in s and t.meet[x][y] in s
                                      for y in s) for x in s)


def subalgebras(t: Table) -> list[tuple[int, ...]]:
    base = sorted({t.zero, t.one})
    rest = [x for x in range(t.size) if x not in base]
    out = []
    for mask in range(1 << len(rest)):
        s = base + [x for i, x in enumerate(rest) if mask >> i & 1]
        if is_closed(t, s):
            out.append(tuple(sorted(s)))
    return sorted(out, key=lambda s: (len(s), s))


def closure_set(t: Table, seed) -> tuple[int, ...]:
    """Least subset containing 0, 1 and the seed, closed under the operations."""
    s = {t.zero, t.one, *seed}
    while True:
        grown = s | {t.star[x] for x in s} | {t.join[x][y] for x in s for y in s} \
            | {t.meet[x][y] for x in s for y in s}
        if grown == s:
            return tuple(sorted(s))
        s = grown


def induced(t: Table, subset) -> Table:
    sub = sorted(subset)
    loc = {g: i for i, g in enumerate(sub)}
    return Table(tuple(t.names[g] for g in sub),
                 tuple(tuple(loc[t.join[x][y]] for y in sub) for x in sub),
                 tuple(tuple(loc[t.meet[x][y]] for y in sub) for x in sub),
                 tuple(loc[t.star[x]] for x in sub), loc[t.zero], loc[t.one])


# ---------------------------------------------------------------------------
# Partitions and congruences.

def canon(n: int, member) -> tuple[tuple[int, ...], ...]:
    """Canonical blocks of the equivalence with the given class labels."""
    groups: dict = {}
    for x in range(n):
        groups.setdefault(member[x], []).append(x)
    return tuple(sorted(tuple(g) for g in groups.values()))


def member_of(blocks) -> dict[int, int]:
    return {x: i for i, b in enumerate(blocks) for x in b}


def equivalence(n: int, pairs) -> tuple[tuple[int, ...], ...]:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x
    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    return canon(n, [find(x) for x in range(n)])


def constant_ops(t: Table) -> bool:
    """Join and meet are constant (as in a flat algebra): then only star
    can separate the elements of a block."""
    return all(v == t.zero for row in t.join + t.meet for v in row)


def is_congruence(t: Table, blocks, star_only: bool | None = None) -> bool:
    if star_only is None:
        star_only = constant_ops(t)
    m = member_of(blocks)
    J, M, S = t.join, t.meet, t.star
    if star_only:
        return all(len({m[S[x]] for x in b}) == 1 for b in blocks)
    for b in blocks:
        x = b[0]
        for y in b[1:]:
            if m[S[x]] != m[S[y]]:
                return False
            for c in range(t.size):
                if m[J[x][c]] != m[J[y][c]] or m[M[x][c]] != m[M[y][c]]:
                    return False
    return True


def generated(t: Table, pairs) -> tuple[tuple[int, ...], ...]:
    """Least congruence containing the pairs: each merge of two classes
    queues the pairs of images that the merge forces."""
    parent = list(range(t.size))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x
    queue = list(pairs)
    while queue:
        x, y = queue.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[max(rx, ry)] = min(rx, ry)
        queue.append((t.star[x], t.star[y]))
        for c in range(t.size):
            queue.append((t.join[x][c], t.join[y][c]))
            queue.append((t.meet[x][c], t.meet[y][c]))
    return canon(t.size, [find(x) for x in range(t.size)])


def set_partitions(n: int):
    """Every partition of range(n), as canonical blocks."""
    assign = [0] * n

    def rec(i, k):
        if i == n:
            yield canon(n, assign)
            return
        for g in range(k + 1):
            assign[i] = g
            yield from rec(i + 1, k + (g == k))
    if n:
        yield from rec(1, 1)
    else:
        yield ()


def restrict(blocks, subset) -> tuple[tuple[int, ...], ...]:
    """Restriction to a subset, re-indexed by the subset's sorted order."""
    sub = sorted(subset)
    m = member_of(blocks)
    return canon(len(sub), [m[g] for g in sub])


def bell(n: int) -> int:
    return sum(stirling2(n, j) for j in range(n + 1))


def stirling2(n: int, k: int) -> int:
    return sum((-1) ** i * comb(k, i) * (k - i) ** n for i in range(k + 1)) // factorial(k)


def involution_count(m: int) -> int:
    prev, cur = 1, 1
    for i in range(2, m + 1):
        prev, cur = cur, cur + (i - 1) * prev
    return cur


def flat_congruence_count(k: int, m: int) -> int:
    """Congruences of a flat algebra whose star fixes k elements and swaps
    m pairs: the star-invariant partitions of the carrier.

    Group the star orbits. A group holding a fixed point is one
    self-conjugate block. A group of j swapped pairs alone is either one
    self-conjugate block or a block and its star image, 1 + 2^(j-1) ways.
    So the count is sum_i C(m, i) * sum_j S(k, j) j^i * P(m - i), where i
    pairs join the groups of fixed points and P counts the rest.
    """
    pairs_only = [1]
    for t in range(1, m + 1):
        pairs_only.append(sum(comb(t - 1, s - 1) * (1 + 2 ** (s - 1)) * pairs_only[t - s]
                              for s in range(1, t + 1)))
    return sum(comb(m, i) * sum(stirling2(k, j) * j ** i for j in range(k + 1))
               * pairs_only[m - i] for i in range(m + 1))


def congruence_count(t: Table, recorded: int | None) -> int:
    """Closed form where one exists (flat, Boolean), else the recorded count."""
    if is_flat(t):
        k = sum(1 for x in range(t.size) if t.star[x] == x)
        return flat_congruence_count(k, (t.size - k) // 2)
    if len(regulars(t)) == t.size:
        return t.size  # Boolean: congruences <-> ideals, one per element
    return recorded


def split(t: Table, blocks):
    """The projections of a congruence onto A/chi and A/tau, as canonical
    blocks over the quotient carriers (quotient blocks by least element)."""
    n = t.size
    chi = canon(n, [t.join[x][x] for x in range(n)])
    regs = set(regulars(t))
    tau = canon(n, [-1 if x in regs else x for x in range(n)])
    out = []
    for q in (chi, tau):
        qm = member_of(q)
        out.append(equivalence(len(q), [(qm[x], qm[y]) for b in blocks for x in b for y in b]))
    return chi, tau, out[0], out[1]


def fmt(names, blocks) -> str:
    return ";".join(",".join(names[x] for x in b) for b in blocks)


# ---------------------------------------------------------------------------
# Terms: ("var", name) | ("const", 0|1) | ("join"|"meet", l, r) | ("star", t).

def render(term) -> str:
    """Fully parenthesized text in the program's concrete syntax."""
    tag = term[0]
    if tag == "var":
        return term[1]
    if tag == "const":
        return str(term[1])
    if tag == "star":
        inner = render(term[1])
        return (inner if term[1][0] in ("var", "const") else f"({inner})") + "'"
    op = "\\/" if tag == "join" else "/\\"
    return f"({render(term[1])} {op} {render(term[2])})"


def variables(term) -> set[str]:
    if term[0] == "var":
        return {term[1]}
    if term[0] == "const":
        return set()
    return set().union(*(variables(s) for s in term[1:]))


def evaluate(t: Table, term, env) -> int:
    tag = term[0]
    if tag == "var":
        return env[term[1]]
    if tag == "const":
        return t.one if term[1] else t.zero
    if tag == "star":
        return t.star[evaluate(t, term[1], env)]
    table = t.join if tag == "join" else t.meet
    return table[evaluate(t, term[1], env)][evaluate(t, term[2], env)]


def first_witness(t: Table, lhs, rhs):
    """The first falsifying assignment in lexicographic order (variables
    sorted by name), as (rank, names, values, lhs value, rhs value), or None."""
    names = sorted(variables(lhs) | variables(rhs))
    for rank, values in enumerate(product(range(t.size), repeat=len(names))):
        env = dict(zip(names, values))
        lv, rv = evaluate(t, lhs, env), evaluate(t, rhs, env)
        if lv != rv:
            return rank, names, values, lv, rv
    return None


def random_term(rng: random.Random, depth: int, names=("x", "y", "z")):
    r = rng.random()
    if depth == 0 or r < 0.3:
        return ("const", rng.randrange(2)) if rng.random() < 0.1 else ("var", rng.choice(names))
    if r < 0.55:
        return ("join", random_term(rng, depth - 1, names), random_term(rng, depth - 1, names))
    if r < 0.8:
        return ("meet", random_term(rng, depth - 1, names), random_term(rng, depth - 1, names))
    return ("star", random_term(rng, depth - 1, names))
