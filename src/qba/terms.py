r"""Term language and equational decision procedures.

Concrete syntax: `\/` join, `/\` meet, postfix `'` star, constants `0` and
`1`, identifiers `[a-z][a-zA-Z0-9_]*`, `=` between the two sides. Star
binds tightest, then meet, then join; both binaries are left associative.

    eq     := term "=" term
    term   := factor { "\/" factor }
    factor := atom { "/\" atom }
    atom   := base { "'" }
    base   := "0" | "1" | ident | "(" term ")"

A term may nest at most MAX_DEPTH levels: both its parenthesis nesting
and the depth of its term tree (each operator adds a level) are bounded,
so parsing, evaluation and formatting stay well inside the interpreter's
recursion limit. Deeper input is an EquationParseError.

An equation holds in an algebra when both sides evaluate equally under
every assignment; it holds in a whole variety exactly when it holds in the
variety's small generating algebra (4, F3 and 2 respectively), which is
what `decide` exploits. The witness of an equation that fails is the first
failing assignment in lexicographic order, the k variables sorted by name
and the elements by index. More than MAX_ASSIGNMENTS assignments (n^k)
raise TooLarge before any work, which the CLI reports with exit code 2.

`holds_in` takes one of two paths, which give the same verdict and
witness.

Through the subdirect factors, when 3 <= k, 2^k <= BLOCK and the algebra
passes the accept test: its `structure` is found (the mask test) and its
`validation` passes, which then scans only QB2-QB5, never QL1-QL5 or
DIST. Both are kept on the algebra object, so a repeated check on it
reuses them. By the structure theorem such an algebra A is a subdirect
product of one 2 per atom of its Boolean part and one F2 or F3 per star
orbit of its irregular elements, so an assignment fails in A exactly
when it fails in one of these factors. In 2 both sides are evaluated once over the 2^k
assignments as byte columns. In F2 and F3 every join, meet and constant
is 0, so a term is 0 unless it is a variable under stars, and its value is
fixed by that variable and the parity of the stars; the parity counts
only in F3, which occurs when the star moves some irregular element. The
witness is then found variable by variable in name order: each takes the
least element that still has a failing completion. A completion fails in
A exactly when it fails in a factor, and the factors are images of A, so
that search finds the scan's first failing assignment. In 2 a failing
completion is a nonzero byte in the slice of the columns under the
prefix's bits; in the flat factors it is a difference of the flat forms
that the fixed values leave possible. With k <= 2 the scan of n^k
assignments costs about what the accept test does, and past BLOCK the
columns over 2 would not fit one block, so both keep the scan.

By scan, in every other case: all n^k assignments a block at a time. The
innermost variables, as many as keep n^m within BLOCK assignments, are
columns holding all their values in lexicographic order, and the outer
ones run through their values one by one. A subterm that depends on no
inner variable is one element per block; the others are columns. When
n*n <= 256 a column is bytes, one element index per byte, and each
operation on it is a single bytes.translate: star through the star,
element op column through a table row, column op element through a table
column, and column op column through the flattened table at the pair
index l*n + r, computed for all entries at once as int.from_bytes(l) * n +
int.from_bytes(r) (no entry carries into the next, as l*n + r < n*n <=
256). Larger algebras keep columns as lists mapped through the table rows
entry by entry. With bytes the index of the first failing assignment of a
block is the highest nonzero byte of the XOR of the two sides read as
big-endian integers.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import cache
from itertools import product
from operator import getitem
from typing import Mapping, Union

from .algebra import FiniteAlgebra, check_elements, regular_split, translation_table
from .errors import (EquationParseError, InvariantViolation,
                     PreconditionViolated, TooLarge, UnboundVariable)
from .fixtures import fixture


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: int  # 0 or 1


@dataclass(frozen=True)
class Join:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Meet:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Star:
    inner: "Term"


Term = Union[Var, Const, Join, Meet, Star]


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Witness:
    """A falsifying assignment, in element names."""

    assignment: tuple[tuple[str, str], ...]
    lhs_value: str
    rhs_value: str
    algebra: str

    @property
    def as_dict(self) -> dict[str, str]:
        return dict(self.assignment)


@dataclass(frozen=True)
class Verdict:
    valid: bool
    witness: Witness | None = None

    def __post_init__(self):
        if self.valid != (self.witness is None):
            raise InvariantViolation("a verdict has a witness iff it is invalid")


MAX_DEPTH = 100

# The binary operators, loosest first: each is a left-associative chain
# over the next, and the last over atoms.
_BINARY = (("\\/", Join), ("/\\", Meet))
_SYMBOL = {op: token for token, op in _BINARY}

# Binding strength of the operators: the binary ones by their place in
# _BINARY, then star.
_PREC = {op: p for p, (_, op) in enumerate(_BINARY, 1)} | {Star: len(_BINARY) + 1}

# A token, or in group 2 the character that starts none.
_TOKEN = re.compile(r"\s*(?:(\\/|/\\|[()'=]|[01]|[a-z][a-zA-Z0-9_]*)|(\S))")


def _tokenize(text: str) -> list[tuple[str | None, int]]:
    """(token, position) pairs, ended by the sentinel (None, len(text))."""
    out = []
    for m in _TOKEN.finditer(text):
        if m.lastindex == 2:
            raise EquationParseError(f"unexpected character {m[2]!r}", m.start(2))
        out.append((m[1], m.start(1)))
    out.append((None, len(text)))
    return out


class _Parser:
    """Recursive descent. Each method returns the parsed node with the
    depth of its tree, and refuses input nested deeper than MAX_DEPTH."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.parens = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0]

    def pos(self) -> int:
        return self.tokens[self.i][1]

    def fail(self, message: str):
        raise EquationParseError(message, self.pos())

    def expect(self, token: str | None, message: str):
        """Consume token, or fail with message at the current one."""
        if self.peek() != token:
            self.fail(message)
        self.i += 1

    def deeper(self, depth: int, at: int) -> int:
        """Depth of a new operator node at position ``at`` whose deepest
        child has the given depth."""
        if depth >= MAX_DEPTH:
            raise EquationParseError(f"term nested deeper than {MAX_DEPTH} levels", at)
        return depth + 1

    def term(self, level: int = 0) -> tuple[Term, int]:
        """The chain of _BINARY[level] over the next level."""
        token, op = _BINARY[level]
        last = level + 1 == len(_BINARY)
        node, depth = self.atom() if last else self.term(level + 1)
        while self.peek() == token:
            at = self.pos()
            self.i += 1
            right, right_depth = self.atom() if last else self.term(level + 1)
            node, depth = op(node, right), self.deeper(max(depth, right_depth), at)
        return node, depth

    def atom(self) -> tuple[Term, int]:
        node, depth = self.base()
        while self.peek() == "'":
            depth = self.deeper(depth, self.pos())
            self.i += 1
            node = Star(node)
        return node, depth

    def base(self) -> tuple[Term, int]:
        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of input")
        if tok == "(":
            if self.parens >= MAX_DEPTH:
                self.fail(f"parentheses nested deeper than {MAX_DEPTH} levels")
            self.parens += 1
            self.i += 1
            node, depth = self.term()
            self.expect(")", "expected ')'")
            self.parens -= 1
            return node, depth
        if tok in ("0", "1"):
            self.i += 1
            return Const(int(tok)), 0
        if tok[0].isalpha():
            self.i += 1
            return Var(tok), 0
        self.fail(f"unexpected token {tok!r}")


def parse_term(text: str) -> Term:
    p = _Parser(text)
    node, _ = p.term()
    p.expect(None, f"unexpected token {p.peek()!r}")
    return node


def parse_equation(text: str) -> Equation:
    p = _Parser(text)
    lhs, _ = p.term()
    p.expect("=", "expected '='")
    rhs, _ = p.term()
    p.expect(None, f"unexpected token {p.peek()!r}")
    return Equation(lhs, rhs)


def format_term(t: Term) -> str:
    """Render with minimal parentheses; parse_term inverts it. A node is
    parenthesized unless it binds tighter than the bound it gets: a star's
    operand gets the star's strength less one, a binary node's left
    operand its strength less one (the chain is left associative) and its
    right operand its strength."""

    def walk(node: Term, bound: int) -> str:
        kind = type(node)
        if kind is Star:
            text = walk(node.inner, _PREC[Star] - 1) + "'"
        elif kind in _SYMBOL:
            p = _PREC[kind]
            text = f"{walk(node.left, p - 1)} {_SYMBOL[kind]} {walk(node.right, p)}"
        else:  # a leaf binds tightest of all
            return node.name if kind is Var else str(node.value)
        return text if _PREC[kind] > bound else f"({text})"

    return walk(t, 0)


def format_equation(eq: Equation) -> str:
    return f"{format_term(eq.lhs)} = {format_term(eq.rhs)}"


def variables(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, Const):
        return frozenset()
    if isinstance(t, Star):
        return variables(t.inner)
    return variables(t.left) | variables(t.right)


def first_difference(lhs: bytes, rhs: bytes) -> int:
    """The least index at which two byte strings of one length differ, or
    their length when they are equal: the highest nonzero byte of the XOR
    of both sides read as big-endian integers."""
    diff = int.from_bytes(lhs, "big") ^ int.from_bytes(rhs, "big")
    return len(lhs) - 1 - (diff.bit_length() - 1) // 8


def _byte_tables(a: FiniteAlgebra):
    """Translation tables for byte columns, keyed by node type, or None
    when a pair index l*n + r would not fit a byte (n*n > 256). Each table
    is a translation_table, padded to 256 entries. Star maps to the star;
    Join and Meet to the flattened table (indexed by pair index), its rows
    (element op column) and its columns (column op element)."""
    n = a.size
    if n * n > 256:
        return None
    tables = {op: (translation_table(v for row in table for v in row),
                   [translation_table(row) for row in table],
                   [translation_table(column) for column in zip(*table)])
              for op, table in ((Join, a.join), (Meet, a.meet))}
    tables[Star] = translation_table(a.star)
    return tables


def eval_term(a: FiniteAlgebra, t: Term,
              env: Mapping[str, int | list[int] | bytes]) -> int | list[int] | bytes:
    """Evaluate by table lookup. env maps variable names to element indices
    or to columns of one common length and type, one entry per assignment:
    lists of element indices, or bytes when n*n <= 256. The value is an
    element when t depends on no column, else the column of its values; a
    subterm free of columns is computed once, not once per entry. A value
    that is no element index, or a column with an entry that is none,
    raises ValueError, as do columns of two types or lengths."""
    columns = [v for v in env.values() if isinstance(v, (bytes, list))]
    check_elements(a.size, [v for v in env.values()
                            if not isinstance(v, (bytes, list))], "eval_term")
    for column in columns:
        # The entries of bytes are ints, so the largest settles the range.
        check_elements(a.size, [max(column)] if isinstance(column, bytes) and column
                       else column, "eval_term")
    if len({(type(c), len(c)) for c in columns}) > 1:
        raise ValueError("eval_term takes columns of one type and length")
    tables = None
    if columns and isinstance(columns[0], bytes):
        tables = _byte_tables(a)
        if tables is None:
            raise PreconditionViolated(
                f"bytes columns need n*n <= 256, not n = {a.size}")
    return _eval(a, tables, t, env)


def _eval(a: FiniteAlgebra, tables, t: Term, env):
    """eval_term with the byte tables of a already built."""
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise UnboundVariable(f"variable {t.name!r} is not assigned") from None
    if isinstance(t, Const):
        return a.zero if t.value == 0 else a.one
    if isinstance(t, Star):
        inner = _eval(a, tables, t.inner, env)
        if isinstance(inner, int):
            return a.star[inner]
        if isinstance(inner, bytes):
            return inner.translate(tables[Star])
        return list(map(a.star.__getitem__, inner))
    left = _eval(a, tables, t.left, env)
    right = _eval(a, tables, t.right, env)
    table = a.join if isinstance(t, Join) else a.meet
    if isinstance(left, int):
        if isinstance(right, int):
            return table[left][right]
        if isinstance(right, bytes):
            return right.translate(tables[type(t)][1][left])
        return list(map(table[left].__getitem__, right))
    if isinstance(right, int):
        if isinstance(left, bytes):
            return left.translate(tables[type(t)][2][right])
        return list(map([row[right] for row in table].__getitem__, left))
    if isinstance(left, bytes):
        # Lane by lane l*n + r <= n*n - 1 <= 255: no lane carries into the next.
        pairs = int.from_bytes(left, "big") * a.size + int.from_bytes(right, "big")
        return pairs.to_bytes(len(left), "big").translate(tables[type(t)][0])
    return list(map(getitem, map(table.__getitem__, left), right))


MAX_ASSIGNMENTS = 10**7

# Largest number of assignments holds_in evaluates as one block of columns.
BLOCK = 4096


def holds_in(a: FiniteAlgebra, eq: Equation) -> Verdict:
    """Whether eq holds under every assignment of its variables, sorted by
    name; if not, the witness is the first failing assignment in
    lexicographic order. More than MAX_ASSIGNMENTS assignments (n^k) raise
    TooLarge before any work.

    With 3 <= k and 2^k <= BLOCK, an algebra whose structure is found
    and whose validation passes is decided through its subdirect factors
    (_holds_by_factors); every other case scans all n^k assignments
    (_holds_by_scan). Both give the same verdict and witness."""
    names = sorted(variables(eq.lhs) | variables(eq.rhs))
    n, k = a.size, len(names)
    if n ** k > MAX_ASSIGNMENTS:
        raise TooLarge(f"{k} variables over {n} elements give {n ** k:,} "
                       f"assignments, above the guard of {MAX_ASSIGNMENTS:,}")
    if 3 <= k and 1 << k <= BLOCK and a.structure is not None and a.validation.passed:
        return _holds_by_factors(a, eq, names)
    return _holds_by_scan(a, eq, names)


def _columns(n: int, m: int, column) -> list:
    """The columns of m variables over n elements: entry i of each holds
    the i-th assignment in lexicographic order, so variable j repeats each
    value n^(m-1-j) times."""
    return [column([v for v in range(n) for _ in range(n ** (m - 1 - j))] * n ** j)
            for j in range(m)]


def _witness(a: FiniteAlgebra, names: list[str], values, lv: int, rv: int) -> Verdict:
    """The verdict of a failing assignment and its two sides' values."""
    return Verdict(valid=False, witness=Witness(
        assignment=tuple((nm, a.names[v]) for nm, v in zip(names, values)),
        lhs_value=a.names[lv],
        rhs_value=a.names[rv],
        algebra=a.label or f"{a.size}-element algebra",
    ))


def _holds_by_scan(a: FiniteAlgebra, eq: Equation, names: list[str]) -> Verdict:
    """holds_in by evaluating all n^k assignments, a block at a time (see
    the module docstring)."""
    n, k = a.size, len(names)
    m = 0
    while m < k and n ** (m + 1) <= BLOCK:
        m += 1
    outer, inner = names[:k - m], names[k - m:]
    size = n ** m
    tables = _byte_tables(a)
    column = list if tables is None else bytes
    columns = dict(zip(inner, _columns(n, m, column)))
    for values in product(range(n), repeat=k - m):
        env = dict(zip(outer, values), **columns)
        lv = _eval(a, tables, eq.lhs, env)
        rv = _eval(a, tables, eq.rhs, env)
        lv = column([lv]) * size if isinstance(lv, int) else lv
        rv = column([rv]) * size if isinstance(rv, int) else rv
        if lv == rv:
            continue
        if column is bytes:
            i = first_difference(lv, rv)
        else:
            i = next(i for i, pair in enumerate(zip(lv, rv)) if pair[0] != pair[1])
        values += tuple(c[i] for c in columns.values())
        return _witness(a, names, values, lv[i], rv[i])
    return Verdict(valid=True)


def _flat_form(t: Term) -> tuple[str, int] | None:
    """The value of t in a flat algebra, where every join, meet and
    constant is 0: (variable, number of stars mod 2) when t is a variable
    under stars, else None for 0."""
    stars = 0
    while isinstance(t, Star):
        t, stars = t.inner, stars ^ 1
    return (t.name, stars) if isinstance(t, Var) else None


@cache
def _boolean_columns(k: int) -> tuple[FiniteAlgebra, dict, tuple[bytes, ...]]:
    """The fixture 2, its byte tables and the byte columns of k variables
    over its 2^k assignments. Its zero is element 0 and its one element
    1, so bit i of a mask is the image of an element in the i-th factor."""
    two = fixture("2")
    return two, _byte_tables(two), tuple(_columns(2, k, bytes))


def _holds_by_factors(a: FiniteAlgebra, eq: Equation, names: list[str]) -> Verdict:
    """holds_in on an algebra that passes the accept test, through the
    atoms and masks of a.structure (see the module docstring). The factor
    2 of atom i maps x to bit i of its mask. The flat factors are taken
    together as A/tau, which keeps each irregular element and collapses
    the regular ones to 0: a flat algebra, the subdirect product of the F2
    and F3 of the star orbits, in which a term takes the value of its
    _flat_form."""
    n, k = a.size, len(names)
    atoms, masks = a.structure
    diff = bytes(1 << k)
    if atoms:
        two, tables, columns = _boolean_columns(k)
        env = dict(zip(names, columns))
        lv, rv = (_eval(two, tables, t, env) for t in (eq.lhs, eq.rhs))
        lv, rv = (bytes([v]) * (1 << k) if isinstance(v, int) else v for v in (lv, rv))
        diff = (int.from_bytes(lv, "big") ^ int.from_bytes(rv, "big")).to_bytes(1 << k, "big")

    star = a.star
    _, irregular = regular_split(a)
    forms = _flat_form(eq.lhs), _flat_form(eq.rhs)
    flat_differs = bool(irregular) and forms[0] != forms[1]
    if flat_differs and None not in forms and forms[0][0] == forms[1][0]:
        # One variable under stars of both parities: the sides differ only
        # at an irregular element that the star moves, that is in an F3.
        flat_differs = any(star[x] != x for x in irregular)

    def flat_value(form, fixed):
        if form is None:
            return None
        x = fixed[form[0]]
        if a.join[x][x] == x:  # regular: the 0 of A/tau
            return None
        return star[x] if form[1] else x

    def fails(values: list[int]) -> bool:
        """Whether some completion of the assignment prefix fails."""
        width = 1 << (k - len(values))
        for i in range(len(atoms)):
            b = 0
            for x in values:
                b = b << 1 | masks[x] >> i & 1
            if any(diff[b * width:(b + 1) * width]):
                return True
        if not flat_differs:
            return False
        fixed = dict(zip(names, values))
        if any(form is not None and form[0] not in fixed for form in forms):
            # Free, it can take 0 against an irregular value of the other
            # side, or else an irregular element (one the star moves, when
            # the forms differ only in parity).
            return True
        return flat_value(forms[0], fixed) != flat_value(forms[1], fixed)

    if not fails([]):
        return Verdict(valid=True)
    values = []
    for _ in names:
        values.append(next(e for e in range(n) if fails(values + [e])))
    env = dict(zip(names, values))
    return _witness(a, names, values, _eval(a, None, eq.lhs, env),
                    _eval(a, None, eq.rhs, env))


_GENERATORS = {"qb": "4", "fqb": "F3", "b": "2"}

VARIETIES = tuple(_GENERATORS)


def decide(variety: str, eq: Equation) -> Verdict:
    """Validity in a whole variety via its generating algebra: 4 for all
    QB-algebras, F3 for the flat ones, 2 for Boolean algebras. holds_in
    decides it there, through the generator's factors from three
    variables on."""
    key = variety.lower()
    if key not in _GENERATORS:
        raise ValueError(f"unknown variety {variety!r}; expected one of {VARIETIES}")
    return holds_in(fixture(_GENERATORS[key]), eq)


# Fixed-seed equation sampler for reproducible spot checks. Node weights:
# variable .35, join .2, meet .2, star .2, constant .05.

def _sample_term(rng: random.Random, depth: int, names: tuple[str, ...]) -> Term:
    r = rng.random()
    if depth == 0 or r < 0.35:
        if depth == 0 and r >= 0.35:
            # Leaf forced by the depth cap: keep the var/const ratio.
            return Var(rng.choice(names)) if rng.random() < 0.875 else Const(rng.randrange(2))
        return Var(rng.choice(names))
    if r < 0.75:
        op = Join if r < 0.55 else Meet
        return op(_sample_term(rng, depth - 1, names), _sample_term(rng, depth - 1, names))
    if r < 0.95:
        return Star(_sample_term(rng, depth - 1, names))
    return Const(rng.randrange(2))


def equation_corpus(count: int = 200, seed: int = 1729, max_depth: int = 4,
                    names: tuple[str, ...] = ("x", "y", "z")) -> list[Equation]:
    """Deterministic pseudo-random equations with at most len(names)
    distinct variables and the given term depth."""
    rng = random.Random(seed)
    return [Equation(_sample_term(rng, max_depth, names),
                     _sample_term(rng, max_depth, names))
            for _ in range(count)]
