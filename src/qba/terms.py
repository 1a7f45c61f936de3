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
what `decide` exploits.

`holds_in` scans all n^k assignments of the k variables (sorted by name)
a block at a time: the innermost variables, as many as keep n^m within
BLOCK assignments, are columns holding all their values in lexicographic
order, and the outer ones run through their values one by one. A subterm
that depends on no inner variable is one element per block; the others
are columns. When n*n <= 256 a column is bytes, one element index per
byte, and each operation on it is a single bytes.translate: star through
the star, element op column through a table row, column op element
through a table column, and column op column through the flattened table
at the pair index l*n + r, computed for all entries at once as
int.from_bytes(l) * n + int.from_bytes(r) (no entry carries into the
next, as l*n + r < n*n <= 256). Larger algebras keep columns as lists
mapped through the table rows entry by entry. The witness is the first
failing assignment in lexicographic order, as in a scan one assignment at
a time; with bytes its index is the highest nonzero byte of the XOR of the
two sides read as big-endian integers. More than MAX_ASSIGNMENTS
assignments raise TooLarge before any evaluation, which the CLI reports
with exit code 2.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import product
from operator import getitem
from typing import Mapping, Union

from .algebra import FiniteAlgebra, first_difference, translation_table
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
    subterm free of columns is computed once, not once per entry."""
    tables = None
    if any(isinstance(v, bytes) for v in env.values()):
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
    """Exhaustive check over all assignments; the first counterexample in
    lexicographic order (variables sorted by name) becomes the witness.
    The scan runs a block of assignments at a time (see the module
    docstring); more than MAX_ASSIGNMENTS raise TooLarge up front."""
    names = sorted(variables(eq.lhs) | variables(eq.rhs))
    n, k = a.size, len(names)
    if n ** k > MAX_ASSIGNMENTS:
        raise TooLarge(f"{k} variables over {n} elements give {n ** k:,} "
                       f"assignments, above the guard of {MAX_ASSIGNMENTS:,}")
    m = 0
    while m < k and n ** (m + 1) <= BLOCK:
        m += 1
    outer, inner = names[:k - m], names[k - m:]
    size = n ** m
    tables = _byte_tables(a)
    column = list if tables is None else bytes
    # Entry i of a column holds the i-th assignment of the inner variables
    # in lexicographic order: variable j repeats each value n^(m-1-j) times.
    columns = {nm: column([v for v in range(n) for _ in range(n ** (m - 1 - j))] * n ** j)
               for j, nm in enumerate(inner)}
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
        return Verdict(valid=False, witness=Witness(
            assignment=tuple((nm, a.names[v]) for nm, v in zip(names, values)),
            lhs_value=a.names[lv[i]],
            rhs_value=a.names[rv[i]],
            algebra=a.label or f"{a.size}-element algebra",
        ))
    return Verdict(valid=True)


_GENERATORS = {"qb": "4", "fqb": "F3", "b": "2"}

VARIETIES = tuple(_GENERATORS)


def decide(variety: str, eq: Equation) -> Verdict:
    """Validity in a whole variety via its generating algebra: 4 for all
    QB-algebras, F3 for the flat ones, 2 for Boolean algebras."""
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
