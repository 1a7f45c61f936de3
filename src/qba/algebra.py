"""Finite quasi-Boolean algebras as explicit operation tables.

A QB-algebra is an algebra <Q; v, ^, *, 0, 1> of type <2,2,1,0,0>: a
distributive q-lattice with bounds and an involutive complement. Unlike a
lattice, idempotence is not assumed, so x v x may differ from x. Elements
with x v x = x are called regular; the x v x = y v y classes are called
clouds. Flat algebras are those satisfying 1 = 0.

Elements are dense indices 0..n-1; names are display metadata only.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product, repeat
from typing import Callable, Iterable, Iterator

from .errors import (AlgebraParseError, AlgebraSemanticError, NotAQBAlgebra,
                     PreconditionViolated)


def _all_ints(values) -> bool:
    """isinstance(v, int) for every v, without a Python-level loop."""
    return all(map(int.__instancecheck__, values))


def check_elements(n: int, values, what: str) -> None:
    """Raise ValueError unless every value is an int in range(n). Indices
    given through the Python API pass here first, so that -1 does not wrap
    to the last element and 1.0 or n is not a bare built-in error."""
    for v in values:
        if not (isinstance(v, int) and 0 <= v < n):
            raise ValueError(f"{what} takes elements of the carrier "
                             f"0..{n - 1}, not {v!r}")


# Partition, pair and link texts separate element names by these.
_SEPARATORS = frozenset(";=>")


def _check_star(star, n: int) -> None:
    """The star's part of the well-formedness check: n integer entries in
    range."""
    try:
        shaped = len(star) == n
    except TypeError:  # a star without a length
        shaped = False
    if not shaped:
        raise AlgebraSemanticError("wrong table dimensions for star")
    if not _all_ints(star):
        raise AlgebraSemanticError("star entry is not an integer")
    if min(star) < 0 or max(star) >= n:
        raise AlgebraSemanticError("star entry out of range")


@dataclass(frozen=True)
class FiniteAlgebra:
    """Immutable operation tables over the carrier {0, ..., n-1}.

    Construction checks well-formedness (integer entries in range, distinct
    names) but not the axioms; run :func:`validate` for those, or
    :func:`require_valid` to refuse an algebra that fails them.
    """

    names: tuple[str, ...]
    join: tuple[tuple[int, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    star: tuple[int, ...]
    zero: int
    one: int
    label: str = field(default="", compare=False)

    def __post_init__(self):
        try:
            n = len(self.names)
            distinct = len(set(self.names))
        except TypeError:  # not a sequence, or an unhashable name
            raise AlgebraSemanticError("names must be strings") from None
        if n == 0:
            raise AlgebraSemanticError("empty carrier")
        if distinct != n:
            raise AlgebraSemanticError("duplicate names")
        # str.split() cuts at exactly the characters for which isspace() is
        # true, so a name survives it unchanged iff it is non-empty and
        # free of whitespace.
        try:
            spaced = any(nm.split() != [nm] for nm in self.names)
        except AttributeError:  # a name that is not a string
            raise AlgebraSemanticError("names must be strings") from None
        if spaced:
            raise AlgebraSemanticError("names must be non-empty and free of whitespace")
        if not _SEPARATORS.isdisjoint("".join(self.names)):
            raise AlgebraSemanticError("names must not contain ';', '=' or '>'")
        for table, what in ((self.join, "join"), (self.meet, "meet")):
            try:
                shaped = len(table) == n and set(map(len, table)) == {n}
            except TypeError:  # a table or a row without a length
                shaped = False
            if not shaped:
                raise AlgebraSemanticError(f"wrong table dimensions for {what}")
            # Each distinct entry is type- and range-checked once;
            # enumerated algebras share rows, so the union is small.
            try:
                entries = set().union(*table)
            except TypeError:  # an unhashable entry
                raise AlgebraSemanticError(
                    f"{what} entry is not an integer") from None
            if not _all_ints(entries):
                raise AlgebraSemanticError(f"{what} entry is not an integer")
            if min(entries) < 0 or max(entries) >= n:
                raise AlgebraSemanticError(f"{what} entry out of range")
        _check_star(self.star, n)
        for c, what in ((self.zero, "zero"), (self.one, "one")):
            if not isinstance(c, int):
                raise AlgebraSemanticError(f"{what} is not an integer")
            if not (0 <= c < n):
                raise AlgebraSemanticError(f"{what} out of range")

    @property
    def size(self) -> int:
        return len(self.names)

    def elements(self) -> range:
        return range(len(self.names))

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise AlgebraSemanticError(f"unknown element name {name!r}") from None

    @cached_property
    def validation(self) -> "ValidationReport":
        """validate(self), run on first use and kept on this object. Copies
        (relabelled or star-only) are new objects and start without it."""
        return validate(self)

    def _with_stars(self, stars: Iterable[bytes],
                    labels: Iterable[str] | None = None
                    ) -> Iterator["FiniteAlgebra"]:
        """A copy per star, for generators that vary only the star of an
        algebra they built through the constructor. Each star comes as
        bytes, whose entries are integers, so its check is its length and
        its largest entry; a star that fails them gets the error
        _check_star gives. Names, tables and constants are this
        algebra's, checked when it was made; the label too, unless labels
        gives one per star."""
        names, join, meet = self.names, self.join, self.meet
        zero, one = self.zero, self.one
        n = len(names)
        new, put = object.__new__, object.__setattr__
        for star, label in zip(stars, repeat(self.label) if labels is None
                               else labels):
            if len(star) != n or max(star) >= n:
                _check_star(star, n)
            twin = new(FiniteAlgebra)
            # Fields set one by one in their order, as __init__ sets them,
            # keep the compact attribute layout that constructed instances
            # share.
            put(twin, "names", names)
            put(twin, "join", join)
            put(twin, "meet", meet)
            put(twin, "star", tuple(star))
            put(twin, "zero", zero)
            put(twin, "one", one)
            put(twin, "label", label)
            yield twin

    def relabel(self, label: str) -> "FiniteAlgebra":
        return FiniteAlgebra(self.names, self.join, self.meet, self.star,
                             self.zero, self.one, label)

    def __repr__(self) -> str:
        tag = self.label or f"{self.size} elements"
        return f"FiniteAlgebra({tag})"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the exhaustive axiom check.

    ``violations`` holds one (axiom label, witness tuple) entry per failed
    axiom, the witness being the first failing element tuple in scan order.
    """

    passed: bool
    violations: tuple[tuple[str, tuple[int, ...]], ...]


# Axiom predicates. Each takes the algebra and a tuple of element indices
# and reports whether the instance of the law holds there.

def _ql1(a: FiniteAlgebra, t) -> bool:
    x, y = t
    return a.join[x][y] == a.join[y][x] and a.meet[x][y] == a.meet[y][x]


def _ql2(a: FiniteAlgebra, t) -> bool:
    x, y, z = t
    return (a.join[x][a.join[y][z]] == a.join[a.join[x][y]][z]
            and a.meet[x][a.meet[y][z]] == a.meet[a.meet[x][y]][z])


def _ql3(a: FiniteAlgebra, t) -> bool:
    x, y = t
    return (a.join[x][a.meet[x][y]] == a.join[x][x]
            and a.meet[x][a.join[x][y]] == a.meet[x][x])


def _ql4(a: FiniteAlgebra, t) -> bool:
    x, y = t
    return (a.join[x][a.join[y][y]] == a.join[x][y]
            and a.meet[x][a.meet[y][y]] == a.meet[x][y])


def _ql5(a: FiniteAlgebra, t) -> bool:
    (x,) = t
    return a.join[x][x] == a.meet[x][x]


def _qb2(a: FiniteAlgebra, t) -> bool:
    (x,) = t
    return a.join[x][a.one] == a.one and a.meet[x][a.zero] == a.zero


def _qb3(a: FiniteAlgebra, t) -> bool:
    (x,) = t
    return a.join[x][a.star[x]] == a.one and a.meet[x][a.star[x]] == a.zero


def _qb4(a: FiniteAlgebra, t) -> bool:
    (x,) = t
    return a.star[a.meet[x][x]] == a.join[a.star[x]][a.star[x]]


def _qb5(a: FiniteAlgebra, t) -> bool:
    (x,) = t
    return a.star[a.star[x]] == x


def _dist(a: FiniteAlgebra, t) -> bool:
    x, y, z = t
    return (a.join[x][a.meet[y][z]] == a.meet[a.join[x][y]][a.join[x][z]]
            and a.meet[x][a.join[y][z]] == a.join[a.meet[x][y]][a.meet[x][z]])


# Check order is fixed so reports are deterministic: q-lattice laws, then
# the bound/complement laws, then distributivity.
AXIOMS: tuple[tuple[str, int, Callable[[FiniteAlgebra, tuple], bool]], ...] = (
    ("QL1", 2, _ql1),
    ("QL2", 3, _ql2),
    ("QL3", 2, _ql3),
    ("QL4", 2, _ql4),
    ("QL5", 1, _ql5),
    ("QB2", 1, _qb2),
    ("QB3", 1, _qb3),
    ("QB4", 1, _qb4),
    ("QB5", 1, _qb5),
    ("DIST", 3, _dist),
)

AXIOM_LABELS = tuple(label for label, _, _ in AXIOMS)


def axiom_holds_at(a: FiniteAlgebra, label: str, witness: tuple[int, ...]) -> bool:
    """Re-evaluate one axiom instance, e.g. to confirm a reported witness."""
    for lab, arity, pred in AXIOMS:
        if lab == label:
            if len(witness) != arity:
                raise ValueError(f"{label} takes {arity} elements")
            check_elements(a.size, witness, label)
            return pred(a, tuple(witness))
    raise ValueError(f"unknown axiom label {label!r}")


def translation_table(values) -> bytes:
    """values (each below 256) as a bytes.translate table: padded with
    zeros to the 256 entries translate takes. The padding is never read
    when every translated byte indexes values."""
    return bytes(values).ljust(256, b"\0")


def first_difference(lhs: bytes, rhs: bytes) -> int:
    """The least index at which two byte strings of one length differ, or
    their length when they are equal: the highest nonzero byte of the XOR
    of both sides read as big-endian integers."""
    diff = int.from_bytes(lhs, "big") ^ int.from_bytes(rhs, "big")
    return len(lhs) - 1 - (diff.bit_length() - 1) // 8


def _row_sides(a: FiniteAlgebra) -> Iterator[Iterable[tuple[tuple[bytes, ...], ...]]]:
    """For each axiom in AXIOMS order, its slabs. A slab is a pair (lhs,
    rhs) of tuples of byte strings, one string per conjunct, and position
    i of a string stands for the i-th tuple in product order. A unary or
    binary axiom is one slab over all its tuples; a ternary one is a slab
    of n*n tuples (y, z) per x, built only when the scan reaches it. Every
    side is a translate, a join or a slice of the rows; needs n <= 256.
    The comments give the join conjunct; a meet conjunct is its dual."""
    n = a.size
    J, M = list(map(bytes, a.join)), list(map(bytes, a.meet))
    Jp, Mp = list(map(translation_table, a.join)), list(map(translation_table, a.meet))
    Jf, Mf = b"".join(J), b"".join(M)  # x v y and x ^ y at (x, y)
    S, Sp = bytes(a.star), translation_table(a.star)
    dJ, dM = Jf[::n + 1], Mf[::n + 1]  # x v x and x ^ x at x
    xs = b"".join([bytes((x,)) * n for x in range(n)])  # x at (x, y)
    one, zero = bytes((a.one,)) * n, bytes((a.zero,)) * n

    # QL1: x v y = y v x
    yield [((Jf, Mf), (b"".join([Jf[y::n] for y in range(n)]),
                       b"".join([Mf[y::n] for y in range(n)])))]
    # QL2: x v (y v z) = (x v y) v z
    yield (((Jf.translate(Jp[x]), Mf.translate(Mp[x])),
            (b"".join(map(J.__getitem__, J[x])), b"".join(map(M.__getitem__, M[x]))))
           for x in range(n))
    # QL3: x v (x ^ y) = x v x
    yield [((b"".join(map(bytes.translate, M, Jp)), b"".join(map(bytes.translate, J, Mp))),
            (xs.translate(translation_table(dJ)), xs.translate(translation_table(dM))))]
    # QL4: x v (y v y) = x v y
    yield [((b"".join(map(dJ.translate, Jp)), b"".join(map(dM.translate, Mp))), (Jf, Mf))]
    # QL5: x v x = x ^ x
    yield [((dJ,), (dM,))]
    # QB2: x v 1 = 1
    yield [((Jf[a.one::n], Mf[a.zero::n]), (one, zero))]
    # QB3: x v x* = 1
    yield [((bytes(map(bytes.__getitem__, J, S)), bytes(map(bytes.__getitem__, M, S))),
            (one, zero))]
    # QB4: (x ^ x)* = x* v x*
    yield [((dM.translate(Sp),), (S.translate(translation_table(dJ)),))]
    # QB5: x** = x
    yield [((S.translate(Sp),), (bytes(range(n)),))]
    # DIST: x v (y ^ z) = (x v y) ^ (x v z)
    yield (((Mf.translate(Jp[x]), Jf.translate(Mp[x])),
            (b"".join(map(J[x].translate, map(Mp.__getitem__, J[x]))),
             b"".join(map(M[x].translate, map(Jp.__getitem__, M[x])))))
           for x in range(n))


def validate(a: FiniteAlgebra) -> ValidationReport:
    """Check every axiom on every tuple of elements.

    Collects one witness per failed axiom, the first failing tuple in
    product order, instead of failing fast, which makes mutation
    diagnostics readable. For n <= 256 each axiom compares whole rows of
    the tables held as bytes (see _row_sides); above that the tuples are
    checked one at a time.
    """
    n = a.size
    if n > 256:
        return _validate_by_tuples(a)
    violations = []
    for (label, arity, _), slabs in zip(AXIOMS, _row_sides(a)):
        for x, (lhs, rhs) in enumerate(slabs):
            if lhs != rhs:
                i = min(map(first_difference, lhs, rhs))
                witness = (i,) if arity == 1 else divmod(i, n)
                violations.append((label, (x, *witness) if arity == 3 else witness))
                break
    return ValidationReport(passed=not violations, violations=tuple(violations))


def _validate_by_tuples(a: FiniteAlgebra) -> ValidationReport:
    """validate by one predicate call per tuple: the path for carriers
    whose elements do not fit a byte, and the reference the row scan is
    tested against."""
    violations = []
    n = a.size
    for label, arity, pred in AXIOMS:
        for t in product(range(n), repeat=arity):
            if not pred(a, t):
                violations.append((label, t))
                break
    return ValidationReport(passed=not violations, violations=tuple(violations))


def require_valid(a: FiniteAlgebra) -> None:
    """Raise NotAQBAlgebra, with the validation report, if the algebra
    fails the axioms. The results that rest on the paper's theorems call
    this first; validate runs once per algebra object."""
    if not a.validation.passed:
        raise NotAQBAlgebra(a, a.validation)


def is_flat(a: FiniteAlgebra) -> bool:
    """True iff the algebra satisfies 1 = 0."""
    return a.zero == a.one


def regular_elements(a: FiniteAlgebra) -> frozenset[int]:
    """Elements with x v x = x. Always contains 0 and 1 in a valid algebra."""
    return frozenset(x for x in a.elements() if a.join[x][x] == x)


def quasi_leq(a: FiniteAlgebra, x: int, y: int) -> bool:
    """The quasi-order: x <= y iff x v y = y v y (iff x ^ y = x ^ x).

    Reflexive and transitive but not antisymmetric.
    """
    check_elements(a.size, (x, y), "quasi_leq")
    by_join = a.join[x][y] == a.join[y][y]
    by_meet = a.meet[x][y] == a.meet[x][x]
    if by_join != by_meet:
        raise PreconditionViolated(
            f"quasi-order characterizations disagree at ({x}, {y}); "
            "the algebra fails the axioms")
    return by_join


def cloud_of(a: FiniteAlgebra, x: int) -> frozenset[int]:
    """The cloud of x: all y with y v y = x v x.

    In a valid algebra this class contains exactly one regular element,
    namely x v x.
    """
    check_elements(a.size, (x,), "cloud_of")
    r = a.join[x][x]
    return frozenset(y for y in a.elements() if a.join[y][y] == r)


def cloud_map(a: FiniteAlgebra) -> dict[int, frozenset[int]]:
    """Every value of x v x mapped to its class {y : y v y = x v x}, in one
    pass over the carrier. Keys appear in order of first occurrence.

    ``cloud_map(a)[a.join[x][x]] == cloud_of(a, x)`` for every x; in a
    valid algebra the keys are the regular elements and the values the
    clouds.
    """
    groups: dict[int, list[int]] = {}
    for x, row in enumerate(a.join):
        groups.setdefault(row[x], []).append(x)
    return {r: frozenset(members) for r, members in groups.items()}


# ---------------------------------------------------------------------------
# Text format.
#
#   size N
#   names n0 n1 ... n(N-1)
#   zero NAME
#   one NAME
#   join        (N rows of N names)
#   meet        (N rows of N names)
#   star        (one row of N names)
#
# '#' starts a comment, blank lines are ignored, sections appear in exactly
# this order. Entries are element names, never indices.
# ---------------------------------------------------------------------------

def _logical_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def load_algebra(text: str, label: str = "") -> FiniteAlgebra:
    """Parse the text format. Resolves names to indices; does not validate
    the axioms."""
    lines = list(_logical_lines(text))
    pos = 0

    def take(what: str) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(lines):
            raise AlgebraParseError(f"unexpected end of file, expected {what}")
        entry = lines[pos]
        pos += 1
        return entry

    lineno, toks = take("'size N'")
    if len(toks) != 2 or toks[0] != "size":
        raise AlgebraParseError(f"line {lineno}: expected 'size N'")
    try:
        n = int(toks[1])
    except ValueError:
        raise AlgebraParseError(f"line {lineno}: size is not an integer") from None
    if n < 1:
        raise AlgebraSemanticError("size must be positive")

    lineno, toks = take("'names ...'")
    if not toks or toks[0] != "names":
        raise AlgebraParseError(f"line {lineno}: expected 'names ...'")
    names = tuple(toks[1:])
    if len(names) != n:
        raise AlgebraSemanticError(
            f"line {lineno}: expected {n} names, got {len(names)}")
    if len(set(names)) != n:
        raise AlgebraSemanticError(f"line {lineno}: duplicate names")
    index = {nm: i for i, nm in enumerate(names)}

    def resolve(lineno: int, nm: str) -> int:
        if nm not in index:
            raise AlgebraSemanticError(f"line {lineno}: unknown name {nm!r}")
        return index[nm]

    consts = {}
    for key in ("zero", "one"):
        lineno, toks = take(f"'{key} NAME'")
        if len(toks) != 2 or toks[0] != key:
            raise AlgebraParseError(f"line {lineno}: expected '{key} NAME'")
        consts[key] = resolve(lineno, toks[1])

    def read_table(key: str, rows: int) -> list[tuple[int, ...]]:
        lineno, toks = take(f"'{key}'")
        if toks != [key]:
            raise AlgebraParseError(f"line {lineno}: expected '{key}'")
        table = []
        for _ in range(rows):
            lineno, toks = take(f"a {key} row")
            if len(toks) != n:
                raise AlgebraSemanticError(
                    f"line {lineno}: wrong table dimensions for {key}: "
                    f"expected {n} entries, got {len(toks)}")
            table.append(tuple(resolve(lineno, t) for t in toks))
        return table

    join = tuple(read_table("join", n))
    meet = tuple(read_table("meet", n))
    star = read_table("star", 1)[0]
    if pos != len(lines):
        lineno, _ = lines[pos]
        raise AlgebraParseError(f"line {lineno}: trailing content")

    return FiniteAlgebra(names=names, join=join, meet=meet, star=star,
                         zero=consts["zero"], one=consts["one"], label=label)


def dump_algebra(a: FiniteAlgebra) -> str:
    """Serialize back to the text format. load_algebra(dump_algebra(a)) == a."""
    width = max(len(nm) for nm in a.names)

    def row(entries) -> str:
        return " ".join(a.names[v].ljust(width) for v in entries).rstrip()

    out = [
        f"size {a.size}",
        "names " + " ".join(a.names),
        f"zero {a.names[a.zero]}",
        f"one {a.names[a.one]}",
        "join",
    ]
    out.extend(row(r) for r in a.join)
    out.append("meet")
    out.extend(row(r) for r in a.meet)
    out.append("star")
    out.append(row(a.star))
    return "\n".join(out) + "\n"


def algebra_to_dict(a: FiniteAlgebra) -> dict:
    """JSON-friendly form using names, mirroring the text format."""
    return {
        "size": a.size,
        "names": list(a.names),
        "zero": a.names[a.zero],
        "one": a.names[a.one],
        "join": [[a.names[v] for v in row] for row in a.join],
        "meet": [[a.names[v] for v in row] for row in a.meet],
        "star": [a.names[v] for v in a.star],
        "label": a.label,
    }


def algebra_from_dict(d: dict) -> FiniteAlgebra:
    """Inverse of algebra_to_dict; any bad input raises AlgebraSemanticError."""
    def resolve(value, depth: int):
        if depth:
            return tuple(resolve(v, depth - 1) for v in value)
        if value not in index:
            raise AlgebraSemanticError(f"unknown name {value!r}")
        return index[value]

    fields, key = {}, "names"
    try:
        fields[key] = tuple(d[key])
        index = {nm: i for i, nm in enumerate(fields[key])}
        for key, depth in (("join", 2), ("meet", 2), ("star", 1), ("zero", 0), ("one", 0)):
            fields[key] = resolve(d[key], depth)
    except KeyError:
        raise AlgebraSemanticError(f"missing key {key!r}") from None
    except TypeError:  # not a sequence, or an unhashable entry
        raise AlgebraSemanticError(f"malformed {key}") from None
    return FiniteAlgebra(label=d.get("label", ""), **fields)
