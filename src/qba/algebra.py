"""Finite quasi-Boolean algebras as explicit operation tables.

A QB-algebra is an algebra <Q; v, ^, *, 0, 1> of type <2,2,1,0,0>: a
distributive q-lattice with bounds and an involutive complement. Unlike a
lattice, idempotence is not assumed, so x v x may differ from x. Elements
with x v x = x are called regular; the x v x = y v y classes are called
clouds. Flat algebras are those satisfying 1 = 0.

Elements are dense indices 0..n-1; names are display metadata only.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import product, repeat
from operator import itemgetter
from typing import Callable, Iterator, Sequence

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


def check_pairs(n: int, pairs, what: str) -> list[tuple[int, int]]:
    """pairs as a list of (x, y), each checked by check_elements; an item
    that is not two values raises ValueError naming what, before any pair
    is used."""
    checked = []
    for pair in pairs:
        try:
            x, y = pair
        except (TypeError, ValueError):
            raise ValueError(
                f"{what} takes two elements, not {pair!r}") from None
        checked.append((x, y))
    check_elements(n, [v for pair in checked for v in pair], what)
    return checked


def check_natural(value, what: str, least: int = 0) -> None:
    """Raise ValueError, before any work, unless value is an int of at
    least least (0 or 1); a bool is not taken for one."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        kind = "a positive integer" if least else "a natural number"
        raise ValueError(f"{what} must be {kind}")


# Partition, pair and link texts separate element names by these.
_SEPARATORS = frozenset(";=>")


def name_readings(pieces: list[str], known, width: int) -> list[list[tuple]]:
    """readings[j]: up to two readings of pieces[:j] as a run of names in
    known, each name 1 to width consecutive pieces joined by ','. A reading
    is a tuple of names; at each j, those whose last name starts earlier
    come first."""
    readings = [[()]]
    for j in range(1, len(pieces) + 1):
        found = []
        for i in range(max(0, j - width), j):
            if readings[i] and (nm := ",".join(pieces[i:j])) in known:
                found += [(*r, nm) for r in readings[i]]
        readings.append(found[:2])
    return readings


def _refuse_joined_names(names: tuple[str, ...]) -> None:
    """Refuse a name that is two or more of the other names joined by
    ',': parse_names would find two readings of it, so it could not be
    listed there. Read with their count as the width, a name's own pieces
    have the name itself as their first reading; a second joins others."""
    known = frozenset(names)
    heads = tuple(nm + "," for nm in names)  # how such a name starts
    for nm in names:
        if nm.startswith(heads):
            pieces = nm.split(",")
            if len(name_readings(pieces, known, len(pieces))[-1]) > 1:
                raise AlgebraSemanticError(
                    f"name {nm!r} is other names joined by ','")


# The fields after names, with their nesting: 0 is one element, on the
# keyword's line in the text format ("zero NAME"); 1 is a row of n elements,
# on the line after the keyword; 2 is n such rows. The text format has a
# section for each, in this order, and algebra_to_dict a key.
_SECTIONS = (("zero", 0), ("one", 0), ("join", 2), ("meet", 2), ("star", 1))

# The order in which the constructor checks the fields and algebra_from_dict
# resolves them, so that a table's fault is named before a constant's.
_DEEPEST_FIRST = tuple(sorted(_SECTIONS, key=lambda s: -s[1]))


# The bytes whose first n are the carrier of n elements.
_BYTES = bytes(range(256))


def _check_field(value, n: int, key: str, depth: int) -> None:
    """The well-formedness check of one field of _SECTIONS: an integer in
    range(n) at depth 0, else a row (depth 1) or n rows (depth 2) of n
    integer entries in range."""
    if not depth:
        if not isinstance(value, int):
            raise AlgebraSemanticError(f"{key} is not an integer")
        if not (0 <= value < n):
            raise AlgebraSemanticError(f"{key} out of range")
        return
    try:
        shaped = len(value) == n and (depth == 1 or set(map(len, value)) == {n})
    except TypeError:  # a field or a row without a length
        shaped = False
    if not shaped:
        raise AlgebraSemanticError(f"wrong table dimensions for {key}")
    # Each distinct entry of a table is type- and range-checked once;
    # enumerated algebras share rows, so the union is small.
    try:
        entries = set().union(*value) if depth == 2 else value
    except TypeError:  # an unhashable entry
        raise AlgebraSemanticError(f"{key} entry is not an integer") from None
    if not _all_ints(entries):
        raise AlgebraSemanticError(f"{key} entry is not an integer")
    if min(entries) < 0 or max(entries) >= n:
        raise AlgebraSemanticError(f"{key} entry out of range")


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
        joined = "".join(self.names)
        if not _SEPARATORS.isdisjoint(joined):
            raise AlgebraSemanticError("names must not contain ';', '=' or '>'")
        if "," in joined:
            _refuse_joined_names(self.names)
        for key, depth in _DEEPEST_FIRST:
            _check_field(getattr(self, key), n, key, depth)
        # Kept as tuples, so that equal fields compare and hash equal however
        # they were given; tuples (rows too) are kept as the same objects.
        for key, depth in (("names", 1), *_SECTIONS):
            value = getattr(self, key)
            if depth == 2 and not all(map(tuple.__instancecheck__, value)):
                object.__setattr__(self, key, tuple(map(tuple, value)))
            elif depth and not isinstance(value, tuple):
                object.__setattr__(self, key, tuple(value))

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

    @cached_property
    def structure(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """The mask test, run on first use and kept on this object: the
        atoms of the Boolean part and, for each x, the bitmask of the atoms
        below x v x (bit i for atoms[i]) when join and meet are the union
        and intersection of these masks, else None. With m the masks and
        img[s] a regular element of mask s, one for each of the 2^k masks,
        x v y = img[m(x) | m(y)] and x ^ y = img[m(x) & m(y)]. As
        m(img[s]) = s, QL1-QL5 and DIST then reduce to Boolean identities
        on masks, however the masks were chosen; by the structure theorem
        every valid algebra passes, and in it a mask is a cloud and x* has
        the complement mask. It reads join, meet and zero, never the star,
        so every star-only copy gets the same value, each on first use."""
        join, meet, zero = self.join, self.meet, self.zero
        reps = [row[x] for x, row in enumerate(join)]
        regs = sorted(set(reps))
        atoms = tuple(r for r in regs if r != zero
                      and {meet[r][s] for s in regs} <= {zero, r})
        below = {r: sum([1 << i for i, t in enumerate(atoms) if meet[t][r] == t])
                 for r in regs}
        masks = tuple(map(below.__getitem__, reps))
        img = {masks[x]: x for x, row in enumerate(join) if row[x] == x}
        if len(img) != 1 << len(atoms):
            return None
        if (join, meet) != _tables([img[s] for s in range(len(img))])(masks):
            return None
        return atoms, masks

    def _with_stars(self, buf: bytes, labels: Sequence[str] | None = None
                    ) -> Iterator["FiniteAlgebra"]:
        """A copy per star, for the enumeration, which varies only the star
        of an algebra it built through the constructor. Names, tables and
        constants are this algebra's, checked when it was made; the label
        too, unless labels gives one per star. Labels of another count
        than the stars raise PreconditionViolated.

        The stars come as one buffer of n-byte rows back to back, one star
        per row. It is checked by two C-level passes before any copy is
        made: its length is a multiple of n, and deleting the carrier's
        bytes from it leaves nothing. A buffer that fails them has each row
        checked as the constructor checks a star, in order, so the first
        bad one gets the constructor's error. The rows become tuples by one
        zip.

        The fields go in as item stores into the copy's __dict__, one by
        one in field order, as __init__ sets them. Such stores keep the
        key-sharing dict (PEP 412) that constructed instances have, so a
        copy's dict has their size, and take about a third less time than
        seven object.__setattr__ calls; the cost is the dict object
        itself, about 64 bytes a copy. Never fill it with dict.update():
        that gives each copy a table of its own keys, 272 bytes against
        128 on CPython 3.11."""
        names, join, meet = self.names, self.join, self.meet
        zero, one = self.zero, self.one
        n = len(names)
        if len(buf) % n or buf.translate(None, _BYTES[:n]):
            for i in range(0, len(buf), n):
                _check_field(buf[i:i + n], n, "star", 1)
        count = len(buf) // n
        if labels is None:
            labels = repeat(self.label)
        elif len(labels) != count:
            raise PreconditionViolated(
                f"{len(labels)} labels for {count} stars")
        new = object.__new__
        for star, label in zip(zip(*[iter(buf)] * n), labels):
            twin = new(FiniteAlgebra)
            fields = twin.__dict__
            fields["names"] = names
            fields["join"] = join
            fields["meet"] = meet
            fields["star"] = star
            fields["zero"] = zero
            fields["one"] = one
            fields["label"] = label
            yield twin

    def relabel(self, label: str) -> "FiniteAlgebra":
        return replace(self, label=label)

    def __repr__(self) -> str:
        tag = self.label or f"{self.size} elements"
        return f"FiniteAlgebra({tag})"


def induced_fields(a: FiniteAlgebra, elements: Sequence[int], image) -> dict:
    """The fields of _SECTIONS of the algebra that a induces on elements,
    with every entry and constant x mapped to image[x], as keyword
    arguments for FiniteAlgebra beside names and label. The identity
    image over a.elements() gives a's own fields."""
    get = image.__getitem__

    def induced(value, depth: int):
        if depth == 2:
            return tuple(induced(value[x], 1) for x in elements)
        if depth:
            return tuple(map(get, map(value.__getitem__, elements)))
        return get(value)

    return {key: induced(getattr(a, key), depth) for key, depth in _SECTIONS}


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


def _tables(img) -> Callable[[Sequence[int]], tuple[tuple, tuple]]:
    """The tables of a Boolean part, img[s] the regular element of the set
    s of atoms, as a function of rep: the join and meet of the algebra
    whose element x lies in the cloud over rep[x], x v y = (x v x) v (y v y)
    = img[rep[x] | rep[y]], and meet likewise. The row maps t -> img[s | t]
    and t -> img[s & t] are built once; a call reads each at rep and makes
    two n-tuples of references, so elements in one cloud share rows."""
    sets = range(len(img))
    joins = [[img[s | t] for t in sets] for s in sets]
    meets = [[img[s & t] for t in sets] for s in sets]

    def tables(rep: Sequence[int]) -> tuple[tuple, tuple]:
        # itemgetter of one index gives that item, not a tuple of it.
        get = itemgetter(*rep) if len(rep) > 1 else lambda m: (m[rep[0]],)
        return get(list(map(get, joins))), get(list(map(get, meets)))
    return tables


# The unary bound and complement laws: all that is left to scan once the
# mask test settles the q-lattice laws and DIST.
_UNARY_QB = tuple(axiom for axiom in AXIOMS if axiom[0].startswith("QB"))


def validate(a: FiniteAlgebra) -> ValidationReport:
    """Check the ten axioms.

    Collects one witness per failed axiom, the first failing tuple in
    product order, instead of failing fast, which makes mutation
    diagnostics readable. When a.structure is found, the q-lattice laws
    and DIST hold, and only QB2-QB5 are scanned, in O(n); otherwise all
    ten are scanned one tuple at a time. The report is the full scan's.
    A table whose join or meet fails the mask test pays that scan, about
    2·n^3 predicate calls for QL2 and DIST: up to 2.4 s on seeded join
    mutants of a 144-element product (Python 3.11, 2 vCPUs).
    """
    return _validate_by_tuples(a, AXIOMS if a.structure is None else _UNARY_QB)


def _validate_by_tuples(a: FiniteAlgebra, axioms=AXIOMS) -> ValidationReport:
    """validate by one predicate call per tuple, over the given axioms in
    AXIOMS order: the reference scan."""
    violations = []
    n = a.size
    for label, arity, pred in axioms:
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


def regular_split(a: FiniteAlgebra) -> tuple[list[int], list[int]]:
    """The regular and the irregular elements, each sorted."""
    regs = regular_elements(a)
    return (sorted(regs), [x for x in a.elements() if x not in regs])


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
    return cloud_map(a)[a.join[x][x]]


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
# Text format: "size N", "names n0 ... n(N-1)", then each section of
# _SECTIONS in its order. '#' starts a comment, blank lines are ignored,
# and entries are element names, never indices.
# ---------------------------------------------------------------------------

def _keyword(lines: list[tuple[int, list[str]]], pos: int, key: str,
             form: str, width: int | None) -> tuple[int, list[str]]:
    """lines[pos], which must be key followed by width - 1 tokens (any
    number when width is None)."""
    if pos == len(lines):
        raise AlgebraParseError(f"unexpected end of file, expected {form}")
    lineno, toks = lines[pos]
    if toks[0] != key or width is not None and len(toks) != width:
        raise AlgebraParseError(f"line {lineno}: expected {form}")
    return lineno, toks


def load_algebra(text: str, label: str = "") -> FiniteAlgebra:
    """Parse the text format. Resolves names to indices; does not validate
    the axioms."""
    # A byte-order mark is not whitespace, so it would start the first token.
    if text.startswith("\ufeff"):
        raise AlgebraParseError("line 1: byte-order mark (U+FEFF) before 'size N'")
    # The lines that hold tokens once comments are cut, with their numbers.
    lines = [(lineno, toks) for lineno, raw in enumerate(text.splitlines(), 1)
             if (toks := raw.split("#", 1)[0].split())]

    lineno, toks = _keyword(lines, 0, "size", "'size N'", 2)
    if not (toks[1].isascii() and toks[1].isdigit()):  # int() takes "+4", "0_4"
        raise AlgebraParseError(f"line {lineno}: size is not an integer")
    n = int(toks[1])
    if n < 1:
        raise AlgebraSemanticError("size must be positive")

    lineno, toks = _keyword(lines, 1, "names", "'names ...'", None)
    names = tuple(toks[1:])
    if len(names) != n:
        raise AlgebraSemanticError(
            f"line {lineno}: expected {n} names, got {len(names)}")
    if len(set(names)) != n:
        raise AlgebraSemanticError(f"line {lineno}: duplicate names")
    index_of = {nm: i for i, nm in enumerate(names)}.__getitem__

    fields, pos = {}, 2
    try:
        for key, depth in _SECTIONS:
            if not depth:
                lineno, toks = _keyword(lines, pos, key, f"'{key} NAME'", 2)
                fields[key] = index_of(toks[1])
                pos += 1
                continue
            _keyword(lines, pos, key, f"'{key}'", 1)
            count = n if depth == 2 else 1
            table = []
            for lineno, toks in lines[pos + 1:pos + 1 + count]:
                if len(toks) != n:
                    raise AlgebraSemanticError(
                        f"line {lineno}: wrong table dimensions for {key}: "
                        f"expected {n} entries, got {len(toks)}")
                table.append(tuple(map(index_of, toks)))
            if len(table) < count:
                raise AlgebraParseError(
                    f"unexpected end of file, expected a {key} row")
            fields[key] = tuple(table) if depth == 2 else table[0]
            pos += 1 + count
    except KeyError as unknown:  # lineno is the line that holds it
        raise AlgebraSemanticError(
            f"line {lineno}: unknown name {unknown.args[0]!r}") from None
    if pos < len(lines):
        raise AlgebraParseError(f"line {lines[pos][0]}: trailing content")
    return FiniteAlgebra(names=names, label=label, **fields)


def _named(names, value, depth: int):
    """An element (depth 0), a row (1) or rows (2) of elements, by name."""
    if depth == 2:
        return [[names[v] for v in row] for row in value]
    return [names[v] for v in value] if depth else names[value]


def dump_algebra(a: FiniteAlgebra) -> str:
    """Serialize back to the text format. load_algebra(dump_algebra(a)) == a."""
    width = max(len(nm) for nm in a.names)
    padded = [nm.ljust(width) for nm in a.names]  # so table columns line up
    out = [f"size {a.size}", "names " + " ".join(a.names)]
    for key, depth in _SECTIONS:
        named = _named(padded, getattr(a, key), depth)
        rows = (named if depth == 2 else [named]) if depth else []
        out.append(key if depth else f"{key} {named.rstrip()}")
        out += [" ".join(row).rstrip() for row in rows]
    return "\n".join(out) + "\n"


def algebra_to_dict(a: FiniteAlgebra) -> dict:
    """JSON-friendly form using names: the text format's sections as keys,
    with the same nesting."""
    return {"size": a.size, "names": list(a.names),
            **{key: _named(a.names, getattr(a, key), depth)
               for key, depth in _SECTIONS},
            "label": a.label}


def algebra_from_dict(d: dict) -> FiniteAlgebra:
    """Inverse of algebra_to_dict; any bad input raises AlgebraSemanticError."""
    def listed(value) -> tuple:
        if isinstance(value, str):  # a sequence, but of characters, not names
            raise TypeError
        return tuple(value)

    def resolve(value, depth: int):
        if depth:
            return tuple(resolve(v, depth - 1) for v in listed(value))
        if value not in index:
            raise AlgebraSemanticError(f"unknown name {value!r}")
        return index[value]

    fields, key = {}, "names"
    try:
        fields[key] = listed(d[key])
        index = {nm: i for i, nm in enumerate(fields[key])}
        for key, depth in _DEEPEST_FIRST:
            fields[key] = resolve(d[key], depth)
    except KeyError:
        raise AlgebraSemanticError(f"missing key {key!r}") from None
    except TypeError:  # not a sequence, or an unhashable entry
        raise AlgebraSemanticError(f"malformed {key}") from None
    return FiniteAlgebra(label=d.get("label", ""), **fields)
