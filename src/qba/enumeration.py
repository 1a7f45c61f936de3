"""Exhaustive generation of small QB-algebras and structure verification.

Every algebra is built from its structure, not searched for: a Boolean
algebra on 2^k regular elements, an assignment of the irregulars
to clouds (complementary clouds of equal size), and a star mapping each
cloud bijectively onto the complementary one. The binary tables follow
from x v y = (x v x) v (y v y). Flat algebras are the case k = 0, where
the star is an involution of the one cloud. The construction yields only
valid algebras, so no axiom check runs here; the tests check that. A
family shares names and tables and varies the star: its first algebra
is built through the constructor, and one loop makes its star-only
copies and checks the structure claims, reading the tables and their
mask test (FiniteAlgebra.structure) once.
The stars travel as bytes buffers of n-byte rows, one star per row, and
each buffer, first's star as one of one row, takes one test of the star
claims as a whole: the labeled flat stars are made level by level, a
buffer at a time, and checked column by column where a buffer is large;
the other stars of a non-flat family come as one buffer. Only the
algebras of a buffer that fails its test have their claims listed.

Up to isomorphism nothing labeled is built: a class is fixed by the
star's fixed-point count (flat) or by the cloud sizes over the subsets of
the atoms, up to a permutation of the atoms (non-flat). One algebra per
class is built from that description. The labeled algebras are counted
by a closed form, labeled_count, which also guards labeled output and
checks its length.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations, islice, permutations, product
from math import factorial
from operator import eq, itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from .algebra import (FiniteAlgebra, _tables, check_natural, is_flat,
                      translation_table)
from .errors import InvariantViolation, PreconditionViolated, TooLarge
from .partitions import classes
from .quotients import _flat_algebra, atom_relabelings, flat_star, generic_names

MAX_SIZE = 16  # any enumeration
MAX_LABELED = 10 ** 6  # labeled algebras one call may build


@dataclass(frozen=True)
class EnumerationReport:
    """Result of an enumeration run.

    iso_classes holds pairwise non-isomorphic representatives when
    up_to_iso, otherwise every labeled algebra. total_labeled counts the
    labeled algebras either way. violations lists (claim label, algebra)
    for any structure claim failing on an emitted algebra.
    """

    size: int
    flat_only: bool
    up_to_iso: bool
    total_labeled: int
    iso_classes: tuple[FiniteAlgebra, ...]
    violations: tuple[tuple[str, FiniteAlgebra], ...]


def involution_count(m: int) -> int:
    """Number of involutions on m labeled points."""
    if m < 0:
        raise ValueError("m must be non-negative")
    prev, cur = 1, 1
    for i in range(2, m + 1):
        prev, cur = cur, cur + (i - 1) * prev
    return cur


def labeled_count(n: int, flat_only: bool = False) -> int:
    """Number of algebras on {0..n-1} with zero at 0, or of the flat ones.

    The flat ones are the involutions of 1..n-1. For n = 2h, a Boolean
    part with k atoms has P = 2^(k-1) pairs of complementary clouds, and
    summing orbit-stabilizer over its cloud-size functions gives
    (n-1)! P^(h-P) / (k! (h-P)!) algebras; P <= h, so 2^k <= n.
    """
    check_natural(n, "size", 1)
    total = involution_count(n - 1)
    if flat_only or n % 2:
        return total
    for k in range(1, n.bit_length()):
        p = 1 << (k - 1)
        q = n // 2 - p
        total += factorial(n - 1) * p ** q // (factorial(k) * factorial(q))
    return total


def _labeled(n: int, k: int) -> Iterator[tuple[FiniteAlgebra, Iterable[bytes]]]:
    """Every algebra on {0..n-1} with zero at index 0 and 2^k regular
    elements, each once, by families (first, stars): first is built
    through the constructor, and each row of the buffers of stars (see
    FiniteAlgebra._with_stars) gives a copy of it. For k = 0 (the flat
    case): one family, a star per involution of 1..n-1 in lexicographic
    order, in the buffers of _involutions. Otherwise n is even, img[i] is
    the regular element for the subset i of the k atoms, the atoms img[1],
    img[2], img[4], ... increase (one labeling per permutation of the
    atoms), each irregular x gets a cloud rep[x], clouds s and s ^ top
    have equal sizes, and each such assignment is a family: the tables of
    _tables(img), its row maps built once per labeling, and the stars of
    _cloud_stars, the least on first and the others, sorted, in one buffer."""
    if k == 0:
        stars = _involutions(n)
        head = next(stars)
        yield _flat_algebra(n, head[:n]), chain((head[n:],), stars)
        return
    if n % 2:  # non-flat algebras have even order
        return
    names = generic_names(n)
    top = (1 << k) - 1
    sets = range(top + 1)
    # The rep and the stars (the least first) of each assignment that gives
    # clouds s and top - s equal sizes, over the elements in the order
    # img + irregulars, as translate tables: the same for every img.
    shapes = []
    for c in product(sets, repeat=n - top - 1):
        if sorted(c) == sorted(map(top.__sub__, c)):
            rep = (*sets, *c)
            shapes.append((translation_table(rep), [
                translation_table(s) for s in _cloud_stars(sets, rep)]))
    for p in permutations(range(1, n), top):
        img = (0,) + p
        if any(img[1 << i] > img[2 << i] for i in range(k - 1)):
            continue
        tables = _tables(img)
        at = img + tuple(x for x in range(n) if x not in img)  # at each place
        place = bytes(sorted(range(n), key=at.__getitem__))  # of each element
        at = translation_table(at)
        for rep, stars in shapes:
            least, *others = [place.translate(s).translate(at) for s in stars]
            others.sort()
            yield (FiniteAlgebra(names, *tables(place.translate(rep)),
                                 tuple(least), 0, img[top]),
                   (b"".join(others),) if others else ())


def _cloud_stars(img, rep) -> Iterator[bytes]:
    """Every star of the non-flat algebra whose element x lies in the
    cloud over the atom set rep[x], where img[s] is the regular element
    of the set s. Each regular img[s] maps to img[top - s]; the
    irregulars of each cloud s <= top >> 1 map onto those of cloud
    top - s, in order, through each permutation of the latter in turn,
    the last pair of clouds varying fastest."""
    top = len(img) - 1
    star = bytearray(len(rep))
    members: list[list[int]] = [[] for _ in img]
    for x, s in enumerate(rep):
        if img[s] == x:
            star[x] = img[top - s]
        else:
            members[s].append(x)
    pairs = [(members[s], members[top - s]) for s in range(top // 2 + 1)]
    # The first star (every permutation the identity) comes before product,
    # which lists all permutations up front; _cloud_tables reads it alone.
    for src, dst in pairs:
        for x, y in zip(src, dst):
            star[x], star[y] = y, x
    yield bytes(star)
    for perms in islice(product(*(permutations(dst) for _, dst in pairs)),
                        1, None):
        for (src, _), perm in zip(pairs, perms):
            for x, y in zip(src, perm):
                star[x], star[y] = y, x
        yield bytes(star)


# v -> v + 1 as a translate table.
_SHIFT = translation_table(range(1, 256))


def _involution_chunks(m: int) -> Iterator[bytes]:
    """Level m >= 2 of the involutions: the row (0, s(1), ..., s(m)) for
    each involution s of 1..m, in lexicographic order, built from levels
    m - 1 and m - 2. It comes as one buffer of rows per image y of 1: 1
    fixed over each row of level m - 1, whose points 1..m-1 become 2..m,
    then 1 paired with y = 2..m in turn over each row of level m - 2,
    whose points become those left, in order. A buffer takes one
    translate of the level below and a strided store per column; the
    zero column is the bytearray's own zeros."""
    w = m + 1
    below = _involution_level(m - 1)
    rows = len(below) // m
    out = bytearray(rows * w)
    out[1::w] = b"\1" * rows
    below = below.translate(_SHIFT)
    for x in range(2, w):
        out[x::w] = below[x - 1::m]
    yield bytes(out)
    older = _involution_level(m - 2)
    rows = len(older) // (m - 1)
    # Points 1.. of level m - 2 become 2..m without y, in order: v -> v + 2
    # from v = y - 1 on, v -> v + 1 below it.
    left = bytearray(_SHIFT[1:] + b"\0")
    for y in range(2, w):
        left[y - 2] = y - 1
        below = older.translate(left)
        out = bytearray(rows * w)
        out[1::w] = bytes((y,)) * rows
        out[y::w] = b"\1" * rows
        for x in range(2, y):
            out[x::w] = below[x - 1::m - 1]
        for x in range(y + 1, w):
            out[x::w] = below[x - 2::m - 1]
        yield bytes(out)


@cache
def _involution_level(m: int) -> bytes:
    """Level m of the involutions (see _involution_chunks) as one buffer;
    levels 0 and 1 have one row each. Each level is built once and kept
    for the life of the process, as every labeled flat call of a larger
    size reads it again: levels 0-12, the most a labeled call reads, take
    2.4 MB."""
    if m < 2:
        return b"\0\1"[:m + 1]
    return b"".join(_involution_chunks(m))


def _involutions(n: int) -> Iterator[bytes]:
    """The stars of the labeled flat algebras of size n: 0 fixed and an
    involution of 1..n-1, in lexicographic order, as buffers of n-byte
    rows. They are level n - 1 of the involutions, streamed a buffer per
    image of 1 over the levels below; the last level is never kept."""
    return _involution_chunks(n - 1) if n > 2 else iter((_involution_level(n - 1),))


def enumerate_flat(n: int, up_to_iso: bool = True) -> EnumerationReport:
    """All flat algebras of size n, labeled or up to isomorphism.

    Isomorphism classes correspond to the star fixed-point count k with
    n - k even; 0 is always fixed, so k >= 1. Each is labeled F{n}k{k}.
    """
    return _enumerate(n, up_to_iso, True)


def enumerate_all(n: int, up_to_iso: bool = True) -> EnumerationReport:
    """All QB-algebras of size n with the zero constant at index 0: every
    labeled one, in (one, join, meet, star) order, or one per class, as
    _classes builds them."""
    return _enumerate(n, up_to_iso, False)


def _enumerate(n: int, up_to_iso: bool, flat_only: bool) -> EnumerationReport:
    """The body of both enumerators. Sizes past MAX_SIZE, and labeled
    output of more than MAX_LABELED algebras, are refused before work;
    labeled output of other than labeled_count algebras raises
    InvariantViolation. Labeled families sort by the (one, join, meet) of
    their first ones."""
    check_natural(n, "size", 1)
    kind = "flat" if flat_only else "general"
    if n > MAX_SIZE:
        raise TooLarge(f"{kind} enumeration is guarded at {MAX_SIZE}")
    total = labeled_count(n, flat_only)
    if not up_to_iso and total > MAX_LABELED:
        raise TooLarge(f"labeled {kind} enumeration of size {n} would build "
                       f"{total} algebras; it is guarded at {MAX_LABELED}")
    if up_to_iso:
        families = _classes(n, flat_only)
    elif flat_only:
        families = _labeled(n, 0)
    else:
        families = sorted(
            (f for k in range(n.bit_length()) for f in _labeled(n, k)),
            key=lambda f: (f[0].one, f[0].join, f[0].meet))
    algebras, violations = _made_and_checked(families)
    if not up_to_iso and len(algebras) != total:
        raise InvariantViolation(f"labeled {kind} enumeration of size {n} "
                                 f"built {len(algebras)} algebras, not {total}")
    return EnumerationReport(size=n, flat_only=flat_only, up_to_iso=up_to_iso,
                             total_labeled=total, iso_classes=algebras,
                             violations=violations)


def iso_class_key(a: FiniteAlgebra) -> tuple:
    """A key that two valid algebras share exactly when they are
    isomorphic: the number of star fixed points, which fixes a flat
    algebra, and the cloud sizes over the atom sets of a.structure, least
    over the orders of the atoms, which fix a non-flat one. A table that
    fails the mask test raises PreconditionViolated."""
    if a.structure is None:
        raise PreconditionViolated(
            "join and meet are not unions and intersections of atom masks")
    atoms, masks = a.structure
    fixed = sum(1 for x in a.elements() if a.star[x] == x)
    return fixed, min(sizes for _, sizes in atom_relabelings(masks, len(atoms)))


def dedupe_up_to_iso(algebras) -> list[FiniteAlgebra]:
    """The first of each isomorphism class of valid algebras, in order.
    enumerate_all builds its classes without it; the tests keep it as
    the oracle of that construction."""
    reps: dict[tuple, FiniteAlgebra] = {}
    for a in algebras:
        reps.setdefault(iso_class_key(a), a)
    return list(reps.values())


def _classes(n: int, flat_only: bool) -> Iterator[tuple]:
    """One algebra per isomorphism class of size n, by families (first,
    stars, labels) as _labeled gives them, with a label per star. Flat
    only: one family, by rising number k of star fixed points, labeled
    F{n}k{k}. Otherwise labeled qba{n}_i in (one, join, meet, star) order:
    the flat classes, one family by falling number of star fixed points,
    then the non-flat ones, a family of one each. Every class is built
    through the constructor but the flat family's star-only copies."""
    if flat_only:
        fixed = range(2 - n % 2, n + 1, 2)
        tables, labels = [], [f"F{n}k{k}" for k in fixed]
    else:
        fixed = range(n, 0, -2)
        tables = sorted(map(_cloud_tables, _cloud_classes(n)))
        labels = [f"qba{n}_{i}" for i in range(len(fixed) + len(tables))]
    # The star with f fixed points is the identity below f and, from f
    # on, that of the class with the fewest (n - f is even).
    ident, fewest = bytes(range(n)), bytes(flat_star(n, 2 - n % 2))
    stars = b"".join(ident[:f] + fewest[f:] for f in fixed)
    first = _flat_algebra(n, stars[:n], labels[0])
    yield first, (stars[n:],), labels[1:len(fixed)]
    for t, label in zip(tables, labels[len(fixed):]):
        yield FiniteAlgebra(first.names, *t, 0, 1, label), (), ()


def _cloud_classes(n: int) -> Iterator[tuple[int, ...]]:
    """The cloud sizes c of each isomorphism class of non-flat algebras of
    size n. For a Boolean part with k atoms, c[s] is the size of the cloud
    over the set s of atoms; c[s] = c[top - s] >= 1 and the sizes add up
    to n, so the first half of c is a composition of n/2. c is the least
    of its orbit under the permutations of the atoms."""
    if n % 2:
        return
    for k in range(1, n.bit_length()):
        half = 1 << (k - 1)
        for cuts in combinations(range(1, n // 2), half - 1):
            parts = tuple(b - a for a, b in zip((0, *cuts), (*cuts, n // 2)))
            c = parts + parts[::-1]
            masks = [s for s, size in enumerate(c) for _ in range(size)]
            if c == min(sizes for _, sizes in atom_relabelings(masks, k)):
                yield c


def _cloud_tables(c: tuple[int, ...]) -> tuple[tuple, tuple, tuple]:
    """join, meet and star of an algebra with cloud sizes c. Element 0 is
    zero and 1 is top; the irregulars of zero's cloud follow, then top's,
    then each other regular and its irregulars, largest cloud first. The
    star, the first of _cloud_stars, maps the i-th member of cloud s to
    the i-th of cloud top - s.
    This makes x v x, the first row of join, least; with at most two
    atoms, which are then interchangeable, it is the least labeled
    algebra of the class in (one, join, meet, star) order."""
    top = len(c) - 1
    rep = [0, top] + [0] * (c[0] - 1) + [top] * (c[top] - 1)
    img = [0] * len(c)
    img[top] = 1
    for s in sorted(range(1, top), key=c.__getitem__, reverse=True):
        img[s] = len(rep)
        rep += [s] * c[s]
    return (*_tables(img)(rep), tuple(next(_cloud_stars(img, rep))))


STRUCTURE_CLAIMS = (
    "cloud-partition",
    "star-cloud-image",
    "star-cloud-size",
    "star-involution",
    "nonflat-star-free",
    "nonflat-complement-clouds-disjoint",
    "nonflat-regular-even",
    "nonflat-order-even",
    "irreducible-product-form",
    "irreducible-odd-flat-form",
    "flat-regulars-trivial",
    "flat-cloud-zero-whole",
    "flat-ops-zero",
    "flat-size-parity",
)


class _TableFacts(NamedTuple):
    """What verify_structure derives from join, meet, zero and one alone,
    so algebras that share those objects derive it once."""

    flat: bool
    reps: list[int]
    claims: list[tuple[str, bool | None]]
    tables_hold: bool


def _table_facts(a: FiniteAlgebra) -> _TableFacts:
    """x v x for each x, read once, and every claim that applies, in
    STRUCTURE_CLAIMS order: with its value where it reads the tables
    alone, with None where it reads the star. The regulars and the clouds
    {y : y v y = r} come from x v x; only _claims reads their members.
    The irreducible claims read the star only when the mask test holds."""
    reps = [row[x] for x, row in enumerate(a.join)]
    keys = set(reps)  # one per cloud
    regs = {r for r in keys if reps[r] == r}
    # Once every x v x is regular, the clouds of the regulars are the
    # classes of x v x, so they cover the carrier disjointly.
    claims = [("cloud-partition", regs == keys),
              ("star-cloud-image", None), ("star-cloud-size", None),
              ("star-involution", None)]
    flat = is_flat(a)
    if not flat:
        claims += [("nonflat-star-free", None),
                   ("nonflat-complement-clouds-disjoint", None),
                   ("nonflat-regular-even", len(regs) % 2 == 0),
                   ("nonflat-order-even", a.size % 2 == 0)]
        if a.size % 2 == 0 and regs == {a.zero, a.one}:  # irreducible
            product = None if a.structure is not None else False
            claims.append(("irreducible-product-form", product))
            if a.size % 4 == 2:
                claims.append(("irreducible-odd-flat-form", product))
    else:
        zero_row = (a.zero,) * a.size
        claims += [
            ("flat-regulars-trivial", regs == {a.zero}),
            ("flat-cloud-zero-whole", len(keys) == 1),
            ("flat-ops-zero",
             a.join.count(zero_row) == a.meet.count(zero_row) == len(reps)),
            ("flat-size-parity", None),
        ]
    return _TableFacts(flat, reps, claims,
                       False not in map(itemgetter(1), claims))


def verify_structure(a: FiniteAlgebra) -> list[tuple[str, bool]]:
    """Evaluate every structure claim applicable to the algebra, in
    STRUCTURE_CLAIMS order.

    Claims cover the cloud partition (every element in the cloud of a
    regular one, star maps clouds to clouds bijectively), the star as an
    involution (x** = x), the non-flat parity facts, the flat collapse
    facts, and the classification of irreducible algebras of even size 2h
    as 2 x make_flat(h, f). These products are isomorphic for all
    admissible f, so the form with f = 1, which applies exactly when the
    size is 2 mod 4, has the same answer.

    A non-flat algebra of size 2h with regulars 0 and 1 has that form
    exactly when join and meet pass the mask test and the star is an
    involution with 0* = 1 that maps the cloud of 0 onto that of 1. Only
    if: the product has these, and an isomorphism keeps them. If: the test
    makes 1 the one atom and 0 of the empty mask, so the two clouds halve
    the carrier; with c_i the i-th member of the cloud of 0 (c_0 = 0) and
    s the star of make_flat(h, f), c_i -> (0, i) and c_i* -> (1, s(i)) is
    a bijection that keeps 0, 1, the star and the masks, which are all
    that join and meet read on either side.

    The claims are not a validity test: boolean_algebra(2) with the star
    (1, 0, 3, 2) passes every claim and fails validate.
    """
    return _claims(a, _table_facts(a))


def _claims(a: FiniteAlgebra, f: _TableFacts) -> list[tuple[str, bool]]:
    """The claims of f, each None filled by its label from one pass over
    the clouds of the regulars, grouped from f.reps, and the star."""
    star, reps = a.star, f.reps
    n = len(star)  # a.size, as the star was checked to have
    clouds = {reps[c[0]]: frozenset(c) for c in classes(reps)}
    image = size = apart = True
    for r, cloud in clouds.items():
        if reps[r] == r:  # a regular and its cloud
            dst = clouds[reps[star[r]]]
            image = image and frozenset(map(star.__getitem__, cloud)) == dst
            size = size and len(cloud) == len(dst)
            apart = apart and not cloud & dst
    fixed = sum(map(eq, star, range(n)))
    involution = all(map(eq, map(star.__getitem__, star), range(n)))
    # Where the product form reads the star, the regulars are 0 and 1 and
    # their clouds cover the carrier: the star maps the cloud of 0 onto
    # that of 1 exactly when image holds and 0* = 1.
    product = image and star[a.zero] == a.one and involution
    read = {"star-cloud-image": image, "star-cloud-size": size,
            "star-involution": involution, "nonflat-star-free": fixed == 0,
            "nonflat-complement-clouds-disjoint": apart,
            "irreducible-product-form": product,
            "irreducible-odd-flat-form": product,
            "flat-size-parity": (n - fixed) % 2 == 0}
    return [(label, read[label] if ok is None else ok) for label, ok in f.claims]


def _star_test(a: FiniteAlgebra, f: _TableFacts
               ) -> Callable[[bytes], bool] | None:
    """A test of a buffer of stars (see FiniteAlgebra._with_stars) for
    a's family, its join, meet, zero and one with table facts f, that
    passes only if every star claim holds on every row; None, when a
    table claim fails, leaves each star to _claims. A flat row passes if
    it is an involution: a bijection of the one cloud whose moved points
    pair up. A flat buffer of more rows than column pairs is tested by
    _involutive_rows, a smaller one a row at a time. A non-flat row passes
    if it is an involution without fixed points that commutes with
    x -> x v x: it then maps the cloud of each regular r into the cloud
    of r*, another one, and that cloud back, so onto it, and the two have
    equal sizes. On an irreducible family r* is the other regular, so
    0* = 1 and the product form holds too."""
    if not f.tables_hold:
        return None
    n, flat = a.size, f.flat
    ident, pairs = bytes(range(n)), n * (n - 1) // 2
    reps = bytes(f.reps)
    rep_of = translation_table(reps)

    def passes(buf: bytes) -> bool:
        if flat and len(buf) > pairs * n:
            return _involutive_rows(buf, n)
        for i in range(0, len(buf), n):
            s = buf[i:i + n]
            star_of = s.ljust(256, b"\0")  # translation_table(s), inlined
            if s.translate(star_of) != ident or not flat and (
                    reps.translate(star_of) != s.translate(rep_of)
                    or any(map(eq, s, ident))):
                return False
        return True
    return passes


# _IS[v], for each star entry v < MAX_SIZE, maps byte v to 1, others to 0.
_IS = tuple(bytes(v) + b"\1" + bytes(255 - v) for v in range(MAX_SIZE))


def _involutive_rows(buf: bytes, n: int) -> bool:
    """Whether every n-byte row s of buf, whose entries are below n, is an
    involution, column by column: for every x < y, the rows where
    s(x) = y are the rows where s(y) = x. A row that passes has
    s(s(x)) = x for each x, whether s(x) is x or some y; one that fails
    has s(x) = y but s(y) != x for some x, y."""
    cols = [buf[x::n] for x in range(n)]
    return all(cols[x].translate(_IS[y]) == cols[y].translate(_IS[x])
               for x in range(n) for y in range(x + 1, n))


def _made_and_checked(families) -> tuple[tuple, tuple]:
    """The algebras of families (first, stars[, labels]) in order, first
    and then a star-only copy per row of each buffer of stars, labeled by
    labels if given, and (claim, algebra) for every failing claim. The
    table facts and the _star_test of a family come from first, whose
    tables the copies made here share. Each buffer, first's star as one
    of one row, takes the test once, and an empty one is skipped; the
    algebras of a buffer that passes have every claim hold, and those of
    any other buffer, or of a family without a test, take _claims one by
    one."""
    algebras, violations = [], []
    for first, stars, *labels in families:
        f = _table_facts(first)
        passes = _star_test(first, f)
        buffers = chain([(bytes(first.star), (first,))],
                        ((buf, first._with_stars(buf, *labels))
                         for buf in stars if buf))
        for buf, made in buffers:
            start = len(algebras)
            algebras.extend(made)
            if not (passes and passes(buf)):
                violations += [(label, a) for a in algebras[start:]
                               for label, ok in _claims(a, f) if not ok]
    return tuple(algebras), tuple(violations)
