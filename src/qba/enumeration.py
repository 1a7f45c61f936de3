"""Exhaustive generation of small QB-algebras and structure verification.

Every algebra is built from its structure, not searched for: a Boolean
algebra on 2^k regular elements, an assignment of the irregulars
to clouds (complementary clouds of equal size), and a star mapping each
cloud bijectively onto the complementary one. The binary tables follow
from x v y = (x v x) v (y v y). Flat algebras are the case k = 0, where
the star is an involution of the one cloud. The construction yields only
valid algebras, so no axiom check runs here; the tests check that. A
family shares names and tables and varies the star; one loop makes its
star-only copies of a constructed first and checks the structure claims,
reading the tables and their mask test (FiniteAlgebra.structure) once.

Up to isomorphism nothing labeled is built: a class is fixed by the
star's fixed-point count (flat) or by the cloud sizes over the subsets of
the atoms, up to a permutation of the atoms (non-flat). One algebra per
class is built from that description. The labeled algebras are counted
by a closed form, labeled_count, which also guards labeled output.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice, permutations, product
from math import factorial
from operator import eq
from typing import Callable, Iterable, Iterator, NamedTuple

from .algebra import (FiniteAlgebra, _tables, cloud_map, is_flat,
                      regular_elements, translation_table)
from .errors import PreconditionViolated, TooLarge
from .quotients import (_flat_algebra, atom_relabelings, flat_star,
                        generic_names)

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
    _check_size(n)
    total = involution_count(n - 1)
    if flat_only or n % 2:
        return total
    for k in range(1, n.bit_length()):
        p = 1 << (k - 1)
        q = n // 2 - p
        total += factorial(n - 1) * p ** q // (factorial(k) * factorial(q))
    return total


def _check_size(n) -> None:
    """Refuse, before any work, a size that is not a positive int (a
    bool is not taken for one)."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("size must be a positive integer")


def _labeled(n: int, k: int) -> Iterator[tuple[FiniteAlgebra, Iterable[bytes]]]:
    """Every algebra on {0..n-1} with zero at index 0 and 2^k regular
    elements, each once, by families (first, stars): first is built
    through the constructor, and each star (bytes) gives a copy of it.
    For k = 0 (the flat case): one family, a star per involution of
    1..n-1 in lexicographic order. Otherwise n is even, img[i] is the
    regular element for the subset i of the k atoms, the atoms img[1],
    img[2], img[4], ... increase (one labeling per permutation of the
    atoms), each irregular x gets a cloud rep[x], clouds s and s ^ top
    have equal sizes, and each such assignment is a family: tables from
    _tables and the stars of _cloud_stars sorted, first with the least."""
    if k == 0:
        stars = map(b"\0".__add__, _involutions(bytes(range(1, n))))
        yield _flat_algebra(n, next(stars)), stars
        return
    if n % 2:  # non-flat algebras have even order
        return
    names = generic_names(n)
    top = (1 << k) - 1
    # The clouds of the irregulars, in order, that give clouds s and
    # s ^ top = top - s equal sizes (s -> top - s keeps their multiset):
    # the same for every choice of img.
    assignments = [c for c in product(range(top + 1), repeat=n - top - 1)
                   if sorted(c) == sorted(map(top.__sub__, c))]
    for p in permutations(range(1, n), top):
        img = (0,) + p
        if any(img[1 << i] > img[2 << i] for i in range(k - 1)):
            continue
        rep = [0] * n
        for s, r in enumerate(img):
            rep[r] = s
        irregulars = [x for x in range(n) if x not in img]
        for clouds in assignments:
            for x, s in zip(irregulars, clouds):
                rep[x] = s
            stars = iter(sorted(_cloud_stars(img, rep)))
            yield (FiniteAlgebra(names, *_tables(img, rep), tuple(next(stars)),
                                 0, img[top]), stars)


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


def _involution_level(older: list[bytes], old: list[bytes],
                      values: bytes) -> Iterator[bytes]:
    """The involutions of m = len(values) points, each as the bytes of
    the images of points 0..m-1 through values: point 0 fixed over each
    involution of points 1..m-1 (old, over range(m - 1)), then 0 paired
    with each later point y in turn over each involution of the points
    left (older, over range(m - 2)). This is the order in which a
    recursion that fixes or pairs the first point lists them."""
    head, rest = values[:1], values[1:]
    fixed = translation_table(rest)
    for t in old:
        yield head + t.translate(fixed)
    for i in range(len(rest)):
        # Point y = i + 1 is paired with 0; the points left are 1..m-1
        # without y, so y's image sits between their first i and the rest.
        left, mate = translation_table(rest[:i] + rest[i + 1:]), rest[i:i + 1]
        for t in older:
            v = t.translate(left)
            yield mate + v[:i] + head + v[i:]


def _involutions(members: bytes) -> Iterator[bytes]:
    """Every involution of a cloud, as the images of its members in the
    order of members. The involutions of range(m) are built level by
    level, each from the two before it. The last level, mapped onto the
    members, and the one below it, which it reads once, are streamed;
    only the two levels below those are kept."""
    if len(members) < 2:
        return iter((members,))  # the identity is the only one
    older, old = [], [b""]  # levels -1 (none) and 0 (the empty one)
    for m in range(1, len(members) - 1):
        older, old = old, list(_involution_level(older, old, bytes(range(m))))
    below = _involution_level(older, old, bytes(range(len(members) - 1)))
    return _involution_level(old, below, members)


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
    output of more than MAX_LABELED algebras, are refused before work.
    Labeled families sort by the (one, join, meet) of their first ones."""
    _check_size(n)
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
    then the non-flat ones, a family of one each."""
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
    stars = (ident[:f] + fewest[f:] for f in fixed)
    first = _flat_algebra(n, next(stars), labels[0])
    yield first, stars, labels[1:len(fixed)]
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
    return (*_tables(img, rep), tuple(next(_cloud_stars(img, rep))))


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
    clouds: dict[int, frozenset[int]]
    claims: list[tuple[str, bool | None]]
    tables_hold: bool


def _table_facts(a: FiniteAlgebra) -> _TableFacts:
    """x v x for each x, the class {y : y v y = r} of each such r, and
    every claim that applies, in STRUCTURE_CLAIMS order: with its value
    where it reads the tables alone, with None where it reads the star.
    The irreducible claims read the star only when the mask test holds."""
    regs = regular_elements(a)
    reps = [a.join[x][x] for x in a.elements()]
    clouds = cloud_map(a)
    # Once every x v x is regular, the clouds of the regulars are the
    # classes of cloud_map, so they cover the carrier disjointly.
    claims = [("cloud-partition", regs.issuperset(reps)),
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
            ("flat-regulars-trivial", regs == frozenset((a.zero,))),
            ("flat-cloud-zero-whole", len(clouds) == 1),
            ("flat-ops-zero",
             all(row == zero_row for row in a.join)
             and all(row == zero_row for row in a.meet)),
            ("flat-size-parity", None),
        ]
    return _TableFacts(flat, reps, clouds, claims,
                       all(ok is not False for _, ok in claims))


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
    the clouds of the regulars and the star."""
    star = a.star
    n = len(star)  # a.size, as the star was checked to have
    image = size = apart = True
    for r, cloud in f.clouds.items():
        if f.reps[r] == r:  # a regular and its cloud
            dst = f.clouds[f.reps[star[r]]]
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
               ) -> Callable[[tuple[int, ...]], bool] | None:
    """A test for the stars of a's family (its join, meet, zero and one,
    with table facts f) that passes only stars on which every star claim
    holds, or None where each star takes _claims: when a table claim
    fails, and past 256 elements, as bytes hold entries below 256. A flat
    star passes if it is an involution: a bijection of the one cloud
    whose moved points pair up. A non-flat star passes if it is an
    involution without fixed points that commutes with x -> x v x: it
    then maps the cloud of each regular r into the cloud of r*, another
    one, and that cloud back, so onto it, and the two have equal sizes.
    On an irreducible family r* is the other regular, so 0* = 1 and the
    product form holds too."""
    n = a.size
    if not f.tables_hold or n > 256:
        return None
    ident = bytes(range(n))
    if f.flat:
        def involutive(star: tuple[int, ...]) -> bool:
            s = bytes(star)
            return s.translate(s.ljust(256, b"\0")) == ident
        return involutive
    reps = bytes(f.reps)
    rep_of = translation_table(reps)

    def paired(star: tuple[int, ...]) -> bool:
        s = bytes(star)
        star_of = translation_table(s)
        return (s.translate(star_of) == ident
                and reps.translate(star_of) == s.translate(rep_of)
                and not any(map(eq, s, ident)))
    return paired


def _made_and_checked(families) -> tuple[tuple, tuple]:
    """The algebras of families (first, stars[, labels]) in order, first
    and then a star-only copy per star, and (claim, algebra) for every
    failing claim. The table facts and the _star_test of a family come
    from first, whose tables the copies made here share. A star that
    passes the test has every claim hold; any other takes _claims."""
    algebras, violations = [], []
    for first, stars, *labels in families:
        f = _table_facts(first)
        passes = _star_test(first, f)
        for a in chain((first,), first._with_stars(stars, *labels)):
            algebras.append(a)
            if not (passes and passes(a.star)):
                violations += [(label, a) for label, ok in _claims(a, f) if not ok]
    return tuple(algebras), tuple(violations)
