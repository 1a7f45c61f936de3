"""Exhaustive generation of small QB-algebras and structure verification.

Every algebra is built from its structure, not searched for: a Boolean
algebra on 2^k regular elements, an assignment of the irregulars
to clouds (complementary clouds of equal size), and a star mapping each
cloud bijectively onto the complementary one. The binary tables follow
from x v y = (x v x) v (y v y). Flat algebras are the case k = 0, where
the star is an involution of the one cloud. The construction yields only
valid algebras, so no axiom check runs here; the tests check that.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from operator import eq
from typing import Iterator, NamedTuple

from .algebra import FiniteAlgebra, cloud_map, is_flat, regular_elements
from .errors import TooLarge
from .quotients import (atom_masks, atom_relabelings, boolean_algebra,
                        direct_product, is_homomorphism, is_irreducible,
                        isomorphism_candidate, make_flat)

MAX_FLAT = 16
MAX_ALL = 6
MAX_LABELED = 10 ** 6  # labeled algebras one enumerate_flat call may build


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
    return cur if m >= 1 else 1


def _involutions_into(star: list[int], points: tuple[int, ...]) -> Iterator[None]:
    """Write each involution of points into star, in turn: x = points[0]
    fixed first, then x paired with each later point, the rest filled
    recursively in the same order. Yields once per involution, with
    star[p] set for every p in points."""
    if not points:
        yield
        return
    x, rest = points[0], points[1:]
    star[x] = x
    yield from _involutions_into(star, rest)
    for i, y in enumerate(rest):
        star[x], star[y] = y, x
        yield from _involutions_into(star, rest[:i] + rest[i + 1:])


def _bijections_into(star: list[int], src: list[int],
                     dst: list[int]) -> Iterator[None]:
    """Write each bijection of src onto dst, and its inverse, into star:
    src[i] <-> perm[i] for each perm of dst in permutations order."""
    for perm in permutations(dst):
        for u, v in zip(src, perm):
            star[u], star[v] = v, u
        yield


def _generic_names(n: int) -> tuple[str, ...]:
    return ("0",) + tuple(f"x{i}" for i in range(1, n))


def _labeled(n: int, k: int) -> Iterator[FiniteAlgebra]:
    """Every algebra on {0..n-1} with zero at index 0 and 2^k regular
    elements, each once.

    img[i] is the regular element for the subset i of the k atoms; the
    atoms img[1], img[2], img[4], ... increase, which keeps one labeling
    per permutation of the atoms. Each irregular x gets a cloud rep[x],
    clouds s and s ^ top have equal sizes, and the tables follow from
    x v y = (x v x) v (y v y). For k = 0 (the flat case) the stars come
    in the order of _involutions_into on 1..n-1.
    """
    names = _generic_names(n)
    top = (1 << k) - 1
    for p in permutations(range(1, n), top):
        img = (0,) + p
        if any(img[1 << i] > img[2 << i] for i in range(k - 1)):
            continue
        rep = [0] * n
        star = [0] * n
        for s, r in enumerate(img):
            rep[r], star[r] = s, img[s ^ top]
        irregulars = [x for x in range(n) if x not in img]
        for clouds in product(range(top + 1), repeat=len(irregulars)):
            members: list[list[int]] = [[] for _ in range(top + 1)]
            for x, s in zip(irregulars, clouds):
                rep[x] = s
                members[s].append(x)
            if any(len(members[s]) != len(members[s ^ top])
                   for s in range(top + 1)):
                continue
            joins = [tuple(img[s | t] for t in rep) for s in range(top + 1)]
            meets = [tuple(img[s & t] for t in rep) for s in range(top + 1)]
            join = tuple(joins[s] for s in rep)
            meet = tuple(meets[s] for s in rep)
            # The family of this cloud assignment shares names and tables;
            # its first algebra checks them, the others only their star.
            stars = _stars(star, members, top, 0)
            first = FiniteAlgebra(names=names, join=join, meet=meet,
                                  star=next(stars), zero=0, one=img[top])
            yield first
            for st in stars:
                yield first._with_star(st)


def _stars(star: list[int], members: list[list[int]], top: int,
           s: int) -> Iterator[tuple[int, ...]]:
    """Fill the star on the irregulars one cloud pair (s, s ^ top) at a
    time, from s to the last pair top >> 1: an involution of the cloud when
    s ^ top == s, else a bijection onto the complementary cloud."""
    src, dst = members[s], members[s ^ top]
    if s == s ^ top:
        fills = _involutions_into(star, tuple(src))
    else:
        fills = _bijections_into(star, src, dst)
    last = s == top >> 1
    for _ in fills:
        if last:
            yield tuple(star)
        else:
            yield from _stars(star, members, top, s + 1)


def enumerate_flat(n: int, up_to_iso: bool = True) -> EnumerationReport:
    """All flat algebras of size n, labeled or up to isomorphism.

    Isomorphism classes correspond to the star fixed-point count k with
    n - k even; 0 is always fixed, so k >= 1.
    """
    if n < 1:
        raise ValueError("size must be positive")
    if n > MAX_FLAT:
        raise TooLarge(f"flat enumeration is guarded at {MAX_FLAT}")
    total = involution_count(n - 1)
    if not up_to_iso and total > MAX_LABELED:
        raise TooLarge(f"labeled flat enumeration of size {n} would build "
                       f"{total} algebras; it is guarded at {MAX_LABELED}")
    if up_to_iso:
        algebras = tuple(make_flat(n, k)
                         for k in range(1 if n % 2 else 2, n + 1, 2))
    else:
        algebras = tuple(_labeled(n, 0))
    violations = _collect_violations(algebras)
    return EnumerationReport(size=n, flat_only=True, up_to_iso=up_to_iso,
                             total_labeled=total, iso_classes=algebras,
                             violations=violations)


def iso_class_key(a: FiniteAlgebra) -> tuple:
    """A key that two valid algebras share exactly when they are
    isomorphic: the number of star fixed points, which fixes a flat
    algebra, and the cloud sizes over the atom sets of atom_masks, least
    over the orders of the atoms, which fix a non-flat one."""
    atoms, masks = atom_masks(a)
    fixed = sum(1 for x in a.elements() if a.star[x] == x)
    return fixed, min(sizes for _, sizes in atom_relabelings(masks, len(atoms)))


def dedupe_up_to_iso(algebras) -> list[FiniteAlgebra]:
    """The first of each isomorphism class of valid algebras, in order."""
    reps: dict[tuple, FiniteAlgebra] = {}
    for a in algebras:
        reps.setdefault(iso_class_key(a), a)
    return list(reps.values())


def enumerate_all(n: int, up_to_iso: bool = True) -> EnumerationReport:
    """All QB-algebras of size n with the zero constant at index 0."""
    if n < 1:
        raise ValueError("size must be positive")
    if n > MAX_ALL:
        raise TooLarge(f"general enumeration is guarded at {MAX_ALL}")
    labeled = [a for k in range(n.bit_length()) for a in _labeled(n, k)]
    labeled.sort(key=lambda a: (a.one, a.join, a.meet, a.star))
    total = len(labeled)
    if up_to_iso:
        reps = dedupe_up_to_iso(labeled)
        algebras = tuple(a.relabel(f"qba{n}_{i}") for i, a in enumerate(reps))
    else:
        algebras = tuple(labeled)
    violations = _collect_violations(algebras)
    return EnumerationReport(size=n, flat_only=False, up_to_iso=up_to_iso,
                             total_labeled=total, iso_classes=algebras,
                             violations=violations)


STRUCTURE_CLAIMS = (
    "cloud-partition",
    "star-cloud-image",
    "star-cloud-size",
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


_RANK = {label: i for i, label in enumerate(STRUCTURE_CLAIMS)}


class _TableFacts(NamedTuple):
    """What verify_structure derives from join, meet, zero and one alone,
    so algebras that share those objects derive it once."""

    flat: bool
    reps: list[int]
    by_rep: dict[int, frozenset[int]]
    clouds: dict[int, frozenset[int]]
    table_claims: list[tuple[str, bool]]
    tables_hold: bool
    star_labels: tuple[str, ...]
    irreducible_even: bool


def _table_facts(a: FiniteAlgebra) -> _TableFacts:
    """The regulars with their clouds, the claims that read no star (the
    cloud partition, then the non-flat parity or the flat collapse
    claims) and the labels of the claims that do."""
    regs = regular_elements(a)
    reps = [a.join[x][x] for x in a.elements()]
    by_rep = cloud_map(a)
    clouds = {r: by_rep[r] for r in regs}

    table_claims = [
        ("cloud-partition",
         set().union(*clouds.values()) == set(a.elements())
         and sum(map(len, clouds.values())) == a.size
         and regs.issuperset(reps)),
    ]
    star_labels = ("star-cloud-image", "star-cloud-size")
    flat = is_flat(a)
    irreducible_even = not flat and a.size % 2 == 0 and is_irreducible(a)
    if not flat:
        table_claims += [("nonflat-regular-even", len(regs) % 2 == 0),
                         ("nonflat-order-even", a.size % 2 == 0)]
        star_labels += ("nonflat-star-free",
                        "nonflat-complement-clouds-disjoint")
        if irreducible_even:
            star_labels += ("irreducible-product-form",)
            if a.size % 4 == 2:
                star_labels += ("irreducible-odd-flat-form",)
    else:
        zero_row = (a.zero,) * a.size
        table_claims += [
            ("flat-regulars-trivial", regs == frozenset((a.zero,))),
            ("flat-cloud-zero-whole",
             by_rep[reps[a.zero]] == frozenset(a.elements())),
            ("flat-ops-zero",
             all(tuple(row) == zero_row for row in a.join)
             and all(tuple(row) == zero_row for row in a.meet)),
        ]
        star_labels += ("flat-size-parity",)
    return _TableFacts(flat, reps, by_rep, clouds, table_claims,
                       all(ok for _, ok in table_claims), star_labels,
                       irreducible_even)


def _product_target(n: int) -> FiniteAlgebra:
    """2 x the flat algebra of size n/2 with one star fixed point if n/2
    is odd, else two: the form of an irreducible algebra of even size n.
    At n = 4k + 2 its join, meet, star, zero and one are those of
    make_irreducible(k)."""
    half = n // 2
    return direct_product(boolean_algebra(1),
                          make_flat(half, 1 if half % 2 else 2))


def verify_structure(a: FiniteAlgebra) -> list[tuple[str, bool]]:
    """Evaluate every structure claim applicable to the algebra, in
    STRUCTURE_CLAIMS order.

    Claims cover the cloud partition (every element in the cloud of a
    regular one, star maps clouds to clouds bijectively), the non-flat parity
    facts, the flat collapse facts, and the classification of irreducible
    algebras as products of 2 with a flat algebra of half the size. The
    4k+2 shape with an odd flat factor applies exactly when the size is
    2 mod 4; sizes 0 mod 4 pair 2 with an even flat factor instead. At
    4k+2 the two forms have the same tables, so one map decides both: the
    isomorphism_candidate, which counts only if is_homomorphism certifies it.
    """
    f = _table_facts(a)
    return _claims(f, _star_claims(a, f, {}))


def _claims(f: _TableFacts, stars: tuple[bool, ...]) -> list[tuple[str, bool]]:
    """The table claims of f and the star claims, labeled by
    f.star_labels, merged in STRUCTURE_CLAIMS order."""
    return sorted(f.table_claims + list(zip(f.star_labels, stars)),
                  key=lambda claim: _RANK[claim[0]])


def _star_claims(a: FiniteAlgebra, f: _TableFacts,
                 targets: dict[int, FiniteAlgebra]) -> tuple[bool, ...]:
    """The claims that read the star, one bool per label of f.star_labels,
    from one pass over the clouds. targets memoizes _product_target by
    size; the irreducible claims share one certified candidate map."""
    star = a.star
    n = a.size
    image = size = True
    apart = not f.flat  # read on non-flat algebras only
    for r, cloud in f.clouds.items():
        dst = f.by_rep[f.reps[star[r]]]
        image = image and frozenset(map(star.__getitem__, cloud)) == dst
        size = size and len(cloud) == len(dst)
        apart = apart and not cloud & dst
    fixed = sum(map(eq, star, range(n)))
    if f.flat:
        return image, size, (n - fixed) % 2 == 0
    claims = (image, size, fixed == 0, apart)
    if f.irreducible_even:
        target = targets.get(n)
        if target is None:
            target = targets[n] = _product_target(n)
        g = isomorphism_candidate(a, target)
        iso = g is not None and g.is_bijective and is_homomorphism(a, target, g)
        claims += (iso, iso) if n % 4 == 2 else (iso,)
    return claims


def _collect_violations(algebras) -> tuple[tuple[str, FiniteAlgebra], ...]:
    """(claim, algebra) for every failing claim, in order. The table facts
    are derived once per distinct (join, meet, zero, one), keyed by the
    identity of the tables; each entry keeps its first algebra, and with
    it those tables, alive, so an id is not reused while it is a key. The
    product targets are built once per size. An algebra whose table and
    star claims all hold costs the star pass and no claim list."""
    out = []
    facts: dict[tuple, tuple[FiniteAlgebra, _TableFacts]] = {}
    targets: dict[int, FiniteAlgebra] = {}
    for a in algebras:
        key = (id(a.join), id(a.meet), a.zero, a.one)
        hit = facts.get(key)
        if hit is None:
            hit = facts[key] = (a, _table_facts(a))
        f = hit[1]
        stars = _star_claims(a, f, targets)
        if f.tables_hold and all(stars):
            continue
        out.extend((label, a) for label, ok in _claims(f, stars) if not ok)
    return tuple(out)
