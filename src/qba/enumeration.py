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
from typing import Iterator

from .algebra import FiniteAlgebra, cloud_map, is_flat, regular_elements
from .errors import TooLarge
from .quotients import (boolean_algebra, direct_product, find_isomorphism,
                        is_irreducible, make_flat, make_irreducible)

MAX_FLAT = 16
MAX_ALL = 6


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


def _involutions(points: tuple[int, ...]) -> Iterator[dict[int, int]]:
    if not points:
        yield {}
        return
    x, rest = points[0], points[1:]
    for m in _involutions(rest):
        yield {x: x, **m}
    for i, y in enumerate(rest):
        for m in _involutions(rest[:i] + rest[i + 1:]):
            yield {x: y, y: x, **m}


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
    in the order of _involutions on 1..n-1.
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
            for st in _stars(star, members, top, 0):
                yield FiniteAlgebra(names=names, join=join, meet=meet,
                                    star=st, zero=0, one=img[top])


def _stars(star: list[int], members: list[list[int]], top: int,
           s: int) -> Iterator[tuple[int, ...]]:
    """Fill the star on the irregulars one cloud pair (s, s ^ top) at a
    time, from s to the last pair top >> 1: an involution of the cloud when
    s ^ top == s, else a bijection onto the complementary cloud."""
    src, dst = members[s], members[s ^ top]
    if s == s ^ top:
        maps = _involutions(tuple(src))
    else:
        maps = (dict(zip((*src, *perm), (*perm, *src)))
                for perm in permutations(dst))
    last = s == top >> 1
    for m in maps:
        for u, v in m.items():
            star[u] = v
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
    algebra, and the cloud sizes indexed by the subsets of the atoms of
    the Boolean part, least over the orders of the atoms, which fix a
    non-flat one."""
    clouds = cloud_map(a)
    atoms = [r for r in clouds if r != a.zero
             and all(a.meet[r][s] in (a.zero, r) for s in clouds)]

    def sizes(order) -> tuple[int, ...]:
        by_subset = [0] * len(clouds)
        for r, members in clouds.items():
            below = sum(1 << i for i, t in enumerate(order) if a.meet[t][r] == t)
            by_subset[below] = len(members)
        return tuple(by_subset)

    fixed = sum(1 for x in a.elements() if a.star[x] == x)
    return fixed, min(map(sizes, permutations(atoms)))


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
    "cloud-single-regular",
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


def verify_structure(a: FiniteAlgebra) -> list[tuple[str, bool]]:
    """Evaluate every structure claim applicable to the algebra.

    Claims cover the cloud partition (exactly one regular element per
    cloud, star maps clouds to clouds bijectively), the non-flat parity
    facts, the flat collapse facts, and the classification of irreducible
    algebras as products of 2 with a flat algebra of half the size. The
    4k+2 shape with an odd flat factor applies exactly when the size is
    2 mod 4; sizes 0 mod 4 pair 2 with an even flat factor instead.
    """
    results: list[tuple[str, bool]] = []
    regs = regular_elements(a)
    reps = [a.join[x][x] for x in a.elements()]
    by_rep = cloud_map(a)
    clouds = {r: by_rep[r] for r in regs}
    star_clouds = {r: by_rep[reps[a.star[r]]] for r in regs}

    covered = set()
    for members in clouds.values():
        covered |= members
    results.append(("cloud-partition",
                    covered == set(a.elements())
                    and sum(len(m) for m in clouds.values()) == a.size
                    and regs.issuperset(reps)))
    results.append(("cloud-single-regular",
                    all(len(members & regs) == 1 for members in clouds.values())))
    results.append(("star-cloud-image",
                    all(frozenset(a.star[y] for y in clouds[r])
                        == star_clouds[r] for r in regs)))
    results.append(("star-cloud-size",
                    all(len(clouds[r]) == len(star_clouds[r]) for r in regs)))

    if not is_flat(a):
        results.append(("nonflat-star-free",
                        all(a.star[x] != x for x in a.elements())))
        results.append(("nonflat-complement-clouds-disjoint",
                        all(not (clouds[r] & star_clouds[r]) for r in regs)))
        results.append(("nonflat-regular-even", len(regs) % 2 == 0))
        results.append(("nonflat-order-even", a.size % 2 == 0))
        if is_irreducible(a) and a.size % 2 == 0:
            half = a.size // 2
            flat_factor = make_flat(half, 1 if half % 2 else 2)
            two = boolean_algebra(1)
            results.append((
                "irreducible-product-form",
                find_isomorphism(a, direct_product(two, flat_factor)) is not None))
            if a.size % 4 == 2:
                results.append((
                    "irreducible-odd-flat-form",
                    find_isomorphism(a, make_irreducible((a.size - 2) // 4))
                    is not None))
    else:
        results.append(("flat-regulars-trivial", regs == frozenset((a.zero,))))
        results.append(("flat-cloud-zero-whole",
                        by_rep[reps[a.zero]] == frozenset(a.elements())))
        zero_row = (a.zero,) * a.size
        results.append(("flat-ops-zero",
                        all(tuple(row) == zero_row for row in a.join)
                        and all(tuple(row) == zero_row for row in a.meet)))
        fixed = sum(1 for x in a.elements() if a.star[x] == x)
        results.append(("flat-size-parity", (a.size - fixed) % 2 == 0))
    return results


def _collect_violations(algebras) -> tuple[tuple[str, FiniteAlgebra], ...]:
    out = []
    for a in algebras:
        for label, ok in verify_structure(a):
            if not ok:
                out.append((label, a))
    return tuple(out)
