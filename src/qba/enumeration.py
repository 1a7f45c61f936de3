"""Exhaustive generation of small QB-algebras and structure verification.

Flat algebras on a labeled carrier are exactly: all joins and meets zero,
1 = 0, star an involution fixing 0, so they are enumerated as involutions.
General algebras are assembled from their forced shape: a Boolean algebra
on the regular elements, an assignment of irregulars to clouds, and a star
pairing between complementary clouds. The binary tables follow from
x v y = (x v x) v (y v y), and every emitted algebra still has to pass the
full axiom check.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterator

from .algebra import (FiniteAlgebra, cloud_map, is_flat, regular_elements,
                      validate)
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


def _flat_labeled(n: int) -> Iterator[FiniteAlgebra]:
    """Every flat algebra on {0..n-1}, one per involution of 1..n-1. All of
    them share one names tuple and one all-zero table."""
    names = _generic_names(n)
    zeros = ((0,) * n,) * n
    for inv in _involutions(tuple(range(1, n))):
        star = [0] * n
        for x, y in inv.items():
            star[x] = y
        yield FiniteAlgebra(names=names, join=zeros, meet=zeros,
                            star=tuple(star), zero=0, one=0)


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
        algebras = tuple(_flat_labeled(n))
    violations = _collect_violations(algebras)
    return EnumerationReport(size=n, flat_only=True, up_to_iso=up_to_iso,
                             total_labeled=total, iso_classes=algebras,
                             violations=violations)


def _boolean_tables(regs: list[int], zero: int, one: int):
    """Join/meet/star tables on a regular set that admits a Boolean
    structure with the given bounds, or None.

    For sizes 2 and 4 (all that fit under the guard) the structure is
    unique: with four elements the two non-bound elements are complementary
    atoms.
    """
    rset = set(regs)
    if len(rset) == 2:
        join = {(zero, zero): zero, (zero, one): one,
                (one, zero): one, (one, one): one}
        meet = {(zero, zero): zero, (zero, one): zero,
                (one, zero): zero, (one, one): one}
        return join, meet, {zero: one, one: zero}
    if len(rset) == 4:
        s, t = sorted(rset - {zero, one})
        join, meet = {}, {}
        for x in rset:
            for y in rset:
                join[(x, y)] = _b4_join(x, y, zero, one)
                meet[(x, y)] = _b4_meet(x, y, zero, one)
        return join, meet, {zero: one, one: zero, s: t, t: s}
    return None


def _b4_join(x, y, zero, one):
    if x == zero:
        return y
    if y == zero:
        return x
    if x == y:
        return x
    return one


def _b4_meet(x, y, zero, one):
    if x == one:
        return y
    if y == one:
        return x
    if x == y:
        return x
    return zero


def _nonflat_labeled(n: int) -> Iterator[FiniteAlgebra]:
    """All valid non-flat algebras on {0..n-1} with the zero constant at
    index 0."""
    names = _generic_names(n)
    carrier = list(range(n))
    for one in range(1, n):
        fixed = {0, one}
        others = [x for x in carrier if x not in fixed]
        for mask in range(1 << len(others)):
            regs = sorted(fixed | {x for i, x in enumerate(others) if mask >> i & 1})
            tables = _boolean_tables(regs, 0, one)
            if tables is None:
                continue
            join_r, meet_r, star_r = tables
            irregulars = [x for x in carrier if x not in set(regs)]
            for assignment in product(regs, repeat=len(irregulars)):
                rep = {x: x for x in regs}
                rep.update(zip(irregulars, assignment))
                members: dict[int, list[int]] = {r: [] for r in regs}
                for x, r in zip(irregulars, assignment):
                    members[r].append(x)
                if any(len(members[r]) != len(members[star_r[r]]) for r in regs):
                    continue
                pairs = [(r, star_r[r]) for r in regs if r < star_r[r]]
                choices = [list(permutations(members[rb])) for _, rb in pairs]
                for combo in product(*choices):
                    star = {r: star_r[r] for r in regs}
                    for (ra, _), perm in zip(pairs, combo):
                        for u, v in zip(members[ra], perm):
                            star[u] = v
                            star[v] = u
                    join = tuple(
                        tuple(join_r[(rep[x], rep[y])] for y in carrier)
                        for x in carrier)
                    meet = tuple(
                        tuple(meet_r[(rep[x], rep[y])] for y in carrier)
                        for x in carrier)
                    alg = FiniteAlgebra(
                        names=names, join=join, meet=meet,
                        star=tuple(star[x] for x in carrier),
                        zero=0, one=one)
                    if validate(alg).passed:
                        yield alg


def iso_signature(a: FiniteAlgebra) -> tuple:
    """Cheap invariants used to bucket algebras before isomorphism search."""
    regs = regular_elements(a)
    clouds = cloud_map(a)
    return (
        a.size,
        is_flat(a),
        len(regs),
        sum(1 for x in a.elements() if a.star[x] == x),
        tuple(sorted(len(clouds[r]) for r in regs)),
    )


def dedupe_up_to_iso(algebras) -> list[FiniteAlgebra]:
    reps: list[FiniteAlgebra] = []
    sigs: list[tuple] = []
    for a in algebras:
        sig = iso_signature(a)
        if any(sig == s and find_isomorphism(a, r) is not None
               for r, s in zip(reps, sigs)):
            continue
        reps.append(a)
        sigs.append(sig)
    return reps


def enumerate_all(n: int, up_to_iso: bool = True) -> EnumerationReport:
    """All QB-algebras of size n with the zero constant at index 0."""
    if n < 1:
        raise ValueError("size must be positive")
    if n > MAX_ALL:
        raise TooLarge(f"general enumeration is guarded at {MAX_ALL}")
    labeled = [a for a in _flat_labeled(n) if validate(a).passed]
    labeled.extend(_nonflat_labeled(n))
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
