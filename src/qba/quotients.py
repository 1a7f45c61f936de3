"""Canonical congruences, quotients, products and isomorphism machinery.

Every QB-algebra carries two canonical congruences: chi (same cloud, i.e.
x v x = y v y) whose quotient is a Boolean algebra, and tau (equal, or both
regular) whose quotient is flat. The algebra embeds into the direct product
of the two quotients via x -> (x/chi, x/tau).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator

from .algebra import (FiniteAlgebra, check_natural, induced_fields, is_flat,
                      regular_elements, require_valid)
from .errors import (FlatInput, InvalidShape, InvariantViolation,
                     NotACongruence, PreconditionViolated, TooLarge)
from .partitions import Partition, classes, is_congruence


@dataclass(frozen=True)
class ElementMap:
    """A total map between the carriers of two algebras."""

    source_size: int
    target_size: int
    mapping: tuple[int, ...]

    def __post_init__(self):
        # Kept as a tuple, so that equal maps compare and hash equal
        # however the mapping was given.
        if not isinstance(self.mapping, tuple):
            try:
                len(self.mapping)
            except TypeError:  # an iterator, None
                raise ValueError("mapping must be a sequence of elements") from None
            object.__setattr__(self, "mapping", tuple(self.mapping))
        if len(self.mapping) != self.source_size:
            raise ValueError("mapping length differs from source size")
        if any(not (isinstance(v, int) and 0 <= v < self.target_size)
               for v in self.mapping):
            raise ValueError("mapping value out of range")

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    @property
    def is_injective(self) -> bool:
        return len(set(self.mapping)) == self.source_size

    @property
    def is_surjective(self) -> bool:
        return len(set(self.mapping)) == self.target_size

    @property
    def is_bijective(self) -> bool:
        return self.source_size == self.target_size and self.is_injective


def chi(a: FiniteAlgebra) -> Partition:
    """Congruence grouping elements by their regular representative x v x.

    Blocks are exactly the clouds; the quotient is Boolean.
    """
    return Partition(a.size, classes([row[x] for x, row in enumerate(a.join)]))


def tau(a: FiniteAlgebra) -> Partition:
    """Congruence with one block of all regular elements and singleton
    irregulars. The quotient is flat."""
    return Partition(a.size, classes(["regular" if row[x] == x else x
                                      for x, row in enumerate(a.join)]))


def class_names(a: FiniteAlgebra, theta: Partition) -> tuple[str, ...]:
    """The element names of a quotient by theta: each block as the name of
    its least element in brackets."""
    return tuple(f"[{a.names[block[0]]}]" for block in theta.blocks)


def quotient(a: FiniteAlgebra, theta: Partition) -> tuple[FiniteAlgebra, ElementMap]:
    """Quotient algebra by a congruence, plus the canonical projection.

    Carrier = blocks in canonical order; a block is displayed as the name
    of its least element in brackets. The operations are read off the
    least element of each block. is_congruence varies the left operand
    only, which makes every representative give the same block when join
    and meet commute; hence the gate.
    """
    require_valid(a)
    if not is_congruence(a, theta):
        raise NotACongruence("quotient requires a congruence")
    cls = theta._member
    reps = [block[0] for block in theta.blocks]
    q = FiniteAlgebra(names=class_names(a, theta),
                      label=f"{a.label}/~" if a.label else "",
                      **induced_fields(a, reps, cls))
    return q, ElementMap(a.size, len(reps), cls)


def direct_product(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    """Component-wise product; element (i, j) lives at index i*|B| + j."""
    nb = b.size

    def idx(i: int, j: int) -> int:
        return i * nb + j

    pairs = [(i, j) for i in a.elements() for j in b.elements()]
    names = tuple(f"({a.names[i]},{b.names[j]})" for i, j in pairs)
    join = tuple(
        tuple(idx(a.join[i][k], b.join[j][l]) for k, l in pairs)
        for i, j in pairs)
    meet = tuple(
        tuple(idx(a.meet[i][k], b.meet[j][l]) for k, l in pairs)
        for i, j in pairs)
    star = tuple(idx(a.star[i], b.star[j]) for i, j in pairs)
    label = f"{a.label}x{b.label}" if a.label and b.label else ""
    return FiniteAlgebra(names=names, join=join, meet=meet, star=star,
                         zero=idx(a.zero, b.zero), one=idx(a.one, b.one),
                         label=label)


def is_homomorphism(a: FiniteAlgebra, b: FiniteAlgebra, f: ElementMap) -> bool:
    """Exhaustive check that f preserves join, meet, star and 0."""
    if f.source_size != a.size or f.target_size != b.size:
        raise ValueError("map does not match the carriers")
    m = f.mapping
    if m[a.zero] != b.zero:
        return False
    for x in a.elements():
        if m[a.star[x]] != b.star[m[x]]:
            return False
        for y in a.elements():
            if m[a.join[x][y]] != b.join[m[x]][m[y]]:
                return False
            if m[a.meet[x][y]] != b.meet[m[x]][m[y]]:
                return False
    # Preservation of 1 follows: f(1) = f(0*) = f(0)* = 0* = 1.
    if m[a.one] != b.one:
        raise PreconditionViolated(
            "map preserves 0 and star but not 1, so 0* = 1 fails in an input")
    return True


def embed_into_product(a: FiniteAlgebra) -> ElementMap:
    """The canonical embedding x -> (x/chi, x/tau) into
    direct_product(a/chi, a/tau), whose carriers are the blocks of chi and
    tau. It is an injective homomorphism by the paper's embedding theorem."""
    require_valid(a)
    c, t = chi(a), tau(a)
    nt = len(t.blocks)
    mapping = tuple(c._member[x] * nt + t._member[x] for x in a.elements())
    return ElementMap(a.size, len(c.blocks) * nt, mapping)


MAX_ATOMS = 8  # k! atom permutations: about 4 s at k = 8


def atom_relabelings(masks: list[int], k: int) -> Iterator[tuple[list[int], tuple]]:
    """Per permutation p of the k atoms, identity first: the map m it
    induces on masks, bit i to bit p[i], and sizes[m[s]] = #{x : masks[x] = s}.
    Past MAX_ATOMS atoms the first next() raises TooLarge."""
    if k > MAX_ATOMS:
        raise TooLarge(f"{k} atoms exceed the guard of {MAX_ATOMS} ({k}! permutations)")
    counts = [masks.count(s) for s in range(1 << k)]
    for p in permutations(range(k)):
        m = [0]
        for bit in p:
            m += [s | 1 << bit for s in m]
        yield m, tuple(c for _, c in sorted(zip(m, counts)))


def _profile(masks) -> list[tuple[int, int]]:
    """The sorted pairs (atoms in the mask, cloud size), one per mask that
    some element has; every permutation of the atoms keeps them."""
    return sorted((s.bit_count(), size) for s, size in Counter(masks).items())


def isomorphism_candidate(a: FiniteAlgebra, b: FiniteAlgebra) -> ElementMap | None:
    """The least isomorphism from a onto b in the order of image tuples, or
    None, if both algebras are valid. Both must pass the mask test (their
    structure is not None), else PreconditionViolated; on one that fails
    QB2-QB5 the map is a candidate to certify. Each x not yet mapped as
    the star of an earlier one takes the least unused y, regular and
    star-fixed exactly when x is, with y* unused and some remaining atom
    permutation that carries a's cloud sizes onto b's sending x's mask to
    y's; only those permutations remain. A permutation of the atoms keeps
    how many atoms a mask holds, so algebras whose multisets of (atoms in
    the mask, cloud size) differ get None before any permutation is
    listed, past MAX_ATOMS too."""
    if a.structure is None or b.structure is None:
        raise PreconditionViolated(
            "join and meet are not unions and intersections of atom masks")
    (atoms, mask_a), (atoms_b, mask_b) = a.structure, b.structure
    n, k = a.size, len(atoms)
    if n != b.size or k != len(atoms_b) or _profile(mask_a) != _profile(mask_b):
        return None
    _, sizes_b = next(atom_relabelings(mask_b, k))
    maps = [m for m, sizes in atom_relabelings(mask_a, k) if sizes == sizes_b]
    kind_a = [(row[x] == x, a.star[x] == x) for x, row in enumerate(a.join)]
    kind_b = [(row[y] == y, b.star[y] == y) for y, row in enumerate(b.join)]
    image, used = [-1] * n, [False] * n
    for x in range(n):
        if image[x] >= 0:
            continue
        for y in range(n):
            if used[y] or used[b.star[y]] or kind_b[y] != kind_a[x]:
                continue
            kept = [m for m in maps if m[mask_a[x]] == mask_b[y]]
            if kept:
                break
        else:
            return None
        maps = kept
        image[x], image[a.star[x]] = y, b.star[y]
        used[y] = used[b.star[y]] = True
    return ElementMap(n, n, tuple(image))


def find_isomorphism(a: FiniteAlgebra, b: FiniteAlgebra) -> ElementMap | None:
    """The least isomorphism from a onto b in the order of image tuples,
    or None. Both algebras must pass the axioms; the map is built by
    isomorphism_candidate and certified by is_homomorphism."""
    require_valid(a)
    require_valid(b)
    f = isomorphism_candidate(a, b)
    if f is not None and not (f.is_bijective and is_homomorphism(a, b, f)):
        raise InvariantViolation("the map built from the clouds fails its certificate")
    return f


def is_irreducible(a: FiniteAlgebra) -> bool:
    """True iff the regular elements are exactly {0, 1}. Defined only for
    non-flat algebras."""
    if is_flat(a):
        raise FlatInput("irreducibility is defined only for non-flat algebras")
    return regular_elements(a) == frozenset((a.zero, a.one))


def make_flat(n: int, k: int) -> FiniteAlgebra:
    """Flat algebra of size n whose star fixes exactly k elements.

    All joins and meets are 0 and 1 = 0. Fixed points occupy indices
    0..k-1, the rest are paired consecutively; any involution with the same
    fixed-point count gives an isomorphic algebra.
    """
    check_natural(n, "n")
    check_natural(k, "k")
    if not (1 <= k <= n) or (n - k) % 2 != 0:
        raise InvalidShape(f"no flat algebra of size {n} with {k} star fixed points")
    return _flat_algebra(n, flat_star(n, k), f"F{n}k{k}")


def _flat_algebra(n: int, star, label: str = "") -> FiniteAlgebra:
    """The flat algebra of size n with this star, through the constructor."""
    zeros = ((0,) * n,) * n
    return FiniteAlgebra(generic_names(n), zeros, zeros, tuple(star), 0, 0, label)


def generic_names(n: int) -> tuple[str, ...]:
    """The element names of a generated algebra of size n: 0, x1, x2, ..."""
    return ("0",) + tuple(f"x{i}" for i in range(1, n))


def flat_star(n: int, k: int) -> tuple[int, ...]:
    """The star of make_flat(n, k): 0..k-1 fixed, the rest paired
    consecutively. Among the involutions of range(n) with k fixed points
    it is the least tuple."""
    star = list(range(k))
    for i in range(k, n, 2):
        star.extend((i + 1, i))
    return tuple(star)


def make_irreducible(k: int) -> FiniteAlgebra:
    """The product of the Boolean algebra 2 with the flat algebra of odd
    size 2k+1; size 4k+2, regular elements exactly {0, 1}."""
    check_natural(k, "k")
    return direct_product(boolean_algebra(1),
                          make_flat(2 * k + 1, 1)).relabel(f"2xF{2 * k + 1}")


def boolean_algebra(num_atoms: int) -> FiniteAlgebra:
    """The Boolean algebra of subsets of num_atoms points (size 2^n)."""
    check_natural(num_atoms, "num_atoms")
    n = 1 << num_atoms
    names = tuple(format(s, f"0{max(num_atoms, 1)}b") for s in range(n))
    join = tuple(tuple(i | j for j in range(n)) for i in range(n))
    meet = tuple(tuple(i & j for j in range(n)) for i in range(n))
    star = tuple(i ^ (n - 1) for i in range(n))
    return FiniteAlgebra(names=names, join=join, meet=meet, star=star,
                         zero=0, one=n - 1, label=f"B{n}")
