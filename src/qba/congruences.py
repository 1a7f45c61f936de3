"""Congruence checking, enumeration, generation, extension and the
regular/irregular decomposition of congruences.

A congruence on a non-flat algebra splits into three parts: its restriction
to the regular elements (a congruence on the Boolean subalgebra), its
restriction to the irregular elements (a star-closed equivalence confined
to clouds of related regulars), and a cross part described by an injective
block map; conditions (C1)-(C3) below characterize exactly when three such
parts reassemble into a congruence.
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebra import (FiniteAlgebra, check_elements, check_pairs,
                      induced_fields, is_flat, regular_split, require_valid)
from .errors import (ConditionC1Violated, ConditionC2Violated,
                     ConditionC3Violated, FlatInput, NotACongruence,
                     NotASubalgebra, NotFlat, PreconditionViolated,
                     NotStarClosed, TooLarge)
from .partitions import Partition, UnionFind, classes, is_congruence
from .quotients import chi, tau

MAX_EXHAUSTIVE = 10  # Bell-number blowup guard for carrier-wide searches


def generated_congruence(a: FiniteAlgebra, seed) -> Partition:
    """Least congruence containing the seed pairs: ker_{c*} ∩ π_S.

    Con(a) is the set of the ker_c ∩ π of all_congruences, and ker_c ∩
    ker_d = ker_{c v d}. So c* is the join of the regulars c with
    x ^ c = y ^ c on every seed pair: its mask keeps the atoms on which
    no seed pair's masks differ. π_S is the least star partition merging
    tau(x) with tau(y) on every seed pair.
    """
    require_valid(a)
    seed = check_pairs(a.size, seed, "a seed pair")
    lift, star_t = _tau_frame(a)
    _, masks = a.structure
    keep = -1  # the mask of c*, with every bit above the atoms set
    for x, y in seed:
        keep &= ~(masks[x] ^ masks[y])
    uf = UnionFind(len(star_t))
    work = [(lift[x], lift[y]) for x, y in seed]
    while work:  # each merge also merges the star images
        p, q = work.pop()
        if uf.union(p, q):
            work.append((star_t[p], star_t[q]))
    return Partition(a.size, classes([(m & keep, uf.find(b))
                                      for m, b in zip(masks, lift)]))


def all_congruences(a: FiniteAlgebra) -> list[Partition]:
    """Every congruence, in canonical order, built by the split lemma: a
    congruence is ker_c ∩ π for a regular c, ker_c the kernel of x -> x ^ c
    (its image on the Boolean a/chi: x ^ c = y ^ c iff m(x) & m(c) =
    m(y) & m(c), m the masks of a.structure), and a star partition π of
    the tau-blocks, one that the star maps onto blocks (its image on the
    flat a/tau). Every such intersection is a congruence, so none is
    checked; one Partition is built per distinct one.
    """
    require_valid(a)
    n = a.size
    if n > MAX_EXHAUSTIVE:
        raise TooLarge(f"carrier of {n} exceeds the guard of {MAX_EXHAUSTIVE}")
    lift, star_t = _tau_frame(a)
    atoms, masks = a.structure
    kernels = [[m & c for m in masks] for c in range(1 << len(atoms))]
    found = {classes(zip(kernel, [assign[b] for b in lift]))
             for assign in _star_partitions(star_t) for kernel in kernels}
    return [Partition(n, blocks) for blocks in sorted(found)]


def _tau_frame(a: FiniteAlgebra):
    """The tau-block of each element and the star on the blocks."""
    t = tau(a)
    lift = t._member
    return lift, [lift[a.star[b[0]]] for b in t.blocks]


def _star_partitions(star):
    """Restricted-growth block assignments of range(len(star)) on which the
    star induces a function on blocks, checked on every prefix. One list is
    reused for every assignment yielded."""
    n = len(star)
    assign = [0] * n

    def rec(m: int, nblocks: int):
        if m == n:
            yield assign
            return
        for g in range(nblocks + 1):
            assign[m] = g
            image: dict[int, int] = {}
            if all(image.setdefault(assign[x], assign[s]) == assign[s]
                   for x, s in enumerate(star[:m + 1]) if s <= m):
                yield from rec(m + 1, nblocks + (g == nblocks))

    return rec(0, 0)


def subalgebras(a: FiniteAlgebra) -> list[tuple[int, ...]]:
    """All index sets containing 0 and 1 and closed under the operations,
    sorted by size then content."""
    n = a.size
    if n > MAX_EXHAUSTIVE:
        raise TooLarge(f"carrier of {n} exceeds the guard of {MAX_EXHAUSTIVE}")
    base = {a.zero, a.one}
    rest = [x for x in a.elements() if x not in base]
    out = []
    for mask in range(1 << len(rest)):
        subset = base | {x for i, x in enumerate(rest) if mask >> i & 1}
        if _is_closed(a, subset):
            out.append(tuple(sorted(subset)))
    out.sort(key=lambda s: (len(s), s))
    return out


def _is_closed(a: FiniteAlgebra, subset: set[int]) -> bool:
    for x in subset:
        if a.star[x] not in subset:
            return False
        for y in subset:
            if a.join[x][y] not in subset or a.meet[x][y] not in subset:
                return False
    return True


def subalgebra(a: FiniteAlgebra, indices) -> FiniteAlgebra:
    """The algebra induced on a closed index set, re-indexed by sorted order.
    Names are inherited."""
    indices = list(indices)
    check_elements(a.size, indices, "a subalgebra")
    sset = set(indices)
    subset = sorted(sset)
    if a.zero not in sset or a.one not in sset:
        raise NotASubalgebra("subalgebra must contain 0 and 1")
    if not _is_closed(a, sset):
        raise NotASubalgebra("index set is not closed under the operations")
    local = {g: i for i, g in enumerate(subset)}
    return FiniteAlgebra(names=tuple(a.names[g] for g in subset),
                         label=f"{a.label}|{len(subset)}" if a.label else "",
                         **induced_fields(a, subset, local))


def extend_from_subalgebra(a: FiniteAlgebra, q0, theta0: Partition) -> Partition:
    """Extend a congruence on a subalgebra to the whole algebra.

    Returns the minimal extension, generated_congruence of the pairs of
    theta0. By the congruence extension property of QB-algebras it
    restricts to theta0 on the subalgebra.
    """
    require_valid(a)
    q0 = list(q0)
    sub = subalgebra(a, q0)
    subset = sorted(set(q0))
    if theta0.size != sub.size:
        raise ValueError("partition size does not match the subalgebra")
    if not is_congruence(sub, theta0):
        raise NotACongruence("theta0 is not a congruence on the subalgebra")
    seed = [(subset[b[0]], subset[x]) for b in theta0.blocks for x in b[1:]]
    return generated_congruence(a, seed)


def split_congruence(a: FiniteAlgebra, theta: Partition
                     ) -> tuple[Partition, Partition]:
    """Project a congruence through the two canonical quotients.

    Returns congruences theta1 on a/chi and theta2 on a/tau such that
    theta relates x, y exactly when theta1 relates the chi-classes and
    theta2 relates the tau-classes. The carriers of the quotients are the
    blocks of chi and tau. Raw projections need not be transitive, so
    each is closed.
    """
    require_valid(a)
    if not is_congruence(a, theta):
        raise NotACongruence("split requires a congruence")

    def project(rel: Partition) -> Partition:
        cls = rel._member
        return Partition.from_pairs(len(rel.blocks), [
            (cls[b[0]], cls[x]) for b in theta.blocks for x in b[1:]])

    return project(chi(a)), project(tau(a))


def principal_congruence_nonflat(a: FiniteAlgebra, theta_r: Partition,
                                 x: int, y: int) -> Partition:
    """theta_r union the diagonal union {(x,y), (y,x), (x*,y*), (y*,x*)},
    for irregular x and irregular y in the cloud of x v x.

    This is the least congruence containing theta_r and (x, y).
    """
    require_valid(a)
    if is_flat(a):
        raise FlatInput("the construction needs a non-flat algebra")
    check_elements(a.size, (x, y), "a principal congruence")
    regs, _ = regular_split(a)
    rset = set(regs)
    if theta_r.size != len(regs):
        raise ValueError("partition size does not match the regular part")
    if not is_congruence(subalgebra(a, regs), theta_r):
        raise NotACongruence("theta_r is not a congruence on the regular part")
    if x in rset or y in rset:
        raise PreconditionViolated("x and y must be irregular")
    if a.join[y][y] != a.join[x][x]:
        raise PreconditionViolated("y must lie in the cloud of x v x")

    reg_pairs = [(regs[b[0]], regs[r]) for b in theta_r.blocks for r in b[1:]]
    return Partition.from_pairs(a.size,
                                reg_pairs + [(x, y), (a.star[x], a.star[y])])


def principal_congruence_flat(a: FiniteAlgebra, x: int, y: int) -> Partition:
    """Congruence of a flat algebra merging two distinct irregular elements:
    the equivalence generated by (x, y), (x*, y*), (x, x*) and (y, y*).

    Unless x, y, x*, y* are four distinct elements this is the least
    congruence containing (x, y). When they are, it puts all four in one
    block, which is strictly coarser than the least congruence (the
    two-block relation {x,y}, {x*,y*} is already compatible), and
    generated_congruence gives the least one.
    """
    require_valid(a)
    if not is_flat(a):
        raise NotFlat("the construction needs a flat algebra")
    check_elements(a.size, (x, y), "a principal congruence")
    if x == a.zero or y == a.zero:
        raise PreconditionViolated("x and y must be irregular")
    if x == y:
        raise PreconditionViolated("x and y must differ")
    sx, sy = a.star[x], a.star[y]
    return Partition.from_pairs(a.size, [(x, y), (sx, sy), (x, sx), (y, sy)])


def _star_image_blocks(a: FiniteAlgebra, irs, p: Partition, refuse) -> list[int]:
    """The index of the star image of each block of p, a partition of the
    irregulars irs by position. The first block whose image is no block
    raises refuse(block, text), where text names its elements, as 'a,e'."""
    local = {g: i for i, g in enumerate(irs)}
    images = []
    for block in p.blocks:
        image = tuple(sorted(local[a.star[irs[i]]] for i in block))
        bi = p._member[image[0]]
        if p.blocks[bi] != image:
            raise refuse(block, ",".join(a.names[irs[i]] for i in block))
        images.append(bi)
    return images


def compose_flat(a: FiniteAlgebra, theta_ir: Partition) -> Partition:
    """Congruence of a flat algebra from a star-closed equivalence on the
    irregular elements: singleton {0} plus the given blocks."""
    require_valid(a)
    if not is_flat(a):
        raise NotFlat("composition over irregulars needs a flat algebra")
    _, irs = regular_split(a)
    if theta_ir.size != len(irs):
        raise ValueError("partition size does not match the irregular part")
    _star_image_blocks(a, irs, theta_ir, lambda block, text: NotStarClosed(
        f"star image of block {text!r} is not a block"))
    blocks = [[a.zero]] + [[irs[i] for i in block] for block in theta_ir.blocks]
    return Partition.from_blocks(a.size, blocks)


@dataclass(frozen=True)
class CongruenceDecomposition:
    """The three-part form of a congruence on a non-flat algebra.

    theta_r is a congruence on the regular subalgebra and theta_ir a
    star-closed equivalence on the irregular part, both over the local
    indices of their sorted carriers. linked (the set X) names the theta_r
    blocks tied to an irregular block by the injective map f, given as
    (regular block index, irregular block index) pairs. cross holds the
    mixed global pairs, both orientations.
    """

    theta_r: Partition
    theta_ir: Partition
    linked: frozenset[int]
    f: tuple[tuple[int, int], ...]
    cross: frozenset[tuple[int, int]]

    def __post_init__(self):
        # Kept as frozensets and a tuple of pairs, so that equal
        # decompositions compare and hash equal however they were given.
        try:
            kept = (frozenset(self.linked), tuple(map(tuple, self.f)),
                    frozenset(self.cross))
        except TypeError:  # not a collection, or an unhashable member
            raise ValueError("linked and cross must be sets and f a sequence "
                             "of pairs") from None
        for key, value in zip(("linked", "f", "cross"), kept):
            object.__setattr__(self, key, value)

    @property
    def f_map(self) -> dict[int, int]:
        return dict(self.f)


def cross_pairs(a: FiniteAlgebra, theta_r: Partition, theta_ir: Partition,
                links) -> frozenset[tuple[int, int]]:
    """The (C3) display of a block map: every (r, w) and (w, r) with r in
    the theta_r class and w in the theta_ir block of a link, given as
    (regular block index, irregular block index) pairs."""
    regs, irs = regular_split(a)
    links = list(links)
    _check_blocks([rb for rb, _ in links], theta_r, ValueError, "a link")
    _check_blocks([ib for _, ib in links], theta_ir, ValueError, "a link")
    cross = set()
    for rb, ib in links:
        for i in theta_r.blocks[rb]:
            for j in theta_ir.blocks[ib]:
                cross.add((regs[i], irs[j]))
                cross.add((irs[j], regs[i]))
    return frozenset(cross)


def _check_blocks(values, p: Partition, error: type[Exception], what: str):
    """Raise error unless every value is an int index of a block of p."""
    if not all(isinstance(b, int) and 0 <= b < len(p.blocks) for b in values):
        raise error(f"{what} names a nonexistent block")


def compose_nonflat(a: FiniteAlgebra, d: CongruenceDecomposition) -> Partition:
    """Reassemble a congruence from its three parts, checking (C1)-(C3).

    (C1) theta_ir is star-closed and each block stays inside the cloud of a
         single theta_r class;
    (C2) the linked set is star-closed and f is injective, star-preserving,
         and sends a class to an irregular block meeting its clouds;
    (C3) the cross pairs are exactly (class x image) both ways.

    By the decomposition theorem the union of the three parts is then a
    congruence.
    """
    require_valid(a)
    if is_flat(a):
        raise FlatInput("composition with a cross part needs a non-flat algebra")
    regs, irs = regular_split(a)
    if d.theta_r.size != len(regs) or d.theta_ir.size != len(irs):
        raise ValueError("partition sizes do not match the regular/irregular split")
    if not is_congruence(subalgebra(a, regs), d.theta_r):
        raise NotACongruence("theta_r is not a congruence on the regular part")
    # cls[x]: the theta_r class of x v x, whose clouds hold x.
    reg_class = dict(zip(regs, d.theta_r._member))
    cls = [reg_class[row[x]] for x, row in enumerate(a.join)]

    # (C1) star closure of theta_ir.
    ir_star_block = _star_image_blocks(
        a, irs, d.theta_ir, lambda block, text: ConditionC1Violated(
            f"star image of irregular block {text!r} is not a block",
            witness=block))
    # (C1) confinement to the clouds of one regular class.
    for block in d.theta_ir.blocks:
        if len({cls[irs[i]] for i in block}) > 1:
            raise ConditionC1Violated(
                "irregular block spans clouds of unrelated regular classes",
                witness=tuple(irs[i] for i in block))

    # (C2) linked set and block map.
    fmap = d.f_map
    _check_blocks(d.linked, d.theta_r, ConditionC2Violated, "linked set")
    _check_blocks(fmap.values(), d.theta_ir, ConditionC2Violated, "f")
    if set(fmap) != set(d.linked):
        raise ConditionC2Violated("f must be defined exactly on the linked set")
    if len(set(fmap.values())) != len(fmap):
        raise ConditionC2Violated("f is not injective")
    for bi in d.linked:
        star_bi = cls[a.star[regs[d.theta_r.blocks[bi][0]]]]
        if star_bi not in d.linked:
            raise ConditionC2Violated("linked set is not star-closed",
                                      witness=bi)
        if fmap[star_bi] != ir_star_block[fmap[bi]]:
            raise ConditionC2Violated(
                "f does not preserve star", witness=bi)
        if all(cls[irs[i]] != bi for i in d.theta_ir.blocks[fmap[bi]]):
            raise ConditionC2Violated(
                "image block misses the clouds of its class", witness=bi)

    # (C3) the cross part must match the display exactly.
    expected = cross_pairs(a, d.theta_r, d.theta_ir, fmap.items())
    if d.cross != expected:
        diff = sorted(d.cross.symmetric_difference(expected))
        raise ConditionC3Violated("cross part differs from the (C3) display",
                                  witness=diff[0] if diff else None)

    # With (C3) the union closes from spanning pairs: each member with the
    # least of its block, and one pair per link.
    pairs = [(regs[d.theta_r.blocks[rb][0]], irs[d.theta_ir.blocks[ib][0]])
             for rb, ib in fmap.items()]
    for part, p in ((regs, d.theta_r), (irs, d.theta_ir)):
        pairs += [(part[b[0]], part[x]) for b in p.blocks for x in b[1:]]
    return Partition.from_pairs(a.size, pairs)


def decompose(a: FiniteAlgebra, theta: Partition) -> CongruenceDecomposition:
    """Split a congruence of a non-flat algebra into its three parts.

    When several irregular witnesses qualify for a linked class the least
    index is chosen; the image block does not depend on the choice.
    compose_nonflat gives theta back.
    """
    require_valid(a)
    if is_flat(a):
        raise FlatInput("decomposition is defined for non-flat algebras")
    if not is_congruence(a, theta):
        raise NotACongruence("decompose requires a congruence")
    regs, irs = regular_split(a)
    theta_r = theta.restrict(regs)
    theta_ir = theta.restrict(irs)
    reg_class = dict(zip(regs, theta_r._member))

    # The first witness w of a class in element order, with w theta w v w,
    # is the least.
    fmap = {}
    for i, w in enumerate(irs):
        r = a.join[w][w]
        if theta._member[r] == theta._member[w]:
            fmap.setdefault(reg_class[r], theta_ir._member[i])
    f = tuple(sorted(fmap.items()))
    return CongruenceDecomposition(
        theta_r=theta_r,
        theta_ir=theta_ir,
        linked=frozenset(fmap),
        f=f,
        cross=cross_pairs(a, theta_r, theta_ir, f),
    )


__all__ = [
    "CongruenceDecomposition",
    "all_congruences",
    "compose_flat",
    "compose_nonflat",
    "cross_pairs",
    "decompose",
    "extend_from_subalgebra",
    "generated_congruence",
    "is_congruence",
    "principal_congruence_flat",
    "principal_congruence_nonflat",
    "split_congruence",
    "subalgebra",
    "subalgebras",
]
