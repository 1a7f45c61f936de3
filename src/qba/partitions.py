"""Partitions of a finite carrier, used to represent congruences.

Blocks are stored canonically: each block sorted ascending, blocks sorted
by least element, so a given equivalence relation has exactly one
representation and partitions compare with ==.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .algebra import FiniteAlgebra, check_elements, check_pairs, name_readings
from .errors import AlgebraSemanticError


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return classes([self.find(x) for x in range(len(self.parent))])


def classes(keys) -> tuple[tuple[int, ...], ...]:
    """The classes of equal keys over 0..n-1, x keyed by keys[x], as
    canonical blocks: each class is filled in element order and opened at
    its least element, so the classes come by least element."""
    groups: dict = {}
    for x, key in enumerate(keys):
        groups.setdefault(key, []).append(x)
    return tuple(map(tuple, groups.values()))


def _check_size(size) -> None:
    if not (isinstance(size, int) and size >= 0):
        raise ValueError(f"size must be an int >= 0, not {size!r}")


@dataclass(frozen=True)
class Partition:
    """An equivalence relation on {0, ..., size-1} as canonical blocks."""

    size: int
    blocks: tuple[tuple[int, ...], ...]
    _member: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_size(self.size)
        # Kept as a tuple of tuples, tuples as the same objects, so that
        # equal partitions compare and hash equal; blocks without a length
        # (an iterator, None) are refused rather than spent.
        blocks = self.blocks
        if not (isinstance(blocks, tuple)
                and all(map(tuple.__instancecheck__, blocks))):
            try:
                len(blocks)
                blocks = tuple(map(tuple, blocks))
            except TypeError:
                raise ValueError(
                    "blocks must be a sequence of blocks of elements") from None
            object.__setattr__(self, "blocks", blocks)
        seen = [-1] * self.size
        for bi, block in enumerate(self.blocks):
            if not block:
                raise ValueError("empty block")
            for x in block:
                if not (isinstance(x, int) and 0 <= x < self.size):
                    raise ValueError(f"element {x!r} out of range")
                if seen[x] != -1:
                    raise ValueError(f"element {x} in two blocks")
                seen[x] = bi
            if tuple(sorted(block)) != tuple(block):
                raise ValueError("block not sorted")
        if -1 in seen:
            raise ValueError("blocks do not cover the carrier")
        if list(self.blocks) != sorted(self.blocks, key=lambda b: b[0]):
            raise ValueError("blocks not sorted by least element")
        object.__setattr__(self, "_member", tuple(seen))

    @classmethod
    def from_blocks(cls, size: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        _check_size(size)
        blocks = [list(b) for b in blocks]
        check_elements(size, [x for b in blocks for x in b], "a block")
        canon = sorted((tuple(sorted(set(b))) for b in blocks), key=lambda b: b[0] if b else -1)
        return cls(size, tuple(b for b in canon if b))

    @classmethod
    def singletons(cls, size: int) -> "Partition":
        _check_size(size)
        return cls(size, tuple((x,) for x in range(size)))

    @classmethod
    def whole(cls, size: int) -> "Partition":
        _check_size(size)
        return cls(size, (tuple(range(size)),) if size else ())

    @classmethod
    def from_pairs(cls, size: int, pairs: Iterable[tuple[int, int]]) -> "Partition":
        """Least equivalence relation containing the given pairs."""
        _check_size(size)
        uf = UnionFind(size)
        for a, b in check_pairs(size, pairs, "a pair"):
            uf.union(a, b)
        return cls(size, uf.blocks())

    def block_of(self, x: int) -> tuple[int, ...]:
        check_elements(self.size, (x,), "block_of")
        return self.blocks[self._member[x]]

    def block_index(self, x: int) -> int:
        check_elements(self.size, (x,), "block_index")
        return self._member[x]

    def relates(self, x: int, y: int) -> bool:
        check_elements(self.size, (x, y), "relates")
        return self._member[x] == self._member[y]

    def as_pairs(self) -> frozenset[tuple[int, int]]:
        """All related ordered pairs, diagonal included."""
        return frozenset((a, b) for block in self.blocks for a in block for b in block)

    def refines(self, other: "Partition") -> bool:
        """True iff every block of self lies inside a block of other."""
        if self.size != other.size:
            return False
        member = other._member
        return all(member[b[0]] == member[x] for b in self.blocks for x in b[1:])

    def restrict(self, elements: Iterable[int]) -> "Partition":
        """Restriction to a subset, re-indexed by the subset's sorted order."""
        elements = list(elements)
        check_elements(self.size, elements, "restrict")
        subset = sorted(set(elements))
        return Partition(len(subset), classes([self._member[g] for g in subset]))

    def sort_key(self) -> tuple:
        return self.blocks


def format_partition(a: FiniteAlgebra, p: Partition) -> str:
    """Canonical text form: blocks joined by ';', members by ','."""
    if p.size != a.size:
        raise ValueError("partition size does not match the algebra")
    return format_blocks(a.names, p.blocks)


def format_blocks(names: Sequence[str], blocks) -> str:
    """Blocks of indices into names as text: blocks joined by ';', members
    by their names joined by ','."""
    return ";".join(",".join(names[i] for i in block) for block in blocks)


def parse_partition(a: FiniteAlgebra, text: str) -> Partition:
    """Parse 'x,y;z;...' using element names: parse_part over the whole
    carrier. Elements not mentioned become singleton blocks."""
    return parse_part(a, text, a.elements())


def parse_part(a: FiniteAlgebra, text: str, part: Sequence[int]) -> Partition:
    """Parse 'x,y;z;...' by name into a partition of part, a sorted
    sequence of elements, indexed by position in part. Empty names, names
    outside part and names repeated, in one block or in two, are refused;
    elements not mentioned become singleton blocks."""
    blocks: list[list[int]] = []
    seen: set[int] = set()
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        block = parse_names(a, chunk, part)
        mine: set[int] = set()
        for i in block:
            if i in mine or i in seen:
                where = "twice in one block" if i in mine else "in two blocks"
                raise AlgebraSemanticError(
                    f"element {a.names[part[i]]!r} appears {where}")
            mine.add(i)
        seen |= mine
        blocks.append(block)
    blocks.extend([i] for i in range(len(part)) if i not in seen)
    return Partition.from_blocks(len(part), blocks)


def parse_names(a: FiniteAlgebra, text: str, part: Sequence[int]) -> list[int]:
    """Positions in part, a sorted sequence of elements, of the names in
    text, read by its one split into names at ','; a name may hold ','
    itself, as direct_product's '(x,y)' do. Without a split, the first
    piece that no split gets past is an unknown name (an empty one too);
    two splits are refused, naming both."""
    pieces = [nm.strip() for nm in text.split(",")]
    known = frozenset(a.names)
    reads = name_readings(pieces, known, 1 + max(nm.count(",") for nm in known))
    if not reads[-1]:
        stuck = max(j for j, r in enumerate(reads) if r)
        raise AlgebraSemanticError(f"unknown element name {pieces[stuck]!r}")
    if len(reads[-1]) > 1:
        first, second = (" | ".join(r) for r in reads[-1])
        raise AlgebraSemanticError(f"names {text!r} read two ways: {first} and {second}")
    return [position_in_part(a, name, part) for name in reads[-1][0]]


def position_in_part(a: FiniteAlgebra, name: str, part: Sequence[int]) -> int:
    """Position in part, a sorted sequence of elements, of the element
    with this name."""
    g = a.index_of(name)
    try:
        return part.index(g)
    except ValueError:
        raise AlgebraSemanticError(f"element {name!r} is outside this part") from None


def pair_closure_gaps(size: int, pairs: Iterable[tuple[int, int]]
                      ) -> list[tuple[int, int]]:
    """Pairs forced by reflexive-symmetric-transitive closure but absent
    from the input.

    Lets a caller hand over a pair set that claims to be an equivalence
    relation and learn exactly which pairs its closure had to add. Returns
    off-diagonal ordered pairs, sorted.
    """
    _check_size(size)
    given = set()
    for a, b in check_pairs(size, pairs, "a pair"):
        given.add((a, b))
        given.add((b, a))
    closure = Partition.from_pairs(size, given)
    return sorted((a, b) for (a, b) in closure.as_pairs()
                  if a != b and (a, b) not in given)


def is_congruence(a: FiniteAlgebra, p: Partition) -> bool:
    """Compatibility of an equivalence relation with join, meet and star.
    Each element is compared with the least element of its block, which by
    transitivity settles every pair of the block."""
    if p.size != a.size:
        raise ValueError("partition size does not match the algebra")
    cls = p._member.__getitem__
    join, meet, star = a.join, a.meet, a.star
    for x, *others in p.blocks:
        if others:
            sx, jx, mx = cls(star[x]), [*map(cls, join[x])], [*map(cls, meet[x])]
            if any(cls(star[y]) != sx or [*map(cls, join[y])] != jx
                   or [*map(cls, meet[y])] != mx for y in others):
                return False
    return True
