"""Partition representation, the pair-set boundary and compatibility."""
from itertools import combinations

import pytest

import qba
from qba.errors import AlgebraSemanticError
from qba.partitions import (Partition, format_blocks, pair_closure_gaps,
                            parse_part, position_in_part)


class TestPartition:
    def test_canonical_blocks(self):
        p = Partition.from_blocks(4, [[3, 1], [2, 0]])
        assert p.blocks == ((0, 2), (1, 3))

    def test_singletons_and_whole(self):
        assert Partition.singletons(3).blocks == ((0,), (1,), (2,))
        assert Partition.whole(3).blocks == ((0, 1, 2),)

    def test_direct_constructor_rejects_garbage(self):
        with pytest.raises(ValueError):
            Partition(3, ((0, 1),))  # missing element
        with pytest.raises(ValueError):
            Partition(3, ((0, 1), (1, 2)))  # overlap
        with pytest.raises(ValueError):
            Partition(3, ((1, 0), (2,)))  # unsorted block
        with pytest.raises(ValueError):
            Partition(2, ((0, 5),))  # out of range

    def test_from_pairs_closure(self):
        p = Partition.from_pairs(5, [(0, 1), (1, 2), (3, 4)])
        assert p.blocks == ((0, 1, 2), (3, 4))

    def test_relates_and_block_of(self):
        p = Partition.from_blocks(4, [[0, 2], [1], [3]])
        assert p.relates(0, 2) and not p.relates(0, 1)
        assert p.block_of(2) == (0, 2)

    def test_refines(self):
        fine = Partition.singletons(3)
        coarse = Partition.whole(3)
        mid = Partition.from_blocks(3, [[0, 1], [2]])
        assert fine.refines(mid) and mid.refines(coarse)
        assert not coarse.refines(mid)
        assert mid.refines(mid)

    def test_restrict_reindexes(self):
        p = Partition.from_blocks(6, [[0, 1, 2], [3, 4, 5]])
        assert p.restrict([1, 3, 5]).blocks == ((0,), (1, 2))

    def test_as_pairs_includes_diagonal(self):
        p = Partition.from_blocks(2, [[0, 1]])
        assert p.as_pairs() == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})


class TestTextFormat:
    def test_format_and_parse(self, fx):
        a = fx["4"]
        p = qba.parse_partition(a, "0,1;a;b")
        assert qba.format_partition(a, p) == "0,1;a;b"

    def test_unlisted_elements_become_singletons(self, fx):
        a = fx["4"]
        assert qba.parse_partition(a, "0,1") == qba.parse_partition(a, "0,1;a;b")

    def test_duplicate_element_rejected(self, fx):
        with pytest.raises(AlgebraSemanticError, match="two blocks"):
            qba.parse_partition(fx["4"], "0,a;a,b")

    @pytest.mark.parametrize("text", ["0,0", "a,0,a;b", "b;a,1,a"])
    def test_name_twice_in_one_block_rejected(self, fx, text):
        with pytest.raises(AlgebraSemanticError,
                           match="^element '[0a]' appears twice in one block$"):
            qba.parse_partition(fx["4"], text)

    def test_first_repeat_in_text_order_is_reported(self, fx):
        a = fx["4"]
        with pytest.raises(AlgebraSemanticError, match="^element 'a' appears in two blocks$"):
            qba.parse_partition(a, "a;b,a,b")
        with pytest.raises(AlgebraSemanticError, match="^element 'b' appears twice in one block$"):
            qba.parse_partition(a, "a;b,b,a")
        irs = [1, 2, 3, 4]  # the irregular part of 6
        with pytest.raises(AlgebraSemanticError, match="^element 'e' appears twice in one block$"):
            parse_part(fx["6"], "e,e", irs)

    def test_unknown_name_rejected(self, fx):
        with pytest.raises(AlgebraSemanticError, match="unknown"):
            qba.parse_partition(fx["4"], "0,q")

    @pytest.mark.parametrize("text", ["0,,a", "0,", ",a", "0, ,a"])
    def test_empty_name_rejected(self, fx, text):
        with pytest.raises(AlgebraSemanticError, match="^unknown element name ''$"):
            qba.parse_partition(fx["4"], text)

    def test_empty_chunks_skipped(self, fx):
        a = fx["4"]
        assert qba.parse_partition(a, ";0,1;;a; ;") == qba.parse_partition(a, "0,1")

    def test_product_names_read_back(self, fx):
        # direct_product names its elements (x,y); the text is read by
        # its one split into names.
        # all_congruences refuses 12 elements, so on (2xF3)x2 the
        # congruences are those generated by at most two pairs.
        two_f3 = qba.direct_product(fx["2"], fx["F3"])
        big = qba.direct_product(two_f3, fx["2"])
        pairs = list(combinations(big.elements(), 2))
        seeds = [[p] for p in pairs] + list(map(list, combinations(pairs, 2)))
        for a, cons in ((two_f3, qba.all_congruences(two_f3)),
                        (big, {qba.generated_congruence(big, s) for s in seeds})):
            assert len(cons) > 15
            for p in cons:
                assert qba.parse_partition(a, qba.format_partition(a, p)) == p
        p = qba.parse_partition(two_f3, "(0,0), (0,c);(1, d),(1,0)")
        assert p.blocks == ((0, 1), (2,), (3, 5), (4,))
        with pytest.raises(AlgebraSemanticError, match=r"^unknown element name '\(0'$"):
            qba.parse_partition(two_f3, "(0,0),(0")
        with pytest.raises(AlgebraSemanticError, match="^unknown element name ''$"):
            qba.parse_partition(two_f3, "(0,0),,(0,c)")

    @staticmethod
    def renamed(a, names):
        return qba.FiniteAlgebra(names, a.join, a.meet, a.star, a.zero, a.one)

    def test_a_text_with_two_readings_is_refused(self, fx):
        # a | b,c and a,b | c are both splits of 'a,b,c' into names.
        a = self.renamed(fx["A"], ("0", "a", "a,b", "b,c", "c", "1"))
        message = r"^names 'a,b,c' read two ways: a \| b,c and a,b \| c$"
        for text in ("a,b,c", "0;a,b,c"):
            with pytest.raises(AlgebraSemanticError, match=message):
                qba.parse_partition(a, text)
        assert qba.parse_partition(a, "a,b,0;c,1").blocks == ((0, 2), (1,), (3,), (4, 5))

    def test_the_one_reading_is_found(self, fx):
        # The longest name at the start, x,y, leaves z, which is no name;
        # x | y,z is the only split.
        a = self.renamed(fx["A"], ("0", "x", "x,y", "y,z", "q", "1"))
        assert qba.parse_partition(a, "x,y,z").blocks == ((0,), (1, 3), (2,), (4,), (5,))
        assert qba.parse_partition(a, "x,y,q").blocks == ((0,), (1,), (2, 4), (3,), (5,))
        with pytest.raises(AlgebraSemanticError, match="^unknown element name 'z'$"):
            qba.parse_partition(a, "x,y,z,z")

    def test_part_is_indexed_by_position(self, fx):
        a = fx["6"]  # irregular part a, e, f, b
        irs = [1, 2, 3, 4]
        assert parse_part(a, "b,e", irs) == Partition.from_blocks(4, [[1, 3], [0], [2]])
        names = [a.names[x] for x in irs]
        assert format_blocks(names, parse_part(a, "b,e", irs).blocks) == "a;e,b;f"
        assert position_in_part(a, "f", irs) == 2
        for text in ("a,1", "1"):
            with pytest.raises(AlgebraSemanticError, match="^element '1' is outside this part$"):
                parse_part(a, text, irs)


class TestPairClosureGaps:
    def test_transitive_input_has_no_gaps(self):
        pairs = [(0, 1), (1, 0), (0, 0), (1, 1), (2, 2)]
        assert pair_closure_gaps(3, pairs) == []

    def test_missing_links_reported(self):
        gaps = pair_closure_gaps(3, [(0, 1), (1, 2)])
        assert (0, 2) in gaps and (2, 0) in gaps

    def test_symmetry_is_supplied_not_reported(self):
        assert pair_closure_gaps(2, [(0, 1)]) == []


class TestIsCongruence:
    def test_trivial_congruences(self, fx):
        for a in fx.values():
            assert qba.is_congruence(a, Partition.singletons(a.size))
            assert qba.is_congruence(a, Partition.whole(a.size))

    def test_tau_shape_on_4(self, fx):
        a = fx["4"]
        assert qba.is_congruence(a, qba.parse_partition(a, "0,1;a;b"))

    def test_star_incompatibility_detected(self, fx):
        # relating 0 and a forces (0*, a*) = (1, b) to be related
        a = fx["4"]
        p = qba.parse_partition(a, "0,a;b;1")
        assert not qba.is_congruence(a, p)

    def test_size_mismatch_rejected(self, fx):
        with pytest.raises(ValueError):
            qba.is_congruence(fx["4"], Partition.singletons(3))


INDEX_READERS = {
    "relates-left": lambda p, a, v: p.relates(v, 0),
    "relates-right": lambda p, a, v: p.relates(0, v),
    "block_of": lambda p, a, v: p.block_of(v),
    "block_index": lambda p, a, v: p.block_index(v),
    "restrict": lambda p, a, v: p.restrict([v, 1]),
    "quasi_leq-left": lambda p, a, v: qba.quasi_leq(a, v, 0),
    "quasi_leq-right": lambda p, a, v: qba.quasi_leq(a, 0, v),
    "cloud_of": lambda p, a, v: qba.cloud_of(a, v),
}


@pytest.mark.parametrize("value", ["minus-one", "n", "float"])
@pytest.mark.parametrize("reader", sorted(INDEX_READERS))
def test_index_outside_the_carrier_is_refused(reader, value):
    # -1 would read the last element (on this partition relates(-1, 0)
    # was True), and n or 1.0 would fail as a bare IndexError or TypeError.
    a = qba.fixture("4")
    p = Partition.from_blocks(4, [[0, 3], [1], [2]])
    v = {"minus-one": -1, "n": 4, "float": 1.0}[value]
    with pytest.raises(ValueError, match="takes elements of the carrier 0..3"):
        INDEX_READERS[reader](p, a, v)


def test_index_readers_on_valid_elements():
    a = qba.fixture("4")
    p = Partition.from_blocks(4, [[0, 3], [1], [2]])
    assert p.relates(3, 0) and not p.relates(0, 1)
    assert p.block_of(3) == (0, 3) and p.block_index(2) == 2
    assert p.restrict([3, 0, 1]).blocks == ((0, 2), (1,))
    assert p.refines(Partition.whole(4)) and not p.refines(Partition.singletons(4))
    assert all(qba.quasi_leq(a, a.zero, x) for x in a.elements())
    assert qba.cloud_of(a, 0) == frozenset({0, 1})
