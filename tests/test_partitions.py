"""Partition representation, the pair-set boundary and compatibility."""
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

    def test_part_is_indexed_by_position(self, fx):
        a = fx["6"]  # irregular part a, e, f, b
        irs = [1, 2, 3, 4]
        assert parse_part(a, "b,e", irs) == Partition.from_blocks(4, [[1, 3], [0], [2]])
        assert format_blocks(a, parse_part(a, "b,e", irs).blocks, irs) == "a;e,b;f"
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
