"""The error contract of the public API.

An out-of-range element or block index, or one that is not an int, raises
a QbaError or a ValueError: never a KeyError, IndexError or TypeError, and
never a silent answer (so -1 does not wrap to the last block). A bool is an
int here, as everywhere in Python, but for the sizes and counts that the
constructors of whole algebras and the enumerators take. The guards that
refuse malformed input are listed with their error type and message.
"""
from dataclasses import replace

import pytest

import qba
from qba import ElementMap, FiniteAlgebra, Partition
from qba.congruences import cross_pairs
from qba.enumeration import involution_count, iso_class_key
from qba.errors import (AlgebraSemanticError, EquationParseError,
                        NotACongruence, PreconditionViolated, QbaError,
                        TooLarge)
from qba.quotients import isomorphism_candidate

SIX, F5 = qba.fixture("6"), qba.fixture("F5")  # 6: regulars 0, 5
CHI6 = qba.decompose(SIX, qba.chi(SIX))  # two theta_r and two theta_ir blocks
THREE = Partition.singletons(3)
X, X_STAR, X_JOIN_Y = map(qba.parse_term, ("x", "x'", "x \\/ y"))


def row(call, name):
    return pytest.param(call, id=name)


def guard(call, error, message):
    return pytest.param(call, error, message, id=message)


@pytest.mark.parametrize("call", [
    row(lambda: qba.principal_congruence_flat(F5, 5, 1), "principal-flat-n"),
    row(lambda: qba.principal_congruence_flat(F5, 1, -1), "principal-flat--1"),
    row(lambda: qba.principal_congruence_nonflat(
        SIX, Partition.singletons(2), 1, 6), "principal-nonflat-n"),
    row(lambda: qba.principal_congruence_nonflat(
        SIX, Partition.singletons(2), -1, 2), "principal-nonflat--1"),
    row(lambda: qba.generated_congruence(SIX, [(0, 6)]), "generated-n"),
    row(lambda: qba.generated_congruence(SIX, [(-1, 0)]), "generated--1"),
    row(lambda: qba.subalgebra(SIX, [0, 5, 6]), "subalgebra-n"),
    row(lambda: qba.subalgebra(SIX, [-1, 0, 5]), "subalgebra--1"),
    row(lambda: qba.extend_from_subalgebra(SIX, [0, 5, 6],
                                           Partition.singletons(2)),
        "extend-n"),
    row(lambda: qba.compose_flat(F5, Partition.singletons(5)),
        "compose-flat-size"),
    row(lambda: qba.compose_nonflat(SIX, replace(
        CHI6, linked=frozenset({-1}), f=((-1, 0),))), "compose-nonflat-linked"),
    row(lambda: qba.compose_nonflat(SIX, replace(CHI6, f=((0, 99), (1, 1)))),
        "compose-nonflat-f-n"),
    row(lambda: qba.compose_nonflat(SIX, replace(CHI6, f=((0, -1), (1, 1)))),
        "compose-nonflat-f--1"),
    row(lambda: cross_pairs(SIX, CHI6.theta_r, CHI6.theta_ir, [(-1, -1)]),
        "cross-pairs--1"),
    row(lambda: cross_pairs(SIX, CHI6.theta_r, CHI6.theta_ir, [(9, 0)]),
        "cross-pairs-regular-n"),
    row(lambda: cross_pairs(SIX, CHI6.theta_r, CHI6.theta_ir, [(0, 2)]),
        "cross-pairs-irregular-n"),
    row(lambda: Partition(3, ((0,), (1,), (3,))), "partition-n"),
    row(lambda: Partition(3, ((-1, 0), (1,), (2,))), "partition--1"),
    row(lambda: Partition(2, ((0, 1.0),)), "partition-float"),
    row(lambda: Partition.from_blocks(2, [[0, 1.0]]), "from-blocks-float"),
    row(lambda: Partition.from_blocks(2, [[0, 'a']]), "from-blocks-str"),
    row(lambda: ElementMap(2, 2, (0, 1.0)), "element-map-float"),
    row(lambda: Partition.from_pairs(3, [(0, 3)]), "from-pairs-n"),
    row(lambda: Partition.from_blocks(3, [[0, 1, 2, 3]]), "from-blocks-n"),
    row(lambda: THREE.relates(0, 3), "relates-n"),
    row(lambda: THREE.block_of(-1), "block-of--1"),
    row(lambda: THREE.block_index(3), "block-index-n"),
    row(lambda: THREE.restrict([0, 3]), "restrict-n"),
    row(lambda: qba.quotient(SIX, Partition.singletons(7)), "quotient-size"),
    row(lambda: qba.axiom_holds_at(SIX, "QL1", (0, 6)), "axiom-n"),
    row(lambda: qba.axiom_holds_at(SIX, "QB2", (-1,)), "axiom--1"),
    row(lambda: qba.quasi_leq(SIX, 0, 6), "quasi-leq-n"),
    row(lambda: qba.quasi_leq(SIX, -1, 0), "quasi-leq--1"),
    row(lambda: qba.cloud_of(SIX, 6), "cloud-of-n"),
    row(lambda: qba.eval_term(SIX, X, {"x": 7}), "eval-term-n"),
    row(lambda: qba.eval_term(SIX, X_STAR, {"x": 7}), "eval-term-star-n"),
    row(lambda: qba.eval_term(SIX, X, {"x": -1}), "eval-term--1"),
    row(lambda: qba.eval_term(SIX, X, {"x": 1.0}), "eval-term-float"),
    row(lambda: qba.eval_term(SIX, X_STAR, {"x": b"\x00\x06"}), "eval-term-bytes-n"),
    row(lambda: qba.eval_term(SIX, X_STAR, {"x": [0, -1]}), "eval-term-list--1"),
    row(lambda: qba.eval_term(SIX, X_JOIN_Y, {"x": b"\x00\x01", "y": b"\x00"}),
        "eval-term-lengths"),
    row(lambda: qba.eval_term(SIX, X_JOIN_Y, {"x": b"\x00", "y": [0]}), "eval-term-types"),
])
def test_out_of_range_index_is_refused(call):
    with pytest.raises((QbaError, ValueError)):
        call()


# The non-congruence {0,a};{b};{1} on the regular part of A, the Boolean
# algebra 0, a, b, 1 at local indices 0..3.
NOT_CON_A = Partition(4, ((0, 1), (2,), (3,)))

# 4 with its first join row set to (0, 2, 2, 1): it fails the mask test.
FOUR = qba.fixture("4")
NO_MASKS = replace(FOUR, join=((0, 2, 2, 1),) + FOUR.join[1:])
NOT_MASKS = "join and meet are not unions and intersections of atom masks"


@pytest.mark.parametrize("call, error, message", [
    guard(lambda: FiniteAlgebra((), (), (), (), 0, 0),
          AlgebraSemanticError, "empty carrier"),
    guard(lambda: FiniteAlgebra(("0", "0"), ((0, 0),) * 2, ((0, 0),) * 2,
                                (0, 1), 0, 0),
          AlgebraSemanticError, "duplicate names"),
    guard(lambda: Partition(2, ((), (0, 1))), ValueError, "empty block"),
    guard(lambda: Partition(3, ((1,), (0, 2))),
          ValueError, "blocks not sorted by least element"),
    guard(lambda: Partition(-1, ()), ValueError, "size must be an int >= 0, not -1"),
    guard(lambda: Partition(2.0, ((0, 1),)),
          ValueError, "size must be an int >= 0, not 2.0"),
    guard(lambda: Partition(2, None),
          ValueError, "blocks must be a sequence of blocks of elements"),
    guard(lambda: Partition(2, iter([(0,), (1,)])),
          ValueError, "blocks must be a sequence of blocks of elements"),
    guard(lambda: ElementMap(2, 2, None),
          ValueError, "mapping must be a sequence of elements"),
    guard(lambda: ElementMap(2, 2, iter([0, 1])),
          ValueError, "mapping must be a sequence of elements"),
    guard(lambda: replace(CHI6, linked=None),
          ValueError, "linked and cross must be sets and f a sequence of pairs"),
    guard(lambda: replace(CHI6, cross=[[0, 1], [1, 0]]),
          ValueError, "linked and cross must be sets and f a sequence of pairs"),
    guard(lambda: Partition.singletons(-2),
          ValueError, "size must be an int >= 0, not -2"),
    guard(lambda: Partition.from_pairs(-3, []),
          ValueError, "size must be an int >= 0, not -3"),
    guard(lambda: Partition.from_blocks(-1, []),
          ValueError, "size must be an int >= 0, not -1"),
    guard(lambda: qba.format_partition(F5, THREE),
          ValueError, "partition size does not match the algebra"),
    guard(lambda: qba.subalgebras(qba.make_flat(11, 1)),
          TooLarge, "carrier of 11 exceeds the guard of 10"),
    guard(lambda: qba.extend_from_subalgebra(SIX, [0, 5], THREE),
          ValueError, "partition size does not match the subalgebra"),
    guard(lambda: qba.principal_congruence_nonflat(SIX, THREE, 1, 2),
          ValueError, "partition size does not match the regular part"),
    guard(lambda: qba.principal_congruence_nonflat(qba.fixture("A"),
                                                   NOT_CON_A, 2, 4),
          NotACongruence, "theta_r is not a congruence on the regular part"),
    guard(lambda: qba.compose_flat(F5, THREE),
          ValueError, "partition size does not match the irregular part"),
    guard(lambda: qba.compose_nonflat(SIX, replace(CHI6, theta_ir=THREE)),
          ValueError, "partition sizes do not match the regular/irregular split"),
    guard(lambda: involution_count(-1), ValueError, "m must be non-negative"),
    guard(lambda: qba.make_irreducible(-1),
          ValueError, "k must be a natural number"),
    guard(lambda: qba.fixture("nope"),
          ValueError, "no bundled algebra named 'nope'"),
    guard(lambda: qba.parse_equation("x ="),
          EquationParseError, "unexpected end of input (at position 3)"),
    guard(lambda: qba.parse_term("x y"),
          EquationParseError, "unexpected token 'y' (at position 2)"),
    pytest.param(lambda: iso_class_key(NO_MASKS), PreconditionViolated,
                 NOT_MASKS, id="iso_class_key-no-masks"),
    pytest.param(lambda: isomorphism_candidate(FOUR, NO_MASKS),
                 PreconditionViolated, NOT_MASKS,
                 id="isomorphism_candidate-no-masks"),
])
def test_guard(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert info.value.args == (message,)


@pytest.mark.parametrize("size", [2.0, -1])
@pytest.mark.parametrize("build", [
    Partition.singletons, Partition.whole,
    lambda size: Partition.from_pairs(size, []),
    lambda size: Partition.from_blocks(size, [[0, 5]])],
    ids=["singletons", "whole", "from_pairs", "from_blocks"])
def test_partition_constructors_check_the_size_first(build, size):
    with pytest.raises(ValueError) as info:
        build(size)
    assert info.value.args == (f"size must be an int >= 0, not {size!r}",)


def test_partition_sizes_zero_and_bool_are_ints():
    # restrict([]) gives size 0 on a Boolean algebra's irregular part.
    assert Partition(0, ()).blocks == ()
    assert Partition.singletons(3).restrict([]) == Partition(0, ())
    assert Partition.whole(0) == Partition(0, ())
    assert Partition(True, ((0,),)).blocks == ((0,),)


@pytest.mark.parametrize("build, args, message", [
    (qba.make_flat, (3, True), "k must be a natural number"),
    (qba.make_flat, (True, 1), "n must be a natural number"),
    (qba.make_flat, (3.0, 1), "n must be a natural number"),
    (qba.make_flat, (-1, 1), "n must be a natural number"),
    (qba.make_flat, (3, -1), "k must be a natural number"),
    (qba.boolean_algebra, (True,), "num_atoms must be a natural number"),
    (qba.boolean_algebra, (-1,), "num_atoms must be a natural number"),
    (qba.boolean_algebra, ("2",), "num_atoms must be a natural number"),
    (qba.make_irreducible, (1.5,), "k must be a natural number"),
    (qba.make_irreducible, (False,), "k must be a natural number"),
    (qba.make_irreducible, (-1,), "k must be a natural number"),
])
def test_constructors_check_their_integers_first(build, args, message,
                                                 monkeypatch):
    # Bools, other types and negatives are refused before any table is
    # built, as the enumerators refuse a size.
    for name in ("FiniteAlgebra", "_flat_algebra", "direct_product"):
        monkeypatch.setattr(qba.quotients, name, None)
    with pytest.raises(ValueError) as info:
        build(*args)
    assert info.value.args == (message,)


@pytest.mark.parametrize("call, message", [
    (lambda: qba.generated_congruence(SIX, [(0, 1), (0,)]),
     "a seed pair takes two elements, not (0,)"),
    (lambda: qba.generated_congruence(SIX, [(0, 1, 2)]),
     "a seed pair takes two elements, not (0, 1, 2)"),
    (lambda: qba.generated_congruence(SIX, [3]),
     "a seed pair takes two elements, not 3"),
    (lambda: Partition.from_pairs(3, [(0, 1), (0, 1, 2)]),
     "a pair takes two elements, not (0, 1, 2)"),
    (lambda: Partition.from_pairs(3, [(0, 1), None]),
     "a pair takes two elements, not None"),
    (lambda: qba.pair_closure_gaps(3, [(0, 1), (2,)]),
     "a pair takes two elements, not (2,)"),
])
def test_malformed_pairs_are_refused_first(call, message, monkeypatch):
    # A pair of other than two values names the pair before any closure
    # step is taken.
    monkeypatch.setattr(qba.partitions.UnionFind, "union", None)
    monkeypatch.setattr(qba.congruences, "_tau_frame", None)
    with pytest.raises(ValueError) as info:
        call()
    assert info.value.args == (message,)


def test_refines_across_sizes_is_false():
    assert not Partition.singletons(2).refines(Partition.singletons(3))
