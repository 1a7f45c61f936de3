"""The error contract of the public API.

An out-of-range element or block index, or one that is not an int, raises
a QbaError or a ValueError: never a KeyError, IndexError or TypeError, and
never a silent answer (so -1 does not wrap to the last block). A bool is an
int here, as everywhere in Python. The guards that
refuse malformed input are listed with their error type and message.
"""
from dataclasses import replace

import pytest

import qba
from qba import ElementMap, FiniteAlgebra, Partition
from qba.congruences import cross_pairs
from qba.enumeration import involution_count
from qba.errors import (AlgebraSemanticError, EquationParseError,
                        NotACongruence, QbaError, TooLarge)

SIX, F5 = qba.fixture("6"), qba.fixture("F5")  # 6: regulars 0, 5
CHI6 = qba.decompose(SIX, qba.chi(SIX))  # two theta_r and two theta_ir blocks
THREE = Partition.singletons(3)


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
])
def test_out_of_range_index_is_refused(call):
    with pytest.raises((QbaError, ValueError)):
        call()


# The non-congruence {0,a};{b};{1} on the regular part of A, the Boolean
# algebra 0, a, b, 1 at local indices 0..3.
NOT_CON_A = Partition(4, ((0, 1), (2,), (3,)))


@pytest.mark.parametrize("call, error, message", [
    guard(lambda: FiniteAlgebra((), (), (), (), 0, 0),
          AlgebraSemanticError, "empty carrier"),
    guard(lambda: FiniteAlgebra(("0", "0"), ((0, 0),) * 2, ((0, 0),) * 2,
                                (0, 1), 0, 0),
          AlgebraSemanticError, "duplicate names"),
    guard(lambda: Partition(2, ((), (0, 1))), ValueError, "empty block"),
    guard(lambda: Partition(3, ((1,), (0, 2))),
          ValueError, "blocks not sorted by least element"),
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
])
def test_guard(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert info.value.args == (message,)


def test_refines_across_sizes_is_false():
    assert not Partition.singletons(2).refines(Partition.singletons(3))
