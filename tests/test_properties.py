"""Property-based checks over randomly drawn partitions, terms and maps."""
from hypothesis import given, settings
from hypothesis import strategies as st

import qba
from qba.partitions import Partition
from qba.terms import (Const, Equation, Join, Meet, Star, Var,
                       format_equation, format_term, holds_in,
                       parse_equation, parse_term, variables)

SMALL_FIXTURES = ("2", "4", "4bar", "6", "A", "F3", "F5")


def partition_from_assignment(values):
    groups = {}
    for x, g in enumerate(values):
        groups.setdefault(g, []).append(x)
    return Partition.from_blocks(len(values), groups.values())


@st.composite
def fixture_and_partition(draw):
    name = draw(st.sampled_from(SMALL_FIXTURES))
    a = qba.fixture(name)
    values = draw(st.lists(st.integers(0, a.size - 1),
                           min_size=a.size, max_size=a.size))
    return a, partition_from_assignment(values)


@settings(max_examples=150, deadline=None)
@given(fixture_and_partition())
def test_generated_congruence_is_least(case):
    a, seed_partition = case
    seed = [(b[0], x) for b in seed_partition.blocks for x in b[1:]]
    gen = qba.generated_congruence(a, seed)
    assert qba.is_congruence(a, gen)
    assert seed_partition.refines(gen)
    for theta in qba.all_congruences(a):
        if seed_partition.refines(theta):
            assert gen.refines(theta)


@settings(max_examples=150, deadline=None)
@given(fixture_and_partition())
def test_quotient_when_compatible(case):
    a, p = case
    if qba.is_congruence(a, p):
        q, proj = qba.quotient(a, p)
        assert qba.validate(q).passed
        assert qba.is_homomorphism(a, q, proj)


terms = st.recursive(
    st.sampled_from([Const(0), Const(1), Var("x"), Var("y"), Var("z")]),
    lambda sub: st.one_of(
        st.builds(Join, sub, sub),
        st.builds(Meet, sub, sub),
        st.builds(Star, sub),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(terms)
def test_formatter_parser_roundtrip(t):
    assert parse_term(format_term(t)) == t


@settings(max_examples=100, deadline=None)
@given(terms, terms)
def test_product_satisfies_equation_iff_both_factors_do(lhs, rhs):
    eq = Equation(lhs, rhs)
    two, f3 = qba.fixture("2"), qba.fixture("F3")
    product = qba.direct_product(two, f3)
    assert holds_in(product, eq).valid == (
        holds_in(two, eq).valid and holds_in(f3, eq).valid)


@settings(max_examples=200, deadline=None)
@given(terms, st.dictionaries(st.sampled_from("xyz"), st.integers(0, 3),
                              min_size=3))
def test_eval_commutes_with_isomorphism(t, env):
    a, b = qba.fixture("4"), qba.fixture("4bar")
    f = qba.find_isomorphism(a, b)
    mapped = {k: f(v) for k, v in env.items()}
    assert f(qba.eval_term(a, t, env)) == qba.eval_term(b, t, mapped)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SMALL_FIXTURES), st.data())
def test_quasi_order_monotone_under_star_pairs(name, data):
    a = qba.fixture(name)
    x = data.draw(st.integers(0, a.size - 1))
    y = data.draw(st.integers(0, a.size - 1))
    if qba.quasi_leq(a, x, y):
        assert qba.quasi_leq(a, a.star[y], a.star[x])


@settings(max_examples=100, deadline=None)
@given(terms, terms)
def test_equation_text_roundtrip(lhs, rhs):
    eq = Equation(lhs, rhs)
    assert parse_equation(format_equation(eq)) == eq
    assert variables(eq.lhs) | variables(eq.rhs) <= {"x", "y", "z"}
