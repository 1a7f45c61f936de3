"""Parser, evaluator, per-algebra checking and variety decision procedures."""
import time

import pytest

import qba
from qba.errors import (EquationParseError, InvariantViolation,
                        PreconditionViolated, TooLarge, UnboundVariable)
from qba.quotients import direct_product
from qba.terms import (MAX_ASSIGNMENTS, MAX_DEPTH, Const, Equation, Join, Meet, Star, Var,
                       Verdict, Witness, decide, equation_corpus, eval_term,
                       format_equation, format_term, holds_in, parse_equation,
                       parse_term, variables)

X, Y, Z = Var("x"), Var("y"), Var("z")

AXIOM_STRINGS = (
    "x \\/ y = y \\/ x",
    "x /\\ y = y /\\ x",
    "x \\/ (y \\/ z) = (x \\/ y) \\/ z",
    "x /\\ (y /\\ z) = (x /\\ y) /\\ z",
    "x \\/ (x /\\ y) = x \\/ x",
    "x /\\ (x \\/ y) = x /\\ x",
    "x \\/ (y \\/ y) = x \\/ y",
    "x /\\ (y /\\ y) = x /\\ y",
    "x \\/ x = x /\\ x",
    "x \\/ 1 = 1",
    "x /\\ 0 = 0",
    "x \\/ x' = 1",
    "x /\\ x' = 0",
    "(x /\\ x)' = x' \\/ x'",
    "x'' = x",
    "x \\/ (y /\\ z) = (x \\/ y) /\\ (x \\/ z)",
    "x /\\ (y \\/ z) = (x /\\ y) \\/ (x /\\ z)",
)


class TestParser:
    def test_double_star(self):
        assert parse_equation("x'' = x") == Equation(Star(Star(X)), X)

    def test_distributivity_shape(self):
        eq = parse_equation("x /\\ (y \\/ z) = (x /\\ y) \\/ (x /\\ z)")
        assert eq == Equation(Meet(X, Join(Y, Z)), Join(Meet(X, Y), Meet(X, Z)))

    def test_precedence(self):
        assert parse_term("x /\\ y \\/ z") == Join(Meet(X, Y), Z)
        assert parse_term("x \\/ y /\\ z") == Join(X, Meet(Y, Z))
        assert parse_term("x /\\ y'") == Meet(X, Star(Y))

    def test_left_associativity(self):
        assert parse_term("x \\/ y \\/ z") == Join(Join(X, Y), Z)

    def test_constants(self):
        assert parse_term("0 \\/ 1") == Join(Const(0), Const(1))

    def test_malformed_reports_position(self):
        text = "x \\/ = y"
        with pytest.raises(EquationParseError) as err:
            parse_equation(text)
        assert err.value.position == text.index("=")

    def test_trailing_token(self):
        with pytest.raises(EquationParseError):
            parse_equation("x = y z")

    def test_unbalanced_paren(self):
        with pytest.raises(EquationParseError):
            parse_term("(x \\/ y")

    def test_unexpected_character(self):
        with pytest.raises(EquationParseError):
            parse_term("x & y")

    def test_every_space_separates_and_every_stray_character_is_refused(self):
        # Tokens split at exactly the code points with str.isspace(), and
        # any other character that starts no token here (a lone '\' or
        # '/', an upper-case letter, a lone surrogate) is refused at its
        # own position.
        starts = set("()'=01abcdefghijklmnopqrstuvwxyz")
        spaces, wrong = 0, []
        for c in map(chr, range(0x110000)):
            if c.isspace():
                spaces += 1
                if parse_term(f"x{c}\\/{c}y{c}") != Join(X, Y):
                    wrong.append(c)
            elif c not in starts:
                try:
                    parse_term(f"x {c}")
                    wrong.append(c)
                except EquationParseError as err:
                    if err.args != (f"unexpected character {c!r} (at position 2)",):
                        wrong.append(c)
        assert spaces > 20 and not wrong, wrong[:5]

    def test_missing_equals(self):
        with pytest.raises(EquationParseError):
            parse_equation("x \\/ y")

    def test_identifier_grammar(self):
        assert parse_term("foo_Bar1") == Var("foo_Bar1")
        with pytest.raises(EquationParseError):
            parse_term("Foo")  # identifiers start lower-case


def nested(depth):
    return "(" * depth + "x" + ")" * depth


def starred(depth):
    return "x" + "'" * depth


def chained(depth, op="\\/"):
    return f" {op} ".join(["x"] * (depth + 1))


class TestDepthLimit:
    @pytest.mark.parametrize("make", [nested, starred, chained])
    def test_at_the_limit_parses_and_evaluates(self, make, fx):
        t = parse_term(make(MAX_DEPTH))
        assert parse_term(format_term(t)) == t
        assert 0 <= eval_term(fx["4"], t, {"x": 1}) < 4

    def test_parentheses_and_tree_depth_at_the_limit_together(self, fx):
        text = "(" * MAX_DEPTH + starred(MAX_DEPTH) + ")" * MAX_DEPTH
        t = parse_term(text)
        assert eval_term(fx["4"], t, {"x": 1}) == 1

    def test_one_past_the_limit_is_refused_at_the_offender(self):
        cases = [
            (nested(MAX_DEPTH + 1), MAX_DEPTH, "parentheses"),
            (starred(MAX_DEPTH + 1), MAX_DEPTH + 1, "term"),
            (chained(MAX_DEPTH + 1), 5 * MAX_DEPTH + 2, "term"),
            (chained(MAX_DEPTH + 1, "/\\"), 5 * MAX_DEPTH + 2, "term"),
            # The deep operand sits on the right of a shallow join.
            ("x \\/ " + starred(MAX_DEPTH), 2, "term"),
        ]
        for text, position, what in cases:
            with pytest.raises(EquationParseError) as err:
                parse_term(text)
            assert err.value.position == position, text[:20]
            assert str(err.value).startswith(f"{what}") and str(MAX_DEPTH) in str(err.value)

    @pytest.mark.parametrize("make", [nested, starred, chained])
    def test_far_past_the_limit_is_a_parse_error(self, make):
        with pytest.raises(EquationParseError):
            parse_equation(make(1200) + " = x")


class TestFormatting:
    def test_examples(self):
        assert format_term(Join(Meet(X, Y), Z)) == "x /\\ y \\/ z"
        assert format_term(Join(X, Join(Y, Z))) == "x \\/ (y \\/ z)"
        assert format_term(Star(Join(X, Y))) == "(x \\/ y)'"
        assert format_term(Star(Star(X))) == "x''"

    def test_axiom_strings_roundtrip(self):
        for text in AXIOM_STRINGS:
            eq = parse_equation(text)
            assert parse_equation(format_equation(eq)) == eq


class TestEval:
    def test_join_on_4(self, fx):
        a = fx["4"]
        env = {"x": a.index_of("a"), "y": a.index_of("b")}
        assert eval_term(a, parse_term("x \\/ y"), env) == a.one

    def test_star_on_4(self, fx):
        a = fx["4"]
        assert eval_term(a, parse_term("x'"), {"x": 1}) == 2

    def test_flat_join_is_zero(self, fx):
        a = fx["F3"]
        for vx in a.elements():
            for vy in a.elements():
                assert eval_term(a, parse_term("x \\/ y"),
                                 {"x": vx, "y": vy}) == 0

    def test_unbound_variable(self, fx):
        with pytest.raises(UnboundVariable):
            eval_term(fx["4"], parse_term("x"), {})

    def test_variables(self):
        assert variables(parse_term("x /\\ (y \\/ x)'")) == {"x", "y"}


class TestHoldsIn:
    def test_idempotence_fails_in_4_with_first_witness(self, fx):
        v = holds_in(fx["4"], parse_equation("x \\/ x = x"))
        assert not v.valid
        assert v.witness.as_dict == {"x": "a"}
        assert v.witness.lhs_value == "0" and v.witness.rhs_value == "a"
        assert v.witness.algebra == "4"

    def test_involution_holds_in_4(self, fx):
        assert holds_in(fx["4"], parse_equation("x'' = x")).valid

    def test_flat_collapse_holds_in_f3(self, fx):
        assert holds_in(fx["F3"], parse_equation("x \\/ y = 0")).valid

    def test_witness_order_is_lexicographic(self, fx):
        v = holds_in(fx["4"], parse_equation("x \\/ y = 0"))
        assert v.witness.as_dict == {"x": "0", "y": "b"}

    def test_closed_equation(self, fx):
        v = holds_in(fx["4"], parse_equation("0 = 1"))
        assert not v.valid and v.witness.assignment == ()

    def test_eval_over_columns(self, fx):
        a = fx["4"]
        t = parse_term("(x /\\ y)' \\/ x")
        xs, ys = [0, 1, 2, 3, 1], [3, 3, 1, 0, 2]
        want = [eval_term(a, t, {"x": x, "y": y}) for x, y in zip(xs, ys)]
        # Columns as lists, or as bytes: the same values in the same type.
        for column in (list, bytes):
            got = eval_term(a, t, {"x": column(xs), "y": column(ys)})
            assert type(got) is column and list(got) == want
            # Element op column and column op element.
            got = eval_term(a, parse_term("x /\\ y \\/ y /\\ x"), {"x": 2, "y": column(ys)})
            assert list(got) == [a.join[a.meet[2][y]][a.meet[y][2]] for y in ys]
        # A subterm free of columns stays an element.
        t = parse_term("x' \\/ 0")
        assert eval_term(a, t, {"x": 1, "y": ys}) == eval_term(a, t, {"x": 1}) == 3
        assert eval_term(a, t, {"x": 1, "y": bytes(ys)}) == 3

    def test_bytes_columns_need_sixteen_elements(self, fx):
        a = direct_product(fx["6"], fx["F3"])
        with pytest.raises(PreconditionViolated, match="n = 18"):
            eval_term(a, parse_term("x \\/ y"), {"x": bytes([1, 2]), "y": 3})


class TestAssignmentGuard:
    TWELVE = " \\/ ".join(f"x{i}" for i in range(12))

    def test_twelve_variables_on_6_refused_at_once(self, fx):
        eq = parse_equation(f"{self.TWELVE} = x0")
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="12 variables over 6 elements"):
            holds_in(fx["6"], eq)
        assert time.perf_counter() - start < 0.5

    def test_decide_refuses_twelve_variables_on_4(self):
        assert 4 ** 11 <= MAX_ASSIGNMENTS < 4 ** 12
        with pytest.raises(TooLarge):
            decide("qb", parse_equation(f"{self.TWELVE} = x0"))


class TestVerdict:
    def test_witness_exactly_when_invalid(self):
        w = Witness((("x", "a"),), "a", "1", "4")
        with pytest.raises(InvariantViolation):
            Verdict(valid=True, witness=w)
        with pytest.raises(InvariantViolation):
            Verdict(valid=False)


class TestDecide:
    def test_bound_law_valid(self):
        assert decide("qb", parse_equation("x \\/ 1 = 1")).valid

    def test_idempotence_invalid_with_witness_in_4(self):
        v = decide("qb", parse_equation("x \\/ x = x"))
        assert not v.valid
        assert v.witness.algebra == "4" and v.witness.as_dict == {"x": "a"}

    def test_flat_collapse_separates_varieties(self):
        eq = parse_equation("x \\/ y = 0")
        assert decide("fqb", eq).valid
        assert not decide("qb", eq).valid

    def test_boolean_idempotence(self):
        assert decide("b", parse_equation("x \\/ x = x")).valid

    def test_axioms_valid_in_qb(self):
        for text in AXIOM_STRINGS:
            assert decide("qb", parse_equation(text)).valid, text

    def test_unknown_variety(self):
        with pytest.raises(ValueError):
            decide("mv", parse_equation("x = x"))

    def test_variety_containment_on_corpus(self):
        # anything valid across all QB-algebras holds in the flat and
        # Boolean subvarieties
        for eq in equation_corpus(count=60):
            if decide("qb", eq).valid:
                assert decide("fqb", eq).valid
                assert decide("b", eq).valid


class TestCorpus:
    def test_deterministic(self):
        assert equation_corpus(count=10) == equation_corpus(count=10)
        assert equation_corpus(count=10, seed=7) != equation_corpus(count=10)

    def test_size_and_shape(self):
        corpus = equation_corpus()
        assert len(corpus) == 200

        def depth(t):
            if isinstance(t, (Var, Const)):
                return 0
            if isinstance(t, Star):
                return 1 + depth(t.inner)
            return 1 + max(depth(t.left), depth(t.right))

        for eq in corpus:
            assert depth(eq.lhs) <= 4 and depth(eq.rhs) <= 4
            assert variables(eq.lhs) | variables(eq.rhs) <= {"x", "y", "z"}

    def test_corpus_roundtrips_through_parser(self):
        for eq in equation_corpus(count=50):
            assert parse_equation(format_equation(eq)) == eq
