"""Congruence enumeration, generation, extension, splitting and the
regular/irregular decomposition."""
import warnings

import pytest

import qba
import qba.congruences
from qba.congruences import CongruenceDecomposition
from qba.errors import (ConditionC1Violated, ConditionC2Violated,
                        ConditionC3Violated, FlatInput, NotACongruence,
                        NotAQBAlgebra, NotASubalgebra, NotFlat,
                        PreconditionViolated, NotStarClosed, TooLarge)
from qba.partitions import Partition
from test_check_oracles import (all_congruences_two_prunes,
                                generated_congruence_by_closure)


def part(a, text):
    return qba.parse_partition(a, text)


def fmt(a, p):
    return qba.format_partition(a, p)


class TestAllCongruences:
    def test_two_element_algebra(self, fx, congruence_cache):
        cons = congruence_cache(fx["2"])
        assert cons == [Partition.singletons(2), Partition.whole(2)]

    def test_con_4(self, fx, congruence_cache):
        a = fx["4"]
        strings = {fmt(a, p) for p in congruence_cache(a)}
        assert strings == {"0;a;b;1", "0,a;b,1", "0,1;a;b", "0,1;a,b", "0,a,b,1"}

    def test_contains_canonical(self, fx, congruence_cache):
        for a in fx.values():
            cons = congruence_cache(a)
            for required in (Partition.singletons(a.size),
                             Partition.whole(a.size), qba.chi(a), qba.tau(a)):
                assert required in cons

    def test_f3_has_the_irregular_swap(self, fx, congruence_cache):
        a = fx["F3"]
        assert part(a, "0;c,d") in congruence_cache(a)

    def test_every_result_is_congruence(self, fx, congruence_cache):
        for a in fx.values():
            for p in congruence_cache(a):
                assert qba.is_congruence(a, p)

    def test_too_large_guard(self):
        with pytest.raises(TooLarge):
            qba.all_congruences(qba.make_flat(11, 1))

    def test_exhaustive_against_bruteforce(self, fx, congruence_cache):
        # independent oracle: filter every partition, generated recursively
        a = fx["F5"]

        def partitions(n):
            def rec(x, blocks):
                if x == n:
                    yield [list(b) for b in blocks]
                    return
                for b in blocks:
                    b.append(x)
                    yield from rec(x + 1, blocks)
                    b.pop()
                blocks.append([x])
                yield from rec(x + 1, blocks)
                blocks.pop()

            yield from rec(0, [])

        expected = sorted(
            (p for p in (Partition.from_blocks(5, bs) for bs in partitions(5))
             if qba.is_congruence(a, p)),
            key=Partition.sort_key)
        assert congruence_cache(a) == expected


class TestGeneratedCongruence:
    def test_empty_seed(self, fx):
        a = fx["4"]
        assert qba.generated_congruence(a, []) == Partition.singletons(4)

    def test_seed_a_b_on_4(self, fx, congruence_cache):
        a = fx["4"]
        got = qba.generated_congruence(a, [(a.index_of("a"), a.index_of("b"))])
        assert fmt(a, got) == "0,1;a,b"
        for p in congruence_cache(a):
            if p.relates(a.index_of("a"), a.index_of("b")):
                assert got.refines(p)

    def test_seed_c_d_on_f3(self, fx):
        a = fx["F3"]
        got = qba.generated_congruence(a, [(1, 2)])
        assert fmt(a, got) == "0;c,d"

    def test_minimality_everywhere(self, fx, congruence_cache):
        for name in ("4", "F3", "F5"):
            a = fx[name]
            for seed_target in congruence_cache(a):
                seed = [(b[0], x) for b in seed_target.blocks for x in b[1:]]
                got = qba.generated_congruence(a, seed)
                assert got == seed_target  # congruences regenerate themselves


class TestSubalgebras:
    def test_6_contains_copy_of_4(self, fx):
        a = fx["6"]
        names = {tuple(a.names[i] for i in s) for s in qba.subalgebras(a)}
        assert ("0", "a", "b", "1") in names

    def test_4_has_constants_and_full(self, fx):
        a = fx["4"]
        subs = qba.subalgebras(a)
        assert (0, 3) in subs and (0, 1, 2, 3) in subs

    def test_regulars_of_A_form_subalgebra(self, fx):
        a = fx["A"]
        assert tuple(sorted(qba.regular_elements(a))) in qba.subalgebras(a)

    def test_each_subalgebra_validates(self, fx):
        for a in fx.values():
            for s in qba.subalgebras(a):
                assert qba.validate(qba.subalgebra(a, s)).passed

    def test_not_closed_rejected(self, fx):
        with pytest.raises(NotASubalgebra):
            qba.subalgebra(fx["4"], [0, 1, 3])  # a without b = a*
        with pytest.raises(NotASubalgebra):
            qba.subalgebra(fx["4"], [0])  # missing one


class TestExtendFromSubalgebra:
    def test_nabla_on_copy_of_4_in_6(self, fx):
        a = fx["6"]
        subset = [0, 1, 4, 5]  # 0, a, b, 1
        ext = qba.extend_from_subalgebra(a, subset, Partition.whole(4))
        assert fmt(a, ext) == "0,a,b,1;e;f"
        assert ext.restrict(subset) == Partition.whole(4)

    def test_identity_extends_to_identity(self, fx):
        a = fx["6"]
        ext = qba.extend_from_subalgebra(a, [0, 1, 4, 5], Partition.singletons(4))
        assert ext == Partition.singletons(6)

    def test_flat_extension_adds_diagonal(self, fx):
        a = fx["F5"]
        subset = [0, 1, 3]  # 0, g, i
        sub = qba.subalgebra(a, subset)
        theta0 = part(sub, "0;g,i")
        ext = qba.extend_from_subalgebra(a, subset, theta0)
        assert fmt(a, ext) == "0;g,i;h;j"

    def test_bad_congruence_rejected(self, fx):
        a = fx["6"]
        bad = Partition.from_blocks(4, [[0, 1], [2], [3]])  # merges 0 with a
        ext = None
        try:
            ext = qba.extend_from_subalgebra(a, [0, 1, 4, 5], bad)
        except NotACongruence:
            return
        # "0,a;b;1" is not a congruence of the copy of 4, so we must not get here
        raise AssertionError(f"expected rejection, got {ext}")

    def test_no_extension_raises_without_search(self, fx):
        # A mutant of 6 (join[0][a] = f) on which the closure of the pairs
        # of theta0 does not restrict back to theta0, and no congruence
        # does. It fails the axioms, so it is refused before any closure.
        a = fx["6"]
        row = a.join[0][:1] + (3,) + a.join[0][2:]
        m = qba.FiniteAlgebra(a.names, (row,) + a.join[1:], a.meet, a.star,
                              a.zero, a.one)
        subset = [0, 2, 3, 5]  # 0, e, f, 1
        theta0 = Partition.from_blocks(4, [[0, 1], [2, 3]])
        assert generated_congruence_by_closure(
            m, [(0, 2), (3, 5)]).restrict(subset) != theta0
        assert not any(c.restrict(subset) == theta0
                       for c in all_congruences_two_prunes(m))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotAQBAlgebra):
                qba.extend_from_subalgebra(m, subset, theta0)

    def test_cep_on_all_fixtures(self, fx, congruence_cache):
        for a in fx.values():
            for subset in qba.subalgebras(a):
                sub = qba.subalgebra(a, subset)
                for theta0 in congruence_cache(sub):
                    ext = qba.extend_from_subalgebra(a, subset, theta0)
                    assert ext.restrict(subset) == theta0


class TestSplitCongruence:
    def test_split_nabla_on_4(self, fx):
        a = fx["4"]
        t1, t2 = qba.split_congruence(a, Partition.whole(4))
        assert t1 == Partition.whole(2)
        assert t2 == Partition.whole(3)

    def test_split_identity(self, fx):
        a = fx["4"]
        t1, t2 = qba.split_congruence(a, Partition.singletons(4))
        assert t1 == Partition.singletons(2)
        assert t2 == Partition.singletons(3)

    def test_split_chi_on_4(self, fx):
        # the raw tau-projection of chi is not transitive; its closure is total
        a = fx["4"]
        t1, t2 = qba.split_congruence(a, qba.chi(a))
        assert t1 == Partition.singletons(2)
        assert t2 == Partition.whole(3)

    def test_split_all_congruences_of_4_and_6(self, fx, congruence_cache):
        for name in ("4", "6"):
            a = fx[name]
            qchi, pchi = qba.quotient(a, qba.chi(a))
            qtau, ptau = qba.quotient(a, qba.tau(a))
            for theta in congruence_cache(a):
                t1, t2 = qba.split_congruence(a, theta)
                assert qba.is_congruence(qchi, t1)
                assert qba.is_congruence(qtau, t2)
                for x in a.elements():
                    for y in a.elements():
                        assert theta.relates(x, y) == (t1.relates(pchi(x), pchi(y))
                                                       and t2.relates(ptau(x), ptau(y)))

    def test_non_congruence_rejected(self, fx):
        a = fx["4"]
        with pytest.raises(NotACongruence):
            qba.split_congruence(a, part(a, "0,a;b;1"))


class TestPrincipalNonflat:
    def test_4_with_nabla_regular(self, fx):
        a = fx["4"]
        ia = a.index_of("a")
        got = qba.principal_congruence_nonflat(a, Partition.whole(2), ia, ia)
        assert fmt(a, got) == "0,1;a;b"

    def test_6_merging_a_e(self, fx):
        a = fx["6"]
        got = qba.principal_congruence_nonflat(
            a, Partition.singletons(2), a.index_of("a"), a.index_of("e"))
        assert fmt(a, got) == "0;a,e;f,b;1"

    def test_cloud_precondition(self, fx):
        a = fx["6"]
        with pytest.raises(PreconditionViolated):
            qba.principal_congruence_nonflat(
                a, Partition.singletons(2), a.index_of("a"), a.index_of("b"))

    def test_regular_arguments_rejected(self, fx):
        a = fx["4"]
        with pytest.raises(PreconditionViolated):
            qba.principal_congruence_nonflat(a, Partition.whole(2), 0, 1)

    def test_flat_input_rejected(self, fx):
        with pytest.raises(FlatInput):
            qba.principal_congruence_nonflat(fx["F3"], Partition.singletons(1), 1, 2)

    def test_minimality(self, fx, congruence_cache):
        a = fx["6"]
        ia, ie = a.index_of("a"), a.index_of("e")
        got = qba.principal_congruence_nonflat(a, Partition.singletons(2), ia, ie)
        for p in congruence_cache(a):
            if p.relates(ia, ie):
                assert got.refines(p)


class TestPrincipalFlat:
    def test_f3_c_d(self, fx):
        a = fx["F3"]
        got = qba.principal_congruence_flat(a, 1, 2)
        assert fmt(a, got) == "0;c,d"

    def test_f5_four_distinct_elements(self, fx, congruence_cache):
        # the four-case union puts g, h, g*, h* in one block ...
        a = fx["F5"]
        got = qba.principal_congruence_flat(a, 1, 2)
        assert fmt(a, got) == "0;g,h,i,j"
        assert qba.is_congruence(a, got)
        # ... but it is not minimal here: the two-block relation is already
        # a congruence containing (g, h), strictly finer
        gen = qba.generated_congruence(a, [(1, 2)])
        assert fmt(a, gen) == "0;g,h;i,j"
        assert qba.is_congruence(a, gen)
        assert gen.refines(got) and gen != got
        assert gen in congruence_cache(a) and got in congruence_cache(a)

    def test_fixed_point_cases_are_minimal(self):
        a = qba.make_flat(5, 3)  # star fixes 0, x1, x2; swaps x3, x4
        both_fixed = qba.principal_congruence_flat(a, 1, 2)
        assert both_fixed.blocks == ((0,), (1, 2), (3,), (4,))
        assert both_fixed == qba.generated_congruence(a, [(1, 2)])
        one_fixed = qba.principal_congruence_flat(a, 1, 3)
        assert one_fixed.blocks == ((0,), (1, 3, 4), (2,))
        assert one_fixed == qba.generated_congruence(a, [(1, 3)])
        other_fixed = qba.principal_congruence_flat(a, 3, 1)
        assert other_fixed == one_fixed

    def test_preconditions(self, fx):
        with pytest.raises(PreconditionViolated):
            qba.principal_congruence_flat(fx["F5"], 1, 1)
        with pytest.raises(PreconditionViolated):
            qba.principal_congruence_flat(fx["F5"], 0, 1)
        with pytest.raises(NotFlat):
            qba.principal_congruence_flat(fx["4"], 1, 2)


class TestComposeFlat:
    def test_f3(self, fx):
        a = fx["F3"]
        theta_ir = Partition.whole(2)  # c, d in one block
        assert fmt(a, qba.compose_flat(a, theta_ir)) == "0;c,d"

    def test_identity(self, fx):
        a = fx["F5"]
        assert qba.compose_flat(a, Partition.singletons(4)) == \
            Partition.singletons(5)

    def test_paired_blocks(self, fx):
        a = fx["F5"]
        theta_ir = Partition.from_blocks(4, [[0, 1], [2, 3]])  # g,h ; i,j
        assert fmt(a, qba.compose_flat(a, theta_ir)) == "0;g,h;i,j"

    def test_star_closure_required(self, fx):
        a = fx["F5"]
        bad = Partition.from_blocks(4, [[0, 3], [1], [2]])  # {g,j}* = {i,h}
        with pytest.raises(NotStarClosed):
            qba.compose_flat(a, bad)

    def test_nonflat_rejected(self, fx):
        with pytest.raises(NotFlat):
            qba.compose_flat(fx["4"], Partition.singletons(2))


class TestComposeNonflat:
    def test_reassemble_chi_of_6(self, fx):
        a = fx["6"]
        d = CongruenceDecomposition(
            theta_r=Partition.singletons(2),
            theta_ir=Partition.from_blocks(4, [[0, 1], [2, 3]]),  # a,e ; f,b
            linked=frozenset((0, 1)),
            f=((0, 0), (1, 1)),
            cross=frozenset({(0, 1), (1, 0), (0, 2), (2, 0),
                             (5, 3), (3, 5), (5, 4), (4, 5)}),
        )
        assert qba.compose_nonflat(a, d) == qba.chi(a)

    def test_reassemble_tau_of_4(self, fx):
        a = fx["4"]
        d = CongruenceDecomposition(
            theta_r=Partition.whole(2),
            theta_ir=Partition.singletons(2),
            linked=frozenset(),
            f=(),
            cross=frozenset(),
        )
        assert fmt(a, qba.compose_nonflat(a, d)) == "0,1;a;b"

    def test_c2_star_preservation_fails(self, fx):
        a = fx["4"]
        d = CongruenceDecomposition(
            theta_r=Partition.whole(2),
            theta_ir=Partition.singletons(2),
            linked=frozenset((0,)),
            f=((0, 0),),  # block {0,1} -> {a}, but {0,1}* = {0,1}, {a}* = {b}
            cross=frozenset({(0, 1), (1, 0), (3, 1), (1, 3)}),
        )
        with pytest.raises(ConditionC2Violated):
            qba.compose_nonflat(a, d)

    @pytest.mark.parametrize("linked, f, message", [
        ((5,), ((5, 0),), "linked set names a nonexistent block"),
        ((0, 1), ((0, 0),), "f must be defined exactly on the linked set"),
        ((0, 1), ((0, 0), (1, 0)), "f is not injective"),
        ((0,), ((0, 0),), "linked set is not star-closed"),
        ((0, 1), ((0, 1), (1, 0)), "image block misses the clouds of its class"),
        (("x",), (("x", 0),), "linked set names a nonexistent block"),
        ((0, 1), ((0, 99), (1, 1)), "f names a nonexistent block"),
        ((0, 1), ((0, -1), (1, 1)), "f names a nonexistent block"),
        ((0, 1), ((0, 1.0), (1, 0)), "f names a nonexistent block"),
    ])
    def test_c2_block_map_fails(self, fx, linked, f, message):
        # On 6 the classes {0} and {1} own the clouds of a,e and of f,b.
        a = fx["6"]
        theta_r = Partition.singletons(2)
        theta_ir = Partition.from_blocks(4, [[0, 1], [2, 3]])  # a,e ; f,b
        d = CongruenceDecomposition(
            theta_r=theta_r, theta_ir=theta_ir, linked=frozenset(linked), f=f,
            cross=frozenset())
        with pytest.raises(ConditionC2Violated, match=f"^\\(C2\\) {message}$"):
            qba.compose_nonflat(a, d)

    def test_c1_cloud_confinement_fails(self, fx):
        a = fx["6"]
        d = CongruenceDecomposition(
            theta_r=Partition.singletons(2),
            theta_ir=Partition.from_blocks(4, [[0, 2], [1, 3]]),  # a,f ; e,b
            linked=frozenset(),
            f=(),
            cross=frozenset(),
        )
        with pytest.raises(ConditionC1Violated):
            qba.compose_nonflat(a, d)

    def test_c1_star_closure_fails(self, fx):
        a = fx["6"]
        d = CongruenceDecomposition(
            theta_r=Partition.singletons(2),
            theta_ir=Partition.from_blocks(4, [[0, 1], [2], [3]]),  # {a,e}*={b,f}
            linked=frozenset(),
            f=(),
            cross=frozenset(),
        )
        with pytest.raises(ConditionC1Violated):
            qba.compose_nonflat(a, d)

    def test_c3_cross_mismatch(self, fx):
        a = fx["6"]
        d = CongruenceDecomposition(
            theta_r=Partition.singletons(2),
            theta_ir=Partition.from_blocks(4, [[0, 1], [2, 3]]),
            linked=frozenset((0, 1)),
            f=((0, 0), (1, 1)),
            cross=frozenset({(0, 1), (1, 0)}),  # missing most pairs
        )
        with pytest.raises(ConditionC3Violated):
            qba.compose_nonflat(a, d)

    def test_theta_r_must_be_congruence(self, fx):
        a = fx["A"]  # regular part is the four-element Boolean algebra
        bad = Partition.from_blocks(4, [[0, 1], [2], [3]])  # 0~a breaks star
        d = CongruenceDecomposition(
            theta_r=bad, theta_ir=Partition.singletons(2),
            linked=frozenset(), f=(), cross=frozenset())
        with pytest.raises(NotACongruence):
            qba.compose_nonflat(a, d)

    def test_flat_rejected(self, fx):
        d = CongruenceDecomposition(
            theta_r=Partition.singletons(1), theta_ir=Partition.singletons(2),
            linked=frozenset(), f=(), cross=frozenset())
        with pytest.raises(FlatInput):
            qba.compose_nonflat(fx["F3"], d)


class TestCrossPairs:
    def test_display_of_a_link(self, fx):
        a = fx["6"]
        d = qba.decompose(a, qba.chi(a))
        pairs = qba.congruences.cross_pairs(a, d.theta_r, d.theta_ir, [(0, 0)])
        assert pairs == {(0, 1), (1, 0), (0, 2), (2, 0)}

    @pytest.mark.parametrize("links", [[(-1, -1)], [(9, 0)], [(0, 2)],
                                       [(0, 1.0)]])
    def test_link_outside_the_blocks_is_refused(self, fx, links):
        # -1 would wrap to the last block, 9 and 2 are past the last one
        # and 1.0 is no index.
        a = fx["6"]
        d = qba.decompose(a, qba.chi(a))
        with pytest.raises(ValueError,
                           match="^a link names a nonexistent block$"):
            qba.congruences.cross_pairs(a, d.theta_r, d.theta_ir, links)


class TestDecompose:
    def test_tau_of_4(self, fx):
        a = fx["4"]
        d = qba.decompose(a, part(a, "0,1;a;b"))
        assert d.theta_r == Partition.whole(2)
        assert d.theta_ir == Partition.singletons(2)
        assert d.linked == frozenset()
        assert d.f == ()
        assert d.cross == frozenset()

    def test_chi_of_6(self, fx):
        a = fx["6"]
        d = qba.decompose(a, qba.chi(a))
        assert d.theta_r == Partition.singletons(2)
        assert d.theta_ir == Partition.from_blocks(4, [[0, 1], [2, 3]])
        assert d.linked == frozenset((0, 1))
        assert dict(d.f) == {0: 0, 1: 1}
        assert d.cross == frozenset({(0, 1), (1, 0), (0, 2), (2, 0),
                                     (5, 3), (3, 5), (5, 4), (4, 5)})

    def test_identity(self, fx):
        a = fx["4"]
        d = qba.decompose(a, Partition.singletons(4))
        assert d.theta_r == Partition.singletons(2)
        assert d.theta_ir == Partition.singletons(2)
        assert d.linked == frozenset() and d.cross == frozenset()

    def test_roundtrip_on_every_congruence(self, fx, congruence_cache):
        for name, a in fx.items():
            if qba.is_flat(a):
                continue
            for theta in congruence_cache(a):
                d = qba.decompose(a, theta)
                assert qba.compose_nonflat(a, d) == theta

    def test_restrictions_are_well_behaved(self, fx, congruence_cache):
        # the regular restriction is a congruence, the irregular one star-closed
        for a in fx.values():
            regs = sorted(qba.regular_elements(a))
            irs = [x for x in a.elements() if x not in set(regs)]
            sub = qba.subalgebra(a, regs)
            for theta in congruence_cache(a):
                assert qba.is_congruence(sub, theta.restrict(regs))
                if irs:
                    tir = theta.restrict(irs)
                    local = {g: i for i, g in enumerate(irs)}
                    blocks = set(tir.blocks)
                    for block in tir.blocks:
                        image = tuple(sorted(local[a.star[irs[i]]]
                                             for i in block))
                        assert image in blocks

    def test_flat_rejected(self, fx):
        with pytest.raises(FlatInput):
            qba.decompose(fx["F3"], Partition.singletons(3))

    def test_non_congruence_rejected(self, fx):
        a = fx["4"]
        with pytest.raises(NotACongruence):
            qba.decompose(a, part(a, "0,a;b;1"))



def mutant_of_6():
    """6 with a v 1 set to 0: it fails five axioms."""
    a = qba.fixture("6")
    ia, i1 = a.index_of("a"), a.index_of("1")
    row = a.join[ia][:i1] + (0,) + a.join[ia][i1 + 1:]
    return qba.FiniteAlgebra(a.names, a.join[:ia] + (row,) + a.join[ia + 1:],
                             a.meet, a.star, a.zero, a.one, label="6-mutant")


def test_mutant_of_6_fails_five_axioms():
    assert len(qba.validate(mutant_of_6()).violations) == 5


GATED = {
    "all_congruences": qba.all_congruences,
    "generated_congruence": lambda m: qba.generated_congruence(m, []),
    "split_congruence": lambda m: qba.split_congruence(m, Partition.singletons(6)),
    "decompose": lambda m: qba.decompose(m, Partition.singletons(6)),
    "compose_nonflat": lambda m: qba.compose_nonflat(m, CongruenceDecomposition(
        theta_r=Partition.singletons(2), theta_ir=Partition.singletons(4),
        linked=frozenset(), f=(), cross=frozenset())),
    "compose_flat": lambda m: qba.compose_flat(m, Partition.singletons(4)),
    "principal_congruence_nonflat": lambda m: qba.principal_congruence_nonflat(
        m, Partition.singletons(2), m.index_of("a"), m.index_of("e")),
    "principal_congruence_flat": lambda m: qba.principal_congruence_flat(m, 1, 2),
    "extend_from_subalgebra": lambda m: qba.extend_from_subalgebra(
        m, [0, 1, 4, 5], Partition.singletons(4)),
    "embed_into_product": qba.embed_into_product,
    "quotient": lambda m: qba.quotient(m, Partition.singletons(6)),
}


@pytest.mark.parametrize("name", sorted(GATED))
def test_gated_functions_refuse_the_mutant(name):
    # The gate comes first, before the flat/non-flat and argument checks.
    m = mutant_of_6()
    with pytest.raises(NotAQBAlgebra) as info:
        GATED[name](m)
    assert info.value.algebra is m
    assert info.value.report == qba.validate(m)
    assert str(info.value) == "not a QB-algebra: 5 axiom violation(s)"


NOT_AN_INDEX = {
    "seed-minus-one": lambda: qba.generated_congruence(qba.fixture("4"), [(-1, 0)]),
    "seed-past-n": lambda: qba.generated_congruence(qba.fixture("4"), [(0, 7)]),
    "seed-float": lambda: qba.generated_congruence(qba.fixture("4"), [(0, 1.0)]),
    "pair-minus-one": lambda: Partition.from_pairs(4, [(-1, 0)]),
    "subalgebra-past-n": lambda: qba.subalgebra(qba.fixture("6"), [0, 5, 9]),
    "subalgebra-float": lambda: qba.subalgebra(qba.fixture("6"), [0, 1.0, 5]),
    "subalgebra-minus-one": lambda: qba.subalgebra(qba.fixture("6"), [0, 5, -1]),
    "extend-string": lambda: qba.extend_from_subalgebra(
        qba.fixture("6"), [0, "x", 5], Partition.singletons(3)),
    "principal-flat-past-n": lambda: qba.principal_congruence_flat(qba.fixture("F5"), 1, 7),
    "principal-nonflat-minus-one": lambda: qba.principal_congruence_nonflat(
        qba.fixture("6"), Partition.singletons(2), -1, 2),
    "witness-minus-one": lambda: qba.axiom_holds_at(qba.fixture("4"), "QL5", (-1,)),
}


@pytest.mark.parametrize("case", sorted(NOT_AN_INDEX))
def test_index_outside_the_carrier_is_refused(case):
    # -1 would read the last element, and a float or n would fail as a
    # bare TypeError or IndexError.
    with pytest.raises(ValueError, match="takes elements of the carrier"):
        NOT_AN_INDEX[case]()


def test_gate_validates_once_per_object(monkeypatch):
    calls = []
    monkeypatch.setattr(qba.algebra, "validate",
                        lambda a: calls.append(a) or qba.ValidationReport(True, ()))
    a = qba.FiniteAlgebra(*(getattr(qba.fixture("6"), f)
                            for f in ("names", "join", "meet", "star", "zero", "one")))
    for _ in range(3):
        qba.split_congruence(a, Partition.singletons(6))
        qba.embed_into_product(a)
    assert calls == [a]
    qba.require_valid(a.relabel("copy"))
    assert len(calls) == 2
