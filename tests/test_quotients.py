"""Canonical quotients, products, homomorphisms and isomorphisms."""
from collections import Counter
from functools import cache
from itertools import permutations

import pytest

import qba
from qba.errors import (FlatInput, InvalidShape, InvariantViolation,
                        NotACongruence, PreconditionViolated, TooLarge)
from qba.quotients import ElementMap, atom_relabelings, boolean_algebra
from test_check_oracles import relabeled


@cache
def nine_atom_pair():
    """B128 x qba6_4 and B128 x qba6_5: 768 elements and 9 atoms each."""
    classes = {a.label: a for a in qba.enumerate_all(6).iso_classes}
    b128 = boolean_algebra(7)
    return tuple(qba.direct_product(b128, classes[label])
                 for label in ("qba6_4", "qba6_5"))


def blocks_by_name(a, p):
    return [tuple(a.names[x] for x in block) for block in p.blocks]


class TestCanonicalCongruences:
    def test_chi_blocks(self, fx):
        assert blocks_by_name(fx["4"], qba.chi(fx["4"])) == [("0", "a"), ("b", "1")]
        assert blocks_by_name(fx["6"], qba.chi(fx["6"])) == [
            ("0", "a", "e"), ("f", "b", "1")]
        assert qba.chi(fx["F5"]) == qba.Partition.whole(5)

    def test_tau_blocks(self, fx):
        assert blocks_by_name(fx["4"], qba.tau(fx["4"])) == [("0", "1"), ("a",), ("b",)]
        assert blocks_by_name(fx["A"], qba.tau(fx["A"])) == [
            ("0", "a", "f", "1"), ("e",), ("b",)]
        assert qba.tau(fx["F3"]) == qba.Partition.singletons(3)

    def test_chi_and_tau_are_congruences(self, fx):
        for a in fx.values():
            assert qba.is_congruence(a, qba.chi(a))
            assert qba.is_congruence(a, qba.tau(a))


class TestQuotient:
    def test_quotient_by_chi_is_boolean(self, fx):
        for a in fx.values():
            q, _ = qba.quotient(a, qba.chi(a))
            assert qba.validate(q).passed
            assert qba.regular_elements(q) == frozenset(q.elements())

    def test_quotient_by_tau_is_flat(self, fx):
        for a in fx.values():
            q, _ = qba.quotient(a, qba.tau(a))
            assert qba.validate(q).passed
            assert qba.is_flat(q)

    def test_4_mod_chi_is_two(self, fx):
        q, _ = qba.quotient(fx["4"], qba.chi(fx["4"]))
        assert qba.find_isomorphism(q, fx["2"]) is not None

    def test_4_mod_tau_is_f3(self, fx):
        q, _ = qba.quotient(fx["4"], qba.tau(fx["4"]))
        assert qba.find_isomorphism(q, fx["F3"]) is not None

    def test_quotient_by_identity_is_isomorphic(self, fx):
        a = fx["A"]
        q, proj = qba.quotient(a, qba.Partition.singletons(a.size))
        assert qba.find_isomorphism(q, a) is not None
        assert proj.is_bijective

    def test_non_congruence_rejected(self, fx):
        a = fx["4"]
        with pytest.raises(NotACongruence):
            qba.quotient(a, qba.parse_partition(a, "0,a;b;1"))

    def test_projection_is_homomorphism(self, fx):
        for a in fx.values():
            for rel in (qba.chi(a), qba.tau(a)):
                q, proj = qba.quotient(a, rel)
                assert qba.is_homomorphism(a, q, proj)

    def test_quotient_serializes_roundtrip(self, fx):
        q, _ = qba.quotient(fx["6"], qba.chi(fx["6"]))
        assert qba.load_algebra(qba.dump_algebra(q)) == q


class TestDirectProduct:
    def test_product_validates(self, fx):
        p = qba.direct_product(fx["2"], fx["F3"])
        assert p.size == 6
        assert qba.validate(p).passed

    def test_product_roundtrip(self, fx):
        p = qba.direct_product(fx["2"], fx["F5"])
        assert p.size == 10
        assert qba.load_algebra(qba.dump_algebra(p)) == p

    def test_product_with_trivial_is_identity(self, fx):
        trivial = qba.make_flat(1, 1)
        p = qba.direct_product(fx["A"], trivial)
        assert qba.find_isomorphism(p, fx["A"]) is not None

    def test_4_embeds_into_2xF3_bruteforce(self, fx):
        # independent oracle: scan all injections of the 4 elements
        a, p = fx["4"], qba.direct_product(fx["2"], fx["F3"])
        found = any(
            qba.is_homomorphism(a, p, ElementMap(4, 6, image))
            for image in permutations(range(6), 4))
        assert found

    def test_6_is_the_product_2xF3(self, fx):
        p = qba.direct_product(fx["2"], fx["F3"])
        assert qba.find_isomorphism(p, fx["6"]) is not None


class TestEmbedding:
    def test_all_fixtures_embed(self, fx):
        for a in fx.values():
            emb = qba.embed_into_product(a)
            assert emb.is_injective

    def test_flat_embedding_uses_tau_component(self, fx):
        emb = qba.embed_into_product(fx["F3"])
        assert emb.is_injective

    def test_embedding_images(self, fx):
        a = fx["6"]
        emb = qba.embed_into_product(a)
        qchi, _ = qba.quotient(a, qba.chi(a))
        qtau, _ = qba.quotient(a, qba.tau(a))
        assert qba.find_isomorphism(qchi, fx["2"]) is not None
        assert qba.find_isomorphism(qtau, fx["F5"]) is not None
        assert emb.target_size == 10

    def test_flat_chi_quotient_is_trivial(self, fx):
        q, _ = qba.quotient(fx["F3"], qba.chi(fx["F3"]))
        assert q.size == 1


class TestIsHomomorphism:
    def test_identity(self, fx):
        a = fx["4"]
        assert qba.is_homomorphism(a, a, ElementMap(4, 4, (0, 1, 2, 3)))

    def test_constant_zero_on_4_breaks_star(self, fx):
        a = fx["4"]
        f = ElementMap(4, 4, (0, 0, 0, 0))
        assert not qba.is_homomorphism(a, a, f)

    def test_constant_zero_on_flat_is_homomorphism(self, fx):
        f3 = fx["F3"]
        f = ElementMap(3, 3, (0, 0, 0))
        assert qba.is_homomorphism(f3, f3, f)

    def test_size_mismatch_rejected(self, fx):
        with pytest.raises(ValueError):
            qba.is_homomorphism(fx["4"], fx["4"], ElementMap(3, 4, (0, 1, 2)))

    def test_mapping_kept_as_a_tuple(self, fx):
        listed = ElementMap(2, 2, [0, 1])
        assert listed == ElementMap(2, 2, (0, 1))
        assert hash(listed) == hash(ElementMap(2, 2, (0, 1)))
        assert type(listed.mapping) is tuple
        mapping = (0, 1, 2, 3)
        assert ElementMap(4, 4, mapping).mapping is mapping
        assert qba.is_homomorphism(fx["4"], fx["4"], ElementMap(4, 4, range(4)))

    def test_one_not_preserved_is_typed_error(self, fx):
        two = fx["2"]
        # Claims 1 = 0 although 0* is the other element: the identity
        # preserves join, meet, star and 0 into 2, but not 1.
        broken = qba.FiniteAlgebra(two.names, two.join, two.meet, two.star,
                                   zero=0, one=0)
        with pytest.raises(PreconditionViolated):
            qba.is_homomorphism(broken, two, ElementMap(2, 2, (0, 1)))


class TestFindIsomorphism:
    def test_4_isomorphic_to_4bar(self, fx):
        f = qba.find_isomorphism(fx["4"], fx["4bar"])
        assert f is not None
        assert f.is_bijective
        assert qba.is_homomorphism(fx["4"], fx["4bar"], f)

    def test_4_not_isomorphic_to_boolean4(self, fx):
        b4 = boolean_algebra(2)
        assert qba.find_isomorphism(fx["4"], b4) is None
        # independent oracle: all 24 bijections fail
        assert not any(
            qba.is_homomorphism(fx["4"], b4, ElementMap(4, 4, img))
            for img in permutations(range(4)))

    def test_self_isomorphism(self, fx):
        f = qba.find_isomorphism(fx["F3"], fx["F3"])
        assert f is not None and f.is_bijective

    def test_size_mismatch(self, fx):
        assert qba.find_isomorphism(fx["4"], fx["6"]) is None

    def test_relabeled_cube_of_4(self, fx):
        # 64 elements: the backtracking search this construction replaced
        # ran for more than a minute on this pair.
        four = fx["4"]
        cube = qba.direct_product(qba.direct_product(four, four), four)
        twin = relabeled(cube, 0)
        f = qba.find_isomorphism(cube, twin)
        assert f is not None and f.is_bijective
        assert qba.is_homomorphism(cube, twin, f)

    def test_atom_permutations_are_guarded_past_eight_atoms(self):
        # 9! permutations of the atoms of B512; the guard is met at the
        # first next(), before any permutation is listed.
        relabelings = atom_relabelings([0] * 512, 9)
        with pytest.raises(TooLarge, match="9 atoms exceed the guard of 8"):
            next(relabelings)
        b512 = boolean_algebra(9)
        with pytest.raises(TooLarge):
            qba.find_isomorphism(b512, b512)
        assert len(next(atom_relabelings([0, 1, 2], 8))[1]) == 256

    def test_different_clouds_past_eight_atoms_are_not_isomorphic(self):
        # The two 6-element classes with two atoms have the same sorted
        # cloud sizes, {1, 1, 2, 2}, and so do their products with B128
        # (9 atoms), but not the same pairs (atoms in the mask, cloud
        # size): no permutation of the atoms can match them, so the answer
        # comes before the guard on 9! permutations.
        a, b = nine_atom_pair()
        sizes = [sorted(Counter(x.structure[1]).values()) for x in (a, b)]
        assert len(a.structure[0]) == 9 and sizes[0] == sizes[1]
        assert qba.find_isomorphism(a, b) is None
        with pytest.raises(TooLarge):
            qba.find_isomorphism(a, a)

    def test_non_bijective_result_is_typed_error(self, fx, monkeypatch):
        monkeypatch.setattr(ElementMap, "is_bijective", property(lambda self: False))
        with pytest.raises(InvariantViolation):
            qba.find_isomorphism(fx["4"], fx["4bar"])


class TestIrreducibility:
    def test_examples(self, fx):
        assert qba.is_irreducible(fx["4"])
        assert not qba.is_irreducible(fx["A"])
        with pytest.raises(FlatInput):
            qba.is_irreducible(fx["F3"])


class TestConstructors:
    def test_make_flat_matches_fixtures(self, fx):
        assert qba.find_isomorphism(qba.make_flat(3, 1), fx["F3"]) is not None
        assert qba.find_isomorphism(qba.make_flat(5, 1), fx["F5"]) is not None

    def test_make_flat_parity_guard(self):
        with pytest.raises(InvalidShape):
            qba.make_flat(4, 1)
        with pytest.raises(InvalidShape):
            qba.make_flat(3, 0)
        with pytest.raises(InvalidShape):
            qba.make_flat(2, 4)

    def test_make_flat_layout(self):
        a = qba.make_flat(7, 3)
        assert a.star == (0, 1, 2, 4, 3, 6, 5)
        assert qba.validate(a).passed

    @pytest.mark.parametrize("atoms", range(5))
    def test_boolean_algebra_validates(self, atoms):
        b = boolean_algebra(atoms)
        assert b.size == 1 << atoms and qba.validate(b).passed

    def test_make_irreducible_1_is_fixture_6(self, fx):
        assert qba.find_isomorphism(qba.make_irreducible(1), fx["6"]) is not None

    def test_make_irreducible_0_is_two(self, fx):
        a = qba.make_irreducible(0)
        assert a.size == 2
        assert qba.find_isomorphism(a, fx["2"]) is not None

    def test_make_irreducible_2(self):
        a = qba.make_irreducible(2)
        assert a.size == 10
        assert qba.validate(a).passed
        assert len(qba.regular_elements(a)) == 2
        assert qba.is_irreducible(a)

    def test_parity_counts(self, fx):
        for a in fx.values():
            if qba.is_flat(a):
                fixed = sum(1 for x in a.elements() if a.star[x] == x)
                assert (a.size - fixed) % 2 == 0
            else:
                assert a.size % 2 == 0
                assert len(qba.regular_elements(a)) % 2 == 0


class TestSubalgebraRestriction:
    def test_chi_tau_restrict_to_subalgebras(self, fx):
        for a in fx.values():
            for subset in qba.subalgebras(a):
                sub = qba.subalgebra(a, subset)
                assert qba.chi(sub) == qba.chi(a).restrict(subset)
                assert qba.tau(sub) == qba.tau(a).restrict(subset)

    def test_quotient_of_subalgebra_embeds(self, fx):
        # the block-inclusion map Q0/chi -> Q/chi is an injective homomorphism
        for a in fx.values():
            for subset in qba.subalgebras(a):
                sub = qba.subalgebra(a, subset)
                for rel in (qba.chi, qba.tau):
                    qs, _ = qba.quotient(sub, rel(sub))
                    q, proj = qba.quotient(a, rel(a))
                    mapping = []
                    for block in rel(sub).blocks:
                        targets = {proj(subset[i]) for i in block}
                        assert len(targets) == 1
                        mapping.append(targets.pop())
                    f = ElementMap(qs.size, q.size, tuple(mapping))
                    assert f.is_injective
                    assert qba.is_homomorphism(qs, q, f)


class TestElementMap:
    def test_validation(self):
        with pytest.raises(ValueError):
            ElementMap(2, 2, (0,))
        with pytest.raises(ValueError):
            ElementMap(1, 1, (4,))

    def test_predicates(self):
        f = ElementMap(2, 3, (0, 2))
        assert f.is_injective and not f.is_surjective and not f.is_bijective
        assert f(1) == 2
