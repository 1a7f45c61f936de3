"""Exhaustive generation of small algebras and the structure claims."""
import copy
import pickle
import sys
from dataclasses import FrozenInstanceError, replace
from itertools import groupby
from pathlib import Path

import pytest

import qba
from qba.enumeration import (MAX_LABELED, MAX_SIZE, dedupe_up_to_iso,
                             enumerate_all, enumerate_flat, involution_count,
                             iso_class_key, labeled_count, verify_structure)
from qba.errors import InvariantViolation, PreconditionViolated, TooLarge
from qba.quotients import boolean_algebra, make_flat


def claims(a):
    return dict(verify_structure(a))


class TestInvolutionCount:
    def test_small_values(self):
        assert [involution_count(m) for m in range(8)] == \
            [1, 1, 2, 4, 10, 26, 76, 232]


class TestLabeledCount:
    def test_every_report_reads_it(self):
        for n in range(1, 7):
            for iso in (False, True):
                assert enumerate_all(n, iso).total_labeled == labeled_count(n)
                assert (enumerate_flat(n, iso).total_labeled
                        == labeled_count(n, flat_only=True))

    def test_flat_part_is_the_involutions_and_odd_sizes_are_flat(self):
        for n in range(1, 17):
            assert labeled_count(n, True) == involution_count(n - 1)
            if n % 2:
                assert labeled_count(n) == labeled_count(n, True)

    @pytest.mark.parametrize("n", [0, -1, 2.0, True])
    def test_size_must_be_a_positive_int(self, n):
        with pytest.raises(ValueError, match="^size must be a positive integer$"):
            labeled_count(n)


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_count_table():
    # The rows n, classes, flat and labeled of the one table in the
    # README whose first column holds them.
    rows = {}
    for line in README.read_text("utf-8").splitlines():
        cells = [c.strip() for c in line.strip("| ").split("|")]
        if line.startswith("|") and cells[0] in ("n", "classes", "flat", "labeled"):
            assert cells[0] not in rows
            rows[cells[0]] = [int(c.replace(",", "")) for c in cells[1:]]
    assert rows["n"] == list(range(1, 17))
    reports = [enumerate_all(n, True) for n in rows["n"]]
    assert rows["classes"] == [len(r.iso_classes) for r in reports]
    assert rows["flat"] == [sum(map(qba.is_flat, r.iso_classes)) for r in reports]
    assert rows["labeled"] == [r.total_labeled for r in reports]
    assert rows["labeled"] == [labeled_count(n) for n in rows["n"]]


class TestEnumerateFlat:
    def test_three_elements_two_classes(self, fx):
        report = enumerate_flat(3, up_to_iso=True)
        assert len(report.iso_classes) == 2
        fixed = sorted(sum(1 for x in a.elements() if a.star[x] == x)
                       for a in report.iso_classes)
        assert fixed == [1, 3]
        assert any(qba.find_isomorphism(a, fx["F3"]) is not None
                   for a in report.iso_classes)

    def test_five_elements_three_classes(self):
        assert len(enumerate_flat(5, up_to_iso=True).iso_classes) == 3

    def test_two_elements_only_identity_star(self):
        report = enumerate_flat(2, up_to_iso=True)
        assert len(report.iso_classes) == 1
        (a,) = report.iso_classes
        assert a.star == (0, 1)

    def test_labeled_count_matches_involutions(self):
        for n in range(1, 7):
            report = enumerate_flat(n, up_to_iso=False)
            assert report.total_labeled == involution_count(n - 1)
            assert len(report.iso_classes) == report.total_labeled

    def test_labeled_algebras_validate_and_fix_zero(self):
        for n in range(1, 6):
            for a in enumerate_flat(n, up_to_iso=False).iso_classes:
                assert a.star[0] == 0
                assert qba.validate(a).passed

    def test_star_moving_zero_is_invalid(self):
        # all-zero tables with a star that moves 0 violate the axioms,
        # so restricting the search to involutions fixing 0 loses nothing
        zeros = ((0,) * 3,) * 3
        a = qba.FiniteAlgebra(("0", "x1", "x2"), zeros, zeros, (1, 0, 2), 0, 0)
        assert not qba.validate(a).passed

    def test_no_violations(self):
        for n in range(1, 9):
            assert enumerate_flat(n, up_to_iso=False).violations == ()

    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    def test_classes_are_make_flat_from_one_construction(self, n, monkeypatch):
        built = []
        real = qba.FiniteAlgebra.__post_init__
        monkeypatch.setattr(qba.FiniteAlgebra, "__post_init__",
                            lambda a: built.append(a) or real(a))
        # The one constructed algebra is the first class, the one with the
        # fewest star fixed points; the others are star-only copies of it.
        classes = enumerate_flat(n).iso_classes
        assert len(built) == 1 and built[0] is classes[0]
        fixed = range(2 - n % 2, n + 1, 2)
        want = [make_flat(n, k) for k in fixed]
        assert [(a.label, a) for a in classes] == [(a.label, a) for a in want]

    @pytest.mark.parametrize("n", [1, 2, 7, 10])
    def test_labeled_are_star_only_copies_of_make_flat(self, n, monkeypatch):
        # The one constructed algebra is the first output: make_flat(n, n),
        # whose identity star is valid for every n, unlabeled; the rest of
        # the output is copies of it.
        built = []
        real = qba.FiniteAlgebra.__post_init__
        monkeypatch.setattr(qba.FiniteAlgebra, "__post_init__",
                            lambda a: built.append(a) or real(a))
        labeled = enumerate_flat(n, up_to_iso=False).iso_classes
        assert len(built) == 1 and built[0] is labeled[0]
        assert built[0] == make_flat(n, n) and built[0].star == tuple(range(n))
        assert len(labeled) == involution_count(n - 1)
        assert {a.label for a in labeled} == {""}
        assert all(a.join is built[0].join for a in labeled)

    def test_guards(self):
        with pytest.raises(TooLarge):
            enumerate_flat(17)
        with pytest.raises(ValueError):
            enumerate_flat(0)

    def test_labeled_guard_by_output_size(self):
        # Labeled output is refused before any work once it would exceed
        # MAX_LABELED algebras: from size 15 (2,390,480 involutions of 14
        # points) on, while 14 (568,504) is admitted. Up to isomorphism
        # the whole range up to MAX_SIZE stays open.
        assert involution_count(13) <= MAX_LABELED < involution_count(14)
        for n in (15, 16):
            with pytest.raises(TooLarge, match=(
                    f"^labeled flat enumeration of size {n} would build "
                    f"{involution_count(n - 1)} algebras; "
                    f"it is guarded at {MAX_LABELED}$")):
                enumerate_flat(n, up_to_iso=False)
        for n in (15, 16):
            assert enumerate_flat(n).total_labeled == involution_count(n - 1)


class TestEnumerateAll:
    def test_two_elements(self, fx):
        report = enumerate_all(2, up_to_iso=True)
        assert len(report.iso_classes) == 2
        kinds = sorted(qba.is_flat(a) for a in report.iso_classes)
        assert kinds == [False, True]
        assert any(qba.find_isomorphism(a, fx["2"]) for a in report.iso_classes
                   if not qba.is_flat(a))

    def test_three_elements_all_flat(self):
        report = enumerate_all(3, up_to_iso=True)
        assert len(report.iso_classes) == 2
        assert all(qba.is_flat(a) for a in report.iso_classes)

    def test_odd_sizes_have_no_nonflat(self):
        for n in (1, 3, 5):
            report = enumerate_all(n, up_to_iso=False)
            assert all(qba.is_flat(a) for a in report.iso_classes)

    def test_four_elements_nonflat_classes(self, fx):
        report = enumerate_all(4, up_to_iso=True)
        nonflat = [a for a in report.iso_classes if not qba.is_flat(a)]
        assert len(nonflat) == 2
        assert any(qba.find_isomorphism(a, fx["4"]) is not None for a in nonflat)
        assert any(qba.find_isomorphism(a, boolean_algebra(2)) is not None
                   for a in nonflat)

    def test_six_elements_contains_fixtures(self, fx):
        report = enumerate_all(6, up_to_iso=True)
        found_6 = any(qba.find_isomorphism(a, fx["6"]) is not None
                      for a in report.iso_classes)
        found_A = any(qba.find_isomorphism(a, fx["A"]) is not None
                      for a in report.iso_classes)
        assert found_6 and found_A

    def test_every_emit_validates(self):
        # enumerate_all runs no axiom check; this one covers the labeled
        # sizes up to 9 (7,958 algebras). Sizes 10, 11 and 13, which the
        # guard admits too, take seconds to minutes.
        for n in range(1, 10):
            for a in enumerate_all(n, up_to_iso=False).iso_classes:
                assert qba.validate(a).passed

    def test_representatives_pairwise_non_isomorphic(self):
        for n in range(1, 6):
            reps = enumerate_all(n, up_to_iso=True).iso_classes
            for i, a in enumerate(reps):
                for b in reps[i + 1:]:
                    assert qba.find_isomorphism(a, b) is None

    def test_dedupe_helper(self, fx):
        reps = dedupe_up_to_iso([fx["4"], fx["4bar"], fx["2"]])
        assert len(reps) == 2

    def test_signature_is_isomorphism_invariant(self, fx):
        assert iso_class_key(fx["4"]) == iso_class_key(fx["4bar"])
        assert iso_class_key(fx["4"]) != iso_class_key(boolean_algebra(2))

    def test_guard(self):
        # Labeled output is refused once it would exceed MAX_LABELED
        # algebras (sizes 12, 14, 15 and 16); every size stops at MAX_SIZE.
        for n in (12, 15):
            with pytest.raises(TooLarge, match=(
                    f"^labeled general enumeration of size {n} would build "
                    f"{labeled_count(n)} algebras; "
                    f"it is guarded at {MAX_LABELED}$")):
                enumerate_all(n, up_to_iso=False)
        for iso in (False, True):
            with pytest.raises(TooLarge, match=(
                    f"^general enumeration is guarded at {MAX_SIZE}$")):
                enumerate_all(MAX_SIZE + 1, iso)
        assert len(enumerate_all(MAX_SIZE).iso_classes) == 28

    def test_labeled_sizes_the_guard_admits(self):
        admitted = [n for n in range(1, MAX_SIZE + 1)
                    if labeled_count(n) <= MAX_LABELED]
        assert admitted == [*range(1, 12), 13]
        report = enumerate_all(8, up_to_iso=False)
        assert len(report.iso_classes) == report.total_labeled == 6952
        assert report.violations == ()

    @pytest.mark.parametrize("n", range(2, MAX_SIZE + 1, 2))
    def test_other_regulars_largest_cloud_first(self, n):
        # A representative places the regulars other than 0 and 1 by
        # falling cloud size.
        for a in enumerate_all(n, True).iso_classes:
            if qba.is_flat(a):
                continue
            others = sorted(qba.regular_elements(a) - {a.zero, a.one})
            sizes = [len(qba.cloud_of(a, r)) for r in others]
            assert sizes == sorted(sizes, reverse=True), a.label


@pytest.mark.parametrize("enumerate_", [enumerate_all, enumerate_flat])
@pytest.mark.parametrize("size", [2.0, None, "3", True, False, 0, -1])
def test_size_must_be_a_positive_int(enumerate_, size):
    with pytest.raises(ValueError, match="^size must be a positive integer$"):
        enumerate_(size)


class TestEmbeddingAcrossEnumeration:
    def test_every_small_algebra_embeds_into_its_quotient_product(self):
        algebras = []
        for n in range(1, 7):
            algebras.extend(enumerate_all(n, up_to_iso=True).iso_classes)
        for n in range(7, 11):
            algebras.extend(enumerate_flat(n, up_to_iso=True).iso_classes)
        for a in algebras:
            emb = qba.embed_into_product(a)
            qchi, _ = qba.quotient(a, qba.chi(a))
            qtau, _ = qba.quotient(a, qba.tau(a))
            assert emb.is_injective
            assert qba.is_homomorphism(a, qba.direct_product(qchi, qtau), emb)

    def test_irreducible_iff_product_of_two_and_flat(self):
        # biconditional in its corrected form: the flat factor has size n/2
        # with any legal star shape; an odd flat factor exists exactly when
        # the size is 2 mod 4 (the size-4 class has no such form)
        for n in (2, 4, 6):
            for a in enumerate_all(n, up_to_iso=True).iso_classes:
                if qba.is_flat(a):
                    continue
                half = n // 2
                factor = qba.make_flat(half, 1 if half % 2 else 2)
                product = qba.direct_product(boolean_algebra(1), factor)
                is_product = qba.find_isomorphism(a, product) is not None
                assert qba.is_irreducible(a) == is_product


class TestVerifyStructure:
    def test_fixture_A(self, fx):
        result = claims(fx["A"])
        assert all(result.values())
        assert "nonflat-regular-even" in result
        assert "irreducible-product-form" not in result  # A is not irreducible

    def test_fixture_F5(self, fx):
        result = claims(fx["F5"])
        assert all(result.values())
        assert result["flat-regulars-trivial"]
        assert result["flat-cloud-zero-whole"]

    def test_fixture_6(self, fx):
        result = claims(fx["6"])
        assert all(result.values())
        assert result["irreducible-product-form"]
        assert result["irreducible-odd-flat-form"]  # size 6 = 4*1 + 2

    def test_fixture_4_product_form(self, fx):
        # size 4 is 0 mod 4: isomorphic to 2 x (two-element flat), but to no
        # product of 2 with an odd flat algebra
        result = claims(fx["4"])
        assert all(result.values())
        assert result["irreducible-product-form"]
        assert "irreducible-odd-flat-form" not in result
        for k in range(3):
            assert qba.find_isomorphism(fx["4"], qba.make_irreducible(k)) is None

    def test_all_fixtures_pass(self, fx):
        for name, a in fx.items():
            assert all(ok for _, ok in verify_structure(a)), name

    def test_star_involution(self):
        # A 4-cycle through the regulars of boolean_algebra(2) maps each
        # cloud onto a disjoint cloud of its size; only x** = x fails.
        b = boolean_algebra(2)
        cycle = replace(b, star=(1, 3, 0, 2))
        assert [label for label, ok in verify_structure(cycle) if not ok] == [
            "star-involution"]
        # The claims are not a validity test: this star passes them all.
        swap = replace(b, star=(1, 0, 3, 2))
        assert all(ok for _, ok in verify_structure(swap))
        assert not qba.validate(cycle).passed and not qba.validate(swap).passed


@pytest.mark.parametrize("n", range(1, 9))
def test_labeled_general_order(n):
    # The labeled algebras come in (one, join, meet, star) order, and the
    # ones that share a join object, a family, come together.
    algebras = enumerate_all(n, up_to_iso=False).iso_classes
    assert list(algebras) == sorted(
        algebras, key=lambda a: (a.one, a.join, a.meet, a.star))
    runs = [join for join, _ in groupby(map(id, (a.join for a in algebras)))]
    assert len(runs) == len(set(runs))


@pytest.mark.parametrize("m", range(11))
def test_involutions_in_lexicographic_order(m):
    # The rows of the buffers, each a star of size m + 1 that fixes 0.
    rows = b"".join(qba.enumeration._involutions(m + 1))
    stars = [rows[i:i + m + 1] for i in range(0, len(rows), m + 1)]
    assert stars == sorted(stars) and len(stars) == involution_count(m)
    assert all(s[0] == 0 and s.translate(s.ljust(256, b"\0")) == bytes(range(m + 1))
               for s in stars)


def test_copies_refuse_labels_that_do_not_match_the_stars():
    # A label per star: labels that run short would drop copies, and
    # labels left over would go unused, so both are refused.
    a = make_flat(5, 1)
    stars = bytes(a.star) * 3
    for given, labels in ((stars, ["x"]), (stars, list("wxyz")), (b"", ["x"])):
        with pytest.raises(PreconditionViolated):
            list(a._with_stars(given, labels))
    assert [c.label for c in a._with_stars(stars, "xyz")] == list("xyz")
    assert [c.label for c in a._with_stars(stars)] == [a.label] * 3
    assert list(a._with_stars(b"", [])) == []


@pytest.mark.parametrize("change", ["lose", "repeat"])
def test_labeled_output_must_have_its_count(change, monkeypatch):
    # Labeled output is labeled_count algebras; a buffer that lost or
    # repeated rows makes the call raise rather than answer.
    real = qba.enumeration._involutions

    def changed(n):
        *head, last = real(n)
        last = last[:-n] if change == "lose" else last + last[-n:]
        return iter([*head, last])

    monkeypatch.setattr(qba.enumeration, "_involutions", changed)
    for n in (3, 7):
        with pytest.raises(InvariantViolation):
            enumerate_flat(n, up_to_iso=False)
        with pytest.raises(InvariantViolation):
            enumerate_all(n, up_to_iso=False)
    assert enumerate_flat(7, up_to_iso=True).total_labeled == involution_count(6)


@pytest.mark.parametrize("n", [9, 11])
def test_labeled_flat_stars_tested_a_buffer_at_a_time(n, monkeypatch):
    # A labeled flat family's star test is called once per buffer: first's
    # star as a one-row buffer, the rest of the first buffer of
    # _involutions, and each later buffer whole.
    calls = []
    real = qba.enumeration._star_test

    def counted(a, f):
        test = real(a, f)
        return lambda buf: calls.append(buf) or test(buf)

    monkeypatch.setattr(qba.enumeration, "_star_test", counted)
    report = enumerate_flat(n, up_to_iso=False)
    head, *rest = qba.enumeration._involutions(n)
    assert report.violations == ()
    assert calls == [bytes(range(n)), head[n:], *rest] and len(calls) == n


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_flat_classes_derive_their_table_facts_once(n, monkeypatch):
    # make_flat shares one all-zero table per size, so the classes of
    # enumerate_flat(n, True) are one table family.
    calls = []
    real = qba.enumeration._table_facts
    monkeypatch.setattr(qba.enumeration, "_table_facts",
                        lambda a: calls.append(a) or real(a))
    report = qba.enumerate_flat(n, True)
    assert len(calls) == 1 and report.violations == ()
    assert len({id(t) for a in report.iso_classes for t in (a.join, a.meet)}) == 1


@pytest.mark.parametrize("n,flat_only", [(9, True), (6, False), (8, False)])
def test_valid_stars_take_no_claims_and_no_isomorphism(n, flat_only,
                                                       monkeypatch):
    # Every star of a valid family passes its byte test, irreducible ones
    # included, so no claim list is built; the product form is read from
    # the clouds, so no isomorphism is built or certified.
    calls = []
    real = qba.enumeration._claims
    monkeypatch.setattr(qba.enumeration, "_claims",
                        lambda a, f: calls.append(a) or real(a, f))
    for name in ("isomorphism_candidate", "is_homomorphism"):
        monkeypatch.setattr(qba.quotients, name,
                            lambda *args, name=name: calls.append(name))
    report = (enumerate_flat if flat_only else enumerate_all)(n, False)
    assert calls == [] and report.violations == ()
    assert flat_only or any(not qba.is_flat(a) and qba.is_irreducible(a)
                            for a in report.iso_classes)


@pytest.mark.parametrize("build, nonflat", [
    (lambda: enumerate_flat(7, up_to_iso=False), False),  # labeled flat
    (lambda: enumerate_all(10), False),  # the flat classes of _classes
    (lambda: enumerate_all(6, up_to_iso=False), True),  # general families
], ids=["flat_labeled", "classes", "families"])
def test_star_only_copies_behave_as_constructed(build, nonflat, monkeypatch):
    copies = []
    real = qba.FiniteAlgebra._with_stars

    def recorded(a, *args):
        for twin in real(a, *args):
            copies.append(twin)
            yield twin

    monkeypatch.setattr(qba.FiniteAlgebra, "_with_stars", recorded)
    build()
    assert len(copies) >= 4
    assert any(not qba.is_flat(c) for c in copies) == nonflat
    for c in copies:
        made = qba.FiniteAlgebra(c.names, c.join, c.meet, c.star, c.zero,
                                 c.one, c.label)
        # A copy's dict shares the class's keys, as a constructed one does,
        # so the two have one size; a dict filled by dict.update holds keys
        # of its own and is larger.
        assert sys.getsizeof(c.__dict__) == sys.getsizeof(made.__dict__)
        for twin in (c, replace(c), copy.copy(c), pickle.loads(pickle.dumps(c))):
            assert twin == made and hash(twin) == hash(made)
            assert repr(twin) == repr(made) and twin.label == made.label
        with pytest.raises(FrozenInstanceError):
            c.star = made.star
        assert c.validation is c.validation and c.validation == made.validation
        assert c.structure is c.structure and c.structure == made.structure
        assert {"validation", "structure"} <= c.__dict__.keys()
