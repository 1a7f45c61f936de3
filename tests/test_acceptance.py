"""Acceptance suite: one test per criterion, each printing a PASS line.

Each criterion is checked at its stated tolerance (everything here is
exact) and, where a runtime bound is stated, the bound is asserted.
"""
import time
from itertools import product

import qba
from qba.enumeration import enumerate_all, enumerate_flat
from qba.partitions import Partition, pair_closure_gaps
from qba.quotients import boolean_algebra
from qba.terms import decide, equation_corpus, holds_in

FIXTURES = ("2", "4", "4bar", "6", "A", "F3", "F5")


def independently_satisfies_all_axioms(a):
    """Literal re-implementation of every axiom, used to cross-examine any
    table that the validator lets through."""
    n, J, M, S = a.size, a.join, a.meet, a.star
    zero, one = a.zero, a.one
    for x in range(n):
        if J[x][x] != M[x][x]:
            return False
        if J[x][one] != one or M[x][zero] != zero:
            return False
        if J[x][S[x]] != one or M[x][S[x]] != zero:
            return False
        if S[M[x][x]] != J[S[x]][S[x]]:
            return False
        if S[S[x]] != x:
            return False
        for y in range(n):
            if J[x][y] != J[y][x] or M[x][y] != M[y][x]:
                return False
            if J[x][M[x][y]] != J[x][x] or M[x][J[x][y]] != M[x][x]:
                return False
            if J[x][J[y][y]] != J[x][y] or M[x][M[y][y]] != M[x][y]:
                return False
            for z in range(n):
                if J[x][J[y][z]] != J[J[x][y]][z]:
                    return False
                if M[x][M[y][z]] != M[M[x][y]][z]:
                    return False
                if J[x][M[y][z]] != M[J[x][y]][J[x][z]]:
                    return False
                if M[x][J[y][z]] != J[M[x][y]][M[x][z]]:
                    return False
    return True


def test_criterion_1_fixture_validation_and_mutation_sensitivity():
    start = time.perf_counter()
    for name in FIXTURES:
        assert qba.validate(qba.fixture(name)).passed, name

    a = qba.fixture("4")
    total = failed = 0
    survivors = []
    for i in range(4):
        for j in range(4):
            for v in range(4):
                if v == a.join[i][j]:
                    continue
                join = [list(row) for row in a.join]
                join[i][j] = v
                mutant = qba.FiniteAlgebra(a.names, tuple(map(tuple, join)),
                                           a.meet, a.star, a.zero, a.one)
                total += 1
                if qba.validate(mutant).passed:
                    survivors.append(mutant)
                else:
                    failed += 1
    assert total == 48
    assert failed >= 0.95 * total, f"only {failed}/{total} mutants rejected"
    # any survivor must genuinely satisfy every axiom on re-examination
    for mutant in survivors:
        assert independently_satisfies_all_axioms(mutant)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    print(f"ACCEPTANCE 1 fixture validation + mutation sensitivity: PASS "
          f"({failed}/{total} mutants rejected, {elapsed:.3f}s)")


def test_criterion_2_canonical_quotients_and_embeddings():
    start = time.perf_counter()
    a4 = qba.fixture("4")
    q_chi, _ = qba.quotient(a4, qba.chi(a4))
    q_tau, _ = qba.quotient(a4, qba.tau(a4))
    assert qba.find_isomorphism(q_chi, qba.fixture("2")) is not None
    assert qba.find_isomorphism(q_tau, qba.fixture("F3")) is not None
    for name in FIXTURES:
        if name == "2":
            continue
        a = qba.fixture(name)
        emb = qba.embed_into_product(a)
        assert emb.is_injective
        product = qba.direct_product(qba.quotient(a, qba.chi(a))[0],
                                     qba.quotient(a, qba.tau(a))[0])
        assert qba.is_homomorphism(a, product, emb)
    assert qba.embed_into_product(qba.fixture("2")).is_injective
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s"
    print(f"ACCEPTANCE 2 canonical quotients + product embeddings: PASS "
          f"({elapsed:.3f}s)")


def test_criterion_3_standard_completeness_at_desk_scale():
    start = time.perf_counter()
    corpus = equation_corpus()
    assert len(corpus) == 200
    classes = []
    for n in range(1, 7):
        classes.extend(enumerate_all(n, up_to_iso=True).iso_classes)
    classes.sort(key=lambda a: a.size)
    a4bar = qba.fixture("4bar")
    for eq in corpus:
        by_generator = decide("qb", eq).valid
        exhaustive = all(holds_in(a, eq).valid for a in classes)
        assert by_generator == exhaustive, qba.format_equation(eq)
        assert holds_in(a4bar, eq).valid == by_generator, qba.format_equation(eq)
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"criterion 3 took {elapsed:.1f}s"
    print(f"ACCEPTANCE 3 standard completeness on {len(corpus)} equations vs "
          f"{len(classes)} classes: PASS ({elapsed:.2f}s)")


def test_criterion_4_congruence_extension_property_exhaustive():
    start = time.perf_counter()
    algebras = [qba.fixture(name) for name in ("4", "4bar", "A", "F3", "F5", "6")]
    algebras.append(qba.direct_product(qba.fixture("2"), qba.fixture("F3")))
    checked = 0
    for a in algebras:
        for subset in qba.subalgebras(a):
            sub = qba.subalgebra(a, subset)
            for theta0 in qba.all_congruences(sub):
                ext = qba.extend_from_subalgebra(a, subset, theta0)
                assert qba.is_congruence(a, ext)
                assert ext.restrict(subset) == theta0
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"criterion 4 took {elapsed:.1f}s"
    print(f"ACCEPTANCE 4 congruence extension on {checked} "
          f"(algebra, subalgebra, congruence) triples: PASS ({elapsed:.2f}s)")


def test_criterion_5_split_total_congruence_and_extend():
    a4, a6 = qba.fixture("4"), qba.fixture("6")
    theta1, theta2 = qba.split_congruence(a4, Partition.whole(4))
    # theta1 relates the two chi-blocks, theta2 all three tau-classes
    assert theta1 == Partition.whole(2)
    assert theta2 == Partition.whole(3)
    subset = [a6.index_of(nm) for nm in ("0", "a", "b", "1")]
    ext = qba.extend_from_subalgebra(a6, sorted(subset), Partition.whole(4))
    assert qba.format_partition(a6, ext) == "0,a,b,1;e;f"
    assert ext.restrict(sorted(subset)) == Partition.whole(4)
    print("ACCEPTANCE 5 total congruence splits and extends exactly: PASS")


def test_criterion_6_decompose_regular_total_congruence():
    a4 = qba.fixture("4")
    theta = qba.parse_partition(a4, "0,1;a;b")
    d = qba.decompose(a4, theta)
    assert d.theta_r == Partition.whole(2)
    assert d.theta_ir == Partition.singletons(2)
    assert d.linked == frozenset() and d.f == ()
    assert d.cross == frozenset()
    assert qba.compose_nonflat(a4, d) == theta
    print("ACCEPTANCE 6 regular-total congruence decomposes and "
          "round-trips exactly: PASS")


def test_criterion_7_structure_suite_over_all_emitted_algebras():
    start = time.perf_counter()
    emitted = 0
    for n in range(1, 7):
        report = enumerate_all(n, up_to_iso=False)
        assert report.violations == (), (n, report.violations[:3])
        emitted += len(report.iso_classes)
    for n in range(1, 13):
        report = enumerate_flat(n, up_to_iso=False)
        assert report.violations == (), (n, report.violations[:3])
        emitted += len(report.iso_classes)

    # classification of the irreducible emits: sizes 2 mod 4 are products of
    # 2 with an odd flat algebra of one star fixed point; size 4 is
    # irreducible too, but pairs 2 with the even two-element flat instead
    # (so no 4k+2 form exists for it)
    size4_irreducible = [
        a for a in enumerate_all(4, up_to_iso=True).iso_classes
        if not qba.is_flat(a) and qba.is_irreducible(a)]
    assert len(size4_irreducible) == 1
    assert qba.find_isomorphism(
        size4_irreducible[0],
        qba.direct_product(boolean_algebra(1), qba.make_flat(2, 2))) is not None
    for k in range(3):
        assert qba.find_isomorphism(size4_irreducible[0],
                                    qba.make_irreducible(k)) is None
    for n in (2, 6):
        for a in enumerate_all(n, up_to_iso=True).iso_classes:
            if not qba.is_flat(a) and qba.is_irreducible(a):
                assert qba.find_isomorphism(
                    a, qba.make_irreducible((n - 2) // 4)) is not None
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"criterion 7 took {elapsed:.1f}s"
    print(f"ACCEPTANCE 7 structure claims on {emitted} emitted algebras, "
          f"zero violations: PASS ({elapsed:.2f}s)")


def _involutions_fixing_zero(n):
    def rec(avail):
        if not avail:
            yield {}
            return
        x = avail[0]
        for rest in rec(avail[1:]):
            yield {x: x, **rest}
        for i in range(1, len(avail)):
            y = avail[i]
            for rest in rec(avail[1:i] + avail[i + 1:]):
                yield {x: y, y: x, **rest}

    for m in rec(tuple(range(1, n))):
        yield {0: 0, **m}


def _flat_algebra_from(n, involution):
    zeros = ((0,) * n,) * n
    star = tuple(involution[x] for x in range(n))
    names = ("0",) + tuple(f"x{i}" for i in range(1, n))
    return qba.FiniteAlgebra(names, zeros, zeros, star, 0, 0)


def _naive_all_algebras(n):
    """Filter table triples through the validator, zero fixed at index 0.

    The scan is narrowed only by constraints the validator itself imposes
    (commutative tables, the x v 1 = 1 column, the x ^ 0 = 0 column, the
    tied diagonals of QL5), so every triple outside the scan provably fails
    validate and the filter stays exhaustive.
    """
    found = set()
    for one in range(n):
        join_free = [(i, j) for i in range(n) for j in range(i, n)
                     if one not in (i, j)]
        meet_free = [(i, j) for i in range(n) for j in range(i, n)
                     if i != j and 0 not in (i, j)]
        for jvals in product(range(n), repeat=len(join_free)):
            join = [[one] * n for _ in range(n)]
            for (i, j), v in zip(join_free, jvals):
                join[i][j] = join[j][i] = v
            for mvals in product(range(n), repeat=len(meet_free)):
                meet = [[None] * n for _ in range(n)]
                for x in range(n):
                    meet[x][0] = meet[0][x] = 0
                for x in range(1, n):
                    meet[x][x] = join[x][x]
                for (i, j), v in zip(meet_free, mvals):
                    meet[i][j] = meet[j][i] = v
                jt = tuple(map(tuple, join))
                mt = tuple(map(tuple, meet))
                for star in product(range(n), repeat=n):
                    a = qba.FiniteAlgebra(tuple(map(str, range(n))), jt, mt,
                                          star, 0, one)
                    if qba.validate(a).passed:
                        found.add((jt, mt, star, one))
    return found


def test_criterion_8_flat_counting_oracle_and_tiny_exhaustive_agreement():
    start = time.perf_counter()
    # class count formula against an independent involution-class analysis
    for n in range(1, 13):
        report = enumerate_flat(n, up_to_iso=True)
        assert len(report.iso_classes) == (n - 1) // 2 + 1, n

        buckets = {}
        for inv in _involutions_fixing_zero(n):
            k = sum(1 for x in range(n) if inv[x] == x)
            buckets.setdefault(k, []).append(inv)
        assert len(buckets) == (n - 1) // 2 + 1, n
        assert report.total_labeled == sum(map(len, buckets.values()))
        reps = {k: _flat_algebra_from(n, invs[0])
                for k, invs in buckets.items()}
        if n <= 9:
            # every member of a bucket is isomorphic to its representative
            for k, invs in buckets.items():
                for inv in invs:
                    assert qba.find_isomorphism(_flat_algebra_from(n, inv),
                                                reps[k]) is not None
        ks = sorted(reps)
        for i, k1 in enumerate(ks):
            for k2 in ks[i + 1:]:
                assert qba.find_isomorphism(reps[k1], reps[k2]) is None

    # labeled enumeration agrees with the naive all-tables filter
    for n in range(1, 4):
        naive = _naive_all_algebras(n)
        ours = {(a.join, a.meet, a.star, a.one)
                for a in enumerate_all(n, up_to_iso=False).iso_classes}
        assert ours == naive, n
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 8 flat class counts 1..12 + naive oracle agreement "
          f"n<=3: PASS ({elapsed:.2f}s)")


def test_criterion_9_nontransitive_pair_set_reported_and_corrected():
    a6 = qba.fixture("6")
    nm = a6.index_of
    sym = lambda pairs: [(p, q) for p, q in pairs] + [(q, p) for p, q in pairs]
    diagonal = [(x, x) for x in a6.elements()]
    # a published congruence table for this algebra lists these pairs; the
    # bridge (0,1) forces cross pairs like (0,f) that the table omits
    within_clouds = sym([(nm("0"), nm("a")), (nm("0"), nm("e")),
                         (nm("a"), nm("e")), (nm("1"), nm("f")),
                         (nm("1"), nm("b")), (nm("f"), nm("b"))])
    printed = diagonal + within_clouds + sym([(nm("0"), nm("1"))])
    gaps = pair_closure_gaps(a6.size, printed)
    assert (nm("0"), nm("f")) in gaps
    assert gaps, "the printed pair set must be reported as non-transitive"

    corrected = diagonal + within_clouds  # drop the (0,1) bridge
    assert pair_closure_gaps(a6.size, corrected) == []
    theta = Partition.from_pairs(a6.size, corrected)
    assert theta == qba.chi(a6)
    d = qba.decompose(a6, theta)
    assert qba.compose_nonflat(a6, d) == theta
    assert dict(d.f) == {0: 0, 1: 1}
    print("ACCEPTANCE 9 non-transitive pair set reported (missing (0,f)); "
          "corrected reading decomposes and round-trips: PASS")
