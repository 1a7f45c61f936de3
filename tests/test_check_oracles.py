"""The whole-row well-formedness checks in FiniteAlgebra and its star-only
copies, the one-pass cloud map in verify_structure and its once-per-family
facts in _made_and_checked, the structure-built labeled generator and
its stars, the block-of-columns equation check and the check through
the subdirect factors 2, F2 and F3, the
congruences built by the split lemma, the generated congruences built by
the split lemma, the isomorphism-class key, the isomorphisms built from
the clouds, the irreducible product form read from the clouds (the mask
test and the star) in place of a certified isomorphism onto the product
target, the congruence check against the least element of each block
and the whole-row axiom scan of validate against the code they replaced. The per-tuple axiom scan stays in qba.algebra, as the path for
tables that fail the mask test, and is imported from there.

The old scans, generators (the recursive star generators among them),
the per-assignment check, the two-prune search,
the union-find closure of generated congruences, the pairwise
congruence check, the backtracking
isomorphism search, which decides the product form against
product_target, and the search-based dedupe are kept
here verbatim as oracles: every input must give the same exception type
and message, the same (claim, bool) list, the same labeled algebras, the
same verdict, witness included, the same congruences, the same
representatives and the same isomorphism.

The checks that congruences and quotients ran on their own results, which
only re-derived the paper's theorems, run here as oracles too, on every
congruence of every algebra of the corpus.
"""
import random
import time
from collections import Counter
from dataclasses import replace
from functools import cache
from itertools import combinations, groupby, islice, permutations, product
from math import factorial, prod
from operator import attrgetter
from typing import Iterator, Mapping

import pytest

import qba
from qba.algebra import (AXIOM_LABELS, AXIOMS, FiniteAlgebra, _validate_by_tuples,
                         axiom_holds_at, cloud_map, cloud_of, dump_algebra, is_flat,
                         load_algebra, regular_elements, validate)
from qba.congruences import (MAX_EXHAUSTIVE, CongruenceDecomposition,
                             all_congruences, compose_flat, compose_nonflat,
                             cross_pairs, decompose, extend_from_subalgebra,
                             generated_congruence, principal_congruence_flat,
                             principal_congruence_nonflat, split_congruence,
                             subalgebra, subalgebras)
from qba.enumeration import (STRUCTURE_CLAIMS, EnumerationReport,
                             _cloud_classes, _involutive_rows,
                             _labeled, _made_and_checked, _star_test, _table_facts,
                             dedupe_up_to_iso, enumerate_all, enumerate_flat,
                             involution_count, labeled_count, verify_structure)
from qba.errors import (AlgebraSemanticError, DecompositionConditionError,
                        InvariantViolation, NotACongruence, NotAQBAlgebra,
                        TooLarge, UnboundVariable)
from qba.partitions import Partition, UnionFind, is_congruence
from qba.quotients import (ElementMap, atom_relabelings, boolean_algebra, chi,
                           direct_product, embed_into_product, find_isomorphism,
                           generic_names, is_homomorphism, is_irreducible,
                           make_flat, make_irreducible, quotient, tau)
from qba.terms import (BLOCK, Const, Equation, Join, Star, Term, Var, Verdict,
                       Witness, equation_corpus, holds_in, parse_equation,
                       variables)


def scan_well_formed(names, join, meet, star, zero, one):
    """The per-element range and shape scan of FiniteAlgebra.__post_init__."""
    n = len(names)
    if n == 0:
        raise AlgebraSemanticError("empty carrier")
    if len(set(names)) != n:
        raise AlgebraSemanticError("duplicate names")
    if any(not nm or any(c.isspace() for c in nm) for nm in names):
        raise AlgebraSemanticError("names must be non-empty and free of whitespace")
    if any(c in ";=>" for nm in names for c in nm):
        raise AlgebraSemanticError("names must not contain ';', '=' or '>'")
    for table, what in ((join, "join"), (meet, "meet")):
        if len(table) != n or any(len(row) != n for row in table):
            raise AlgebraSemanticError(f"wrong table dimensions for {what}")
        if any(not (0 <= v < n) for row in table for v in row):
            raise AlgebraSemanticError(f"{what} entry out of range")
    if not hasattr(star, "__len__") or len(star) != n:
        raise AlgebraSemanticError("wrong table dimensions for star")
    if any(not isinstance(v, int) for v in star):
        raise AlgebraSemanticError("star entry is not an integer")
    if any(not (0 <= v < n) for v in star):
        raise AlgebraSemanticError("star entry out of range")
    for c, what in ((zero, "zero"), (one, "one")):
        if not (0 <= c < n):
            raise AlgebraSemanticError(f"{what} out of range")


# The backtracking isomorphism search that the construction from the
# clouds replaced, verbatim. It takes any well-formed algebras, valid
# or not, and returns the least isomorphism in the order of image tuples.

def _signatures(a: FiniteAlgebra) -> list[tuple]:
    regs = regular_elements(a)
    clouds = cloud_map(a)
    return [(x == a.zero, x == a.one, x in regs, a.star[x] == x,
             len(clouds[a.join[x][x]]))
            for x in a.elements()]


def find_isomorphism_by_search(a: FiniteAlgebra, b: FiniteAlgebra) -> ElementMap | None:
    """Search for a bijective homomorphism by backtracking.

    Candidates are pruned by per-element invariants (constants, regularity,
    star fixed points, cloud size) before the exhaustive consistency check;
    enough to keep the search trivial at the sizes handled here.
    """
    n = a.size
    if n != b.size:
        return None
    sig_a, sig_b = _signatures(a), _signatures(b)
    if sorted(sig_a) != sorted(sig_b):
        return None

    image = [-1] * n
    used = [False] * n

    def consistent(x: int, y: int) -> bool:
        if image[a.star[x]] != -1 and image[a.star[x]] != b.star[y]:
            return False
        for u in range(n):
            v = image[u]
            if v == -1:
                continue
            for (p, q), (pm, qm) in (((x, u), (y, v)), ((u, x), (v, y))):
                if image[a.join[p][q]] not in (-1, b.join[pm][qm]):
                    return False
                if image[a.meet[p][q]] not in (-1, b.meet[pm][qm]):
                    return False
        return True

    def extend(x: int) -> bool:
        if x == n:
            # Partial checks skip operation results that were still
            # unassigned, so the complete candidate is verified in full.
            return is_homomorphism(a, b, ElementMap(n, n, tuple(image)))
        for y in range(n):
            if used[y] or sig_a[x] != sig_b[y]:
                continue
            if not consistent(x, y):
                continue
            image[x] = y
            used[y] = True
            if extend(x + 1):
                return True
            image[x] = -1
            used[y] = False
        return False

    if not extend(0):
        return None
    f = ElementMap(n, n, tuple(image))
    if not f.is_bijective:
        raise InvariantViolation("isomorphism search produced a non-bijective map")
    return f


def product_target(n: int, f: int | None = None) -> FiniteAlgebra:
    """2 x make_flat(n/2, f), by default with one star fixed point if n/2
    is odd, else two: the product form of an irreducible algebra of even
    size n, as the certified isomorphism checked it."""
    half = n // 2
    if f is None:
        f = 1 if half % 2 else 2
    return direct_product(boolean_algebra(1), make_flat(half, f))


def verify_structure_by_scan(a):
    """verify_structure as it was, with cloud_of rescanning per call."""
    results = []
    regs = regular_elements(a)
    reps = [a.join[x][x] for x in a.elements()]
    clouds = {r: cloud_of(a, r) for r in regs}

    covered = set()
    for members in clouds.values():
        covered |= members
    results.append(("cloud-partition",
                    covered == set(a.elements())
                    and sum(len(m) for m in clouds.values()) == a.size
                    and all(r in regs for r in reps)))
    results.append(("star-cloud-image",
                    all(frozenset(a.star[y] for y in clouds[r])
                        == cloud_of(a, a.star[r]) for r in regs)))
    results.append(("star-cloud-size",
                    all(len(clouds[r]) == len(cloud_of(a, a.star[r]))
                        for r in regs)))
    results.append(("star-involution",
                    all(a.star[a.star[x]] == x for x in a.elements())))

    if not is_flat(a):
        results.append(("nonflat-star-free",
                        all(a.star[x] != x for x in a.elements())))
        results.append(("nonflat-complement-clouds-disjoint",
                        all(not (clouds[r] & cloud_of(a, a.star[r]))
                            for r in regs)))
        results.append(("nonflat-regular-even", len(regs) % 2 == 0))
        results.append(("nonflat-order-even", a.size % 2 == 0))
        if is_irreducible(a) and a.size % 2 == 0:
            results.append((
                "irreducible-product-form",
                find_isomorphism_by_search(a, product_target(a.size))
                is not None))
            if a.size % 4 == 2:
                results.append((
                    "irreducible-odd-flat-form",
                    find_isomorphism_by_search(
                        a, make_irreducible((a.size - 2) // 4)) is not None))
    else:
        results.append(("flat-regulars-trivial", regs == frozenset((a.zero,))))
        results.append(("flat-cloud-zero-whole",
                        cloud_of(a, a.zero) == frozenset(a.elements())))
        results.append(("flat-ops-zero",
                        all(v == a.zero for row in a.join for v in row)
                        and all(v == a.zero for row in a.meet for v in row)))
        fixed = sum(1 for x in a.elements() if a.star[x] == x)
        results.append(("flat-size-parity", (a.size - fixed) % 2 == 0))
    return results


def outcome(fn, *args):
    try:
        fn(*args)
    except AlgebraSemanticError as exc:
        return type(exc), str(exc)
    return None


def fields(a):
    return [a.names, a.join, a.meet, a.star, a.zero, a.one]


def with_cell(table, i, j, v):
    rows = [list(row) for row in table]
    rows[i][j] = v
    return tuple(map(tuple, rows))


def with_entry(row, j, v):
    out = list(row)
    out[j] = v
    return tuple(out)


def assert_same_outcome(args):
    expected = outcome(scan_well_formed, *args)
    assert outcome(FiniteAlgebra, *args) == expected, args


def malformed_variants(a):
    """Argument lists with one entry, row, name or constant broken."""
    n = a.size
    base = fields(a)
    for bad in (-1, n, -5, n + 3):
        for k in (1, 2):
            for i in range(n):
                for j in range(n):
                    args = list(base)
                    args[k] = with_cell(base[k], i, j, bad)
                    yield args
        for j in range(n):
            args = list(base)
            args[3] = with_entry(a.star, j, bad)
            yield args
        for k in (4, 5):
            args = list(base)
            args[k] = bad
            yield args
    for k in (1, 2):
        table = base[k]
        for i in range(n):
            for row in (table[i][:-1], table[i] + (0,), ()):
                args = list(base)
                args[k] = table[:i] + (row,) + table[i + 1:]
                yield args
        for rows in (table[:-1], table + (table[0],)):
            args = list(base)
            args[k] = rows
            yield args
    for star in (a.star[:-1], a.star + (0,), 5, None, (0.5,) * n, ("0",) * n,
                 (None,) * n, a.star[:-1] + (True,), ((0,),) * n):
        args = list(base)
        args[3] = star
        yield args
    for i in range(n):
        args = list(base)
        args[0] = a.names[:i] + ("",) + a.names[i + 1:]
        yield args
    # Two faults at once: the first check in order must win in both.
    args = list(base)
    args[1] = with_cell(a.join, 0, 0, -1)
    args[2] = a.meet[:-1]
    args[3] = with_entry(a.star, 0, n)
    yield args


class TestWellFormedness:
    def test_fixtures_construct_in_both(self, fx):
        for a in fx.values():
            assert outcome(scan_well_formed, *fields(a)) is None

    def test_malformed_tables_same_error(self, fx):
        for a in fx.values():
            for args in malformed_variants(a):
                assert_same_outcome(args)

    def test_every_whitespace_code_point_same_error(self, fx):
        spaces = [c for c in map(chr, range(0x110000)) if c.isspace()]
        assert len(spaces) > 20
        base = fields(fx["4"])
        for c in spaces:
            for nm in (c, f"a{c}", f"{c}a", f"a{c}b", c * 3):
                args = list(base)
                args[0] = ("0", nm) + base[0][2:]
                assert_same_outcome(args)

    def test_malformed_stars_same_error_through_with_stars(self, fx):
        # The family copies take stars as buffers of n-byte rows and check
        # a buffer by its length and one translate. A buffer whose length
        # is not a multiple of n, or with an entry past the carrier, fails
        # as the constructor fails on its first bad row; a good row gives
        # what the constructor gives, and an empty buffer no copy.
        checked = 0
        for a in fx.values():
            n, base = a.size, fields(a)
            good = bytes(a.star)
            for buf in (good[:-1], good + b"\0", good[:-1] + bytes([n]),
                        bytes([255]) * n, good + good[1:], bytes([n]) + good[1:] + good):
                rows = [buf[i:i + n] for i in range(0, len(buf), n)]
                expected = next(filter(None, (outcome(FiniteAlgebra, *base[:3],
                                                      tuple(row), *base[4:])
                                              for row in rows)))
                assert outcome(lambda b: list(a._with_stars(b)), buf) == expected, buf
                checked += 1
            assert tables(next(a._with_stars(good))) == tables(a)
            assert list(map(tables, a._with_stars(good * 3))) == [tables(a)] * 3
            assert list(a._with_stars(b"")) == []
        assert checked == 6 * len(fx)

    def test_malformed_star_anywhere_in_a_batch_same_error(self, fx):
        # A bad row first, in the middle or last among good ones in one
        # buffer fails as the constructor fails on that row, before any
        # copy of its buffer is made; a bad row in a family's buffer past
        # the first fails the family loop alike.
        checked = 0
        for a in fx.values():
            n, base = a.size, fields(a)
            good = bytes(a.star)
            for bad in (good[:-1] + bytes([n]), bytes([255]) * n,
                        bytes([n - 1]) * (n - 1) + bytes([n + 7])):
                expected = outcome(FiniteAlgebra, *base[:3], tuple(bad), *base[4:])
                assert expected is not None
                for at in (0, 3, 6):
                    rows = [good] * 6
                    rows.insert(at, bad)
                    made = []
                    assert outcome(lambda s: made.extend(a._with_stars(s)),
                                   b"".join(rows)) == expected
                    assert made == []
                    checked += 1
                buffers = [good * 600, good * 3 + bad + good, good]
                assert outcome(lambda f: _made_and_checked([f]),
                               (a, buffers)) == expected
                checked += 1
        assert checked == 12 * len(fx)

    def test_no_other_code_point_is_whitespace_to_split(self):
        # One name holding every code point for which isspace() is false
        # (lone surrogates included), but for the separators ';', '=' and
        # '>', is accepted by both checks; with any separator added, both
        # refuse it alike.
        name = "".join(c for c in map(chr, range(0x110000))
                       if not c.isspace() and c not in ";=>")
        args = [(name,), ((0,),), ((0,),), (0,), 0, 0]
        assert outcome(scan_well_formed, *args) is None
        assert outcome(FiniteAlgebra, *args) is None
        for sep in ";=>":
            args[0] = (name + sep,)
            assert outcome(FiniteAlgebra, *args) is not None
            assert_same_outcome(args)


def single_cell_mutants(a):
    n = a.size
    for k in (1, 2):
        for i in range(n):
            for j in range(n):
                for v in range(n):
                    if v != fields(a)[k][i][j]:
                        args = fields(a)
                        args[k] = with_cell(args[k], i, j, v)
                        yield FiniteAlgebra(*args)
    for j in range(n):
        for v in range(n):
            if v != a.star[j]:
                args = fields(a)
                args[3] = with_entry(a.star, j, v)
                yield FiniteAlgebra(*args)


class TestVerifyStructure:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_labeled_enumerate_all(self, n):
        for a in enumerate_all(n, up_to_iso=False).iso_classes:
            assert verify_structure(a) == verify_structure_by_scan(a)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_labeled_enumerate_flat(self, n):
        for a in enumerate_flat(n, up_to_iso=False).iso_classes:
            assert verify_structure(a) == verify_structure_by_scan(a)

    def test_single_cell_mutants_of_fixtures(self, fx):
        failing = 0
        for name in qba.FIXTURE_NAMES:
            for m in single_cell_mutants(fx[name]):
                expected = verify_structure_by_scan(m)
                assert verify_structure(m) == expected, (name, m.join, m.meet, m.star)
                failing += not all(ok for _, ok in expected)
        # The mutants reach the failing side of the claims, not only the
        # passing one.
        assert failing > 100

    @pytest.mark.parametrize("n", [8, 10])
    def test_irreducible_sizes_beyond_enumeration(self, n):
        # Sizes 0 and 2 mod 4 past the labeled sizes checked above, where
        # the product targets may be built for the first time. Each of 48
        # labeled algebras heads a family of its star mutants.
        algebras = labeled(n, 1, 48)[:48]
        mix, violations = _made_and_checked(
            (a, [bytes(m.star) for m in star_mutants(a)]) for a in algebras)
        assert len(mix) == 4 * 48 and mix[::4] == algebras
        expected = list(map(verify_structure_by_scan, mix))
        assert list(map(verify_structure, mix)) == expected
        failing = [(label, id(a)) for a, claims in zip(mix, expected)
                   for label, ok in claims if not ok]
        assert len({a for _, a in failing}) > 48
        assert [(label, id(a)) for label, a in violations] == failing

    def test_irreducible_claims_from_the_clouds_as_by_search(self):
        # The irreducible labeled algebras with one atom up to 8 elements
        # and make_irreducible up to 10, each with 20 seeded single-cell
        # mutants of join, meet or star: the claims read from the mask
        # test and the star equal the backtracking search's. The first 100
        # of size 8 are taken in the order of the recursion, which sorts no
        # family's stars.
        bases = [*(a for n in (2, 4, 6) for a in labeled(n, 1)),
                 *islice(_labeled_by_recursion(8, 1), 100),
                 *map(make_irreducible, range(3))]
        mix = bases + [m for seed, a in enumerate(bases)
                       for m in seeded_mutants(a, seed, 20)]
        expected = list(map(verify_structure_by_scan, mix))
        assert list(map(verify_structure, mix)) == expected
        # Inputs with a false irreducible claim, and those among them
        # whose tables pass the mask test, so that the star decides.
        false = [a for a, claims in zip(mix, expected)
                 if any(not ok for label, ok in claims
                        if label.startswith("irreducible"))]
        assert len(mix) == 3570 and len(false) == 3330
        assert sum(a.structure is not None for a in false) == 1102

    @pytest.mark.parametrize("h", range(1, 7))
    def test_every_flat_factor_gives_the_product_form(self, h):
        # The lemma behind the claims: 2 x make_flat(h, f) is isomorphic
        # to the product target for each admissible f.
        target = product_target(2 * h)
        for f in range(2 - h % 2, h + 1, 2):
            a = product_target(2 * h, f)
            assert find_isomorphism_by_search(a, target) is not None, f
            assert all(ok for _, ok in verify_structure(a)), f

    @pytest.mark.parametrize("k", range(4))
    def test_product_target_has_the_odd_flat_form_tables(self, k):
        # At 4k+2 the two irreducible claims compare with algebras of the
        # same tables, so one answer holds for both.
        target, odd = product_target(4 * k + 2), make_irreducible(k)
        for field in ("join", "meet", "star", "zero", "one"):
            assert getattr(target, field) == getattr(odd, field), field

    def test_families_as_by_scan(self, fx):
        # The table facts and the star test are derived once per family;
        # the violations must be what a per-algebra scan finds.
        families = shuffled_families(fx)
        mix, violations = _made_and_checked(families)
        expected = [(label, id(a)) for a in mix
                    for label, ok in verify_structure_by_scan(a) if not ok]
        assert [(label, id(a)) for label, a in violations] == expected
        assert len(mix) - len(families) > 1000  # algebras whose facts are reused
        assert len(expected) > 1000
        assert {label for label, _ in expected} == set(STRUCTURE_CLAIMS)

    def test_families_of_one_with_fresh_tables(self):
        expected = [(label, tables(a)) for a in fresh_flat_stream(5, 200)
                    for label, ok in verify_structure_by_scan(a) if not ok]
        mix, violations = _made_and_checked(
            (a, ()) for a in fresh_flat_stream(5, 200))
        assert list(map(tables, mix)) == list(map(tables, fresh_flat_stream(5, 200)))
        assert [(label, tables(a)) for label, a in violations] == expected
        assert len(expected) == 600

    def test_family_star_test_hides_no_failure(self):
        # Every family of _labeled up to 8 elements, with star-only
        # mutants of its first among its stars: the violations are the
        # per-algebra scan's, and the family's star test passes no star
        # with a false claim.
        mix, violations = _made_and_checked(
            (first, [*stars, *map(bytes, family_mutants(first))])
            for n in range(1, 9) for k in range(n.bit_length())
            for first, stars in _labeled(n, k))
        expected = list(map(verify_structure_by_scan, mix))
        failing = [(label, id(a)) for a, claims in zip(mix, expected)
                   for label, ok in claims if not ok]
        assert [(label, id(a)) for label, a in violations] == failing
        # Each condition of the test is the only one that refuses some
        # star with a false claim.
        alone = Counter()
        for a, claims in zip(mix, expected):
            test = _star_test(a, _table_facts(a))
            if test is None or all(ok for _, ok in claims):
                continue
            assert not test(bytes(a.star)), (a.join, a.star)
            star, rep = a.star, [row[x] for x, row in enumerate(a.join)]
            refusing = [
                name for name, refuses in (
                    ("involution", any(star[star[x]] != x for x in a.elements())),
                    ("clouds", any(rep[star[x]] != star[rep[x]]
                                   for x in a.elements())),
                    ("fixed point", any(star[x] == x for x in a.elements())))
                if refuses and (name == "involution" or not is_flat(a))]
            if len(refusing) == 1:
                alone[refusing[0]] += 1
        assert len(failing) > 10_000
        assert alone.keys() == {"involution", "clouds", "fixed point"}
        assert min(alone.values()) > 100, alone

    def test_buffer_test_as_per_row_scan(self):
        # A family's star test passes a buffer exactly when no row of it
        # has a false claim under the per-algebra scan, flat or not: on
        # seeded buffers of 1 to 5 rows drawn from the stars of every
        # _labeled family up to 8 elements and the family_mutants of its
        # first, half of them from its valid stars alone.
        rng = random.Random(37)
        seen = Counter()
        for n in range(1, 9):
            for k in range(n.bit_length()):
                for first, stars in _labeled(n, k):
                    test = _star_test(first, _table_facts(first))
                    whole = bytes(first.star) + b"".join(stars)
                    valid = [whole[i:i + n] for i in range(0, len(whole), n)]
                    rows = valid + list(map(bytes, family_mutants(first)))
                    holds = {row: all(ok for _, ok in verify_structure_by_scan(
                        replace(first, star=tuple(row)))) for row in rows}
                    for pool in (valid, rows) * (1 if k else 100):
                        drawn = rng.choices(pool, k=rng.randint(1, 5))
                        passed = all(map(holds.get, drawn))
                        assert test(b"".join(drawn)) == passed, (first.join, drawn)
                        seen[k > 0, passed] += 1
        assert min(seen.values()) > 100, seen
        assert min(seen[True, True], seen[True, False]) > 1000, seen

    @pytest.mark.parametrize("n", [9, 10])
    def test_labeled_flat_family_with_mutants_as_by_scan(self, n):
        # The labeled flat algebras of size n are one family (764 or 2,620
        # algebras), and the star-only mutants of every seventh follow it
        # there: the violations are the per-algebra scan's, in order,
        # whether the stars come one to a buffer, a hundred to a buffer
        # (each failing the column test), or the valid ones whole and the
        # mutants apart.
        algebras, stars, mutants = labeled(n, 0), [], []
        for i, a in enumerate(algebras):
            if i:
                stars.append(bytes(a.star))
            if i % 7 == 0:
                changed = list(map(bytes, family_mutants(a)))
                stars += changed
                mutants += changed
        good = b"".join(bytes(a.star) for a in algebras[1:])
        for given in (stars, [b"".join(stars[i:i + 100]) for i in range(0, len(stars), 100)],
                      [good, b"".join(mutants)]):
            mix, violations = _made_and_checked([(algebras[0], given)])
            assert len(mix) == len(stars) + 1 > len(algebras)
            assert len({(id(a.join), id(a.meet)) for a in mix}) == 1
            expected = [(label, id(a)) for a in mix
                        for label, ok in verify_structure_by_scan(a) if not ok]
            assert [(label, id(a)) for label, a in violations] == expected
            assert len({a for _, a in expected}) > len(mix) // 20

    def test_column_test_as_per_star_test(self):
        # _involutive_rows passes a buffer exactly when the flat star test
        # passes each of its rows as a one-row buffer: on seeded random
        # rows, involutions with one entry changed or not, for n = 1..16,
        # and on every single-entry mutant of the labeled flat stars up to
        # 8 elements, alone and among the other stars.
        rng = random.Random(36)
        seen = Counter()
        for n in range(1, 17):
            a = make_flat(n, 2 - n % 2)
            involutive = _star_test(a, _table_facts(a))
            for _ in range(300):
                rows = []
                for _ in range(rng.randint(1, 5)):
                    star, points = list(range(n)), rng.sample(range(n), n)
                    for i in range(0, 2 * rng.randint(0, n // 2), 2):
                        star[points[i]], star[points[i + 1]] = points[i + 1], points[i]
                    if rng.random() < 0.2:
                        star[rng.randrange(n)] = rng.randrange(n)
                    rows.append(bytes(star))
                passed = all(map(involutive, rows))
                assert _involutive_rows(b"".join(rows), n) == passed, rows
                seen[passed] += 1
        assert min(seen.values()) > 1000, seen
        for n in range(1, 9):
            a = make_flat(n, 2 - n % 2)
            involutive = _star_test(a, _table_facts(a))
            whole = b"".join(qba.enumeration._involutions(n))
            assert _involutive_rows(whole, n)
            for at in range(0, len(whole), n):
                for x in range(n):
                    for v in range(n):
                        if v != whole[at + x]:
                            changed = whole[:at + x] + bytes([v]) + whole[at + x + 1:]
                            ok = involutive(changed[at:at + n])
                            assert _involutive_rows(changed[at:at + n], n) == ok
                            assert _involutive_rows(changed, n) == ok


def family_mutants(a: FiniteAlgebra) -> Iterator[tuple[int, ...]]:
    """Stars for copies of a that share its tables: the images of the
    last three elements rotated (a 3-cycle composed with the star), the
    images of zero and the next element swapped, and for a non-flat a,
    the star conjugated by the swap of the first two elements whose
    clouds are neither equal nor complementary, the star with the
    clouds of zero and one fixed pointwise, and the star with its first
    irregular sent where its cloud's regular element is sent."""
    star, n = list(a.star), a.size
    rep = [row[x] for x, row in enumerate(a.join)]
    if n >= 3:
        s = star[:]
        s[n - 3:] = star[n - 2], star[n - 1], star[n - 3]
        yield tuple(s)
    if n >= 2:
        yield (star[1], star[0], *star[2:])
    if is_flat(a):
        return
    for x, y in combinations(range(n), 2):
        if rep[y] not in (rep[x], rep[star[x]]):
            swap = list(range(n))
            swap[x], swap[y] = y, x
            yield tuple(swap[star[swap[v]]] for v in range(n))
            break
    yield tuple(v if rep[v] in (a.zero, a.one) else star[v] for v in range(n))
    for x in range(n):
        if rep[x] != x:
            s = star[:]
            s[x] = star[rep[x]]
            yield tuple(s)
            break


def star_mutants(a):
    """Star-only copies that break the star at one element: a regular
    and, where there is one, an irregular element made fixed, and a
    regular sent where the next element is sent, so that the star is no
    longer one-to-one."""
    irregulars = [x for x in a.elements() if a.join[x][x] != x]
    for x in [a.zero, *irregulars[:1]]:
        yield replace(a, star=with_entry(a.star, x, x))
    yield replace(a, star=with_entry(a.star, a.one, a.star[a.one + 1 - a.size]))


def shuffled_families(fx):
    """Families (first, stars) in shuffled order: the labeled families,
    and for each fixture and every seventh labeled algebra, a family of
    its single-cell star mutants, families of one with its tables in new
    objects or under another one, and of the fixtures' table mutants."""
    families = [(first, list(stars)) for n in (4, 5, 6)
                for k in range(n.bit_length()) for first, stars in _labeled(n, k)]
    for a in list(fx.values()) + list(_made_and_checked(families)[0][::7]):
        families.append((a, [bytes(m.star) for m in single_cell_mutants(a)
                             if m.join is a.join and m.meet is a.meet]))
        families.append((FiniteAlgebra(a.names, tuple(map(tuple, a.join)),
                                       tuple(map(tuple, a.meet)), a.star,
                                       a.zero, a.one), ()))
        families.extend((FiniteAlgebra(a.names, a.join, a.meet, a.star, a.zero,
                                       one), ()) for one in a.elements()
                        if one != a.one)
    for a in fx.values():
        families.extend((m, ()) for m in single_cell_mutants(a)
                        if m.star is a.star)
    random.Random(0).shuffle(families)
    return families


def labeled(n: int, k: int, families: int | None = None) -> tuple[FiniteAlgebra, ...]:
    """The algebras of the first families of _labeled(n, k), all by
    default, in order, as the enumeration makes them."""
    return _made_and_checked(islice(_labeled(n, k), families))[0]


def fresh_flat_stream(n: int, rounds: int) -> Iterator[FiniteAlgebra]:
    """Flat algebras with tables built anew for each, two valid ones, then
    one with x1 v x1 = x1. Nothing keeps a valid one alive once the next
    is taken, so a table object can be freed and its id handed to the
    next table, which makes an id key without a live owner stale."""
    names = generic_names(n)
    star = tuple(range(n))
    for _ in range(rounds):
        for bad in (False, False, True):
            table = tuple([[int(bad and i == j == 1) for j in range(n)]
                           for i in range(n)])
            yield FiniteAlgebra(names, table, table, star, 0, 0)


# The labeled generators that _labeled replaced, verbatim, with the
# dict-per-level involution generator they and _labeled walked.

def _involutions(points: tuple[int, ...]) -> Iterator[dict[int, int]]:
    if not points:
        yield {}
        return
    x, rest = points[0], points[1:]
    for m in _involutions(rest):
        yield {x: x, **m}
    for i, y in enumerate(rest):
        for m in _involutions(rest[:i] + rest[i + 1:]):
            yield {x: y, y: x, **m}


def _flat_labeled(n: int) -> Iterator[FiniteAlgebra]:
    """Every flat algebra on {0..n-1}, one per involution of 1..n-1. All of
    them share one names tuple and one all-zero table."""
    names = generic_names(n)
    zeros = ((0,) * n,) * n
    for inv in _involutions(tuple(range(1, n))):
        star = [0] * n
        for x, y in inv.items():
            star[x] = y
        yield FiniteAlgebra(names=names, join=zeros, meet=zeros,
                            star=tuple(star), zero=0, one=0)


def _boolean_tables(regs: list[int], zero: int, one: int):
    """Join/meet/star tables on a regular set that admits a Boolean
    structure with the given bounds, or None.

    For sizes 2 and 4 (all that fit under the guard) the structure is
    unique: with four elements the two non-bound elements are complementary
    atoms.
    """
    rset = set(regs)
    if len(rset) == 2:
        join = {(zero, zero): zero, (zero, one): one,
                (one, zero): one, (one, one): one}
        meet = {(zero, zero): zero, (zero, one): zero,
                (one, zero): zero, (one, one): one}
        return join, meet, {zero: one, one: zero}
    if len(rset) == 4:
        s, t = sorted(rset - {zero, one})
        join, meet = {}, {}
        for x in rset:
            for y in rset:
                join[(x, y)] = _b4_join(x, y, zero, one)
                meet[(x, y)] = _b4_meet(x, y, zero, one)
        return join, meet, {zero: one, one: zero, s: t, t: s}
    return None


def _b4_join(x, y, zero, one):
    if x == zero:
        return y
    if y == zero:
        return x
    if x == y:
        return x
    return one


def _b4_meet(x, y, zero, one):
    if x == one:
        return y
    if y == one:
        return x
    if x == y:
        return x
    return zero


def _nonflat_labeled(n: int) -> Iterator[FiniteAlgebra]:
    """All valid non-flat algebras on {0..n-1} with the zero constant at
    index 0."""
    names = generic_names(n)
    carrier = list(range(n))
    for one in range(1, n):
        fixed = {0, one}
        others = [x for x in carrier if x not in fixed]
        for mask in range(1 << len(others)):
            regs = sorted(fixed | {x for i, x in enumerate(others) if mask >> i & 1})
            tables = _boolean_tables(regs, 0, one)
            if tables is None:
                continue
            join_r, meet_r, star_r = tables
            irregulars = [x for x in carrier if x not in set(regs)]
            for assignment in product(regs, repeat=len(irregulars)):
                rep = {x: x for x in regs}
                rep.update(zip(irregulars, assignment))
                members: dict[int, list[int]] = {r: [] for r in regs}
                for x, r in zip(irregulars, assignment):
                    members[r].append(x)
                if any(len(members[r]) != len(members[star_r[r]]) for r in regs):
                    continue
                pairs = [(r, star_r[r]) for r in regs if r < star_r[r]]
                choices = [list(permutations(members[rb])) for _, rb in pairs]
                for combo in product(*choices):
                    star = {r: star_r[r] for r in regs}
                    for (ra, _), perm in zip(pairs, combo):
                        for u, v in zip(members[ra], perm):
                            star[u] = v
                            star[v] = u
                    join = tuple(
                        tuple(join_r[(rep[x], rep[y])] for y in carrier)
                        for x in carrier)
                    meet = tuple(
                        tuple(meet_r[(rep[x], rep[y])] for y in carrier)
                        for x in carrier)
                    alg = FiniteAlgebra(
                        names=names, join=join, meet=meet,
                        star=tuple(star[x] for x in carrier),
                        zero=0, one=one)
                    if validate(alg).passed:
                        yield alg


def tables(a):
    return (a.names, a.join, a.meet, a.star, a.zero, a.one)


# The recursive star generators that the byte involutions of
# _involutions and the cloud bijections of _cloud_stars replaced,
# verbatim, and the _labeled and star walk that used them, renamed; each
# star-only copy is made by the constructor.

def _involutions_into(star: list[int], points: tuple[int, ...]) -> Iterator[None]:
    """Write each involution of points into star, in turn: x = points[0]
    fixed first, then x paired with each later point, the rest filled
    recursively in the same order. Yields once per involution, with
    star[p] set for every p in points."""
    if not points:
        yield
        return
    x, rest = points[0], points[1:]
    star[x] = x
    yield from _involutions_into(star, rest)
    for i, y in enumerate(rest):
        star[x], star[y] = y, x
        yield from _involutions_into(star, rest[:i] + rest[i + 1:])


def _bijections_into(star: list[int], src: list[int],
                     dst: list[int]) -> Iterator[None]:
    """Write each bijection of src onto dst, and its inverse, into star:
    src[i] <-> perm[i] for each perm of dst in permutations order."""
    for perm in permutations(dst):
        for u, v in zip(src, perm):
            star[u], star[v] = v, u
        yield


def _labeled_by_recursion(n: int, k: int) -> Iterator[FiniteAlgebra]:
    """Every algebra on {0..n-1} with zero at index 0 and 2^k regular
    elements, each once.

    img[i] is the regular element for the subset i of the k atoms; the
    atoms img[1], img[2], img[4], ... increase, which keeps one labeling
    per permutation of the atoms. Each irregular x gets a cloud rep[x],
    clouds s and s ^ top have equal sizes, and the tables follow from
    x v y = (x v x) v (y v y). For k = 0 (the flat case) the stars come
    in the order of _involutions_into on 1..n-1.
    """
    names = generic_names(n)
    top = (1 << k) - 1
    for p in permutations(range(1, n), top):
        img = (0,) + p
        if any(img[1 << i] > img[2 << i] for i in range(k - 1)):
            continue
        rep = [0] * n
        star = [0] * n
        for s, r in enumerate(img):
            rep[r], star[r] = s, img[s ^ top]
        irregulars = [x for x in range(n) if x not in img]
        for clouds in product(range(top + 1), repeat=len(irregulars)):
            members: list[list[int]] = [[] for _ in range(top + 1)]
            for x, s in zip(irregulars, clouds):
                rep[x] = s
                members[s].append(x)
            if any(len(members[s]) != len(members[s ^ top])
                   for s in range(top + 1)):
                continue
            joins = [tuple(img[s | t] for t in rep) for s in range(top + 1)]
            meets = [tuple(img[s & t] for t in rep) for s in range(top + 1)]
            join = tuple(joins[s] for s in rep)
            meet = tuple(meets[s] for s in rep)
            # The family of this cloud assignment shares names and tables.
            stars = _stars_by_recursion(star, members, top, 0)
            first = FiniteAlgebra(names=names, join=join, meet=meet,
                                  star=next(stars), zero=0, one=img[top])
            yield first
            for st in stars:
                yield FiniteAlgebra(names=names, join=join, meet=meet,
                                    star=st, zero=0, one=img[top])


def _stars_by_recursion(star: list[int], members: list[list[int]],
                        top: int, s: int) -> Iterator[tuple[int, ...]]:
    """Fill the star on the irregulars one cloud pair (s, s ^ top) at a
    time, from s to the last pair top >> 1: an involution of the cloud when
    s ^ top == s, else a bijection onto the complementary cloud."""
    src, dst = members[s], members[s ^ top]
    if s == s ^ top:
        fills = _involutions_into(star, tuple(src))
    else:
        fills = _bijections_into(star, src, dst)
    last = s == top >> 1
    for _ in fills:
        if last:
            yield tuple(star)
        else:
            yield from _stars_by_recursion(star, members, top, s + 1)


class TestLabeledGenerator:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_same_algebras_as_old_generators(self, n):
        old = [a for a in _flat_labeled(n) if validate(a).passed]
        old.extend(_nonflat_labeled(n))
        new = [a for k in range(n.bit_length()) for a in labeled(n, k)]
        assert sorted(map(tables, new)) == sorted(map(tables, old))

    @pytest.mark.parametrize("n", range(1, 12))
    def test_flat_order_as_old_generator(self, n):
        assert (list(map(tables, labeled(n, 0)))
                == list(map(tables, _flat_labeled(n))))

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 9)
                                     for k in range(n.bit_length())]
                             + [(10, 1)])
    def test_tables_and_order_as_recursion(self, n, k):
        # The families of _labeled are the recursion's runs of equal join,
        # in its order, each with its stars sorted.
        runs = [list(run) for _, run in groupby(_labeled_by_recursion(n, k),
                                                attrgetter("join"))]
        made = [_made_and_checked([family])[0] for family in _labeled(n, k)]
        assert ([list(map(tables, family)) for family in made]
                == [sorted(map(tables, run)) for run in runs])
        # The sort is needed: with one atom, from 8 elements on, some runs
        # are out of order.
        unsorted = sum(run != sorted(run, key=attrgetter("star")) for run in runs)
        assert (unsorted > 0) == (n >= 8 and k == 1), unsorted

    @pytest.mark.parametrize("m", range(13))
    def test_involutions_as_recursion(self, m):
        # The buffers of _involutions(m + 1), joined, are the rows of the
        # recursion on 1..m with 0 fixed, in its order; there is one
        # buffer per image of 1, and its rows all have that image.
        star = [0] * (m + 1)
        expected = [bytes(star) for _ in _involutions_into(star, tuple(range(1, m + 1)))]
        buffers = list(qba.enumeration._involutions(m + 1))
        assert b"".join(buffers) == b"".join(expected)
        assert len(expected) == involution_count(m)
        assert len(buffers) == max(m, 1)
        for y, buf in enumerate(buffers, 1):
            assert len(buf) % (m + 1) == 0 and set(buf[1::m + 1]) <= {y}
        if m == 11:
            assert len(expected) == 35_696

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
    def test_odd_sizes_skip_the_cloud_scan(self, n, monkeypatch):
        # Non-flat algebras have even order, so an odd size gets no
        # cloud assignment scanned and no star built.
        calls = []
        real = qba.enumeration.product
        monkeypatch.setattr(qba.enumeration, "product",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        assert [a for k in range(1, n.bit_length()) for a in _labeled(n, k)] == []
        assert calls == []

    @pytest.mark.parametrize("n,ks", [(n, range(n.bit_length())) for n in range(1, 8)]
                             + [(n, [0]) for n in (8, 9, 10, 11)])
    def test_star_only_copies_equal_constructed(self, n, ks):
        for k in ks:
            for a in labeled(n, k):
                b = FiniteAlgebra(*tables(a))
                assert a == b and a.label == b.label and hash(a) == hash(b)
                assert tables(a) == tables(b) and type(a.star) is tuple

    def test_three_atoms_beyond_the_oracle(self):
        # One labeling per Boolean algebra on 8 points with zero at 0:
        # 7! placements of the nonzero elements over 3! atom orders.
        algebras = labeled(8, 3)
        assert len(algebras) == 840
        assert len(set(map(tables, algebras))) == 840
        assert all(validate(a).passed for a in algebras)


# The per-assignment equation check that holds_in replaced, verbatim, with
# the recursive evaluator it walked.

def eval_term(a: FiniteAlgebra, t: Term, env: Mapping[str, int]) -> int:
    """Evaluate by table lookup. env maps variable names to element indices."""
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise UnboundVariable(f"variable {t.name!r} is not assigned") from None
    if isinstance(t, Const):
        return a.zero if t.value == 0 else a.one
    if isinstance(t, Star):
        return a.star[eval_term(a, t.inner, env)]
    left = eval_term(a, t.left, env)
    right = eval_term(a, t.right, env)
    table = a.join if isinstance(t, Join) else a.meet
    return table[left][right]


def holds_in_by_walk(a: FiniteAlgebra, eq: Equation) -> Verdict:
    """Exhaustive check over all assignments; the first counterexample in
    lexicographic order (variables sorted by name) becomes the witness."""
    names = sorted(variables(eq.lhs) | variables(eq.rhs))
    for values in product(range(a.size), repeat=len(names)):
        env = dict(zip(names, values))
        lv = eval_term(a, eq.lhs, env)
        rv = eval_term(a, eq.rhs, env)
        if lv != rv:
            return Verdict(valid=False, witness=Witness(
                assignment=tuple((nm, a.names[v]) for nm, v in zip(names, values)),
                lhs_value=a.names[lv],
                rhs_value=a.names[rv],
                algebra=a.label or f"{a.size}-element algebra",
            ))
    return Verdict(valid=True)


def assert_same_verdicts(a, equations):
    for eq in equations:
        assert holds_in(a, eq) == holds_in_by_walk(a, eq), qba.format_equation(eq)


MEET, JOIN = "/\\", "\\/"

# QB laws in three variables: valid in every QB-algebra, so a full scan.
LAWS = [parse_equation(t) for t in (
    "x \\/ (y \\/ z) = (x \\/ y) \\/ z",
    "x /\\ (y \\/ z) = (x /\\ y) \\/ (x /\\ z)",
    "(x /\\ (y /\\ z))' = (x' \\/ y') \\/ z'")]


def chain(op, k):
    return f" {op} ".join(f"x{i:02}" for i in range(k))


class TestHoldsIn:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_corpus_on_fixtures(self, fx, seed):
        for k, count in ((3, 40), (4, 12), (5, 30)):
            eqs = equation_corpus(count, seed=seed * 10 + k, max_depth=5,
                                  names=("u", "v", "x", "y", "z")[:k])
            for a in fx.values():
                assert_same_verdicts(a, eqs)

    def test_corpus_on_every_class(self):
        eqs = equation_corpus(30, seed=5, max_depth=5)
        for n in range(1, 6):
            for a in enumerate_all(n, True).iso_classes:
                assert_same_verdicts(a, eqs)

    def test_corpus_on_single_cell_mutants(self, fx):
        # Mutants break commutativity, so an operand order swapped between
        # element and column would show.
        eqs = equation_corpus(15, seed=9, max_depth=4)
        for name in ("4", "F3"):
            for a in single_cell_mutants(fx[name]):
                assert_same_verdicts(a, eqs)

    def test_closed_equations(self, fx):
        eqs = [parse_equation(t) for t in ("0 = 1", "1 = 1", "0' = 1",
                                           "1 /\\ 0' = 1 \\/ 0")]
        for a in fx.values():
            assert_same_verdicts(a, eqs)

    def test_one_element_algebra(self):
        (a,) = enumerate_all(1, True).iso_classes
        eqs = equation_corpus(20, seed=7, max_depth=5)
        eqs.append(parse_equation(chain(JOIN, 20) + " = 0"))
        assert_same_verdicts(a, eqs)
        assert all(holds_in(a, eq).valid for eq in eqs)

    def test_constant_against_column(self, fx):
        eqs = [parse_equation(t) for t in ("x /\\ y = 0", "0 = x /\\ y",
                                           "1 = (x /\\ y)' \\/ z",
                                           "x \\/ x' = 1")]
        for a in fx.values():
            assert_same_verdicts(a, eqs)

    @pytest.mark.parametrize("name, k", [("2", 12), ("2", 13), ("4", 6), ("4", 7)])
    def test_block_boundary(self, fx, name, k):
        # 2^12 and 4^6 fill one block exactly; one more variable makes n blocks.
        a = fx[name]
        assert a.size ** k in (BLOCK, BLOCK * a.size)
        eqs = [parse_equation(f"{chain(op, k)} = {side}")
               for op in (MEET, JOIN) for side in ("0", "1", "x00")]
        assert_same_verdicts(a, eqs)

    def test_witness_in_the_last_block(self, fx):
        # In 2 the meet of 13 variables is 1 only when every one is 1: the
        # last assignment of the second block of 4,096.
        a, eq = fx["2"], parse_equation(chain(MEET, 13) + " = 0")
        v = holds_in(a, eq)
        assert v == holds_in_by_walk(a, eq)
        assert v.witness.assignment == tuple((f"x{i:02}", "1") for i in range(13))

    # n = 16 is the largest carrier with byte columns: there the pair index
    # l*n + r of two columns reaches 255, the last entry of a byte table.

    @pytest.mark.parametrize("k", [2, 8, 16])
    def test_flat_on_sixteen(self, k):
        a = make_flat(16, k)
        assert a.size ** 2 == 256
        assert_same_verdicts(a, equation_corpus(20, seed=11, max_depth=4))

    def test_product_on_sixteen(self, fx):
        a = direct_product(fx["4"], fx["4"])
        eqs = equation_corpus(20, seed=12, max_depth=5) + LAWS
        eqs += [parse_equation(f"{chain(op, 3)} = {side}")
                for op in (MEET, JOIN) for side in ("0", "1", "x02", "x00'")]
        assert_same_verdicts(a, eqs)
        assert all(holds_in(a, eq).valid for eq in LAWS)

    def test_single_cell_mutants_on_sixteen(self, fx):
        # Each mutant breaks commutativity at a cell with a large pair
        # index, so an operand order swapped between the two columns, or a
        # wrong last entry, would show.
        base = direct_product(fx["4"], fx["4"])
        eqs = [parse_equation(t) for t in ("x \\/ y = y \\/ x", "x /\\ y = y /\\ x",
                                           "x \\/ (x /\\ y) = x \\/ x",
                                           "x' /\\ y = (y \\/ x)'")]
        eqs += equation_corpus(6, seed=13, max_depth=4, names=("x", "y"))
        for k in (1, 2):
            for i, j in ((15, 14), (14, 15), (0, 15), (15, 1)):
                for v in (0, 9, 15):
                    args = fields(base)
                    if v != args[k][i][j]:
                        args[k] = with_cell(args[k], i, j, v)
                        assert_same_verdicts(FiniteAlgebra(*args), eqs)

    def test_list_columns_past_sixteen(self, fx):
        # 18 * 18 > 256: the columns stay lists of element indices.
        a = direct_product(fx["6"], fx["F3"])
        eqs = equation_corpus(12, seed=14, max_depth=4) + LAWS
        eqs += [parse_equation(f"{chain(op, 3)} = {side}")
                for op in (MEET, JOIN) for side in ("0", "x02")]
        assert_same_verdicts(a, eqs)
        assert all(holds_in(a, eq).valid for eq in LAWS)

    def test_late_witness_on_6(self, fx):
        # The meet of k variables on 6 is 0 unless all lie in the top cloud,
        # which comes last: the witness sits late in the scan, past the first
        # block when k = 5.
        a = fx["6"]
        eqs = []
        for k in (4, 5):
            meet = chain(MEET, k)
            eqs += [parse_equation(f"{meet} = 0"), parse_equation(f"({meet})' = 1")]
        assert_same_verdicts(a, eqs)
        assert all(holds_in(a, eq).witness.assignment[0][1] != "0" for eq in eqs)


# holds_in decides an equation of 3 <= k variables, 2^k <= BLOCK, on an
# algebra that passes the accept test through its subdirect factors 2, F2
# and F3 (_holds_by_factors), and scans all n^k assignments otherwise
# (_holds_by_scan). holds_in_by_walk is the oracle of both paths: the same
# verdict, witness included. Each test below notes the path that ran, so
# that the oracle checks both.

def record_paths(monkeypatch) -> list[str]:
    """Note, in order, which path each holds_in call takes."""
    taken = []
    for path in ("_holds_by_factors", "_holds_by_scan"):
        def note(*args, path=path, run=getattr(qba.terms, path)):
            taken.append(path)
            return run(*args)
        monkeypatch.setattr(qba.terms, path, note)
    return taken


# 264 equations of up to four variables: 88 each over x, y, z; w, x, y, z
# (depth 4); and u, v, x, y (depth 3).
FACTOR_CORPUS = (equation_corpus(88, seed=31, max_depth=4)
                 + equation_corpus(88, seed=41, max_depth=4, names=("w", "x", "y", "z"))
                 + equation_corpus(88, seed=51, max_depth=3, names=("u", "v", "x", "y")))


def factor_corpus_algebras(fx) -> list[FiniteAlgebra]:
    """The fixtures, every isomorphism class with n <= 10, 2xF5, 4xF3 and
    AxF3."""
    return [*fx.values(),
            *(a for n in range(1, 11) for a in enumerate_all(n, True).iso_classes),
            direct_product(fx["2"], fx["F5"]), direct_product(fx["4"], fx["F3"]),
            direct_product(fx["A"], fx["F3"])]


def desk_equations() -> list[Equation]:
    """The check ladders of the desk workload: for k = 1..6 the join and
    the meet of k variables against the reverse chain (QL5 and QB5 at
    k = 1), and the late witnesses, the meet of k = 2..6 variables against
    0 and its star against 1."""
    eqs = [parse_equation("x01 \\/ x01 = x01 /\\ x01"), parse_equation("x01'' = x01")]
    for k in range(2, 7):
        for op in (JOIN, MEET):
            eqs.append(parse_equation(f"{chain(op, k)} = " + f" {op} ".join(
                f"x{i:02}" for i in reversed(range(k)))))
        meet = chain(MEET, k)
        eqs += [parse_equation(f"{meet} = 0"), parse_equation(f"({meet})' = 1")]
    return eqs


class TestHoldsInByFactors:
    @staticmethod
    def assert_agree_on_both_paths(algebras, equations, taken):
        for a in algebras:
            assert_same_verdicts(a, equations)
        # Both paths ran, so the oracle checked each of them.
        assert set(taken) == {"_holds_by_factors", "_holds_by_scan"}

    @pytest.mark.parametrize("part", range(4))
    def test_corpus_on_fixtures_classes_and_products(self, fx, part, monkeypatch):
        taken = record_paths(monkeypatch)
        algebras = factor_corpus_algebras(fx)
        self.assert_agree_on_both_paths(algebras[part::4], FACTOR_CORPUS, taken)

    def test_corpus_on_relabelings(self, fx, monkeypatch):
        # Relabelings that move zero off index 0, so no path may read the
        # constants or the Boolean part from the element order.
        taken = record_paths(monkeypatch)
        bases = [a for a in factor_corpus_algebras(fx) if a.size > 1]
        moved = list(islice((b for b in (relabeled(bases[seed % len(bases)], seed)
                                         for seed in range(1000)) if b.zero != 0), 78))
        assert len(moved) == 78
        self.assert_agree_on_both_paths(moved, FACTOR_CORPUS[::3], taken)

    def test_factors_on_fewer_variables(self, fx):
        # holds_in scans below three variables, where both sides can be
        # variables under stars; the factor rule covers them too, and there
        # the parity of the stars counts in F3.
        eqs = [parse_equation(t) for t in (
            "x' = x", "x'' = x", "x''' = x'", "x' = y", "x = y''", "x' = 0",
            "1 = x''", "0 = 1", "x /\\ y = y'", "x \\/ x' = 1")]
        eqs += [eq for eq in FACTOR_CORPUS if len(variables(eq.lhs) | variables(eq.rhs)) < 3]
        for a in factor_corpus_algebras(fx):
            for eq in eqs:
                names = sorted(variables(eq.lhs) | variables(eq.rhs))
                got = qba.terms._holds_by_factors(a, eq, names)
                assert got == holds_in_by_walk(a, eq), qba.format_equation(eq)

    @pytest.mark.parametrize("name", ["6", "A"])
    def test_desk_ladders_and_late_witnesses(self, fx, name, monkeypatch):
        taken = record_paths(monkeypatch)
        self.assert_agree_on_both_paths([fx[name]], desk_equations(), taken)


class TestHoldsInPaths:
    """Which path holds_in takes. The accept test that picks it never
    scans QL1-QL5 or DIST."""

    def test_join_and_star_mutants_keep_the_scan(self, fx, monkeypatch):
        taken = record_paths(monkeypatch)
        scanned = []

        def scan(a, axioms=AXIOMS):
            scanned.append({label for label, _, _ in axioms})
            return _validate_by_tuples(a, axioms)

        monkeypatch.setattr(qba.algebra, "_validate_by_tuples", scan)
        eqs = LAWS + [eq for eq in equation_corpus(30, seed=61, max_depth=4)
                      if len(variables(eq.lhs) | variables(eq.rhs)) == 3]
        mutants = []
        for name in ("4", "6"):
            a = fx[name]
            mutants += [replace(a, join=with_cell(a.join, i, j, v))
                        for i, j in ((1, 2), (a.size - 1, 0)) for v in a.elements()
                        if v != a.join[i][j]]
            mutants += list(star_mutants(a))
        for m in mutants:
            taken.clear()
            assert_same_verdicts(m, eqs)
            assert set(taken) == {"_holds_by_scan"}
        assert scanned and all(labels <= {"QB2", "QB3", "QB4", "QB5"}
                               for labels in scanned)

    def test_two_variables_take_the_scan(self, fx, monkeypatch):
        taken = record_paths(monkeypatch)
        eqs = [parse_equation(t) for t in ("0 = 1", "x'' = x", "x \\/ y = y \\/ x",
                                           "x /\\ y = 0")]
        for a in fx.values():
            assert_same_verdicts(a, eqs)
        assert set(taken) == {"_holds_by_scan"}

    @pytest.mark.parametrize("k, path", [(12, "_holds_by_factors"), (13, "_holds_by_scan")])
    def test_block_bounds_the_factors(self, fx, k, path, monkeypatch):
        # The 2^k assignments over 2 fill one block at k = 12.
        taken = record_paths(monkeypatch)
        assert_same_verdicts(fx["2"], [parse_equation(f"{chain(op, k)} = {side}")
                                       for op in (MEET, JOIN) for side in ("0", "x00")])
        assert set(taken) == {path}
        (one,) = enumerate_all(1, True).iso_classes
        taken.clear()
        assert holds_in(one, parse_equation(chain(JOIN, 20) + " = 0")).valid
        assert taken == ["_holds_by_scan"]

    def test_guard_comes_before_either_path(self, monkeypatch):
        taken = record_paths(monkeypatch)
        with pytest.raises(TooLarge):
            holds_in(make_flat(16, 2), parse_equation(chain(JOIN, 6) + " = 0"))
        assert taken == []

    def test_repeated_checks_scan_the_unary_laws_once(self, fx, monkeypatch):
        # The accept test reads a.structure and a.validation, both kept on
        # the algebra object, so a second check on it scans no axiom.
        scanned = []

        def scan(a, axioms=AXIOMS):
            scanned.append(tuple(label for label, _, _ in axioms))
            return _validate_by_tuples(a, axioms)

        monkeypatch.setattr(qba.algebra, "_validate_by_tuples", scan)
        taken = record_paths(monkeypatch)
        a = load_algebra(dump_algebra(fx["6"]))  # a new object, nothing kept yet
        eqs = [parse_equation("x \\/ (y /\\ z) = (x \\/ y) /\\ (x \\/ z)"),
               parse_equation("x /\\ y = z")]
        verdicts = [holds_in(a, eq) for eq in eqs]
        assert scanned == [("QB2", "QB3", "QB4", "QB5")]
        assert taken == ["_holds_by_factors"] * 2
        assert verdicts == [holds_in_by_walk(a, eq) for eq in eqs]
        assert verdicts[0].valid and not verdicts[1].valid

    def test_three_variables_on_144_elements_in_under_half_a_second(self, fx):
        a = direct_product(fx["6"], direct_product(fx["6"], fx["4"]))
        assert a.size == 144
        start = time.perf_counter()
        assert all(holds_in(a, eq).valid for eq in LAWS)
        assert time.perf_counter() - start < 0.5


# The congruence search as it was, with a second prune on the pairs
# x < y < m against column m, verbatim.

def all_congruences_two_prunes(a: FiniteAlgebra) -> list[Partition]:
    """Every congruence, in canonical order.

    Partitions are generated as restricted-growth assignments with early
    compatibility pruning on the assigned prefix; each survivor still gets
    the full check, so pruning can only cut the search, never change it.
    """
    n = a.size
    if n > MAX_EXHAUSTIVE:
        raise TooLarge(f"carrier of {n} exceeds the guard of {MAX_EXHAUSTIVE}")
    join, meet, star = a.join, a.meet, a.star
    assign = [0] * n
    found: list[Partition] = []

    def prefix_ok(m: int) -> bool:
        # Constraints decidable from elements 0..m that involve m.
        g = assign[m]
        for x in range(m):
            if assign[x] == g:
                sx, sm = star[x], star[m]
                if sx <= m and sm <= m and assign[sx] != assign[sm]:
                    return False
                for c in range(m + 1):
                    u, v = join[x][c], join[m][c]
                    if u <= m and v <= m and assign[u] != assign[v]:
                        return False
                    u, v = meet[x][c], meet[m][c]
                    if u <= m and v <= m and assign[u] != assign[v]:
                        return False
            else:
                for y in range(x + 1, m):
                    if assign[y] != assign[x]:
                        continue
                    u, v = join[x][m], join[y][m]
                    if u <= m and v <= m and assign[u] != assign[v]:
                        return False
                    u, v = meet[x][m], meet[y][m]
                    if u <= m and v <= m and assign[u] != assign[v]:
                        return False
        return True

    def rec(m: int, nblocks: int):
        if m == n:
            groups: dict[int, list[int]] = {}
            for x, g in enumerate(assign):
                groups.setdefault(g, []).append(x)
            p = Partition.from_blocks(n, groups.values())
            if is_congruence(a, p):
                found.append(p)
            return
        for g in range(nblocks + 1):
            assign[m] = g
            if prefix_ok(m):
                rec(m + 1, nblocks + (1 if g == nblocks else 0))
        assign[m] = 0

    rec(0, 0)
    found.sort(key=Partition.sort_key)
    return found


def congruence_corpus():
    fx = qba.all_fixtures()
    yield from fx.values()
    yield direct_product(fx["2"], fx["F3"])
    yield direct_product(fx["2"], fx["F5"])
    yield direct_product(fx["4"], fx["2"])
    yield boolean_algebra(3)


class TestAllCongruences:
    def test_fixtures_and_products(self):
        for a in congruence_corpus():
            assert all_congruences(a) == all_congruences_two_prunes(a)

    @pytest.mark.parametrize("k", [2, 4, 6, 8, 10])
    def test_flat_on_ten(self, k):
        a = make_flat(10, k)
        assert all_congruences(a) == all_congruences_two_prunes(a)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_labeled_algebra(self, n):
        for a in enumerate_all(n, up_to_iso=False).iso_classes:
            assert all_congruences(a) == all_congruences_two_prunes(a)

    def test_single_cell_mutants(self, fx):
        # The construction rests on the split lemma, so it refuses every
        # mutant: none of them is a QB-algebra.
        for name in ("4", "6"):
            for a in single_cell_mutants(fx[name]):
                with pytest.raises(NotAQBAlgebra):
                    all_congruences(a)


# The generated congruence as it was, a fixpoint over the tables, verbatim.
# It is the least congruence only on algebras whose join and meet commute.

def generated_congruence_by_closure(a: FiniteAlgebra, seed) -> Partition:
    """Least congruence containing the seed pairs.

    Union-find closure: repeatedly merge (x v c, y v c), (x ^ c, y ^ c) and
    (x*, y*) for related x, y until stable. Only the left operand varies,
    so this is the least congruence when join and meet commute (QL1).
    """
    n = a.size
    uf = UnionFind(n)
    for x, y in seed:
        uf.union(x, y)
    changed = True
    while changed:
        changed = False
        for block in uf.blocks():
            x = block[0]
            for y in block[1:]:
                if uf.union(a.star[x], a.star[y]):
                    changed = True
                for c in range(n):
                    if uf.union(a.join[x][c], a.join[y][c]):
                        changed = True
                    if uf.union(a.meet[x][c], a.meet[y][c]):
                        changed = True
    return Partition.from_blocks(n, uf.blocks())


SEED_FAMILIES = ("fixtures", "products", "flat",
                 *(f"labeled-{n}" for n in range(1, 7)))


class TestGeneratedCongruence:
    @pytest.mark.parametrize("family", SEED_FAMILIES)
    def test_as_by_closure(self, seed_corpus, family):
        for a, seeds in seed_corpus[family]:
            for seed in seeds:
                assert (generated_congruence(a, seed)
                        == generated_congruence_by_closure(a, seed)), (a.label, seed)

    def test_corpus_size(self, seed_corpus):
        assert list(seed_corpus) == list(SEED_FAMILIES)
        cases = [seeds for family in seed_corpus.values() for _, seeds in family]
        assert (len(cases), sum(map(len, cases))) == (258, 25930)

    def test_meet_alone_forces_a_merge(self):
        # Star is the identity and join is constant, so only 1 ^ 0 = 2
        # against 0 ^ 0 = 0 ties 2 to the seed block. The table fails the
        # axioms, so only the closure takes it; the library refuses it.
        zeros = ((0,) * 3,) * 3
        meet = ((0, 0, 0), (2, 0, 0), (0, 0, 0))
        a = FiniteAlgebra(("0", "1", "2"), zeros, meet, (0, 1, 2), 0, 0)
        assert generated_congruence_by_closure(a, [(0, 1)]) == Partition.whole(3)
        assert len(validate(a).violations) == 6
        with pytest.raises(NotAQBAlgebra):
            generated_congruence(a, [(0, 1)])


# The dedupe that iso_class_key replaced, verbatim: a bucket of cheap
# invariants, then an isomorphism search against each representative.

def iso_signature(a: FiniteAlgebra) -> tuple:
    """Cheap invariants used to bucket algebras before isomorphism search."""
    regs = regular_elements(a)
    clouds = cloud_map(a)
    return (
        a.size,
        is_flat(a),
        len(regs),
        sum(1 for x in a.elements() if a.star[x] == x),
        tuple(sorted(len(clouds[r]) for r in regs)),
    )


def dedupe_by_search(algebras) -> list[FiniteAlgebra]:
    reps: list[FiniteAlgebra] = []
    sigs: list[tuple] = []
    for a in algebras:
        sig = iso_signature(a)
        if any(sig == s and find_isomorphism_by_search(a, r) is not None
               for r, s in zip(reps, sigs)):
            continue
        reps.append(a)
        sigs.append(sig)
    return reps


class TestDedupe:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_same_representatives(self, n):
        labeled = enumerate_all(n, up_to_iso=False).iso_classes
        reps = dedupe_up_to_iso(labeled)
        assert list(map(tables, reps)) == list(map(tables, dedupe_by_search(labeled)))

    def test_fixtures_products_and_flat_algebras(self, fx):
        # A has clouds of sizes 2, 1, 1, 2, so with a third atom from 2 the
        # key depends on the order of the atoms.
        A, two = fx["A"], fx["2"]
        algebras = [*congruence_corpus(), boolean_algebra(2), direct_product(A, two),
                    direct_product(two, A), direct_product(direct_product(two, A), A)]
        algebras += [make_flat(n, k) for n in range(1, 11) for k in range(n % 2 or 2, n + 1, 2)]
        assert (list(map(tables, dedupe_up_to_iso(algebras)))
                == list(map(tables, dedupe_by_search(algebras))))


# The up-to-isomorphism path that _classes replaced, verbatim: every
# labeled algebra built, sorted, deduplicated by iso_class_key and
# relabeled.

def labeled_sorted(n: int) -> list[FiniteAlgebra]:
    algebras = [a for k in range(n.bit_length()) for a in labeled(n, k)]
    algebras.sort(key=lambda a: (a.one, a.join, a.meet, a.star))
    return algebras


def enumerate_all_by_dedupe(n: int) -> EnumerationReport:
    labeled = labeled_sorted(n)
    reps = dedupe_up_to_iso(labeled)
    algebras = tuple(a.relabel(f"qba{n}_{i}") for i, a in enumerate(reps))
    return EnumerationReport(size=n, flat_only=False, up_to_iso=True,
                             total_labeled=len(labeled), iso_classes=algebras,
                             violations=_made_and_checked((a, ()) for a in algebras)[1])


# The orbit-stabilizer count that labeled_count replaced: (n - 1)!/|Aut|
# labelings with zero at 0 per class.

def flat_automorphisms(n: int, f: int) -> int:
    """|Aut| of the flat algebra of size n with f star fixed points: the
    f - 1 nonzero fixed points and the m pairs permute freely, and each
    pair may be swapped."""
    m = (n - f) // 2
    return factorial(f - 1) * factorial(m) * 2 ** m


def cloud_automorphisms(c: tuple[int, ...]) -> int:
    """|Aut| of the non-flat class with cloud sizes c: the stabilizer of c
    among the atom permutations times (c[s] - 1)! per pair of
    complementary clouds (the irregulars of one cloud permute freely, and
    the star carries that to the other cloud)."""
    k = len(c).bit_length() - 1
    masks = [s for s, size in enumerate(c) for _ in range(size)]
    stabilizer = sum(sizes == c for _, sizes in atom_relabelings(masks, k))
    return stabilizer * prod(factorial(p - 1) for p in c[:len(c) // 2])


def orbit_stabilizer_counts(n: int) -> Counter:
    """The labeled algebras of size n per number of atoms, summed over the
    classes."""
    labelings = factorial(n - 1)
    counts = Counter({0: sum(labelings // flat_automorphisms(n, f)
                             for f in range(n, 0, -2))})
    for c in _cloud_classes(n):
        counts[len(c).bit_length() - 1] += labelings // cloud_automorphisms(c)
    return counts


class TestIsoFromClasses:
    """enumerate_all(n, True) builds one algebra per class from its cloud
    sizes; the old path built every labeled algebra and kept the least of
    each class. labeled_count gives the number of labeled algebras in
    closed form; the orbit-stabilizer sum over the classes and the
    labeled generator count them too."""

    CLASSES = (1, 2, 2, 4, 3, 6, 4, 9, 5, 12, 6, 16, 7, 21, 8, 28)

    @staticmethod
    def fields(report):
        def labeled(a):
            return (*tables(a), a.label)
        return (report.size, report.flat_only, report.up_to_iso,
                report.total_labeled, [labeled(a) for a in report.iso_classes],
                [(claim, labeled(a)) for claim, a in report.violations])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_same_report_as_by_dedupe(self, n):
        assert (self.fields(enumerate_all(n, True))
                == self.fields(enumerate_all_by_dedupe(n)))

    def test_eight_against_the_labeled_algebras(self):
        # Past two atoms the atoms are no longer interchangeable, and the
        # representative need not be the least labeled algebra of its
        # class (B8 here); it is one of the class all the same.
        labeled = labeled_sorted(8)
        assert len(labeled) == 6952
        old, new = dedupe_up_to_iso(labeled), enumerate_all(8, True).iso_classes
        pairs = [(i, j) for i, a in enumerate(new) for j, b in enumerate(old)
                 if find_isomorphism(a, b) is not None]
        assert sorted(i for i, _ in pairs) == list(range(9))
        assert sorted(j for _, j in pairs) == list(range(9))
        small = [(i, j) for i, j in pairs if len(regular_elements(new[i])) <= 4]
        assert len(small) == 8
        for i, j in small:
            assert tables(new[i]) == tables(old[j])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_orbit_stabilizer_counts_the_labeled_algebras(self, n):
        # Per number k of atoms: (n - 1)!/|Aut| summed over the classes is
        # the number of algebras _labeled(n, k) builds, and so is the
        # closed form.
        counts = orbit_stabilizer_counts(n)
        assert counts == Counter({k: len(labeled(n, k))
                                  for k in range(n.bit_length())})
        assert labeled_count(n) == sum(counts.values())

    @pytest.mark.parametrize("n", range(1, 17))
    def test_closed_form_is_the_orbit_stabilizer_sum(self, n):
        counts = orbit_stabilizer_counts(n)
        assert labeled_count(n) == sum(counts.values())
        assert labeled_count(n, flat_only=True) == counts[0]
        assert enumerate_all(n, True).total_labeled == labeled_count(n)

    def test_pinned_counts(self):
        reports = [enumerate_all(n, True) for n in range(1, 17)]
        assert tuple(len(r.iso_classes) for r in reports) == self.CLASSES
        assert reports[11].total_labeled == 66_896_336
        assert reports[15].total_labeled == 2_437_629_533_536
        assert all(r.violations == () for r in reports)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_representatives_validate_and_are_pairwise_non_isomorphic(self, n):
        reps = enumerate_all(n, True).iso_classes
        assert all(validate(a).passed for a in reps)
        for a, b in combinations(reps, 2):
            assert find_isomorphism(a, b) is None


def relabeled(a: FiniteAlgebra, seed: int) -> FiniteAlgebra:
    """a with its elements moved to the places of a seeded random
    permutation, names and constants included."""
    place = random.Random(seed).sample(range(a.size), a.size)
    old = sorted(a.elements(), key=place.__getitem__)

    def moved(table):
        return tuple(tuple(place[table[x][y]] for y in old) for x in old)

    return FiniteAlgebra(tuple(a.names[x] for x in old), moved(a.join),
                         moved(a.meet), tuple(place[a.star[x]] for x in old),
                         place[a.zero], place[a.one])


class TestIsomorphismFromClouds:
    """find_isomorphism builds the least isomorphism from the clouds; the
    search finds the least one by backtracking. They give the same map, or
    both None."""

    @staticmethod
    def assert_same_map(a, b):
        built, found = find_isomorphism(a, b), find_isomorphism_by_search(a, b)
        assert (built and built.mapping) == (found and found.mapping), (a, b)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_labeled_against_a_relabeling(self, n):
        for i, a in enumerate(enumerate_all(n, up_to_iso=False).iso_classes):
            twin = relabeled(a, 1000 * n + i)
            self.assert_same_map(a, twin)
            self.assert_same_map(twin, a)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_pair_of_classes(self, n):
        classes = enumerate_all(n).iso_classes
        for a, b in product(classes, repeat=2):
            self.assert_same_map(a, b)

    @pytest.mark.parametrize("n", range(1, 12))
    def test_flat_classes(self, n):
        classes = enumerate_flat(n).iso_classes
        for i, a in enumerate(classes):
            for b in (*classes, relabeled(a, 100 * n + i)):
                self.assert_same_map(a, b)

    def test_fixtures_and_products(self, fx):
        four, two, A = fx["4"], fx["2"], fx["A"]
        algebras = [*fx.values(), direct_product(four, four),
                    direct_product(two, fx["F5"]), direct_product(four, two),
                    direct_product(A, fx["F3"]), boolean_algebra(3)]
        for i, a in enumerate(algebras):
            for b in (*algebras, relabeled(a, i)):
                self.assert_same_map(a, b)

    def test_invalid_input_is_refused(self, fx):
        mutant = next(single_cell_mutants(fx["4"]))
        for a, b in ((mutant, fx["4"]), (fx["4"], mutant)):
            with pytest.raises(NotAQBAlgebra):
                find_isomorphism(a, b)


# The checks that congruences and quotients ran on their own results
# before the validated-algebra gate. Each re-derived a theorem about
# QB-algebras; here they run over every algebra of the corpus and every
# congruence.

@cache
def theorem_corpus() -> tuple[FiniteAlgebra, ...]:
    """The fixtures, 2xF3, 4x2 and every algebra of enumerate_all(n, True)
    for n <= 6."""
    fx = qba.all_fixtures()
    return (*fx.values(), direct_product(fx["2"], fx["F3"]),
            direct_product(fx["4"], fx["2"]),
            *(a for n in range(1, 7) for a in enumerate_all(n, True).iso_classes))

def quotient_by_all_representatives(a: FiniteAlgebra, theta: Partition):
    """quotient as it was: every representative of every block pair is
    looked up, and a disagreement fails."""
    if not is_congruence(a, theta):
        raise NotACongruence("quotient requires a congruence")
    nb = len(theta.blocks)

    def induced(table) -> tuple[tuple[int, ...], ...]:
        out = []
        for bi in theta.blocks:
            row = []
            for bj in theta.blocks:
                results = {theta.block_index(table[x][y]) for x in bi for y in bj}
                if len(results) != 1:
                    raise AssertionError(
                        f"blocks {bi} and {bj} give representative-dependent results")
                row.append(results.pop())
            out.append(tuple(row))
        return tuple(out)

    star_out = []
    for bi in theta.blocks:
        results = {theta.block_index(a.star[x]) for x in bi}
        if len(results) != 1:
            raise AssertionError(f"star on block {bi} is representative-dependent")
        star_out.append(results.pop())

    names = tuple(f"[{a.names[block[0]]}]" for block in theta.blocks)
    q = FiniteAlgebra(
        names=names,
        join=induced(a.join),
        meet=induced(a.meet),
        star=tuple(star_out),
        zero=theta.block_index(a.zero),
        one=theta.block_index(a.one),
        label=f"{a.label}/~" if a.label else "",
    )
    proj = ElementMap(a.size, nb, tuple(theta.block_index(x) for x in a.elements()))
    return q, proj


def set_partitions(n: int) -> Iterator[Partition]:
    """Every partition of {0..n-1}, each once."""
    def rec(x, blocks):
        if x == n:
            yield Partition.from_blocks(n, blocks)
            return
        for b in blocks:
            b.append(x)
            yield from rec(x + 1, blocks)
            b.pop()
        blocks.append([x])
        yield from rec(x + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def is_congruence_pairwise(a: FiniteAlgebra, p: Partition) -> bool:
    """is_congruence as it was: every pair of every block is compared."""
    member = p._member
    join, meet, star = a.join, a.meet, a.star
    for block in p.blocks:
        for x, y in combinations(block, 2):
            if member[star[x]] != member[star[y]]:
                return False
            jx, jy, mx, my = join[x], join[y], meet[x], meet[y]
            for c in range(a.size):
                if member[jx[c]] != member[jy[c]] or member[mx[c]] != member[my[c]]:
                    return False
    return True


class TestIsCongruence:
    def test_every_partition_as_pairwise(self, fx):
        # Every set partition of the fixtures and 2xF3, and of 30 seeded
        # single-cell join mutants of each, or all of them where there are
        # fewer (invalid algebras included).
        checked = accepted = 0
        for a in (*fx.values(), direct_product(fx["2"], fx["F3"])):
            joins = [m for m in single_cell_mutants(a) if m.join != a.join]
            for b in (a, *random.Random(a.size).sample(joins, min(30, len(joins)))):
                for p in set_partitions(b.size):
                    got = is_congruence(b, p)
                    assert got == is_congruence_pairwise(b, p), (b.label, p)
                    checked += 1
                    accepted += got
        assert (checked, accepted) == (21526, 1265)


def star_closed(a: FiniteAlgebra, part: Partition, carrier: list[int]) -> bool:
    """part, over the positions of carrier, maps its blocks to blocks under
    the star."""
    local = {g: i for i, g in enumerate(carrier)}
    blocks = set(part.blocks)
    return all(tuple(sorted(local[a.star[carrier[i]]] for i in block)) in blocks
               for block in part.blocks)


def partial_injections(m: int, k: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Every injective map from a subset of range(m) into range(k), as
    sorted (argument, image) pairs."""
    for size in range(min(m, k) + 1):
        for domain in combinations(range(m), size):
            for image in permutations(range(k), size):
                yield tuple(zip(domain, image))


def flat_principal_union(a: FiniteAlgebra, x: int, y: int) -> frozenset:
    """The stated four-case union of principal_congruence_flat, diagonal
    and both orientations included."""
    sx, sy = a.star[x], a.star[y]
    if x == sx and y == sy:
        extra = {(x, y)}
    elif x == sx:
        extra = {(x, y), (sx, sy), (y, sy)}
    elif y == sy:
        extra = {(x, y), (sx, sy), (x, sx)}
    else:
        extra = {(x, y), (sx, sy), (x, sx), (y, sy), (x, sy), (sx, y)}
    union = {(e, e) for e in a.elements()} | extra
    return frozenset(union | {(q, p) for p, q in extra})


def regular_parts(a: FiniteAlgebra):
    regs = sorted(regular_elements(a))
    return regs, [x for x in a.elements() if x not in set(regs)], subalgebra(a, regs)


class TestTheoremRechecks:
    def test_corpus(self):
        assert len(theorem_corpus()) == 27
        assert all(validate(a).passed for a in theorem_corpus())

    def test_quotient_by_all_representatives(self, congruence_cache):
        for a in theorem_corpus():
            for theta in congruence_cache(a):
                q, proj = quotient(a, theta)
                q0, proj0 = quotient_by_all_representatives(a, theta)
                assert tables(q) == tables(q0) and q.label == q0.label and proj == proj0

    def test_quotient_needs_the_gate(self, fx):
        # is_congruence varies the left operand only, which is enough when
        # join and meet commute (QL1). On a mutant where they do not, it
        # accepts partitions whose quotient depends on the representatives,
        # so quotient refuses such algebras instead of reading one.
        ill_defined = 0
        for a in single_cell_mutants(fx["4"]):
            for theta in all_congruences_two_prunes(a):
                with pytest.raises(NotAQBAlgebra):
                    quotient(a, theta)
                try:
                    quotient_by_all_representatives(a, theta)
                except AssertionError:
                    ill_defined += 1
        assert ill_defined > 0

    def test_split_biconditional(self, congruence_cache):
        for a in theorem_corpus():
            qchi, pchi = quotient(a, chi(a))
            qtau, ptau = quotient(a, tau(a))
            for theta in congruence_cache(a):
                t1, t2 = split_congruence(a, theta)
                assert is_congruence(qchi, t1) and is_congruence(qtau, t2)
                for x in a.elements():
                    for y in a.elements():
                        both = (t1.relates(pchi(x), pchi(y))
                                and t2.relates(ptau(x), ptau(y)))
                        assert both == theta.relates(x, y), (a, theta, x, y)

    def test_decompose_round_trip(self, congruence_cache):
        # The cross part is also the filter of theta's pairs that
        # decompose read before it built them from f.
        for a in theorem_corpus():
            if not is_flat(a):
                regs = set(regular_elements(a))
                for theta in congruence_cache(a):
                    d = decompose(a, theta)
                    assert compose_nonflat(a, d) == theta
                    assert d.cross == {(p, q) for p, q in theta.as_pairs()
                                       if (p in regs) != (q in regs)}

    def test_compose_nonflat_on_every_passing_input(self, congruence_cache):
        # Every theta_r, star-closed theta_ir and injective block map that
        # passes (C1)-(C3) assembles a transitive union that is a
        # congruence, and every congruence is assembled exactly once.
        for a in theorem_corpus():
            if is_flat(a):
                continue
            regs, irs, reg_alg = regular_parts(a)
            got = []
            for theta_r in congruence_cache(reg_alg):
                for theta_ir in set_partitions(len(irs)):
                    if not star_closed(a, theta_ir, irs):
                        continue
                    for f in partial_injections(len(theta_r.blocks), len(theta_ir.blocks)):
                        d = CongruenceDecomposition(
                            theta_r=theta_r, theta_ir=theta_ir,
                            linked=frozenset(b for b, _ in f), f=f,
                            cross=cross_pairs(a, theta_r, theta_ir, f))
                        try:
                            result = compose_nonflat(a, d)
                        except DecompositionConditionError:
                            continue
                        union = {(e, e) for e in a.elements()} | d.cross
                        union |= {(regs[p], regs[q]) for p, q in theta_r.as_pairs()}
                        union |= {(irs[p], irs[q]) for p, q in theta_ir.as_pairs()}
                        assert result.as_pairs() == union
                        got.append(result)
            assert sorted(got, key=Partition.sort_key) == congruence_cache(a)

    def test_compose_flat_on_every_star_closed_input(self, congruence_cache):
        flats = [make_flat(n, k) for n in range(1, 8) for k in range(n % 2 or 2, n + 1, 2)]
        for a in flats:
            _, irs, _ = regular_parts(a)
            got = [compose_flat(a, p) for p in set_partitions(len(irs))
                   if star_closed(a, p, irs)]
            # The construction keeps 0 alone in its block.
            assert sorted(got, key=Partition.sort_key) == [
                p for p in congruence_cache(a) if p.block_of(a.zero) == (a.zero,)]

    def test_embed_into_product(self):
        for a in theorem_corpus():
            emb = embed_into_product(a)
            qchi, pchi = quotient(a, chi(a))
            qtau, ptau = quotient(a, tau(a))
            assert emb.mapping == tuple(pchi(x) * qtau.size + ptau(x) for x in a.elements())
            assert emb.is_injective
            assert is_homomorphism(a, direct_product(qchi, qtau), emb)

    def test_principal_nonflat(self, congruence_cache):
        seen = 0
        for a in theorem_corpus():
            if is_flat(a):
                continue
            regs, irs, reg_alg = regular_parts(a)
            for theta_r in congruence_cache(reg_alg):
                reg_pairs = {(regs[p], regs[q]) for p, q in theta_r.as_pairs()}
                for x in irs:
                    for y in sorted(cloud_of(a, x) - set(regs)):
                        got = principal_congruence_nonflat(a, theta_r, x, y)
                        sx, sy = a.star[x], a.star[y]
                        union = {(e, e) for e in a.elements()} | reg_pairs
                        union |= {(x, y), (y, x), (sx, sy), (sy, sx)}
                        assert got.as_pairs() == union
                        assert is_congruence(a, got)
                        assert got == generated_congruence(a, list(reg_pairs) + [(x, y)])
                        seen += 1
        assert seen == 100

    def test_principal_flat(self, congruence_cache):
        flats = [make_flat(n, k) for n in range(2, 8) for k in range(n % 2 or 2, n + 1, 2)]
        flats += [qba.fixture("F3"), qba.fixture("F5")]
        four_distinct = 0
        for a in flats:
            for x in range(1, a.size):
                for y in range(1, a.size):
                    if x == y:
                        continue
                    got = principal_congruence_flat(a, x, y)
                    assert got.as_pairs() == flat_principal_union(a, x, y)
                    assert got in congruence_cache(a)
                    gen = generated_congruence(a, [(x, y)])
                    if len({x, y, a.star[x], a.star[y]}) == 4:
                        assert gen.refines(got) and gen != got
                        four_distinct += 1
                    else:
                        assert gen == got
        assert four_distinct > 50

    def test_cep_restrict_back(self, congruence_cache):
        for a in theorem_corpus():
            for subset in subalgebras(a):
                for theta0 in congruence_cache(subalgebra(a, subset)):
                    ext = extend_from_subalgebra(a, subset, theta0)
                    assert ext.restrict(subset) == theta0


# validate settles QL1-QL5 and DIST by the mask test (FiniteAlgebra.structure:
# join and meet are the union and intersection of atom masks) and scans only
# QB2-QB5 when it holds; otherwise it scans all ten axioms.
# _validate_by_tuples over all ten is the oracle. Both must give the same
# ValidationReport, witnesses included.

def seeded_mutants(a: FiniteAlgebra, seed: int, count: int) -> Iterator[FiniteAlgebra]:
    """count copies of a, each with one seeded cell of join, meet or star
    set to another element."""
    rng = random.Random(seed)
    n = a.size
    for _ in range(count):
        k, i, j = rng.randrange(1, 4), rng.randrange(n), rng.randrange(n)
        shift = rng.randrange(1, n)
        args = fields(a)
        if k == 3:
            args[3] = with_entry(a.star, j, (a.star[j] + shift) % n)
        else:
            args[k] = with_cell(args[k], i, j, (args[k][i][j] + shift) % n)
        yield FiniteAlgebra(*args)


class TestValidateByTables:
    @staticmethod
    def assert_same_reports(algebras) -> set[str]:
        """The labels of the failed axioms over all algebras. On each, the
        mask test is checked against the oracle: every valid algebra passes
        it, and where it passes no q-lattice law and not DIST fails. The
        same tables given as lists get the same report."""
        failed = set()
        for a in algebras:
            report = _validate_by_tuples(a)
            assert validate(a) == report, (a.join, a.meet, a.star)
            lattice = a.structure is not None
            if lattice:
                assert all(label.startswith("QB") for label, _ in report.violations)
            else:
                assert not report.passed
            listed = FiniteAlgebra(a.names, list(map(list, a.join)),
                                   list(map(list, a.meet)), list(a.star),
                                   a.zero, a.one)
            assert (listed.structure is not None) == lattice
            assert validate(listed) == report
            failed.update(label for label, _ in report.violations)
        return failed

    def test_single_cell_mutants_of_fixtures(self, fx):
        mutants = [m for name in qba.FIXTURE_NAMES for m in single_cell_mutants(fx[name])]
        assert len(mutants) == 1268
        # Every axiom fails on some mutant, so every row comparison is
        # checked on its failing side too.
        assert self.assert_same_reports(mutants) == set(AXIOM_LABELS)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_labeled_algebras_and_star_mutants(self, n):
        algebras = enumerate_all(n, up_to_iso=False).iso_classes
        mutants = [m for a in algebras for m in star_mutants(a)]
        self.assert_same_reports([*algebras, *mutants])

    def test_flat_on_nine(self):
        self.assert_same_reports(make_flat(9, k) for k in range(1, 10, 2))

    def test_products_and_mutants(self, fx):
        two, four = fx["2"], fx["4"]
        four_f3 = direct_product(four, fx["F3"])
        products = [direct_product(two, fx["F5"]), direct_product(four, two),
                    boolean_algebra(3), four_f3]
        self.assert_same_reports(products + list(seeded_mutants(four_f3, 12, 50)))

    def test_one_element(self):
        self.assert_same_reports([FiniteAlgebra(("0",), ((0,),), ((0,),), (0,), 0, 0)])

    def test_large_carriers(self, fx):
        four = fx["4"]
        six_six_four = direct_product(fx["6"], direct_product(fx["6"], four))
        assert validate(relabeled(six_six_four, 0)).passed
        self.assert_same_reports(
            seeded_mutants(direct_product(four, direct_product(four, four)), 64, 3))

    def test_byte_boundary(self):
        b256 = boolean_algebra(8)
        assert b256.size == 256 and validate(b256).passed
        for mutant in seeded_mutants(b256, 256, 3):
            report = validate(mutant)
            assert not report.passed
            for label, witness in report.violations:
                assert not axiom_holds_at(mutant, label, witness)

    def test_reference_scan_takes_qb_only_on_mask_tables(self, fx, monkeypatch):
        scanned = []
        monkeypatch.setattr(qba.algebra, "_validate_by_tuples", lambda a, axioms:
                            scanned.append(tuple(label for label, _, _ in axioms)))
        four = fx["4"]
        join_mutant = replace(four, join=with_cell(four.join, 1, 2, 0))
        for a in (make_flat(256, 2), make_flat(257, 1), next(star_mutants(four)),
                  join_mutant):
            validate(a)
        qb = ("QB2", "QB3", "QB4", "QB5")
        assert scanned == [qb, qb, qb, AXIOM_LABELS]

    @pytest.mark.parametrize("name", qba.FIXTURE_NAMES)
    def test_single_cell_mutants_on_masks_are_the_star_mutants(self, fx, name):
        # A changed join or meet cell breaks the mask test; a changed star
        # entry leaves it to the scan of QB2-QB5.
        a = fx[name]
        for m in single_cell_mutants(a):
            assert (m.structure is not None) == (m.join == a.join and m.meet == a.meet)

    def test_288_elements_in_under_a_second(self, fx):
        six, four, two = fx["6"], fx["4"], fx["2"]
        a = direct_product(six, direct_product(six, direct_product(four, two)))
        assert a.size == 288
        start = time.perf_counter()
        assert validate(a).passed
        assert time.perf_counter() - start < 1.0
