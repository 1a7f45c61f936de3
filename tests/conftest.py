import random

import pytest

import qba


@pytest.fixture(scope="session")
def fx():
    return qba.all_fixtures()


@pytest.fixture(scope="session")
def congruence_cache():
    cache = {}

    def get(algebra):
        key = (algebra.names, algebra.join, algebra.meet, algebra.star,
               algebra.zero, algebra.one)
        if key not in cache:
            cache[key] = qba.all_congruences(algebra)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def seed_corpus():
    """The algebras on which generated_congruence is compared with the
    closure, by family, each with its seeds: the empty seed, every ordered
    pair (a seeded sample of 400 where there are more) and 60 seeded
    random sets of 1-3 pairs."""
    fx = qba.all_fixtures()
    product = qba.direct_product
    families = {
        "fixtures": list(fx.values()),
        "products": [product(fx[x], fx[y]) for x, y in (
            ("2", "F3"), ("2", "F5"), ("4", "2"), ("4", "4"), ("6", "F3"),
            ("A", "F5"))] + [qba.boolean_algebra(3)],
        "flat": [qba.make_flat(10, k) for k in range(2, 11, 2)]
                + [qba.make_flat(9, k) for k in range(1, 10, 2)],
    }
    for n in range(1, 7):
        families[f"labeled-{n}"] = qba.enumerate_all(n, False).iso_classes
    corpus = {}
    for family, algebras in families.items():
        rng = random.Random(family)
        corpus[family] = []
        for a in algebras:
            n = a.size
            pairs = [(x, y) for x in range(n) for y in range(n)]
            if len(pairs) > 400:
                pairs = rng.sample(pairs, 400)
            seeds = [[]] + [[p] for p in pairs] + [
                [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(1, 3))] for _ in range(60)]
            corpus[family].append((a, seeds))
    return corpus
