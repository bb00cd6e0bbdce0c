import itertools
import random

import pytest

from permobius import (
    BudgetError,
    FinitePosetView,
    MobiusCache,
    PermError,
    apply_symmetry,
    SYMMETRY_LABELS,
    inflate_at,
    interval_as_poset,
    mobius,
    mobius_poset,
    parse,
    principal_mobius,
)
from permobius.permcore import Embedding
from oracles import (
    brute_down_set,
    brute_mobius,
    i_switch,
    poset_from_covers,
    recursive_principal_mobius,
)

perms_of = lambda n: itertools.permutations(range(1, n + 1))


SPOT_VALUES = {
    # pinned principal values; each independently recomputed by brute_mobius
    "1": 1,
    "12": -1,
    "21": -1,
    "123": 0,
    "132": 1,
    "2413": -3,
    "3142": -3,
    "12345": 0,
    "214653": 0,
    "214635": 0,
    "25314": 4,
}


class TestPrincipal:
    def test_spot_values(self):
        for text, mu in SPOT_VALUES.items():
            pi = parse(text)
            assert principal_mobius(pi) == mu
            assert brute_mobius((1,), pi) == mu

    def test_paper_values(self):
        assert principal_mobius(parse("2413")) == brute_mobius((1,), parse("2413")) == -3

    def test_counterexample_values(self):
        assert principal_mobius(parse("32417685")) == -1
        assert principal_mobius(parse("367249815")) == 0
        assert principal_mobius(parse("214635")) == 0

    def test_matches_oracle_exhaustive(self):
        for n in range(1, 6):
            for pi in perms_of(n):
                assert principal_mobius(pi) == brute_mobius((1,), pi)

    def test_matches_oracle_sampled(self):
        rng = random.Random(5)
        for n in (6, 7):
            for _ in range(12):
                pi = tuple(rng.sample(range(1, n + 1), n))
                assert principal_mobius(pi) == brute_mobius((1,), pi)

    def test_pruned_equals_unpruned(self):
        cache_p = MobiusCache()
        cache_u = MobiusCache()
        for n in range(1, 7):
            for pi in perms_of(n):
                assert principal_mobius(pi, pruned=True, cache=cache_p) == principal_mobius(
                    pi, pruned=False, cache=cache_u
                )
        rng = random.Random(17)
        for _ in range(8):
            pi = tuple(rng.sample(range(1, 9), 8))
            assert principal_mobius(pi, pruned=True) == principal_mobius(pi, pruned=False)

    def test_engine_matches_recursion_exhaustive(self):
        # the recursion with certify_zero pruning, against itself unpruned,
        # is the exhaustive soundness check of the zero rules
        cache_p = MobiusCache()
        cache_u = MobiusCache()
        for n in range(1, 8):
            for pi in perms_of(n):
                want = principal_mobius(pi)
                assert recursive_principal_mobius(pi, pruned=True, cache=cache_p) == want
                assert recursive_principal_mobius(pi, pruned=False, cache=cache_u) == want

    def test_symmetry_invariance(self):
        # checked against the definitional oracle, which has no canonicalisation
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(2, 6)
            pi = tuple(rng.sample(range(1, n + 1), n))
            base = brute_mobius((1,), pi)
            for g in SYMMETRY_LABELS:
                assert brute_mobius((1,), apply_symmetry(g, pi)) == base
                assert principal_mobius(apply_symmetry(g, pi)) == base

    def test_sum_to_zero(self):
        # sum of mu(1, tau) over the down-set of pi vanishes for |pi| >= 2
        from permobius import down_set

        for n in range(2, 6):
            for pi in perms_of(n):
                assert sum(principal_mobius(t) for t in down_set(pi)) == 0
        rng = random.Random(31)
        for n in (6, 7):
            for _ in range(6):
                pi = tuple(rng.sample(range(1, n + 1), n))
                assert sum(principal_mobius(t) for t in down_set(pi)) == 0

    def test_budget(self):
        with pytest.raises(BudgetError):
            principal_mobius(parse("2413"), cap=2)


class TestGeneralMobius:
    def test_examples(self):
        assert mobius(parse("12"), parse("2413")) == 3
        assert mobius(parse("2413"), parse("2413")) == 1
        assert mobius(parse("21"), parse("12")) == 0
        assert mobius((1,), parse("2413")) == -3

    def test_reflexive_and_noncomparable(self):
        for pi in perms_of(4):
            assert mobius(pi, pi) == 1

    def test_matches_oracle(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(2, 6)
            pi = tuple(rng.sample(range(1, n + 1), n))
            k = rng.randint(1, n)
            sigma = tuple(rng.sample(range(1, k + 1), k))
            assert mobius(sigma, pi) == brute_mobius(sigma, pi)

    def test_cover_relation(self):
        # mu(sigma, pi) = -(number of occurrences... ) is not generally true,
        # but for covers the defining recursion gives -1 exactly.
        assert mobius(parse("12"), parse("132")) == -1
        assert mobius(parse("132"), parse("1432")) == -1


class TestCache:
    def test_hits_and_misses(self):
        c = MobiusCache()
        principal_mobius(parse("2413"), cache=c)
        misses = c.misses
        principal_mobius(parse("2413"), cache=c)
        assert c.hits >= 1
        assert c.misses == misses

    def test_canonical_sharing_across_symmetries(self):
        c = MobiusCache()
        pi = parse("25314")
        principal_mobius(pi, cache=c)
        before = c.misses
        for g in SYMMETRY_LABELS:
            principal_mobius(apply_symmetry(g, pi), cache=c)
        assert c.misses == before  # all eight variants share one entry


class TestISwitch:
    def test_worked_example(self):
        e = Embedding(parse("41253"), (2, 4, 5))
        f = i_switch(e, 3)
        assert f.image == (2, 3, 4, 5)
        assert f.source == parse("1243")
        # switching again at the same index restores the original
        assert i_switch(f, 3).image == (2, 4, 5)

    def test_involution_random(self):
        rng = random.Random(9)
        for _ in range(50):
            n = rng.randint(2, 7)
            pi = tuple(rng.sample(range(1, n + 1), n))
            image = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
            e = Embedding(pi, image)
            i = rng.randint(1, n)
            if image == (i,):
                continue
            f = i_switch(e, i)
            if set(f.image) != set(image):
                assert i_switch(f, i).image == image

    def test_parity_flip(self):
        e = Embedding(parse("41253"), (2, 4, 5))
        f = i_switch(e, 3)
        assert e.is_even != f.is_even

    def test_empty_image_error(self):
        e = Embedding(parse("123"), (2,))
        with pytest.raises(PermError):
            i_switch(e, 2)

    def test_bad_index(self):
        e = Embedding(parse("123"), (1, 2))
        with pytest.raises(PermError):
            i_switch(e, 4)


class TestPosetView:
    def test_chain(self):
        P = poset_from_covers(["a", "b", "c"], {("a", "b"), ("b", "c")})
        assert P.leq("a", "c")
        assert not P.leq("c", "a")
        assert P.interval("a", "c") == ["a", "b", "c"]
        assert mobius_poset(P, "a", "c") == 0
        assert mobius_poset(P, "a", "b") == -1

    def test_diamond(self):
        covers = {(0, 1), (0, 2), (1, 3), (2, 3)}
        P = poset_from_covers([0, 1, 2, 3], covers)
        assert mobius_poset(P, 0, 3) == 1

    def test_less_predicate(self):
        covers = {(a, a * p) for a in range(1, 13) for p in (2, 3, 5, 7, 11) if a * p <= 12}
        P = poset_from_covers(list(range(1, 13)), covers)
        # classic number-theoretic Mobius on divisors of 12
        assert mobius_poset(P, 1, 12) == 0
        assert mobius_poset(P, 1, 6) == 1
        assert mobius_poset(P, 2, 12) == 1
        assert mobius_poset(P, 1, 2) == -1

    def test_delete(self):
        P = poset_from_covers([0, 1, 2, 3], {(0, 1), (0, 2), (1, 3), (2, 3)})
        Q = P.delete(2)
        assert set(Q.elements) == {0, 1, 3}
        assert mobius_poset(Q, 0, 3) == 0

    def test_validation(self):
        with pytest.raises(PermError):
            poset_from_covers([0, 1], {(0, 1), (1, 0)})
        with pytest.raises(PermError):  # names an element listed later
            FinitePosetView({0: [1], 1: []})
        with pytest.raises(PermError):  # names an unknown element
            FinitePosetView({0: [], 1: [0, 9]})

    def test_interval_as_poset_agrees(self):
        rng = random.Random(13)
        for _ in range(15):
            n = rng.randint(3, 6)
            pi = tuple(rng.sample(range(1, n + 1), n))
            P = interval_as_poset((1,), pi)
            assert mobius_poset(P, (1,), pi) == principal_mobius(pi)

    def test_interval_as_poset_down_sets(self):
        # every decoded down-set of [1, pi] against the subsequence oracle
        patterns = {}
        for n in range(1, 7):
            for pi in perms_of(n):
                P = interval_as_poset((1,), pi)
                for tau in P.elements:
                    if tau not in patterns:
                        patterns[tau] = brute_down_set(tau) - {tau}
                    assert P.strictly_below(tau) == patterns[tau], (pi, tau)


class TestLongHosts:
    def test_inflation_counterexamples(self):
        # inflating the second point of 24153 by each of three length-6
        # annihilator-like patterns gives nonzero principal values
        sigma = parse("24153")
        cache = MobiusCache()
        want = {"235614": -1, "254613": -1, "465213": 1}
        for text, mu in want.items():
            host = inflate_at(sigma, [2], [parse(text)])
            assert principal_mobius(host, cache=cache) == mu
