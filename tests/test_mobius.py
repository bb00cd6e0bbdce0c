import gc
import importlib
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permobius import (
    BudgetError,
    FinitePosetView,
    MobiusCache,
    PermError,
    apply_symmetry,
    SYMMETRY_LABELS,
    certify_zero,
    inflate_at,
    interval_as_poset,
    interval_mobius,
    mobius,
    mobius_poset,
    parse,
    pattern_of,
    principal_mobius,
)
from permobius.mobius import LevelTables, _enter, _levels, _value
from permobius import permcore
from permobius.permcore import down_set
from oracles import (
    Embedding,
    brute_contains,
    brute_down_set,
    brute_interval,
    brute_mobius,
    i_switch,
    poset_from_covers,
    recursive_principal_mobius,
)

# the module itself: the package exports the function ``mobius`` under its name
MOBIUS = importlib.import_module("permobius.mobius")

perms_of = lambda n: itertools.permutations(range(1, n + 1))

#: The length-22 permutation of the stretch criterion, mu(1, PI_22) = 1.
PI_22 = parse("9 17 19 21 18 20 2 12 11 14 16 13 15 5 4 7 6 8 1 22 3 10")


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
        # past the tables: the rules against the walk at lengths 8-11
        rng = random.Random(17)
        for n in range(8, 12):
            for _ in range(8):
                pi = tuple(rng.sample(range(1, n + 1), n))
                assert principal_mobius(pi, pruned=True) == principal_mobius(pi, pruned=False)

    @pytest.mark.parametrize(
        "pi, tag",
        [
            (parse("1243"), "opposing-adjacencies"),
            ((2, 1, *range(3, 65)), "opposing-adjacencies"),
            (parse("123"), "sum-annihilator"),
            (parse("215463"), "base-annihilator"),
            (parse("1342756"), "annihilator-pair"),
            (parse("1 15 6 5 7 4 17 20 2 19 16 3 14 11 13 12 9 18 10 8"), "annihilator-pair"),
        ],
        ids=lambda v: f"{len(v)}" if isinstance(v, tuple) else v,
    )
    def test_pruned_certified_zero_never_walks(self, monkeypatch, pi, tag):
        def walk(sigma, pi):
            raise AssertionError(f"walked [{sigma}, {pi}]")

        monkeypatch.setattr(MOBIUS, "_interval_mobius", walk)
        assert certify_zero(pi).tag == tag
        assert principal_mobius(pi, pruned=True) == 0
        with pytest.raises(AssertionError, match="walked"):
            principal_mobius(pi)  # unpruned by default

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

    def test_budget(self, monkeypatch):
        used = permcore.BUDGET_BYTES - permcore.deletion_levels(parse("2413"), 1)[2]
        monkeypatch.setattr(permcore, "BUDGET_BYTES", used - 1)
        with pytest.raises(BudgetError):
            principal_mobius(parse("2413"))

    @pytest.mark.parametrize("mib", [2, 5])
    def test_tripping_call_stays_near_its_budget(self, monkeypatch, mib):
        # [1, pi] counts 3.6 MiB of levels and 7.0 MiB with the walk's
        # closures, so 2 MiB trips while the levels are built and 5 MiB in
        # the walk.  Either way the traced peak stays within 1/8 of the
        # budget: on CPython 3.11.7 it was 0.93 and 0.79 of it here, and at
        # most 1.04 over random pi of lengths 16-22 and budgets of 1-8 MiB
        pi = tuple(random.Random(16).sample(range(1, 17), 16))
        budget = mib << 20
        monkeypatch.setattr(permcore, "BUDGET_BYTES", budget)
        if mib == 2:
            with pytest.raises(BudgetError):
                permcore.deletion_levels(pi, 1)
        else:
            permcore.deletion_levels(pi, 1)
        gc.collect()
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                principal_mobius(pi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget * 9 / 8

    def test_wide_interval_memory(self):
        # the walk's bitsets number only the nonzero elements (291 of the
        # 13,078 in [1, pi] at 18 entries), so the traced peak grows about
        # as the interval does; bitsets as wide as the interval grow it
        # about as its square.  On CPython 3.11.7, 14 entries (2,255
        # elements) and 18 entries peaked at 0.51 and 3.4 MiB, 6.7 times
        # for 5.8 times the elements; full-width bitsets gave 0.66 and
        # 7.5 MiB, 11.4 times.
        def traced_peak(pi):
            gc.collect()
            tracemalloc.start()
            try:
                principal_mobius(pi)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, wide = (pattern_of(PI_22[:k]) for k in (14, 18))
        growth = len(down_set(wide)) / len(down_set(small))
        assert traced_peak(wide) / traced_peak(small) < 1.5 * growth


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
        # members, decoded down-sets and values of [sigma, pi] against the
        # subsequence oracle: every sigma <= pi with |pi| <= 5, and sigma = 1
        # at |pi| = 6
        patterns = {}
        for n in range(1, 7):
            for pi in perms_of(n):
                below = brute_down_set(pi)
                for sigma in below if n <= 5 else [(1,)]:
                    P = interval_as_poset(sigma, pi)
                    members = {t for t in below if brute_contains(sigma, t)}
                    assert set(P.elements) == members, (sigma, pi)
                    for tau in P.elements:
                        if tau not in patterns:
                            patterns[tau] = brute_down_set(tau) - {tau}
                        assert P.strictly_below(tau) == patterns[tau] & members, (sigma, pi, tau)
                    values = interval_mobius(sigma, pi)
                    assert list(values) == list(P.elements)
                    for tau, value in values.items():
                        assert value == mobius_poset(P, sigma, tau), (sigma, tau)

    def test_elements_are_the_interval_mobius_keys(self):
        # the order check_pro_form relies on, for every sigma <= pi with
        # |pi| <= 5 and for the empty sigma, which both views read as 1
        for n in range(1, 6):
            for pi in perms_of(n):
                for sigma in [(), *brute_down_set(pi)]:
                    P = interval_as_poset(sigma, pi)
                    assert P.elements == tuple(interval_mobius(sigma, pi)), (sigma, pi)
                empty, one = interval_as_poset((), pi), interval_as_poset((1,), pi)
                assert empty.elements == one.elements, pi
                for tau in one.elements:
                    assert empty.strictly_below(tau) == one.strictly_below(tau), (pi, tau)

    def test_interval_reads_the_down_set(self):
        # every (x, y) of every [1, pi] with |pi| <= 5, incomparable pairs
        # included, against the test of every element
        for n in range(1, 6):
            for pi in perms_of(n):
                P = interval_as_poset((1,), pi)
                for x in P.elements:
                    for y in P.elements:
                        assert P.interval(x, y) == brute_interval(P, x, y), (pi, x, y)

    def test_walk_closures_match_level_tables(self):
        # closures number the nonzero elements per interval in the walk and
        # over all shorter permutations in the tables, so only their
        # popcounts compare: both count the nonzero tau' <= tau.
        # LevelTables(8) keeps the closures of every length up to 6.
        tables8 = LevelTables(8)
        for n in range(1, 7):
            for pi in perms_of(n):
                for level, values in _levels((1,), pi):
                    # every tau below pi is in [1, pi], so no closure is 0
                    for (tau, closure), value in zip(level.items(), values):
                        assert closure.bit_count() == tables8.closures[tau].bit_count(), (pi, tau)
                        assert value == tables8.mobius(tuple(tau)), (pi, tau)


class TestBitPlanes:
    @given(
        st.lists(
            st.integers(-5000, 5000).filter(bool)
            | st.sampled_from([1 << 10, -(1 << 10), 1 << 40, -(1 << 40) - 1]),
            max_size=40,
        ),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_value_is_the_per_value_sum(self, values, data):
        classes: dict[int, int] = {}
        for k, v in enumerate(values):
            _enter(classes, v, 1 << k)
        assert all(abs(p).bit_count() == 1 for p in classes)
        below = data.draw(st.integers(0, (1 << len(values)) - 1))
        want = -sum(v for k, v in enumerate(values) if below >> k & 1)
        assert _value(below, classes) == want


class TestPublicResultsAreTuples:
    # fmt renders a leaked bytes like a tuple, so the CLI tests cannot see one
    def test_types(self):
        pi = parse("25314")
        sigma = parse("12")
        assert all(type(t) is tuple for t in interval_mobius(sigma, pi))
        assert all(type(t) is tuple for t in down_set(pi))
        assert all(type(t) is tuple for t in permcore.deletions(pi))
        assert all(type(t) is tuple for t in interval_as_poset(sigma, pi).elements)


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
