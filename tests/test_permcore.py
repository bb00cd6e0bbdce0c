import itertools
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permobius import (
    PermError,
    SYMMETRY_LABELS,
    adjacencies,
    apply_symmetry,
    canonical_symmetry_form,
    contains,
    direct_sum,
    down_set,
    find_sum_split_interval,
    fmt,
    inflate_at,
    interval_mobius,
    intervals,
    is_simple,
    parse,
    pattern_of,
    perm,
    symmetry_orbit,
)
from permobius import permcore
from permobius.permcore import deletion_levels, deletions
from permobius.zerorules import _interval_windows
from oracles import (
    Embedding,
    brute_contains,
    brute_deletions,
    brute_down_set,
    brute_intervals,
    brute_mobius,
    brute_sum_split,
    brute_symmetry,
    embeddings,
    inflate,
    interval_copies,
    skew_sum,
)

perms_up_to = lambda n: (
    p for k in range(1, n + 1) for p in itertools.permutations(range(1, k + 1))
)

small_perm = st.integers(1, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)

any_length_perm = st.integers(1, permcore.MAX_LEN).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


class TestParse:
    def test_spaced(self):
        assert parse("3 6 7 2 4 9 8 1 5") == (3, 6, 7, 2, 4, 9, 8, 1, 5)

    def test_compact(self):
        assert parse("367249815") == (3, 6, 7, 2, 4, 9, 8, 1, 5)

    def test_comma(self):
        assert parse("2,4,1,3") == (2, 4, 1, 3)

    def test_singleton(self):
        assert parse("1") == (1,)

    def test_empty(self):
        assert parse("") == ()

    def test_not_bijection(self):
        with pytest.raises(PermError):
            parse("2 2 3")

    def test_not_integers(self):
        # floats are refused, not truncated to (2, 1), and bools, though
        # True == 1, since (True, 2) would format as "True2"
        for values in ([2.7, 1.2], [True, 2]):
            with pytest.raises(PermError):
                perm(values)

    def test_over_cap(self):
        with pytest.raises(PermError):
            perm(range(1, 66))

    def test_fmt_roundtrip(self):
        for text in ("367249815", "1", ""):
            assert fmt(parse(text)) == text
        long = tuple(range(1, 12))
        assert parse(fmt(long)) == long


class TestPatternOf:
    def test_examples(self):
        assert pattern_of((6, 2, 7, 5)) == (3, 1, 4, 2)
        assert pattern_of((1, 2, 3)) == (1, 2, 3)
        assert pattern_of((7, 6, 8, 5)) == (3, 2, 4, 1)

    def test_duplicates(self):
        with pytest.raises(PermError):
            pattern_of((1, 1, 2))

    @given(small_perm)
    def test_idempotent_on_permutations(self, pi):
        assert pattern_of(pi) == pi


class TestEmbeddings:
    def test_paper_example(self):
        # the two occurrences are the subsequences 6275 and 6475
        found = embeddings(parse("3142"), parse("3624715"))
        assert [e.image for e in found] == [(2, 3, 5, 7), (2, 4, 5, 7)]
        assert [e.source for e in found] == [parse("3142")] * 2

    def test_singleton_pattern(self):
        pi = parse("41253")
        assert len(embeddings((1,), pi)) == len(pi)

    def test_named_embedding(self):
        found = embeddings(parse("132"), parse("41253"))
        assert (2, 4, 5) in [e.image for e in found]

    def test_empty_pattern_rejected(self):
        with pytest.raises(PermError):
            embeddings((), parse("12"))

    def test_lexicographic_order(self):
        found = embeddings(parse("12"), parse("1234"))
        assert [e.image for e in found] == sorted(e.image for e in found)

    def test_source_and_parity(self):
        e = Embedding(parse("41253"), (2, 4, 5))
        assert e.source == (1, 3, 2)
        assert not e.is_even
        assert Embedding(parse("41253"), (2, 3, 4, 5)).is_even

    def test_bad_images(self):
        with pytest.raises(PermError):
            Embedding(parse("123"), ())
        with pytest.raises(PermError):
            Embedding(parse("123"), (2, 2))
        with pytest.raises(PermError):
            Embedding(parse("123"), (1, 4))


class TestContains:
    def test_examples(self):
        assert contains(parse("3142"), parse("3624715"))
        pi = parse("2413")
        assert contains(pi, pi)
        assert not contains(parse("321"), parse("1234"))
        assert contains((), parse("1"))

    def test_three_path_agreement_exhaustive(self):
        # contains == (count of brute-force embeddings >= 1) == down-set membership
        for pi in perms_up_to(5):
            ds = down_set(pi)
            for k in range(1, len(pi) + 1):
                for sigma in itertools.permutations(range(1, k + 1)):
                    c = contains(sigma, pi)
                    assert c == (len(embeddings(sigma, pi)) >= 1)
                    assert c == (sigma in ds)

    def test_three_path_agreement_sampled(self):
        rng = random.Random(7)
        for n in (6, 7):
            for _ in range(30):
                pi = tuple(rng.sample(range(1, n + 1), n))
                k = rng.randint(1, n)
                sigma = tuple(rng.sample(range(1, k + 1), k))
                c = contains(sigma, pi)
                assert c == brute_contains(sigma, pi)
                assert c == (len(embeddings(sigma, pi)) >= 1)


class TestDownSet:
    def test_2413(self):
        want = {parse(s) for s in ("1", "12", "21", "132", "213", "231", "312", "2413")}
        assert down_set(parse("2413")) == want

    def test_singleton(self):
        assert down_set((1,)) == {(1,)}

    def test_123(self):
        assert down_set(parse("123")) == {(1,), (1, 2), (1, 2, 3)}

    def test_matches_brute(self):
        rng = random.Random(11)
        for pi in perms_up_to(5):
            assert down_set(pi) == brute_down_set(pi)
        for _ in range(10):
            pi = tuple(rng.sample(range(1, 7), 6))
            assert down_set(pi) == brute_down_set(pi)

    def test_deletion_closure(self):
        for pi in perms_up_to(5):
            ds = down_set(pi)
            dels = {
                pattern_of(pi[:i] + pi[i + 1 :]) for i in range(len(pi))
            } - {()}
            assert dels <= ds
            # every maximal proper element arises from a single-point deletion
            proper = ds - {pi}
            maximal = {
                t
                for t in proper
                if not any(u != t and contains(t, u) for u in proper)
            }
            assert maximal <= dels

    def test_budget(self, monkeypatch):
        from permobius import BudgetError

        used = permcore.BUDGET_BYTES - deletion_levels(parse("2413"), 1)[2]
        monkeypatch.setattr(permcore, "BUDGET_BYTES", used - 1)
        with pytest.raises(BudgetError):
            down_set(parse("2413"))


class TestDeletionLevels:
    def test_levels_and_edges_exhaustive(self):
        # each level holds every pattern of its length once, each mapped to
        # itself; a key's k children, read from its slice of the level's
        # list, are its deletions of values 1..k in turn, each the very key
        # object of the next level
        for pi in perms_up_to(6):
            levels, children, _ = deletion_levels(pi, 1)
            below = brute_down_set(pi)
            want = [{t for t in below if len(t) == len(pi) - d} for d in range(len(pi))]
            assert [{tuple(t) for t in level} for level in levels] == want, pi
            assert [len(level) for level in levels] == list(map(len, want)), pi
            assert all(level[t] is t for level in levels for t in level)
            assert len(children) == len(levels) - 1
            for d, kids in enumerate(children):
                k = len(pi) - d
                assert len(kids) == k * len(levels[d])
                for j, tau in enumerate(levels[d]):
                    row = kids[j * k : (j + 1) * k]
                    assert {tuple(c) for c in row} == brute_deletions(tuple(tau))
                    assert [tuple(c) for c in row] == [
                        pattern_of([x for x in tau if x != v]) for v in range(1, k + 1)
                    ]
                    assert all(levels[d + 1][c] is c for c in row)

    def test_levels_wider_than_a_block(self):
        # [1, pi] for the benchmark's length-12 anchor has levels of 403 and
        # 455 patterns, so their children are made a block at a time
        pi = parse("3 6 1 9 4 11 7 2 12 5 10 8")
        levels, children, _ = deletion_levels(pi, 1)
        assert max(map(len, levels)) > permcore._BLOCK
        below = brute_down_set(pi)
        assert [{tuple(t) for t in level} for level in levels] == [
            {t for t in below if len(t) == len(pi) - d} for d in range(len(pi))
        ]
        for d, kids in enumerate(children):
            assert [tuple(c) for c in kids] == [
                pattern_of([x for x in tau if x != v])
                for tau in levels[d]
                for v in range(1, len(pi) - d + 1)
            ]
        assert interval_mobius((1,), pi)[pi] == -73

    def test_stops_at_length(self):
        levels, edges, _ = deletion_levels(parse("2413"), 3)
        assert [tuple(t) for t in levels[0]] == [parse("2413")]
        assert {tuple(t) for t in levels[1]} == {
            parse(s) for s in ("132", "213", "231", "312")
        }
        assert len(levels) == 2 and len(edges) == 1
        levels, edges, _ = deletion_levels(parse("2413"), 4)
        assert ([[tuple(t) for t in level] for level in levels], edges) == (
            [[parse("2413")]],
            [],
        )

    def test_deletions_match_brute_exhaustive(self):
        for pi in perms_up_to(7):
            assert deletions(pi) == brute_deletions(pi), pi

    @given(any_length_perm)
    @settings(max_examples=60, deadline=None)
    @example(tuple(range(permcore.MAX_LEN, 0, -1)))
    def test_deletions_match_brute_up_to_max_len(self, pi):
        # a length-64 pi deletes value 64 through the top translate table
        assert deletions(pi) == brute_deletions(pi)

    def test_cap_counts_every_level(self, monkeypatch):
        from permobius import BudgetError

        # the count is the bytes of every pattern below the top, and each
        # level's dict and list of children: at that many bytes the 8
        # elements of [1, 2413] fit, and one byte less trips
        levels, children, left = deletion_levels(parse("2413"), 1)
        used = permcore.BUDGET_BYTES - left
        getsizeof = sys.getsizeof
        assert used == sum(
            getsizeof(level) + sum(map(getsizeof, level)) for level in levels[1:]
        ) + sum(map(getsizeof, children))
        monkeypatch.setattr(permcore, "BUDGET_BYTES", used)
        assert deletion_levels(parse("2413"), 1)[2] == 0
        assert sum(map(len, deletion_levels(parse("2413"), 1)[0])) == 8
        monkeypatch.setattr(permcore, "BUDGET_BYTES", used - 1)
        with pytest.raises(BudgetError):
            deletion_levels(parse("2413"), 1)


class TestIntervalMobius:
    def test_examples(self):
        got = interval_mobius(parse("12"), parse("2413"))
        want = {parse(s) for s in ("12", "132", "213", "231", "312", "2413")}
        assert got.keys() == want
        pi = parse("2413")
        assert interval_mobius(pi, pi) == {pi: 1}
        assert interval_mobius(parse("21"), parse("12")) == {}

    def test_keys_match_brute_force_exhaustive(self):
        # every pair with |pi| <= 5, including sigma = (), sigma == pi,
        # incomparable sigma and sigma longer than pi
        below = {pi: brute_down_set(pi) for pi in perms_up_to(5)}
        sigmas = [()] + list(perms_up_to(5)) + [parse("123456"), parse("246135")]
        for pi in [()] + list(perms_up_to(5)):
            for sigma in sigmas:
                want = {
                    t
                    for t in below.get(pi, ())
                    if not sigma or sigma in below.get(t, ())
                }
                assert interval_mobius(sigma, pi).keys() == want, (sigma, pi)
                assert bool(want) == (bool(pi) and brute_contains(sigma, pi))

    def test_values_match_brute_mobius(self):
        memo = {}
        for pi in perms_up_to(5):
            for sigma in brute_down_set(pi):
                got = interval_mobius(sigma, pi)
                for tau, value in got.items():
                    assert value == brute_mobius(sigma, tau, memo), (sigma, tau)

    def test_keys_are_the_brute_interval_in_walk_order(self):
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randint(2, 7)
            pi = tuple(rng.sample(range(1, n + 1), n))
            positions = sorted(rng.sample(range(n), rng.randint(1, n)))
            sigma = pattern_of([pi[p] for p in positions])
            keys = list(interval_mobius(sigma, pi))
            want = {t for t in brute_down_set(pi) if brute_contains(sigma, t)}
            assert set(keys) == want
            assert keys[0] == sigma and keys[-1] == pi
            assert [len(t) for t in keys] == sorted(len(t) for t in keys)

    def test_empty_when_sigma_not_below(self):
        for pi in perms_up_to(5):
            for sigma in perms_up_to(len(pi) + 1):
                if not brute_contains(sigma, pi):
                    assert interval_mobius(sigma, pi) == {}, (sigma, pi)


class TestCompose:
    def test_examples(self):
        assert direct_sum(parse("21"), direct_sum((1,), parse("21"))) == parse("21354")
        assert direct_sum(parse("3241"), parse("3241")) == parse("32417685")
        assert direct_sum((), parse("2413")) == parse("2413")

    def test_skew(self):
        assert skew_sum((1,), (1,)) == (2, 1)
        assert skew_sum(parse("12"), parse("21")) == parse("3421")


class TestInflate:
    def test_paper_examples(self):
        sigma = parse("3624715")
        parts = [parse(s) for s in ("1", "12", "1", "1", "21", "1", "1")]
        assert inflate(sigma, parts) == parse("367249815")
        parts = [(), (1,), (1,), (), (1,), (), (1,)]
        assert inflate(sigma, parts) == parse("3142")
        assert inflate((1,), [parse("2413")]) == parse("2413")

    def test_inflate_at(self):
        assert inflate_at(parse("3624715"), [2, 5], [parse("12"), parse("21")]) == parse(
            "367249815"
        )
        sigma = parse("24153")
        assert inflate_at(sigma, [3], [(1,)]) == sigma
        host = inflate_at(sigma, [2], [parse("235614")])
        assert len(host) == 10

    def test_unsorted_positions(self):
        assert inflate_at(parse("3624715"), [5, 2], [parse("21"), parse("12")]) == parse(
            "367249815"
        )

    def test_errors(self):
        with pytest.raises(PermError):
            inflate(parse("12"), [(1,)])
        with pytest.raises(PermError):
            inflate(parse("12"), [(), ()])
        with pytest.raises(PermError):
            inflate_at(parse("12"), [1, 1], [(1,), (1,)])
        with pytest.raises(PermError):
            inflate_at(parse("12"), [3], [(1,)])
        with pytest.raises(PermError, match="at least one part must be nonempty"):
            inflate_at((1,), [1], [()])

    @given(small_perm, small_perm, st.data())
    @settings(max_examples=60, deadline=None)
    def test_inflation_contains_both(self, tau, alpha, data):
        i = data.draw(st.integers(1, len(tau)))
        host = inflate_at(tau, [i], [alpha])
        assert contains(tau, host)
        assert interval_copies(host, alpha)


class TestAdjacencies:
    def test_examples(self):
        assert adjacencies(parse("367249815")) == ((2,), (6,))
        assert adjacencies(parse("1432")) == ((), (2, 3))
        assert adjacencies(parse("2413")) == ((), ())


class TestIntervalCopies:
    def test_examples(self):
        assert (2, 3) in interval_copies(parse("367249815"), parse("12"))
        assert (1, 3) in interval_copies(parse("32417685"), parse("213"))
        pi = parse("2413")
        assert interval_copies(pi, pi) == [(1, 4)]

    def test_windows_verify_definition(self):
        # the zero rules' window map against the brute intervals, by pattern
        for pi in perms_up_to(5):
            want = {}
            for s, e, _ in brute_intervals(pi):
                want.setdefault(pattern_of(pi[s - 1 : e]), []).append((s, e))
            assert _interval_windows(pi, intervals(pi), range(1, len(pi) + 1)) == want, pi


class TestIntervals:
    def test_examples(self):
        assert list(intervals(parse("2413"))) == [
            (1, 1, 2), (1, 4, 1), (2, 2, 4), (3, 3, 1), (4, 4, 3)
        ]
        assert list(intervals(())) == []

    def test_scan_and_filters_match_brute_force(self):
        # the order of the scan and the exact witnesses, for every |pi| <= 8
        for pi in perms_up_to(8):
            found = brute_intervals(pi)
            assert list(intervals(pi)) == found, pi
            assert find_sum_split_interval(pi) == brute_sum_split(pi), pi
            n = len(pi)
            assert is_simple(pi) == all(e - s in (0, n - 1) for s, e, _ in found), pi


class TestSumSplit:
    def test_examples(self):
        assert find_sum_split_interval(parse("21354")) == (1, 5, 3)
        assert find_sum_split_interval(parse("123")) == (1, 3, 2)
        assert find_sum_split_interval(parse("2413")) is None

    def test_equivalent_to_sum_interval_copy(self):
        # witness exists iff some a+1+b occurs as an interval copy
        for pi in perms_up_to(6):
            n = len(pi)
            windows = {pattern_of(pi[s - 1 : e]) for s, e, _ in brute_intervals(pi)}
            brute = any(
                direct_sum(alpha, direct_sum((1,), beta)) in windows
                for la in range(1, n)
                for lb in range(1, n - la)
                for alpha in itertools.permutations(range(1, la + 1))
                for beta in itertools.permutations(range(1, lb + 1))
            )
            assert (find_sum_split_interval(pi) is not None) == brute


class TestSymmetry:
    def test_inverse_example(self):
        assert apply_symmetry("i", parse("2431")) == parse("4132")

    def test_rc_matches_two_steps(self):
        pi = parse("2431")
        two_steps = apply_symmetry("c", apply_symmetry("r", pi))
        assert apply_symmetry("rc", pi) == two_steps == parse("4213")

    def test_identity(self):
        pi = parse("35142")
        assert apply_symmetry("id", pi) == pi

    def test_group_closure(self):
        # the 8 images of this probe are distinct, so its image names the symmetry
        probe = (2, 4, 1, 3, 5)
        label_of = {brute_symmetry(g, probe): g for g in SYMMETRY_LABELS}
        assert len(label_of) == 8
        for g in SYMMETRY_LABELS:
            for h in SYMMETRY_LABELS:
                composite = brute_symmetry(h, brute_symmetry(g, probe))
                assert composite in label_of
                gh = label_of[composite]
                pi = parse("25314")
                assert apply_symmetry(gh, pi) == apply_symmetry(
                    h, apply_symmetry(g, pi)
                )
                assert brute_symmetry(gh, pi) == brute_symmetry(
                    h, brute_symmetry(g, pi)
                )

    def test_unknown_label(self):
        with pytest.raises(PermError):
            apply_symmetry("x", parse("213"))

    def test_containment_automorphism(self):
        rng = random.Random(3)
        for _ in range(120):
            n = rng.randint(2, 6)
            pi = tuple(rng.sample(range(1, n + 1), n))
            k = rng.randint(1, n)
            sigma = tuple(rng.sample(range(1, k + 1), k))
            for g in SYMMETRY_LABELS:
                assert contains(sigma, pi) == contains(
                    apply_symmetry(g, sigma), apply_symmetry(g, pi)
                )

    @given(small_perm)
    def test_involutions(self, pi):
        for g in ("r", "c", "i"):
            assert apply_symmetry(g, apply_symmetry(g, pi)) == pi

    def test_orbit_and_canonical_form_match_labelled_symmetries(self):
        # the labelled maps against the letter-by-letter oracle, exhaustively
        for pi in perms_up_to(8):
            images = [apply_symmetry(g, pi) for g in SYMMETRY_LABELS]
            assert images == [brute_symmetry(g, pi) for g in SYMMETRY_LABELS], pi
            assert symmetry_orbit(pi) == set(images), pi
            assert canonical_symmetry_form(pi) == min(images), pi


class TestSimple:
    def test_examples(self):
        assert is_simple(parse("2413"))
        assert not is_simple(parse("367249815"))
        assert is_simple((1,))

    def test_matches_interval_copy_definition(self):
        for pi in perms_up_to(5):
            n = len(pi)
            has_proper = any(
                max(pi[s : s + k]) - min(pi[s : s + k]) == k - 1
                for k in range(2, n)
                for s in range(n - k + 1)
            )
            assert is_simple(pi) == (not has_proper)
