"""Property tests: the interval engine against the brute-force oracle,
symmetry invariance of mu(1, .) and of the zero rules, and the sum-split
certificate against a brute-force scan of all 8 symmetric images."""
from unittest import mock

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from permobius import (
    SYMMETRY_LABELS,
    BudgetError,
    SumAnnihilator,
    apply_symmetry,
    certify_zero,
    direct_sum,
    has_opposing_adjacencies,
    interval_mobius,
    mobius,
    pattern_of,
    principal_mobius,
    permcore,
)
from oracles import (
    brute_contains,
    brute_down_set,
    brute_mobius,
    brute_sum_split,
    brute_symmetry,
    skew_sum,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


def perms(min_size=1, max_size=7):
    return st.integers(min_size, max_size).flatmap(
        lambda n: st.permutations(range(1, n + 1)).map(tuple)
    )


@PROPERTY_SETTINGS
@given(perms(max_size=5), perms(max_size=8))
def test_mobius_matches_brute(sigma, pi):
    assert mobius(sigma, pi) == brute_mobius(sigma, pi)


@PROPERTY_SETTINGS
@given(perms(max_size=8))
def test_principal_symmetry_invariance(pi):
    value = principal_mobius(pi)
    for g in SYMMETRY_LABELS:
        assert principal_mobius(apply_symmetry(g, pi)) == value


@PROPERTY_SETTINGS
@given(perms(max_size=9))
def test_certificate_existence_symmetry_invariance(pi):
    certified = certify_zero(pi) is not None
    for g in SYMMETRY_LABELS:
        assert (certify_zero(apply_symmetry(g, pi)) is not None) == certified


def _join_blocks(blocks):
    pi = blocks[0][0]
    for block, skew in blocks[1:]:
        pi = skew_sum(pi, block) if skew else direct_sum(pi, block)
    return pi


def block_sums(max_blocks=6):
    """2 to ``max_blocks`` random blocks joined left to right by direct or
    skew sums, which plants sum splits of pi (direct) and of its reverse
    (skew)."""
    blocks = st.tuples(perms(max_size=5), st.booleans())
    return st.lists(blocks, min_size=2, max_size=max_blocks).map(_join_blocks)


@seed(24)
@PROPERTY_SETTINGS
@given(
    st.one_of(perms(min_size=6, max_size=8), block_sums(max_blocks=4)).filter(
        lambda p: 6 <= len(p) <= 8
    ),
    st.data(),
)
def test_interval_values_match_brute_on_wide_levels(pi, data):
    # levels of up to 70 elements, wider than the exhaustive |pi| <= 5
    # check reaches; sigma is any pattern of pi, 1 and pi included
    size = data.draw(st.integers(1, len(pi)))
    positions = sorted(data.draw(st.permutations(range(len(pi))))[:size])
    sigma = pattern_of([pi[p] for p in positions])
    got = interval_mobius(sigma, pi)
    assert got.keys() == {t for t in brute_down_set(pi) if brute_contains(sigma, t)}
    memo = {}
    assert got == {t: brute_mobius(sigma, t, memo) for t in got}


@PROPERTY_SETTINGS
@given(
    st.one_of(perms(min_size=8, max_size=30), block_sums()).filter(
        lambda p: len(p) >= 8 and not has_opposing_adjacencies(p)
    )
)
# (2413 + 1 + 3142) - 1 - 2413 has a direct and a skew witness;
# 2413 - 1 - 3142 only a skew one, so its first witness is under r
@example((7, 9, 6, 8, 10, 13, 11, 14, 12, 5, 2, 4, 1, 3))
@example((7, 9, 6, 8, 5, 3, 1, 4, 2))
def test_sum_split_certificate_matches_all_images(pi):
    # the first witness in SYMMETRY_LABELS order over all 8 images, which
    # certify_zero finds by scanning pi and its reverse only
    first = next(
        (
            (g, w)
            for g in SYMMETRY_LABELS
            if (w := brute_sum_split(brute_symmetry(g, pi))) is not None
        ),
        None,
    )
    cert = certify_zero(pi)
    if first is None:
        assert not isinstance(cert, SumAnnihilator)
    else:
        g, (s, e, p) = first
        assert cert == SumAnnihilator(window=(s, e), split=p, symmetry=g)


@PROPERTY_SETTINGS
@given(perms(min_size=3), st.data())
def test_budget_nonprincipal(pi, data):
    # sigma is a proper pattern of pi other than 1, so [sigma, pi] has at
    # least two elements: one byte short of the deletion closure trips in
    # its build, and the closure's own count trips once the walk holds the
    # closures of the interval's elements
    size = data.draw(st.integers(2, len(pi) - 1))
    positions = sorted(data.draw(st.permutations(range(len(pi))))[:size])
    sigma = pattern_of([pi[p] for p in positions])
    used = permcore.BUDGET_BYTES - permcore.deletion_levels(pi, len(sigma))[2]
    for budget in (used - 1, used):
        # a function-scoped fixture is not reset between hypothesis examples
        with mock.patch.object(permcore, "BUDGET_BYTES", budget):
            with pytest.raises(BudgetError):
                mobius(sigma, pi)
