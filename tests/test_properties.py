"""Property tests: the interval engine against the brute-force oracle, and
symmetry invariance of mu(1, .) and of the zero rules."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permobius import (
    SYMMETRY_LABELS,
    BudgetError,
    apply_symmetry,
    certify_zero,
    interval_set,
    mobius,
    pattern_of,
    principal_mobius,
)
from oracles import brute_mobius

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


def perms(min_size=1, max_size=7):
    return st.integers(min_size, max_size).flatmap(
        lambda n: st.permutations(range(1, n + 1)).map(tuple)
    )


@PROPERTY_SETTINGS
@given(perms(max_size=5), perms())
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


@PROPERTY_SETTINGS
@given(perms(min_size=3), st.data())
def test_budget_nonprincipal(pi, data):
    # sigma is a proper pattern of pi other than 1, so [sigma, pi] has at
    # least two elements and the cap below is positive
    size = data.draw(st.integers(2, len(pi) - 1))
    positions = sorted(data.draw(st.permutations(range(len(pi))))[:size])
    sigma = pattern_of([pi[p] for p in positions])
    with pytest.raises(BudgetError):
        mobius(sigma, pi, cap=len(interval_set(sigma, pi)) - 1)
