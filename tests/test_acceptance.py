"""Acceptance gate: one test per criterion, one printed PASS line each.

Criterion 8 (the length-22 evaluation) is a stretch goal, not gating; it
runs only when PERMOBIUS_STRETCH=1 is set, as does the check that the
default memory budget refuses a random pi of length 30.
"""
import itertools
import math
import os
import random
import time

import pytest

from permobius import (
    MobiusCache,
    certify_zero,
    direct_sum,
    emit_table,
    has_opposing_adjacencies,
    inflate_at,
    parse,
    principal_mobius,
    run_theorem_suites,
    zero_density,
)
from permobius.census import LevelTables, adjacency_counts
from permobius.cli import EXIT_BUDGET, main

EXPECTED_DENSITIES = {
    1: "0.0000",
    2: "0.0000",
    3: "0.3333",
    4: "0.4167",
    5: "0.4833",
    6: "0.5361",
    7: "0.5742",
    8: "0.5942",
}

A_SEQ = (1, 1, 3, 11, 53, 309, 2119)
B_SEQ = (1, 0, 0, 2, 14, 90, 646)


@pytest.fixture(scope="module")
def mu_table8():
    """mu(1, pi) for every |pi| <= 8, served through the MobiusCache get/put."""
    start = time.monotonic()
    table = LevelTables(8)
    elapsed = time.monotonic() - start
    assert elapsed < 900, f"level tables to n=8 took {elapsed:.0f}s"
    return table


def report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_1_table1_densities():
    start = time.monotonic()
    for n in range(1, 8):
        row = zero_density(n)
        assert row.density_str == EXPECTED_DENSITIES[n], f"n={n}"
    assert time.monotonic() - start < 60
    start = time.monotonic()
    row8 = zero_density(8)
    assert row8.density_str == EXPECTED_DENSITIES[8]
    assert emit_table([row8], format="csv").splitlines()[1] == (
        "8,40320,23958,0.5942,18410,16687,5242,12188,2926,2902"
    )
    assert time.monotonic() - start < 900
    report(1, "densities n=1..8 match 0.0000..0.5942; runtime within budget")


def test_criterion_2_theorem1_exhaustive(mu_table8):
    checked = 0
    for n in range(1, 9):
        for pi in itertools.permutations(range(1, n + 1)):
            if has_opposing_adjacencies(pi):
                assert principal_mobius(pi, cache=mu_table8) == 0, pi
                checked += 1
    report(2, f"{checked} opposing-adjacency permutations of length <= 8 all have mu = 0")


def test_criterion_3_adjacency_counts():
    for n in range(1, 8):
        row = zero_density(n)  # raises when its scan disagrees with the recurrences
        a, b, s = adjacency_counts(n)
        assert (row.a_n, row.b_n, row.s_n) == (a, b, s)
        assert (a, b) == (A_SEQ[n - 1], B_SEQ[n - 1])
        assert s == math.factorial(n) - 2 * a + b
    report(3, "census scans of b_n and s_n match the recurrences for n = 1..7; s_n identity exact")


def test_criterion_4_lower_bound():
    limit = (1 - 1 / math.e) ** 2  # ~0.39957
    prev_ratio = -1.0
    for n in range(1, 11):
        a, b, s = adjacency_counts(n)
        ratio = s / math.factorial(n)
        assert ratio < limit
        assert ratio >= prev_ratio
        prev_ratio = ratio
        if n <= 8:
            row = zero_density(n)
            assert row.density >= s / math.factorial(n)
    assert abs(prev_ratio - 0.3996) < 0.12  # approaching from below over n <= 10
    report(4, "d_n >= s_n/n! for n <= 8; s_n/n! increases toward 0.3996 from below")


def test_criterion_5_spot_values(mu_table8):
    assert principal_mobius(parse("123"), cache=mu_table8) == 0
    pi = parse("21")
    for _ in range(4):
        assert principal_mobius(pi, cache=mu_table8) == -1
        pi = direct_sum(pi, parse("21"))
    assert principal_mobius(parse("2413"), cache=mu_table8) == -3
    assert principal_mobius(parse("32417685"), cache=mu_table8) != 0
    assert principal_mobius(parse("214635"), cache=mu_table8) == 0
    for a_text in ("235614", "254613", "465213"):
        host = inflate_at(parse("24153"), [2], [parse(a_text)])
        assert principal_mobius(host, cache=mu_table8) != 0
    report(5, "all pinned mu values match, including the three length-10 hosts")


def test_criterion_6_rule_soundness(mu_table8):
    issued = 0
    for n in range(1, 9):
        for pi in itertools.permutations(range(1, n + 1)):
            if certify_zero(pi) is not None:
                assert principal_mobius(pi, cache=mu_table8) == 0, pi
                issued += 1
    # pruned and unpruned evaluators agree everywhere tested (exhaustive <= 6)
    for n in range(1, 7):
        for pi in itertools.permutations(range(1, n + 1)):
            assert principal_mobius(pi, pruned=True) == principal_mobius(pi, pruned=False)
    report(6, f"{issued} certificates issued for |pi| <= 8, none false; pruned == unpruned")


def test_criterion_7_verify_suite():
    start = time.monotonic()
    rep = run_theorem_suites(n_max=7)
    elapsed = time.monotonic() - start
    assert rep.all_passed, rep.to_text()
    assert elapsed < 600
    report(7, f"all {len(rep.results)} verification suites green in {elapsed:.1f}s")


@pytest.mark.skipif(
    os.environ.get("PERMOBIUS_STRETCH") != "1",
    reason=(
        "stretch criterion; set PERMOBIUS_STRETCH=1 to run "
        "(about 1.5-2 s and 60 MiB peak RSS on a 2-core x86-64 machine)"
    ),
)
def test_criterion_8_length_22_stretch():
    pi = parse("9 17 19 21 18 20 2 12 11 14 16 13 15 5 4 7 6 8 1 22 3 10")
    value = principal_mobius(pi, cache=MobiusCache())
    assert value == 1
    report(8, "mu(1, pi_22) = 1")


@pytest.mark.skipif(
    os.environ.get("PERMOBIUS_STRETCH") != "1",
    reason=(
        "stretch; set PERMOBIUS_STRETCH=1 to run "
        "(about 5 s and 305 MiB peak RSS on a 2-core x86-64 machine)"
    ),
)
def test_default_budget_trips_before_memory_runs_out(capsys):
    # the deletion closure of a random pi of length 30 would need far more
    # memory than the machine has; the default budget refuses it with exit 2
    pi = random.Random(30).sample(range(1, 31), 30)
    code = main(["pmu", " ".join(map(str, pi))])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_BUDGET, "")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
