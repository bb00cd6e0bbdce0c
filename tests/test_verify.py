import copy
import itertools
import json

import pytest

from permobius import (
    CoreInvariantError,
    PermError,
    PreconditionError,
    adjacencies,
    parse,
    run_theorem_suites,
    verify,
)
from permobius.mobius import LevelTables
from permobius.cli import EXIT_VERIFY, main
from permobius.verify import (
    DIAMOND_214635,
    DIAMOND_214653,
    SURVIVORS_214653,
    SUITE_NAMES,
    TippedCore,
    check_eq_cancel_thm1,
    check_fac_del,
    check_fac_nd,
    check_pro_form,
    check_tipped_core,
    planted_deletion_case,
    planted_diamond_poset,
    planted_narrow_poset,
    reconstruct_214635_diamond,
    reconstruct_214653_diamond,
)
from oracles import brute_eq_cancel, poset_from_covers


class TestTippedCores:
    def test_diamond_214653(self):
        assert DIAMOND_214653 == (
            parse("214653"),
            parse("13542"),
            parse("2143"),
            parse("132"),
        )

    def test_diamond_214635(self):
        assert DIAMOND_214635 == (
            parse("214635"),
            parse("13524"),
            parse("21435"),
            parse("1324"),
        )

    def test_survivors(self):
        want = {
            parse(s)
            for s in (
                "1",
                "12",
                "21",
                "231",
                "132",
                "213",
                "2431",
                "1342",
                "2143",
                "13542",
                "214653",
            )
        }
        assert SURVIVORS_214653 == want

    def test_reconstructions(self):
        P, core, elements_ok = reconstruct_214653_diamond()
        assert elements_ok
        assert len(P.elements) == 11
        assert (core.z, core.z_prime, core.w) == (
            parse("13542"),
            parse("2143"),
            parse("132"),
        )
        Q, core2 = reconstruct_214635_diamond()
        assert (core2.z, core2.z_prime, core2.w) == (
            parse("13524"),
            parse("21435"),
            parse("1324"),
        )
        assert check_fac_nd(Q, parse("1"), parse("214635"), core2)


class TestPlantedGenerators:
    def test_narrow_deterministic(self):
        P1, x1, y1, c1 = planted_narrow_poset(42)
        P2, x2, y2, c2 = planted_narrow_poset(42)
        assert P1.elements == P2.elements
        assert (x1, y1, c1) == (x2, y2, c2)

    def test_narrow_satisfies_core_check(self):
        for seed in range(20):
            P, x, y, core = planted_narrow_poset(seed)
            assert core.kind == "narrow"
            assert check_fac_nd(P, x, y, core)

    def test_diamond_satisfies_core_check(self):
        for seed in range(20):
            P, x, y, core = planted_diamond_poset(seed)
            assert core.kind == "diamond"
            assert check_fac_nd(P, x, y, core)

    def test_deletion_case(self):
        for seed in range(20):
            P, x, y = planted_deletion_case(seed)
            assert check_fac_del(P, x, y)

    def test_corrupted_core_rejected(self):
        P, x, y, core = planted_narrow_poset(7)
        wrong = TippedCore("narrow", z=min(e for e in P.elements if e not in (x, y)))
        with pytest.raises(CoreInvariantError):
            check_fac_nd(P, x, y, wrong)
        with pytest.raises(CoreInvariantError):
            check_fac_nd(P, x, y, TippedCore("narrow", z=x))


class TestChecks:
    def test_pro_form_passes(self):
        assert check_pro_form(parse("1"), parse("2413"), seed=1)
        assert check_pro_form(parse("21"), parse("35142"), seed=2)

    def test_pro_form_corruption_detected(self):
        assert not check_pro_form(parse("1"), parse("2413"), seed=1, corrupt=True)

    def test_pro_form_precondition(self):
        with pytest.raises(PreconditionError):
            check_pro_form(parse("321"), parse("1234"), seed=0)

    def test_eq_cancel(self):
        # 12354 has up-adjacencies at 1 and 2, a down-adjacency at 4;
        # 3672154 an up-adjacency at 2, down-adjacencies at 4 and 6
        tables = LevelTables(8)
        assert check_eq_cancel_thm1(parse("12354"), 1, 4, tables)
        assert check_eq_cancel_thm1(parse("3672154"), 2, 6, tables)

    def test_eq_cancel_precondition(self):
        with pytest.raises(PreconditionError):
            check_eq_cancel_thm1(parse("2413"), 1, 2, LevelTables(5))
        # LevelTables(5) hold closures up to length 4 only
        with pytest.raises(PreconditionError, match="n=5"):
            check_eq_cancel_thm1(parse("12354"), 1, 4, LevelTables(5))

    def test_tipped_core_detects_fake(self):
        P = poset_from_covers([0, 1, 2, 3], {(0, 1), (0, 2), (1, 3), (2, 3)})
        # [0, 3) = {0, 1, 2} is not a principal down-set of any single element
        with pytest.raises(CoreInvariantError):
            check_tipped_core(P, 0, 3, TippedCore("narrow", z=1))

    def test_fac_del_precondition(self):
        # deleting an element whose value is nonzero is out of scope
        P = poset_from_covers([0, 1, 2], {(0, 1), (1, 2)})
        with pytest.raises(PreconditionError):
            check_fac_del(P, 0, 1)


def _adjacency_pairs(n):
    """(pi, i, j) for every pi of length n and every up-adjacency i and
    down-adjacency j of it."""
    for pi in itertools.permutations(range(1, n + 1)):
        ups, downs = adjacencies(pi)
        for i, j in itertools.product(ups, downs):
            yield pi, i, j


class TestEqCancel:
    def test_tables_and_oracle_agree(self):
        tables = LevelTables(7)
        memo = {}
        checked = 0
        for n in range(1, 7):
            for pi, i, j in _adjacency_pairs(n):
                want = brute_eq_cancel(pi, i, j, memo)
                assert check_eq_cancel_thm1(pi, i, j, tables) == want, (pi, i, j)
                checked += 1
        assert checked == 328

    def test_tables_and_oracle_agree_at_length_7(self):
        # the tables against the oracle on every pi of length 7 that has
        # both adjacencies, at its first of each
        tables = LevelTables(8)
        memo = {}
        checked = 0
        for pi in itertools.permutations(range(1, 8)):
            ups, downs = adjacencies(pi)
            if ups and downs:
                want = brute_eq_cancel(pi, ups[0], downs[0], memo)
                assert check_eq_cancel_thm1(pi, ups[0], downs[0], tables) == want, pi
                checked += 1
        assert checked == 1448

    def test_zeroed_source_closure_fails(self):
        # the sources of 12354 at (1, 4) are 1243, 1234 and 123; without the
        # closure of 1243 the bottom element 1 lies below the other two only,
        # a pattern whose signed sum is -1
        pi = parse("12354")
        tables = LevelTables(6)
        assert check_eq_cancel_thm1(pi, 1, 4, tables)
        broken = copy.copy(tables)
        broken.closures = {**tables.closures, bytes(parse("1243")): 0}
        assert not check_eq_cancel_thm1(pi, 1, 4, broken)

    def test_suite_reports_a_failed_cancellation(self, capsys, monkeypatch):
        # 1243 is the first pi the suite checks; 132 is its source without
        # the up-adjacency at 1
        def broken_tables(n):
            tables = LevelTables(n)
            tables.closures[bytes(parse("132"))] = 0
            return tables

        monkeypatch.setattr(verify, "LevelTables", broken_tables)
        assert main(["verify", "--nmax", "4", "--suite", "eq-cancel"]) == EXIT_VERIFY
        out = capsys.readouterr().out
        assert out == "FAIL eq-cancel-theorem1 (failed at 1243)\nFAILED\n"


class TestSuiteRunner:
    def test_names(self):
        assert len(SUITE_NAMES) == 11
        assert len(set(SUITE_NAMES)) == 11

    def test_full_run_passes(self):
        report = run_theorem_suites(n_max=5)
        assert report.all_passed
        text = report.to_text()
        assert text.strip().endswith("OK")
        assert text.count("PASS") == len(SUITE_NAMES)
        assert "FAIL" not in text

    def test_subset_selection(self):
        report = run_theorem_suites(n_max=4, suites=["theorem1", "figure-cores"])
        assert report.all_passed
        assert [r.name for r in report.results] == [
            "theorem1-exhaustive",
            "figure-diamond-cores",
        ]

    def test_json_shape(self):
        report = run_theorem_suites(n_max=4, suites=["theorem1"])
        data = json.loads(report.to_json())
        assert data["all_passed"] is True
        assert all({"name", "passed", "detail"} <= set(r) for r in data["checks"])

    def test_unknown_suite(self):
        with pytest.raises(PermError):
            run_theorem_suites(n_max=4, suites=["nope"])

    def test_nmax_cap(self):
        with pytest.raises(PermError):
            run_theorem_suites(n_max=9)
