import collections
import copy
import hashlib
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

    def test_narrow_core_is_its_degenerate_diamond(self):
        # a narrow core z passes exactly when the diamond (z, z, z) does
        cases = [planted_narrow_poset(seed) for seed in range(100)]
        P, x, y, _core = planted_narrow_poset(7)
        wrong = min(e for e in P.elements if e not in (x, y))
        cases += [(P, x, y, TippedCore("narrow", z=wrong)), (P, x, y, TippedCore("narrow", z=x))]
        verdicts = []
        for P, x, y, core in cases:
            z = core.z
            narrow = _core_holds(P, x, y, TippedCore("narrow", z))
            assert _core_holds(P, x, y, TippedCore("diamond", z, z, z)) == narrow, (x, y, z)
            verdicts.append(narrow)
        assert verdicts == [True] * 100 + [False] * 2


def _core_holds(P, x, y, core):
    try:
        check_tipped_core(P, x, y, core)
    except CoreInvariantError:
        return False
    return True


class TestChecks:
    def test_pro_form_passes(self):
        assert check_pro_form(parse("1"), parse("2413"), [1]) is None
        assert check_pro_form(parse("21"), parse("35142"), [2]) is None

    def test_pro_form_corruption_detected(self):
        assert check_pro_form(parse("1"), parse("2413"), [1], corrupt=True) == 1

    def test_pro_form_precondition(self):
        with pytest.raises(PreconditionError):
            check_pro_form(parse("321"), parse("1234"), [0])

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


#: (suite, name patched on permobius.verify, the constant it returns, the
#: suite's FAIL line at n_max=7 without "FAIL ")
FORCED_FAILURES = [
    ("theorem1", "principal_mobius", 1, "theorem1-exhaustive (counterexample 1243)"),
    ("soundness", "verify_certificate", False,
     "rule-soundness-exhaustive (invalid witness for 123)"),
    ("soundness", "principal_mobius", 1, "rule-soundness-exhaustive (false certificate for 123)"),
    ("cor-sum", "principal_mobius", 1, "cor-sum-sampled (mu(1,123) != 0)"),
    ("pairs", "principal_mobius", 1, "pair-theorems-sampled (mu(1,2135764) != 0)"),
    ("base-annihilators", "principal_mobius", 1, "base-annihilators-sampled (mu(1,215463) != 0)"),
    ("non-annihilators", "principal_mobius", 1, "non-annihilator-separation (mu(1,214635) != 0)"),
    ("non-annihilators", "principal_mobius", 0,
     "non-annihilator-separation (mu(1, 24153_2[235614]) == 0)"),
    ("pro-form", "check_pro_form", 0, "pro-form-identity (sigma=1 pi=132 seed=0)"),
    ("eq-cancel", "check_eq_cancel_thm1", False, "eq-cancel-theorem1 (failed at 1243)"),
    ("planted-posets", "check_fac_nd", False, "fac-nd-planted (narrow seed=0)"),
    ("planted-posets", "check_fac_del", False, "fac-nd-planted (deletion seed=0)"),
    ("figure-cores", "check_fac_nd", False, "figure-diamond-cores (214653 core check failed)"),
    ("poset-oracle", "mobius_poset", 99, "generic-poset-oracle (mu(1,1): 1 != 99)"),
]

#: (suite, hosts it evaluates, hosts longer than 8, sha256 of their list's repr)
SAMPLED_HOSTS = [
    ("cor-sum", 2499, 0, "e3c8cbbd752bacae5f677fc83247d24b47ab48c2f20fd7c65cf535740c998e3f"),
    ("pairs", 160, 112, "a4627cff26d2913392be39aa53d7b224ce55f963dade7de2a55d277bea60a124"),
    ("base-annihilators", 69, 0,
     "bb01b697efde0a1a7a35a074b65566bc827efee9deb52a2e367625839ce489fe"),
]


class TestSuiteRunner:
    def test_names(self):
        assert SUITE_NAMES == (
            "theorem1",
            "soundness",
            "cor-sum",
            "pairs",
            "base-annihilators",
            "non-annihilators",
            "pro-form",
            "eq-cancel",
            "planted-posets",
            "figure-cores",
            "poset-oracle",
        )

    @pytest.mark.parametrize(
        "suite, name, value, line",
        FORCED_FAILURES,
        ids=[f"{suite}-{name}-{value}" for suite, name, value, _ in FORCED_FAILURES],
    )
    def test_forced_failure_line(self, monkeypatch, suite, name, value, line):
        monkeypatch.setattr(verify, name, lambda *args, **kwargs: value)
        assert run_theorem_suites(7, [suite]).to_text() == f"FAIL {line}\nFAILED\n"

    @pytest.mark.parametrize("suite, count, longer, digest", SAMPLED_HOSTS)
    def test_sampled_host_order(self, monkeypatch, suite, count, longer, digest):
        hosts = []
        monkeypatch.setattr(verify, "principal_mobius", lambda pi, cache: hosts.append(pi) or 0)
        assert run_theorem_suites(7, [suite]).all_passed
        assert len(hosts) == count
        assert sum(len(h) > 8 for h in hosts) == longer
        assert hashlib.sha256(repr(hosts).encode()).hexdigest() == digest

    def test_pro_form_builds_each_interval_once(self, monkeypatch):
        # one interval_as_poset and one interval_mobius for each of the 5
        # intervals, whatever the number of seeds
        calls = collections.Counter()

        def counted(name):
            build = getattr(verify, name)

            def wrapper(*args):
                calls[name] += 1
                return build(*args)

            return wrapper

        for name in ("interval_as_poset", "interval_mobius"):
            monkeypatch.setattr(verify, name, counted(name))
        assert run_theorem_suites(7, ["pro-form"]).all_passed
        assert calls == {"interval_as_poset": 5, "interval_mobius": 5}

    def test_suites_run_through_their_module_attributes(self, monkeypatch):
        # bench/tracing.py times each suite by wrapping verify._suite_<name>;
        # a runner that kept the functions themselves would skip the wrapper
        for name in SUITE_NAMES:
            attr = "_suite_" + name.replace("-", "_")
            assert callable(getattr(verify, attr, None)), attr
            monkeypatch.setattr(verify, attr, lambda n_max, tables: "sentinel")
        report = run_theorem_suites(4)
        assert [(r.passed, r.detail) for r in report.results] == [(False, "sentinel")] * 11
        assert report.to_text().startswith("FAIL theorem1-exhaustive (sentinel)\n")

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
