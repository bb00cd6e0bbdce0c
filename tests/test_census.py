import gc
import io
import itertools
import json
import math
import os
import random
import sys
import tracemalloc

import pytest

from permobius import (
    BudgetError,
    CensusRow,
    PermError,
    adjacency_counts,
    canonical_symmetry_form,
    certify_zero,
    density_bound_report,
    emit_table,
    principal_mobius,
    render_density,
    sweep,
    zero_density,
)
from permobius import census, permcore
from permobius.census import (
    adjacency_free_recurrence,
    build_principal_table,
    no_up_adjacency_recurrence,
)
from permobius.mobius import LevelTables
from oracles import brute_adjacency_counts, brute_scan_chunk

# Densities independently pinned by exhaustive evaluation with the
# definitional oracle at small n (see test_mobius.py for oracle agreement).
DENSITIES = {
    1: "0.0000",
    2: "0.0000",
    3: "0.3333",
    4: "0.4167",
    5: "0.4833",
    6: "0.5361",
    7: "0.5742",
}

A_SEQ = (1, 1, 3, 11, 53, 309, 2119)
B_SEQ = (1, 0, 0, 2, 14, 90, 646)

# Whole CSV rows as the census printed them before its scan read one
# interval list per representative; test_acceptance.py pins n = 8.
CSV_ROWS = {
    1: "1,1,0,0.0000,0,1,1,0,1,1",
    2: "2,2,0,0.0000,0,1,0,0,2,2",
    3: "3,6,2,0.3333,2,3,0,0,0,0",
    4: "4,24,10,0.4167,10,11,2,4,2,2",
    5: "5,120,58,0.4833,58,53,14,28,6,6",
    6: "6,720,386,0.5361,358,309,90,192,46,46",
    7: "7,5040,2894,0.5742,2406,2119,646,1448,338,338",
}


class TestRecurrences:
    def test_no_up_adjacency(self):
        assert tuple(no_up_adjacency_recurrence(7)[1:]) == A_SEQ

    def test_adjacency_free(self):
        assert tuple(adjacency_free_recurrence(7)[1:]) == B_SEQ

    def test_scan_agreement(self):
        # the recurrences against a direct scan of S_n up to the desk cap
        for n in range(1, 10):
            a, b, s = adjacency_counts(n)
            assert (a, b, s) == brute_adjacency_counts(n), n
            assert s == math.factorial(n) - 2 * a + b

    def test_identity_values(self):
        # s_6 = 720 - 2*309 + 90 = 192
        assert adjacency_counts(6) == (309, 90, 192)

    @pytest.mark.parametrize(
        "name", ["adjacency_free_recurrence", "no_up_adjacency_recurrence"]
    )
    @pytest.mark.parametrize("audit", [False, True], ids=["orbit", "audit"])
    def test_wrong_recurrence_raises(self, monkeypatch, tmp_path, name, audit):
        # negative control: a recurrence off by one at n = 6 (b_6 directly,
        # a_6 through s_6 = 6! - 2a_6 + b_6) disagrees with the census's own
        # adjacency counts; the row is refused before any audit line is written
        right = getattr(census, name)

        def wrong(n_max):
            values = right(n_max)
            values[6] += 1
            return values

        monkeypatch.setattr(census, name, wrong)
        path = tmp_path / "audit.tsv"
        with open(path, "w") as fh:
            with pytest.raises(AssertionError, match="disagreement at n=6:"):
                zero_density(6, audit_file=fh if audit else None)
        assert path.read_text() == ""

    def test_nonpositive_n(self):
        with pytest.raises(PermError):
            adjacency_counts(0)

    def test_asymptotic_bound(self):
        # s_n / n! approaches (1 - 1/e)^2 from below at these sizes
        limit = (1 - 1 / math.e) ** 2
        for n in (8, 10, 12, 16, 24):
            a, b, s = adjacency_counts(n)
            assert s / math.factorial(n) < limit
        # and gets close for large n
        a, b, s = adjacency_counts(200)
        assert abs(s / math.factorial(200) - limit) < 0.005


class TestRenderDensity:
    def test_values(self):
        assert render_density(0, 1) == "0.0000"
        assert render_density(2, 6) == "0.3333"
        assert render_density(10, 24) == "0.4167"
        assert render_density(1, 1) == "1.0000"

    def test_half_up(self):
        assert render_density(1, 16000) == "0.0001"
        assert render_density(1, 2) == "0.5000"
        assert render_density(12345, 100000) == "0.1235"  # 0.12345 rounds up


class TestZeroDensity:
    def test_small_rows(self):
        for n in range(1, 8):
            row = zero_density(n)
            assert row.density_str == DENSITIES[n]
            assert row.total == math.factorial(n)
            assert row.certified_count <= row.zero_count
            assert row.a_n == A_SEQ[n - 1] and row.b_n == B_SEQ[n - 1]
            assert row.s_n == math.factorial(n) - 2 * row.a_n + row.b_n
            assert emit_table([row], format="csv").splitlines()[1] == CSV_ROWS[n]

    @pytest.mark.parametrize("n", [6, 7])
    def test_rows_at_two_workers(self, n):
        row = zero_density(n, workers=2)
        assert emit_table([row], format="csv").splitlines()[1] == CSV_ROWS[n]

    def test_census_leaves_the_certificate_cache_empty(self):
        # the scan certifies each representative once, so a cache would
        # only grow: it reads the uncached certifier
        certify_zero.cache_clear()
        zero_density(7)
        assert certify_zero.cache_info().currsize == 0

    def test_in_process_scan_drops_its_level_tables(self):
        # one worker scans in this process; its tables must not outlive the call
        zero_density(6)
        assert not any(isinstance(v, LevelTables) for v in census._WORKER_STATE.values())

    def test_worker_count_invariance(self):
        rows = [zero_density(6, workers=w) for w in (1, 2, 3)]
        assert len({(r.zero_count, r.certified_count, r.simple_count) for r in rows}) == 1

    def test_simple_counts(self):
        # 2413 and 3142 are the only simple permutations of length 4
        row = zero_density(4)
        assert row.simple_count == 2
        assert row.simple_nonzero_count == 2

    def test_audit_file(self, tmp_path):
        path = tmp_path / "audit.tsv"
        with path.open("w") as fh:
            row = zero_density(5, audit_file=fh)
        lines = path.read_text().splitlines()
        assert len(lines) == 120
        zeros = sum(1 for ln in lines if ln.split("\t")[1] == "0")
        assert zeros == row.zero_count
        for ln in lines:
            perm_text, mu = ln.split("\t")
            assert len(perm_text) == 5
            int(mu)

    def test_checkpoint_roundtrip(self, tmp_path):
        ck = tmp_path / "ck.json"
        full = zero_density(6)
        resumed = zero_density(6, checkpoint=str(ck))
        assert (resumed.zero_count, resumed.total) == (full.zero_count, full.total)
        data = json.loads(ck.read_text())
        assert data["version"] == census.CHECKPOINT_VERSION == 5
        assert set(data) == {"version", "n", "fingerprint", "chunks"}
        # a second run resumes from the completed checkpoint
        again = zero_density(6, checkpoint=str(ck))
        assert again.zero_count == full.zero_count

    def test_checkpoint_version_rejected(self, tmp_path):
        # a version-4 checkpoint, as version 4 wrote it for n = 6: the 30
        # two-entry prefixes, each with four counts (zero where not listed);
        # its chunks lack the adjacency class counts of version 5
        keys4 = ("zeros", "certified", "simple", "simple_nonzero")
        counts4 = {
            (1, 2): (92, 92, 0, 0), (1, 3): (52, 52, 0, 0), (1, 4): (48, 48, 0, 0),
            (1, 5): (38, 38, 0, 0), (1, 6): (16, 16, 0, 0), (2, 1): (66, 58, 0, 0),
            (2, 3): (48, 36, 0, 0), (2, 4): (8, 8, 24, 24), (2, 5): (16, 8, 20, 20),
            (3, 2): (2, 2, 0, 0), (3, 5): (0, 0, 2, 2),
        }
        version4 = {
            "version": 4,
            "n": 6,
            "fingerprint": "e04a9aef",
            "chunks": [
                {"chunk": list(p), **dict(zip(keys4, counts4.get(p, (0, 0, 0, 0))))}
                for p in itertools.permutations(range(1, 7), 2)
            ],
        }
        # a version-3 checkpoint, as version 3 wrote it for n = 6: one rank
        # chunk of 4096 permutations, under a fingerprint of that chunk size
        version3 = {
            "version": 3,
            "n": 6,
            "fingerprint": "812744cc",
            "chunks": [
                {"chunk": [0, 720], "zeros": 386, "certified": 358, "simple": 46,
                 "simple_nonzero": 46}
            ],
        }
        ck = tmp_path / "ck.json"
        for payload in ({"version": 99, "n": 6}, version3, version4):
            ck.write_text(json.dumps(payload))
            with pytest.raises(PermError, match="does not match"):
                zero_density(6, checkpoint=str(ck))
        # relabelled as version 5, its chunks miss two counts
        ck.write_text(json.dumps(dict(version4, version=5)))
        with pytest.raises(PermError, match="malformed chunk"):
            zero_density(6, checkpoint=str(ck))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("BASE_ANNIHILATORS", census.BASE_ANNIHILATORS[:-1]),
            ("ANNIHILATOR_PAIRS", census.ANNIHILATOR_PAIRS[:-1]),
        ],
    )
    def test_checkpoint_fingerprint_rejected(self, tmp_path, monkeypatch, name, value):
        # a checkpoint written under other rule tables must not resume
        ck = tmp_path / "ck.json"
        zero_density(6, checkpoint=str(ck))
        monkeypatch.setattr(census, name, value)
        with pytest.raises(PermError, match="does not match"):
            zero_density(6, checkpoint=str(ck))

    def test_pool_no_larger_than_pending_chunks(self, monkeypatch):
        # S_3 has 6 two-entry prefixes, so 64 workers start a pool of 6;
        # the fake pool records its size and runs in-process
        sizes = []

        class InProcessPool:
            def __init__(self, processes, initializer, initargs):
                sizes.append(processes)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, items):
                return map(func, items)

        serial = zero_density(3)
        monkeypatch.setattr(census.multiprocessing, "Pool", InProcessPool)
        assert zero_density(3, workers=64) == serial
        assert sizes == [6]

    def test_level_budget(self, monkeypatch):
        monkeypatch.setattr(permcore, "BUDGET_BYTES", 64)
        with pytest.raises(BudgetError):
            zero_density(6)

    @pytest.mark.parametrize("seed", [4096, 37])
    def test_checkpoint_resumes_from_half(self, tmp_path, seed):
        # a finished run's checkpoint cut to a random half of its chunks, as
        # an interrupted pool run leaves it, completes to the same row and chunks
        ck = tmp_path / "ck.json"
        full = emit_table([zero_density(7, checkpoint=str(ck))], format="csv")
        data = json.loads(ck.read_text())
        assert len(data["chunks"]) == 7 * 6
        kept = random.Random(seed).sample(data["chunks"], len(data["chunks"]) // 2)
        half = dict(data, chunks=kept)
        ck.write_text(json.dumps(half))
        resumed = emit_table([zero_density(7, checkpoint=str(ck))], format="csv")
        assert resumed == full == emit_table([zero_density(7)], format="csv")
        assert json.loads(ck.read_text()) == data

    def test_checkpoint_resume_with_audit(self, tmp_path):
        # a pool run resumed from half its chunks writes the same row and
        # the same audit text as a fresh run: the audit comes from the
        # tables, not from the chunks
        ck = tmp_path / "ck.json"
        fresh_audit, resumed_audit = io.StringIO(), io.StringIO()
        fresh = zero_density(7, workers=2, audit_file=fresh_audit, checkpoint=str(ck))
        data = json.loads(ck.read_text())
        ck.write_text(json.dumps(dict(data, chunks=data["chunks"][::2])))
        resumed = zero_density(7, workers=2, audit_file=resumed_audit, checkpoint=str(ck))
        assert resumed == fresh
        assert resumed_audit.getvalue() == fresh_audit.getvalue()
        assert fresh_audit.getvalue().count("\n") == math.factorial(7)
        assert json.loads(ck.read_text()) == data

    def test_version5_checkpoint_resumes(self, tmp_path):
        # a version-5 checkpoint as the census wrote it for n = 4 when audit
        # mode still scanned all of S_n: every other chunk, each with the
        # six counts (zero where not listed), resumes with an audit
        counts = {(1, 2): (6, 6, 0, 0, 4, 0), (1, 4): (4, 4, 0, 0, 0, 0)}
        prefixes = list(itertools.permutations(range(1, 5), 2))[::2]
        ck = tmp_path / "ck.json"
        ck.write_text(json.dumps({
            "version": 5,
            "n": 4,
            "fingerprint": "e04a9aef",
            "chunks": [
                {"chunk": list(p), **dict(zip(census._COUNT_KEYS, counts.get(p, (0,) * 6)))}
                for p in prefixes
            ],
        }))
        audit = io.StringIO()
        assert zero_density(4, audit_file=audit, checkpoint=str(ck)) == zero_density(4)
        assert audit.getvalue() == "".join(
            f"{''.join(map(str, pi))}\t{principal_mobius(pi)}\n"
            for pi in itertools.permutations(range(1, 5))
        )

    def test_audit_lines_match_principal_mobius(self, tmp_path):
        path = tmp_path / "audit.tsv"
        with path.open("w") as fh:
            zero_density(6, workers=2, audit_file=fh)
        lines = path.read_text().splitlines()
        expected = [
            f"{''.join(map(str, pi))}\t{principal_mobius(pi)}"
            for pi in itertools.permutations(range(1, 7))
        ]
        assert lines == expected

    @pytest.mark.skipif(
        os.environ.get("PERMOBIUS_STRETCH") != "1",
        reason="stretch; set PERMOBIUS_STRETCH=1 to run (about 3 s on one worker)",
    )
    def test_n9_row(self):
        row = emit_table([zero_density(9)], format="csv").splitlines()[1]
        assert row == "9,362880,218434,0.6019,160862,148329,47622,113844,28146,27766"

    @pytest.mark.skipif(
        os.environ.get("PERMOBIUS_STRETCH") != "1",
        reason="stretch; set PERMOBIUS_STRETCH=1 to run (about 2.5 s on one core)",
    )
    def test_no_nonzero_of_length_9_is_certified(self):
        # the scan certifies only zeros, so it cannot see a certificate
        # wrongly issued for a nonzero; this checks every orbit of S_9
        tables = LevelTables(9)
        reps = nonzero = 0
        for pi in itertools.permutations(range(1, 10)):
            if pi == canonical_symmetry_form(pi):
                reps += 1
                if tables.mobius(pi):
                    nonzero += 1
                    assert certify_zero(pi) is None, pi
        assert (reps, nonzero) == (46066, 18248)


class TestLevelTables:
    def test_matches_principal_mobius_exhaustive(self):
        # every length-n value through the census path (single and double
        # deletions), and every shorter one through the closures
        tables = {n: LevelTables(n) for n in range(1, 8)}
        checked = 0
        for n in range(1, 8):
            for pi in itertools.permutations(range(1, n + 1)):
                mu = principal_mobius(pi)
                assert tables[n].mobius(pi) == mu, pi
                assert tables[7].mobius(pi) == mu, pi
                checked += 1
        assert checked == 5913

    def test_sampled_lengths_8_and_9_cross_the_blocks(self):
        # levels 7 and 8 of LevelTables(9) span many blocks, and level 8 is
        # its top; each value read off them against the interval engine
        tables = LevelTables(9)
        rng = random.Random(2409)
        for n in (8, 9) * 150:
            pi = tuple(rng.sample(range(1, n + 1), n))
            assert tables.mobius(pi) == principal_mobius(pi), pi

    def test_suite_hosts_of_length_8(self):
        # the cor-sum and base-annihilator suites read these from the top
        # level of the LevelTables(8) that run_theorem_suites builds
        from permobius.verify import _SUM_MIDDLES, _inflations
        from permobius.zerorules import BASE_ANNIHILATORS

        cor_sum = _inflations(_SUM_MIDDLES, 4)
        base = _inflations([(b,) for b in BASE_ANNIHILATORS], 3)
        hosts = {h for h in itertools.chain(cor_sum, base) if len(h) == 8}
        assert hosts
        tables = LevelTables(8)
        for host in hosts:
            assert tables.mobius(host) == principal_mobius(host), host

    def test_memo_beyond_n(self):
        tables = LevelTables(5)
        pi = (2, 4, 1, 3, 6, 5)
        assert tables.get(pi) is None
        assert (tables.memo.hits, tables.memo.misses) == (0, 1)
        mu = principal_mobius(pi, cache=tables)  # misses again, then puts
        assert mu == principal_mobius(pi)
        assert len(tables.memo) == 1
        assert tables.get(pi[::-1]) == mu
        assert (tables.memo.hits, tables.memo.misses) == (1, 2)
        tables.put((2, 4, 1, 3), 7)  # within the tables: not memoized
        assert len(tables.memo) == 1
        assert tables.get((2, 4, 1, 3)) == -3

    def test_rejects_longer_permutations(self):
        with pytest.raises(PermError):
            LevelTables(4).mobius((1, 2, 3, 4, 5))

    def test_rejects_empty_permutation(self):
        with pytest.raises(PermError):
            LevelTables(5).mobius(())

    def test_budget_counts_the_top_level(self, monkeypatch):
        # the top level's keys and entries count against the budget, not
        # only the closures: a budget the closures fit but the tables do not
        tables = LevelTables(7)
        closures = sys.getsizeof(tables.closures) + sum(
            sys.getsizeof(tau) + sys.getsizeof(c) for tau, c in tables.closures.items() if tau
        )
        full = closures + sys.getsizeof(tables.top) + sum(
            sys.getsizeof(tau) + sys.getsizeof(entry) + sys.getsizeof(entry[1])
            for tau, entry in tables.top.items()
        )
        assert closures < full // 2
        monkeypatch.setattr(permcore, "BUDGET_BYTES", full)
        LevelTables(7)
        monkeypatch.setattr(permcore, "BUDGET_BYTES", (closures + full) // 2)
        with pytest.raises(BudgetError):
            LevelTables(7)

    def test_budget_trips_below_the_traced_size(self, monkeypatch):
        # the budget counts the keys and the dicts too: it must not let the
        # tables grow 5% past their budget.  A full collection first empties
        # the free lists, whose reuse tracemalloc does not see.  Measured on
        # CPython 3.11.7, where the count is 0.998 of the traced size.
        gc.collect()
        tracemalloc.start()
        try:
            tables = LevelTables(8)
            traced, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del tables
        monkeypatch.setattr(permcore, "BUDGET_BYTES", int(0.95 * traced))
        with pytest.raises(BudgetError):
            LevelTables(8)


class TestChunkScan:
    @pytest.mark.parametrize("seed", [4096, 37])
    def test_scan_chunk_matches_brute_oracle(self, monkeypatch, seed):
        # a pool worker takes its chunks in any order; no chunk's counts
        # may depend on the chunks scanned before it.  A fresh worker state,
        # so no LevelTables outlives the test
        monkeypatch.setattr(census, "_WORKER_STATE", {})
        for n in range(1, 8):
            census._worker_init(n, LevelTables(n))
            prefixes = census._chunks(n)
            random.Random(seed).shuffle(prefixes)
            for prefix in prefixes:
                expected = brute_scan_chunk(n, prefix)
                res = census._scan_chunk(prefix)
                assert {k: res[k] for k in expected} == expected, (n, prefix)

    def test_orbit_weights_sum_to_factorial(self, monkeypatch):
        # with every value 0, the zeros of a scan are its orbit weights
        monkeypatch.setattr(census, "principal_mobius", lambda pi, cache: 0)
        monkeypatch.setattr(census, "_certify", lambda pi, ivs: None)
        monkeypatch.setattr(census, "_WORKER_STATE", {})
        for n in range(1, 9):
            census._worker_init(n, None)
            weights = sum(census._scan_chunk(c)["zeros"] for c in census._chunks(n))
            assert weights == math.factorial(n), n


class TestSweep:
    def test_rows(self):
        rows = sweep(6)
        assert [r.n for r in rows] == [1, 2, 3, 4, 5, 6]
        assert [r.density_str for r in rows] == [DENSITIES[n] for n in range(1, 7)]


class TestBoundReport:
    def test_consistent(self):
        rows = [zero_density(n) for n in range(1, 8)]
        report = density_bound_report(rows)
        assert "IMPOSSIBLE" not in report

    def test_tripwire(self):
        row = zero_density(6)
        fake = CensusRow(
            n=row.n,
            total=row.total,
            zero_count=0,
            certified_count=0,
            a_n=row.a_n,
            b_n=row.b_n,
            s_n=row.s_n,
            simple_count=row.simple_count,
            simple_nonzero_count=row.simple_nonzero_count,
        )
        assert "IMPOSSIBLE" in density_bound_report([fake])


class TestEmit:
    def test_csv(self):
        rows = [zero_density(n) for n in (1, 2, 3)]
        text = emit_table(rows, format="csv")
        lines = text.splitlines()
        assert lines[0].startswith("n,")
        assert lines[3].split(",")[:3] == ["3", "6", "2"]

    def test_json(self):
        rows = [zero_density(3)]
        data = json.loads(emit_table(rows, format="json"))
        assert data[0]["n"] == 3
        assert data[0]["density"] == "0.3333"

    def test_text(self):
        rows = [zero_density(3)]
        assert "0.3333" in emit_table(rows, format="text")

    def test_bad_format(self):
        with pytest.raises(PermError):
            emit_table([zero_density(1)], format="xml")


class TestPrincipalTable:
    def test_serves_all_lengths_without_misses(self, mu_table7):
        # the level tables for 7, read as a cache: every |pi| <= 7 with the
        # walk's value, none of them memoized
        assert type(mu_table7) is LevelTables and mu_table7.n == 7
        for n in range(1, 8):
            for pi in itertools.permutations(range(1, n + 1)):
                assert principal_mobius(pi, cache=mu_table7) == principal_mobius(pi), pi
        memo = mu_table7.memo
        assert (len(memo), memo.hits, memo.misses) == (0, 0, 0)
        assert build_principal_table(0).n == 1
