import itertools
import json
import math
import os

import pytest

from permobius import (
    BudgetError,
    CensusRow,
    PermError,
    adjacency_counts,
    count_adjacency_classes,
    density_bound_report,
    emit_table,
    principal_mobius,
    render_density,
    sweep,
    zero_density,
)
from permobius import census
from permobius.census import (
    LevelTables,
    adjacency_free_recurrence,
    build_principal_table,
    no_up_adjacency_recurrence,
)

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


class TestRecurrences:
    def test_no_up_adjacency(self):
        assert tuple(no_up_adjacency_recurrence(7)[1:]) == A_SEQ

    def test_adjacency_free(self):
        assert tuple(adjacency_free_recurrence(7)[1:]) == B_SEQ

    def test_scan_agreement(self):
        # count_adjacency_classes cross-checks a direct scan against the
        # recurrences and raises on disagreement
        for n in range(1, 9):
            a, b, s = count_adjacency_classes(n)
            assert s == math.factorial(n) - 2 * a + b
            assert adjacency_counts(n) == (a, b, s)

    def test_identity_values(self):
        # s_6 = 720 - 2*309 + 90 = 192
        assert count_adjacency_classes(6) == (309, 90, 192)

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
        assert data["version"] == census.CHECKPOINT_VERSION == 3
        assert set(data) == {"version", "n", "fingerprint", "chunks"}
        # a second run resumes from the completed checkpoint
        again = zero_density(6, checkpoint=str(ck))
        assert again.zero_count == full.zero_count

    def test_checkpoint_version_rejected(self, tmp_path):
        ck = tmp_path / "ck.json"
        ck.write_text(json.dumps({"version": 99, "n": 6}))
        with pytest.raises(PermError):
            zero_density(6, checkpoint=str(ck))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("BASE_ANNIHILATORS", census.BASE_ANNIHILATORS[:-1]),
            ("ANNIHILATOR_PAIRS", census.ANNIHILATOR_PAIRS[:-1]),
            ("CHUNK_SIZE", 2048),
        ],
    )
    def test_checkpoint_fingerprint_rejected(self, tmp_path, monkeypatch, name, value):
        # a checkpoint written under other rule tables or chunking must not resume
        ck = tmp_path / "ck.json"
        zero_density(6, checkpoint=str(ck))
        monkeypatch.setattr(census, name, value)
        with pytest.raises(PermError, match="does not match"):
            zero_density(6, checkpoint=str(ck))

    def test_level_budget(self, monkeypatch):
        monkeypatch.setattr(census, "LEVEL_BUDGET_BYTES", 64)
        with pytest.raises(BudgetError):
            zero_density(6)

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

    def test_rejects_longer_permutations(self):
        with pytest.raises(PermError):
            LevelTables(4).mobius((1, 2, 3, 4, 5))

    def test_rejects_empty_permutation(self):
        with pytest.raises(PermError):
            LevelTables(5).mobius(())


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
        import itertools

        from permobius import principal_mobius

        before = mu_table7.misses
        for n in range(1, 8):
            for pi in itertools.permutations(range(1, n + 1)):
                principal_mobius(pi, cache=mu_table7)
        assert mu_table7.misses == before

    def test_incremental_extension(self):
        from permobius import parse, principal_mobius

        t5 = build_principal_table(5)
        t6 = build_principal_table(6, cache=t5)
        assert t6 is t5
        assert principal_mobius(parse("2413"), cache=t6) == -3
