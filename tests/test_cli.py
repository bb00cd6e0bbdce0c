import json
import sys

import pytest

from permobius import census, permcore
from permobius.cli import EXIT_BUDGET, EXIT_DOMAIN, EXIT_OK, EXIT_VERIFY, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvaluation:
    def test_pmu(self, capsys):
        code, out, _ = run(capsys, "pmu", "2143")
        assert (code, out.strip()) == (EXIT_OK, "-1")

    def test_pmu_no_prune(self, capsys):
        code, out, _ = run(capsys, "pmu", "2413", "--no-prune")
        assert (code, out.strip()) == (EXIT_OK, "-3")

    def test_mu(self, capsys):
        code, out, _ = run(capsys, "mu", "12", "2413")
        assert (code, out.strip()) == (EXIT_OK, "3")

    def test_mu_noncomparable(self, capsys):
        code, out, _ = run(capsys, "mu", "321", "1234")
        assert (code, out.strip()) == (EXIT_OK, "0")

    def test_bad_perm(self, capsys):
        # a repeated value, words, a decimal and a non-digit after a comma
        for text in ("122", "a b", "1.5 2", "1,x"):
            code, out, err = run(capsys, "pmu", text)
            assert code == EXIT_DOMAIN, text
            assert err.startswith("error:") and err.count("\n") == 1, text
            assert out == "", text


class TestZero:
    def test_certificate(self, capsys):
        code, out, _ = run(capsys, "zero", "367249815")
        assert (code, out.strip()) == (EXIT_OK, "opposing-adjacencies up=2 down=6")

    def test_none(self, capsys):
        code, out, _ = run(capsys, "zero", "2413")
        assert (code, out.strip()) == (EXIT_OK, "none")

    def test_sum_split(self, capsys):
        code, out, _ = run(capsys, "zero", "21354")
        assert code == EXIT_OK
        assert out.startswith("sum-annihilator")


class TestDownset:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "downset", "2413")
        lines = out.strip().splitlines()
        assert code == EXIT_OK
        assert lines == ["1", "12", "21", "132", "213", "231", "312", "2413"]

    def test_count(self, capsys):
        code, out, _ = run(capsys, "downset", "2413", "--count")
        assert (code, out.strip()) == (EXIT_OK, "8")


class TestDownSetBudget:
    # the counted bytes of [1, 2413], the deletion closure of 2413 down to
    # length 1; a walk of it also holds the closures of 12 and 21 and of
    # 132, 213, 231 and 312 at once, each counted as one int
    LEVELS = permcore.BUDGET_BYTES - permcore.deletion_levels((2, 4, 1, 3), 1)[2]
    WALK = LEVELS + 6 * sys.getsizeof(1)

    @pytest.mark.parametrize(
        "argv", [("pmu", "2413"), ("mu", "1", "2413"), ("downset", "2413")]
    )
    def test_over_budget(self, capsys, monkeypatch, argv):
        # one byte short: downset builds the levels only, mu and pmu walk them
        budget = (self.LEVELS if argv[0] == "downset" else self.WALK) - 1
        monkeypatch.setattr(permcore, "BUDGET_BYTES", budget)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_BUDGET
        assert err == (
            f"error: deletion closure of 2413 down to length 1 exceeds {budget} bytes\n"
        )
        assert out == ""

    def test_at_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(permcore, "BUDGET_BYTES", self.WALK)
        code, out, _ = run(capsys, "pmu", "2413")
        assert (code, out.strip()) == (EXIT_OK, "-3")
        monkeypatch.setattr(permcore, "BUDGET_BYTES", self.LEVELS)
        code, out, _ = run(capsys, "downset", "2413", "--count")
        assert (code, out.strip()) == (EXIT_OK, "8")


class TestCensus:
    def test_csv_row(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "4", "--format", "csv")
        lines = out.strip().splitlines()
        assert code == EXIT_OK
        assert lines[0].split(",")[:4] == ["n", "total", "zeros", "density"]
        assert lines[1].split(",")[:4] == ["4", "24", "10", "0.4167"]

    def test_json_row(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "3", "--format", "json")
        data = json.loads(out)
        assert code == EXIT_OK
        assert data[0]["n"] == 3 and data[0]["density"] == "0.3333"

    def test_audit(self, capsys, tmp_path):
        audit = tmp_path / "a.tsv"
        code, _, _ = run(capsys, "census", "--n", "4", "--audit", str(audit))
        assert code == EXIT_OK
        lines = audit.read_text().splitlines()
        assert len(lines) == 24
        assert sum(1 for ln in lines if ln.endswith("\t0")) == 10

    def test_desk_cap(self, capsys):
        code, _, err = run(capsys, "census", "--n", "10")
        assert code == EXIT_DOMAIN
        assert "error:" in err

    @pytest.mark.parametrize("n", ["10", "0"], ids=["desk-cap", "n-zero"])
    def test_refused_run_keeps_audit_file(self, capsys, tmp_path, n):
        audit = tmp_path / "a.tsv"
        audit.write_text("kept\n")
        code, out, err = run(capsys, "census", "--n", n, "--audit", str(audit))
        assert code == EXIT_DOMAIN
        assert out == "" and err.startswith("error:")
        assert audit.read_text() == "kept\n"

    @pytest.mark.parametrize("flag", ["--audit", "--checkpoint"])
    def test_unwritable_file(self, capsys, tmp_path, flag):
        path = tmp_path / "missing" / "f"
        code, out, err = run(capsys, "census", "--n", "3", flag, str(path))
        assert code == EXIT_DOMAIN and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one(self, capsys, monkeypatch, workers):
        # refused before the level tables are built
        built = []
        monkeypatch.setattr(census, "LevelTables", built.append)
        code, out, err = run(capsys, "census", "--n", "4", "--workers", workers)
        assert (code, out, built) == (EXIT_DOMAIN, "", [])
        assert err == f"error: workers must be at least 1, got {workers}\n"

    def test_level_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(permcore, "BUDGET_BYTES", 64)
        code, out, err = run(capsys, "census", "--n", "6")
        assert code == EXIT_BUDGET
        assert err.startswith("error:") and out == ""

    def corrupt_checkpoint(self, capsys, path, edit):
        # a finished checkpoint of census --n 5, corrupted by ``edit``
        assert run(capsys, "census", "--n", "5", "--checkpoint", str(path))[0] == EXIT_OK
        path.write_text(edit(path.read_text()))
        code, out, err = run(capsys, "census", "--n", "5", "--checkpoint", str(path))
        assert code == EXIT_DOMAIN
        assert err.startswith("error: checkpoint") and err.count("\n") == 1
        assert out == ""

    def test_truncated_checkpoint(self, capsys, tmp_path):
        self.corrupt_checkpoint(capsys, tmp_path / "ck.json", lambda text: text[: len(text) // 2])

    def test_checkpoint_not_an_object(self, capsys, tmp_path):
        self.corrupt_checkpoint(capsys, tmp_path / "ck.json", lambda text: "[]")

    def test_checkpoint_chunk_without_zeros(self, capsys, tmp_path):
        def drop_zeros(text):
            data = json.loads(text)
            del data["chunks"][0]["zeros"]
            return json.dumps(data)

        self.corrupt_checkpoint(capsys, tmp_path / "ck.json", drop_zeros)

    @pytest.mark.parametrize(
        "key, value",
        [("chunk", 5), ("zeros", "58"), ("chunk", [0, 60])],
        ids=["chunk-not-a-list", "zeros-a-string", "chunk-not-a-prefix"],
    )
    def test_checkpoint_chunk_malformed_value(self, capsys, tmp_path, key, value):
        def set_value(text):
            data = json.loads(text)
            data["chunks"][0][key] = value
            return json.dumps(data)

        self.corrupt_checkpoint(capsys, tmp_path / "ck.json", set_value)


class TestVerify:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "verify", "--nmax", "4", "--suite", "theorem1")
        assert code == EXIT_OK
        assert out.strip().endswith("OK")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--nmax", "4", "--suite", "theorem1", "--json")
        data = json.loads(out)
        assert code == EXIT_OK
        assert data["all_passed"] is True

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "bogus")
        assert code == EXIT_DOMAIN
        assert "error:" in err

    def test_empty_range(self, capsys):
        for nmax in ("0", "-2"):
            code, out, err = run(capsys, "verify", "--nmax", nmax)
            assert code == EXIT_DOMAIN
            assert err.startswith("error:") and out == ""


class TestTable:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "table", "--nmax", "6")
        lines = out.strip().splitlines()
        assert code == EXIT_OK
        assert lines[0].split() == ["1", "0.0000"]
        assert lines[-1].split() == ["6", "0.5361"]

    def test_empty_range(self, capsys):
        for nmax in ("0", "-2"):
            code, out, err = run(capsys, "table", "--nmax", nmax)
            assert code == EXIT_DOMAIN
            assert err.startswith("error:") and out == ""

    def test_workers_below_one(self, capsys):
        code, out, err = run(capsys, "table", "--nmax", "4", "--workers", "0")
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == "error: workers must be at least 1, got 0\n"

    @pytest.mark.parametrize("nmax", ["10", "12"])
    def test_desk_cap_before_any_row(self, capsys, monkeypatch, nmax):
        # past the desk cap the sweep refuses before it computes a row, and
        # names the first n past the cap, as a row-by-row sweep would
        calls = []
        monkeypatch.setattr(census, "zero_density", lambda *a, **kw: calls.append(a))
        code, out, err = run(capsys, "table", "--nmax", nmax)
        assert (code, out, calls) == (EXIT_DOMAIN, "", [])
        assert err == "error: n=10 is beyond the desk cap 9; pass long_run=True\n"


class TestExitCodes:
    def test_distinct(self):
        assert len({EXIT_OK, EXIT_DOMAIN, EXIT_BUDGET, EXIT_VERIFY}) == 4
        assert EXIT_OK == 0
