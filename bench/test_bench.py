"""Tests of the benchmark itself, at a tiny size.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Unit, pmu_unit  # noqa: E402

run.load_package()

DECLARED = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

TINY_CSV = (
    "n,total,zeros,density,certified,a_n,b_n,s_n,simple,simple_nonzero\n"
    "5,120,58,0.4833,58,53,14,28,6,6\n"
)


def tiny_units() -> list[Unit]:
    verify_text = workloads.VERIFY_N7_TEXT.replace("(n<=7)", "(n<=4)")
    return [
        pmu_unit((2, 4, 1, 3), -3),
        pmu_unit((2, 5, 3, 1, 4), 4),
        pmu_unit((3, 1, 4, 2), -3),
        Unit(("census", "--n", "5", "--workers", "1", "--format", "csv"), TINY_CSV),
        Unit(("verify", "--nmax", "4"), verify_text),
    ]


def traced_tiny():
    checks = run.Checks()
    metrics, tracer = run.traced(tiny_units(), checks, {})
    assert checks.failed == 0, checks.notes
    return metrics, tracer


def test_tiny_outputs_pass_and_every_metric_is_declared():
    checks, report = run.Checks(), {}
    metrics = run.end_to_end(tiny_units(), 0.0, checks, report, cross_check=True)
    metrics["setup_s"] = (
        run.time_setup("verify-n7", 0, workloads.digest(workloads.verify_n7(0)), checks),
        "s",
    )
    assert checks.failed == 0, checks.notes
    assert report["passes"] == run.MIN_PASSES
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared
    assert all(value > 0 for value, _ in metrics.values())

    traced_metrics, _ = traced_tiny()
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {name: unit for name, (_, unit) in traced_metrics.items()} == declared


def test_declared_workloads_exist():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


def test_planted_wrong_value_counts_as_failed():
    units = tiny_units()[:3]
    units[1] = pmu_unit(units[1].perm, units[1].mu + 1)
    checks = run.Checks()
    run.end_to_end(units, 0.0, checks, {}, cross_check=True)
    # each pass gets the planted output wrong, and so does the cross-check
    assert checks.failed == run.MIN_PASSES + 1
    assert checks.failed / checks.attempted > 0


def test_child_spans_lie_within_their_parent():
    metrics, tracer = traced_tiny()
    spans = tracer.spans
    assert spans and all(span is not None for span in spans)
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _, _ = spans[parent]
            assert p_start <= start and end <= p_end, name
            covered[parent] += end - start
    for (name, start, end, _, _), child_time in zip(spans, covered):
        assert child_time <= end - start + 1e-9, name
    assert all(v >= 0 for v in tracer.self_s.values())
    assert metrics["cli.main.self_s"][0] >= 0


def test_layer_counts_repeat_exactly():
    first, _ = traced_tiny()
    second, _ = traced_tiny()
    counts = {n for n, (_, unit) in first.items() if unit == "count"}
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["permcore.down_set.calls"][0] > 0
    assert first["census.orbit_reps"][0] > 0
    assert first["mobius.mobius.calls"][0] > 0


def test_tracer_restores_every_patched_name():
    from tracing import LAYER_PATCHES, Tracer, package_module

    before = {(m, a): getattr(package_module(m), a) for m, a, _ in LAYER_PATCHES}
    cache_init = package_module("mobius").MobiusCache.__init__
    with Tracer():
        pass
    assert {(m, a): getattr(package_module(m), a) for m, a, _ in LAYER_PATCHES} == before
    assert package_module("mobius").MobiusCache.__init__ is cache_init


def test_tail_keeps_ten_samples_beyond_it_at_the_same_percentile():
    assert run.tail([3.0, 1.0, 2.0], 3) == (3.0, 100.0)
    one_pass = [float(v) for v in range(1, 12)]
    for passes in (3, 4, 7):
        values = one_pass * passes
        value, percentile = run.tail(values, 3 * len(one_pass))
        assert value == 8.0 and percentile == 100.0 * 23 / 33
        rank = math.ceil(percentile / 100 * len(values))
        assert len(values) - rank >= run.TAIL_BEYOND


def test_inputs_follow_the_seed():
    assert workloads.digest(workloads.pmu_long(5)) == workloads.digest(workloads.pmu_long(5))
    assert workloads.digest(workloads.pmu_long(5)) != workloads.digest(workloads.pmu_long(6))
    units = workloads.pmu_long(5)
    assert sorted(len(u.perm) for u in units) == sorted(
        [len(workloads.ANCHOR), *workloads.BASE_LENGTHS]
    )


def test_symmetric_images_are_the_orbit_and_keep_mu():
    from tracing import package_module

    permcore, mobius = package_module("permcore"), package_module("mobius")
    for pi in [(2, 5, 3, 1, 4), (2, 4, 1, 3, 5), workloads.ANCHOR]:
        assert set(workloads.symmetric_images(pi)) == permcore.symmetry_orbit(pi)
    images = workloads.symmetric_images((2, 4, 1, 3, 5))
    assert len(set(images)) == 8
    assert {mobius.principal_mobius(q) for q in images} == {mobius.principal_mobius((2, 4, 1, 3, 5))}


def test_start_cold_empties_the_certificate_cache():
    from tracing import package_module

    zerorules = package_module("zerorules")
    zerorules.certify_zero((2, 4, 1, 3))
    run.start_cold()
    assert zerorules.certify_zero.cache_info().currsize == 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_refuses_to_run_without_the_package(tmp_path, trace):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", "verify-n7",
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
