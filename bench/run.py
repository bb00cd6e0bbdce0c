"""Benchmark of the permobius CLI: ``pmu-long``, ``census-n8`` and ``verify-n7``.

Usage, from the root of a checkout:

    python3 bench/run.py --workload pmu-long --seed 0 --seconds 35 --trace 0

With ``--trace 0`` the commands of the workload run in passes, in this
process, through ``permobius.cli.main`` until ``--seconds`` is spent (at
least MIN_PASSES passes), and the end-to-end metrics are reported.  With
``--trace 1`` one untraced and one traced pass give the per-layer metrics.
Every output is checked.  A human-readable report goes to stderr; the last
line of stdout is the JSON result.  README.md explains the workloads and
the metrics.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from tracing import Tracer, layer_metrics, package_module  # noqa: E402

MIN_PASSES = 3

#: Fresh interpreters started to time set-up; the median is reported.
SETUP_PROBES = 9

#: Set-up as a user pays it: interpreter start, ``import permobius`` and
#: generating the workload's inputs.
PROBE_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import permobius, workloads; "
    "print(workloads.digest(workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]))))"
)

TAIL_BEYOND = 10


@dataclass
class Sample:
    """One CLI command: wall and CPU time, exit code and captured stdout."""

    wall: float
    cpu: float
    code: Optional[int]
    stdout: str


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def tree_cpu() -> float:
    """User + system CPU of this process and of its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak RSS of the largest process so far, this one or a reaped child."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def loaded_package_modules():
    return [
        sys.modules[name]
        for name in sorted(sys.modules)
        if name == "permobius" or name.startswith("permobius.")
    ]


def start_cold() -> None:
    """Empty every process-global lru cache of the package (``certify_zero``)."""
    for module in loaded_package_modules():
        for obj in list(vars(module).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def run_command(argv: tuple[str, ...]) -> Sample:
    """Run one command cold through ``permobius.cli.main`` in this process."""
    cli = package_module("cli")
    start_cold()
    out, err = io.StringIO(), io.StringIO()
    cpu0 = tree_cpu()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed output, not a benchmark abort
        traceback.print_exc()
        code = None
    wall = time.perf_counter() - t0
    cpu = tree_cpu() - cpu0
    if err.getvalue():
        sys.stderr.write(err.getvalue())
    return Sample(wall, cpu, code, out.getvalue())


def check_sample(unit: workloads.Unit, sample: Sample, checks: Checks) -> None:
    ok = sample.code == 0 and sample.stdout == unit.expected
    checks.record(ok, f"{' '.join(unit.argv)}: exit {sample.code}, got {sample.stdout!r}")


def run_pass(units: list[workloads.Unit], checks: Checks) -> list[Sample]:
    samples = [run_command(u.argv) for u in units]
    for unit, sample in zip(units, samples):
        check_sample(unit, sample, checks)
    return samples


def measure(units: list[workloads.Unit], seconds: float, checks: Checks) -> list[list[Sample]]:
    """Run passes until another pass would overrun ``seconds``."""
    passes: list[list[Sample]] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(units, checks))
        elapsed = time.perf_counter() - start
        typical = statistics.median(sum(s.wall for s in p) for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            return passes


def tail(values: list[float], guaranteed: int) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that has TAIL_BEYOND
    samples beyond it in a run of ``guaranteed`` samples, the fewest a run
    can have.  Keeping the percentile fixed when a faster run takes more
    passes keeps it on the same command.  With too few samples: the maximum.
    """
    ordered = sorted(values)
    if guaranteed <= TAIL_BEYOND:
        return ordered[-1], 100.0
    level = (guaranteed - TAIL_BEYOND) / guaranteed
    return ordered[math.ceil(level * len(ordered)) - 1], 100.0 * level


def cross_check_unpruned(units: list[workloads.Unit], checks: Checks) -> None:
    """Re-derive every ``pmu`` value by unpruned evaluation (untimed)."""
    mobius = package_module("mobius")
    cache = mobius.MobiusCache()
    for unit in units:
        if unit.perm is None:
            continue
        got = mobius.principal_mobius(unit.perm, pruned=False, cache=cache)
        checks.record(got == unit.mu, f"unpruned mu{unit.perm} = {got}, pinned {unit.mu}")


def time_setup(workload: str, seed: int, want: str, checks: Checks) -> float:
    """Median wall time of fresh interpreters that import and generate inputs."""
    times = []
    argv = [sys.executable, "-c", PROBE_CODE, str(SRC), str(BENCH_DIR), workload, str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
        checks.record(
            proc.returncode == 0 and proc.stdout.strip() == want,
            f"set-up probe: exit {proc.returncode}, {proc.stderr.strip()[-200:]}",
        )
    return statistics.median(times)


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version()}


def end_to_end(
    units: list[workloads.Unit], seconds: float, checks: Checks, report: dict,
    cross_check: bool,
) -> dict:
    """Timed passes with tracing off; every metric but ``setup_s``."""
    passes = measure(units, seconds, checks)
    rss = peak_rss_mb()
    if cross_check:
        cross_check_unpruned(units, checks)
    items = [s.wall for p in passes for s in p]
    tail_value, tail_pct = tail(items, MIN_PASSES * len(units))
    report.update(
        passes=len(passes),
        items=len(items),
        item_tail_percentile=round(tail_pct, 1),
        command_median_s={
            " ".join(u.argv): round(statistics.median(p[i].wall for p in passes), 4)
            for i, u in enumerate(units)
        },
    )
    return {
        "wall_s": (statistics.median(sum(s.wall for s in p) for p in passes), "s"),
        "cpu_s": (statistics.median(sum(s.cpu for s in p) for p in passes), "s"),
        "peak_rss_mb": (rss, "MiB"),
        "item_p50_s": (statistics.median(items), "s"),
        "item_tail_s": (tail_value, "s"),
    }


def traced(
    units: list[workloads.Unit], checks: Checks, report: dict,
    parallel_unit: Optional[workloads.Unit] = None,
) -> tuple[dict, Tracer]:
    """One untraced and one traced pass of ``units``: the per-layer metrics.

    ``parallel_unit``, a multi-worker census command, is run untraced first
    to measure worker CPU and parallel efficiency.
    """
    extra = {"census.worker_cpu_s": 0.0, "census.parallel_efficiency": 0.0}
    if parallel_unit is not None:
        extra = census_parallel(parallel_unit, checks)
    untraced_wall = sum(s.wall for s in run_pass(units, checks))
    with Tracer() as tracer:
        samples = []
        for i, unit in enumerate(units):
            tracer.run_id = i
            samples.append(run_command(unit.argv))
            tracer.end_command()
    for unit, sample in zip(units, samples):
        check_sample(unit, sample, checks)
    traced_wall = sum(s.wall for s in samples)
    metrics = {name: (value, unit_of(name)) for name, value in layer_metrics(tracer).items()}
    for name, value in extra.items():
        metrics[name] = (value, unit_of(name))
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    report.update(untraced_wall_s=untraced_wall, traced_wall_s=traced_wall,
                  spans=len(tracer.spans), commands=[" ".join(u.argv) for u in units])
    return metrics, tracer


def census_parallel(unit: workloads.Unit, checks: Checks) -> dict:
    """Worker CPU and parallel efficiency of the untraced multi-worker census.

    The scan's wall time is the command's minus the table build and the
    adjacency counts, which run in this process; each is timed by one
    clock read around its single call.
    """
    census = package_module("census")
    phases: dict[str, float] = {}

    def clocked(name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                phases[name] = phases.get(name, 0.0) + time.perf_counter() - t0
        return wrapper

    originals = {n: getattr(census, n) for n in ("build_principal_table", "adjacency_counts")}
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        for name, fn in originals.items():
            setattr(census, name, clocked(name, fn))
        sample = run_command(unit.argv)
    finally:
        for name, fn in originals.items():
            setattr(census, name, fn)
    check_sample(unit, sample, checks)
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    worker_cpu = (children1.ru_utime + children1.ru_stime) - (
        children0.ru_utime + children0.ru_stime
    )
    scan_wall = sample.wall - sum(phases.values())
    workers = int(unit.argv[unit.argv.index("--workers") + 1])
    return {
        "census.worker_cpu_s": worker_cpu,
        "census.parallel_efficiency": worker_cpu / (workers * scan_wall),
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_efficiency")):
        return "ratio"
    return "count"


def write_spans(workload: str, seed: int, tracer, report: dict) -> None:
    """One JSON header line, then one ``[name, start, end, parent, run id]``
    line per recorded span; ``parent`` indexes the span lines, run id the
    header's commands."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    header = {k: v for k, v in report.items() if k != "spans_file"}
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    report["spans_file"] = str(path.relative_to(ROOT))


def load_package() -> None:
    """Import the package under test from ``src``, or exit 2 if it is absent."""
    if not (SRC / "permobius" / "__init__.py").is_file():
        print(f"bench: no package at {SRC / 'permobius'}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import permobius  # noqa: F401


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_package()

    checks = Checks()
    report: dict = {"workload": args.workload, "seed": args.seed, **machine()}
    units = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        parallel_unit = None
        if args.workload == "census-n8":
            # every span in-process: trace the single-worker form of the command
            parallel_unit, units = units[0], workloads.census_n8(args.seed, workers=1)
            report["workers"] = f"{workloads.CENSUS_WORKERS} untraced, 1 traced"
        metrics, tracer = traced(units, checks, report, parallel_unit)
        write_spans(args.workload, args.seed, tracer, report)
    else:
        if args.workload == "census-n8":
            report["workers"] = workloads.CENSUS_WORKERS
        setup_s = time_setup(args.workload, args.seed, workloads.digest(units), checks)
        metrics = {"setup_s": (setup_s, "s")}
        metrics.update(end_to_end(units, args.seconds, checks, report,
                                  cross_check=args.seed != workloads.DEFAULT_SEED))

    for key, value in report.items():
        print(f"# {key}: {value}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}", file=sys.stderr)
    print(f"fail_ratio = {checks.failed / checks.attempted:.6g} "
          f"({checks.failed} of {checks.attempted} checks)", file=sys.stderr)
    for note in checks.notes:
        print(f"FAILED: {note}", file=sys.stderr)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
