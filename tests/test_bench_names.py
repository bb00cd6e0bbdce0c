"""The names the benchmark reaches must exist on the package.

``bench/tracing.py`` wraps the functions listed in its ``LAYER_PATCHES`` on
the module each consumer looks them up in, and ``bench/run.py`` times two
census functions by name and cross-checks ``pmu`` values with
``principal_mobius(pruned=False)``, the walk that ``pmu`` skips for a
certified zero; the tracer also reads the counters of every
``MobiusCache``.  A benchmark run only prints a note and skips a
layer whose name is missing.  The benchmark's own tests under ``bench/``
run in this suite too, and ``test_tracer_restores_every_patched_name``
there fails on such a name as well, since it reads every patched name
with ``getattr`` and no default; this guard names every missing one and
also covers the names ``bench/run.py`` reads.  The tracer source is
compiled in memory; nothing under ``bench/`` is written.
"""
import importlib
import types
from pathlib import Path

from permobius import census
from permobius.mobius import MobiusCache, principal_mobius

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_patched_name_resolves():
    tracing = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing.__dict__)
    assert tracing.LAYER_PATCHES
    missing = [
        (module, name)
        for module, name, _ in tracing.LAYER_PATCHES
        if not callable(getattr(importlib.import_module(f"permobius.{module}"), name, None))
    ]
    assert missing == []


def test_run_py_names_resolve():
    # bench/run.py::census_parallel reads these with getattr and wraps them
    for name in ("build_principal_table", "adjacency_counts"):
        assert callable(getattr(census, name, None)), name
    # bench/run.py::cross_check_unpruned
    assert principal_mobius((2, 4, 1, 3), pruned=False, cache=MobiusCache()) == -3


def test_cache_counters_the_tracer_reads():
    # bench/tracing.py::Tracer.end_command folds hits, misses and len() of
    # every MobiusCache a command creates
    cache = MobiusCache()
    principal_mobius((2, 4, 1, 3), cache=cache)
    principal_mobius((3, 1, 4, 2), cache=cache)  # the reverse: one shared entry
    assert type(cache.hits) is int and type(cache.misses) is int
    assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)
