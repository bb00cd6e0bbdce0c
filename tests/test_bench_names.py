"""The names the benchmark's tracer patches must exist on the package.

``bench/tracing.py`` wraps the functions listed in its ``LAYER_PATCHES`` on
the module each consumer looks them up in.  The benchmark's own tests run
outside this suite, so this guard catches a rename or removal here first.
The tracer source is compiled in memory; nothing under ``bench/`` is written.
"""
import importlib
import types
from pathlib import Path

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
