"""In-memory span tracer installed from outside the package.

The package modules import their dependencies by name (``from .permcore
import down_set``), so a wrapper must be installed on the name each
consumer looks up, not only on the defining module.  ``LAYER_PATCHES`` lists
those names.  Timed wrappers record a span (name, start, end, parent, run
id); count-only wrappers on the hot primitives only count calls.  Self time
is a span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

#: Timed layers called so often that their spans are aggregated into call
#: counts and self time instead of being stored one by one.
HOT = frozenset(
    {
        "zerorules.certify_zero",
        "permcore.canonical_symmetry_form",
        "permcore.contains",
        "permcore.symmetry_orbit",
        "permcore.is_simple",
    }
)

#: Count-only layers: a span per call would cost more than the call.
COUNTED = frozenset({"permcore.pattern_of", "permcore.apply_symmetry"})

SUITES = (
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

#: (consumer module, name looked up there, layer name)
LAYER_PATCHES: tuple[tuple[str, str, str], ...] = (
    ("cli", "main", "cli.main"),
    ("cli", "principal_mobius", "mobius.principal_mobius"),
    ("cli", "zero_density", "census.zero_density"),
    ("cli", "run_theorem_suites", "verify.run_theorem_suites"),
    ("mobius", "down_set", "permcore.down_set"),
    ("mobius", "canonical_symmetry_form", "permcore.canonical_symmetry_form"),
    ("mobius", "certify_zero", "zerorules.certify_zero"),
    ("mobius", "contains", "permcore.contains"),
    ("mobius", "principal_mobius", "mobius.principal_mobius"),
    ("permcore", "pattern_of", "permcore.pattern_of"),
    ("permcore", "apply_symmetry", "permcore.apply_symmetry"),
    ("zerorules", "pattern_of", "permcore.pattern_of"),
    ("zerorules", "apply_symmetry", "permcore.apply_symmetry"),
    ("census", "symmetry_orbit", "permcore.symmetry_orbit"),
    ("census", "is_simple", "permcore.is_simple"),
    ("census", "principal_mobius", "mobius.principal_mobius"),
    ("census", "certify_zero", "zerorules.certify_zero"),
    ("census", "build_principal_table", "census.build_principal_table"),
    ("census", "_scan_chunk", "census.scan"),
    ("census", "adjacency_counts", "census.adjacency_counts"),
    ("verify", "down_set", "permcore.down_set"),
    ("verify", "contains", "permcore.contains"),
    ("verify", "pattern_of", "permcore.pattern_of"),
    ("verify", "apply_symmetry", "permcore.apply_symmetry"),
    ("verify", "principal_mobius", "mobius.principal_mobius"),
    ("verify", "mobius", "mobius.mobius"),
    ("verify", "interval_as_poset", "mobius.interval_as_poset"),
    ("verify", "mobius_poset", "mobius.mobius_poset"),
    ("verify", "certify_zero", "zerorules.certify_zero"),
    ("verify", "verify_certificate", "zerorules.verify_certificate"),
    *(("verify", "_suite_" + s.replace("-", "_"), f"verify.{s}") for s in SUITES),
)

RULES = ("opposing-adjacencies", "sum-annihilator", "base-annihilator", "annihilator-pair")


def package_module(name: str):
    # ``permobius.mobius`` as an attribute is the function re-exported by the
    # package, so submodules are looked up by their full name.
    return importlib.import_module(f"permobius.{name}")


class Tracer:
    """Records spans and counts while installed (use as a context manager)."""

    def __init__(self) -> None:
        self.run_id = 0
        self.spans: list[Optional[tuple[str, float, float, int, int]]] = []
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.caches: list[Any] = []
        self._frames: list[list] = []  # [name, start, child time, span index]
        self._patches: list[tuple[Any, str, Any]] = []
        self._on_call = {"mobius.principal_mobius": self._count_orbit_rep}
        self._on_result = {
            "permcore.down_set": self._count_elements,
            "zerorules.certify_zero": self._count_certificate,
            "census.build_principal_table": self._count_table,
        }
        zerorules = package_module("zerorules")
        self._rule_of = {
            zerorules.OpposingAdjacencies: "opposing-adjacencies",
            zerorules.SumAnnihilator: "sum-annihilator",
            zerorules.BaseAnnihilator: "base-annihilator",
            zerorules.AnnihilatorPair: "annihilator-pair",
        }

    # -- wrappers -----------------------------------------------------------

    def counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, name: str, fn: Callable) -> Callable:
        keep = name not in HOT
        frames, spans = self._frames, self.spans
        calls, self_s = self.calls, self.self_s
        on_call = self._on_call.get(name)
        on_result = self._on_result.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call:
                on_call()
            index = -1
            if keep:
                index = len(spans)
                spans.append(None)
            frame = [name, clock(), 0.0, index]
            frames.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                duration = end - frame[1]
                self_s[name] += duration - frame[2]
                calls[name] += 1
                if frames:
                    frames[-1][2] += duration
                if keep:
                    parent = next((f[3] for f in reversed(frames) if f[3] >= 0), -1)
                    spans[index] = (name, frame[1], end, parent, self.run_id)
            if on_result:
                on_result(result)
            return result

        return wrapper

    def _count_orbit_rep(self) -> None:
        if any(f[0] == "census.scan" for f in self._frames):
            self.counts["census.orbit_reps"] += 1

    def _count_elements(self, elements) -> None:
        self.counts["permcore.down_set.elements"] += len(elements)

    def _count_certificate(self, cert) -> None:
        if cert is not None:
            self.counts["zerorules.rule." + self._rule_of[type(cert)]] += 1

    def _count_table(self, table) -> None:
        self.counts["census.table_entries"] += len(table)

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for module_name, attr, layer in LAYER_PATCHES:
            module = package_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                print(f"trace: {module_name}.{attr} not found; {layer} unrecorded",
                      file=sys.stderr)
                continue
            wrap = self.counted if layer in COUNTED else self.timed
            self._patch(module, attr, wrap(layer, fn))
        cache_cls = package_module("mobius").MobiusCache
        original_init = cache_cls.__init__
        caches = self.caches

        def init(cache, *args, **kwargs):
            original_init(cache, *args, **kwargs)
            caches.append(cache)

        self._patch(cache_cls, "__init__", init)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- per-command bookkeeping ---------------------------------------------

    def end_command(self) -> None:
        """Fold the caches and lru statistics of one finished command."""
        for cache in self.caches:
            self.counts["mobius.cache.hits"] += cache.hits
            self.counts["mobius.cache.misses"] += cache.misses
            self.counts["mobius.cache.entries"] += len(cache)
        self.caches.clear()
        info = getattr(package_module("zerorules").certify_zero, "cache_info", None)
        if info is not None:
            stats = info()
            self.counts["zerorules.certify_zero.lru_hits"] += stats.hits
            self.counts["zerorules.certify_zero.lru_misses"] += stats.misses


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics that the trace alone determines."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    out: dict[str, float] = {}
    for layer in (
        "permcore.down_set",
        "permcore.canonical_symmetry_form",
        "permcore.symmetry_orbit",
        "permcore.is_simple",
        "permcore.contains",
        "mobius.principal_mobius",
        "mobius.mobius",
        "zerorules.certify_zero",
    ):
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    for layer in COUNTED:
        out[f"{layer}.calls"] = calls[layer]
    for layer in (
        "census.build_principal_table",
        "census.scan",
        "census.adjacency_counts",
        "mobius.interval_as_poset",
        "mobius.mobius_poset",
        "zerorules.verify_certificate",
        "cli.main",
        *(f"verify.{s}" for s in SUITES),
    ):
        out[f"{layer}.self_s"] = self_s[layer]
    out["permcore.down_set.elements"] = counts["permcore.down_set.elements"]
    out["census.orbit_reps"] = counts["census.orbit_reps"]
    out["census.table_entries"] = counts["census.table_entries"]
    hits, misses = counts["mobius.cache.hits"], counts["mobius.cache.misses"]
    out["mobius.cache.hits"] = hits
    out["mobius.cache.misses"] = misses
    out["mobius.cache.hit_ratio"] = _ratio(hits, hits + misses)
    out["mobius.cache.entries"] = counts["mobius.cache.entries"]
    lru_hits = counts["zerorules.certify_zero.lru_hits"]
    lru_total = lru_hits + counts["zerorules.certify_zero.lru_misses"]
    out["zerorules.certify_zero.lru_hit_ratio"] = _ratio(lru_hits, lru_total)
    issued = sum(counts[f"zerorules.rule.{r}"] for r in RULES)
    out["zerorules.certify_zero.issued_ratio"] = _ratio(
        issued, calls["zerorules.certify_zero"]
    )
    for rule in RULES:
        out[f"zerorules.rule.{rule}"] = counts[f"zerorules.rule.{rule}"]
    return out
