"""Per-length census: zero densities, adjacency counts, simple-permutation stats.

The density sweep evaluates one representative per orbit of the 8 symmetries
(weighted by orbit size) and partitions S_n into fixed lexicographic-rank
chunks, so results are byte-identical for any worker count.
"""
from __future__ import annotations

import itertools
import json
import math
import multiprocessing
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, TextIO

from .permcore import (
    Perm,
    PermError,
    fmt,
    is_simple,
    symmetry_orbit,
)
from .mobius import MobiusCache, principal_mobius
from .zerorules import certify_zero

#: Direct S_n scans are refused above this length.
ADJACENCY_SCAN_CAP = 13

#: Default cap for the density sweep; longer runs need an explicit opt-in.
DENSITY_DESK_CAP = 9

CHECKPOINT_VERSION = 1

ASYMPTOTIC_LOWER_BOUND = (1 - 1 / math.e) ** 2  # ~0.39957


@dataclass
class CensusRow:
    n: int
    total: int
    zero_count: int
    certified_count: int
    a_n: int
    b_n: int
    s_n: int
    simple_count: int
    simple_nonzero_count: int

    @property
    def density(self) -> Fraction:
        return Fraction(self.zero_count, self.total)

    @property
    def density_str(self) -> str:
        return render_density(self.zero_count, self.total)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "total": self.total,
            "zeros": self.zero_count,
            "density": self.density_str,
            "certified": self.certified_count,
            "a_n": self.a_n,
            "b_n": self.b_n,
            "s_n": self.s_n,
            "simple": self.simple_count,
            "simple_nonzero": self.simple_nonzero_count,
        }


def render_density(zeros: int, total: int) -> str:
    """zeros/total to 4 decimal places, round half up."""
    q = (2 * zeros * 10_000 + total) // (2 * total)
    return f"{q // 10_000}.{q % 10_000:04d}"


# ---------------------------------------------------------------------------
# Adjacency counts: scan and recurrence.


def no_up_adjacency_recurrence(n_max: int) -> list[int]:
    """a_n for n = 1..n_max (index 0 unused): permutations with no up-adjacency."""
    a = [0, 1, 1]
    for n in range(3, n_max + 1):
        a.append((n - 1) * a[n - 1] + (n - 2) * a[n - 2])
    return a[: n_max + 1]


def adjacency_free_recurrence(n_max: int) -> list[int]:
    """b_n for n = 1..n_max (index 0 is the empty permutation's count, 1)."""
    b = [1, 1, 0, 0, 2]
    for n in range(5, n_max + 1):
        b.append(
            (n + 1) * b[n - 1]
            - (n - 2) * b[n - 2]
            - (n - 5) * b[n - 3]
            + (n - 3) * b[n - 4]
        )
    return b[: n_max + 1]


def _adjacency_scan(n: int) -> tuple[int, int, int]:
    a = b = s = 0
    for pi in itertools.permutations(range(1, n + 1)):
        up = down = False
        for k in range(n - 1):
            d = pi[k + 1] - pi[k]
            if d == 1:
                up = True
            elif d == -1:
                down = True
        if not up:
            a += 1
            if not down:
                b += 1
        elif down:
            s += 1
    return a, b, s


def count_adjacency_classes(n: int) -> tuple[int, int, int]:
    """(a_n, b_n, s_n) by direct scan of S_n, cross-checked against recurrences."""
    if not 1 <= n <= ADJACENCY_SCAN_CAP:
        raise PermError(f"adjacency scan supports 1 <= n <= {ADJACENCY_SCAN_CAP}")
    a, b, s = _adjacency_scan(n)
    ar = no_up_adjacency_recurrence(n)[n]
    br = adjacency_free_recurrence(n)[n]
    if (a, b) != (ar, br):
        raise AssertionError(
            f"scan/recurrence disagreement at n={n}: scan=({a},{b}) rec=({ar},{br})"
        )
    if s != math.factorial(n) - 2 * a + b:
        raise AssertionError(f"s_n identity violated at n={n}")
    return a, b, s


def adjacency_counts(n: int) -> tuple[int, int, int]:
    """(a_n, b_n, s_n); scanned up to the cap, recurrence-only beyond it."""
    if n <= DENSITY_DESK_CAP:
        return count_adjacency_classes(n)
    a = no_up_adjacency_recurrence(n)[n]
    b = adjacency_free_recurrence(n)[n]
    return a, b, math.factorial(n) - 2 * a + b


# ---------------------------------------------------------------------------
# Density sweep.


def build_principal_table(
    n_max: int, pruned: bool = True, cache: Optional[MobiusCache] = None
) -> MobiusCache:
    """Mobius cache holding mu(1, pi) for every pi with |pi| <= n_max."""
    if cache is None:
        cache = MobiusCache()
    for n in range(1, n_max + 1):
        for pi in itertools.permutations(range(1, n + 1)):
            if pi == min(symmetry_orbit(pi)):
                principal_mobius(pi, pruned=pruned, cache=cache)
    return cache


def _chunk_ranges(total: int, chunk_size: int = 4096) -> list[tuple[int, int]]:
    # fixed-size rank chunks, independent of worker count
    return [(lo, min(lo + chunk_size, total)) for lo in range(0, total, chunk_size)]


_WORKER_STATE: dict = {}


def _worker_init(n: int, pruned: bool, audit: bool, cache_data: dict) -> None:
    cache = MobiusCache()
    cache._data = dict(cache_data)
    _WORKER_STATE.update(n=n, pruned=pruned, audit=audit, cache=cache)


def _scan_chunk(bounds: tuple[int, int]) -> dict:
    n = _WORKER_STATE["n"]
    pruned = _WORKER_STATE["pruned"]
    audit = _WORKER_STATE["audit"]
    cache: MobiusCache = _WORKER_STATE["cache"]
    lo, hi = bounds
    zeros = certified = simple = simple_nonzero = 0
    audit_lines: list[str] = []
    perms = itertools.islice(itertools.permutations(range(1, n + 1)), lo, hi)
    for pi in perms:
        if audit:
            mu = principal_mobius(pi, pruned=pruned, cache=cache)
            audit_lines.append(f"{fmt(pi)}\t{mu}")
            weight = 1
        else:
            orbit = symmetry_orbit(pi)
            if pi != min(orbit):
                continue
            weight = len(orbit)
            mu = principal_mobius(pi, pruned=pruned, cache=cache)
        if mu == 0:
            zeros += weight
            if certify_zero(pi) is not None:
                certified += weight
        if is_simple(pi):
            simple += weight
            if mu != 0:
                simple_nonzero += weight
    return {
        "chunk": bounds,
        "zeros": zeros,
        "certified": certified,
        "simple": simple,
        "simple_nonzero": simple_nonzero,
        "audit": audit_lines,
    }


def _load_checkpoint(path: str, n: int, pruned: bool) -> dict:
    if not path or not os.path.exists(path):
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if (
        data.get("version") != CHECKPOINT_VERSION
        or data.get("n") != n
        or data.get("pruned") != pruned
    ):
        raise PermError(f"checkpoint {path} does not match this run")
    return {tuple(c["chunk"]): c for c in data.get("chunks", [])}


def _save_checkpoint(path: str, n: int, pruned: bool, done: dict) -> None:
    payload = {
        "version": CHECKPOINT_VERSION,
        "n": n,
        "pruned": pruned,
        "chunks": [
            {k: v for k, v in res.items() if k != "audit"} | {"chunk": list(chunk)}
            for chunk, res in sorted(done.items())
        ],
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def zero_density(
    n: int,
    pruned: bool = True,
    workers: int = 1,
    long_run: bool = False,
    table: Optional[MobiusCache] = None,
    audit_file: Optional[TextIO] = None,
    checkpoint: Optional[str] = None,
) -> CensusRow:
    """Evaluate mu(1, .) over all of S_n and aggregate into a CensusRow.

    Symmetry-class reduction is used unless an audit file (one line per
    permutation) is requested.  ``long_run`` must be set for n above the
    desk cap.  ``table`` is copied to every worker and probed once per
    evaluated permutation, so only its length-n values are ever read.
    """
    if n < 1:
        raise PermError("n must be positive")
    if n > DENSITY_DESK_CAP and not long_run:
        raise PermError(
            f"n={n} is beyond the desk cap {DENSITY_DESK_CAP}; pass long_run=True"
        )
    if table is None:
        table = MobiusCache()
    audit = audit_file is not None
    total = math.factorial(n)
    chunks = _chunk_ranges(total)
    done = _load_checkpoint(checkpoint, n, pruned) if checkpoint else {}
    if audit and done:
        raise PermError("checkpoint resume cannot replay audit lines; rerun fresh")
    pending = [c for c in chunks if c not in done]

    results: dict[tuple[int, int], dict] = dict(done)
    if workers <= 1 or len(pending) <= 1:
        _worker_init(n, pruned, audit, table._data)
        for c in pending:
            results[c] = _scan_chunk(c)
            if checkpoint:
                _save_checkpoint(checkpoint, n, pruned, results)
    else:
        with multiprocessing.Pool(
            workers, initializer=_worker_init, initargs=(n, pruned, audit, table._data)
        ) as pool:
            for res in pool.imap_unordered(_scan_chunk, pending):
                results[tuple(res["chunk"])] = res
                if checkpoint:
                    _save_checkpoint(checkpoint, n, pruned, results)

    zeros = certified = simple = simple_nonzero = 0
    for chunk in chunks:  # deterministic aggregation order by rank range
        res = results[chunk]
        zeros += res["zeros"]
        certified += res["certified"]
        simple += res["simple"]
        simple_nonzero += res["simple_nonzero"]
        if audit:
            for line in res["audit"]:
                audit_file.write(line + "\n")
    a, b, s = adjacency_counts(n)
    return CensusRow(
        n=n,
        total=total,
        zero_count=zeros,
        certified_count=certified,
        a_n=a,
        b_n=b,
        s_n=s,
        simple_count=simple,
        simple_nonzero_count=simple_nonzero,
    )


def sweep(
    n_max: int, pruned: bool = True, workers: int = 1, long_run: bool = False
) -> list[CensusRow]:
    """CensusRows for n = 1..n_max."""
    return [
        zero_density(n, pruned=pruned, workers=workers, long_run=long_run)
        for n in range(1, n_max + 1)
    ]


def density_bound_report(rows: Sequence[CensusRow]) -> str:
    """Per-n comparison of s_n/n! with the asymptotic constant (1-1/e)^2."""
    if not rows:
        raise PermError("no rows to report on")
    lines = ["n\ts_n/n!\tlimit\tgap\td_n"]
    for row in rows:
        ratio = row.s_n / row.total
        gap = ASYMPTOTIC_LOWER_BOUND - ratio
        line = (
            f"{row.n}\t{ratio:.4f}\t{ASYMPTOTIC_LOWER_BOUND:.4f}\t{gap:+.4f}\t"
            f"{row.density_str}"
        )
        if row.density < Fraction(row.s_n, row.total):
            line += "\tIMPOSSIBLE: d_n < s_n/n!"
        lines.append(line)
    return "\n".join(lines) + "\n"


CSV_HEADER = "n,total,zeros,density,certified,a_n,b_n,s_n,simple,simple_nonzero"


def emit_table(rows: Sequence[CensusRow], format: str = "text") -> str:
    """Byte-stable serialization of census rows (csv, json or text)."""
    rows = sorted(rows, key=lambda r: r.n)
    if format == "csv":
        lines = [CSV_HEADER]
        for r in rows:
            d = r.to_dict()
            lines.append(",".join(str(d[k]) for k in CSV_HEADER.split(",")))
        return "\n".join(lines) + "\n"
    if format == "json":
        return json.dumps([r.to_dict() for r in rows], indent=2) + "\n"
    if format == "text":
        lines = [f"{r.n} {r.density_str}" for r in rows]
        return "\n".join(lines) + "\n"
    raise PermError(f"unknown format {format!r}")
