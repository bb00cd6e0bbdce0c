"""Per-length census: zero densities, adjacency counts, simple-permutation stats.

The density sweep for length n first builds level tables of mu(1, tau) for
every tau shorter than n, bottom-up by length, each permutation once.  The
nonzero-valued permutations of length <= n-2 are numbered in ascending
length and lexicographic rank; each permutation of those lengths keeps a
closure, the Python-int bitset of the numbered permutations at or below it.
Length n-1 keeps only each permutation's value and its children's closures.
With ``classes[v]`` the bitset of the numbered permutations of value v, a
permutation pi of length n has

    mu(1, pi) = -sum of mu(tau) over its distinct single deletions tau
                - sum_v v * |D & classes[v]|,

where D is the OR of the closures of pi's double deletions: the value-class
popcount of the interval engine in ``mobius.py``, with global indices.

The scan evaluates one representative per orbit of the 8 symmetries
(weighted by orbit size) and partitions S_n into fixed lexicographic-rank
chunks, so results are byte-identical for any worker count.
"""
from __future__ import annotations

import itertools
import json
import math
import multiprocessing
import os
import sys
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, TextIO

from .permcore import (
    BudgetError,
    Perm,
    PermError,
    deletions,
    fmt,
    is_simple,
    symmetry_orbit,
)
from .mobius import MobiusCache, principal_mobius
from .zerorules import ANNIHILATOR_PAIRS, BASE_ANNIHILATORS, certify_zero

#: Direct S_n scans are refused above this length.
ADJACENCY_SCAN_CAP = 13

#: Default cap for the density sweep; longer runs need an explicit opt-in.
DENSITY_DESK_CAP = 9

#: Bytes the level-table closures may take before the build gives up with
#: BudgetError; n = 10 needs 27 MiB, n = 11 would need gigabytes.
LEVEL_BUDGET_BYTES = 1 << 28

#: Permutations per scan chunk, in lexicographic rank order.
CHUNK_SIZE = 4096

#: Version 3 dropped the ``pruned`` field; older checkpoints do not resume.
CHECKPOINT_VERSION = 3

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


class LevelTables:
    """mu(1, tau) for every permutation tau shorter than ``n``, built bottom-up.

    ``closures`` maps each permutation of length <= n-2 (and the empty one,
    with closure 0) to the bitset of the nonzero-valued permutations at or
    below it; those are numbered in ascending length, then lexicographic
    rank.  ``top`` maps each permutation of length n-1 to its value and the
    tuple of its children's closures.  ``classes[v]`` is the bitset of the
    numbered permutations of value v.  Raises BudgetError once the closures
    pass ``LEVEL_BUDGET_BYTES``.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise PermError("n must be positive")
        self.n = n
        self.closures: dict[Perm, int] = {(): 0}
        self.top: dict[Perm, tuple[int, tuple[int, ...]]] = {}
        self.classes: dict[int, int] = {}
        closures, classes = self.closures, self.classes
        bit = size = 0
        for k in range(1, n):
            for tau in itertools.permutations(range(1, k + 1)):
                kids = tuple([closures[c] for c in deletions(tau)])
                mu = self._value(kids) if k > 1 else 1
                if k == n - 1:
                    self.top[tau] = (mu, kids)
                    continue
                closure = 0
                for c in kids:
                    closure |= c
                if mu:
                    classes[mu] = classes.get(mu, 0) | (1 << bit)
                    closure |= 1 << bit
                    bit += 1
                closures[tau] = closure
                size += sys.getsizeof(closure)
                if size > LEVEL_BUDGET_BYTES:
                    raise BudgetError(
                        f"level tables for n={n} exceed {LEVEL_BUDGET_BYTES} bytes"
                    )

    def _value(self, kids: Sequence[int], singles: int = 0) -> int:
        # mu(1, .) of a permutation whose numbered strict down-set is the OR
        # of ``kids`` and whose unnumbered children's values sum to ``singles``
        below = 0
        for c in kids:
            below |= c
        return -singles - sum(
            v * (below & m).bit_count() for v, m in self.classes.items()
        )

    def get(self, pi: Perm) -> Optional[int]:
        """The read side of the MobiusCache protocol: mu(1, pi) for
        |pi| <= n, None otherwise, so ``principal_mobius`` can use the
        tables as its cache."""
        if len(pi) <= self.n:
            return self.mobius(pi)
        return None

    def put(self, pi: Perm, value: int) -> None:
        """Values outside the tables are not kept."""

    def mobius(self, pi: Perm) -> int:
        """mu(1, pi) for a permutation pi with 1 <= |pi| <= n."""
        k = len(pi)
        if not 1 <= k <= self.n:
            raise PermError(f"level tables for n={self.n} cannot evaluate length {k}")
        if k == 1:
            return 1
        if k < self.n:
            return self._value([self.closures[c] for c in deletions(pi)])
        singles = 0
        kids: list[int] = []
        top = self.top
        for tau in deletions(pi):
            mu, grandkids = top[tau]
            singles += mu
            kids.extend(grandkids)
        return self._value(kids, singles)


def build_principal_table(n_max: int, cache: Optional[MobiusCache] = None) -> MobiusCache:
    """Mobius cache holding mu(1, pi) for every pi with 2 <= |pi| <= n_max.

    Filled from the level tables, one entry per symmetry class.
    """
    if cache is None:
        cache = MobiusCache()
    tables = LevelTables(max(n_max, 1))
    for n in range(2, n_max + 1):
        for pi in itertools.permutations(range(1, n + 1)):
            if pi == min(symmetry_orbit(pi)):
                cache.put(pi, tables.mobius(pi))
    return cache


def _chunk_ranges(total: int, chunk_size: int = CHUNK_SIZE) -> list[tuple[int, int]]:
    # fixed-size rank chunks, independent of worker count
    return [(lo, min(lo + chunk_size, total)) for lo in range(0, total, chunk_size)]


def _fingerprint() -> str:
    """CRC-32 of what a checkpoint's counts depend on beyond n: the rule
    tables behind ``certified`` and the chunking."""
    text = repr((BASE_ANNIHILATORS, ANNIHILATOR_PAIRS, CHUNK_SIZE))
    return f"{zlib.crc32(text.encode()):08x}"


_WORKER_STATE: dict = {}


def _worker_init(n: int, audit: bool, tables: Optional[LevelTables]) -> None:
    _WORKER_STATE.update(n=n, audit=audit, tables=tables)


def _scan_chunk(bounds: tuple[int, int]) -> dict:
    n = _WORKER_STATE["n"]
    audit = _WORKER_STATE["audit"]
    tables = _WORKER_STATE["tables"]
    lo, hi = bounds
    zeros = certified = simple = simple_nonzero = 0
    audit_lines: list[str] = []
    perms = itertools.islice(itertools.permutations(range(1, n + 1)), lo, hi)
    for pi in perms:
        if audit:
            mu = principal_mobius(pi, cache=tables)
            audit_lines.append(f"{fmt(pi)}\t{mu}")
            weight = 1
        else:
            orbit = symmetry_orbit(pi)
            if pi != min(orbit):
                continue
            weight = len(orbit)
            mu = principal_mobius(pi, cache=tables)
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


_CHUNK_KEYS = {"chunk", "zeros", "certified", "simple", "simple_nonzero"}


def _load_checkpoint(path: str, n: int) -> dict:
    """The finished chunks of a checkpoint file by rank range; PermError if
    the file is not a checkpoint of this run."""
    if not path or not os.path.exists(path):
        return {}
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise PermError(f"checkpoint {path} is not valid JSON: {exc}") from None
    if (
        not isinstance(data, dict)
        or data.get("version") != CHECKPOINT_VERSION
        or data.get("n") != n
        or data.get("fingerprint") != _fingerprint()
    ):
        raise PermError(f"checkpoint {path} does not match this run")
    chunks = data.get("chunks", [])
    if not isinstance(chunks, list) or not all(
        isinstance(c, dict) and c.keys() >= _CHUNK_KEYS for c in chunks
    ):
        raise PermError(f"checkpoint {path} has a malformed chunk")
    return {tuple(c["chunk"]): c for c in chunks}


def _save_checkpoint(path: str, n: int, done: dict) -> None:
    payload = {
        "version": CHECKPOINT_VERSION,
        "n": n,
        "fingerprint": _fingerprint(),
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
    workers: int = 1,
    long_run: bool = False,
    audit_file: Optional[TextIO] = None,
    checkpoint: Optional[str] = None,
) -> CensusRow:
    """Evaluate mu(1, .) over all of S_n and aggregate into a CensusRow.

    The level tables for n are built once in this process and handed to the
    workers through the pool initializer; each value of length n then costs
    one lookup per single deletion and a popcount per value class.
    Symmetry-class reduction is used unless an audit file (one line per
    permutation) is requested.  ``long_run`` must be set for n above the
    desk cap.  Raises BudgetError when the level tables would pass
    ``LEVEL_BUDGET_BYTES``.
    """
    if n < 1:
        raise PermError("n must be positive")
    if n > DENSITY_DESK_CAP and not long_run:
        raise PermError(
            f"n={n} is beyond the desk cap {DENSITY_DESK_CAP}; pass long_run=True"
        )
    audit = audit_file is not None
    total = math.factorial(n)
    chunks = _chunk_ranges(total)
    done = _load_checkpoint(checkpoint, n) if checkpoint else {}
    if audit and done:
        raise PermError("checkpoint resume cannot replay audit lines; rerun fresh")
    pending = [c for c in chunks if c not in done]

    results: dict[tuple[int, int], dict] = dict(done)
    tables = LevelTables(n) if pending else None
    if workers <= 1 or len(pending) <= 1:
        _worker_init(n, audit, tables)
        for c in pending:
            results[c] = _scan_chunk(c)
            if checkpoint:
                _save_checkpoint(checkpoint, n, results)
    else:
        with multiprocessing.Pool(
            workers, initializer=_worker_init, initargs=(n, audit, tables)
        ) as pool:
            for res in pool.imap_unordered(_scan_chunk, pending):
                results[tuple(res["chunk"])] = res
                if checkpoint:
                    _save_checkpoint(checkpoint, n, results)

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


def sweep(n_max: int, workers: int = 1, long_run: bool = False) -> list[CensusRow]:
    """CensusRows for n = 1..n_max."""
    if n_max < 1:
        raise PermError(f"n_max must be at least 1, got {n_max}")
    return [
        zero_density(n, workers=workers, long_run=long_run)
        for n in range(1, n_max + 1)
    ]


def density_bound_report(rows: Sequence[CensusRow]) -> str:
    """Per-n comparison of s_n/n! with the asymptotic constant (1-1/e)^2.

    Paper (arXiv:1810.05449): by Theorem 1, d_n >= s_n/n!, which tends to it.
    """
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
