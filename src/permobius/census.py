"""Per-length census: zero densities, adjacency counts, simple-permutation stats.

The density sweep for length n first builds ``mobius.LevelTables(n)``: the
values mu(1, tau) of every tau shorter than n, in the bit-plane layout of
the interval walk, which that class describes.

The scan evaluates one representative per orbit of the 8 symmetries
(weighted by orbit size) and partitions S_n into the n(n-1) chunks of
permutations that share their first two entries, in lexicographic order,
so results are byte-identical for any worker count.  Outside audit mode a
chunk visits only orbit candidates: permutations whose first entry is at
most the first entry of each of their 8 images, read off pi[0], pi[-1] and
the positions of 1 and n.  Only those have their 8 images built.

Each representative's intervals are scanned once, and that list gives its
simplicity, its adjacencies and, for a zero, its certificate
(``zerorules._certify``, uncached).  The scan counts the permutations with
opposing adjacencies (s_n) and with none (b_n).  Reverse and complement
swap up- and down-adjacencies and inverse keeps them, so orbit weights
count both classes exactly, and ``zero_density`` checks them against the
recurrences at every n.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import math
import multiprocessing
import os
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, TextIO

from .permcore import Perm, PermError, fmt, intervals, symmetric_images, symmetry_orbit
from .mobius import LevelTables, MobiusCache, principal_mobius
from .zerorules import ANNIHILATOR_PAIRS, BASE_ANNIHILATORS, _certify

# Unused here; bench/tracing.py patches these names on this module.
from .permcore import is_simple  # noqa: F401
from .zerorules import certify_zero  # noqa: F401

#: Default cap for the density sweep; longer runs need an explicit opt-in.
DENSITY_DESK_CAP = 9

#: Version 5 keys chunks by their two-entry prefix and stores the adjacency
#: class counts of each; older checkpoints do not resume.
CHECKPOINT_VERSION = 5

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
# Adjacency counts from the recurrences.


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


def adjacency_counts(n: int) -> tuple[int, int, int]:
    """(a_n, b_n, s_n) from the recurrences; ``zero_density`` checks b_n and
    s_n against its own scan of S_n."""
    if n < 1:
        raise PermError(f"adjacency counts need n >= 1, got {n}")
    a = no_up_adjacency_recurrence(n)[n]
    b = adjacency_free_recurrence(n)[n]
    return a, b, math.factorial(n) - 2 * a + b


# ---------------------------------------------------------------------------
# Density sweep.


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


def _chunks(n: int) -> list[Perm]:
    # the two-entry prefixes in lexicographic order, independent of worker count
    return list(itertools.permutations(range(1, n + 1), min(n, 2)))


def _fingerprint() -> str:
    """CRC-32 of what a checkpoint's counts depend on beyond n and the
    chunking that ``CHECKPOINT_VERSION`` pins: the rule tables behind
    ``certified``."""
    text = repr((BASE_ANNIHILATORS, ANNIHILATOR_PAIRS))
    return f"{zlib.crc32(text.encode()):08x}"


_WORKER_STATE: dict = {}


def _worker_init(n: int, audit: bool, tables: Optional[LevelTables]) -> None:
    _WORKER_STATE.update(n=n, audit=audit, tables=tables)


_COUNT_KEYS = (
    "zeros", "certified", "simple", "simple_nonzero", "opposing", "adjacency_free"
)


def _scan_chunk(prefix: Perm) -> dict:
    n = _WORKER_STATE["n"]
    audit = _WORKER_STATE["audit"]
    tables = _WORKER_STATE["tables"]
    rest = [v for v in range(1, n + 1) if v not in prefix]
    # pi = min(orbit) needs pi[0] at most the first entry of every image,
    # among them the complement's n + 1 - pi[0]; past that no prefix holds
    # an orbit candidate
    dead = not audit and prefix[0] > n + 1 - prefix[0]
    counts = dict.fromkeys(_COUNT_KEYS, 0)
    audit_lines: list[str] = []
    for tail in () if dead else itertools.permutations(rest):
        pi = prefix + tail
        if audit:
            mu = principal_mobius(pi, cache=tables)
            audit_lines.append(f"{fmt(pi)}\t{mu}")
            weight = 1
        else:
            # the other first entries: pi[-1], n + 1 - pi[-1] and the
            # positions of 1 and n, counted from either end
            first = pi[0]
            top = n + 1 - first
            if not (
                first <= pi[-1] <= top
                and first <= pi.index(1) + 1 <= top
                and first <= pi.index(n) + 1 <= top
            ):
                continue
            images = symmetric_images(pi)
            if pi != min(images):
                continue
            weight = len(set(images))
            mu = principal_mobius(pi, cache=tables)
        # pi is simple iff its only intervals are the singletons and pi (one
        # of them if n = 1); the length-2 ones are adjacencies, up if rising
        ivs = list(intervals(pi))
        rising = [pi[s - 1] == low for s, e, low in ivs if e - s == 1]
        if mu == 0:
            counts["zeros"] += weight
            if _certify(pi, ivs) is not None:
                counts["certified"] += weight
        if len(ivs) == n + (n > 1):
            counts["simple"] += weight
            if mu != 0:
                counts["simple_nonzero"] += weight
        if True in rising and False in rising:
            counts["opposing"] += weight
        elif not rising:
            counts["adjacency_free"] += weight
    return {"chunk": prefix, **counts, "audit": audit_lines}


def _load_checkpoint(path: str, n: int) -> dict:
    """The finished chunks of a checkpoint file by prefix; PermError if the
    file is not a checkpoint of this run or a chunk is not one of its
    prefixes with an integer for each of ``_COUNT_KEYS``."""
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
    prefixes = _chunks(n)
    if not isinstance(chunks, list) or not all(
        isinstance(c, dict)
        and isinstance(c.get("chunk"), list)
        and tuple(c["chunk"]) in prefixes
        and all(type(v) is int for v in [*c["chunk"], *map(c.get, _COUNT_KEYS)])
        for c in chunks
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


def _check_desk_cap(n: int, long_run: bool) -> None:
    if n > DENSITY_DESK_CAP and not long_run:
        raise PermError(
            f"n={n} is beyond the desk cap {DENSITY_DESK_CAP}; pass long_run=True"
        )


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
    one lookup per single deletion and a popcount per signed bit plane.  Each
    chunk is the (n-2)! permutations that share a two-entry prefix.  Unless
    an audit file (one line per permutation) is requested, the scan visits
    only orbit candidates and evaluates the least member of each symmetry
    orbit, weighted by the orbit's size.  ``long_run`` must be set for n
    above the desk cap.  Raises BudgetError when the level tables would
    pass ``permcore.BUDGET_BYTES``, and AssertionError when the scan's
    adjacency-free and opposing-adjacency counts are not the recurrences'
    b_n and s_n.
    """
    if n < 1:
        raise PermError("n must be positive")
    if workers < 1:
        raise PermError(f"workers must be at least 1, got {workers}")
    _check_desk_cap(n, long_run)
    audit = audit_file is not None
    chunks = _chunks(n)
    done = _load_checkpoint(checkpoint, n) if checkpoint else {}
    if audit and done:
        raise PermError("checkpoint resume cannot replay audit lines; rerun fresh")
    pending = [c for c in chunks if c not in done]
    if checkpoint and pending:  # an unwritable path fails here, before the level build
        _save_checkpoint(checkpoint, n, done)

    results: dict[Perm, dict] = dict(done)
    tables = LevelTables(n) if pending else None
    with contextlib.ExitStack() as stack:
        if workers == 1 or len(pending) <= 1:
            _worker_init(n, audit, tables)
            scan = map
        else:
            pool = multiprocessing.Pool(
                min(workers, len(pending)), initializer=_worker_init, initargs=(n, audit, tables)
            )
            scan = stack.enter_context(pool).imap_unordered
        for res in scan(_scan_chunk, pending):
            results[res["chunk"]] = res
            if checkpoint:
                _save_checkpoint(checkpoint, n, results)

    zeros, certified, simple, simple_nonzero, opposing, adjacency_free = (
        sum(results[c][k] for c in chunks) for k in _COUNT_KEYS
    )
    if audit:
        for chunk in chunks:  # audit lines in prefix order
            audit_file.writelines(line + "\n" for line in results[chunk]["audit"])
    a, b, s = adjacency_counts(n)
    if (adjacency_free, opposing) != (b, s):
        raise AssertionError(
            f"scan/recurrence disagreement at n={n}: "
            f"scan (b, s)=({adjacency_free},{opposing}) rec=({b},{s})"
        )
    return CensusRow(
        n=n,
        total=math.factorial(n),
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
    # refuse before any row is computed, naming the first n past the cap
    _check_desk_cap(min(n_max, DENSITY_DESK_CAP + 1), long_run)
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
