"""Permutations in one-line notation, and the order/structure primitives on them.

A permutation is a tuple of the integers 1..n ("one-line" notation), e.g.
``(3, 1, 2)``; the empty tuple is the empty permutation.  All functions are
pure, and values are immutable and safe to share across workers.  Every
interval (contiguous positions and values) comes from the one ``intervals``
scan, which sum splits and simplicity filter.  Patterns of a permutation
are made on ``bytes``: ``_children`` deletes each value of each pattern of
a level with one ``translate``, and ``deletion_levels`` folds those
children, a block of patterns at a time, into the deletion closure that
the Mobius kernel walks.
"""
from __future__ import annotations

from itertools import chain, cycle, islice, repeat, tee
from sys import getsizeof
from typing import Iterable, Iterator, NoReturn, Optional, Sequence

Perm = tuple[int, ...]

EMPTY: Perm = ()

#: Hard cap on permutation length; constructors reject longer inputs.
MAX_LEN = 64

#: Bytes, as ``sys.getsizeof`` counts them, that one interval walk or one
#: level-table build may hold.  pi_22's walk needs 59 MiB of it (36 MiB of
#: deletion levels) and LevelTables(10) 124 MiB; a random pi of length 30
#: trips at 1.9M patterns and about 310 MiB of RSS, far below the 8 GiB of
#: the 2-core machine this was sized on.
BUDGET_BYTES = 1 << 28


class PermError(ValueError):
    """Invalid permutation input or an operation used outside its domain."""


class BudgetError(RuntimeError):
    """An enumeration exceeded its configured size budget."""


def perm(values: Iterable[int]) -> Perm:
    """Validate and return a permutation of 1..n as a tuple.

    >>> perm([3, 1, 2])
    (3, 1, 2)
    """
    vals = tuple(values)
    if not all(type(v) is int for v in vals):
        raise PermError(f"not a permutation of integers: {vals!r}")
    n = len(vals)
    if n > MAX_LEN:
        raise PermError(f"length {n} exceeds cap {MAX_LEN}")
    if sorted(vals) != list(range(1, n + 1)):
        raise PermError(f"not a permutation of 1..{n}: {vals!r}")
    return vals


def parse(text: str) -> Perm:
    """Parse a permutation from text.

    Accepts whitespace- or comma-separated unsigned integers, or a compact
    digit string (legal only when every value is at most 9).  Empty input
    parses to the empty permutation.
    """
    text = text.strip()
    if not text:
        return EMPTY
    if "," in text or any(ch.isspace() for ch in text):
        tokens = text.replace(",", " ").split()
        if all(tok.isdecimal() for tok in tokens):
            return perm(int(tok) for tok in tokens)
    elif text.isdecimal():
        # compact form: one digit per value, so only valid for values <= 9
        return perm(int(ch) for ch in text)
    raise PermError(f"cannot parse permutation from {text!r}")


def fmt(pi: Perm) -> str:
    """Render a permutation: compact digits for n <= 9, spaced otherwise."""
    if len(pi) <= 9:
        return "".join(str(v) for v in pi)
    return " ".join(str(v) for v in pi)


def pattern_of(seq: Sequence[float]) -> Perm:
    """The unique permutation order-isomorphic to a sequence of distinct values.

    >>> pattern_of((6, 2, 7, 5))
    (3, 1, 4, 2)
    """
    if len(set(seq)) != len(seq):
        raise PermError(f"entries not distinct: {seq!r}")
    ranks = {v: r for r, v in enumerate(sorted(seq), start=1)}
    return tuple(ranks[v] for v in seq)


def contains(sigma: Perm, pi: Perm) -> bool:
    """True iff sigma <= pi: a left-to-right backtracking search for a
    subsequence of pi order-isomorphic to sigma, stopping at the first."""
    k, n = len(sigma), len(pi)
    if k == 0:
        return True
    if k > n:
        return False
    if sigma == pi:
        return True
    chosen = [0] * k

    def extend(t: int, start: int) -> bool:
        if t == k:
            return True
        s = sigma[t]
        for p in range(start, n - k + t + 1):
            v = pi[p]
            for u in range(t):
                if (s < sigma[u]) != (v < chosen[u]):
                    break
            else:
                chosen[t] = v
                if extend(t + 1, p + 1):
                    return True
        return False

    return extend(0, 0)


#: Deleting value v from a permutation held as ``bytes`` is one
#: ``translate(_SHIFT[v], _DROP[v])``: it drops the byte v, then lowers
#: every byte above v by one.  One table per value up to ``MAX_LEN``.
_DROP = [bytes([v]) for v in range(MAX_LEN + 1)]
_SHIFT = [bytes(range(v + 1)) + bytes(range(v, 255)) for v in range(MAX_LEN + 1)]

#: ``sys.getsizeof`` of an empty ``bytes``, list and tuple, and of one
#: pointer: a pattern of length n takes _BYTES + n, a tuple of m items
#: _TUPLE + _PTR * m.
_BYTES, _LIST, _TUPLE, _PTR = getsizeof(b""), getsizeof([]), getsizeof(()), tuple.__itemsize__

#: Patterns per block of a level: the deletion closure makes the children
#: of this many patterns at a time, and ``LevelTables`` ORs their closures.
_BLOCK = 256


def _children(level: Iterable[bytes], k: int) -> Iterator[bytes]:
    """The single deletions of each pattern of length k in ``level``, k per
    pattern in turn: value 1 deleted first, value k last.  Two deletions
    can leave equal children; both are listed."""
    return map(
        bytes.translate,
        chain.from_iterable(map(repeat, level, repeat(k))),
        cycle(_SHIFT[1 : k + 1]),
        cycle(_DROP[1 : k + 1]),
    )


def _deletions(tau: bytes) -> set[bytes]:
    """The distinct single deletions of a permutation held as ``bytes``."""
    return {tau.translate(_SHIFT[v], _DROP[v]) for v in tau}


def deletions(pi: Perm) -> set[Perm]:
    """Distinct patterns obtained by deleting one point of pi."""
    return {tuple(tau) for tau in _deletions(bytes(pi))}


def deletion_levels(
    pi: Perm, length: int
) -> tuple[list[dict[bytes, bytes]], list[list[bytes]], int]:
    """The patterns of pi of every length from |pi| down to ``length``, the
    single deletions of each, and the bytes of ``BUDGET_BYTES`` they leave.

    Built top-down, one level per length: ``levels[d]`` is a dict whose
    keys are the distinct patterns of length k = |pi| - d, each as the
    ``bytes`` of its one-line notation (``tuple`` gives the Perm) and mapped
    to itself.  ``children[d]`` lists the single deletions of its keys in
    the dict's order, k per key as ``_children`` makes them, each as the
    very key object of ``levels[d + 1]``: ``children[d][j * k + v - 1]`` is
    the j-th key with value v deleted.  A level's children are made
    ``_BLOCK`` keys at a time, and each is folded into the next level as
    soon as it is made, so no block of fresh copies is ever held.

    Bytes are counted as ``sys.getsizeof`` sees them: each new pattern, and
    each level's list of children and dict.  The list is counted before the
    level, with the most room it can grow, and each block's children before
    the block, as if all were new; once the level is done the list counts
    its own size, and the dict is counted.  Raises BudgetError once the
    count passes the budget, read when the call starts.
    """
    left = BUDGET_BYTES
    top = bytes(pi)
    level = {top: top}
    levels, children = [level], []
    for k in range(len(pi), length, -1):
        total, unit = len(level) * k, _BYTES + k - 1
        room = _LIST + _PTR * (total + (total >> 3) + 8)
        left -= room
        index: dict[bytes, bytes] = {}
        kids: list[bytes] = []
        parents = iter(level)
        for start in range(0, total, _BLOCK * k):
            if left < unit * min(_BLOCK * k, total - start):
                _over_budget(pi, length)
            known = len(index)
            fresh, again = tee(_children(islice(parents, _BLOCK), k))
            kids.extend(map(index.setdefault, fresh, again))
            left -= unit * (len(index) - known)
        left += room - getsizeof(kids) - getsizeof(index)
        if left < 0:
            _over_budget(pi, length)
        level = index
        levels.append(level)
        children.append(kids)
    return levels, children, left


def _over_budget(pi: Perm, length: int) -> NoReturn:
    closure = f"deletion closure of {fmt(pi)} down to length {length}"
    raise BudgetError(f"{closure} exceeds {BUDGET_BYTES} bytes")


def down_set(pi: Perm) -> set[Perm]:
    """All nonempty patterns contained in pi (the interval [1, pi] as a set).

    The union of ``deletion_levels(pi, 1)``; raises BudgetError when those
    levels would pass ``BUDGET_BYTES``.
    """
    if not pi:
        raise PermError("down_set of the empty permutation is not defined")
    return {tuple(tau) for level in deletion_levels(pi, 1)[0] for tau in level}


def direct_sum(alpha: Perm, beta: Perm) -> Perm:
    if len(alpha) + len(beta) > MAX_LEN:
        raise PermError("direct sum exceeds length cap")
    return alpha + tuple(v + len(alpha) for v in beta)


def inflate_at(sigma: Perm, positions: Sequence[int], parts: Sequence[Perm]) -> Perm:
    """Inflate the given 1-based positions of sigma by parts, all others by
    the singleton; blocks keep sigma's order, and an empty part deletes its
    point, but not every part may be empty.  The paper's example inflates
    3624715 at positions 2 and 5 by 12 and 21:

    >>> fmt(inflate_at(parse("3624715"), [2, 5], [(1, 2), (2, 1)]))
    '367249815'
    """
    n = len(sigma)
    if len(positions) != len(parts):
        raise PermError("positions and parts must have equal length")
    if len(set(positions)) != len(positions):
        raise PermError(f"duplicate position in {positions!r}")
    full: list[Perm] = [(1,)] * n
    for pos, part in zip(positions, parts):
        if not 1 <= pos <= n:
            raise PermError(f"position {pos} out of range 1..{n}")
        full[pos - 1] = tuple(part)
    if not any(full):
        raise PermError("at least one part must be nonempty")
    start = [0] * n
    base = 0
    for i in sorted(range(n), key=lambda i: sigma[i]):
        start[i] = base
        base += len(full[i])
    if base > MAX_LEN:
        raise PermError("inflation exceeds length cap")
    return tuple([start[i] + v for i in range(n) for v in full[i]])


def adjacencies(pi: Perm) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """1-based positions i of up-adjacencies (pi[i+1] = pi[i]+1) and down-adjacencies."""
    ups = tuple(i + 1 for i in range(len(pi) - 1) if pi[i + 1] == pi[i] + 1)
    downs = tuple(i + 1 for i in range(len(pi) - 1) if pi[i + 1] == pi[i] - 1)
    return ups, downs


def has_opposing_adjacencies(pi: Perm) -> bool:
    ups, downs = adjacencies(pi)
    return bool(ups) and bool(downs)


def intervals(pi: Perm) -> Iterator[tuple[int, int, int]]:
    """Every interval of pi: a window of positions whose values are contiguous.

    Yields ``(start, end, low)`` with 1-based inclusive positions and ``low``
    the least value of the window, ordered by start, then end; singletons
    and pi itself are included.  One pass per start with a running min and
    max, so O(n^2) in all.

    >>> list(intervals((2, 4, 1, 3)))
    [(1, 1, 2), (1, 4, 1), (2, 2, 4), (3, 3, 1), (4, 4, 3)]
    """
    n = len(pi)
    for s in range(n):
        low = high = pi[s]
        for e in range(s, n):
            v = pi[e]
            if v < low:
                low = v
            elif v > high:
                high = v
            if high - low == e - s:
                yield s + 1, e + 1, low


def _sum_split(pi: Perm, ivs: Iterable[tuple[int, int, int]]) -> Optional[tuple[int, int, int]]:
    """The least witness (i, j, p) of an interval copy of some a+1+b direct
    sum, given ``ivs``, pi's intervals in ``intervals`` order.

    The window [i, j] (1-based) has contiguous values, and the interior
    position p has every window value to its left below pi[p] and every one
    to its right above.  Witnesses are ordered lexicographically.
    """
    for s, e, low in ivs:
        # p splits [s, e] iff pi[p] = low + (p - s) and exceeds all to its left
        high = pi[s - 1]
        for p in range(s + 1, e):
            v = pi[p - 1]
            if v == low + p - s and high < v:
                return (s, e, p)
            if v > high:
                high = v
    return None


def is_simple(pi: Perm) -> bool:
    """True iff pi has no proper interval, one of length 2..n-1."""
    if not pi:
        raise PermError("simplicity of the empty permutation is not defined")
    return not any(0 < e - s < len(pi) - 1 for s, e, _ in intervals(pi))


# ---------------------------------------------------------------------------
# The 8 symmetries generated by reverse (r), complement (c) and inverse (i).
#
# A label applies its steps left to right.  Reverse and complement commute,
# so every group element is the identity or the inverse, optionally followed
# by reverse and/or complement: one inverse per permutation, the rest by
# slicing and relabelling.

SYMMETRY_LABELS = ("id", "r", "c", "rc", "i", "ir", "ic", "irc")

_LABEL_INDEX = {label: k for k, label in enumerate(SYMMETRY_LABELS)}


def symmetric_images(pi: Perm) -> tuple[Perm, ...]:
    """The images of pi under the 8 symmetries, in SYMMETRY_LABELS order."""
    n1 = len(pi) + 1
    inverse = [0] * len(pi)
    for p, v in enumerate(pi, start=1):
        inverse[v - 1] = p
    inv = tuple(inverse)
    c = tuple([n1 - v for v in pi])
    ic = tuple([n1 - v for v in inv])
    return (pi, pi[::-1], c, c[::-1], inv, inv[::-1], ic, ic[::-1])


def apply_symmetry(label: str, pi: Perm) -> Perm:
    """Apply a symmetry (one of SYMMETRY_LABELS, steps applied in label order)."""
    k = _LABEL_INDEX.get(label)
    if k is None:
        raise PermError(f"unknown symmetry {label!r}")
    return symmetric_images(pi)[k]


def symmetry_orbit(pi: Perm) -> set[Perm]:
    """The distinct images of pi under the 8 symmetries."""
    return set(symmetric_images(pi))


def canonical_symmetry_form(pi: Perm) -> Perm:
    """The lexicographically least of the 8 symmetric images of pi."""
    return min(symmetric_images(pi))
