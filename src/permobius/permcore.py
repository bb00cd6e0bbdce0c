"""Permutations in one-line notation, and the order/structure primitives on them.

A permutation is a tuple of the integers 1..n ("one-line" notation), e.g.
``(3, 1, 2)``; the empty tuple is the empty permutation.  All functions are
pure, and values are immutable and safe to share across workers.  Every
interval (contiguous positions and values) comes from the one ``intervals``
scan, which interval copies, sum splits and simplicity filter.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

Perm = tuple[int, ...]

EMPTY: Perm = ()

#: Hard cap on permutation length; constructors reject longer inputs.
MAX_LEN = 64

#: Default cap on the number of elements a down-set enumeration may produce.
DOWN_SET_CAP = 50_000_000


class PermError(ValueError):
    """Invalid permutation input or an operation used outside its domain."""


class BudgetError(RuntimeError):
    """An enumeration exceeded its configured size budget."""


def perm(values: Iterable[int]) -> Perm:
    """Validate and return a permutation of 1..n as a tuple.

    >>> perm([3, 1, 2])
    (3, 1, 2)
    """
    vals = tuple(int(v) for v in values)
    n = len(vals)
    if n > MAX_LEN:
        raise PermError(f"length {n} exceeds cap {MAX_LEN}")
    if sorted(vals) != list(range(1, n + 1)):
        raise PermError(f"not a permutation of 1..{n}: {vals!r}")
    return vals


def parse(text: str) -> Perm:
    """Parse a permutation from text.

    Accepts whitespace- or comma-separated integers, or a compact digit
    string (legal only when every value is at most 9).  Empty input parses
    to the empty permutation.
    """
    text = text.strip()
    if not text:
        return EMPTY
    if "," in text or any(ch.isspace() for ch in text):
        return perm(text.replace(",", " ").split())
    if text.isdigit():
        if len(text) == 1:
            return perm((int(text),))
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


@dataclass(frozen=True)
class Embedding:
    """An embedding of a pattern into ``target``, identified by its image.

    The image is a strictly increasing tuple of 1-based positions of the
    target; it determines the source pattern uniquely.
    """

    target: Perm
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        img = self.image
        if not img:
            raise PermError("embedding image must be nonempty")
        n = len(self.target)
        if any(not 1 <= p <= n for p in img):
            raise PermError(f"image {img!r} out of range for target of length {n}")
        if any(img[k] >= img[k + 1] for k in range(len(img) - 1)):
            raise PermError(f"image {img!r} is not strictly increasing")

    @property
    def source(self) -> Perm:
        return pattern_of(tuple(self.target[p - 1] for p in self.image))

    @property
    def is_even(self) -> bool:
        return len(self.image) % 2 == 0


def _search(
    sigma: Perm, pi: Perm, found: Callable[[list[int]], Optional[bool]]
) -> bool:
    """Backtrack over the images of sigma in pi, lexicographically.

    Calls ``found`` with the 1-based positions of each full image (a list
    reused between calls) and stops, returning True, at the first call that
    returns a true value; returns False if none does.  Requires
    1 <= |sigma| <= |pi|.
    """
    k, n = len(sigma), len(pi)
    chosen = [0] * k

    def extend(t: int, start: int) -> Optional[bool]:
        if t == k:
            return found(chosen)
        s = sigma[t]
        for p in range(start, n - (k - t) + 2):
            v = pi[p - 1]
            ok = True
            for u in range(t):
                if (s < sigma[u]) != (v < pi[chosen[u] - 1]):
                    ok = False
                    break
            if ok:
                chosen[t] = p
                if extend(t + 1, p + 1):
                    return True
        return False

    return extend(0, 1)  # never a leaf, since |sigma| >= 1


def embeddings(sigma: Perm, pi: Perm) -> list[Embedding]:
    """All embeddings of sigma into pi, ordered lexicographically by image.

    Paper (arXiv:1810.05449): the proof of Theorem 1 cancels these by parity.
    """
    if not sigma:
        raise PermError("embeddings of the empty permutation are not defined")
    out: list[Embedding] = []
    if len(sigma) <= len(pi):
        _search(sigma, pi, lambda image: out.append(Embedding(pi, tuple(image))))
    return out


def contains(sigma: Perm, pi: Perm) -> bool:
    """True iff sigma <= pi; stops at the first witness subsequence."""
    k, n = len(sigma), len(pi)
    if k == 0:
        return True
    if k > n:
        return False
    if sigma == pi:
        return True
    return _search(sigma, pi, lambda image: True)


def deletions(pi: Perm) -> set[Perm]:
    """Distinct patterns obtained by deleting one point of pi."""
    # deleting value v shifts every larger value down by one
    return {tuple([x - (x > v) for x in pi if x != v]) for v in pi}


def deletion_levels(
    pi: Perm, length: int, cap: int = DOWN_SET_CAP
) -> tuple[list[list[Perm]], list[list[tuple[int, ...]]]]:
    """The patterns of pi of every length from |pi| down to ``length``.

    Built top-down by single-point deletion, one level per length:
    ``levels[d]`` lists the distinct patterns of length |pi| - d, and
    ``edges[d][j]`` holds the indices into ``levels[d + 1]`` of the single
    deletions of ``levels[d][j]``.  Raises BudgetError once the levels
    together pass ``cap`` elements.
    """
    levels: list[list[Perm]] = [[pi]]
    edges: list[list[tuple[int, ...]]] = []
    count = 1
    for _ in range(len(pi) - length):
        index: dict[Perm, int] = {}
        rows = []
        for tau in levels[-1]:
            row = set()
            for v in tau:
                child = tuple([x - (x > v) for x in tau if x != v])
                k = index.get(child)
                if k is None:
                    count += 1
                    if count > cap:
                        raise BudgetError(
                            f"deletion closure of {fmt(pi)} down to length "
                            f"{length} exceeds cap of {cap} elements"
                        )
                    k = index[child] = len(index)
                row.add(k)
            rows.append(tuple(row))
        levels.append(list(index))
        edges.append(rows)
    return levels, edges


def down_set(pi: Perm, cap: int = DOWN_SET_CAP) -> set[Perm]:
    """All nonempty patterns contained in pi (the interval [1, pi] as a set).

    The union of ``deletion_levels(pi, 1, cap)``; raises BudgetError when the
    set would exceed ``cap`` elements.
    """
    if not pi:
        raise PermError("down_set of the empty permutation is not defined")
    levels, _ = deletion_levels(pi, 1, cap)
    return {tau for level in levels for tau in level}


def direct_sum(alpha: Perm, beta: Perm) -> Perm:
    if len(alpha) + len(beta) > MAX_LEN:
        raise PermError("direct sum exceeds length cap")
    return alpha + tuple(v + len(alpha) for v in beta)


def skew_sum(alpha: Perm, beta: Perm) -> Perm:
    if len(alpha) + len(beta) > MAX_LEN:
        raise PermError("skew sum exceeds length cap")
    return tuple(v + len(beta) for v in alpha) + beta


def inflate(sigma: Perm, parts: Sequence[Perm]) -> Perm:
    """Inflate each point of sigma by the corresponding part.

    A part equal to the empty permutation deletes the point; the relative
    order of blocks follows sigma.  Not all parts may be empty.
    """
    n = len(sigma)
    if len(parts) != n:
        raise PermError(f"expected {n} parts, got {len(parts)}")
    if all(len(p) == 0 for p in parts):
        raise PermError("at least one part must be nonempty")
    start = {}
    base = 0
    for i in sorted(range(n), key=lambda i: sigma[i]):
        start[i] = base
        base += len(parts[i])
    out: list[int] = []
    for i in range(n):
        out.extend(start[i] + v for v in parts[i])
    if len(out) > MAX_LEN:
        raise PermError("inflation exceeds length cap")
    return tuple(out)


def inflate_at(sigma: Perm, positions: Sequence[int], parts: Sequence[Perm]) -> Perm:
    """Inflate the given 1-based positions by parts, all others by the singleton."""
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
    return inflate(sigma, full)


def adjacencies(pi: Perm) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """1-based positions i of up-adjacencies (pi[i+1] = pi[i]+1) and down-adjacencies."""
    ups = tuple(i + 1 for i in range(len(pi) - 1) if pi[i + 1] == pi[i] + 1)
    downs = tuple(i + 1 for i in range(len(pi) - 1) if pi[i + 1] == pi[i] - 1)
    return ups, downs


def has_opposing_adjacencies(pi: Perm) -> bool:
    ups, downs = adjacencies(pi)
    return bool(ups) and bool(downs)


@dataclass(frozen=True)
class IntervalCopy:
    """A window [start, end] (1-based, inclusive) of a host whose values are a
    contiguous range and whose pattern equals ``pattern``."""

    start: int
    end: int
    pattern: Perm


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


def interval_copies(pi: Perm, alpha: Perm) -> list[IntervalCopy]:
    """All interval copies of alpha in pi, in order of start position."""
    if not alpha:
        raise PermError("interval copies of the empty permutation are not defined")
    return [
        IntervalCopy(s, e, alpha)
        for s, e, low in intervals(pi)
        if e - s + 1 == len(alpha)
        and tuple([v - low + 1 for v in pi[s - 1 : e]]) == alpha
    ]


def find_sum_split_interval(pi: Perm) -> Optional[tuple[int, int, int]]:
    """The least witness (i, j, p) of an interval copy of some a+1+b direct sum.

    The window [i, j] (1-based) has contiguous values, and the interior
    position p has every window value to its left below pi[p] and every one
    to its right above.  Witnesses are ordered lexicographically.
    """
    for s, e, low in intervals(pi):
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


# The 8 images of this probe are distinct, so its image names the symmetry.
_PROBE: Perm = (2, 4, 1, 3, 5)
_PROBE_LABEL = dict(zip(symmetric_images(_PROBE), SYMMETRY_LABELS))
assert len(_PROBE_LABEL) == 8


def compose_symmetries(g: str, h: str) -> str:
    """The label of "apply g, then h"."""
    if g not in _LABEL_INDEX or h not in _LABEL_INDEX:
        raise PermError(f"unknown symmetry in ({g!r}, {h!r})")
    return _PROBE_LABEL[apply_symmetry(h, apply_symmetry(g, _PROBE))]


def symmetry_orbit(pi: Perm) -> set[Perm]:
    """The distinct images of pi under the 8 symmetries."""
    return set(symmetric_images(pi))


def canonical_symmetry_form(pi: Perm) -> Perm:
    """The lexicographically least of the 8 symmetric images of pi."""
    return min(symmetric_images(pi))
