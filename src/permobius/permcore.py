"""Permutations in one-line notation, and the order/structure primitives on them.

A permutation is represented as a tuple of the integers 1..n ("one-line"
notation), e.g. ``(3, 1, 2)``.  The empty tuple is the empty permutation.
All functions here are pure; values are immutable and safe to share across
workers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

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


def embeddings(sigma: Perm, pi: Perm) -> list[Embedding]:
    """All embeddings of sigma into pi, ordered lexicographically by image."""
    if not sigma:
        raise PermError("embeddings of the empty permutation are not defined")
    k, n = len(sigma), len(pi)
    out: list[Embedding] = []
    if k > n:
        return out
    chosen = [0] * k

    def extend(t: int, start: int) -> None:
        if t == k:
            out.append(Embedding(pi, tuple(chosen)))
            return
        for p in range(start, n - (k - t) + 2):
            v = pi[p - 1]
            ok = True
            for u in range(t):
                if (sigma[t] < sigma[u]) != (v < pi[chosen[u] - 1]):
                    ok = False
                    break
            if ok:
                chosen[t] = p
                extend(t + 1, p + 1)

    extend(0, 1)
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
    chosen = [0] * k

    def extend(t: int, start: int) -> bool:
        if t == k:
            return True
        for p in range(start, n - (k - t) + 2):
            v = pi[p - 1]
            ok = True
            for u in range(t):
                if (sigma[t] < sigma[u]) != (v < pi[chosen[u] - 1]):
                    ok = False
                    break
            if ok:
                chosen[t] = p
                if extend(t + 1, p + 1):
                    return True
        return False

    return extend(0, 1)


def deletions(pi: Perm) -> set[Perm]:
    """Distinct patterns obtained by deleting one point of pi."""
    # deleting value v shifts every larger value down by one
    return {tuple([x - (x > v) for x in pi if x != v]) for v in pi}


def down_set(pi: Perm, cap: int = DOWN_SET_CAP) -> set[Perm]:
    """All nonempty patterns contained in pi (the interval [1, pi] as a set).

    Computed by iterated single-point deletion with deduplication.  Raises
    BudgetError when the set would exceed ``cap`` elements.
    """
    if not pi:
        raise PermError("down_set of the empty permutation is not defined")
    seen: set[Perm] = {pi}
    frontier = [pi]
    while frontier:
        nxt: list[Perm] = []
        for tau in frontier:
            if len(tau) == 1:
                continue
            for d in deletions(tau):
                if d not in seen:
                    seen.add(d)
                    if len(seen) > cap:
                        raise BudgetError(
                            f"down_set of {fmt(pi)} exceeds cap of {cap} elements"
                        )
                    nxt.append(d)
        frontier = nxt
    return seen


def interval_set(sigma: Perm, pi: Perm, cap: int = DOWN_SET_CAP) -> set[Perm]:
    """The interval [sigma, pi] as a set of permutations; empty if sigma !<= pi."""
    if not pi:
        return set()
    return {tau for tau in down_set(pi, cap) if contains(sigma, tau)}


def direct_sum(alpha: Perm, beta: Perm) -> Perm:
    if len(alpha) + len(beta) > MAX_LEN:
        raise PermError("direct sum exceeds length cap")
    return alpha + tuple(v + len(alpha) for v in beta)


def skew_sum(alpha: Perm, beta: Perm) -> Perm:
    if len(alpha) + len(beta) > MAX_LEN:
        raise PermError("skew sum exceeds length cap")
    return tuple(v + len(beta) for v in alpha) + beta


def compose(alpha: Perm, beta: Perm, kind: str) -> Perm:
    """Direct or skew sum of two permutations; the empty permutation is identity."""
    if kind in ("direct-sum", "oplus", "+"):
        return direct_sum(alpha, beta)
    if kind in ("skew-sum", "ominus", "-"):
        return skew_sum(alpha, beta)
    raise PermError(f"unknown composition kind {kind!r}")


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


def is_adjacency_free(pi: Perm) -> bool:
    ups, downs = adjacencies(pi)
    return not ups and not downs


@dataclass(frozen=True)
class IntervalCopy:
    """A window [start, end] (1-based, inclusive) of a host whose values are a
    contiguous range and whose pattern equals ``pattern``."""

    start: int
    end: int
    pattern: Perm


def _window_is_interval(vals: Sequence[int]) -> bool:
    return max(vals) - min(vals) == len(vals) - 1


def interval_copies(pi: Perm, alpha: Perm) -> list[IntervalCopy]:
    """All interval copies of alpha in pi, in order of start position."""
    if not alpha:
        raise PermError("interval copies of the empty permutation are not defined")
    k, n = len(alpha), len(pi)
    out = []
    for s in range(n - k + 1):
        vals = pi[s : s + k]
        if _window_is_interval(vals) and pattern_of(vals) == alpha:
            out.append(IntervalCopy(s + 1, s + k, alpha))
    return out


def find_sum_split_interval(pi: Perm) -> Optional[tuple[int, int, int]]:
    """The least witness (i, j, p) of an interval copy of some a+1+b direct sum.

    The window [i, j] (1-based) has contiguous values, and the interior
    position p has every window value to its left below pi[p] and every one
    to its right above.  Witnesses are ordered lexicographically.
    """
    n = len(pi)
    for i0 in range(n - 2):
        for j0 in range(i0 + 2, n):
            vals = pi[i0 : j0 + 1]
            if not _window_is_interval(vals):
                continue
            for p0 in range(i0 + 1, j0):
                v = pi[p0]
                if all(x < v for x in pi[i0:p0]) and all(
                    x > v for x in pi[p0 + 1 : j0 + 1]
                ):
                    return (i0 + 1, j0 + 1, p0 + 1)
    return None


def is_simple(pi: Perm) -> bool:
    """True iff pi has no proper window of length 2..n-1 with contiguous values."""
    if not pi:
        raise PermError("simplicity of the empty permutation is not defined")
    n = len(pi)
    for k in range(2, n):
        for s in range(n - k + 1):
            if _window_is_interval(pi[s : s + k]):
                return False
    return True


# ---------------------------------------------------------------------------
# The 8 symmetries generated by reverse, complement and inverse.
#
# Internally an element is a triple (swap, flip_pos, flip_val) acting on the
# plot of a permutation: swap exchanges the position/value axes (inverse),
# then flip_pos mirrors positions (reverse) and flip_val mirrors values
# (complement).  Every group element has a unique such form.

SYMMETRY_LABELS = ("id", "r", "c", "rc", "i", "ir", "ic", "irc")

_GENERATORS = {
    "r": (False, True, False),
    "c": (False, False, True),
    "i": (True, False, False),
}

_IDENTITY = (False, False, False)


def _compose_triples(t1, t2):
    # action: t1 first, then t2
    s1, x1, y1 = t1
    s2, x2, y2 = t2
    if s2:
        x1, y1 = y1, x1
    return (s1 ^ s2, x1 ^ x2, y1 ^ y2)


def _label_triple(label: str):
    if label == "id":
        return _IDENTITY
    t = _IDENTITY
    for ch in label:
        t = _compose_triples(t, _GENERATORS[ch])
    return t


_TRIPLES = {label: _label_triple(label) for label in SYMMETRY_LABELS}
_TRIPLE_LABEL = {t: label for label, t in _TRIPLES.items()}
assert len(_TRIPLE_LABEL) == 8


def apply_symmetry(label: str, pi: Perm) -> Perm:
    """Apply a symmetry (one of SYMMETRY_LABELS, steps applied in label order)."""
    if label not in _TRIPLES:
        raise PermError(f"unknown symmetry {label!r}")
    swap, fx, fy = _TRIPLES[label]
    n = len(pi)
    out = [0] * n
    for p, v in enumerate(pi, start=1):
        pp, vv = (v, p) if swap else (p, v)
        if fx:
            pp = n + 1 - pp
        if fy:
            vv = n + 1 - vv
        out[pp - 1] = vv
    return tuple(out)


def compose_symmetries(g: str, h: str) -> str:
    """The label of "apply g, then h"."""
    if g not in _TRIPLES or h not in _TRIPLES:
        raise PermError(f"unknown symmetry in ({g!r}, {h!r})")
    return _TRIPLE_LABEL[_compose_triples(_TRIPLES[g], _TRIPLES[h])]


def _symmetric_images(pi: Perm) -> tuple[Perm, ...]:
    # one inverse; reverses and complements of pi and of it by slicing
    n1 = len(pi) + 1
    inverse = [0] * len(pi)
    for p, v in enumerate(pi, start=1):
        inverse[v - 1] = p
    inv = tuple(inverse)
    c = tuple([n1 - v for v in pi])
    ic = tuple([n1 - v for v in inv])
    return (pi, pi[::-1], c, c[::-1], inv, inv[::-1], ic, ic[::-1])


def symmetry_orbit(pi: Perm) -> set[Perm]:
    """The distinct images of pi under the 8 symmetries."""
    return set(_symmetric_images(pi))


def canonical_symmetry_form(pi: Perm) -> Perm:
    """The lexicographically least of the 8 symmetric images of pi."""
    return min(_symmetric_images(pi))
