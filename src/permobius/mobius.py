"""Exact Mobius-function evaluation on permutation intervals and finite posets.

The permutation evaluator builds the interval [sigma, pi] once, top-down by
single-point deletion, one level per length, and fills values bottom-up:
each element's strict down-set in the interval is a Python-int bitset, and
mu(sigma, tau) is a popcount against the bitsets of the elements holding
each nonzero value.  An optional cache memoizes top-level values; for
principal intervals (lower bound 1) keys are canonicalized under the 8
symmetries, which is sound because the principal Mobius function is
symmetry-invariant.  Interior zeros are computed like every other value;
the earlier recursion that skipped rule-certified zeros survives as a test
oracle.
"""
from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Optional

from .permcore import (
    DOWN_SET_CAP,
    Perm,
    PermError,
    canonical_symmetry_form,
    contains,
    deletion_levels,
)

# Unused here, but bench/tracing.py patches these names on this module to
# count their calls; they stay importable until the benchmark drops them.
from .permcore import down_set  # noqa: F401
from .zerorules import certify_zero  # noqa: F401

P1: Perm = (1,)


class MobiusCache:
    """Memo table from (lower, upper) keys to Mobius values.

    Keys for lower bound 1 are stored under the symmetry-canonical form of
    the upper bound.  Concurrent use is safe under last-writer-wins because
    all writers compute identical values.
    """

    def __init__(self) -> None:
        self._data: dict[tuple[bytes, bytes], int] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(sigma: Perm, pi: Perm) -> tuple[bytes, bytes]:
        if sigma == P1:
            return (b"\x01", bytes(canonical_symmetry_form(pi)))
        return (bytes(sigma), bytes(pi))

    def get(self, sigma: Perm, pi: Perm) -> Optional[int]:
        v = self._data.get(self._key(sigma, pi))
        if v is None:
            self.misses += 1
        else:
            self.hits += 1
        return v

    def put(self, sigma: Perm, pi: Perm, value: int) -> None:
        self._data[self._key(sigma, pi)] = value

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._data)}


def _interval(sigma: Perm, pi: Perm, cap: int) -> Iterator[tuple[Perm, int]]:
    """Walk the interval [sigma, pi] bottom-up, lengths ascending.

    Yields ``(tau, below)`` for each element tau, where ``below`` is the
    bitset of the elements strictly below tau in the interval: bit k stands
    for the k-th element yielded.  Yields nothing unless sigma <= pi.

    The deletion closure of pi down to length |sigma| comes from
    ``deletion_levels``; values then flow bottom-up with only two adjacent
    levels of bitsets alive.  Raises BudgetError once the closure passes
    ``cap`` elements.
    """
    levels, edges = deletion_levels(pi, len(sigma), cap)
    bottom = levels.pop()
    try:
        start = bottom.index(sigma)
    except ValueError:
        return
    # closed[k]: bitset of element k of the level below and everything under
    # it in the interval; 0 for elements outside the interval
    closed = [0] * len(bottom)
    closed[start] = 1
    yield sigma, 0
    bit = 1
    while levels:
        level, rows = levels.pop(), edges.pop()
        above = []
        for tau, row in zip(level, rows):
            below = 0
            for k in row:
                below |= closed[k]
            if below:  # tau >= sigma iff some child is in the interval
                yield tau, below
                below |= 1 << bit
                bit += 1
            above.append(below)
        closed = above


def interval_set(sigma: Perm, pi: Perm, cap: int = DOWN_SET_CAP) -> set[Perm]:
    """The interval [sigma, pi] as a set; empty if sigma !<= pi.  An empty
    sigma gives [1, pi]: the empty permutation itself is left out."""
    return {tau for tau, _ in _interval(sigma or P1, pi, cap)}


def _interval_mobius(sigma: Perm, pi: Perm, cap: int) -> int:
    """mu(sigma, pi) for sigma <= pi, by one bottom-up pass over the interval.

    ``classes[v]`` is the bitset of the elements with value v != 0, so
    mu(sigma, tau) = -sum_v v * |below(tau) & classes[v]|.
    """
    classes: dict[int, int] = {}
    bit = 0
    for _tau, below in _interval(sigma, pi, cap):
        if below:
            value = -sum(v * (below & m).bit_count() for v, m in classes.items())
        else:
            value = 1
        if value:
            classes[value] = classes.get(value, 0) | (1 << bit)
        bit += 1
    return value


def principal_mobius(
    pi: Perm,
    pruned: bool = True,
    cache: Optional[MobiusCache] = None,
    cap: int = DOWN_SET_CAP,
) -> int:
    """mu(1, pi), the principal Mobius function of a nonempty permutation.

    ``cache`` is probed once for pi and receives only the value of pi; any
    object with MobiusCache's ``get`` and ``put`` will do, such as the
    census level tables.
    ``pruned`` changes nothing: every interior value comes from the one
    interval pass.  It stays only because the benchmark's cross-check
    (``bench/run.py``) passes ``pruned=False``.
    """
    if not pi:
        raise PermError("principal Mobius of the empty permutation is not defined")
    if len(pi) == 1:
        return 1
    if cache is not None:
        hit = cache.get(P1, pi)
        if hit is not None:
            return hit
    value = _interval_mobius(P1, pi, cap)
    if cache is not None:
        cache.put(P1, pi, value)
    return value


def mobius(
    sigma: Perm,
    pi: Perm,
    cache: Optional[MobiusCache] = None,
    cap: int = DOWN_SET_CAP,
) -> int:
    """mu(sigma, pi) by the definitional recursion, evaluated bottom-up.

    ``cache`` is probed once for (sigma, pi) and receives only that value.
    """
    if not sigma:
        raise PermError("lower bound must be nonempty")
    if sigma == pi:
        return 1
    if not contains(sigma, pi):
        return 0
    if sigma == P1:
        return principal_mobius(pi, cache=cache, cap=cap)
    if cache is not None:
        hit = cache.get(sigma, pi)
        if hit is not None:
            return hit
    value = _interval_mobius(sigma, pi, cap)
    if cache is not None:
        cache.put(sigma, pi, value)
    return value


class FinitePosetView:
    """A finite poset given by elements and a cover list.  Used as a Mobius
    oracle independent of permutation structure."""

    def __init__(
        self,
        elements: Iterable[Hashable],
        covers: Iterable[tuple[Hashable, Hashable]],
    ) -> None:
        self.elements = tuple(elements)
        idx = set(self.elements)
        if len(idx) != len(self.elements):
            raise PermError("poset elements must be distinct")
        self._below: dict[Hashable, set[Hashable]] = {e: set() for e in self.elements}
        for lo, hi in covers:
            if lo not in idx or hi not in idx:
                raise PermError(f"cover ({lo!r}, {hi!r}) uses unknown element")
            self._below[hi].add(lo)
        # transitive closure over the cover DAG
        changed = True
        while changed:
            changed = False
            for e in self.elements:
                extra = set()
                for b in self._below[e]:
                    extra |= self._below[b]
                if not extra <= self._below[e]:
                    self._below[e] |= extra
                    changed = True
        if any(e in self._below[e] for e in self.elements):
            raise PermError("cover relation contains a cycle")

    def leq(self, a: Hashable, b: Hashable) -> bool:
        return a == b or a in self._below[b]

    def strictly_below(self, b: Hashable) -> set[Hashable]:
        return set(self._below[b])

    def interval(self, x: Hashable, y: Hashable) -> list[Hashable]:
        """Elements of [x, y], ordered by number of interval elements below."""
        if not self.leq(x, y):
            return []
        members = [z for z in self.elements if self.leq(x, z) and self.leq(z, y)]
        return sorted(
            members, key=lambda z: (len(self._below[z]), self.elements.index(z))
        )

    def induced(self, elements: Iterable[Hashable]) -> "FinitePosetView":
        """The subposet on ``elements``, kept in the given order."""
        view = FinitePosetView(elements, covers=[])
        kept = set(view.elements)
        for e in view.elements:
            view._below[e] = self._below[e] & kept
        return view

    def delete(self, y: Hashable) -> "FinitePosetView":
        return self.induced(e for e in self.elements if e != y)


def mobius_poset(P: FinitePosetView, x: Hashable, y: Hashable) -> int:
    """Mobius value of [x, y] in a finite poset by the generic recursion."""
    if not P.leq(x, y):
        return 0
    mu: dict[Hashable, int] = {}
    for z in P.interval(x, y):
        if z == x:
            mu[z] = 1
        else:
            mu[z] = -sum(mu[v] for v in P.strictly_below(z) if v in mu)
    return mu[y]


def interval_as_poset(sigma: Perm, pi: Perm, cap: int = DOWN_SET_CAP) -> FinitePosetView:
    """The interval [sigma, pi] of the pattern poset as a FinitePosetView."""
    members: list[Perm] = []
    below: dict[Perm, set[Perm]] = {}
    for tau, bits in _interval(sigma, pi, cap):
        below[tau] = {members[k] for k, b in enumerate(reversed(bin(bits))) if b == "1"}
        members.append(tau)
    members.sort(key=lambda t: (len(t), t))
    view = FinitePosetView(members, covers=[])
    view._below = below
    return view
