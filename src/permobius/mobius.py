"""Exact Mobius-function evaluation on permutation intervals and finite posets.

The permutation evaluator builds the interval [sigma, pi] once, top-down by
single-point deletion, one level per length, and fills values bottom-up:
each element's strict down-set in the interval is a Python-int bitset, and
mu(sigma, tau) is a popcount against the bitsets of the elements holding
each nonzero value.  ``interval_mobius`` returns every value of that pass.
An optional cache memoizes principal values mu(1, pi) only, keyed by the
symmetry-canonical form of pi, which is sound because the principal Mobius
function is symmetry-invariant; values with another lower bound are not
cached.  Interior zeros are computed like every other value; the earlier
recursion that skipped rule-certified zeros survives as a test oracle.
"""
from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Mapping, Optional

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
    """Memo table of principal values mu(1, pi), keyed by the
    symmetry-canonical form of pi.

    Concurrent use is safe under last-writer-wins because all writers
    compute identical values.
    """

    def __init__(self) -> None:
        self._data: dict[bytes, int] = {}
        self.hits = 0
        self.misses = 0

    def get(self, pi: Perm) -> Optional[int]:
        v = self._data.get(bytes(canonical_symmetry_form(pi)))
        if v is None:
            self.misses += 1
        else:
            self.hits += 1
        return v

    def put(self, pi: Perm, value: int) -> None:
        self._data[bytes(canonical_symmetry_form(pi))] = value

    def __len__(self) -> int:
        return len(self._data)


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


def _walk_mobius(sigma: Perm, pi: Perm, cap: int) -> Iterator[tuple[Perm, int]]:
    """Yield ``(tau, mu(sigma, tau))`` for each tau of [sigma, pi] in the
    order of ``_interval``, by one bottom-up pass.

    ``classes[v]`` is the bitset of the elements with value v != 0, so
    mu(sigma, tau) = -sum_v v * |below(tau) & classes[v]|.
    """
    classes: dict[int, int] = {}
    for bit, (tau, below) in enumerate(_interval(sigma, pi, cap)):
        if below:
            value = -sum(v * (below & m).bit_count() for v, m in classes.items())
        else:
            value = 1
        if value:
            classes[value] = classes.get(value, 0) | (1 << bit)
        yield tau, value


def interval_mobius(sigma: Perm, pi: Perm, cap: int = DOWN_SET_CAP) -> dict[Perm, int]:
    """mu(sigma, tau) for every tau in [sigma, pi], in walk order (lengths
    ascending); empty if sigma !<= pi.  An empty sigma stands for 1: the
    empty permutation itself is left out."""
    return dict(_walk_mobius(sigma or P1, pi, cap))


def _interval_mobius(sigma: Perm, pi: Perm, cap: int) -> int:
    """mu(sigma, pi) for sigma <= pi: the last value of the walk."""
    for _tau, value in _walk_mobius(sigma, pi, cap):
        pass
    return value


def principal_mobius(
    pi: Perm,
    pruned: bool = True,
    cache: Optional[MobiusCache] = None,
    cap: int = DOWN_SET_CAP,
) -> int:
    """mu(1, pi), the principal Mobius function of a nonempty permutation.

    ``cache`` is probed once with ``get(pi)`` and receives only the value of
    pi through ``put(pi, value)``; any object with that protocol will do,
    such as the census level tables.
    ``pruned`` changes nothing: every interior value comes from the one
    interval pass.  It stays only because the benchmark's cross-check
    (``bench/run.py``) passes ``pruned=False``.
    """
    if not pi:
        raise PermError("principal Mobius of the empty permutation is not defined")
    if len(pi) == 1:
        return 1
    if cache is not None:
        hit = cache.get(pi)
        if hit is not None:
            return hit
    value = _interval_mobius(P1, pi, cap)
    if cache is not None:
        cache.put(pi, value)
    return value


def mobius(sigma: Perm, pi: Perm, cap: int = DOWN_SET_CAP) -> int:
    """mu(sigma, pi) by the definitional recursion, evaluated bottom-up."""
    if not sigma:
        raise PermError("lower bound must be nonempty")
    if sigma == pi:
        return 1
    if not contains(sigma, pi):
        return 0
    if sigma == P1:
        return principal_mobius(pi, cap=cap)
    return _interval_mobius(sigma, pi, cap)


class FinitePosetView:
    """A finite poset given by the strict down-set of each element.  Used as
    a Mobius oracle independent of permutation structure.

    ``below`` maps each element to the elements strictly below it, listing
    the elements in a linear extension: a down-set may name only elements
    listed before it, which PermError enforces and which rules out cycles.
    The down-sets must be transitively closed; that is not checked.
    """

    def __init__(self, below: Mapping[Hashable, Iterable[Hashable]]) -> None:
        self._below: dict[Hashable, frozenset[Hashable]] = {}
        for e, bs in below.items():
            bs = frozenset(bs)
            if not bs <= self._below.keys():
                raise PermError(
                    f"down-set of {e!r} names an element not listed before it"
                )
            self._below[e] = bs
        self.elements = tuple(self._below)

    def leq(self, a: Hashable, b: Hashable) -> bool:
        return a == b or a in self._below[b]

    def strictly_below(self, b: Hashable) -> frozenset[Hashable]:
        return self._below[b]

    def interval(self, x: Hashable, y: Hashable) -> list[Hashable]:
        """Elements of [x, y] in listed order, which is a linear extension."""
        if not self.leq(x, y):
            return []
        return [z for z in self.elements if self.leq(x, z) and self.leq(z, y)]

    def induced(self, elements: Iterable[Hashable]) -> "FinitePosetView":
        """The subposet on ``elements``, listed in this poset's order."""
        kept = set(elements)
        return FinitePosetView(
            {e: bs & kept for e, bs in self._below.items() if e in kept}
        )

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
    """The interval [sigma, pi] of the pattern poset as a FinitePosetView,
    listed in the order of the bottom-up walk (lengths ascending)."""
    members: list[Perm] = []
    below: dict[Perm, set[Perm]] = {}
    for tau, bits in _interval(sigma, pi, cap):
        below[tau] = {members[k] for k, b in enumerate(reversed(bin(bits))) if b == "1"}
        members.append(tau)
    return FinitePosetView(below)
