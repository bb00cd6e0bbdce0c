"""Exact Mobius-function evaluation on permutation intervals and finite posets.

The permutation evaluator builds the interval [sigma, pi] once, top-down by
single-point deletion on ``bytes``, one level per length, and fills values
bottom-up in one walk.  Only the nonzero-valued elements are numbered; each
element's closure is the Python-int bitset of the numbered elements at or
below it.  The values are held as signed bit planes: ``classes[s * 2**j]``
(s = +1 or -1) is the bitset of the numbered elements whose value has sign
s and bit j set in its magnitude.  mu(sigma, tau) is then one popcount per
plane of the OR of its children's closures (``_value``), so the work per
element grows with the bits of the largest value, not with the number of
distinct values.  ``LevelTables``, which the census and the verification
suites read, numbers the same layout over every permutation shorter than n
instead of one interval; no other module reads the layout's helpers.
``interval_mobius`` returns every value of that walk.  An optional cache
memoizes principal values mu(1, pi) only, keyed by the symmetry-canonical
form of pi, which is sound because the principal Mobius function is
symmetry-invariant; values with another lower bound are not cached.
Interior zeros are computed like every other value; the earlier recursion
that skipped rule-certified zeros survives as a test oracle.
"""
from __future__ import annotations

import itertools
import sys
from typing import Hashable, Iterable, Iterator, Mapping, Optional

from . import permcore
from .permcore import (
    BudgetError,
    Perm,
    PermError,
    canonical_symmetry_form,
    contains,
    deletion_levels,
    deletions,
    _deletions,
    _over_budget,
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


def _enter(classes: dict[int, int], value: int, bit: int) -> None:
    """OR ``bit`` into the signed bit planes of a nonzero ``value``:
    ``classes[s * 2**j]`` for each set bit j of |value|, s its sign."""
    sign = 1 if value > 0 else -1
    value *= sign
    while value:
        low = value & -value
        value ^= low
        low *= sign
        classes[low] = classes.get(low, 0) | bit


def _value(below: int, classes: Mapping[int, int]) -> int:
    """-sum_p p * |below & classes[p]|: mu(sigma, tau) when ``below`` is the
    bitset of the nonzero-valued elements strictly below tau and ``classes``
    the signed bit planes ``_enter`` fills with their values."""
    return -sum(v * (below & m).bit_count() for v, m in classes.items())


def _walk(sigma: Perm, pi: Perm) -> Iterator[tuple[Perm, int, int]]:
    """Yield ``(tau, closure, mu(sigma, tau))`` for each tau of [sigma, pi],
    bottom-up, lengths ascending; nothing unless sigma <= pi.

    Only the nonzero-valued elements are numbered, in walk order, and
    ``closure`` is the bitset of those at or below tau.  The deletion
    closure of pi down to length |sigma| comes from ``deletion_levels``;
    closures then flow bottom-up with only two adjacent levels alive.  Since
    sigma has value 1, tau lies in the interval exactly when the OR of its
    children's closures is nonzero.  Raises BudgetError once the closures
    of the two levels held pass what the deletion closure left of the budget.
    """
    levels, edges, left = deletion_levels(pi, len(sigma))
    bottom = levels.pop()
    try:
        start = bottom.index(bytes(sigma))
    except ValueError:
        return
    # closed[k]: closure of element k of the level below (0 outside), held: their bytes
    closed, held = [0] * len(bottom), 0
    closed[start] = 1
    classes = {1: 1}
    yield sigma, 1, 1
    bit = 2
    while levels:
        level, rows = levels.pop(), edges.pop()
        above, made = [], 0
        for tau, row in zip(level, rows):
            below = 0
            for k in row:
                below |= closed[k]
            if below:
                value = _value(below, classes)
                if value:
                    _enter(classes, value, bit)
                    below |= bit
                    bit <<= 1
                made += below.__sizeof__()  # getsizeof(below) at a tenth the cost
                if held + made > left:
                    _over_budget(pi, len(sigma))
                yield tuple(tau), below, value
            above.append(below)
        closed, held = above, made


class LevelTables:
    """mu(1, tau) for every permutation tau shorter than ``n``, built bottom-up.

    Both maps are keyed by ``bytes(tau)``, as ``permcore._deletions``
    deletes.  ``closures`` maps each tau of length <= n-2 (and b"", with
    closure 0) to the bitset of the nonzero-valued permutations at or below
    it; those are numbered in ascending length, then lexicographic rank.
    ``top`` maps each tau of length n-1 to its value and the tuple of its
    children's closures.  ``classes`` holds the values of the
    numbered permutations as signed bit planes: ``classes[s * 2**j]`` is the
    bitset of those whose value has sign s and bit j set in its magnitude
    (``_enter``).  Raises BudgetError once both levels'
    keys and entries and the two dicts pass ``permcore.BUDGET_BYTES``; a
    dict's growth within a level is counted when the level ends.

    Through ``get``/``put`` the tables are a full principal cache: lengths
    up to n are read off the tables, longer permutations are memoized in
    ``memo``, a MobiusCache the tables own.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise PermError("n must be positive")
        self.n = n
        self.closures: dict[bytes, int] = {b"": 0}
        self.top: dict[bytes, tuple[int, tuple[int, ...]]] = {}
        self.classes: dict[int, int] = {}
        self.memo = MobiusCache()
        closures, top, classes = self.closures, self.top, self.classes
        getsizeof = sys.getsizeof
        bit, size, budget = 1, 0, permcore.BUDGET_BYTES
        for k in range(1, n):
            # a dict's own size changes only when it resizes: count the two
            # as they were when the level began, and exactly once it is done
            dicts = getsizeof(closures) + getsizeof(top)
            for tau in map(bytes, itertools.permutations(range(1, k + 1))):
                kids = tuple([closures[c] for c in _deletions(tau)])
                below = 0
                for c in kids:
                    below |= c
                mu = _value(below, classes) if k > 1 else 1
                if k == n - 1:
                    entry = top[tau] = (mu, kids)
                    size += getsizeof(tau) + getsizeof(entry) + getsizeof(kids)
                else:
                    if mu:
                        _enter(classes, mu, bit)
                        below |= bit
                        bit <<= 1
                    closures[tau] = below
                    size += getsizeof(tau) + getsizeof(below)
                if size + dicts > budget:
                    break
            if size + getsizeof(closures) + getsizeof(top) > budget:
                raise BudgetError(f"level tables for n={n} exceed {budget} bytes")

    def get(self, pi: Perm) -> Optional[int]:
        """The read side of the MobiusCache protocol, so ``principal_mobius``
        can use the tables as its cache: mu(1, pi) from the tables for
        |pi| <= n, and beyond n the memoized value of pi or a symmetric
        image, None if ``put`` has not stored one."""
        if len(pi) <= self.n:
            return self.mobius(pi)
        return self.memo.get(pi)

    def put(self, pi: Perm, value: int) -> None:
        """Memoize mu(1, pi) for |pi| > n; shorter values are in the tables."""
        if len(pi) > self.n:
            self.memo.put(pi, value)

    def mobius(self, pi: Perm) -> int:
        """mu(1, pi) for a permutation pi with 1 <= |pi| <= n."""
        k = len(pi)
        if not 1 <= k <= self.n:
            raise PermError(f"level tables for n={self.n} cannot evaluate length {k}")
        if k == 1:
            return 1
        below = 0
        if k < self.n:
            closures = self.closures
            for c in _deletions(bytes(pi)):
                below |= closures[c]
            return _value(below, self.classes)
        # the top level keeps no closures: its children's values are the
        # singles, and the OR of its grandchildren's closures the rest
        singles, top = 0, self.top
        for tau in _deletions(bytes(pi)):
            mu, grandkids = top[tau]
            singles += mu
            for c in grandkids:
                below |= c
        return _value(below, self.classes) - singles


def interval_mobius(sigma: Perm, pi: Perm) -> dict[Perm, int]:
    """mu(sigma, tau) for every tau in [sigma, pi], in walk order (lengths
    ascending); empty if sigma !<= pi.  An empty sigma stands for 1: the
    empty permutation itself is left out."""
    return {tau: value for tau, _closure, value in _walk(sigma or P1, pi)}


def _interval_mobius(sigma: Perm, pi: Perm) -> int:
    """mu(sigma, pi) for sigma <= pi: the last value of the walk."""
    for _tau, _closure, value in _walk(sigma, pi):
        pass
    return value


def principal_mobius(
    pi: Perm,
    pruned: bool = True,
    cache: Optional[MobiusCache] = None,
) -> int:
    """mu(1, pi), the principal Mobius function of a nonempty permutation.

    ``cache`` is probed once with ``get(pi)`` and receives only the value of
    pi through ``put(pi, value)``; any object with that protocol will do,
    such as ``LevelTables``.
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
    value = _interval_mobius(P1, pi)
    if cache is not None:
        cache.put(pi, value)
    return value


def mobius(sigma: Perm, pi: Perm) -> int:
    """mu(sigma, pi) by the definitional recursion, evaluated bottom-up."""
    if not sigma:
        raise PermError("lower bound must be nonempty")
    if sigma == pi:
        return 1
    if not contains(sigma, pi):
        return 0
    return _interval_mobius(sigma, pi)


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
        self._position = {e: k for k, e in enumerate(self.elements)}

    def leq(self, a: Hashable, b: Hashable) -> bool:
        return a == b or a in self._below[b]

    def strictly_below(self, b: Hashable) -> frozenset[Hashable]:
        return self._below[b]

    def interval(self, x: Hashable, y: Hashable) -> list[Hashable]:
        """Elements of [x, y] in listed order, which is a linear extension;
        reads only the down-set of y."""
        if not self.leq(x, y):
            return []
        below = self._below
        found = [z for z in below[y] if z == x or x in below[z]]
        found.append(y)
        found.sort(key=self._position.__getitem__)
        return found

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


def interval_as_poset(sigma: Perm, pi: Perm) -> FinitePosetView:
    """The interval [sigma, pi] of the pattern poset as a FinitePosetView,
    listed in the order of the bottom-up walk (lengths ascending)."""
    below: dict[Perm, set[Perm]] = {}
    for tau, _closure, _mu in _walk(sigma, pi):
        down = below[tau] = set()
        for child in deletions(tau):
            if child in below:
                down.add(child)
                down |= below[child]
    return FinitePosetView(below)
