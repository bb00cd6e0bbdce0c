"""Exact Mobius-function evaluation on permutation intervals and finite posets.

The permutation evaluator builds the interval [sigma, pi] once, top-down by
single-point deletion on ``bytes``, one level per length, and fills values
bottom-up one whole level at a time.  Only the nonzero-valued elements are
numbered; each element's closure is the Python-int bitset of the numbered
elements at or below it.  The values are held as signed bit planes:
``classes[s * 2**j]`` (s = +1 or -1) is the bitset of the numbered elements
whose value has sign s and bit j set in its magnitude.  The OR of tau's
children's closures is the bitset of the numbered elements strictly below
tau, and mu(sigma, tau) is minus the sum over the planes of each plane's
weight times the popcount of that OR in the plane.  A level's ORs come from
one C-level pass over its children, and ``_values`` sums a whole level with
one chain of maps per plane, before any of its values enter the planes
(``_enter_level``): exact, because a level's elements are incomparable.
Python bytecode then runs once per level and once per nonzero value, not
per element or per edge, and the work per element grows with the bits of
the largest value, not with the number of distinct values.
``LevelTables``, which the census and the verification suites read, numbers
the same layout over every permutation shorter than n instead of one
interval, in blocks of permutations; no other module reads the layout's
helpers.  ``interval_mobius`` is the one per-element reader of that walk:
it returns every value, and ``interval_as_poset`` lists its keys.  An
optional cache memoizes principal values mu(1, pi) only, keyed by the
symmetry-canonical form of pi, which is sound because the principal Mobius
function is symmetry-invariant; values with another lower bound are not
cached.  ``principal_mobius(pruned=True)``, which only the ``pmu`` command
asks for, answers 0 for a pi that ``certify_zero`` certifies without
building its interval; every other value, interior zeros included, comes
from the walk.  The earlier recursion that skipped rule-certified interior
zeros survives as a test oracle.
"""
from __future__ import annotations

import itertools
from functools import reduce
from itertools import compress, repeat
from math import factorial
from operator import and_, mul, or_, sub
from sys import getsizeof
from typing import Collection, Hashable, Iterable, Iterator, Mapping, Optional

from . import permcore
from .permcore import (
    BudgetError,
    Perm,
    PermError,
    canonical_symmetry_form,
    contains,
    deletion_levels,
    deletions,
    _BLOCK,
    _BYTES,
    _LIST,
    _PTR,
    _TUPLE,
    _children,
    _deletions,
    _over_budget,
)
from .zerorules import certify_zero

# Unused here, but bench/tracing.py patches this name on this module to
# count its calls; it stays importable until the benchmark drops it.
from .permcore import down_set  # noqa: F401

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


def _values(belows: Collection[int], classes: Mapping[int, int]) -> list[int]:
    """``_value`` of each bitset of ``belows``, a whole level at once: one
    chain of maps per signed bit plane, each subtracting that plane's share
    from the running sums.  ``belows`` is read once per plane."""
    sums: Iterator[int] = repeat(0, len(belows))
    for p, m in classes.items():
        counts = map(int.bit_count, map(and_, belows, repeat(m)))
        sums = map(sub, sums, map(mul, repeat(p), counts))
    return list(sums)


def _enter_level(
    classes: dict[int, int],
    closures: dict[bytes, int],
    level: Iterable[bytes],
    values: list[int],
    bit: int,
) -> int:
    """Number the nonzero ``values`` of ``level`` from ``bit`` up, in level
    order: enter each into the planes and OR its bit into its closure in
    ``closures``.  Returns the next free bit.  All of a level's values come
    first, which is exact because its elements are incomparable."""
    for tau, value in compress(zip(level, values), values):
        _enter(classes, value, bit)
        closures[tau] |= bit
        bit <<= 1
    return bit


def _levels(sigma: Perm, pi: Perm) -> Iterator[tuple[dict[bytes, int], list[int]]]:
    """Yield the levels of [sigma, pi] bottom-up, lengths ascending, each as
    a dict from every tau of that length below pi (``bytes``) to its
    closure, with the list of the values mu(sigma, tau) in the dict's order;
    nothing unless sigma <= pi.

    Only the nonzero-valued elements are numbered, in walk order, and a
    closure is the bitset of those at or below tau: 0 outside the interval.
    ``deletion_levels`` gives the levels and their children; each level's
    dict then takes its closures in place, the OR of its children's, so
    only two levels' closures are alive.  Since sigma has value 1, tau lies
    in the interval exactly when that OR is nonzero.  Raises BudgetError
    once the closures of the two levels held pass what the deletion closure
    left of the budget: a level's are counted before they are made, each
    as wide as the next free bit, and exactly once its values are entered.
    A level's values list is made once its children are freed, k >= 5
    pointers per element at length k (and below length 5 every value is a
    cached small int), so it needs no count of its own.
    """
    levels, children, left = deletion_levels(pi, len(sigma))
    lower = levels.pop()
    start = bytes(sigma)
    if start not in lower:
        return
    lower.update(zip(lower, repeat(0)))
    lower[start] = 1
    classes, bit, held = {1: 1}, 2, 0
    yield lower, list(lower.values())  # sigma's closure and value are both 1
    for k in range(len(sigma) + 1, len(pi) + 1):
        level = levels.pop()
        if held + len(level) * bit.__sizeof__() > left:  # no OR reaches bit
            _over_budget(pi, len(sigma))
        kids = [map(lower.__getitem__, children.pop())] * k
        level.update(zip(level, map(reduce, repeat(or_), zip(*kids))))
        del kids  # frees the level's children before its values list is made
        values = _values(level.values(), classes)
        bit = _enter_level(classes, level, level, values, bit)
        made = sum(map(int.__sizeof__, filter(None, level.values())))
        if held + made > left:
            _over_budget(pi, len(sigma))
        yield level, values
        lower, held = level, made


class LevelTables:
    """mu(1, tau) for every permutation tau shorter than ``n``, built bottom-up.

    Both maps are keyed by ``bytes(tau)``, as ``permcore._deletions``
    deletes.  ``closures`` maps each tau of length <= n-2 (and b"", with
    closure 0) to the bitset of the nonzero-valued permutations at or below
    it; those are numbered in ascending length, then lexicographic rank.
    ``top`` maps each tau of length n-1 to its value and the tuple of its
    children's closures, one per deleted value, so a child left by two
    deletions stands twice.  ``classes`` holds the values of the
    numbered permutations as signed bit planes: ``classes[s * 2**j]`` is the
    bitset of those whose value has sign s and bit j set in its magnitude
    (``_enter``).

    A level is built in blocks of ``_BLOCK`` permutations, each block whole:
    the closures of its children (``permcore._children``), ORed k at a time,
    then its values (``_values``).  Raises BudgetError once both levels' keys
    and entries and the two dicts pass ``permcore.BUDGET_BYTES``.  A block's
    keys, its closures (none reaches the next free bit), its four lists
    (keys, kids, closures and values) and at length n-1 its entries are
    counted before it is made; below length n-1 its closures are counted
    again, exactly, once its values are entered, and a dict's growth within
    a level once the level ends.

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
        bit, size, budget = 1, 0, permcore.BUDGET_BYTES
        for k in range(1, n):
            # a dict's own size changes only when it resizes: count the two
            # as they were when the level began, and exactly once it is done
            dicts = getsizeof(closures) + getsizeof(top)
            entry = _BYTES + k + (2 * _TUPLE + (2 + k) * _PTR if k == n - 1 else 0)
            perms = map(bytes, itertools.permutations(range(1, k + 1)))
            total = factorial(k)
            for start in range(0, total, _BLOCK):
                m = min(_BLOCK, total - start)
                # the block's keys and entries, its closures (none reaches
                # bit), and its four lists: keys, kids, closures and values
                block_bytes = (entry + bit.__sizeof__()) * m + 4 * (_LIST + _PTR * m)
                if size + dicts + block_bytes > budget:
                    raise BudgetError(f"level tables for n={n} exceed {budget} bytes")
                size += entry * m
                block = list(itertools.islice(perms, m))
                kids = zip(*[map(closures.__getitem__, _children(block, k))] * k)
                if k == n - 1:
                    kids = list(kids)
                belows = list(map(reduce, repeat(or_), kids))
                values = _values(belows, classes) if k > 1 else [1]
                if k == n - 1:
                    top.update(zip(block, zip(values, kids)))
                else:
                    closures.update(zip(block, belows))
                    bit = _enter_level(classes, closures, block, values, bit)
                    size += sum(map(int.__sizeof__, map(closures.__getitem__, block)))
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

    def closure(self, tau: Perm) -> int:
        """The bitset of the nonzero-valued permutations at or below tau,
        for |tau| <= n-2."""
        return self.closures[bytes(tau)]

    def below(self, pi: Perm) -> int:
        """The bitset of the nonzero-valued permutations strictly below pi,
        for 1 <= |pi| <= n-1: the OR of the closures of pi's deletions."""
        below, closures = 0, self.closures
        for c in _deletions(bytes(pi)):
            below |= closures[c]
        return below

    def mobius(self, pi: Perm) -> int:
        """mu(1, pi) for a permutation pi with 1 <= |pi| <= n."""
        k = len(pi)
        if not 1 <= k <= self.n:
            raise PermError(f"level tables for n={self.n} cannot evaluate length {k}")
        if k == 1:
            return 1
        if k < self.n:
            return _value(self.below(pi), self.classes)
        # the top level keeps no closures: its children's values are the
        # singles, and the OR of its grandchildren's closures the rest
        below, singles, top = 0, 0, self.top
        for tau in _deletions(bytes(pi)):
            mu, grandkids = top[tau]
            singles += mu
            for c in grandkids:
                below |= c
        return _value(below, self.classes) - singles


def interval_mobius(sigma: Perm, pi: Perm) -> dict[Perm, int]:
    """mu(sigma, tau) for every tau in [sigma, pi], in walk order (lengths
    ascending); empty if sigma !<= pi.  An empty sigma stands for 1: the
    empty permutation itself is left out.  The one reader of ``_levels`` per
    element: tau is in the interval exactly when its closure is nonzero."""
    return {
        tuple(tau): value
        for level, values in _levels(sigma or P1, pi)
        for (tau, closure), value in zip(level.items(), values)
        if closure
    }


def _interval_mobius(sigma: Perm, pi: Perm) -> int:
    """mu(sigma, pi) for sigma <= pi: the value of the top level's one element."""
    for _level, values in _levels(sigma, pi):
        pass
    return values[0]


def principal_mobius(
    pi: Perm,
    pruned: bool = False,
    cache: Optional[MobiusCache] = None,
) -> int:
    """mu(1, pi), the principal Mobius function of a nonempty permutation.

    ``cache`` is probed once with ``get(pi)`` and receives only the value of
    pi through ``put(pi, value)``; any object with that protocol will do,
    such as ``LevelTables``.
    With ``pruned``, a pi that ``certify_zero`` certifies gets 0 without
    a walk of [1, pi], in time polynomial in |pi|, and the cache is not
    told.  Without it every value comes from the walk, so the verification
    suites, which check the rules against mu, never read a value the rules
    gave.
    """
    if not pi:
        raise PermError("principal Mobius of the empty permutation is not defined")
    if len(pi) == 1:
        return 1
    if cache is not None:
        hit = cache.get(pi)
        if hit is not None:
            return hit
    if pruned and certify_zero(pi) is not None:
        return 0
    value = _interval_mobius(P1, pi)
    if cache is not None:
        cache.put(pi, value)
    return value


def mobius(sigma: Perm, pi: Perm) -> int:
    """mu(sigma, pi) by the definitional recursion, evaluated bottom-up."""
    if not sigma:
        raise PermError("lower bound must be nonempty")
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
    listing the keys of ``interval_mobius(sigma, pi)`` in their order."""
    below: dict[Perm, set[Perm]] = {}
    for tau in interval_mobius(sigma, pi):
        down = below[tau] = set()
        for child in deletions(tau):
            if child in below:
                down.add(child)
                down |= below[child]
    return FinitePosetView(below)
