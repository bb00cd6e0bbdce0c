"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's code paths: containment is checked
by enumerating subsequences, down-sets by enumerating all subsequences,
symmetries by moving the points of the plot one letter at a time,
intervals by comparing each window's value set with a range, and Mobius
values by the definitional recursion over exact (non-canonicalized) keys.
``recursive_principal_mobius`` keeps the library's earlier principal
evaluator as a second, independent engine, and ``brute_sum_split`` the
earlier sum-split search.  ``i_switch`` is the parity-reversing involution
on embeddings from the proof of Theorem 1.
"""
import itertools

from permobius.mobius import P1, MobiusCache
from permobius.permcore import DOWN_SET_CAP, Embedding, PermError, down_set, pattern_of
from permobius.zerorules import certify_zero


def brute_contains(sigma, pi):
    if not sigma:
        return True
    return any(
        pattern_of(c) == sigma for c in itertools.combinations(pi, len(sigma))
    )


def brute_down_set(pi):
    out = set()
    for k in range(1, len(pi) + 1):
        for c in itertools.combinations(pi, k):
            out.add(pattern_of(c))
    return out


def brute_symmetry(label, pi):
    """Apply a symmetry label one letter at a time, left to right, each
    letter straight from its definition on the plot {(p, pi(p))}: inverse
    swaps the axes, reverse sends position p to n+1-p, complement sends
    value v to n+1-v."""
    n = len(pi)
    for letter in "" if label == "id" else label:
        out = [0] * n
        for p, v in enumerate(pi, start=1):
            if letter == "i":
                out[v - 1] = p
            elif letter == "r":
                out[n - p] = v
            elif letter == "c":
                out[p - 1] = n + 1 - v
            else:
                raise ValueError(f"unknown symmetry letter {letter!r}")
        pi = tuple(out)
    return tuple(pi)


def brute_intervals(pi):
    """Every (start, end, low) of pi, ordered by start, then end, whose window
    of values is a set of consecutive integers; positions are 1-based and
    inclusive, low is the least value."""
    n = len(pi)
    out = []
    for s in range(1, n + 1):
        for e in range(s, n + 1):
            values = set(pi[s - 1 : e])
            low = min(values)
            if values == set(range(low, low + e - s + 1)):
                out.append((s, e, low))
    return out


def brute_sum_split(pi):
    """The library's earlier find_sum_split_interval: every window and split
    point checked from scratch, O(n^3) windows-by-points with O(n) scans."""
    n = len(pi)
    for i0 in range(n - 2):
        for j0 in range(i0 + 2, n):
            vals = pi[i0 : j0 + 1]
            if max(vals) - min(vals) != len(vals) - 1:
                continue
            for p0 in range(i0 + 1, j0):
                v = pi[p0]
                if all(x < v for x in pi[i0:p0]) and all(
                    x > v for x in pi[p0 + 1 : j0 + 1]
                ):
                    return (i0 + 1, j0 + 1, p0 + 1)
    return None


def brute_mobius(sigma, pi, memo=None):
    if memo is None:
        memo = {}
    key = (sigma, pi)
    if key in memo:
        return memo[key]
    if sigma == pi:
        val = 1
    elif not brute_contains(sigma, pi):
        val = 0
    else:
        interval = [t for t in brute_down_set(pi) if brute_contains(sigma, t)]
        val = -sum(brute_mobius(sigma, t, memo) for t in interval if t != pi)
    memo[key] = val
    return val


def recursive_principal_mobius(pi, pruned=True, cache=None, cap=DOWN_SET_CAP):
    """mu(1, pi) by recursion over a fresh down_set for every interior element.

    With ``pruned``, rule-certified interior zeros count as 0 without
    recursion, so comparing pruned with unpruned values checks that the zero
    rules are sound.  Every value is memoized in ``cache`` under its
    symmetry-canonical key.
    """
    if not pi:
        raise PermError("principal Mobius of the empty permutation is not defined")
    if cache is None:
        cache = MobiusCache()

    def rec(p):
        if len(p) == 1:
            return 1
        hit = cache.get(P1, p)
        if hit is not None:
            return hit
        total = 0
        for tau in down_set(p, cap):
            if tau == p:
                continue
            if pruned and len(tau) >= 3 and certify_zero(tau) is not None:
                continue
            total += rec(tau)
        val = -total
        cache.put(P1, p, val)
        return val

    return rec(pi)


def i_switch(e, i):
    """Toggle membership of position i in the embedding's image.

    A parity-reversing involution; toggling the last remaining position is
    an error.
    """
    n = len(e.target)
    if not 1 <= i <= n:
        raise PermError(f"switch position {i} out of range 1..{n}")
    if i in e.image:
        if len(e.image) == 1:
            raise PermError("i-switch would empty the image")
        image = tuple(p for p in e.image if p != i)
    else:
        image = tuple(sorted(e.image + (i,)))
    return Embedding(e.target, image)
