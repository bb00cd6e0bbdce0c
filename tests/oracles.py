"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's code paths: containment is checked
by enumerating subsequences, down-sets by enumerating all subsequences,
single deletions by relabelling a tuple,
symmetries by moving the points of the plot one letter at a time,
intervals by comparing each window's value set with a range, and Mobius
values by the definitional recursion over exact (non-canonicalized) keys.
``embeddings`` tries every set of positions, ``interval_copies`` filters
``brute_intervals`` by pattern, and ``skew_sum`` and ``inflate`` (of every
point at once) are constructions that only the tests use.
``recursive_principal_mobius`` keeps the library's earlier principal
evaluator as a second, independent engine, and ``brute_sum_split`` the
earlier sum-split search.  ``brute_eq_cancel`` checks the parity
cancellation of Theorem 1's proof one interior element at a time.
``i_switch`` is the parity-reversing involution
on embeddings from the proof of Theorem 1.  ``poset_from_covers`` builds a
FinitePosetView from a cover list by closing it transitively, and
``brute_interval`` reads an interval off a view by testing every element.
``brute_scan_chunk`` recounts a census chunk over every permutation that
starts with its prefix, and ``brute_adjacency_counts`` counts the adjacency
classes of S_n; both read adjacencies off the plot as neighbouring points
whose values differ by 1.
"""
import itertools
from dataclasses import dataclass

from permobius.mobius import FinitePosetView, MobiusCache, principal_mobius
from permobius.permcore import (
    SYMMETRY_LABELS,
    PermError,
    down_set,
    inflate_at,
    pattern_of,
)
from permobius.zerorules import certify_zero


@dataclass(frozen=True)
class Embedding:
    """An embedding of a pattern into ``target``, identified by its image.

    The image is a strictly increasing tuple of 1-based positions of the
    target; it determines the source pattern uniquely.
    """

    target: tuple
    image: tuple

    def __post_init__(self):
        img = self.image
        if not img:
            raise PermError("embedding image must be nonempty")
        n = len(self.target)
        if any(not 1 <= p <= n for p in img):
            raise PermError(f"image {img!r} out of range for target of length {n}")
        if any(img[k] >= img[k + 1] for k in range(len(img) - 1)):
            raise PermError(f"image {img!r} is not strictly increasing")

    @property
    def source(self):
        return pattern_of(tuple(self.target[p - 1] for p in self.image))

    @property
    def is_even(self):
        return len(self.image) % 2 == 0


def embeddings(sigma, pi):
    """All embeddings of sigma into pi, ordered lexicographically by image:
    every set of |sigma| positions of pi whose values form sigma.  The proof
    of Theorem 1 (arXiv:1810.05449) cancels these by parity."""
    if not sigma:
        raise PermError("embeddings of the empty permutation are not defined")
    return [
        Embedding(pi, tuple(p + 1 for p in image))
        for image in itertools.combinations(range(len(pi)), len(sigma))
        if pattern_of([pi[p] for p in image]) == sigma
    ]


def skew_sum(alpha, beta):
    """alpha above and to the left of beta."""
    return tuple(v + len(beta) for v in alpha) + tuple(beta)


def inflate(sigma, parts):
    """Inflate every point of sigma by its part; an empty part deletes it."""
    return inflate_at(sigma, range(1, len(sigma) + 1), parts)


def interval_copies(pi, alpha):
    """The windows (start, end) of brute_intervals(pi) whose pattern is alpha."""
    return [
        (s, e) for s, e, _ in brute_intervals(pi) if pattern_of(pi[s - 1 : e]) == alpha
    ]


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


def brute_deletions(pi):
    """The single deletions of pi on tuples: deleting value v shifts every
    larger value down by one."""
    return {tuple([x - (x > v) for x in pi if x != v]) for v in pi}


def brute_interval(P, x, y):
    """[x, y] of a FinitePosetView by testing every element of the poset
    with ``leq``, in listed order."""
    if not P.leq(x, y):
        return []
    return [z for z in P.elements if P.leq(x, z) and P.leq(z, y)]


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
    """The least sum-split witness (i, j, p) that permcore._sum_split finds:
    every window and split point checked from scratch, O(n^3)
    windows-by-points with O(n) scans."""
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


def brute_eq_cancel(pi, i, j, memo=None):
    """For every lam < pi with brute_mobius(1, lam) != 0, (-1)^|pi| plus
    (-1)^|src| for each source src >= lam must be 0, where the sources are
    pi without position i, without j and without both."""
    sources = [
        pattern_of(tuple(v for p, v in enumerate(pi, start=1) if p not in gone))
        for gone in ((i,), (j,), (i, j))
    ]
    for lam in brute_down_set(pi) - {pi}:
        if brute_mobius((1,), lam, memo) == 0:
            continue
        if (-1) ** len(pi) + sum(
            (-1) ** len(src) for src in sources if brute_contains(lam, src)
        ):
            return False
    return True


def recursive_principal_mobius(pi, pruned=True, cache=None):
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
        hit = cache.get(p)
        if hit is not None:
            return hit
        total = 0
        for tau in down_set(p):
            if tau == p:
                continue
            if pruned and len(tau) >= 3 and certify_zero(tau) is not None:
                continue
            total += rec(tau)
        val = -total
        cache.put(p, val)
        return val

    return rec(pi)


def poset_from_covers(elements, covers):
    """The poset on ``elements`` whose order is generated by the cover pairs
    (lo, hi).  The down-sets are closed by a fixpoint loop and the elements
    listed by down-set size, a linear extension unless the covers have a
    cycle, which the view then rejects with PermError."""
    below = {e: set() for e in elements}
    for lo, hi in covers:
        below[hi].add(lo)
    changed = True
    while changed:
        changed = False
        for bs in below.values():
            extra = set().union(*(below[b] for b in bs)) - bs
            if extra:
                bs |= extra
                changed = True
    order = sorted(below, key=lambda e: len(below[e]))
    return FinitePosetView({e: below[e] for e in order})


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


def brute_scan_chunk(n, prefix):
    """The counts of a census chunk: every permutation of 1..n that starts
    with ``prefix``, found by filtering all of them, its orbit from
    brute_symmetry, the orbit's least member weighted by the orbit's size,
    mu by principal_mobius with no cache and simplicity from
    brute_intervals, and the adjacency classes from _plot_adjacencies."""
    counts = dict.fromkeys(
        ("zeros", "certified", "simple", "simple_nonzero", "opposing", "adjacency_free"),
        0,
    )
    for pi in itertools.permutations(range(1, n + 1)):
        if pi[: len(prefix)] != prefix:
            continue
        orbit = {brute_symmetry(g, pi) for g in SYMMETRY_LABELS}
        if pi != min(orbit):
            continue
        weight = len(orbit)
        mu = principal_mobius(pi)
        if mu == 0:
            counts["zeros"] += weight
            if certify_zero(pi) is not None:
                counts["certified"] += weight
        if all(e - s in (0, n - 1) for s, e, _ in brute_intervals(pi)):
            counts["simple"] += weight
            if mu != 0:
                counts["simple_nonzero"] += weight
        up, down = _plot_adjacencies(pi)
        if up and down:
            counts["opposing"] += weight
        elif not (up or down):
            counts["adjacency_free"] += weight
    return counts


def _plot_adjacencies(pi):
    """(has an up-adjacency, has a down-adjacency): neighbouring points of
    the plot with |pi[i+1] - pi[i]| = 1, rising or falling."""
    steps = {pi[k + 1] - pi[k] for k in range(len(pi) - 1)}
    return 1 in steps, -1 in steps


def brute_adjacency_counts(n):
    """(a_n, b_n, s_n) by a scan of S_n: the permutations with no
    up-adjacency, with no adjacency, and with both kinds."""
    a = b = s = 0
    for pi in itertools.permutations(range(1, n + 1)):
        up, down = _plot_adjacencies(pi)
        if not up:
            a += 1
            if not down:
                b += 1
        elif down:
            s += 1
    return a, b, s
