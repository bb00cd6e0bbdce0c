"""Certificate-producing detection of principal Mobius zeros.

Each rule is sound: a permutation holding a valid certificate has principal
Mobius value 0.  Completeness is not attempted; zeros arising from
accidental cancellation get no certificate.  Each rule is one certificate
class holding its rule ``tag``, its ``witness()`` text and its
``recheck(pi, include_conjectured)``, which returns False or raises on a
witness that does not hold; ``describe_certificate`` and
``verify_certificate`` only dispatch to them.  Every rule reads one list of
pi's intervals (``permcore.intervals``), which ``_certify`` takes from a
caller that holds it, uncached, and ``verify_certificate`` re-checks only
the windows a certificate names.  All rules are closed under the 8
symmetries of the pattern poset.  The sum-split rule searches only pi and
its reverse: an image under id, rc, i or irc has an interval copy of some
alpha+1+beta iff pi has one, and an image under r, c, ir or ic iff pi's
reverse has one, so no later label in SYMMETRY_LABELS is ever the first
with a witness.  The fixed annihilators' images are tabled once at import.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Container, Iterable, Optional, Union

from .permcore import (
    Perm,
    PermError,
    SYMMETRY_LABELS,
    apply_symmetry,
    direct_sum,
    down_set,
    fmt,
    intervals,
    pattern_of,
    symmetric_images,
    _sum_split,
)

#: Single permutations whose interval copy forces a zero (beyond sum splits).
BASE_ANNIHILATORS: tuple[Perm, ...] = (
    (2, 1, 5, 4, 6, 3),
    (2, 3, 6, 1, 4, 5),
    (2, 1, 4, 6, 5, 3),
)

#: Pairs whose disjoint interval copies force a zero.
ANNIHILATOR_PAIRS: tuple[tuple[Perm, Perm], ...] = (
    ((1, 2), (2, 1)),
    ((2, 1, 3), (2, 4, 3, 1)),
    ((2, 1, 4, 3), (2, 4, 3, 1)),
    ((3, 1, 2), (2, 3, 5, 1, 4)),
    ((2, 5, 1, 3, 4), (2, 3, 5, 1, 4)),
)

#: Conjectured pairs, certifiable only behind an explicit flag.
CONJECTURED_PAIRS: tuple[tuple[Perm, Perm], ...] = (
    ((3, 1, 2), (2, 3, 5, 6, 1, 4)),
)


# Per rule table: each base image with its least (base index, label index),
# read in reverse so that a repeated image keeps its first place; each pair
# with its (label, images) in SYMMETRY_LABELS order.  The window lengths
# cover the conjectured pairs too; windows that no image can match cost
# time, never a different certificate.
_BASE_INDEX = {
    image: (b, g)
    for b, base in reversed(list(enumerate(BASE_ANNIHILATORS)))
    for g, image in reversed(list(enumerate(symmetric_images(base))))
}


def _pair_images(pairs: tuple[tuple[Perm, Perm], ...]) -> tuple:
    return tuple(
        (
            (phi, psi),
            tuple(zip(SYMMETRY_LABELS, symmetric_images(phi), symmetric_images(psi))),
        )
        for phi, psi in pairs
    )


_PAIR_IMAGES = _pair_images(ANNIHILATOR_PAIRS[1:])  # not (12, 21): Theorem 1 is rule 1
_CONJECTURED_IMAGES = _pair_images(CONJECTURED_PAIRS)
_PAIR_MEMBERS = frozenset(
    q for _pair, images in _PAIR_IMAGES + _CONJECTURED_IMAGES for _g, *qs in images for q in qs
)
_WINDOW_LENGTHS = frozenset(map(len, BASE_ANNIHILATORS)) | frozenset(map(len, _PAIR_MEMBERS))


def _window_copies(pi: Perm, pattern: Perm, window: tuple[int, int]) -> bool:
    s, e = window
    if not (1 <= s <= e <= len(pi)) or e - s + 1 != len(pattern):
        return False
    vals = pi[s - 1 : e]
    return max(vals) - min(vals) == e - s and pattern_of(vals) == pattern


@dataclass(frozen=True)
class OpposingAdjacencies:
    tag = "opposing-adjacencies"
    up_index: int
    down_index: int

    def witness(self) -> str:
        return f"up={self.up_index} down={self.down_index}"

    def recheck(self, pi: Perm, include_conjectured: bool = False) -> bool:
        i, j = self.up_index, self.down_index
        return _window_copies(pi, (1, 2), (i, i + 1)) and _window_copies(pi, (2, 1), (j, j + 1))


@dataclass(frozen=True)
class SumAnnihilator:
    tag = "sum-annihilator"
    window: tuple[int, int]
    split: int
    # Coordinates refer to apply_symmetry(symmetry, pi): only "id" (a direct
    # sum alpha+1+beta in pi) or "r" (a skew sum in pi) can occur.
    symmetry: str = "id"

    def witness(self) -> str:
        s, e = self.window
        return f"window={s}-{e} split={self.split} sym={self.symmetry}"

    def recheck(self, pi: Perm, include_conjectured: bool = False) -> bool:
        q = apply_symmetry(self.symmetry, pi)
        (s, e), p = self.window, self.split
        if not 1 <= s < p < e <= len(q):
            return False
        vals, v = q[s - 1 : e], q[p - 1]
        if max(vals) - min(vals) != e - s:
            return False
        return max(q[s - 1 : p - 1]) < v < min(q[p:e])


@dataclass(frozen=True)
class BaseAnnihilator:
    tag = "base-annihilator"
    base: Perm
    symmetry: str
    window: tuple[int, int]

    def witness(self) -> str:
        s, e = self.window
        return f"base={fmt(self.base)} sym={self.symmetry} window={s}-{e}"

    def recheck(self, pi: Perm, include_conjectured: bool = False) -> bool:
        if self.base not in BASE_ANNIHILATORS:
            return False
        return _window_copies(pi, apply_symmetry(self.symmetry, self.base), self.window)


@dataclass(frozen=True)
class AnnihilatorPair:
    tag = "annihilator-pair"
    pair: tuple[Perm, Perm]
    symmetry: str
    window1: tuple[int, int]
    window2: tuple[int, int]

    def witness(self) -> str:
        (s1, e1), (s2, e2) = self.window1, self.window2
        members = ",".join(map(fmt, self.pair))
        return f"pair={members} sym={self.symmetry} window1={s1}-{e1} window2={s2}-{e2}"

    def recheck(self, pi: Perm, include_conjectured: bool = False) -> bool:
        known = ANNIHILATOR_PAIRS + (CONJECTURED_PAIRS if include_conjectured else ())
        if self.pair not in known:
            return False
        (phi, psi), w1, w2 = self.pair, self.window1, self.window2
        if not (w1[1] < w2[0] or w2[1] < w1[0]):
            return False
        return _window_copies(pi, apply_symmetry(self.symmetry, phi), w1) and _window_copies(
            pi, apply_symmetry(self.symmetry, psi), w2
        )


ZeroCertificate = Union[OpposingAdjacencies, SumAnnihilator, BaseAnnihilator, AnnihilatorPair]


def _interval_windows(
    pi: Perm, ivs: Iterable[tuple[int, int, int]], lengths: Container[int] = _WINDOW_LENGTHS
) -> dict[Perm, list[tuple[int, int]]]:
    """The windows of ``ivs``, pi's intervals, with a length in ``lengths``, by pattern."""
    out: dict[Perm, list[tuple[int, int]]] = {}
    for s, e, low in ivs:
        if e - s + 1 in lengths:
            pattern = tuple([v - low + 1 for v in pi[s - 1 : e]])
            out.setdefault(pattern, []).append((s, e))
    return out


@functools.lru_cache(maxsize=1 << 20)
def certify_zero(pi: Perm, include_conjectured: bool = False) -> Optional[ZeroCertificate]:
    """The first applicable zero certificate for pi, or None.

    Precedence: opposing adjacencies, then sum-split intervals of pi (label
    "id") or of its reverse ("r"), which suffices for every symmetry, then base
    annihilators under all 8 symmetries, then annihilator pairs (same
    symmetry applied to both members, windows disjoint).  The precedence is
    cosmetic; every rule is sound.
    """
    if not pi:
        raise PermError("cannot certify the empty permutation")
    return _certify(pi, list(intervals(pi)), include_conjectured)


def _certify(
    pi: Perm, ivs: list[tuple[int, int, int]], include_conjectured: bool = False
) -> Optional[ZeroCertificate]:
    """``certify_zero`` over ``ivs = list(intervals(pi))``, uncached; the
    length-2 intervals are the adjacencies, and reversing pi maps the
    interval (s, e, low) to (n+1-e, n+1-s, low)."""
    up = next((s for s, e, low in ivs if e - s == 1 and pi[s - 1] == low), 0)
    down = next((s for s, e, low in ivs if e - s == 1 and pi[s - 1] != low), 0)
    if up and down:
        return OpposingAdjacencies(up, down)
    w, g = _sum_split(pi, ivs), "id"
    if w is None:
        n1 = len(pi) + 1
        reverse = sorted([(n1 - e, n1 - s, low) for s, e, low in ivs])
        w, g = _sum_split(pi[::-1], reverse), "r"
    if w is not None:
        return SumAnnihilator(window=(w[0], w[1]), split=w[2], symmetry=g)

    windows = _interval_windows(pi, ivs)
    found = [(_BASE_INDEX[p], p) for p in windows if p in _BASE_INDEX]
    if found:  # the least index is the first base and label in table order
        (b, g), image = min(found)
        return BaseAnnihilator(BASE_ANNIHILATORS[b], SYMMETRY_LABELS[g], windows[image][0])
    if windows.keys().isdisjoint(_PAIR_MEMBERS):  # no window of any pair member
        return None
    pairs = _PAIR_IMAGES + (_CONJECTURED_IMAGES if include_conjectured else ())
    for pair, images in pairs:
        for g, phi, psi in images:
            for w1 in windows.get(phi, ()):
                for w2 in windows.get(psi, ()):
                    if w1[1] < w2[0] or w2[1] < w1[0]:
                        return AnnihilatorPair(
                            pair=pair, symmetry=g, window1=w1, window2=w2
                        )
    return None


def verify_certificate(
    pi: Perm, cert: ZeroCertificate, include_conjectured: bool = False
) -> bool:
    """Structural re-check of a certificate's witness; no Mobius evaluation.
    False for anything that is not a certificate; only an annihilator pair
    reads ``include_conjectured``."""
    if not isinstance(cert, ZeroCertificate):
        return False
    try:
        return cert.recheck(pi, include_conjectured)
    except (PermError, ValueError, TypeError):
        return False


def sigma_sum_rule(sigma: Perm, alpha: Perm, beta: Perm, pi: Perm) -> bool:
    """True certifies mu(sigma, pi) = 0 via a sum-shaped interval copy.

    Paper (arXiv:1810.05449): the general mu(sigma, pi) = 0 sum theorem.

    Requires (a) pi has an interval copy of alpha+1+beta, and (b) sigma has
    no interval copy of any a'+b' with 1 <= a' <= alpha and 1 <= b' <= beta.
    """
    if not sigma or not alpha or not beta:
        raise PermError("sigma, alpha and beta must be nonempty")
    phi = direct_sum(alpha, direct_sum((1,), beta))
    if phi not in _interval_windows(pi, intervals(pi), (len(phi),)):
        return False
    windows = _interval_windows(sigma, intervals(sigma), range(2, len(alpha) + len(beta) + 1))
    return not any(
        direct_sum(ap, bp) in windows for ap in down_set(alpha) for bp in down_set(beta)
    )


def describe_certificate(cert: ZeroCertificate) -> tuple[str, str]:
    """(rule tag, witness text) for display; PermError for a non-certificate."""
    if not isinstance(cert, ZeroCertificate):
        raise PermError(f"unknown certificate {cert!r}")
    return cert.tag, cert.witness()
