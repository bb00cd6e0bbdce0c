"""Certificate-producing detection of principal Mobius zeros.

Each rule is sound: a permutation holding a valid certificate has principal
Mobius value 0.  Completeness is not attempted; zeros arising from
accidental cancellation get no certificate.  Every rule reads pi's windows
from one interval scan, ``permcore.intervals``, and ``verify_certificate``
re-checks only the windows a certificate names.  All rules are closed under
the 8 symmetries of the pattern poset.  The sum-split rule scans only pi
and its reverse: an image under id, rc, i or irc has an interval copy of
some alpha+1+beta iff pi has one, and an image under r, c, ir or ic iff pi's
reverse has one, so no later label in SYMMETRY_LABELS is ever the first
with a witness.  The fixed annihilators' images are tabled once at import.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Union

from .permcore import (
    Perm,
    PermError,
    SYMMETRY_LABELS,
    adjacencies,
    apply_symmetry,
    direct_sum,
    down_set,
    find_sum_split_interval,
    fmt,
    interval_copies,
    intervals,
    pattern_of,
    symmetric_images,
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


# Per rule table: each member (or pair) with its (label, image(s)) in
# SYMMETRY_LABELS order.  The window lengths cover the conjectured pairs too;
# windows that no image can match cost time, never a different certificate.
_BASE_IMAGES = tuple(
    (base, tuple(zip(SYMMETRY_LABELS, symmetric_images(base))))
    for base in BASE_ANNIHILATORS
)


def _pair_images(pairs: tuple[tuple[Perm, Perm], ...]) -> tuple:
    return tuple(
        (
            (phi, psi),
            tuple(zip(SYMMETRY_LABELS, symmetric_images(phi), symmetric_images(psi))),
        )
        for phi, psi in pairs
    )


_PAIR_IMAGES = _pair_images(ANNIHILATOR_PAIRS)
_CONJECTURED_IMAGES = _pair_images(CONJECTURED_PAIRS)
_WINDOW_LENGTHS = frozenset(map(len, BASE_ANNIHILATORS)) | frozenset(
    len(p) for pair in ANNIHILATOR_PAIRS + CONJECTURED_PAIRS for p in pair
)


@dataclass(frozen=True)
class OpposingAdjacencies:
    up_index: int
    down_index: int


@dataclass(frozen=True)
class SumAnnihilator:
    window: tuple[int, int]
    split: int
    # Coordinates refer to apply_symmetry(symmetry, pi): only "id" (a direct
    # sum alpha+1+beta in pi) or "r" (a skew sum in pi) can occur.
    symmetry: str = "id"


@dataclass(frozen=True)
class BaseAnnihilator:
    base: Perm
    symmetry: str
    window: tuple[int, int]


@dataclass(frozen=True)
class AnnihilatorPair:
    pair: tuple[Perm, Perm]
    symmetry: str
    window1: tuple[int, int]
    window2: tuple[int, int]


ZeroCertificate = Union[
    OpposingAdjacencies, SumAnnihilator, BaseAnnihilator, AnnihilatorPair
]


def _interval_windows(pi: Perm) -> dict[Perm, list[tuple[int, int]]]:
    """The interval windows of pi with a length in _WINDOW_LENGTHS, by pattern."""
    out: dict[Perm, list[tuple[int, int]]] = {}
    for s, e, low in intervals(pi):
        if e - s + 1 in _WINDOW_LENGTHS:
            pattern = tuple([v - low + 1 for v in pi[s - 1 : e]])
            out.setdefault(pattern, []).append((s, e))
    return out


@functools.lru_cache(maxsize=1 << 20)
def certify_zero(pi: Perm, include_conjectured: bool = False) -> Optional[ZeroCertificate]:
    """The first applicable zero certificate for pi, or None.

    Precedence: opposing adjacencies, then sum-split intervals of pi (label
    "id") or of its reverse ("r"), which covers every symmetry, then base
    annihilators under all 8 symmetries, then annihilator pairs (same
    symmetry applied to both members, windows disjoint).  The precedence is
    cosmetic; every rule is sound.
    """
    if not pi:
        raise PermError("cannot certify the empty permutation")
    ups, downs = adjacencies(pi)
    if ups and downs:
        return OpposingAdjacencies(ups[0], downs[0])
    for g, image in (("id", pi), ("r", pi[::-1])):
        w = find_sum_split_interval(image)
        if w is not None:
            return SumAnnihilator(window=(w[0], w[1]), split=w[2], symmetry=g)

    windows = _interval_windows(pi)
    for base, images in _BASE_IMAGES:
        for g, image in images:
            copies = windows.get(image)
            if copies:
                return BaseAnnihilator(base=base, symmetry=g, window=copies[0])

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


def _window_copies(pi: Perm, pattern: Perm, window: tuple[int, int]) -> bool:
    s, e = window
    if not (1 <= s <= e <= len(pi)) or e - s + 1 != len(pattern):
        return False
    vals = pi[s - 1 : e]
    return max(vals) - min(vals) == e - s and pattern_of(vals) == pattern


def verify_certificate(
    pi: Perm, cert: ZeroCertificate, include_conjectured: bool = False
) -> bool:
    """Structural re-check of a certificate's witness; no Mobius evaluation."""
    try:
        if isinstance(cert, OpposingAdjacencies):
            i, j = cert.up_index, cert.down_index
            if not (1 <= i < len(pi)) or not (1 <= j < len(pi)):
                return False
            return pi[i] == pi[i - 1] + 1 and pi[j] == pi[j - 1] - 1
        if isinstance(cert, SumAnnihilator):
            q = apply_symmetry(cert.symmetry, pi)
            (s, e), p = cert.window, cert.split
            if not 1 <= s < p < e <= len(q):
                return False
            vals, v = q[s - 1 : e], q[p - 1]
            if max(vals) - min(vals) != e - s:
                return False
            return max(q[s - 1 : p - 1]) < v < min(q[p:e])
        if isinstance(cert, BaseAnnihilator):
            if cert.base not in BASE_ANNIHILATORS:
                return False
            return _window_copies(
                pi, apply_symmetry(cert.symmetry, cert.base), cert.window
            )
        if isinstance(cert, AnnihilatorPair):
            known = ANNIHILATOR_PAIRS + (
                CONJECTURED_PAIRS if include_conjectured else ()
            )
            if cert.pair not in known:
                return False
            phi, psi = cert.pair
            w1, w2 = cert.window1, cert.window2
            if not (w1[1] < w2[0] or w2[1] < w1[0]):
                return False
            return _window_copies(
                pi, apply_symmetry(cert.symmetry, phi), w1
            ) and _window_copies(pi, apply_symmetry(cert.symmetry, psi), w2)
        return False
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
    if not interval_copies(pi, phi):
        return False
    for ap in down_set(alpha):
        for bp in down_set(beta):
            if interval_copies(sigma, direct_sum(ap, bp)):
                return False
    return True


_RULE_TAGS = {
    OpposingAdjacencies: "opposing-adjacencies",
    SumAnnihilator: "sum-annihilator",
    BaseAnnihilator: "base-annihilator",
    AnnihilatorPair: "annihilator-pair",
}


def describe_certificate(cert: ZeroCertificate) -> tuple[str, str]:
    """(rule tag, witness text) for display and audit lines."""
    if isinstance(cert, OpposingAdjacencies):
        return _RULE_TAGS[type(cert)], f"up={cert.up_index} down={cert.down_index}"
    if isinstance(cert, SumAnnihilator):
        return (
            _RULE_TAGS[type(cert)],
            f"window={cert.window[0]}-{cert.window[1]} split={cert.split} sym={cert.symmetry}",
        )
    if isinstance(cert, BaseAnnihilator):
        return (
            _RULE_TAGS[type(cert)],
            f"base={fmt(cert.base)} sym={cert.symmetry} "
            f"window={cert.window[0]}-{cert.window[1]}",
        )
    if isinstance(cert, AnnihilatorPair):
        return (
            _RULE_TAGS[type(cert)],
            f"pair={fmt(cert.pair[0])},{fmt(cert.pair[1])} sym={cert.symmetry} "
            f"window1={cert.window1[0]}-{cert.window1[1]} "
            f"window2={cert.window2[0]}-{cert.window2[1]}",
        )
    raise PermError(f"unknown certificate {cert!r}")


def certificate_line(pi: Perm, cert: ZeroCertificate) -> str:
    """Audit-file serialization: ``<perm>TAB<rule>TAB<witness>``."""
    tag, witness = ("none", "") if cert is None else describe_certificate(cert)
    return f"{fmt(pi)}\t{tag}\t{witness}"
