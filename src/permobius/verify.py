"""Executable checks of the structural facts behind the zero rules.

All checked identities are exact; arithmetic uses integers and Fractions.
Random structures are driven by explicit seeds recorded in the report.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .permcore import (
    Perm,
    PermError,
    adjacencies,
    direct_sum,
    down_set,
    fmt,
    has_opposing_adjacencies,
    inflate_at,
    parse,
    pattern_of,
)
from .mobius import (
    FinitePosetView,
    MobiusCache,
    P1,
    interval_as_poset,
    interval_mobius,
    mobius,
    mobius_poset,
    principal_mobius,
)
from .zerorules import (
    ANNIHILATOR_PAIRS,
    BASE_ANNIHILATORS,
    OpposingAdjacencies,
    SumAnnihilator,
    certify_zero,
    verify_certificate,
)

# Unused here, but bench/tracing.py patches these names on this module to
# count their calls; they stay importable until the benchmark drops them.
from .permcore import apply_symmetry, contains  # noqa: F401


class CoreInvariantError(PermError):
    """A claimed narrow/diamond core fails its structural invariants."""


class PreconditionError(PermError):
    """A check was invoked outside its stated precondition."""


@dataclass(frozen=True)
class TippedCore:
    """Witness that an interval's strict down-set collapses to one or two
    principal down-sets: narrow uses z alone, diamond uses (z, z', w)."""

    kind: str  # "narrow" or "diamond"
    z: Hashable
    z_prime: Hashable = None
    w: Hashable = None


def check_tipped_core(
    P: FinitePosetView, x: Hashable, y: Hashable, core: TippedCore
) -> None:
    """Raise CoreInvariantError unless the core matches its definition on [x, y]."""
    half_open = set(P.interval(x, y)) - {y}
    if core.kind == "narrow":
        if core.z == x:
            raise CoreInvariantError("narrow core must differ from the bottom")
        if half_open != set(P.interval(x, core.z)):
            raise CoreInvariantError("[x,y) != [x,z]")
        return
    if core.kind == "diamond":
        z, zp, w = core.z, core.z_prime, core.w
        if x in (z, zp, w):
            raise CoreInvariantError("diamond core elements must differ from the bottom")
        dz = set(P.interval(x, z))
        dzp = set(P.interval(x, zp))
        if half_open != dz | dzp:
            raise CoreInvariantError("[x,y) != [x,z] U [x,z']")
        if dz & dzp != set(P.interval(x, w)):
            raise CoreInvariantError("[x,z] n [x,z'] != [x,w]")
        return
    raise CoreInvariantError(f"unknown core kind {core.kind!r}")


def check_fac_nd(
    P: FinitePosetView, x: Hashable, y: Hashable, core: TippedCore
) -> bool:
    """Narrow- or diamond-tipped intervals must have Mobius value 0."""
    check_tipped_core(P, x, y, core)
    return mobius_poset(P, x, y) == 0


def check_fac_del(P: FinitePosetView, x: Hashable, y_deleted: Hashable) -> bool:
    """Deleting an element with Mobius value 0 preserves all values from x."""
    if mobius_poset(P, x, y_deleted) != 0:
        raise PreconditionError(
            f"mobius({x!r}, {y_deleted!r}) != 0; deletion fact does not apply"
        )
    Q = P.delete(y_deleted)
    return all(mobius_poset(Q, x, z) == mobius_poset(P, x, z) for z in Q.elements)


def check_pro_form(
    sigma: Perm, pi: Perm, seed: int, corrupt: bool = False
) -> bool:
    """Exact test of the inversion identity
    mu(s,p) = F(s) - sum_l mu(s,l) sum_{t>=l} F(t), for random rational F
    with F(pi) = 1.  ``corrupt`` sets F(pi) = 2 as a negative control.

    The values mu(s, l) come from one pass of the interval engine; the
    order they are checked against is ``interval_as_poset``'s.
    """
    P = interval_as_poset(sigma, pi)
    interval = P.elements
    if not interval:
        raise PreconditionError("sigma must be contained in pi")
    rng = random.Random(seed)
    F = {
        t: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for t in interval
    }
    F[pi] = Fraction(2 if corrupt else 1)
    mu = interval_mobius(sigma, pi)
    rhs = F[sigma]
    for lam in interval:
        if lam == pi:
            continue
        inner = sum(F[t] for t in interval if P.leq(lam, t))
        rhs -= mu[lam] * inner
    return mu[pi] == rhs


def check_eq_cancel_thm1(
    pi: Perm, i: int, j: int, cache: Optional[MobiusCache] = None
) -> bool:
    """Parity cancellation of the four wide embeddings around an up-adjacency
    at i and a down-adjacency at j, for every nonzero interior element."""
    ups, downs = adjacencies(pi)
    if i not in ups or j not in downs:
        raise PreconditionError(
            f"{fmt(pi)} has no up-adjacency at {i} / down-adjacency at {j}"
        )
    if cache is None:
        cache = MobiusCache()
    sources = [
        pattern_of(tuple(v for p, v in enumerate(pi, start=1) if p not in gone))
        for gone in ((i,), (j,), (i, j))
    ]
    if any(len(src) == 1 for src in sources):
        return False
    # the sources above lam, pi itself among them, must cancel by parity; the
    # sources are patterns of pi, so [1, pi] orders lam against each of them
    P = interval_as_poset(P1, pi)
    signed = [((-1) ** len(src), src) for src in sources]
    for lam in P.elements:
        if lam == pi or principal_mobius(lam, cache=cache) == 0:
            continue
        if (-1) ** len(pi) + sum(sign for sign, src in signed if P.leq(lam, src)):
            return False
    return True


# ---------------------------------------------------------------------------
# Planted poset generators (abstract elements are integers; 0 is the bottom).


def _grow_region(
    rng: random.Random, below: dict, pool: list, count: int, start_id: int
) -> list:
    """Add ``count`` fresh elements, each above a random nonempty subset of
    ``pool`` (and previously grown elements); returns the new element ids."""
    grown: list = []
    for k in range(count):
        e = start_id + k
        preds = rng.sample(pool + grown, rng.randint(1, min(3, len(pool + grown))))
        acc = set()
        for p in preds:
            acc.add(p)
            acc |= below[p]
        below[e] = acc
        grown.append(e)
    return grown


def planted_narrow_poset(seed: int):
    """(P, x, y, core): random poset whose top's strict down-set is [x, z]."""
    rng = random.Random(seed)
    x = 0
    below: dict = {x: set()}
    body = _grow_region(rng, below, [x], rng.randint(1, 5), start_id=1)
    z = 100
    below[z] = {x, *body, *(v for e in body for v in below[e])}
    y = 101
    below[y] = below[z] | {z}
    return FinitePosetView(below), x, y, TippedCore("narrow", z=z)


def planted_diamond_poset(seed: int, extra_above: int = 0):
    """(P, x, y, core): random diamond-tipped interval [x, y] with core
    (z, z', w); optionally grows extra elements above random parts of P."""
    rng = random.Random(seed)
    x = 0
    below: dict = {x: set()}
    core_body = _grow_region(rng, below, [x], rng.randint(1, 4), start_id=1)
    w = 100
    below[w] = {x, *core_body}
    core_all = [x, *core_body, w]
    side_a = _grow_region(rng, below, core_all, rng.randint(0, 3), start_id=200)
    side_b = _grow_region(rng, below, core_all, rng.randint(0, 3), start_id=300)
    z, zp, y = 400, 401, 402
    below[z] = {x, *core_body, w, *side_a}
    below[zp] = {x, *core_body, w, *side_b}
    below[y] = below[z] | below[zp] | {z, zp}
    if extra_above:
        pool = [e for e in below if e != y]
        _grow_region(rng, below, pool + [y], extra_above, start_id=500)
    return FinitePosetView(below), x, y, TippedCore("diamond", z=z, z_prime=zp, w=w)


def planted_deletion_case(seed: int):
    """(P, x, y): poset with extra elements above a planted zero y."""
    P, x, y, _core = planted_diamond_poset(seed, extra_above=random.Random(seed ^ 0xA5).randint(1, 3))
    return P, x, y


# ---------------------------------------------------------------------------
# Figure reconstructions from the interval of a concrete permutation.

DIAMOND_214653 = (parse("214653"), parse("13542"), parse("2143"), parse("132"))
DIAMOND_214635 = (parse("214635"), parse("13524"), parse("21435"), parse("1324"))

#: Elements surviving the deletions below the annihilator 214653.
SURVIVORS_214653 = frozenset(
    parse(s)
    for s in (
        "1",
        "12",
        "21",
        "231",
        "132",
        "213",
        "2431",
        "1342",
        "2143",
        "13542",
        "214653",
    )
)


def _restricted_interval_poset(top: Perm, keep: Callable[[Perm], bool]) -> FinitePosetView:
    P = interval_as_poset(P1, top)
    return P.induced(t for t in P.elements if t == top or keep(t))


def reconstruct_214653_diamond() -> tuple[FinitePosetView, TippedCore, bool]:
    """Delete opposing-adjacency and sum-split zeros below 214653; the rest
    must be the published 11-element diamond-tipped poset."""
    top, z, zp, w = DIAMOND_214653
    # certify_zero tries these two rules first, so any other answer means
    # neither applies
    P = _restricted_interval_poset(
        top,
        lambda t: not isinstance(certify_zero(t), (OpposingAdjacencies, SumAnnihilator)),
    )
    core = TippedCore("diamond", z=z, z_prime=zp, w=w)
    elements_ok = set(P.elements) == set(SURVIVORS_214653)
    return P, core, elements_ok


def reconstruct_214635_diamond() -> tuple[FinitePosetView, TippedCore]:
    """Delete all rule-certified zeros below 214635; the remainder must be
    diamond-tipped with core (13524, 21435, 1324)."""
    top, z, zp, w = DIAMOND_214635
    P = _restricted_interval_poset(top, lambda t: certify_zero(t) is None)
    return P, TippedCore("diamond", z=z, z_prime=zp, w=w)


# ---------------------------------------------------------------------------
# Aggregated theorem suites.


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class Report:
    results: list[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            suffix = f" ({r.detail})" if r.detail else ""
            lines.append(f"{status} {r.name}{suffix}")
        lines.append("OK" if self.all_passed else "FAILED")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return (
            json.dumps(
                {
                    "all_passed": self.all_passed,
                    "checks": [
                        {"name": r.name, "passed": r.passed, "detail": r.detail}
                        for r in self.results
                    ],
                },
                indent=2,
            )
            + "\n"
        )


def _perms_up_to(n_max: int):
    for n in range(1, n_max + 1):
        yield from itertools.permutations(range(1, n + 1))


def _suite_theorem1(n_max: int, cache: MobiusCache) -> CheckResult:
    for pi in _perms_up_to(n_max):
        if has_opposing_adjacencies(pi) and principal_mobius(pi, cache=cache) != 0:
            return CheckResult("theorem1-exhaustive", False, f"counterexample {fmt(pi)}")
    return CheckResult("theorem1-exhaustive", True, f"n<={n_max}")


def _suite_soundness(n_max: int, cache: MobiusCache) -> CheckResult:
    for pi in _perms_up_to(n_max):
        cert = certify_zero(pi)
        if cert is None:
            continue
        if not verify_certificate(pi, cert):
            return CheckResult(
                "rule-soundness-exhaustive", False, f"invalid witness for {fmt(pi)}"
            )
        if principal_mobius(pi, cache=cache) != 0:
            return CheckResult(
                "rule-soundness-exhaustive", False, f"false certificate for {fmt(pi)}"
            )
    return CheckResult("rule-soundness-exhaustive", True, f"n<={n_max}")


def _first_nonzero(hosts: Iterable[Perm], cache: MobiusCache) -> Optional[Perm]:
    """The first host with mu(1, host) != 0, or None if every host is a zero."""
    return next((h for h in hosts if principal_mobius(h, cache=cache) != 0), None)


def _suite_cor_sum(cache: MobiusCache) -> CheckResult:
    phis = (
        direct_sum(alpha, direct_sum(P1, beta))
        for la in range(1, 4)
        for lb in range(1, 5 - la)
        for alpha in itertools.permutations(range(1, la + 1))
        for beta in itertools.permutations(range(1, lb + 1))
    )
    hosts = (
        inflate_at(tau, [i], [phi])
        for phi in phis
        for tau in _perms_up_to(4)
        for i in range(1, len(tau) + 1)
    )
    host = _first_nonzero(hosts, cache)
    if host is not None:
        return CheckResult("cor-sum-sampled", False, f"mu(1,{fmt(host)}) != 0")
    return CheckResult("cor-sum-sampled", True, "|alpha|+|beta|<=4, |tau|<=4")


def _suite_pairs(cache: MobiusCache) -> CheckResult:
    hosts = (
        inflate_at(tau, [i, j], [phi, psi])
        for phi, psi in ANNIHILATOR_PAIRS[1:]  # the four beyond (12, 21)
        for tau in _perms_up_to(3)
        for i, j in itertools.permutations(range(1, len(tau) + 1), 2)
    )
    host = _first_nonzero(hosts, cache)
    if host is not None:
        return CheckResult("pair-theorems-sampled", False, f"mu(1,{fmt(host)}) != 0")
    return CheckResult("pair-theorems-sampled", True, "4 pairs, |tau|<=3")


def _suite_base_annihilators(cache: MobiusCache) -> CheckResult:
    hosts = (
        inflate_at(tau, [i], [base])
        for base in BASE_ANNIHILATORS
        for tau in _perms_up_to(3)
        for i in range(1, len(tau) + 1)
    )
    host = _first_nonzero(hosts, cache)
    if host is not None:
        return CheckResult("base-annihilators-sampled", False, f"mu(1,{fmt(host)}) != 0")
    return CheckResult("base-annihilators-sampled", True, "3 bases, |tau|<=3")


def _suite_non_annihilators(cache: MobiusCache) -> CheckResult:
    if principal_mobius(parse("214635"), cache=cache) != 0:
        return CheckResult("non-annihilator-separation", False, "mu(1,214635) != 0")
    host_base = parse("24153")
    for a_text in ("235614", "254613", "465213"):
        host = inflate_at(host_base, [2], [parse(a_text)])
        if principal_mobius(host, cache=cache) == 0:
            return CheckResult(
                "non-annihilator-separation",
                False,
                f"mu(1, 24153_2[{a_text}]) == 0",
            )
    return CheckResult("non-annihilator-separation", True)


def _suite_pro_form(seeds: int = 50) -> CheckResult:
    sample = [
        (parse("1"), parse("132")),
        (parse("1"), parse("2413")),
        (parse("12"), parse("2413")),
        (parse("1"), parse("21354")),
        (parse("21"), parse("35142")),
    ]
    for sigma, pi in sample:
        for seed in range(seeds):
            if not check_pro_form(sigma, pi, seed):
                return CheckResult(
                    "pro-form-identity",
                    False,
                    f"sigma={fmt(sigma)} pi={fmt(pi)} seed={seed}",
                )
    return CheckResult("pro-form-identity", True, f"{seeds} seeds per interval")


def _suite_eq_cancel(n_max: int, cache: MobiusCache) -> CheckResult:
    bound = min(n_max, 7)
    for pi in _perms_up_to(bound):
        ups, downs = adjacencies(pi)
        if not ups or not downs:
            continue
        if not check_eq_cancel_thm1(pi, ups[0], downs[0], cache=cache):
            return CheckResult("eq-cancel-theorem1", False, f"failed at {fmt(pi)}")
    return CheckResult("eq-cancel-theorem1", True, f"n<={bound}")


def _suite_planted_posets(seeds: int = 100) -> CheckResult:
    for seed in range(seeds):
        P, x, y, core = planted_narrow_poset(seed)
        if not check_fac_nd(P, x, y, core):
            return CheckResult("fac-nd-planted", False, f"narrow seed={seed}")
        P, x, y, core = planted_diamond_poset(seed)
        if not check_fac_nd(P, x, y, core):
            return CheckResult("fac-nd-planted", False, f"diamond seed={seed}")
        P, x, y = planted_deletion_case(seed)
        if not check_fac_del(P, x, y):
            return CheckResult("fac-nd-planted", False, f"deletion seed={seed}")
    return CheckResult("fac-nd-planted", True, f"{seeds} seeds")


def _suite_figure_cores() -> CheckResult:
    P, core, elements_ok = reconstruct_214653_diamond()
    if not elements_ok:
        return CheckResult(
            "figure-diamond-cores", False, "214653 survivor set mismatch"
        )
    top = DIAMOND_214653[0]
    if not check_fac_nd(P, P1, top, core):
        return CheckResult("figure-diamond-cores", False, "214653 core check failed")
    P, core = reconstruct_214635_diamond()
    if not check_fac_nd(P, P1, DIAMOND_214635[0], core):
        return CheckResult("figure-diamond-cores", False, "214635 core check failed")
    return CheckResult("figure-diamond-cores", True)


def _suite_poset_oracle(n_max: int = 5) -> CheckResult:
    for pi in _perms_up_to(n_max):
        for sigma in down_set(pi):
            got = mobius(sigma, pi)
            want = mobius_poset(interval_as_poset(sigma, pi), sigma, pi)
            if got != want:
                return CheckResult(
                    "generic-poset-oracle",
                    False,
                    f"mu({fmt(sigma)},{fmt(pi)}): {got} != {want}",
                )
    return CheckResult("generic-poset-oracle", True, f"n<={n_max}")


SUITE_NAMES = (
    "theorem1",
    "soundness",
    "cor-sum",
    "pairs",
    "base-annihilators",
    "non-annihilators",
    "pro-form",
    "eq-cancel",
    "planted-posets",
    "figure-cores",
    "poset-oracle",
)


def run_theorem_suites(
    n_max: int = 6, suites: Optional[Sequence[str]] = None, cache: Optional[MobiusCache] = None
) -> Report:
    """Run the named verification suites (all by default) up to length n_max."""
    if n_max < 1:
        raise PermError(f"n_max must be at least 1, got {n_max}")
    if n_max > 8:
        raise PermError("verification suites support n_max <= 8")
    wanted = set(suites) if suites else set(SUITE_NAMES)
    unknown = wanted - set(SUITE_NAMES)
    if unknown:
        raise PermError(f"unknown suites: {sorted(unknown)}")
    if cache is None:
        cache = MobiusCache()
    runners = {
        "theorem1": lambda: _suite_theorem1(n_max, cache),
        "soundness": lambda: _suite_soundness(n_max, cache),
        "cor-sum": lambda: _suite_cor_sum(cache),
        "pairs": lambda: _suite_pairs(cache),
        "base-annihilators": lambda: _suite_base_annihilators(cache),
        "non-annihilators": lambda: _suite_non_annihilators(cache),
        "pro-form": _suite_pro_form,
        "eq-cancel": lambda: _suite_eq_cancel(n_max, cache),
        "planted-posets": _suite_planted_posets,
        "figure-cores": _suite_figure_cores,
        "poset-oracle": _suite_poset_oracle,
    }
    results = [runners[name]() for name in SUITE_NAMES if name in wanted]
    return Report(results)
