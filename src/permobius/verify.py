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
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

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
    LevelTables,
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
    """Raise CoreInvariantError unless the core matches its definition on [x, y].

    A diamond core (z, z', w), none of them x, needs [x, y) = [x, z] U [x, z']
    and [x, z] n [x, z'] = [x, w].  A narrow core z is checked as the diamond
    whose z, z' and w coincide, which leaves [x, y) = [x, z].
    """
    if core.kind == "narrow":
        z = zp = w = core.z
    elif core.kind == "diamond":
        z, zp, w = core.z, core.z_prime, core.w
    else:
        raise CoreInvariantError(f"unknown core kind {core.kind!r}")
    if x in (z, zp, w):
        raise CoreInvariantError("core elements must differ from the bottom")
    dz = set(P.interval(x, z))
    dzp = set(P.interval(x, zp))
    if set(P.interval(x, y)) - {y} != dz | dzp:
        raise CoreInvariantError("[x,y) != [x,z] U [x,z']")
    if dz & dzp != set(P.interval(x, w)):
        raise CoreInvariantError("[x,z] n [x,z'] != [x,w]")


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
    sigma: Perm, pi: Perm, seeds: Iterable[int], corrupt: bool = False
) -> Optional[int]:
    """Exact test of the inversion identity
    mu(s,p) = F(s) - sum_l mu(s,l) sum_{t>=l} F(t), for one random rational
    F per seed with F(pi) = 1; returns the first seed whose identity fails,
    or None.  ``corrupt`` sets F(pi) = 2 as a negative control.

    [sigma, pi] is built once for all seeds: the values mu(s, l) come from
    one pass of the interval engine, and the order they are checked against
    is ``interval_as_poset``'s, in which each l's up-set is listed once.
    """
    P = interval_as_poset(sigma, pi)
    interval = P.elements
    if not interval:
        raise PreconditionError("sigma must be contained in pi")
    mu = interval_mobius(sigma, pi)
    ups = [(lam, [t for t in interval if P.leq(lam, t)]) for lam in interval if lam != pi]
    for seed in seeds:
        rng = random.Random(seed)
        F = {t: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for t in interval}
        F[pi] = Fraction(2 if corrupt else 1)
        rhs = F[sigma]
        for lam, up in ups:
            rhs -= mu[lam] * sum(F[t] for t in up)
        if mu[pi] != rhs:
            return seed
    return None


def check_eq_cancel_thm1(pi: Perm, i: int, j: int, tables: LevelTables) -> bool:
    """Parity cancellation of the four wide embeddings around an up-adjacency
    at i and a down-adjacency at j, for every nonzero interior element.

    The sources are pi without i, without j and without both.  For every
    lam < pi with mu(1, lam) != 0, the signs of pi and of the sources above
    lam must cancel: (-1)^|pi| + sum of (-1)^|src| over src >= lam is 0.
    The test reads closures, the bitsets of the nonzero-valued permutations
    at or below a permutation, from ``tables``, which must reach pi
    (|pi| < tables.n, else PreconditionError).  The nonzero lam < pi are
    ``tables.below(pi)``; each of the 8 ways to lie above or not above each
    source is one AND with the sources' closures or their complements, and
    must hold no lam where the signed sum is nonzero.
    """
    ups, downs = adjacencies(pi)
    if i not in ups or j not in downs:
        raise PreconditionError(
            f"{fmt(pi)} has no up-adjacency at {i} / down-adjacency at {j}"
        )
    if len(pi) >= tables.n:
        raise PreconditionError(
            f"level tables for n={tables.n} hold no closure of length {len(pi)}"
        )
    below = tables.below(pi)
    sources = []
    for gone in ((i,), (j,), (i, j)):
        src = pattern_of(tuple(v for p, v in enumerate(pi, start=1) if p not in gone))
        sources.append(((-1) ** len(src), tables.closure(src)))
    for pattern in itertools.product((True, False), repeat=len(sources)):
        signed = (-1) ** len(pi)
        lams = below
        for (sign, closure), above in zip(sources, pattern):
            if above:
                signed += sign
                lams &= closure
            else:
                lams &= ~closure
        if signed and lams:
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
    extra_above = random.Random(seed ^ 0xA5).randint(1, 3)
    P, x, y, _core = planted_diamond_poset(seed, extra_above=extra_above)
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


def _inflations(parts: Iterable[Sequence[Perm]], tau_max: int) -> Iterator[Perm]:
    """tau inflated by each tuple of parts at every ordered choice of as many
    distinct positions, for every tau of length <= tau_max; the parts vary
    slowest, then tau, then the positions."""
    for ps in parts:
        for tau in _perms_up_to(tau_max):
            for positions in itertools.permutations(range(1, len(tau) + 1), len(ps)):
                yield inflate_at(tau, positions, ps)


#: (alpha + 1 + beta,) for every alpha, beta with |alpha| + |beta| <= 4.
_SUM_MIDDLES = tuple(
    (direct_sum(alpha, direct_sum(P1, beta)),)
    for la in range(1, 4)
    for lb in range(1, 5 - la)
    for alpha in itertools.permutations(range(1, la + 1))
    for beta in itertools.permutations(range(1, lb + 1))
)

# Each suite takes (n_max, tables), tables being the run's LevelTables, and
# returns the text of its first failure, or None if every check passed.


def _suite_theorem1(n_max: int, tables: LevelTables) -> Optional[str]:
    for pi in _perms_up_to(n_max):
        if has_opposing_adjacencies(pi) and principal_mobius(pi, cache=tables) != 0:
            return f"counterexample {fmt(pi)}"
    return None


def _suite_soundness(n_max: int, tables: LevelTables) -> Optional[str]:
    for pi in _perms_up_to(n_max):
        cert = certify_zero(pi)
        if cert is None:
            continue
        if not verify_certificate(pi, cert):
            return f"invalid witness for {fmt(pi)}"
        if principal_mobius(pi, cache=tables) != 0:
            return f"false certificate for {fmt(pi)}"
    return None


def _first_nonzero(hosts: Iterable[Perm], tables: LevelTables) -> Optional[str]:
    """The failure for the first host with mu(1, host) != 0, or None if
    every host is a zero."""
    for host in hosts:
        if principal_mobius(host, cache=tables) != 0:
            return f"mu(1,{fmt(host)}) != 0"
    return None


def _suite_cor_sum(n_max: int, tables: LevelTables) -> Optional[str]:
    return _first_nonzero(_inflations(_SUM_MIDDLES, 4), tables)


def _suite_pairs(n_max: int, tables: LevelTables) -> Optional[str]:
    # the four pairs beyond (12, 21)
    return _first_nonzero(_inflations(ANNIHILATOR_PAIRS[1:], 3), tables)


def _suite_base_annihilators(n_max: int, tables: LevelTables) -> Optional[str]:
    return _first_nonzero(_inflations([(b,) for b in BASE_ANNIHILATORS], 3), tables)


def _suite_non_annihilators(n_max: int, tables: LevelTables) -> Optional[str]:
    if principal_mobius(parse("214635"), cache=tables) != 0:
        return "mu(1,214635) != 0"
    host_base = parse("24153")
    for a_text in ("235614", "254613", "465213"):
        host = inflate_at(host_base, [2], [parse(a_text)])
        if principal_mobius(host, cache=tables) == 0:
            return f"mu(1, 24153_2[{a_text}]) == 0"
    return None


def _suite_pro_form(n_max: int, tables: LevelTables) -> Optional[str]:
    for interval in ("1 132", "1 2413", "12 2413", "1 21354", "21 35142"):
        sigma, pi = map(parse, interval.split())
        seed = check_pro_form(sigma, pi, range(50))
        if seed is not None:
            return f"sigma={fmt(sigma)} pi={fmt(pi)} seed={seed}"
    return None


def _suite_eq_cancel(n_max: int, tables: LevelTables) -> Optional[str]:
    for pi in _perms_up_to(min(n_max, tables.n - 1)):
        ups, downs = adjacencies(pi)
        if ups and downs and not check_eq_cancel_thm1(pi, ups[0], downs[0], tables):
            return f"failed at {fmt(pi)}"
    return None


def _suite_planted_posets(n_max: int, tables: LevelTables) -> Optional[str]:
    for seed in range(100):
        for kind, plant in (("narrow", planted_narrow_poset), ("diamond", planted_diamond_poset)):
            if not check_fac_nd(*plant(seed)):
                return f"{kind} seed={seed}"
        if not check_fac_del(*planted_deletion_case(seed)):
            return f"deletion seed={seed}"
    return None


def _suite_figure_cores(n_max: int, tables: LevelTables) -> Optional[str]:
    P, core, elements_ok = reconstruct_214653_diamond()
    if not elements_ok:
        return "214653 survivor set mismatch"
    if not check_fac_nd(P, P1, DIAMOND_214653[0], core):
        return "214653 core check failed"
    P, core = reconstruct_214635_diamond()
    if not check_fac_nd(P, P1, DIAMOND_214635[0], core):
        return "214635 core check failed"
    return None


def _suite_poset_oracle(n_max: int, tables: LevelTables) -> Optional[str]:
    for pi in _perms_up_to(5):
        # every [sigma, pi] is an interval of the one poset [1, pi]
        P = interval_as_poset(P1, pi)
        for sigma in down_set(pi):
            got = mobius(sigma, pi)
            want = mobius_poset(P, sigma, pi)
            if got != want:
                return f"mu({fmt(sigma)},{fmt(pi)}): {got} != {want}"
    return None


#: The suites in run order: each suite, its report name and the detail of
#: its PASS line.  A suite is called through the module attribute of its
#: name, so a wrapper installed on that attribute, such as the benchmark's
#: tracer, sees the call.
_SUITES = (
    (_suite_theorem1, "theorem1-exhaustive", "n<={n_max}"),
    (_suite_soundness, "rule-soundness-exhaustive", "n<={n_max}"),
    (_suite_cor_sum, "cor-sum-sampled", "|alpha|+|beta|<=4, |tau|<=4"),
    (_suite_pairs, "pair-theorems-sampled", "4 pairs, |tau|<=3"),
    (_suite_base_annihilators, "base-annihilators-sampled", "3 bases, |tau|<=3"),
    (_suite_non_annihilators, "non-annihilator-separation", ""),
    (_suite_pro_form, "pro-form-identity", "50 seeds per interval"),
    (_suite_eq_cancel, "eq-cancel-theorem1", "n<={eq_cancel_max}"),
    (_suite_planted_posets, "fac-nd-planted", "100 seeds"),
    (_suite_figure_cores, "figure-diamond-cores", ""),
    (_suite_poset_oracle, "generic-poset-oracle", "n<=5"),
)

SUITE_NAMES = tuple(
    suite.__name__.removeprefix("_suite_").replace("_", "-") for suite, *_ in _SUITES
)


def run_theorem_suites(n_max: int = 6, suites: Optional[Sequence[str]] = None) -> Report:
    """Run the named verification suites (all by default) up to length n_max.

    Each suite returns its first failure or None, and this loop turns that
    into the suite's one ``CheckResult``: FAIL with the failure as its
    detail, or PASS with the detail ``_SUITES`` gives it.  One
    ``LevelTables(8)`` per run serves every suite as a full principal cache:
    values up to length 8, which covers the exhaustive suites and the
    cor-sum and base-annihilator hosts, are read off the tables, and longer
    hosts are memoized in them.  The eq-cancel suite reads their closures,
    which reach length 7.  A subset of suites that reads neither, such as
    pro-form alone, still builds the tables.
    """
    if n_max < 1:
        raise PermError(f"n_max must be at least 1, got {n_max}")
    if n_max > 8:
        raise PermError("verification suites support n_max <= 8")
    wanted = set(suites) if suites else set(SUITE_NAMES)
    unknown = wanted - set(SUITE_NAMES)
    if unknown:
        raise PermError(f"unknown suites: {sorted(unknown)}")
    tables = LevelTables(8)
    fields = {"n_max": n_max, "eq_cancel_max": min(n_max, tables.n - 1)}
    results = []
    for (suite, report, passed), name in zip(_SUITES, SUITE_NAMES):
        if name not in wanted:
            continue
        failure = globals()[suite.__name__](n_max, tables)
        detail = passed.format(**fields) if failure is None else failure
        results.append(CheckResult(report, failure is None, detail))
    return Report(results)
