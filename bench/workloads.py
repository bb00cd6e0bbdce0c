"""Inputs and pinned outputs of the benchmark workloads.

Each workload is a list of CLI commands (``Unit``) run through
``permobius.cli.main``.  Inputs come only from the workload seed; the
program receives nothing but the generated argument lists.  Why each
workload exists is in README.md next to this file.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Optional

Perm = tuple[int, ...]

#: The default workload seed.  At any other seed a run also re-derives every
#: ``pmu`` value by unpruned evaluation after the timed phase.
DEFAULT_SEED = 0

#: Worker processes for ``census-n8``; the target machine has 2 cores.
CENSUS_WORKERS = 2

#: The length-12 anchor of the ROADMAP baseline: mu = -73, interval 1,532.
ANCHOR: Perm = (3, 6, 1, 9, 4, 11, 7, 2, 12, 5, 10, 8)
ANCHOR_MU = -73

#: The base permutations are drawn once from this fixed generator seed:
#: one ``random.sample`` of 1..n per entry of BASE_LENGTHS, in order.
BASE_SEED = 181005449
BASE_LENGTHS = (10, 10, 10, 11, 11, 11, 12, 12, 12, 10)

#: mu(1, base) for those draws, pinned after pruned and ``--no-prune``
#: evaluation agreed.  mu(1, .) is invariant under the 8 symmetries, so the
#: pins hold for every symmetric image a workload seed picks.
BASE_MU = (0, 0, 0, 0, -1, 0, -3, -1, 0, 0)

CENSUS_N8_CSV = (
    "n,total,zeros,density,certified,a_n,b_n,s_n,simple,simple_nonzero\n"
    "8,40320,23958,0.5942,18410,16687,5242,12188,2926,2902\n"
)

VERIFY_N7_TEXT = (
    "PASS theorem1-exhaustive (n<=7)\n"
    "PASS rule-soundness-exhaustive (n<=7)\n"
    "PASS cor-sum-sampled (|alpha|+|beta|<=4, |tau|<=4)\n"
    "PASS pair-theorems-sampled (4 pairs, |tau|<=3)\n"
    "PASS base-annihilators-sampled (3 bases, |tau|<=3)\n"
    "PASS non-annihilator-separation\n"
    "PASS pro-form-identity (50 seeds per interval)\n"
    "PASS eq-cancel-theorem1 (n<=7)\n"
    "PASS fac-nd-planted (100 seeds)\n"
    "PASS figure-diamond-cores\n"
    "PASS generic-poset-oracle (n<=5)\n"
    "OK\n"
)


@dataclass(frozen=True)
class Unit:
    """One CLI command with its exact expected stdout and exit code 0.

    ``perm`` and ``mu`` are set for ``pmu`` commands so that the value can
    be cross-checked by unpruned evaluation after the timed phase.
    """

    argv: tuple[str, ...]
    expected: str
    perm: Optional[Perm] = None
    mu: Optional[int] = None


def symmetric_images(pi: Perm) -> list[Perm]:
    """The images of pi under the 8 symmetries (reverse, complement, inverse).

    Kept independent of ``permobius.apply_symmetry`` so that input
    generation does not run the code under test.
    """
    n = len(pi)
    inverse = [0] * n
    for position, value in enumerate(pi, start=1):
        inverse[value - 1] = position
    images = []
    for q in (pi, tuple(inverse)):
        for r in (q, q[::-1]):
            images.append(r)
            images.append(tuple(n + 1 - v for v in r))
    return images


def base_perms() -> list[Perm]:
    rng = random.Random(BASE_SEED)
    return [tuple(rng.sample(range(1, n + 1), n)) for n in BASE_LENGTHS]


def pmu_unit(pi: Perm, mu: int) -> Unit:
    return Unit(("pmu", " ".join(map(str, pi))), f"{mu}\n", perm=pi, mu=mu)


def pmu_long(seed: int) -> list[Unit]:
    """The anchor plus the base permutations of lengths 10-12.

    The seed picks one of the 8 symmetric images of each permutation and the
    order of the commands.  Every image has the same interval shape and mu,
    so the amount of work does not depend on the seed while the inputs do.
    """
    rng = random.Random(seed)
    units = [
        pmu_unit(rng.choice(symmetric_images(pi)), mu)
        for pi, mu in zip([ANCHOR, *base_perms()], [ANCHOR_MU, *BASE_MU])
    ]
    rng.shuffle(units)
    return units


def census_n8(seed: int, workers: int = CENSUS_WORKERS) -> list[Unit]:
    """All of S_8; the seed has nothing to choose."""
    argv = ("census", "--n", "8", "--workers", str(workers), "--format", "csv")
    return [Unit(argv, CENSUS_N8_CSV)]


def verify_n7(seed: int) -> list[Unit]:
    """All 11 suites up to length 7; the suites fix their own seeds."""
    return [Unit(("verify", "--nmax", "7"), VERIFY_N7_TEXT)]


WORKLOADS: dict[str, Callable[[int], list[Unit]]] = {
    "pmu-long": pmu_long,
    "census-n8": census_n8,
    "verify-n7": verify_n7,
}


def digest(units: list[Unit]) -> str:
    """Fingerprint of generated inputs, to check that a seed reproduces them."""
    return hashlib.sha256(repr(units).encode()).hexdigest()
