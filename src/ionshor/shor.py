"""Classical factorization loop around simulated order finding.

Candidate orders always pass through mod_pow verification, so a wrong
continued-fraction denominator can never produce a wrong factor; small
multiples of each candidate are tested as well, which recovers the order
when the measurement lands on a reduced fraction s/r' with r' | r.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .classical import (
    gcd, is_perfect_power, is_prime, mod_pow, order_candidates,
)
from .simulator import order_finding_distribution
from .templates import default_n_x

__all__ = ["MAX_TRIALS", "SAMPLES_PER_BASE", "ShorOutcome", "find_order", "factor"]

MAX_TRIALS = 20        # random bases factor tries before giving up
SAMPLES_PER_BASE = 10  # measurement samples drawn for one base's order


@dataclass(frozen=True)
class ShorOutcome:
    """Trace of one factorization run."""

    N: int
    factor: int | None
    base: int | None = None
    gcd_shortcut: bool = False
    measured_outcome: int | None = None
    candidates_tried: tuple[int, ...] = ()
    order: int | None = None
    trials: int = 0

    def __post_init__(self) -> None:
        if self.factor is not None:
            if not 1 < self.factor < self.N or self.N % self.factor:
                raise ValueError(f"{self.factor} is not a nontrivial factor "
                                 f"of {self.N}")

    def to_json(self) -> str:
        payload = asdict(self)
        payload["candidates_tried"] = list(self.candidates_tried)
        return json.dumps(payload)


def _verified_order(y: int, N: int, candidates: list[int]) -> int | None:
    """Smallest multiple of a candidate denominator with y^r = 1 mod N."""
    if not candidates:
        return None
    bound = 2 * max(candidates)
    trial_orders = sorted({k * d for d in candidates
                           for k in range(1, bound // d + 1)})
    for r in trial_orders:
        if mod_pow(y, r, N) == 1:
            return r
    return None


def _sample_order(y: int, N: int, n_x: int, rng: np.random.Generator):
    """Returns (order, winning outcome, all candidate denominators seen)."""
    dist = order_finding_distribution(N, y, n_x)
    seen: list[int] = []
    for _ in range(SAMPLES_PER_BASE):
        outcome = int(dist.sample(rng))
        candidates = order_candidates(outcome, n_x, N)
        seen += [c for c in candidates if c not in seen]
        r = _verified_order(y, N, candidates)
        if r is not None:
            return r, outcome, seen
    return None, None, seen


def find_order(y: int, N: int, n_x: int | None = None,
               seed: int | None = None) -> int | None:
    """Least r with y^r = 1 mod N, recovered from seeded measurement samples."""
    if N < 2:
        raise ValueError(f"modulus N must be >= 2, got {N}")
    if y % N == 1:
        return 1
    n_x = default_n_x(N.bit_length(), n_x)
    r, _, _ = _sample_order(y, N, n_x, np.random.default_rng(seed))
    return r


def factor(N: int, seed: int | None = None,
           max_trials: int = MAX_TRIALS) -> ShorOutcome:
    """One factorization attempt: shortcuts, then order-finding trials.

    Even N, perfect powers and primes (no factor, no trial) are dispatched
    classically.  Each trial picks a random base x; a shared divisor ends
    the run immediately, otherwise the simulated order r of x is used as in
    the period-finding reduction
    (r even and x^{r/2} != -1 gives a factor through gcd(x^{r/2} +- 1, N)).
    Runs with the same seed are bit-reproducible.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if max_trials < 1:
        raise ValueError(f"max_trials must be >= 1, got {max_trials}")
    if N % 2 == 0 and N > 2:
        return ShorOutcome(N=N, factor=2)
    power = is_perfect_power(N) if N >= 4 else None
    if power is not None:
        return ShorOutcome(N=N, factor=power[0])
    if is_prime(N):
        return ShorOutcome(N=N, factor=None)
    rng = np.random.default_rng(seed)
    n_x = default_n_x(N.bit_length())
    last: dict = {}
    for trial in range(1, max_trials + 1):
        x = int(rng.integers(2, N))
        g = gcd(x, N)
        if g > 1:
            return ShorOutcome(N=N, factor=g, base=x, gcd_shortcut=True,
                               trials=trial)
        r, outcome, seen = _sample_order(x, N, n_x, rng)
        last = {"base": x, "measured_outcome": outcome,
                "candidates_tried": tuple(seen), "order": r}
        if r is None or r % 2:
            continue
        half = mod_pow(x, r // 2, N)
        if half == N - 1:
            continue
        for g in (gcd(half - 1, N) if half > 1 else 1, gcd(half + 1, N)):
            if 1 < g < N:
                return ShorOutcome(N=N, factor=g, base=x,
                                   measured_outcome=outcome,
                                   candidates_tried=tuple(seen),
                                   order=r, trials=trial)
    return ShorOutcome(N=N, factor=None, trials=max_trials, **last)
