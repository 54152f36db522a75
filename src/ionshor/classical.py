"""Number-theoretic helpers: Euclid, Bezout, modular inverse, order recovery.

All inputs are plain Python ints.  Register sizes keep the interesting range
small (n <= ~16 bits), so no big-integer tuning is attempted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BezoutSolution", "gcd", "diophantine_equation",
    "modular_multiplicative_inverse", "mod_pow", "precompute_multipliers",
    "order_candidates", "is_perfect_power", "is_prime",
]

# The first twelve primes as Miller-Rabin bases decide primality exactly for
# every N below 3.18e23 (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318_665_857_834_031_151_167_461


@dataclass(frozen=True, slots=True)
class BezoutSolution:
    """Witness (x, y, g) with a*x + b*y = g = gcd(a, b)."""

    x: int
    y: int
    g: int


def gcd(a: int, b: int) -> int:
    """Greatest common divisor; (0, 0) is rejected."""
    if a < 0 or b < 0:
        raise ValueError("gcd expects non-negative integers")
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    return math.gcd(a, b)


def diophantine_equation(a: int, b: int) -> BezoutSolution:
    """Solve a*x + b*y = gcd(a, b) by the extended Euclidean algorithm."""
    if a < 0 or b < 0:
        raise ValueError("diophantine_equation expects non-negative integers")
    if a == 0 and b == 0:
        raise ValueError("diophantine_equation(0, 0) is undefined")
    x0, y0, r0 = 1, 0, a
    x1, y1, r1 = 0, 1, b
    while r1:
        q = r0 // r1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
        r0, r1 = r1, r0 - q * r1
    return BezoutSolution(x0, y0, r0)


def modular_multiplicative_inverse(a: int, N: int) -> int:
    """Inverse of a modulo N, in [1, N); requires gcd(a, N) = 1."""
    if N < 2:
        raise ValueError(f"modulus must be >= 2, got {N}")
    g = math.gcd(a, N)
    if g != 1:
        raise ValueError(f"{a} has no inverse modulo {N}: gcd is {g}")
    return pow(a, -1, N)


def mod_pow(y: int, x: int, N: int) -> int:
    """y**x mod N."""
    if N < 1:
        raise ValueError(f"modulus must be >= 1, got {N}")
    if x < 0:
        raise ValueError(f"exponent must be >= 0, got {x}")
    return pow(y, x, N)


def precompute_multipliers(y: int, N: int, n_x: int) -> list[int]:
    """Controlled-multiplication constants [y^(2^i) mod N for i < n_x]."""
    if gcd(y % N, N) != 1:
        raise ValueError(f"base {y} is not coprime to {N}")
    return [pow(y, 1 << i, N) for i in range(n_x)]


def order_candidates(outcome: int, n_x: int, N: int) -> list[int]:
    """Candidate orders from the measured phase estimate outcome / 2^n_x.

    Returns the continued-fraction convergent denominators of
    outcome / 2^n_x that are below N, in increasing order.  Outcome 0
    carries no period information and yields the empty list.
    """
    M = 1 << n_x
    if not 0 <= outcome < M:
        raise ValueError(f"outcome {outcome} out of range for {n_x} bits")
    if outcome == 0:
        return []
    # Continued-fraction expansion of outcome / M, accumulating convergents.
    num, den = outcome, M
    h_prev, h = 1, 0   # denominators of successive convergents
    candidates = []
    while den:
        q, rem = divmod(num, den)
        h_prev, h = h, q * h + h_prev
        num, den = den, rem
        if 0 < h < N and h not in candidates:
            candidates.append(h)
    return candidates


def _integer_root(N: int, b: int) -> int:
    """floor(N ** (1/b)) for N >= 1, by Newton's method on integers."""
    x = 1 << -(-N.bit_length() // b)  # 2**ceil(bits/b) > N ** (1/b)
    while True:
        nxt = ((b - 1) * x + N // x ** (b - 1)) // b
        if nxt >= x:
            return x
        x = nxt


def is_perfect_power(N: int) -> tuple[int, int] | None:
    """Smallest-exponent representation (a, b) with a**b = N, b >= 2, if any."""
    if N < 2:
        raise ValueError(f"perfect-power test expects N >= 2, got {N}")
    for b in range(2, N.bit_length() + 1):
        a = _integer_root(N, b)
        if a >= 2 and a ** b == N:
            return a, b
    return None


def is_prime(N: int) -> bool:
    """Deterministic Miller-Rabin test, exact for every N below 3.18e23.

    Larger N are rejected rather than answered probabilistically.
    """
    if N >= _MR_LIMIT:
        raise ValueError(f"primality test is exact only below {_MR_LIMIT}, "
                         f"got N = {N}")
    if N < 2:
        return False
    for p in _MR_BASES:
        if N % p == 0:
            return N == p
    d, s = N - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, N)
        if x in (1, N - 1):
            continue
        for _ in range(s - 1):
            x = x * x % N
            if x == N - 1:
                break
        else:
            return False
    return True
