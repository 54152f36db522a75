import math

import pytest
from hypothesis import given, settings, strategies as st

from ionshor.classical import (
    BezoutSolution, diophantine_equation, gcd, is_perfect_power, is_prime,
    mod_pow, modular_multiplicative_inverse, order_candidates, precompute_multipliers,
)


def brute_gcd(a: int, b: int) -> int:
    return max(d for d in range(1, max(a, b) + 1) if a % d == 0 and b % d == 0)


def test_gcd_examples():
    assert gcd(6, 4) == 2
    assert gcd(7, 0) == 7
    assert gcd(0, 9) == 9
    assert gcd(35, 21) == brute_gcd(35, 21) == 7


def test_gcd_rejects_double_zero():
    with pytest.raises(ValueError):
        gcd(0, 0)


@given(st.integers(0, 10 ** 9), st.integers(0, 10 ** 9))
def test_gcd_matches_stdlib(a, b):
    if a == 0 and b == 0:
        return
    assert gcd(a, b) == math.gcd(a, b)


def test_diophantine_examples():
    assert diophantine_equation(5, 0) == BezoutSolution(1, 0, 5)
    for a, b in [(3, 5), (6, 4)]:
        sol = diophantine_equation(a, b)
        assert a * sol.x + b * sol.y == sol.g == math.gcd(a, b)


def test_diophantine_rejects_double_zero():
    with pytest.raises(ValueError):
        diophantine_equation(0, 0)


@given(st.integers(0, 1000), st.integers(0, 1000))
def test_diophantine_identity(a, b):
    if a == 0 and b == 0:
        return
    sol = diophantine_equation(a, b)
    assert a * sol.x + b * sol.y == sol.g == math.gcd(a, b)


def test_inverse_examples():
    assert modular_multiplicative_inverse(1, 11) == 1
    assert modular_multiplicative_inverse(3, 5) == next(
        v for v in range(1, 5) if 3 * v % 5 == 1) == 2
    assert modular_multiplicative_inverse(7, 15) == next(
        v for v in range(1, 15) if 7 * v % 15 == 1) == 13


def test_inverse_rejects_non_coprime():
    with pytest.raises(ValueError, match="no inverse"):
        modular_multiplicative_inverse(6, 9)
    with pytest.raises(ValueError, match="modulus"):
        modular_multiplicative_inverse(1, 1)


@given(st.integers(1, 1000), st.integers(2, 1000))
def test_inverse_property(a, N):
    if math.gcd(a, N) != 1:
        return
    assert a * modular_multiplicative_inverse(a, N) % N == 1
    assert 1 <= modular_multiplicative_inverse(a, N) < N


def test_mod_pow_examples():
    assert mod_pow(3, 4, 5) == 1
    assert mod_pow(9, 0, 7) == 1
    assert mod_pow(2, 10, 1000) == 24


def test_mod_pow_matches_naive_up_to_64():
    for N in range(1, 65):
        for y in range(65):
            acc = 1 % N
            for x in range(65):
                assert mod_pow(y, x, N) == acc
                acc = acc * y % N


def test_precompute_multipliers():
    assert precompute_multipliers(3, 5, 4) == [3, 4, 1, 1]  # 3, 9, 81, ... mod 5
    assert precompute_multipliers(1, 9, 5) == [1] * 5
    assert precompute_multipliers(2, 5, 3) == [2, 4, 1]
    with pytest.raises(ValueError, match="coprime"):
        precompute_multipliers(6, 9, 3)


def test_order_candidates_examples():
    assert order_candidates(0, 8, 5) == []
    assert 4 in order_candidates(64, 8, 5)    # 64/256 = 1/4
    assert 4 in order_candidates(192, 8, 5)   # 192/256 = 3/4
    with pytest.raises(ValueError):
        order_candidates(256, 8, 5)


def test_order_candidates_increasing_and_bounded():
    for outcome in range(1, 256):
        cands = order_candidates(outcome, 8, 7)
        assert cands == sorted(cands)
        assert all(0 < c < 7 for c in cands)


def test_order_candidates_recover_exact_orders():
    # When r divides 2^n_x and gcd(s, r) = 1, the outcome s*2^n_x/r must
    # surface r itself among the candidates.
    n_x, N = 8, 30
    for r in range(1, N):
        if 256 % r:
            continue
        for s in range(1, r):
            if math.gcd(s, r) != 1:
                continue
            assert r in order_candidates(s * 256 // r, n_x, N)


def brute_perfect_power(N: int):
    for b in range(2, N.bit_length() + 1):
        for a in range(2, N):
            if a ** b == N:
                return a, b
            if a ** b > N:
                break
    return None


def test_is_perfect_power_examples():
    assert is_perfect_power(8) == (2, 3)
    assert is_perfect_power(15) is brute_perfect_power(15) is None
    assert is_perfect_power(49) == (7, 2)


def test_is_perfect_power_small_range():
    for N in range(2, 1000):
        got = is_perfect_power(N)
        expected = brute_perfect_power(N)
        if expected is None:
            assert got is None
        else:
            a, b = got
            assert a ** b == N and b >= 2


@settings(max_examples=50)
@given(st.integers(2, 40), st.integers(2, 12))
def test_is_perfect_power_recognizes_powers(a, b):
    base, exp = is_perfect_power(a ** b)
    assert base ** exp == a ** b


def test_is_perfect_power_exact_beyond_float_precision():
    # a float cube root of a 180-bit N is off by far more than 1, and N**0.5
    # overflows a float once N has more than 1024 bits
    for a in (2 ** 40 + 15, 2 ** 60 + 33):
        assert is_perfect_power(a ** 3) == (a, 3)
        assert is_perfect_power(a ** 3 - 1) is None
        assert is_perfect_power(a ** 3 + 1) is None
    assert is_perfect_power(7 ** 401) == (7, 401)
    assert is_perfect_power(3 ** 700) == (3 ** 350, 2)


def brute_is_prime(N: int) -> bool:
    return N >= 2 and all(N % p for p in range(2, math.isqrt(N) + 1))


def test_is_prime_matches_trial_division():
    for N in range(10 ** 4):
        assert is_prime(N) == brute_is_prime(N), N


def test_is_prime_strong_pseudoprimes_and_large_primes():
    # strong pseudoprimes to every prime base up to 17 and up to 23
    assert not is_prime(10670053 * 32010157)
    assert not is_prime(149491 * 747451 * 34233211)
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 31 - 1)
    assert not is_prime((2 ** 19 - 1) * (2 ** 31 - 1))


def test_is_prime_rejects_numbers_beyond_its_exact_range():
    with pytest.raises(ValueError, match="exact only below"):
        is_prime(2 ** 80)
