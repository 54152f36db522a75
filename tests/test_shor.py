import json

import pytest

from ionshor import shor
from ionshor.classical import mod_pow, precompute_multipliers
from ionshor.shor import ShorOutcome, factor, find_order
from ionshor.simulator import order_finding_distribution
from ionshor.templates import (
    TemplateParams, ctrl_mult_mod, ctrl_mult_mod_inv, modular_exponentiation,
)


def test_find_order_trivial_base():
    assert find_order(1, 7) == 1


def test_find_order_examples():
    assert find_order(3, 5, seed=0) == 4      # 3^4 = 81 = 1 mod 5
    assert find_order(4, 15, seed=0) == 2     # 16 = 1 mod 15
    assert find_order(2, 5, seed=1) == 4
    assert find_order(4, 5, seed=2) == 2


def test_find_order_rejects_non_coprime():
    with pytest.raises(ValueError, match="coprime"):
        find_order(6, 15)


BASE_6 = "base 6 is not coprime to 15"
MULTIPLIER_6 = ("multiplier 6 is not coprime to 15: the reversed template "
                "needs its modular inverse")


@pytest.mark.parametrize("call,message", [
    (lambda: find_order(6, 15), BASE_6),
    (lambda: order_finding_distribution(15, 6, 8), BASE_6),
    (lambda: precompute_multipliers(6, 15, 3), BASE_6),
    (lambda: modular_exponentiation(TemplateParams(N=15, y=6, n_x=3)), BASE_6),
    (lambda: ctrl_mult_mod(TemplateParams(N=15, m=6, n_x=1)), MULTIPLIER_6),
    (lambda: ctrl_mult_mod_inv(TemplateParams(N=15, m=6, n_x=1)), MULTIPLIER_6),
])
def test_non_coprime_messages(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_find_order_result_is_a_true_order():
    for y, N in [(2, 15), (7, 15), (2, 21), (5, 21)]:
        r = find_order(y, N, seed=3)
        assert r is not None and mod_pow(y, r, N) == 1
        assert all(mod_pow(y, k, N) != 1 for k in range(1, r))


def test_find_order_handles_non_divisor_orders():
    # order 6 does not divide any power of two, so recovery must go through
    # the continued-fraction convergents of an inexact estimate
    assert find_order(3, 7, seed=0) == 6
    assert find_order(5, 7, seed=1) == 6


def test_factor_even_shortcut():
    assert factor(8).factor == 2
    assert factor(6).factor == 2


def test_factor_perfect_power():
    assert factor(9).factor == 3
    assert factor(25).factor == 5
    assert factor(27).factor == 3


def test_factor_fifteen_and_twentyone():
    out15 = factor(15, seed=11)
    assert out15.factor in (3, 5)
    out21 = factor(21, seed=11)
    assert out21.factor in (3, 7)


def test_factor_prime_reports_no_factor(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a prime was sent to order finding")
    monkeypatch.setattr(shor, "order_finding_distribution", unreachable)
    for N in (3, 7, 29, 251):
        out = factor(N, seed=1, max_trials=5)
        assert out.factor is None
        assert out.trials == 0


@pytest.mark.parametrize("N", [4, 9, 7, 15])  # even, power, prime, composite
def test_factor_rejects_max_trials_below_one(N):
    for max_trials in (0, -3):
        with pytest.raises(ValueError, match="max_trials must be >= 1"):
            factor(N, seed=1, max_trials=max_trials)


def test_factor_two_has_no_nontrivial_factor():
    assert factor(2, seed=0, max_trials=2).factor is None


def test_factor_outcome_invariant():
    with pytest.raises(ValueError, match="nontrivial"):
        ShorOutcome(N=15, factor=7)
    with pytest.raises(ValueError, match="nontrivial"):
        ShorOutcome(N=15, factor=15)


def test_factor_divides_input():
    for N in (15, 21, 33, 35):
        for seed in range(5):
            out = factor(N, seed=seed)
            assert out.factor is not None
            assert 1 < out.factor < N and N % out.factor == 0


def test_seeded_runs_are_reproducible():
    a = factor(21, seed=123)
    b = factor(21, seed=123)
    assert a == b


def test_outcome_json_trace():
    out = factor(15, seed=4)
    payload = json.loads(out.to_json())
    assert payload["N"] == 15
    assert payload["factor"] in (3, 5)
    assert set(payload) == {"N", "factor", "base", "gcd_shortcut",
                            "measured_outcome", "candidates_tried", "order",
                            "trials"}


def test_rejects_bad_n():
    with pytest.raises(ValueError):
        factor(1)
    with pytest.raises(ValueError):
        find_order(2, 1)
