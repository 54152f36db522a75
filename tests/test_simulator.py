import gc
import json
import math
import weakref

import numpy as np
import pytest

from ionshor import simulator
from ionshor.circuit import (
    CNOT, FREDKIN, H, R, SWAP, TOFFOLI, X, Circuit, GateKind, RegisterLayout,
)
from ionshor.simulator import (
    Distribution, basis_state, circuit_unitary, measure_probs,
    order_finding_distribution, simulate_dense, simulate_reversible,
    simulate_reversible_batch,
)
from ionshor.templates import (
    TemplateParams, adder, modular_exponentiation, qft_inv,
)
from conftest import grouped_fft_probs, oracle_unitary, random_circuit


def test_empty_circuit_keeps_state():
    state = simulate_dense(Circuit(3), initial=5)
    assert np.abs(state - basis_state(3, 5)).max() == 0


def test_hadamard_on_zero():
    state = simulate_dense(Circuit(1, [H(0)]))
    assert np.abs(state - np.array([1, 1]) / math.sqrt(2)).max() < 1e-12


def test_dense_matches_matrix_product_oracle(rng):
    for _ in range(30):
        c = random_circuit(rng, 6, 12)
        start = int(rng.integers(64))
        expected = oracle_unitary(c)[:, start]
        got = simulate_dense(c, initial=start)
        assert np.abs(got - expected).max() < 1e-10


def test_dense_norm_preserved(rng):
    for _ in range(20):
        c = random_circuit(rng, 5, 20)
        state = simulate_dense(c)
        assert abs(np.linalg.norm(state) - 1) < 1e-9


def test_dense_cap_rejects_wide_circuits():
    with pytest.raises(ValueError, match="reversible"):
        simulate_dense(Circuit(15))
    # the cap is a knob, not a hard limit
    state = simulate_dense(Circuit(15), cap=15)
    assert state[0] == 1


def test_dense_validates_initial_state():
    with pytest.raises(ValueError, match="amplitudes"):
        simulate_dense(Circuit(2), initial=np.ones(3) / math.sqrt(3))
    with pytest.raises(ValueError, match="normalized"):
        simulate_dense(Circuit(2), initial=np.ones(4))


def test_reversible_single_x():
    assert simulate_reversible(Circuit(1, [X(0)]), 0) == 1


def test_reversible_adder_example():
    layout = RegisterLayout(0, 3)
    out = simulate_reversible(adder(layout), layout.encode(a=3, b=2))
    assert layout.decode(out)["b"] == 5


def test_reversible_rejects_non_classical_gates():
    with pytest.raises(ValueError, match="gate 1 is H"):
        simulate_reversible(Circuit(2, [X(0), H(1)]), 0)
    with pytest.raises(ValueError):
        simulate_reversible_batch(Circuit(1, [R(0, 1.0, 0.0)]), [0])


def test_reversible_agrees_with_dense(rng):
    for _ in range(40):
        width = int(rng.integers(2, 9))
        c = random_circuit(rng, width, 15, classical_only=True)
        for basis in range(1 << width):
            out = simulate_reversible(c, basis)
            state = simulate_dense(c, initial=basis)
            assert abs(state[out]) > 1 - 1e-9


def test_batch_matches_single_input_engine(rng):
    for _ in range(20):
        width = int(rng.integers(2, 12))
        c = random_circuit(rng, width, 25, classical_only=True)
        inputs = rng.integers(0, 1 << width, size=64, dtype=np.uint64)
        batch = simulate_reversible_batch(c, inputs)
        singles = [simulate_reversible(c, int(b)) for b in inputs]
        assert list(map(int, batch)) == singles


def test_engine_changes_only_the_lanes_in_its_mask(rng):
    # every gate kind must leave the lanes outside the mask as they were
    # and act on the lanes inside as an unmasked run does
    lanes, full = 200, (1 << 200) - 1
    for _ in range(20):
        c = random_circuit(rng, 6, 40, classical_only=True)
        assert {g.kind for g in c.gates} == simulator.CLASSICAL_KINDS
        before = [int(rng.integers(1 << 62)) << 138 | int(rng.integers(1 << 62))
                  for _ in range(c.width)]
        mask = int(rng.integers(1 << 62)) << lanes - 62 | int(rng.integers(1 << 62))
        masked, unmasked = before.copy(), before.copy()
        simulator._run(c.gates, masked, mask, partial=True)
        simulator._run(c.gates, unmasked, full)
        assert masked == [u & mask | b & ~mask for u, b in zip(unmasked, before)]


def test_batch_accepts_64_wires():
    c = Circuit(64, [X(63), CNOT(63, 2)])
    assert list(map(int, simulate_reversible_batch(c, [0]))) == [(1 << 63) | 4]


def test_batch_rejects_more_than_64_wires():
    # uint64 basis words would silently drop wires 64 and up
    with pytest.raises(ValueError, match="width 70"):
        simulate_reversible_batch(Circuit(70, [X(66), CNOT(66, 2)]), [0])


@pytest.mark.parametrize("N,y,n_x", [(257, 2, 18), (511, 2, 18)])
def test_order_finding_distribution_runs_wide_circuits(N, y, n_x):
    # 65 wires, more than a uint64 basis index holds: each exponent
    # stage is checked on its own 2N inputs, so no such index is formed
    assert RegisterLayout(n_x, N.bit_length()).width > 64
    dist = order_finding_distribution(N, y, n_x)
    assert_matches_oracle(dense(dist, n_x), [pow(y, x, N) for x in range(1 << n_x)])


def _assert_batch_matches_singles(circuit, inputs):
    batch = simulate_reversible_batch(circuit, np.asarray(inputs, dtype=np.uint64))
    assert batch.dtype == np.uint64 and batch.shape == (len(inputs),)
    assert [int(b) for b in batch] == \
        [simulate_reversible(circuit, int(b)) for b in inputs]


@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 130, 1000])
def test_batch_input_counts_around_word_boundaries(rng, count):
    # X gates set bits on every plane, and none may reach past the last
    # input; each circuit holds all five classical kinds
    for _ in range(5):
        c = random_circuit(rng, 9, 40, classical_only=True)
        c = Circuit(9, [X(w) for w in range(9)] + list(c.gates)
                    + [CNOT(0, 1), SWAP(2, 3), TOFFOLI(4, 5, 6), FREDKIN(7, 8, 0)])
        assert {g.kind for g in c.gates} == simulator.CLASSICAL_KINDS
        _assert_batch_matches_singles(c, rng.integers(0, 1 << 9, size=count))


def test_batch_x_sets_exactly_one_bit_per_input():
    out = simulate_reversible_batch(Circuit(1, [X(0)]), np.zeros(65, dtype=np.uint64))
    assert out.tolist() == [1] * 65


def test_batch_duplicate_inputs(rng):
    c = random_circuit(rng, 7, 30, classical_only=True)
    inputs = np.repeat(rng.integers(0, 1 << 7, size=20), 7)
    rng.shuffle(inputs)
    _assert_batch_matches_singles(c, inputs)


def test_batch_swap_and_fredkin_heavy_circuits(rng):
    for _ in range(20):
        width = int(rng.integers(3, 10))
        gates = []
        for _ in range(60):
            a, b, c = (int(w) for w in rng.choice(width, size=3, replace=False))
            roll = rng.random()
            if roll < 0.4:
                gates.append(SWAP(a, b))
            elif roll < 0.8:
                gates.append(FREDKIN(a, b, c))
            elif roll < 0.9:
                gates.append(TOFFOLI(a, b, c))
            else:
                gates.append(X(a))
        _assert_batch_matches_singles(
            Circuit(width, gates), rng.integers(0, 1 << width, size=130))


def test_batch_64_wires_with_bit_63_set(rng):
    c = random_circuit(rng, 64, 200, classical_only=True)
    c = Circuit(64, list(c.gates) + [CNOT(63, 0), SWAP(63, 5), FREDKIN(5, 63, 1)])
    inputs = rng.integers(0, 1 << 63, size=100, dtype=np.uint64) | np.uint64(1 << 63)
    _assert_batch_matches_singles(c, list(inputs) + [2 ** 64 - 1, 1 << 63])


def test_batch_rejects_non_classical_gate_before_any_work():
    class Untouchable:
        def __array__(self, *args, **kwargs):
            raise AssertionError("inputs read before the gate check")

    with pytest.raises(ValueError, match="gate 2 is H"):
        simulate_reversible_batch(Circuit(3, [X(0), CNOT(0, 1), H(2)]), Untouchable())


@pytest.mark.parametrize("inputs,message", [
    ([1.5], "dtype float64"), (np.array([1.0]), "dtype float64"),
    ([1.7, 2.2], "dtype float64"), ([2 ** 64], "dtype object"),
    ([-1], "non-negative, got -1"),
])
def test_batch_rejects_inputs_that_are_not_basis_indices(inputs, message):
    with pytest.raises(ValueError, match=f"basis indices must be .*{message}"):
        simulate_reversible_batch(Circuit(2, [X(0)]), inputs)


EXPONENT_STAGES = simulator.templates._exponent_stages


def _add_fault(monkeypatch, at_stage: int, make_gate) -> list:
    """Patch the stage generator so that exponent stage ``at_stage`` ends with
    an extra block holding ``make_gate(layout, control)``.  Returns a list
    that receives the position of each such gate in its flattened stage, and
    the gate itself."""
    added = []

    def faulty(layout, y, N):
        for i, blocks in enumerate(EXPONENT_STAGES(layout, y, N)):
            if i == at_stage:
                added.append((sum(map(len, blocks)), make_gate(layout, layout.x[i])))
                blocks = blocks + [(added[-1][1],)]
            yield blocks

    monkeypatch.setattr(simulator.templates, "_exponent_stages", faulty)
    return added


def _run_refusing(monkeypatch, added: list) -> None:
    """Make the engine fail if it is handed any gate in ``added``."""
    run = simulator._run

    def guarded(gates, *args):
        assert not any(g is bad for _, bad in added for g in gates), \
            "engine ran a faulty stage"
        run(gates, *args)
    monkeypatch.setattr(simulator, "_run", guarded)


def test_order_finding_distribution_rejects_non_classical_gate_before_run(
        monkeypatch):
    for stage in (0, 6):
        added = _add_fault(monkeypatch, stage, lambda layout, control: H(control))
        _run_refusing(monkeypatch, added)
        with pytest.raises(ValueError, match=r"gate \d+ is H") as info:
            order_finding_distribution(11, 2, 7)
        assert f"gate {added[0][0]} is H" in str(info.value)


def test_order_finding_distribution_names_first_copy_of_a_repeated_fault(
        monkeypatch):
    # the check visits each distinct gate object once; a faulty object that
    # occurs twice in one stage must still be named at its first position
    added = []

    def faulty(layout, y, N):
        for i, blocks in enumerate(EXPONENT_STAGES(layout, y, N)):
            if i == 4:
                bad, middle = H(layout.x[i]), len(blocks) // 2
                blocks = blocks[:middle] + [(bad,)] + blocks[middle:] + [(bad,)]
                added.extend([(sum(map(len, blocks[:middle])), bad),
                              (sum(map(len, blocks)) - 1, bad)])
            yield blocks

    monkeypatch.setattr(simulator.templates, "_exponent_stages", faulty)
    _run_refusing(monkeypatch, added)
    with pytest.raises(ValueError, match=r"gate \d+ is H") as info:
        order_finding_distribution(11, 2, 7)
    assert str(info.value).startswith(f"gate {added[0][0]} is H")
    assert added[0][0] < added[1][0]


@pytest.mark.parametrize("stage,wire", [(0, 3), (3, 0), (6, 5), (2, 29)])
def test_order_finding_distribution_rejects_stray_wires_before_run(
        monkeypatch, stage, wire):
    # a stage may act on no exponent wire but its own control, nor beyond
    # the layout's 29 wires; both are caught from the gate list alone
    assert RegisterLayout(7, 4).width == 29
    added = _add_fault(monkeypatch, stage, lambda layout, control: CNOT(control, wire))
    _run_refusing(monkeypatch, added)
    with pytest.raises(ValueError, match=f"touches wire {wire};") as info:
        order_finding_distribution(11, 2, 7)
    assert f"gate {added[0][0]} of exponent stage {stage} " in str(info.value)


def test_order_finding_distribution_caps_n_x_before_building(monkeypatch):
    def unreachable(*args):
        raise AssertionError("stages built before the n_x check")
    monkeypatch.setattr(simulator.templates, "_exponent_stages", unreachable)
    # 2**40 outcomes do not fit memory
    with pytest.raises(ValueError, match=r"n_x = 40 exceeds .* cap of 20"):
        order_finding_distribution(15, 7, 40)
    with pytest.raises(ValueError, match=r"n_x = 21"):
        order_finding_distribution(15, 7, simulator.NX_CAP + 1)


def test_order_finding_distribution_caps_modulus_before_building(monkeypatch):
    def unreachable(*args):
        raise AssertionError("stages built before the N check")
    monkeypatch.setattr(simulator.templates, "_exponent_stages", unreachable)
    # each stage is checked on 2N inputs
    with pytest.raises(ValueError, match=r"N = 65537 exceeds .* cap of 65535"):
        order_finding_distribution(simulator.N_CAP + 1, 3, 4)
    with pytest.raises(ValueError, match=rf"N = {2 ** 100 + 21} exceeds"):
        order_finding_distribution(2 ** 100 + 21, 3, 4)


@pytest.mark.parametrize("fault", ["ancilla", "z", "x", "N"])
def test_order_finding_distribution_rejects_a_faulty_circuit(monkeypatch, fault):
    def fault_gate(layout, control):
        return {"ancilla": CNOT(control, layout.b[-1]),
                "z": CNOT(control, layout.z[0]),
                "x": CNOT(layout.z[0], control),
                "N": CNOT(control, layout.N[1])}[fault]

    for stage in (0, 1, 6):
        _add_fault(monkeypatch, stage, fault_gate)
        with pytest.raises(RuntimeError, match=f"stage {stage} .* disagrees"):
            order_finding_distribution(11, 2, 7)


def test_order_finding_distribution_checks_the_last_lane(monkeypatch):
    # y = 32 = -1 mod 33, so stage 3 multiplies by 1 and leaves z as it
    # was: the fault fires only on input (c, z) = (1, 32), lane 65 of 66
    _add_fault(monkeypatch, 3,
               lambda layout, control: TOFFOLI(control, layout.z[5], layout.t))
    with pytest.raises(RuntimeError, match="exponent stage 3 .* disagrees"):
        order_finding_distribution(33, 32, 14)


# 2N = 22 lanes per stage of (11, 2, 7): budgets for groups of 1, 2, 3 and
# all 7 stages; a budget below 2N still runs one stage at a time
LOCKSTEP_BUDGETS = [1, 22, 44, 66 + 21, simulator._LOCKSTEP_LANES]


def test_lockstep_group_size_does_not_change_the_distribution(monkeypatch):
    expected = order_finding_distribution(11, 2, 7)
    for lanes in LOCKSTEP_BUDGETS:
        monkeypatch.setattr(simulator, "_LOCKSTEP_LANES", lanes)
        assert order_finding_distribution(11, 2, 7) == expected


@pytest.mark.parametrize("stages", [(0,), (3,), (4,), (5,), (6,), (5, 1), (6, 4)])
@pytest.mark.parametrize("fault", ["ancilla", "z", "N", "swap"])
def test_lockstep_group_size_does_not_change_the_faulty_stage_named(
        monkeypatch, stages, fault):
    # with groups of 3 the stages run as (0, 1, 2), (3, 4, 5), (6,): stages
    # 3, 4 and 5 are the first, a middle and the last of a group, and a
    # fault in two stages is named at the lower one
    def fault_gate(layout, control):
        return {"ancilla": CNOT(control, layout.b[-1]),
                "z": CNOT(control, layout.z[0]),
                "N": CNOT(control, layout.N[1]),
                "swap": SWAP(layout.z[0], layout.t)}[fault]

    def faulty(layout, y, N):
        for i, blocks in enumerate(EXPONENT_STAGES(layout, y, N)):
            yield blocks + [(fault_gate(layout, layout.x[i]),)] if i in stages else blocks

    monkeypatch.setattr(simulator.templates, "_exponent_stages", faulty)
    for lanes in LOCKSTEP_BUDGETS:
        monkeypatch.setattr(simulator, "_LOCKSTEP_LANES", lanes)
        with pytest.raises(RuntimeError, match="stage .* disagrees") as info:
            order_finding_distribution(11, 2, 7)
        assert str(info.value).startswith(f"exponent stage {min(stages)} of")


@pytest.mark.parametrize("change,message,error", [
    ("drop last", "has 6 exponent stages, not 7", RuntimeError),
    ("swap first two", "stage 0 .* touches wire 1;", ValueError),
    ("extra", "more than 7 exponent stages", RuntimeError),
    ("wrong multiplier", "stage 2 .* disagrees", RuntimeError),
    ("wrong control", "stage 2 .* touches wire 3;", ValueError),
])
def test_order_finding_distribution_rejects_misordered_stages(
        monkeypatch, change, message, error):
    # every stage can be right on its own while the sequence is wrong.  The
    # multipliers of 2 mod 11 are 2, 4, 5, 3, 9, 4, 5; stage 2 of base 4
    # multiplies by 4**4 = 3 mod 11 under x_2, and stage 3 of base 3 by the
    # right 3**8 = 5 mod 11, but under x_3
    def changed(layout, y, N):
        out = list(EXPONENT_STAGES(layout, y, N))
        if change == "drop last":
            out.pop()
        elif change == "swap first two":
            out[0], out[1] = out[1], out[0]
        elif change == "extra":
            out.append(out[-1])
        elif change == "wrong multiplier":
            out[2] = list(EXPONENT_STAGES(layout, 4, N))[2]
        else:
            out[2] = list(EXPONENT_STAGES(layout, 3, N))[3]
        return iter(out)

    monkeypatch.setattr(simulator.templates, "_exponent_stages", changed)
    with pytest.raises(error, match=message):
        order_finding_distribution(11, 2, 7)


def test_order_finding_distribution_checks_a_repeated_block_per_stage(monkeypatch):
    # a block is read once, but whether it may run is decided per stage:
    # stage 2's blocks, right under x_2, must be refused again as stage 3
    def repeated(layout, y, N):
        out = list(EXPONENT_STAGES(layout, y, N))
        out[3] = out[2]
        return iter(out)

    monkeypatch.setattr(simulator.templates, "_exponent_stages", repeated)
    with pytest.raises(ValueError, match="stage 3 .* touches wire 2;"):
        order_finding_distribution(11, 2, 7)


def test_order_finding_distribution_trivial_base():
    dist = order_finding_distribution(5, 1, 4)
    assert dist.prob(0) == pytest.approx(1.0, abs=1e-12)


def test_order_finding_distribution_order_two():
    dist = order_finding_distribution(5, 4, 8)   # 4^2 = 16 = 1 mod 5
    assert dist.prob(0) == pytest.approx(0.5, abs=1e-9)
    assert dist.prob(128) == pytest.approx(0.5, abs=1e-9)


def test_order_finding_distribution_order_four():
    dist = order_finding_distribution(5, 3, 8)
    for k in (0, 64, 128, 192):
        assert dist.prob(k) == pytest.approx(0.25, abs=1e-9)
    assert sum(p for _, p in dist.items()) == pytest.approx(1.0, abs=1e-9)


def test_order_finding_distribution_rejects_non_coprime():
    with pytest.raises(ValueError, match="coprime"):
        order_finding_distribution(15, 5, 8)


def multiplicative_order(y: int, N: int) -> int:
    r, acc = 1, y % N
    while acc != 1:
        acc = acc * y % N
        r += 1
    return r


@pytest.mark.parametrize("N,y,n_x", [(5, 2, 8), (5, 4, 8), (15, 2, 8),
                                     (15, 4, 6), (17, 2, 6)])
def test_distribution_uniform_when_order_divides_register(N, y, n_x):
    r = multiplicative_order(y, N)
    M = 1 << n_x
    assert M % r == 0  # parametrization picks divisor orders only
    dist = order_finding_distribution(N, y, n_x)
    support = {k for k, p in dist.items() if p > 1e-12}
    assert support == {s * M // r for s in range(r)}
    for k in support:
        assert dist.prob(k) == pytest.approx(1 / r, abs=1e-9)


def test_distribution_peaks_near_fractions_for_non_divisor_order():
    # order of 3 mod 7 is 6, which does not divide 256: probability spreads,
    # but the heaviest outcomes still hug the multiples of 256/6.
    r = multiplicative_order(3, 7)
    assert r == 6
    dist = order_finding_distribution(7, 3, 8)
    assert sum(p for _, p in dist.items()) == pytest.approx(1.0, abs=1e-9)
    for k, _ in dist.top(6):
        nearest = round(k * r / 256) * 256 / r
        assert abs(k - nearest) <= 1.0


def test_structured_matches_dense_pipeline():
    # n = 2, n_x = 2 keeps the full register file at 14 qubits.
    N, y, n_x = 3, 2, 2
    params = TemplateParams(N=N, y=y, n_x=n_x)
    layout = params.layout
    circuit = Circuit(layout.width, [H(w) for w in layout.x]) \
        + modular_exponentiation(params) \
        + Circuit(layout.width, qft_inv(layout.x).gates)
    state = simulate_dense(circuit, initial=layout.encode(z=1, N=N))
    dense_probs = measure_probs(state, layout.x)
    structured = order_finding_distribution(N, y, n_x)
    for k in range(1 << n_x):
        assert dense_probs.prob(k) == pytest.approx(structured.prob(k), abs=1e-9)


def dense(dist: Distribution, n_x: int) -> np.ndarray:
    """All 2**n_x outcome probabilities, zero off the support."""
    probs = np.zeros(1 << n_x)
    probs[dist.outcomes] = dist.probabilities
    return probs


def assert_matches_oracle(closed: np.ndarray, f) -> None:
    oracle = grouped_fft_probs(f)
    assert np.abs(closed - oracle).max() <= 1e-12
    floor = simulator._PROB_FLOOR
    assert np.array_equal(closed > floor, oracle > floor)


@pytest.mark.parametrize("n_x,r", [
    (1, 1), (1, 2), (4, 1), (4, 3), (4, 5), (4, 16), (8, 2), (8, 6), (8, 7),
    (8, 64), (8, 255), (8, 256), (12, 6), (12, 10), (12, 48), (12, 4095),
    (16, 2045),
])
def test_period_probs_match_grouped_fft(n_x, r):
    M = 1 << n_x
    closed = simulator._period_probs(r, M)
    assert_matches_oracle(closed, np.arange(M) % r)
    if r == M:  # no value repeats: every outcome is equally likely
        assert np.array_equal(closed, np.full(M, 1 / M))


def test_period_probs_half_class_form_is_bit_identical():
    # both Fejer kernels evaluated at every m = k*r mod M, as they were
    # before the half-class form, which evaluates them on 0..M/2 alone
    def full(r, M):
        q, e = divmod(M, r)
        m = np.arange(M, dtype=np.int64) * r % M
        return ((r - e) * simulator._fejer(q, m, M)
                + e * simulator._fejer(q + 1, m, M)) / float(M) ** 2

    for n_x in range(1, 15):
        M = 1 << n_x
        for r in range(1, 201):
            assert np.array_equal(simulator._period_probs(r, M), full(r, M)), (r, M)


@pytest.mark.parametrize("N,y,n_x", [
    (5, 1, 1), (5, 2, 1), (5, 4, 1), (15, 7, 8), (21, 5, 12), (33, 2, 14),
    (23, 5, 4), (221, 3, 12), (7, 3, 8),
])
def test_order_finding_distribution_matches_grouped_fft(N, y, n_x):
    dist = order_finding_distribution(N, y, n_x)
    assert_matches_oracle(dense(dist, n_x), [pow(y, x, N) for x in range(1 << n_x)])


@pytest.mark.parametrize("r", [1, 3, 6, 255, 256, 508, 510])
def test_prob_floor_keeps_the_mass_at_the_n_x_cap(r):
    # N < 512 at n_x = NX_CAP gives orders up to 510; the dust below
    # _PROB_FLOOR that from_dense drops leaves the sum within 2 ulps of 1
    dist = Distribution.from_dense(simulator._period_probs(r, 1 << simulator.NX_CAP))
    assert abs(dist.probabilities.sum() - 1.0) <= 2 * np.finfo(float).eps


def test_order_finding_distribution_beyond_register_is_uniform():
    # the order of 5 mod 23 is 22 > 16 = M, so all 16 values are distinct
    dist = order_finding_distribution(23, 5, 4)
    assert dist.outcomes.tolist() == list(range(16))
    assert np.array_equal(dist.probabilities, np.full(16, 1 / 16))


@pytest.mark.parametrize("N,y,n_x,k,exact", [
    # 40-digit mpmath evaluations of the Fejer-kernel sum; the grouped FFT
    # printed the first as 1753,1.24905534523e-07
    (21, 5, 12, 1753, 1.2490553452350008e-7),
    (33, 2, 14, 101, 9.0216752187651519e-9),
    (33, 2, 14, 2021, 6.7485893533350318e-8),
])
def test_order_finding_distribution_pinned_to_high_precision(N, y, n_x, k, exact):
    dist = order_finding_distribution(N, y, n_x)
    assert dist.prob(k) == pytest.approx(exact, rel=1e-15, abs=0)
    assert f"\n{k},{exact:.12g}\n" in dist.to_csv()


def test_measure_probs_basis_state_endianness():
    probs = measure_probs(basis_state(3, 0b011), (0, 1, 2))
    assert probs.probs == {3: 1.0}
    # first listed wire is the least significant outcome bit
    probs = measure_probs(basis_state(3, 0b011), (2, 1, 0))
    assert probs.probs == {6: 1.0}
    probs = measure_probs(basis_state(3, 0b011), (1,))
    assert probs.probs == {1: 1.0}


def test_measure_probs_bell_marginal():
    state = simulate_dense(Circuit(2, [H(0), CNOT(0, 1)]))
    probs = measure_probs(state, (0,))
    assert probs.prob(0) == pytest.approx(0.5)
    assert probs.prob(1) == pytest.approx(0.5)


def test_measure_probs_marginals_sum_to_one(rng):
    for _ in range(10):
        c = random_circuit(rng, 5, 15)
        state = simulate_dense(c)
        wires = rng.choice(5, size=int(rng.integers(1, 5)), replace=False)
        total = sum(p for _, p in measure_probs(state, map(int, wires)).items())
        assert total == pytest.approx(1.0, abs=1e-10)


def test_measure_probs_rejects_duplicates():
    with pytest.raises(ValueError, match="distinct"):
        measure_probs(basis_state(2), (0, 0))


def test_distribution_validation_and_export():
    with pytest.raises(ValueError, match="non-negative"):
        Distribution(np.array([0, 1]), np.array([-0.5, 1.5]))
    with pytest.raises(ValueError, match="sum"):
        Distribution(np.array([0]), np.array([0.7]))
    for outcomes in ([3, 0], [3, 3]):  # unsorted, duplicate
        with pytest.raises(ValueError, match="strictly increasing"):
            Distribution(np.array(outcomes), np.array([0.75, 0.25]))
    with pytest.raises(ValueError, match="outcomes must be non-negative"):
        Distribution(np.array([-1, 3]), np.array([0.75, 0.25]))
    with pytest.raises(ValueError, match="same length"):
        Distribution(np.array([0, 3]), np.array([1.0]))
    with pytest.raises(ValueError, match="integers"):
        Distribution(np.array([0.0, 3.0]), np.array([0.75, 0.25]))
    with pytest.raises(ValueError, match="non-negative"):
        Distribution(np.array([0, 3]), np.array([np.nan, 1.0]))
    dist = Distribution(np.array([0, 3]), np.array([0.75, 0.25]))
    assert dist.to_csv() == "outcome,probability\n0,0.75\n3,0.25\n"
    assert dist.to_json() == '{"0": 0.75, "3": 0.25}'
    assert dist.top(1) == [(0, 0.75)]
    assert dist.probs == {0: 0.75, 3: 0.25}
    assert dist == Distribution([0, 3], [0.75, 0.25])
    assert dist != Distribution([0, 2], [0.75, 0.25])
    assert (dist.prob(3), dist.prob(1), dist.prob(-2), dist.prob(4)) \
        == (0.25, 0.0, 0.0, 0.0)


def test_distribution_matches_dict_reference(rng):
    """Every view equals the one computed from an outcome -> probability dict."""
    for _ in range(50):
        size = int(rng.integers(1, 40))
        outcomes = np.sort(rng.choice(1000, size=size, replace=False))
        weights = rng.integers(1, 5, size=size).astype(float)
        probs = weights / weights.sum()
        dist = Distribution(outcomes, probs)
        ref = {int(k): float(p) for k, p in zip(outcomes, probs)}
        keys = sorted(ref)
        assert dist.items() == [(k, ref[k]) for k in keys]
        assert all(type(k) is int and type(p) is float for k, p in dist.items())
        assert dist.top(7) == sorted(ref.items(), key=lambda kv: (-kv[1], kv[0]))[:7]
        assert dist.to_csv() == "outcome,probability\n" + "".join(
            f"{k},{ref[k]:.12g}\n" for k in keys)
        assert dist.to_json() == json.dumps({str(k): ref[k] for k in keys})
        assert [dist.prob(k) for k in range(1000)] == [ref.get(k, 0.0)
                                                        for k in range(1000)]
        ref_p = np.array([ref[k] for k in keys])
        seed = int(rng.integers(1 << 32))
        shots = int(rng.integers(1, 100))
        assert np.array_equal(
            dist.sample(np.random.default_rng(seed), shots),
            np.random.default_rng(seed).choice(keys, shots, p=ref_p / ref_p.sum()))


@pytest.mark.parametrize("outcomes,probs", [
    ([0], [1.0]),
    ([3, 7, 1 << 40], [0.1, 0.9 - 1e-300, 1e-300]),
    (list(range(0, 530, 10)), [2.0 ** -k for k in range(1, 53)] + [2.0 ** -52]),
    ([5, 6], [1 / 3, 2 / 3]),
])
def test_writers_match_row_by_row_formatting(outcomes, probs):
    # each writer formats all rows in one % operation; the bytes must be
    # those of one format per row and of json.dumps
    dist = Distribution(np.array(outcomes), np.array(probs))
    rows = list(zip(outcomes, probs))
    assert dist.to_csv() == "outcome,probability\n" + "".join(
        "%d,%.12g\n" % row for row in rows)
    assert dist.to_json() == json.dumps(dict(rows))


def test_distribution_arrays_are_read_only():
    dist = order_finding_distribution(15, 7, 8)
    outcomes, probs = dist.outcomes.copy(), dist.probabilities.copy()
    for array in (dist.outcomes, dist.probabilities):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    with pytest.raises(TypeError):
        dist.probs[0] = 1.0
    again = order_finding_distribution(15, 22, 8)  # 22 = 7 mod 15
    assert again == dist
    assert np.array_equal(again.outcomes, outcomes)
    assert again.probabilities.tobytes() == probs.tobytes()


def test_order_finding_distribution_retains_nothing():
    dist = order_finding_distribution(15, 7, 8)
    ref = weakref.ref(dist)
    del dist
    gc.collect()
    assert ref() is None


def test_swap_gate_dense_versus_oracle(rng):
    c = Circuit(3, [SWAP(0, 2), X(0)])
    assert np.abs(circuit_unitary(c) - oracle_unitary(c)).max() < 1e-12
