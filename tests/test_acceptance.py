"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances and runtime budgets are pinned here, not configurable.
"""
import math
import time

import numpy as np

from ionshor.circuit import Circuit, GateKind, RegisterLayout
from ionshor.classical import mod_pow, order_candidates
from ionshor.estimator import depth_bound, estimate_order_finding
from ionshor.shor import factor
from ionshor.simulator import (
    measure_probs, order_finding_distribution, simulate_dense,
    simulate_reversible,
)
from ionshor.templates import (
    TemplateParams, adder, adder_mod, carry_gate, ctrl_mult_mod,
    modular_exponentiation, qft_inv, sum_gate,
)
from ionshor.transpiler import decompose_unitary, reconstruct, transpile
from ionshor.circuit import CRK, FREDKIN, H, TOFFOLI
from conftest import haar_unitary, random_circuit

from test_estimator import greedy_schedule_depth, random_program
from test_transpiler import assert_program_equals, max_r_run_between_xx


def _report(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num} ({name}): PASS")


def test_criterion_1_arithmetic_exhaustive():
    start = time.monotonic()
    for n in (2, 3):
        layout = RegisterLayout(0, n)
        add = adder(layout)
        for a in range(2 ** n):
            for b in range(2 ** n):
                out = layout.decode(simulate_reversible(add, layout.encode(a=a, b=b)))
                assert out == {"x": 0, "z": 0, "a": a, "b": a + b, "c": 0,
                               "N": 0, "t": 0}
        for N in range(2, 2 ** n):
            mod = adder_mod(TemplateParams(N=N, n=n))
            for a in range(N):
                for b in range(N):
                    out = layout.decode(
                        simulate_reversible(mod, layout.encode(a=a, b=b, N=N)))
                    assert out == {"x": 0, "z": 0, "a": a, "b": (a + b) % N,
                                   "c": 0, "N": N, "t": 0}
        lay1 = RegisterLayout(1, n)
        for N in range(2, 2 ** n):
            for m in range(1, N):
                if math.gcd(m, N) != 1:
                    continue
                cmm = ctrl_mult_mod(TemplateParams(N=N, n=n, m=m, n_x=1))
                for z in range(N):
                    for ctl in (0, 1):
                        out = lay1.decode(simulate_reversible(
                            cmm, lay1.encode(x=ctl, z=z, N=N)))
                        expected_b = z * m % N if ctl else z
                        assert out == {"x": ctl, "z": z, "a": 0,
                                       "b": expected_b, "c": 0, "N": N, "t": 0}
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(1, f"arithmetic exhaustive oracles, {elapsed:.1f}s")


def test_criterion_2_modular_exponentiation_end_to_end():
    start = time.monotonic()
    params = TemplateParams(N=5, y=3, n=3, n_x=8)
    circuit = modular_exponentiation(params)
    layout = params.layout
    for x in range(256):
        out = layout.decode(simulate_reversible(circuit,
                                                layout.encode(x=x, z=1, N=5)))
        assert out["z"] == mod_pow(3, x, 5)
        assert (out["x"], out["a"], out["b"], out["c"], out["N"], out["t"]) \
            == (x, 0, 0, 0, 5, 0)
    layout_check = layout.decode(simulate_reversible(circuit,
                                                     layout.encode(x=4, z=1, N=5)))
    assert layout_check["z"] == 1   # 3^4 mod 5
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(2, f"modular exponentiation N=5 y=3 all 256 inputs, {elapsed:.1f}s")


def test_criterion_3_order_finding_distribution():
    dist = order_finding_distribution(5, 3, 8)
    for k in (0, 64, 128, 192):
        assert abs(dist.prob(k) - 0.25) < 1e-9
    candidates = order_candidates(64, 8, 5)
    assert 4 in candidates
    order = next(r for r in candidates if mod_pow(3, r, 5) == 1)
    assert order == 4
    # A 63/64 peak (outcome 252) is incompatible with order 4: every outcome
    # off the multiples of 64 carries zero probability here.
    assert dist.prob(252) < 1e-9
    _report(3, "order-finding distribution quarters and r=4 post-processing")


def test_criterion_4_single_qubit_decomposition():
    rng = np.random.default_rng(31415)
    worst = 0.0
    for _ in range(1000):
        U = haar_unitary(rng)
        worst = max(worst, np.abs(reconstruct(decompose_unitary(U)) - U).max())
    for theta in rng.uniform(0, 2 * math.pi, size=20):
        diag = np.diag([np.exp(1j * theta), np.exp(-0.5j * theta)])
        anti = np.array([[0, np.exp(1j * theta)], [np.exp(0.3j * theta), 0]])
        for U in (diag, anti):
            worst = max(worst,
                        np.abs(reconstruct(decompose_unitary(U)) - U).max())
    assert worst < 1e-10
    _report(4, f"1000 Haar + degenerate reconstructions, worst {worst:.2e}")


def test_criterion_5_transpiler_equivalence():
    rng = np.random.default_rng(27182)
    named = [Circuit(3, [TOFFOLI(0, 1, 2)]), Circuit(3, [FREDKIN(0, 1, 2)]),
             sum_gate(0, 1, 2), carry_gate(0, 1, 2, 3)]
    named += [Circuit(2, [CRK(0, 1, k)]) for k in range(1, 6)]
    for c in named:
        program = transpile(c)
        assert {g.kind for g in program.gates} <= {GateKind.R, GateKind.XX}
        assert max_r_run_between_xx(program) <= 2
        assert_program_equals(c, program, tol=1e-8)
    for _ in range(100):
        c = random_circuit(rng, 5, int(rng.integers(5, 25)))
        program = transpile(c)
        assert {g.kind for g in program.gates} <= {GateKind.R, GateKind.XX}
        assert max_r_run_between_xx(program) <= 2
        assert_program_equals(c, program, tol=1e-8)
    _report(5, "transpiler equivalence on named templates and 100 random circuits")


# Published reference totals for this transpilation protocol; the exact gate
# identities behind them are not public, so agreement is within a factor of 2
# (plus monotone growth and a plausible two-qubit fraction), not equality.
REFERENCE_COUNTS = {
    2: (23941, 5010, 3808 * 3),
    3: (77054, 16152, 11440 * 3),
    4: (174649, 36650, 25648 * 3),
    5: (340520, 71452, 48615 * 3),
}


def test_criterion_6_resource_table():
    start = time.monotonic()
    reports = {n: estimate_order_finding(n) for n in (2, 3, 4, 5)}
    elapsed = time.monotonic() - start
    for n, report in reports.items():
        ref_total, ref_two, ref_depth = REFERENCE_COUNTS[n]
        for got, ref in [(report.total_native, ref_total),
                         (report.two_qubit, ref_two),
                         (report.depth_bound, ref_depth)]:
            assert ref / 2 <= got <= ref * 2, (n, got, ref)
        fraction = report.two_qubit / report.total_native
        assert 0.15 <= fraction <= 0.30, (n, fraction)
    for lo, hi in zip((2, 3, 4), (3, 4, 5)):
        assert reports[lo].total_native < reports[hi].total_native
        assert reports[lo].two_qubit < reports[hi].two_qubit
        assert reports[lo].single_qubit < reports[hi].single_qubit
        assert reports[lo].depth_bound < reports[hi].depth_bound
    assert elapsed < 300
    _report(6, f"resource table n=2..5 within x2 of reference, {elapsed:.1f}s")


def test_criterion_7_depth_algorithm():
    from test_estimator import program_of
    from ionshor.circuit import XX
    assert depth_bound(program_of(XX(0, 1, .1), XX(1, 2, .1), XX(0, 1, .1))) == 9
    assert depth_bound(program_of(XX(0, 1, .1), XX(2, 3, .1))) == 3
    rng = np.random.default_rng(16180)
    for _ in range(200):
        width = int(rng.integers(2, 13))
        p = random_program(rng, width, int(rng.integers(1, 80)))
        assert depth_bound(p) >= 3 * greedy_schedule_depth(p)
    _report(7, "depth bound hand cases and greedy-schedule domination x200")


def test_criterion_8_shor_driver():
    start = time.monotonic()
    for N in (15, 21):
        successes = sum(factor(N, seed=seed, max_trials=20).factor is not None
                        for seed in range(50))
        assert successes >= 45, (N, successes)
    for N in (15, 21, 33):
        wins = sum(factor(N, seed=seed, max_trials=1).factor is not None
                   for seed in range(50))
        assert wins / 50 >= 0.5, (N, wins)
    elapsed = time.monotonic() - start
    assert elapsed < 120
    _report(8, f"driver success rates on 15/21/33, {elapsed:.1f}s")


def test_criterion_9_engine_cross_checks():
    rng = np.random.default_rng(14142)
    for _ in range(10000):
        width = int(rng.integers(2, 13))
        c = random_circuit(rng, width, int(rng.integers(1, 20)),
                           classical_only=True)
        basis = int(rng.integers(1 << width))
        out = simulate_reversible(c, basis)
        state = simulate_dense(c, initial=basis)
        assert abs(state[out]) > 1 - 1e-9
    # dense pipeline vs structured evaluator on an n=2 instance (14 qubits)
    params = TemplateParams(N=3, y=2, n_x=2)
    layout = params.layout
    circuit = Circuit(layout.width, [H(w) for w in layout.x]) \
        + modular_exponentiation(params) \
        + Circuit(layout.width, qft_inv(layout.x).gates)
    state = simulate_dense(circuit, initial=layout.encode(z=1, N=3))
    dense = measure_probs(state, layout.x)
    structured = order_finding_distribution(3, 2, 2)
    for k in range(4):
        assert abs(dense.prob(k) - structured.prob(k)) < 1e-9
    _report(9, "dense/reversible agreement x10000 and structured-evaluator match")
