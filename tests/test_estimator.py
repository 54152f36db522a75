import math

import pytest

from ionshor.circuit import R, XX
from ionshor.estimator import (
    ResourceReport, count_gates, depth_bound, estimate_order_finding,
    reports_to_csv,
)
from ionshor.templates import TemplateParams, order_finding, sum_gate
from ionshor.transpiler import NativeProgram, transpile


def program_of(*gates) -> NativeProgram:
    width = 1 + max((w for g in gates for w in g.wires), default=0)
    return NativeProgram(width, tuple(gates))


def random_program(rng, width: int, n_gates: int) -> NativeProgram:
    gates = []
    for _ in range(n_gates):
        if rng.random() < 0.4:
            gates.append(R(int(rng.integers(width)), 0.1, 0.2))
        else:
            w0, w1 = rng.choice(width, size=2, replace=False)
            gates.append(XX(int(w0), int(w1), math.pi / 4))
    return NativeProgram(width, tuple(gates))


def greedy_schedule_depth(program: NativeProgram) -> int:
    """Independent ASAP scheduler over the two-qubit gates only."""
    levels: list[set[int]] = []
    busy_until: dict[int, int] = {}
    for g in program.gates:
        if len(g.wires) != 2:
            continue
        start = max(busy_until.get(g.wires[0], 0), busy_until.get(g.wires[1], 0))
        while len(levels) <= start:
            levels.append(set())
        levels[start].add(g.wires)
        busy_until[g.wires[0]] = busy_until[g.wires[1]] = start + 1
    return len(levels)


def test_count_gates_empty():
    report = count_gates(program_of())
    assert (report.total_native, report.two_qubit, report.single_qubit,
            report.depth_bound) == (0, 0, 0, 0)
    assert report.histogram == {}


def test_count_gates_mixed():
    report = count_gates(program_of(R(0, 1, 2), XX(0, 1, 0.1), R(1, 3, 4)))
    assert report.total_native == 3
    assert report.two_qubit == 1
    assert report.single_qubit == 2
    assert report.histogram == {"R": 2, "XX": 1}


def test_counts_deterministic_across_runs():
    a = count_gates(transpile(sum_gate(0, 1, 2)))
    b = count_gates(transpile(sum_gate(0, 1, 2)))
    assert a == b


def test_depth_single_xx():
    assert depth_bound(program_of(XX(0, 1, 0.1))) == 3


def test_depth_chain():
    p = program_of(XX(0, 1, 0.1), XX(1, 2, 0.1), XX(0, 1, 0.1))
    assert depth_bound(p) == 9


def test_depth_disjoint_pairs_share_level():
    assert depth_bound(program_of(XX(0, 1, 0.1), XX(2, 3, 0.1))) == 3


def test_depth_ignores_single_qubit_gates():
    p = program_of(R(0, 1, 1), XX(0, 1, 0.1), R(1, 1, 1), R(0, 1, 1))
    assert depth_bound(p) == 3


def test_depth_dominates_greedy_schedule(rng):
    for _ in range(50):
        width = int(rng.integers(2, 13))
        p = random_program(rng, width, int(rng.integers(1, 60)))
        assert depth_bound(p) >= 3 * greedy_schedule_depth(p)


def test_depth_subadditive_under_concatenation(rng):
    for _ in range(25):
        width = int(rng.integers(2, 10))
        p1 = random_program(rng, width, int(rng.integers(1, 40)))
        p2 = random_program(rng, width, int(rng.integers(1, 40)))
        joined = NativeProgram(width, p1.gates + p2.gates)
        assert depth_bound(joined) <= depth_bound(p1) + depth_bound(p2) + 3


def test_report_invariants():
    with pytest.raises(ValueError, match="divisible by 3"):
        ResourceReport({"R": 1, "XX": 1}, depth_bound=4)


def test_estimate_records_parameters():
    report = estimate_order_finding(2)
    assert (report.n, report.n_x, report.N, report.y) == (2, 6, 3, 2)
    assert report.total_native == report.two_qubit + report.single_qubit
    assert report.two_qubit > 0 and report.depth_bound % 3 == 0
    assert sum(report.histogram.values()) == report.total_native


def test_estimate_rejects_tiny_n():
    with pytest.raises(ValueError, match="n must be >= 2"):
        estimate_order_finding(1)


def test_estimate_honors_custom_exponent_width():
    default = estimate_order_finding(2)
    wide = estimate_order_finding(2, n_x=8)
    assert wide.n_x == 8
    assert wide.total_native > default.total_native


def test_estimate_monotone_small():
    r2, r3 = estimate_order_finding(2), estimate_order_finding(3)
    assert r2.total_native < r3.total_native
    assert r2.two_qubit < r3.two_qubit
    assert r2.depth_bound < r3.depth_bound


def test_counts_stable_across_same_width_moduli():
    # Two odd 4-bit moduli should land within 20% of each other.
    totals = []
    for N in (11, 15):
        circuit = order_finding(TemplateParams(N=N, y=2, n=4, n_x=10))
        totals.append(count_gates(transpile(circuit)).total_native)
    assert abs(totals[0] - totals[1]) / max(totals) < 0.20


def test_reports_to_csv():
    report = ResourceReport({"R": 2, "XX": 1}, depth_bound=3,
                            n=2, n_x=6, N=3, y=2)
    text = reports_to_csv([report])
    lines = text.splitlines()
    assert lines[0] == "n,n_x,N,y,total_native,two_qubit,single_qubit,depth_bound"
    assert lines[1] == "2,6,3,2,3,1,2,3"


def test_report_json():
    import json
    payload = json.loads(estimate_order_finding(2).to_json())
    assert payload["n"] == 2 and payload["N"] == 3
    assert payload["total_native"] == payload["two_qubit"] + payload["single_qubit"]
