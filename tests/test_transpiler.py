import cmath
import math

import numpy as np
import pytest

from ionshor.circuit import (
    CNOT, CRK, CRK_INV, CV, CV_INV, FREDKIN, H, R, SWAP, TOFFOLI, U1, X, XX,
    Circuit, GateKind, RegisterLayout, gate_matrix,
)
from ionshor.simulator import circuit_unitary
from ionshor.templates import adder, carry_gate, sum_gate
from ionshor.transpiler import (
    NativeProgram, UnitaryParams, decompose_unitary, lower_toffoli,
    lower_two_qubit, merge_singles, reconstruct, transpile,
)
from conftest import haar_unitary, oracle_unitary, random_circuit


def assert_program_equals(circuit: Circuit, program: NativeProgram,
                          tol: float = 1e-8) -> None:
    """Program unitary times the tracked phase must reproduce the source."""
    expected = circuit_unitary(circuit)
    got = cmath.exp(1j * program.global_phase) \
        * circuit_unitary(program.as_circuit())
    assert np.abs(got - expected).max() < tol


def max_r_run_between_xx(program: NativeProgram) -> int:
    runs: dict[int, int] = {}
    worst = 0
    for g in program.gates:
        if g.kind is GateKind.R:
            runs[g.wires[0]] = runs.get(g.wires[0], 0) + 1
            worst = max(worst, runs[g.wires[0]])
        else:
            for w in g.wires:
                runs[w] = 0
    return worst


# --- closed-form single-qubit decomposition ---

def test_decompose_identity():
    p = decompose_unitary(np.eye(2))
    assert (p.a, p.b, p.c, p.d) == (0.0, 0.0, 0.0, 0.0)


def test_decompose_hadamard_angles():
    p = decompose_unitary(gate_matrix(H(0)))
    assert p.a == pytest.approx(-math.pi / 2)
    assert p.b == pytest.approx(math.pi / 4)
    assert p.c == pytest.approx(-math.pi / 2)
    assert p.d == pytest.approx(math.pi / 2)
    assert np.abs(reconstruct(p) - gate_matrix(H(0))).max() < 1e-10


def test_decompose_haar_random(rng):
    for _ in range(1000):
        U = haar_unitary(rng)
        p = decompose_unitary(U)
        assert 0 <= p.b <= math.pi / 2
        assert np.abs(reconstruct(p) - U).max() < 1e-10


def test_decompose_degenerate_cases(rng):
    diagonals = [np.diag([1, 1j]), np.diag([np.exp(0.7j), np.exp(-0.3j)]),
                 np.eye(2), -np.eye(2)]
    antidiagonals = [gate_matrix(X(0)),
                     np.array([[0, np.exp(0.2j)], [np.exp(1.1j), 0]])]
    for theta in rng.uniform(0, 2 * math.pi, size=10):
        diagonals.append(np.diag([np.exp(1j * theta), np.exp(-2j * theta)]))
        antidiagonals.append(np.array([[0, np.exp(1j * theta)],
                                       [np.exp(-1j * theta), 0]]))
    for U in diagonals + antidiagonals:
        p = decompose_unitary(U)
        assert np.abs(reconstruct(p) - U).max() < 1e-10


def test_decompose_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        decompose_unitary([[1, 0], [0, 2]])
    with pytest.raises(ValueError, match="2x2"):
        decompose_unitary(np.eye(3))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_decompose_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="not unitary"):
        decompose_unitary([[bad, 0], [0, 1]])


def test_reconstruct_uses_two_rotations():
    # b in [0, pi/2] puts the first rotation angle in [pi, 2*pi], never 0.
    p = UnitaryParams(a=0.3, b=0.7, c=-0.2, d=0.1)
    U = reconstruct(p)
    assert np.abs(U.conj().T @ U - np.eye(2)).max() < 1e-12


# --- pass 2: Toffoli / Fredkin removal ---

def test_lower_toffoli_passthrough():
    c = Circuit(2, [H(0), CNOT(0, 1)])
    assert lower_toffoli(c) == c


def test_lower_toffoli_block():
    lowered = lower_toffoli(Circuit(3, [TOFFOLI(0, 1, 2)]))
    kinds = [g.kind for g in lowered.gates]
    assert kinds.count(GateKind.CNOT) == 2
    assert kinds.count(GateKind.CV) + kinds.count(GateKind.CVINV) == 3
    assert np.abs(oracle_unitary(lowered)
                  - oracle_unitary(Circuit(3, [TOFFOLI(0, 1, 2)]))).max() < 1e-10


def test_lower_fredkin_block():
    source = Circuit(3, [FREDKIN(2, 0, 1)])
    lowered = lower_toffoli(source)
    assert not {GateKind.TOFFOLI, GateKind.FREDKIN} & {g.kind for g in lowered}
    assert np.abs(oracle_unitary(lowered) - oracle_unitary(source)).max() < 1e-10


# --- pass 3: two-qubit gates onto XX ---

def test_cnot_block_shape_and_unitary():
    lowered = lower_two_qubit(Circuit(2, [CNOT(0, 1)]))
    xx = [g for g in lowered.gates if g.kind is GateKind.XX]
    singles = [g for g in lowered.gates if g.kind is not GateKind.XX]
    assert len(xx) == 1 and xx[0].params == (math.pi / 4,)
    assert len(singles) <= 4
    assert np.abs(oracle_unitary(lowered)
                  - oracle_unitary(Circuit(2, [CNOT(0, 1)]))).max() < 1e-10


@pytest.mark.parametrize("gate,chi", [(CV(0, 1), math.pi / 8),
                                      (CV_INV(0, 1), math.pi / 8)])
def test_cv_blocks(gate, chi):
    lowered = lower_two_qubit(Circuit(2, [gate]))
    xx = [g for g in lowered.gates if g.kind is GateKind.XX]
    assert len(xx) == 1 and xx[0].params == (chi,)
    assert np.abs(oracle_unitary(lowered) - oracle_unitary(Circuit(2, [gate]))
                  ).max() < 1e-10


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_crk_lowering(k):
    for gate in (CRK(0, 1, k), CRK_INV(0, 1, k)):
        lowered = lower_two_qubit(Circuit(2, [gate]))
        assert np.abs(oracle_unitary(lowered)
                      - oracle_unitary(Circuit(2, [gate]))).max() < 1e-10


def test_swap_lowering():
    lowered = lower_two_qubit(Circuit(2, [SWAP(0, 1)]))
    assert np.abs(oracle_unitary(lowered)
                  - oracle_unitary(Circuit(2, [SWAP(0, 1)]))).max() < 1e-10


def test_lower_two_qubit_empty():
    assert lower_two_qubit(Circuit(3)) == Circuit(3)


def test_lower_two_qubit_rejects_toffoli():
    with pytest.raises(ValueError, match="TOFFOLI"):
        lower_two_qubit(Circuit(3, [TOFFOLI(0, 1, 2)]))


def test_all_xx_angles_positive(rng):
    for _ in range(10):
        c = random_circuit(rng, 4, 12)
        program = transpile(c)
        chis = {g.params[0] for g in program.gates if g.kind is GateKind.XX}
        assert chis <= {math.pi / 4, math.pi / 8}


# --- pass 4: merging single-qubit runs ---

def test_merge_drops_identity_runs():
    program = merge_singles(Circuit(1, [H(0), H(0)]))
    assert len(program) == 0
    assert program.global_phase == pytest.approx(0.0)


def test_merge_three_gate_run(rng):
    for _ in range(50):
        gates = [U1(0, haar_unitary(rng)) for _ in range(3)]
        c = Circuit(1, gates)
        program = merge_singles(c)
        assert len(program) <= 2
        assert_program_equals(c, program, tol=1e-10)


def test_merge_rejects_unlowered_gates():
    with pytest.raises(ValueError, match="CNOT"):
        merge_singles(Circuit(2, [CNOT(0, 1)]))


def test_merge_flushes_on_xx_boundaries():
    c = Circuit(2, [H(0), XX(0, 1, 0.4), H(0), H(0), XX(0, 1, 0.4)])
    program = merge_singles(c)
    # second H pair cancels between the XX gates; the first H survives as 2 R
    kinds = [g.kind for g in program.gates]
    assert kinds == [GateKind.R, GateKind.R, GateKind.XX, GateKind.XX]
    assert_program_equals(c, program, tol=1e-10)


def test_step4_contract_on_transpiled_adder():
    program = transpile(adder(RegisterLayout(0, 2)))
    assert max_r_run_between_xx(program) <= 2


# --- full pipeline ---

def test_transpile_empty():
    program = transpile(Circuit(2))
    assert len(program) == 0 and program.global_phase == 0.0


def test_transpile_sum_template():
    c = sum_gate(0, 1, 2)
    program = transpile(c)
    assert {g.kind for g in program.gates} <= {GateKind.R, GateKind.XX}
    assert_program_equals(c, program, tol=1e-10)


def test_transpile_carry_template():
    c = carry_gate(0, 1, 2, 3)
    program = transpile(c)
    assert_program_equals(c, program, tol=1e-10)
    assert max_r_run_between_xx(program) <= 2


def test_transpile_random_elementary_circuits(rng):
    for _ in range(100):
        c = random_circuit(rng, 5, int(rng.integers(5, 25)))
        program = transpile(c)
        assert {g.kind for g in program.gates} <= {GateKind.R, GateKind.XX}
        assert max_r_run_between_xx(program) <= 2
        assert_program_equals(c, program, tol=1e-8)


def test_transpile_passes_natives_through(rng):
    c = Circuit(2, [R(0, 0.3, 0.1), XX(0, 1, 0.25), H(1)])
    program = transpile(c)
    assert any(g.kind is GateKind.XX and g.params == (0.25,)
               for g in program.gates)
    assert_program_equals(c, program, tol=1e-10)


def test_transpile_realigns_negative_input_chi():
    # default hardware sign is positive, so XX(-0.25) is Z-conjugated
    c = Circuit(2, [XX(0, 1, -0.25)])
    program = transpile(c)
    assert all(g.params[0] > 0 for g in program.gates
               if g.kind is GateKind.XX)
    assert_program_equals(c, program, tol=1e-10)


def test_transpile_with_negative_pair_signs(rng):
    for xx_sign in (-1, {frozenset((0, 1)): -1}):
        for _ in range(20):
            c = random_circuit(rng, 3, 10)
            program = transpile(c, xx_sign=xx_sign)
            if xx_sign == -1:
                assert all(g.params[0] < 0 for g in program.gates
                           if g.kind is GateKind.XX)
            else:
                assert all(g.params[0] < 0 for g in program.gates
                           if g.kind is GateKind.XX
                           and set(g.wires) == {0, 1})
            assert_program_equals(c, program, tol=1e-8)
            assert max_r_run_between_xx(program) <= 2


def test_native_program_validation():
    with pytest.raises(ValueError, match="only R and XX"):
        NativeProgram(2, (CNOT(0, 1),))
    with pytest.raises(ValueError, match="width"):
        NativeProgram(1, (XX(0, 1, 0.1),))


def test_native_program_text_format():
    program = NativeProgram(2, (R(0, 0.5, -0.25), XX(0, 1, math.pi / 4)),
                            global_phase=0.125)
    text = program.to_text()
    lines = text.splitlines()
    assert lines[0] == "qubits 2"
    assert lines[1] == "R 0 0.5 -0.25"
    assert lines[2].startswith("XX 0 1 0.7853981633")
    assert lines[3] == "# global_phase 0.125"


def test_native_program_json_format():
    import json
    program = NativeProgram(1, (R(0, 1.0, 2.0),), global_phase=-0.5)
    payload = json.loads(program.to_json())
    assert payload["qubits"] == 1
    assert payload["global_phase"] == -0.5
    assert payload["gates"] == [{"gate": "R", "wires": [0], "params": [1.0, 2.0]}]
