import json

import numpy as np
import pytest

from ionshor.circuit import (
    CNOT, CRK, CRK_INV, CV, CV_INV, FREDKIN, H, R, SWAP, TOFFOLI, U1, X, XX,
    Circuit, Gate, GateKind, ParseError, RegisterLayout,
    _trusted_gate, gate_adjoint, gate_matrix, inverse, parse, serialize,
)
from ionshor.simulator import simulate_reversible, simulate_reversible_batch
from ionshor.transpiler import transpile
from conftest import haar_unitary, oracle_unitary, random_circuit


def test_arity_per_kind():
    arities = {"X": 1, "H": 1, "U1": 1, "R": 1,
               "CNOT": 2, "SWAP": 2, "CRK": 2, "CRKINV": 2, "CV": 2,
               "CVINV": 2, "XX": 2, "TOFFOLI": 3, "FREDKIN": 3}
    for kind in GateKind:
        assert kind.arity == arities[kind.value]


def test_coincident_wires_rejected():
    with pytest.raises(ValueError, match="distinct"):
        CNOT(1, 1)
    with pytest.raises(ValueError, match="distinct"):
        TOFFOLI(0, 2, 2)


def test_wrong_arity_rejected():
    with pytest.raises(ValueError, match="wires"):
        Gate(GateKind.CNOT, (0,))


def test_crk_requires_positive_integer_k():
    assert CRK(0, 1, 1).params == (1,)
    with pytest.raises(ValueError, match="positive integer"):
        CRK(0, 1, 0)
    with pytest.raises(ValueError, match="positive integer"):
        CRK(0, 1, 1.5)


def test_crk_matrix():
    for k in range(1, 6):
        expected = np.diag([1, 1, 1, np.exp(2j * np.pi / 2 ** k)])
        assert np.abs(gate_matrix(CRK(0, 1, k)) - expected).max() < 1e-12
        assert np.abs(gate_matrix(CRK_INV(0, 1, k)) - expected.conj()).max() < 1e-12


def test_u1_requires_unitary():
    with pytest.raises(ValueError, match="unitary"):
        U1(0, [[1, 0], [0, 2]])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("kind,wires,params,message", [
    (GateKind.X, (0, 1), (), "X acts on 1 wires, got (0, 1)"),
    (GateKind.CNOT, (0,), (), "CNOT acts on 2 wires, got (0,)"),
    (GateKind.TOFFOLI, (0, 1), (), "TOFFOLI acts on 3 wires, got (0, 1)"),
    (GateKind.CNOT, (1, 1), (), "CNOT wires must be distinct, got (1, 1)"),
    (GateKind.FREDKIN, (0, 2, 2), (), "FREDKIN wires must be distinct, got (0, 2, 2)"),
    (GateKind.X, (-1,), (), "wires must be non-negative integers, got (-1,)"),
    (GateKind.CNOT, (0, -3), (), "wires must be non-negative integers, got (0, -3)"),
    (GateKind.H, (1.5,), (), "wires must be non-negative integers, got (1.5,)"),
    (GateKind.X, (INF,), (), "wires must be non-negative integers, got (inf,)"),
    (GateKind.X, (NAN,), (), "wires must be non-negative integers, got (nan,)"),
    (GateKind.R, (0,), (1.0,), "R takes 2 params, got 1"),
    (GateKind.XX, (0, 1), (), "XX takes 1 params, got 0"),
    (GateKind.X, (0,), (1.0,), "X takes 0 params, got 1"),
    (GateKind.U1, (0,), (1.0,) * 7, "U1 takes 8 params, got 7"),
    (GateKind.CRK, (0, 1), (0,), "CRK order k must be a positive integer, got 0"),
    (GateKind.CRKINV, (0, 1), (1.5,), "CRK order k must be a positive integer, got 1.5"),
    (GateKind.CRK, (0, 1), (-2,), "CRK order k must be a positive integer, got -2"),
    (GateKind.CRK, (0, 1), (INF,), "CRK order k must be a positive integer, got inf"),
    (GateKind.CRKINV, (0, 1), (NAN,), "CRK order k must be a positive integer, got nan"),
    (GateKind.U1, (0,), (1.0, 0, 0, 0, 0, 0, 2.0, 0),
     "U1 matrix is not unitary (deviation 3)"),
    (GateKind.R, (0,), (NAN, 0.0), "R params must be finite, got (nan, 0.0)"),
    (GateKind.R, (0,), (0.0, -INF), "R params must be finite, got (0.0, -inf)"),
    (GateKind.XX, (0, 1), (INF,), "XX params must be finite, got (inf,)"),
    (GateKind.U1, (0,), (NAN, 0, 0, 0, 0, 0, 1.0, 0),
     "U1 params must be finite, got (nan, 0, 0, 0, 0, 0, 1.0, 0)"),
    (GateKind.X, (1.0,), (), "wires must be non-negative integers, got (1.0,)"),
])
def test_gate_validation_messages(kind, wires, params, message):
    # Exact texts: every message but the non-finite ones predates the
    # table-driven checks and must not drift.
    with pytest.raises(ValueError) as exc:
        Gate(kind, wires, params)
    assert str(exc.value) == message


def test_numpy_integer_wires_are_stored_as_ints():
    w = np.arange(3, dtype=np.int64)
    c = Circuit(3, [X(w[0]), CNOT(w[0], w[1]), TOFFOLI(w[0], w[1], w[2])])
    plain = Circuit(3, [X(0), CNOT(0, 1), TOFFOLI(0, 1, 2)])
    assert all(type(v) is int for g in c.gates for v in g.wires)
    assert Gate(GateKind.CNOT, [0, 1]) == CNOT(0, 1)   # stored as a tuple
    assert c == plain and serialize(c) == serialize(plain)
    assert simulate_reversible(c, 0) == 0b111
    assert simulate_reversible_batch(c, [0, 1]).tolist() == [0b111, 0]
    text = transpile(c).to_json()
    assert text == transpile(plain).to_json()
    assert json.loads(text)["gates"][-1]["wires"] == [2]


def test_non_finite_params_rejected_by_factories():
    with pytest.raises(ValueError, match="R params must be finite"):
        R(0, NAN, 0.0)
    with pytest.raises(ValueError, match="XX params must be finite"):
        XX(0, 1, INF)
    with pytest.raises(ValueError, match="U1 params must be finite"):
        U1(0, [[NAN, 0], [0, 1]])
    with pytest.raises(ValueError, match="CRK order k"):
        CRK(0, 1, INF)


def test_lowering_gates_equal_and_hash_like_checked_gates():
    # the lowering builds its R and XX gates without Gate's checks; each
    # must be the gate Gate(...) builds from the same fields
    made = _trusted_gate(GateKind.R, (3,), (0.5, -1.25))
    assert made == R(3, 0.5, -1.25) and hash(made) == hash(R(3, 0.5, -1.25))
    program = transpile(Circuit(3, [TOFFOLI(0, 1, 2), CRK(0, 2, 3), H(1)]))
    assert {g.kind for g in program.gates} == {GateKind.R, GateKind.XX}
    for g in program.gates:
        checked = Gate(g.kind, g.wires, g.params)
        assert g == checked and hash(g) == hash(checked)
    # the public constructor, the factories and parse keep every check
    with pytest.raises(ValueError, match="R params must be finite"):
        R(0, NAN, 0)
    with pytest.raises(ValueError, match="R params must be finite"):
        Gate(GateKind.R, (0,), (NAN, 0.0))
    with pytest.raises(ValueError, match="XX params must be finite"):
        parse("qubits 2\nXX 0 1 inf\n")


def test_every_gate_matrix_is_unitary(rng):
    gates = [X(0), H(0), CNOT(0, 1), SWAP(0, 1), TOFFOLI(0, 1, 2),
             FREDKIN(0, 1, 2), CRK(0, 1, 3), CRK_INV(0, 1, 3), CV(0, 1),
             CV_INV(0, 1), U1(0, haar_unitary(rng)), R(0, 0.7, -1.1),
             XX(0, 1, 0.3)]
    for g in gates:
        m = gate_matrix(g)
        assert np.abs(m.conj().T @ m - np.eye(m.shape[0])).max() < 1e-12


def test_gate_adjoint_is_matrix_adjoint(rng):
    gates = [X(0), H(0), CNOT(0, 1), SWAP(0, 1), TOFFOLI(0, 1, 2),
             FREDKIN(0, 1, 2), CRK(0, 1, 2), CRK_INV(0, 1, 4), CV(0, 1),
             CV_INV(0, 1), U1(0, haar_unitary(rng)), R(0, 1.2, 0.4),
             XX(0, 1, -0.9)]
    for g in gates:
        expected = gate_matrix(g).conj().T
        assert np.abs(gate_matrix(gate_adjoint(g)) - expected).max() < 1e-12


def test_circuit_rejects_out_of_range_wires():
    with pytest.raises(ValueError, match="width"):
        Circuit(2, [CNOT(0, 2)])


def test_circuit_rejects_non_integer_width():
    # serialize would write "qubits 2.5", which parse refuses
    with pytest.raises(ValueError, match=r"width must be an integer, got 2\.5"):
        Circuit(2.5, [X(0)])


def test_circuit_stores_integer_width_as_int():
    # bool and numpy widths pass operator.index, as wires do, and are stored
    # as the int, so serialize writes a header parse accepts
    for width in (True, np.int64(1)):
        c = Circuit(width, [X(0)])
        assert type(c.width) is int and c.width == 1
        assert serialize(c) == "qubits 1\nX 0\n"
        assert parse(serialize(c)) == c


def test_circuit_is_immutable():
    c = Circuit(2, [H(0)])
    with pytest.raises(AttributeError):
        c.width = 3


def test_circuit_composition():
    c = Circuit(2, [H(0)]) + Circuit(2, [CNOT(0, 1)])
    assert c.gates == (H(0), CNOT(0, 1))
    with pytest.raises(ValueError, match="widths"):
        Circuit(2) + Circuit(3)


def test_inverse_of_empty_is_empty():
    assert inverse(Circuit(3)) == Circuit(3)


def test_inverse_reverses_self_adjoint_gates():
    c = Circuit(2, [CNOT(0, 1), X(0)])
    assert inverse(c).gates == (X(0), CNOT(0, 1))


def test_inverse_unitary_oracle(rng):
    # U(c^-1) U(c) = I, checked against the full-matrix oracle.
    for _ in range(100):
        c = random_circuit(rng, 4, int(rng.integers(1, 15)))
        prod = oracle_unitary(inverse(c)) @ oracle_unitary(c)
        assert np.abs(prod - np.eye(16)).max() < 1e-10


def test_inverse_involution(rng):
    for _ in range(50):
        c = random_circuit(rng, 5, 12)
        assert inverse(inverse(c)) == c


def test_circuit_unitarity_small_widths(rng):
    for width in (2, 3, 4, 5, 6):
        c = random_circuit(rng, width, 15)
        U = oracle_unitary(c)
        assert np.abs(U.conj().T @ U - np.eye(1 << width)).max() < 1e-10


def test_circuit_unitarity_up_to_ten_wires(rng):
    from ionshor.simulator import circuit_unitary
    for width in (8, 10):
        c = random_circuit(rng, width, 20)
        U = circuit_unitary(c)
        assert np.abs(U.conj().T @ U - np.eye(1 << width)).max() < 1e-10


def test_serialize_empty_circuit():
    assert serialize(Circuit(0)) == "qubits 0\n"


def test_serialize_single_cnot():
    assert serialize(Circuit(2, [CNOT(0, 1)])) == "qubits 2\nCNOT 0 1\n"


def test_roundtrip_all_param_kinds(rng):
    gates = [X(0), H(1), CNOT(0, 1), SWAP(1, 2), TOFFOLI(0, 1, 2),
             FREDKIN(2, 1, 0), CRK(0, 2, 3), CRK_INV(2, 0, 5), CV(0, 1),
             CV_INV(1, 0), U1(2, haar_unitary(rng)),
             R(0, 0.1234567890123456, -2.5), XX(0, 2, np.pi / 8)]
    c = Circuit(3, gates)
    assert parse(serialize(c)) == c


def test_roundtrip_random_circuits(rng):
    for _ in range(25):
        c = random_circuit(rng, 6, 20)
        assert parse(serialize(c)) == c


def test_parse_skips_comments_and_blanks():
    text = "# leading comment\n\nqubits 2\nH 0  # trailing\n\nCNOT 0 1\n"
    assert parse(text) == Circuit(2, [H(0), CNOT(0, 1)])


@pytest.mark.parametrize("text,fragment", [
    ("qubits 2\nBOGUS 0", "line 2: unknown gate"),
    ("qubits 2\nCNOT 0 5", "line 2: wire out of range"),
    ("qubits 2\nCNOT 0", "line 2: CNOT expects"),
    ("qubits 2\nR 0 abc 0.0", "line 2: malformed numeric"),
    ("qubits 2\nCNOT 0 x", "line 2: malformed wire"),
    ("qubits 2\nCNOT 1 1", "line 2: "),
    ("nonsense", "line 1: expected header"),
    ("qubits -1", "line 1: width"),
    ("", "line 1: missing"),
])
def test_parse_diagnostics(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse(text)


def test_layout_geometry():
    for n_x, n in [(0, 1), (1, 1), (8, 3), (18, 8)]:
        lay = RegisterLayout(n_x, n)
        regs = lay.registers()
        assert list(regs) == ["x", "z", "a", "b", "c", "N", "t"]
        assert [len(r) for r in regs.values()] == [n_x, n, n, n + 1, n, n, 1]
        assert [w for reg in regs.values() for w in reg] == list(range(lay.width))
        assert lay.t == lay.width - 1
        twin = RegisterLayout(n_x, n)
        assert twin == lay and hash(twin) == hash(lay)
        assert lay != RegisterLayout(n_x + 1, n) and lay != RegisterLayout(n_x, n + 1)
    assert repr(RegisterLayout(8, 3)) == "RegisterLayout(n_x=8, n=3)"


def test_layout_encode_decode():
    lay = RegisterLayout(4, 3)
    basis = lay.encode(x=9, z=1, b=10, N=5, t=1)
    decoded = lay.decode(basis)
    assert decoded == {"x": 9, "z": 1, "a": 0, "b": 10, "c": 0, "N": 5, "t": 1}
    with pytest.raises(ValueError, match="fit"):
        lay.encode(z=8)
    with pytest.raises(ValueError, match="unknown register"):
        lay.encode(q=1)
