import math

import numpy as np
import pytest

from ionshor import templates
from ionshor.circuit import SWAP, Circuit, Gate, GateKind, RegisterLayout, inverse
from ionshor.simulator import circuit_unitary, simulate_reversible
from ionshor.templates import (
    TemplateParams, adder, adder_inv, adder_mod, adder_mod_inv, carry_gate,
    carry_inv, cr_k, cr_k_inv, ctrl_mult_mod, ctrl_mult_mod_inv, ctrl_swap,
    modular_exponentiation, order_finding, qft, qft_inv, sum_gate,
)
from conftest import compact, oracle_unitary

ELEMENTARY = {GateKind.X, GateKind.H, GateKind.CNOT, GateKind.SWAP,
              GateKind.TOFFOLI, GateKind.FREDKIN, GateKind.CRK, GateKind.CRKINV}


def test_sum_gate_truth_table():
    c = sum_gate(0, 1, 2)
    for a in (0, 1):
        for b in (0, 1):
            for s in (0, 1):
                out = simulate_reversible(c, a | b << 1 | s << 2)
                assert out == a | b << 1 | (s ^ a ^ b) << 2
    # |1,1,0> stays put, |1,0,0> -> |1,0,1>
    assert simulate_reversible(c, 0b011) == 0b011
    assert simulate_reversible(c, 0b001) == 0b101


def delta(a: int, b: int, s: int) -> int:
    return 1 if a + b + s > 1 else 0


def test_carry_gate_carry_bit():
    # wires (c_in, a, b, c_out); only the c_out column is contractual.
    c = carry_gate(0, 1, 2, 3)
    assert delta(1, 1, 0) == 1
    assert delta(0, 0, 0) == 0
    for basis in range(16):
        s, a, b, cn = (basis >> i & 1 for i in range(4))
        out = simulate_reversible(c, basis)
        assert out >> 3 & 1 == cn ^ delta(a, b, s)
        assert out & 0b011 == basis & 0b011  # c_in and a untouched


def _run_arith(circuit, layout, **regs) -> dict:
    out = simulate_reversible(circuit, layout.encode(**regs))
    return layout.decode(out)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_adder_exhaustive(n):
    layout = RegisterLayout(0, n)
    circuit = adder(layout)
    for a in range(2 ** n):
        for b in range(2 ** n):
            got = _run_arith(circuit, layout, a=a, b=b)
            assert got["b"] == a + b
            assert got["a"] == a and got["c"] == 0


def test_adder_examples():
    layout = RegisterLayout(0, 3)
    circuit = adder(layout)
    assert _run_arith(circuit, layout, a=0, b=6)["b"] == 6
    assert _run_arith(circuit, layout, a=3, b=2)["b"] == 5
    assert _run_arith(circuit, layout, a=7, b=7)["b"] == 14


@pytest.mark.parametrize("n", [2, 3])
def test_adder_mod_exhaustive(n):
    layout = RegisterLayout(0, n)
    for N in range(1, 2 ** n):
        circuit = adder_mod(TemplateParams(N=N, n=n)) \
            if N >= 2 else None
        if circuit is None:
            continue
        for a in range(N):
            for b in range(N):
                got = _run_arith(circuit, layout, a=a, b=b, N=N)
                assert got["b"] == (a + b) % N, (N, a, b)
                assert (got["a"], got["c"], got["N"], got["t"]) == (a, 0, N, 0)


def test_adder_mod_examples():
    layout = RegisterLayout(0, 3)
    circuit = adder_mod(TemplateParams(N=5))
    assert _run_arith(circuit, layout, a=0, b=3, N=5)["b"] == 3
    assert _run_arith(circuit, layout, a=3, b=4, N=5)["b"] == 2


def test_adder_mod_rejects_oversized_N():
    with pytest.raises(ValueError, match="N is too big"):
        TemplateParams(N=8, n=3)


def test_ctrl_mult_mod_examples():
    params = TemplateParams(N=5, m=3, n_x=1)
    layout = params.layout
    circuit = ctrl_mult_mod(params)
    got = _run_arith(circuit, layout, x=0, z=2, N=5)
    assert got["b"] == 2                      # control off: b receives z
    got = _run_arith(circuit, layout, x=1, z=2, N=5)
    assert got["b"] == 1                      # 2*3 mod 5
    got = _run_arith(circuit, layout, x=1, z=1, N=5)
    assert got["b"] == 3


@pytest.mark.parametrize("n", [2, 3])
def test_ctrl_mult_mod_exhaustive(n):
    for N in range(2, 2 ** n):
        for m in range(1, N):
            if math.gcd(m, N) != 1:
                continue
            params = TemplateParams(N=N, n=n, m=m, n_x=1)
            circuit = ctrl_mult_mod(params)
            layout = params.layout
            for z in range(N):
                for ctl in (0, 1):
                    got = _run_arith(circuit, layout, x=ctl, z=z, N=N)
                    assert got["b"] == (z * m % N if ctl else z)
                    assert (got["x"], got["z"], got["a"], got["c"],
                            got["N"], got["t"]) == (ctl, z, 0, 0, N, 0)


def test_ctrl_mult_mod_rejects_non_coprime_multiplier():
    with pytest.raises(ValueError, match="coprime"):
        ctrl_mult_mod(TemplateParams(N=9, m=6, n_x=1))


def test_ctrl_swap_truth_table():
    c = ctrl_swap(0, 1, 2)
    assert simulate_reversible(c, 0b010) == 0b010   # control off
    assert simulate_reversible(c, 0b011) == 0b101   # |1,1,0> -> |1,0,1>
    for basis in range(8):
        ctl, t0, t1 = basis & 1, basis >> 1 & 1, basis >> 2 & 1
        expected = basis if not ctl else (ctl | t1 << 1 | t0 << 2)
        assert simulate_reversible(c, basis) == expected


def test_modular_exponentiation_examples():
    params = TemplateParams(N=5, y=3, n_x=8)
    circuit = modular_exponentiation(params)
    layout = params.layout
    for x, expected in [(0, 1), (4, 1), (3, 2)]:
        got = _run_arith(circuit, layout, x=x, z=1, N=5)
        assert got["z"] == expected
        assert (got["x"], got["a"], got["b"], got["c"], got["t"]) \
            == (x, 0, 0, 0, 0)


@pytest.mark.parametrize("N,y,n_x", [(5, 3, 8), (15, 7, 4), (21, 5, 6), (221, 3, 3)])
def test_modular_exponentiation_reuses_adder_mod_blocks_exactly(N, y, n_x):
    # one build holds n*n_x forward and n*n_x reversed ADDER_MOD copies,
    # and every copy is made of the same gate objects
    params = TemplateParams(N=N, y=y, n_x=n_x)
    circuit = modular_exponentiation(params)
    block = templates._adder_mod_gates(params.layout, N)
    assert adder_mod(params).gates == block
    gates, size = circuit.gates, len(block)

    def copies(run):
        """The gate objects of each copy of ``run`` in the circuit."""
        return [tuple(map(id, gates[k:k + size])) for k in range(len(gates))
                if gates[k] == run[0] and gates[k:k + size] == run]

    forward, backward = copies(block), copies(block[::-1])
    assert len(forward) == len(backward) == params.n * n_x
    assert set(forward) == {forward[0]}
    assert set(backward) == {forward[0][::-1]}
    assert modular_exponentiation(params) == circuit


SELF_ADJOINT = {GateKind.X, GateKind.CNOT, GateKind.SWAP, GateKind.TOFFOLI}


@pytest.mark.parametrize("N", [3, 5, 7, 15, 21, 33])
def test_arithmetic_blocks_invert_by_reversal(N):
    # _inverted reverses without taking adjoints, which is exact only while
    # every arithmetic gate is its own adjoint.
    params = TemplateParams(N=N, y=2, m=2, n_x=3)
    for c in (adder(params.layout), adder_mod(params), ctrl_mult_mod(params),
              modular_exponentiation(params)):
        assert {g.kind for g in c.gates} <= SELF_ADJOINT
        assert Circuit(c.width, templates._inverted(list(c.gates))) == inverse(c)


@pytest.mark.parametrize("N", [3, 5, 7, 15, 21, 33])
def test_exponent_stages_make_up_modular_exponentiation(N):
    # the order-finding evaluator checks these stages, so they must be the
    # circuit's own gates, each built as CMM(m_i), SWAP(z, b), CMM(m_i^-1)^-1
    params = TemplateParams(N=N, y=2, n_x=4)
    layout = params.layout
    stages = list(templates._exponent_stages(layout, 2, N))
    assert [g for gates in stages for g in gates] \
        == list(modular_exponentiation(params).gates)
    swaps = tuple(SWAP(z, b) for z, b in zip(layout.z, layout.b))
    assert len(stages) == 4
    for i, gates in enumerate(stages):
        assert isinstance(gates, list) and all(isinstance(g, Gate) for g in gates)
        control, m = layout.x[i], pow(2, 2 ** i, N)
        multiply = ctrl_mult_mod(TemplateParams(N=N, m=m, n_x=4), control)
        unmultiply = ctrl_mult_mod_inv(
            TemplateParams(N=N, m=pow(m, -1, N), n_x=4), control)
        assert tuple(gates) == multiply.gates + swaps + unmultiply.gates


def test_modular_exponentiation_rejects_non_coprime_base():
    with pytest.raises(ValueError, match="coprime"):
        modular_exponentiation(TemplateParams(N=9, y=6, n_x=8))


def test_qft_single_wire_is_hadamard():
    U = circuit_unitary(qft([0]))
    expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.abs(U - expected).max() < 1e-12


def test_qft_on_zero_gives_uniform_superposition():
    from ionshor.simulator import simulate_dense
    state = simulate_dense(qft(range(4)))
    assert np.abs(state - 1 / 4).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_qft_matches_dft_matrix(n):
    M = 2 ** n
    dft = np.array([[np.exp(2j * np.pi * j * k / M) for k in range(M)]
                    for j in range(M)]) / math.sqrt(M)
    assert np.abs(oracle_unitary(qft(range(n))) - dft).max() < 1e-10


def test_qft_inv_is_structural_inverse():
    for n in (1, 2, 3, 5):
        assert qft_inv(range(n)) == inverse(qft(range(n)))


def test_cr_k_templates():
    assert cr_k(0, 1, 3).gates[0].kind is GateKind.CRK
    assert cr_k_inv(0, 1, 3) == inverse(cr_k(0, 1, 3))


def test_order_finding_structure():
    params = TemplateParams(N=5, y=3, n_x=8)
    circuit = order_finding(params)
    assert circuit.width == 8 + 5 * 3 + 2 == 25
    head = circuit.gates[:8]
    assert all(g.kind is GateKind.H and g.wires == (w,)
               for w, g in enumerate(head))
    tail_kinds = {g.kind for g in circuit.gates[8:]}
    assert GateKind.CRKINV in tail_kinds  # ends with the inverse QFT block


def test_order_finding_checks_register_sizes():
    with pytest.raises(ValueError, match="n_x"):
        order_finding(TemplateParams(N=5, y=3, n_x=6))


def test_templates_emit_only_elementary_gates():
    circuits = [
        sum_gate(0, 1, 2), carry_gate(0, 1, 2, 3), ctrl_swap(0, 1, 2),
        adder(RegisterLayout(0, 3)),
        adder_mod(TemplateParams(N=5)),
        ctrl_mult_mod(TemplateParams(N=5, m=3, n_x=1)),
        modular_exponentiation(TemplateParams(N=5, y=3, n_x=8)),
        qft(range(4)), qft_inv(range(4)),
        order_finding(TemplateParams(N=5, y=3, n_x=8)),
    ]
    for c in circuits:
        assert {g.kind for g in c.gates} <= ELEMENTARY


def test_arithmetic_inverse_templates_match_inverse_unitary():
    # Unitary-level check on instances small enough to build densely, after
    # compacting to the touched wires.
    lay2 = RegisterLayout(0, 2)
    pairs = [
        (carry_inv(0, 1, 2, 3), inverse(carry_gate(0, 1, 2, 3))),
        (adder_inv(lay2), inverse(adder(lay2))),
        (adder_mod_inv(TemplateParams(N=3, n=2)),
         inverse(adder_mod(TemplateParams(N=3, n=2)))),
        (qft_inv(range(4)), inverse(qft(range(4)))),
    ]
    for inv_template, inverted in pairs:
        a = circuit_unitary(compact(inv_template))
        b = circuit_unitary(compact(inverted))
        assert np.abs(a - b).max() < 1e-10


def test_ctrl_mult_mod_inverse_is_permutation_inverse():
    # Too wide for a dense unitary; check the permutation cancels instead.
    params = TemplateParams(N=5, m=3, n_x=1)
    roundtrip = ctrl_mult_mod(params) + ctrl_mult_mod_inv(params)
    for basis in range(0, 1 << roundtrip.width, 97):
        assert simulate_reversible(roundtrip, basis) == basis


def test_width_grows_linearly():
    for n in range(1, 7):
        for n_x in (0, 1, 2 * n + 2):
            assert RegisterLayout(n_x, n).width == n_x + 5 * n + 2
