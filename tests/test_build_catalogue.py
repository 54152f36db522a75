"""`ionshor build` against the library templates and a per-gate renderer.

Every catalogue name builds exactly its library template's circuit text,
whatever its case and with a trailing ``_``; ``serialize`` matches the plain
one-line-per-gate renderer on circuits with shared and equal-valued gate
objects; and three build outputs keep pinned digests.
"""
import hashlib
import math

import numpy as np
import pytest

from ionshor import templates
from ionshor.circuit import (
    CNOT, H, R, XX, Circuit, Gate, GateKind, RegisterLayout, parse, serialize,
)
from ionshor.cli import main
from ionshor.templates import TemplateParams


def reference_serialize(circuit: Circuit) -> str:
    """One line per gate: kind, wires, k as an int for CR_k, repr otherwise."""
    lines = [f"qubits {circuit.width}"]
    for g in circuit.gates:
        tokens = [g.kind.value, *map(str, g.wires)]
        if g.kind in (GateKind.CRK, GateKind.CRKINV):
            tokens.append(str(int(g.params[0])))
        else:
            tokens += [repr(p) for p in g.params]
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


def run(capsys, *argv):
    code = main(["build", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# (spelling, options, the library circuit it names)
CATALOGUE = [
    ("Sum", [], lambda: templates.sum_gate(0, 1, 2)),
    ("Carry", [], lambda: templates.carry_gate(0, 1, 2, 3)),
    ("Carry_Inv", [], lambda: templates.carry_inv(0, 1, 2, 3)),
    ("Ctrl_Swap", [], lambda: templates.ctrl_swap(0, 1, 2)),
    ("Cr_K", ["--k", "3"], lambda: templates.cr_k(0, 1, 3)),
    ("cR_k_Inv", ["--k", "5"], lambda: templates.cr_k_inv(0, 1, 5)),
    ("CrK", ["--k", "2"], lambda: templates.cr_k(0, 1, 2)),
    ("CRK_inv", ["--k", "4"], lambda: templates.cr_k_inv(0, 1, 4)),
    ("Qft", ["--n", "4"], lambda: templates.qft(range(4))),
    ("qFT_Inv", ["--n", "3"], lambda: templates.qft_inv(range(3))),
    ("Adder", ["--n", "3"], lambda: templates.adder(RegisterLayout(0, 3))),
    ("Adder_INV", ["--n", "2"], lambda: templates.adder_inv(RegisterLayout(0, 2))),
    ("Adder_Mod", ["--N", "5"],
     lambda: templates.adder_mod(TemplateParams(N=5))),
    ("adder_MOD_inv", ["--N", "7", "--n", "4"],
     lambda: templates.adder_mod_inv(TemplateParams(N=7, n=4))),
    ("Ctrl_Mult_Mod", ["--N", "5", "--m", "3"],
     lambda: templates.ctrl_mult_mod(TemplateParams(N=5, m=3, n_x=1))),
    ("Ctrl_MULT_Mod_Inv", ["--m", "2", "--N", "7"],
     lambda: templates.ctrl_mult_mod_inv(TemplateParams(N=7, m=2, n_x=1))),
    ("Modular_Exponentiation", ["--N", "5", "--y", "3", "--nx", "3"],
     lambda: templates.modular_exponentiation(TemplateParams(N=5, y=3, n_x=3))),
    ("Order_Finding", ["--N", "5", "--y", "2"],
     lambda: templates.order_finding(
         TemplateParams(N=5, y=2, n_x=templates.default_n_x(3, None)))),
]


@pytest.mark.parametrize("suffix", ["", "_"])
@pytest.mark.parametrize("name,options,make", CATALOGUE,
                         ids=[row[0] for row in CATALOGUE])
def test_build_matches_library_template(capsys, name, options, make, suffix):
    code, out, err = run(capsys, "--template", name + suffix, *options)
    assert code == 0, err
    assert out == reference_serialize(make())


@pytest.mark.parametrize("argv,digest", [
    (["--template", "Order_Finding", "--N", "5", "--y", "3", "--nx", "8"],
     "f0584a158c8d23e51f915900d9821b241394cefa0405c6fd2d8fcb31cfa4e63e"),
    (["--template", "Ctrl_Mult_Mod_inv", "--N", "15", "--m", "7"],
     "5ee4ea25be5982b919c20affd431974ac1165d265578c349a5e15e4070ce5c2b"),
    (["--template", "Order_Finding", "--N", "221", "--y", "3"],
     "5b2f5c669b5880894c91958ea1e82250cd25b6c4a1292c961bbbd9aeb1c72d57"),
])
def test_build_output_digest(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name,options,missing", [
    ("CR_k", [], "k"),
    ("QFT_inv", [], "n"),
    ("ADDER", [], "n"),
    ("ADDER_MOD_inv", ["--n", "4"], "N"),
    ("Ctrl_MULT_MOD", [], "N"),
    ("Ctrl_MULT_MOD", ["--m", "3"], "N"),
    ("Ctrl_MULT_MOD_inv", ["--N", "5"], "m"),
    ("MODULAR_EXPONENTIATION", ["--y", "3"], "N"),
    ("Order_Finding", ["--N", "5", "--nx", "4"], "y"),
])
def test_build_names_first_missing_option(capsys, name, options, missing):
    code, out, err = run(capsys, "--template", name, *options)
    assert (code, out) == (1, "")
    assert err == f"error: --{missing} is required for this template\n"


def test_build_unknown_template_lists_the_names(capsys):
    code, out, err = run(capsys, "--template", "Order-Finding")
    assert (code, out) == (1, "")
    assert err.startswith("error: unknown template 'Order-Finding'")
    for name, _, _ in CATALOGUE:
        assert name.lower() in err


_cnot = CNOT(0, 1)
_r = R(2, 0.25, -1.5)
_shared_k = (3.0,)           # one tuple read as CR_k's k and as XX's chi
SEVENTEEN_DIGITS = 0.1 + 0.2  # repr is 0.30000000000000004

SERIALIZE_CIRCUITS = {
    "one_object_repeated": Circuit(3, [_cnot, _r, _cnot, _cnot, _r, _r, _cnot]),
    "equal_valued_distinct_objects": Circuit(
        3, [CNOT(0, 1), CNOT(0, 1), R(2, 0.25, -1.5), R(2, 0.25, -1.5),
            XX(0, 2, 0.5), XX(0, 2, 0.5), H(1), H(1)]),
    "shared_params_tuple": Circuit(
        3, [Gate(GateKind.XX, (1, 2), _shared_k),
            Gate(GateKind.CRK, (0, 1), _shared_k),
            Gate(GateKind.CRKINV, (2, 0), _shared_k),
            Gate(GateKind.XX, (0, 1), _shared_k),
            XX(0, 1, -0.0), XX(1, 2, 0.0), R(0, -0.0, SEVENTEEN_DIGITS),
            R(1, SEVENTEEN_DIGITS, 5e-324), XX(2, 0, -SEVENTEEN_DIGITS),
            Gate(GateKind.CRK, (1, 2), _shared_k)]),
}


@pytest.mark.parametrize("name", SERIALIZE_CIRCUITS)
def test_serialize_matches_per_gate_reference(name):
    circuit = SERIALIZE_CIRCUITS[name]
    assert serialize(circuit) == reference_serialize(circuit)
    assert parse(serialize(circuit)) == circuit


def test_serialize_round_trips_numpy_and_bool_params():
    c = Circuit(3, [
        Gate(GateKind.XX, (0, 1), (np.float64(0.1),)),
        Gate(GateKind.R, (2,), (np.float32(0.1), np.int64(3))),
        Gate(GateKind.XX, (1, 2), (True,)),
        Gate(GateKind.R, (0,), (False, np.float64(-0.0))),
        Gate(GateKind.CRK, (0, 1), (np.int64(3),)),
        Gate(GateKind.CRKINV, (1, 2), (True,)),
    ])
    text = serialize(c)
    assert text.splitlines()[1:] == [
        "XX 0 1 0.1", "R 2 0.10000000149011612 3.0", "XX 1 2 1.0",
        "R 0 0.0 -0.0", "CRK 0 1 3", "CRKINV 1 2 1"]
    back = parse(text)
    assert back == c
    assert math.copysign(1.0, back.gates[3].params[1]) == -1.0
