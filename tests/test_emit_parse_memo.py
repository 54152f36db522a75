"""Memoised emission and parsing against per-gate reference renderers.

``NativeProgram.to_text``/``to_json`` format each distinct gate object once
and ``parse`` parses each distinct line once; these tests compare them with
the plain per-gate code on programs with shared objects, equal-valued
distinct objects and floats whose formatting is easy to get wrong.
"""
import json
import math

import numpy as np
import pytest

from ionshor.circuit import (
    CNOT, H, R, XX, Circuit, Gate, GateKind, ParseError, parse, serialize,
)
from ionshor.transpiler import NativeProgram, transpile
from conftest import random_circuit


def reference_text(p: NativeProgram) -> str:
    lines = [f"qubits {p.width}"]
    for g in p.gates:
        fields = [g.kind.value, *map(str, g.wires)]
        fields += [f"{x:.12g}" for x in g.params]
        lines.append(" ".join(fields))
    lines.append(f"# global_phase {p.global_phase:.12g}")
    return "\n".join(lines) + "\n"


def reference_json(p: NativeProgram) -> str:
    gates = [{"gate": g.kind.value, "wires": list(g.wires), "params": list(g.params)}
             for g in p.gates]
    return json.dumps({"qubits": p.width, "gates": gates,
                       "global_phase": p.global_phase})


SEVENTEEN_DIGITS = 0.1 + 0.2          # repr is 0.30000000000000004

_shared_r = R(0, 0.25, -1.5)
_shared_xx = XX(0, 2, math.pi / 8)

PROGRAMS = {
    "one_object_repeated": NativeProgram(
        3, (_shared_r, _shared_xx, _shared_r, _shared_r, _shared_xx, _shared_r), 0.5),
    "equal_valued_distinct_objects": NativeProgram(
        3, (R(0, 0.25, -1.5), R(0, 0.25, -1.5), XX(0, 2, 0.5), XX(0, 2, 0.5),
            R(0, 0.25, -1.5)), -0.75),
    "awkward_floats": NativeProgram(
        4, (R(0, -0.0, 1e-300), XX(1, 3, 1e17), R(2, SEVENTEEN_DIGITS, -0.0),
            XX(3, 0, -SEVENTEEN_DIGITS), R(0, -0.0, 1e-300), R(1, 1e17, 5e-324),
            XX(0, 2, 5e-324), XX(2, 1, -0.0)),
        SEVENTEEN_DIGITS),
    "negative_zero_phase": NativeProgram(2, (R(1, 1.0, 2.0),), -0.0),
    "non_float_params": NativeProgram(
        2, (Gate(GateKind.R, (0,), (1, 2)),
            Gate(GateKind.R, (1,), (np.float64(0.5), 0.25)),
            Gate(GateKind.XX, (0, 1), (np.float64(SEVENTEEN_DIGITS),)),
            Gate(GateKind.R, (1,), (True, -0.0)))),
    "empty": NativeProgram(0, ()),
    "empty_with_width": NativeProgram(5, (), 1e-300),
}


@pytest.mark.parametrize("name", PROGRAMS)
def test_to_text_matches_per_gate_reference(name):
    program = PROGRAMS[name]
    assert program.to_text() == reference_text(program)


@pytest.mark.parametrize("name", PROGRAMS)
def test_to_json_matches_per_gate_reference(name):
    program = PROGRAMS[name]
    assert program.to_json() == reference_json(program)


@pytest.mark.parametrize("name", PROGRAMS)
def test_to_json_round_trips(name):
    program = PROGRAMS[name]
    loaded = json.loads(program.to_json())
    assert loaded["qubits"] == program.width
    assert len(loaded["gates"]) == len(program.gates)
    for entry, g in zip(loaded["gates"], program.gates):
        assert entry == {"gate": g.kind.value, "wires": list(g.wires),
                         "params": list(g.params)}
        for got, want in zip(entry["params"], g.params):
            assert math.copysign(1.0, got) == math.copysign(1.0, want)
    assert loaded["global_phase"] == program.global_phase
    assert math.copysign(1.0, loaded["global_phase"]) == \
        math.copysign(1.0, program.global_phase)


def test_transpiled_program_matches_references(rng):
    # The lowering shares gate objects among repeats; the memo must not care.
    base = random_circuit(rng, 4, 12)
    program = transpile(Circuit(4, base.gates * 6))
    assert len({id(g) for g in program.gates}) < len(program.gates)
    assert program.to_text() == reference_text(program)
    assert program.to_json() == reference_json(program)


def test_parse_repeated_lines_share_one_gate():
    text = ("qubits 3\nCNOT 0 1\n  CNOT   0 1  # spaced\nCNOT 0 1# tight\n"
            "H 2\nCNOT 0 1\n")
    c = parse(text)
    assert c == Circuit(3, [CNOT(0, 1)] * 3 + [H(2), CNOT(0, 1)])
    assert c.gates[0] is c.gates[2] is c.gates[4]


@pytest.mark.parametrize("bad,message", [
    ("CNOT 0 5", "line 402: wire out of range for width 2: (0, 5)"),
    ("R 0 nan 0.25", "line 402: R params must be finite, got (nan, 0.25)"),
    ("XX 0 1 inf", "line 402: XX params must be finite, got (inf,)"),
    ("qubits 2", "line 402: unknown gate 'qubits'"),
    ("R 0 0.5", "line 402: R expects 1 wires and 2 params, got 2 fields"),
])
def test_parse_error_after_memo_hits_keeps_its_line(bad, message):
    body = "H 0\nR 1 0.5 0.25  # c\nXX 0 1 0.5\nCNOT 1 0\n" * 100
    with pytest.raises(ParseError) as exc:
        parse("qubits 2\n" + body + bad + "\nH 0\n")
    assert str(exc.value) == message


def test_roundtrip_with_many_repeated_gates(rng):
    for _ in range(10):
        base = list(random_circuit(rng, 5, 15).gates)
        picks = rng.integers(len(base), size=300)
        c = Circuit(5, [base[i] for i in picks])
        assert parse(serialize(c)) == c
