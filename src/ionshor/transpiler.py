"""Lowering to trapped-ion natives: R(theta, phi) rotations and XX(chi).

The lowering has four steps:

  1. expand SWAP, Fredkin and CR_k over {Toffoli, CNOT, single-qubit};
  2. replace each Toffoli by the controlled-sqrt(X) block
     CV(b,t) CNOT(a,b) CV'(b,t) CNOT(a,b) CV(a,t);
  3. replace CNOT / CV / CV' by one XX(pi/4) / XX(pi/8) conjugated with
     fixed single-qubit gates (identities below, exact including phase);
  4. multiply every maximal run of single-qubit gates on a wire into one
     unitary and emit it as at most two R rotations via the closed-form
     decomposition U = e^{id} R(-pi, -c-pi/2) R(2b+pi, a-c-pi/2).

``transpile`` runs all four steps as one pass over the source gates: the
fixed factors of each step-3 block go straight into the pending product of
their wire, no intermediate circuit is built, and each distinct
(product, wire) is decomposed once per call.  ``lower_toffoli``,
``lower_two_qubit`` and ``merge_singles`` are stepwise views of the same
lowering, built from the same tables, and
``merge_singles(lower_two_qubit(lower_toffoli(c), s))`` equals
``transpile(c, s)`` exactly, gates and phase.

Phases are tracked, not discarded: the identities in step 3 are exact and
step 4 accumulates each d into NativeProgram.global_phase, so the emitted
program times e^{i phase} reproduces the source unitary to float precision.
"""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .circuit import (
    U1, R, XX, Circuit, Gate, GateKind, gate_matrix,
)

__all__ = [
    "NativeProgram", "UnitaryParams", "decompose_unitary", "reconstruct",
    "lower_toffoli", "lower_two_qubit", "merge_singles", "transpile",
]

_SINGLE_KINDS = frozenset({GateKind.X, GateKind.H, GateKind.U1, GateKind.R})

# Primitive 2x2 blocks the step-3 identities are assembled from.
_I2 = np.eye(2, dtype=complex)
_PZ = np.array([[1, 0], [0, -1]], dtype=complex)
_HM = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def _rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _phase(alpha: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * alpha)]).astype(complex)


def _fixed(matrix: np.ndarray) -> np.ndarray:
    """A fixed single-qubit factor of step 3 exactly as step 4 reads it back
    from its U1 gate, so one-pass products match stepwise ones bit for bit."""
    return gate_matrix(U1(0, matrix))


# Step-3 identities, kind -> (pre on control, chi, post on control, post on
# target):
#   CNOT = e^{i pi/4} (RZ(pi/2) H Z (x) RX(pi/2)) XX(pi/4) (Z H (x) I)
#   CV   = (P(pi/4) H Z (x) RX(pi/4)) XX(pi/8) (Z H (x) I)
#   CV'  = (P(-pi/4) H (x) RX(-pi/4)) XX(pi/8) (H (x) I)
_BLOCKS = {
    GateKind.CNOT: (
        _fixed(_PZ @ _HM), math.pi / 4,
        _fixed(cmath.exp(0.25j * math.pi) * (_rz(math.pi / 2) @ _HM @ _PZ)),
        _fixed(_rx(math.pi / 2))),
    GateKind.CV: (
        _fixed(_PZ @ _HM), math.pi / 8,
        _fixed(_phase(math.pi / 4) @ _HM @ _PZ), _fixed(_rx(math.pi / 4))),
    GateKind.CVINV: (
        _fixed(_HM), math.pi / 8,
        _fixed(_phase(-math.pi / 4) @ _HM), _fixed(_rx(-math.pi / 4))),
}
# XX(chi) = (Z (x) I) XX(-chi) (Z (x) I), for pairs that offer only -chi.
_Z = _fixed(_PZ)

# Steps 1 and 2: SWAP, Toffoli and Fredkin as sequences of step-3 blocks,
# each a kind and the positions of its (control, target) in the source
# gate's wires.  Toffoli(a, b, t) = CV(b,t) CNOT(a,b) CV'(b,t) CNOT(a,b)
# CV(a,t) and Fredkin(c, t0, t1) = CNOT(t1,t0) Toffoli(c,t0,t1) CNOT(t1,t0).
_TOFFOLI_BLOCKS = ((GateKind.CV, (1, 2)), (GateKind.CNOT, (0, 1)),
                   (GateKind.CVINV, (1, 2)), (GateKind.CNOT, (0, 1)),
                   (GateKind.CV, (0, 2)))
_EXPANSIONS = {
    GateKind.SWAP: ((GateKind.CNOT, (0, 1)), (GateKind.CNOT, (1, 0)),
                    (GateKind.CNOT, (0, 1))),
    GateKind.TOFFOLI: _TOFFOLI_BLOCKS,
    GateKind.FREDKIN: ((GateKind.CNOT, (2, 1)), *_TOFFOLI_BLOCKS,
                       (GateKind.CNOT, (2, 1))),
}
_THREE_QUBIT = frozenset({GateKind.TOFFOLI, GateKind.FREDKIN})


def lower_toffoli(circuit: Circuit) -> Circuit:
    """Remove Toffoli and Fredkin gates.

    Fredkin first becomes CNOT-conjugated Toffoli; each Toffoli then becomes
    two CNOTs and three controlled-sqrt(X) gates.
    """
    lowered: list[Gate] = []
    for g in circuit.gates:
        if g.kind in _THREE_QUBIT:
            w = g.wires
            lowered += [Gate(kind, (w[i], w[j]))
                        for kind, (i, j) in _EXPANSIONS[g.kind]]
        else:
            lowered.append(g)
    return Circuit(circuit.width, lowered, circuit.layout)


def _crk_phases(g: Gate) -> tuple[np.ndarray, np.ndarray]:
    """P(-phi/2) and P(phi/2) of CR_k(c, t) = (P(phi/2) (x) P(phi/2))
    CNOT (I (x) P(-phi/2)) CNOT, with phi = +-2 pi / 2^k."""
    phi = 2 * math.pi / 2 ** int(g.params[0])
    if g.kind is GateKind.CRKINV:
        phi = -phi
    return _fixed(_phase(-phi / 2)), _fixed(_phase(phi / 2))


XXSigns = Mapping[frozenset, int] | int | None


def _pair_sign(xx_sign: XXSigns, w0: int, w1: int) -> int:
    if xx_sign is None:
        return 1
    if isinstance(xx_sign, Mapping):
        return 1 if xx_sign.get(frozenset((w0, w1)), 1) >= 0 else -1
    return 1 if xx_sign >= 0 else -1


def _walk(circuit: Circuit, xx_sign: XXSigns, three_qubit: bool,
          single: Callable[[int, np.ndarray], None],
          source_single: Callable[[Gate], None],
          native_xx: Callable[[Gate], None]) -> None:
    """Lower ``circuit`` through step 3, handing each gate to a callback.

    In circuit order, ``single(w, m)`` gets each fixed factor m placed on
    wire w, ``source_single(g)`` each single-qubit gate of the source, and
    ``native_xx(g)`` each XX gate, with chi already of the sign the pair
    offers.  Toffoli and Fredkin are lowered only if ``three_qubit`` is set.
    """
    xx_gates: dict[tuple[int, int, float], Gate] = {}
    crk: dict[tuple[GateKind, float], tuple[np.ndarray, np.ndarray]] = {}

    def block_xx(w0: int, w1: int, chi: float) -> Gate:
        # block angles are fixed non-zero floats, so the key names one gate
        key = (w0, w1, chi)
        g = xx_gates.get(key)
        if g is None:
            g = xx_gates[key] = XX(w0, w1, chi)
        return g

    def emit_xx(w0: int, w1: int, chi: float,
                make: Callable[[int, int, float], Gate]) -> None:
        if chi * _pair_sign(xx_sign, w0, w1) < 0:
            single(w0, _Z)
            native_xx(make(w0, w1, -chi))
            single(w0, _Z)
        else:
            native_xx(make(w0, w1, chi))

    def block(kind: GateKind, c: int, t: int) -> None:
        pre_c, chi, post_c, post_t = _BLOCKS[kind]
        single(c, pre_c)
        emit_xx(c, t, chi, block_xx)
        single(c, post_c)
        single(t, post_t)

    for g in circuit.gates:
        kind = g.kind
        if kind in _SINGLE_KINDS:
            source_single(g)
        elif kind in _BLOCKS:
            block(kind, *g.wires)
        elif kind is GateKind.XX:
            emit_xx(g.wires[0], g.wires[1], g.params[0], XX)
        elif kind is GateKind.SWAP or (three_qubit and kind in _THREE_QUBIT):
            w = g.wires
            for sub, (i, j) in _EXPANSIONS[kind]:
                block(sub, w[i], w[j])
        elif kind in (GateKind.CRK, GateKind.CRKINV):
            key = (kind, g.params[0])
            if key not in crk:
                crk[key] = _crk_phases(g)
            neg, pos = crk[key]
            c, t = g.wires
            block(GateKind.CNOT, c, t)
            single(t, neg)
            block(GateKind.CNOT, c, t)
            single(t, pos)
            single(c, pos)
        else:
            raise ValueError(f"cannot lower {kind.value} to the native set")


def lower_two_qubit(circuit: Circuit, xx_sign: XXSigns = None) -> Circuit:
    """Map every two-qubit gate onto a single XX block.

    ``xx_sign`` declares which chi sign the hardware offers, either globally
    or as a mapping frozenset({w0, w1}) -> +-1 per qubit pair (default all
    positive).  An XX whose angle has the unavailable sign is emitted as
    XX(-chi) conjugated by Z on the first wire.
    """
    lowered: list[Gate] = []
    _walk(circuit, xx_sign, False,
          single=lambda w, m: lowered.append(U1(w, m)),
          source_single=lowered.append, native_xx=lowered.append)
    return Circuit(circuit.width, lowered, circuit.layout)


@dataclass(frozen=True, slots=True)
class UnitaryParams:
    """Angles (a, b, c, d) with U = e^{id} R(-pi,-c-pi/2) R(2b+pi,a-c-pi/2)."""

    a: float
    b: float
    c: float
    d: float


def decompose_unitary(U) -> UnitaryParams:
    """Closed-form angles for a 2x2 unitary; b always lands in [0, pi/2].

    The target form is U = e^{id} [[e^{ia} cos b, e^{ic} sin b],
    [-e^{-ic} sin b, e^{-ia} cos b]] with b = arccos|u00|, so in exact
    arithmetic a = (phi00-phi11)/2, c = (phi00-2*phi10+phi11)/2 - pi and
    d = (phi00+phi11)/2 with phi_ij = Arg(u_ij).  On float inputs the
    arguments of nearly vanishing entries magnify the unitarity defect, so
    the angles are anchored to whichever pair dominates (the same values up
    to that defect, by the unitarity constraint linking the two columns);
    the phase of a genuinely vanishing pair is free and is pinned to 0.
    """
    U = np.asarray(U, dtype=complex)
    if U.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {U.shape}")
    err = np.abs(U.conj().T @ U - _I2).max()
    if not err <= 1e-10:  # also rejects NaN
        raise ValueError(f"matrix is not unitary (deviation {err:.3g})")
    abs00, abs01 = abs(U[0, 0]), abs(U[0, 1])
    # atan2 evaluates arccos|u00| without the endpoint ill-conditioning,
    # since |u00|^2 + |u01|^2 = 1.
    b = math.atan2(abs01, abs00)
    if b <= math.pi / 4:         # diagonal pair dominates
        phi00, phi11 = cmath.phase(U[0, 0]), cmath.phase(U[1, 1])
        a = (phi00 - phi11) / 2
        d = (phi00 + phi11) / 2
        c = cmath.phase(U[0, 1]) - d if abs01 > 1e-12 else 0.0
    else:                        # off-diagonal pair dominates
        phi01, phi10 = cmath.phase(U[0, 1]), cmath.phase(U[1, 0])
        c = (phi01 - phi10 - math.pi) / 2
        d = (phi01 + phi10 + math.pi) / 2
        a = cmath.phase(U[0, 0]) - d if abs00 > 1e-12 else 0.0
    return UnitaryParams(a, b, c, d)


def reconstruct(params: UnitaryParams) -> np.ndarray:
    """Matrix e^{id} R(-pi,-c-pi/2) R(2b+pi,a-c-pi/2) for the given angles."""
    a, b, c, d = params.a, params.b, params.c, params.d
    first = gate_matrix(R(0, 2 * b + math.pi, a - c - math.pi / 2))
    second = gate_matrix(R(0, -math.pi, -c - math.pi / 2))
    return cmath.exp(1j * d) * second @ first


@dataclass(frozen=True)
class NativeProgram:
    """Sequence of R/XX gates plus the accumulated global phase."""

    width: int
    gates: tuple[Gate, ...]
    global_phase: float = 0.0

    def __post_init__(self) -> None:
        r, xx, width = GateKind.R, GateKind.XX, self.width
        for g in self.gates:
            kind = g.kind
            if kind is not r and kind is not xx:
                raise ValueError(f"native programs hold only R and XX gates, "
                                 f"got {kind.value}")
            for w in g.wires:
                if w >= width:
                    raise ValueError(f"gate wires {g.wires} exceed width {width}")

    def __len__(self) -> int:
        return len(self.gates)

    def as_circuit(self) -> Circuit:
        """The same gates as a Circuit; drops the global phase."""
        return Circuit(self.width, self.gates)

    def to_text(self) -> str:
        """A ``qubits <width>`` header, one gate per line with params to 12
        significant digits, and a ``# global_phase`` trailer.

        Each distinct gate object is formatted once per call.
        """
        lines = [f"qubits {self.width}", *_render_once(self.gates, _text_line)]
        lines.append(f"# global_phase {self.global_phase:.12g}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """The object {"qubits", "gates": [{"gate", "wires", "params"}, ...],
        "global_phase"} exactly as ``json.dumps`` writes it.

        Each distinct gate object is encoded once per call, and the
        fragments are joined with the separator ``json.dumps`` uses.
        """
        gates = ", ".join(_render_once(self.gates, _json_object))
        return (f'{{"qubits": {json.dumps(self.width)}, "gates": [{gates}], '
                f'"global_phase": {json.dumps(self.global_phase)}}}')


def _render_once(gates: tuple[Gate, ...], render: Callable[[Gate], str]) -> list[str]:
    """``[render(g) for g in gates]``, calling render once per distinct object.

    The lowering shares one object among all copies of a memoised gate, and
    ``gates`` holds every object for the whole call, so no id is reused.
    """
    rendered: dict[int, str] = {}
    out = []
    for g in gates:
        text = rendered.get(id(g))
        if text is None:
            text = rendered[id(g)] = render(g)
        out.append(text)
    return out


def _text_line(g: Gate) -> str:
    return " ".join([g.kind.value, *map(str, g.wires), *[f"{p:.12g}" for p in g.params]])


def _json_object(g: Gate) -> str:
    return json.dumps({"gate": g.kind.value, "wires": list(g.wires),
                       "params": list(g.params)})


_IDENTITY_TOL = 1e-12


def _flush(pending: np.ndarray, wire: int) -> tuple[tuple[Gate, ...], float]:
    """A merged single-qubit unitary as <=2 R gates, and its phase."""
    alpha = cmath.phase(pending[0, 0]) if abs(pending[0, 0]) > 0.5 \
        else cmath.phase(pending[1, 1])
    if np.abs(pending - cmath.exp(1j * alpha) * _I2).max() <= _IDENTITY_TOL:
        return (), alpha  # identity up to phase: drop the rotations entirely
    p = decompose_unitary(pending)
    return (R(wire, 2 * p.b + math.pi, p.a - p.c - math.pi / 2),
            R(wire, -math.pi, -p.c - math.pi / 2)), p.d


class _Merger:
    """Step 4: the pending product on each wire and the program so far.

    Each distinct (product, wire) goes through ``_flush`` once per merger;
    the same bytes always give the same gates and phase.
    """

    __slots__ = ("pending", "out", "phase", "flushed")

    def __init__(self) -> None:
        self.pending: dict[int, np.ndarray] = {}
        self.out: list[Gate] = []
        self.phase = 0.0
        self.flushed: dict[tuple[bytes, int], tuple[tuple[Gate, ...], float]] = {}

    def single(self, wire: int, matrix: np.ndarray) -> None:
        prev = self.pending.get(wire)
        self.pending[wire] = matrix if prev is None else matrix @ prev

    def gate(self, gate: Gate) -> None:
        self.single(gate.wires[0], gate_matrix(gate))

    def xx(self, gate: Gate) -> None:
        for w in gate.wires:
            if w in self.pending:
                self.flush(w)
        self.out.append(gate)

    def flush(self, wire: int) -> None:
        matrix = self.pending.pop(wire)
        key = (matrix.tobytes(), wire)
        hit = self.flushed.get(key)
        if hit is None:
            hit = self.flushed[key] = _flush(matrix, wire)
        self.out += hit[0]
        self.phase += hit[1]

    def program(self, width: int) -> NativeProgram:
        for w in sorted(self.pending):
            self.flush(w)
        return NativeProgram(width, tuple(self.out),
                             float(math.remainder(self.phase, 2 * math.pi)))


def merge_singles(circuit: Circuit) -> NativeProgram:
    """Collapse runs of single-qubit gates between XX gates into <=2 R each."""
    merger = _Merger()
    for g in circuit.gates:
        if g.kind in _SINGLE_KINDS:
            merger.gate(g)
        elif g.kind is GateKind.XX:
            merger.xx(g)
        else:
            raise ValueError(f"merge_singles expects only XX and single-qubit "
                             f"gates, got {g.kind.value}")
    return merger.program(circuit.width)


def transpile(circuit: Circuit, xx_sign: XXSigns = None) -> NativeProgram:
    """Run the four lowering steps as one pass; XX gates are realigned to
    the available chi sign (default positive)."""
    merger = _Merger()
    _walk(circuit, xx_sign, True, single=merger.single,
          source_single=merger.gate, native_xx=merger.xx)
    return merger.program(circuit.width)
