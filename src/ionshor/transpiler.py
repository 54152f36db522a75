"""Lowering to trapped-ion natives: R(theta, phi) rotations and XX(chi).

The lowering has four steps:

  1. expand SWAP and Fredkin over {Toffoli, CNOT};
  2. replace each Toffoli by the controlled-sqrt(X) block
     CV(b,t) CNOT(a,b) CV'(b,t) CNOT(a,b) CV(a,t);
  3. replace CNOT / CV / CV' / CR_k by one XX conjugated with fixed
     single-qubit gates, by these identities, exact including phase:
       CNOT = e^{i pi/4} (RZ(pi/2) H Z (x) RX(pi/2)) XX(pi/4) (Z H (x) I)
       CV   = (P(pi/4) H Z (x) RX(pi/4)) XX(pi/8) (Z H (x) I)
       CV'  = (P(-pi/4) H (x) RX(-pi/4)) XX(pi/8) (H (x) I)
       CR_k = e^{-i phi/4} (P(phi/2) H (x) P(phi/2) H) XX(-phi/4) (H (x) H)
     with phi = crk_angle (+-2 pi / 2^k); for phi > 0 the XX(-phi/4) is
     (Z (x) I) XX(phi/4) (Z (x) I), and a CR_k with phi = 0 emits nothing;
  4. multiply every maximal run of single-qubit gates on a wire into one
     unitary and emit it as at most two R rotations via the closed-form
     decomposition U = e^{id} R(-pi, -c-pi/2) R(2b+pi, a-c-pi/2).

``transpile`` runs all four steps as one pass over the source gates: the
fixed factors of each step-3 block go straight into the pending product of
their wire and no intermediate circuit is built.  Products are interned 2x2
matrices, so each distinct (factor, product) step is multiplied once and
each distinct product is decomposed once per call, whatever its wire.
A repeated multi-qubit source gate is lowered once per entering state: the
transition memo is keyed by the gate object's id and the product ids
pending on its wires, and holds the natives and phase terms the lowering
appended and the ids it left on those wires.  The key is sound because
lowering a gate reads and writes only the products pending on its own
wires, and interned ids are never renumbered within a call.
``lower_toffoli``, ``lower_two_qubit`` and ``merge_singles`` are stepwise
views of the same lowering, built from the same tables but with no memo:
``merge_singles(lower_two_qubit(c))`` equals ``transpile(c)`` exactly, gates
and phase, with or without ``lower_toffoli`` first.

The lowering takes no options.  Every XX it emits has chi >= 0: a source
XX(-chi) becomes Z XX(chi) Z, the Z on its first wire.

Phases are tracked, not discarded: the identities in step 3 are exact and
step 4 accumulates each d into NativeProgram.global_phase, so the emitted
program times e^{i phase} reproduces the source unitary to float precision.
"""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .circuit import (
    UNITARY_TOL, U1, R, XX, Circuit, Gate, GateKind, _trusted_gate, crk_angle,
    gate_matrix, unitary_deviation,
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


# Step-3 blocks, each (pre on control, pre on target or None, XX params,
# post on control, post on target) by the identities of the module
# docstring; every XX of a row shares the row's params tuple.
_BLOCKS = {
    GateKind.CNOT: (
        _fixed(_PZ @ _HM), None, (math.pi / 4,),
        _fixed(cmath.exp(0.25j * math.pi) * (_rz(math.pi / 2) @ _HM @ _PZ)),
        _fixed(_rx(math.pi / 2))),
    GateKind.CV: (
        _fixed(_PZ @ _HM), None, (math.pi / 8,),
        _fixed(_phase(math.pi / 4) @ _HM @ _PZ), _fixed(_rx(math.pi / 4))),
    GateKind.CVINV: (
        _fixed(_HM), None, (math.pi / 8,),
        _fixed(_phase(-math.pi / 4) @ _HM), _fixed(_rx(-math.pi / 4))),
}
# XX(-chi) = (Z (x) I) XX(chi) (Z (x) I), for source XX gates with chi < 0.
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
    return Circuit(circuit.width, lowered)


def _crk_row(g: Gate) -> tuple | None:
    """The step-3 row of a CR_k or CR_k' gate, or None when its angle phi
    has underflowed to 0 and the gate is the identity."""
    phi = crk_angle(g)
    if phi == 0:
        return None
    pre_c, post = _HM, _phase(phi / 2) @ _HM
    post_c = cmath.exp(-0.25j * phi) * post
    if phi > 0:  # XX(-phi/4) = (Z (x) I) XX(phi/4) (Z (x) I)
        pre_c, post_c = _PZ @ pre_c, post_c @ _PZ
    return (_fixed(pre_c), _fixed(_HM), (abs(phi) / 4,), _fixed(post_c),
            _fixed(post))


def _walk(single: Callable[[int, np.ndarray], None],
          source_single: Callable[[Gate], None],
          native_xx: Callable[[Gate], None]) -> Callable[[Gate], None]:
    """A lowerer through step 3 that hands each gate it makes to a callback.

    The returned function lowers one source gate: in order, ``single(w, m)``
    gets each fixed factor m placed on wire w, ``source_single(g)`` a
    single-qubit source gate, and ``native_xx(g)`` each XX gate, always with
    chi >= 0.  One lowerer shares its XX and CR_k tables across its gates.
    """
    xx_gates: dict[tuple[int, int, tuple[float]], Gate] = {}
    crk: dict[tuple[GateKind, int], tuple | None] = {}

    def block(row: tuple, c: int, t: int) -> None:
        pre_c, pre_t, params, post_c, post_t = row
        single(c, pre_c)
        if pre_t is not None:
            single(t, pre_t)
        # row angles are positive floats, so the key names one gate
        key = (c, t, params)
        xx = xx_gates.get(key)
        if xx is None:
            xx = xx_gates[key] = _trusted_gate(GateKind.XX, (c, t), params)
        native_xx(xx)
        single(c, post_c)
        single(t, post_t)

    def lower(g: Gate) -> None:
        kind = g.kind
        if kind in _SINGLE_KINDS:
            source_single(g)
        elif kind in _BLOCKS:
            block(_BLOCKS[kind], *g.wires)
        elif kind is GateKind.XX:
            (w0, w1), (chi,) = g.wires, g.params
            if chi < 0:
                single(w0, _Z)
                native_xx(XX(w0, w1, -chi))
                single(w0, _Z)
            else:
                native_xx(XX(w0, w1, chi))
        elif kind in _EXPANSIONS:
            w = g.wires
            for sub, (i, j) in _EXPANSIONS[kind]:
                block(_BLOCKS[sub], w[i], w[j])
        else:  # CRK or CRKINV
            key = (kind, g.params[0])
            if key not in crk:
                crk[key] = _crk_row(g)
            row = crk[key]
            if row is not None:
                block(row, *g.wires)

    return lower


def lower_two_qubit(circuit: Circuit) -> Circuit:
    """Map every multi-qubit gate onto XX blocks, Toffoli and Fredkin too.

    Every XX in the result has chi >= 0: a source XX(-chi) is emitted as
    XX(chi) conjugated by Z on its first wire.
    """
    lowered: list[Gate] = []
    lower = _walk(single=lambda w, m: lowered.append(U1(w, m)),
                  source_single=lowered.append, native_xx=lowered.append)
    for g in circuit.gates:
        lower(g)
    return Circuit(circuit.width, lowered)


@dataclass(frozen=True, slots=True)
class UnitaryParams:
    """Angles (a, b, c, d) with U = e^{id} R(-pi,-c-pi/2) R(2b+pi,a-c-pi/2)."""

    a: float
    b: float
    c: float
    d: float

    def rotations(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """(theta, phi) of the two R gates, in the order they act."""
        return ((2 * self.b + math.pi, self.a - self.c - math.pi / 2),
                (-math.pi, -self.c - math.pi / 2))


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
    err = unitary_deviation(U)
    if not err <= UNITARY_TOL:  # also rejects NaN
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
    first, second = (gate_matrix(R(0, theta, phi))
                     for theta, phi in params.rotations())
    return cmath.exp(1j * params.d) * second @ first


@dataclass(frozen=True, slots=True)
class NativeProgram(Circuit):
    """A Circuit of R and XX gates plus the accumulated global phase, a finite
    int or float; programs compare and hash on (width, gates, global_phase)."""

    global_phase: float = 0.0

    def __post_init__(self) -> None:
        # By name: zero-argument super() fails in a slots dataclass, whose
        # class is rebuilt.
        Circuit.__post_init__(self)
        r, xx = GateKind.R, GateKind.XX
        for g in self.gates:
            kind = g.kind
            if kind is not r and kind is not xx:
                raise ValueError(f"native programs hold only R and XX gates, "
                                 f"got {kind.value}")
        phase = self.global_phase
        if type(phase) is bool or not isinstance(phase, (int, float)) \
                or not -math.inf < phase < math.inf:
            raise ValueError(f"global_phase must be a finite number, got {phase!r}")

    def as_circuit(self) -> Circuit:
        """The same gates as a Circuit; drops the global phase."""
        return Circuit(self.width, self.gates)

    def to_text(self) -> str:
        """A ``qubits <width>`` header, one gate per line with params to 12
        significant digits, and a ``# global_phase`` trailer.

        Each distinct gate object is formatted once per call.
        """
        lines = [f"qubits {self.width}",
                 *_render_once(self.gates, _text_params, _text_line)]
        lines.append(f"# global_phase {self.global_phase:.12g}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """The object {"qubits", "gates": [{"gate", "wires", "params"}, ...],
        "global_phase"} exactly as ``json.dumps`` writes it.

        Each distinct gate object is encoded once per call, and the
        fragments are joined with the separator ``json.dumps`` uses.
        """
        gates = ", ".join(_render_once(self.gates, _json_params, _json_object))
        return (f'{{"qubits": {json.dumps(self.width)}, "gates": [{gates}], '
                f'"global_phase": {json.dumps(self.global_phase)}}}')


def _render_once(gates: tuple[Gate, ...], render_params: Callable[[tuple], str],
                 render: Callable[[Gate, str], str]) -> list[str]:
    """``[render(g, render_params(g.params)) for g in gates]``, calling render
    once per distinct gate object and render_params once per distinct params
    object.

    The lowering shares one object among all copies of a memoised gate, and
    one params tuple among the R gates of a product on every wire.  ``gates``
    holds every object for the whole call, so no id is reused.  The caches
    are keyed by identity, never by value: 0.0 == -0.0, but they print apart.
    """
    rendered: dict[int, str] = {}
    rendered_params: dict[int, str] = {}
    out = []
    for g in gates:
        text = rendered.get(id(g))
        if text is None:
            params = g.params
            ptext = rendered_params.get(id(params))
            if ptext is None:
                ptext = rendered_params[id(params)] = render_params(params)
            text = rendered[id(g)] = render(g, ptext)
        out.append(text)
    return out


def _text_params(params: tuple) -> str:
    return "".join([f" {p:.12g}" for p in params])


def _text_line(g: Gate, params_text: str) -> str:
    return " ".join([g.kind.value, *map(str, g.wires)]) + params_text


_JSON_KINDS = {kind: json.dumps(kind.value) for kind in GateKind}


def _json_params(params: tuple) -> str:
    """The params list as ``json.dumps`` writes it: an int as ``str`` and a
    finite float as ``float.__repr__`` (R and XX params are finite); any
    other param goes through json.dumps."""
    return ", ".join([float.__repr__(p) if type(p) is float else json.dumps(p)
                      for p in params])


def _json_object(g: Gate, params_text: str) -> str:
    """``json.dumps({"gate": ..., "wires": [...], "params": [...]})``."""
    return '{"gate": %s, "wires": [%s], "params": [%s]}' % (
        _JSON_KINDS[g.kind], ", ".join(map(str, g.wires)), params_text)


_IDENTITY_TOL = 1e-12
# The (theta, phi) of a product's <=2 R gates, and its phase.
_Rotations = tuple[tuple[tuple[float, float], ...], float]


class _Merger:
    """Step 4: the pending product on each wire and the program so far.

    Matrices are interned by bytes: ``mats[i]`` is the i-th distinct 2x2
    matrix of this merger, and a wire's pending product is such an id.
    ``steps`` maps (factor id, product id) to the id of factor @ product, so
    each distinct step is multiplied once; ``angles`` maps a product id to
    the (theta, phi) of its R gates and its phase, so each distinct product
    is decomposed once; ``flushed`` maps (product id, wire) to those gates
    and phase, so every flush of one product on one wire shares its gates.
    ``phases`` holds the phase term of every flush, in emission order.
    """

    __slots__ = ("pending", "out", "phases", "mats", "ids", "steps", "angles",
                 "flushed")

    def __init__(self) -> None:
        self.pending: dict[int, int] = {}
        self.out: list[Gate] = []
        self.phases: list[float] = []
        self.mats: list[np.ndarray] = []
        self.ids: dict[bytes, int] = {}
        self.steps: dict[tuple[int, int], int] = {}
        self.angles: dict[int, _Rotations] = {}
        self.flushed: dict[tuple[int, int], tuple[tuple[Gate, ...], float]] = {}

    def intern(self, matrix: np.ndarray) -> int:
        key = matrix.tobytes()
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.mats)
            self.mats.append(matrix)
        return i

    def single(self, wire: int, matrix: np.ndarray) -> None:
        f = self.intern(matrix)
        prev = self.pending.get(wire)
        if prev is not None:
            key = (f, prev)
            step = self.steps.get(key)
            if step is None:
                mats = self.mats
                step = self.steps[key] = self.intern(mats[f] @ mats[prev])
            f = step
        self.pending[wire] = f

    def gate(self, gate: Gate) -> None:
        self.single(gate.wires[0], gate_matrix(gate))

    def xx(self, gate: Gate) -> None:
        for w in gate.wires:
            if w in self.pending:
                self.flush(w)
        self.out.append(gate)

    def flush(self, wire: int) -> None:
        product = self.pending.pop(wire)
        key = (product, wire)
        hit = self.flushed.get(key)
        if hit is None:
            rotations, phase = self.rotations(product)
            # one params tuple per product, shared by every wire it lands on
            hit = self.flushed[key] = (
                tuple([_trusted_gate(GateKind.R, (wire,), pair)
                       for pair in rotations]),
                phase)
        self.out += hit[0]
        self.phases.append(hit[1])

    def rotations(self, product: int) -> _Rotations:
        hit = self.angles.get(product)
        if hit is None:
            m = self.mats[product]
            alpha = cmath.phase(m[0, 0]) if abs(m[0, 0]) > 0.5 \
                else cmath.phase(m[1, 1])
            if np.abs(m - cmath.exp(1j * alpha) * _I2).max() <= _IDENTITY_TOL:
                hit = (), alpha  # identity up to phase: no rotations at all
            else:
                p = decompose_unitary(m)
                hit = p.rotations(), p.d
            self.angles[product] = hit
        return hit

    def program(self, width: int) -> NativeProgram:
        for w in sorted(self.pending):
            self.flush(w)
        # Term by term in emission order; sum() compensates on Python >= 3.12.
        phase = 0.0
        for term in self.phases:
            phase += term
        self.phases.clear()  # released before the program tuple is built
        return NativeProgram(width, tuple(self.out),
                             float(math.remainder(phase, 2 * math.pi)))


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


def transpile(circuit: Circuit) -> NativeProgram:
    """Run the four lowering steps as one pass; every emitted XX has chi >= 0,
    a source XX(-chi) becoming Z XX(chi) Z on its first wire.

    The transition memo maps (id(g), pending product id or None on each wire
    of g) to the natives and phase terms that lowering g appended and the
    ids it left on its wires.  It is sound because lowering g reads and
    writes only the pending products of its own wires, and the merger's
    tables depend only on their keys, whose ids are never renumbered within
    a call.  ``circuit`` holds every gate object for the call, so no id is
    reused.
    """
    merger = _Merger()
    lower = _walk(single=merger.single, source_single=merger.gate,
                  native_xx=merger.xx)
    pending, out, phases = merger.pending, merger.out, merger.phases
    # Transitions are recorded from a gate object's second visit on, so
    # gates that occur once (such as the CR_k of a QFT) cost no memory.
    seen: set[int] = set()
    memo: dict[tuple[int | None, ...],
               tuple[tuple[Gate, ...], tuple[float, ...], tuple[int | None, ...]]] = {}
    for g in circuit.gates:
        if g.kind in _SINGLE_KINDS:
            merger.gate(g)
            continue
        wires = g.wires
        key = (id(g), *[pending.get(w) for w in wires])
        hit = memo.get(key)
        if hit is not None:
            natives, terms, exits = hit
            out += natives
            phases += terms
            for w, exit_id in zip(wires, exits):
                if exit_id is None:
                    pending.pop(w, None)
                else:
                    pending[w] = exit_id
        elif id(g) in seen:
            n_out, n_phases = len(out), len(phases)
            lower(g)
            memo[key] = (tuple(out[n_out:]), tuple(phases[n_phases:]),
                         tuple([pending.get(w) for w in wires]))
        else:
            seen.add(id(g))
            lower(g)
    del seen, memo  # not part of the peak while the program tuple is built
    return merger.program(circuit.width)
