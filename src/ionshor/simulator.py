"""Execution engines: dense statevector, classical-reversible, structured.

The dense engine applies each gate by stride iteration over the amplitude
tensor (no full 2^n x 2^n matrices are ever formed).  The reversible engine
propagates a single basis index through classical gates, with a vectorized
batch variant that runs every requested basis input in parallel.  The
structured order-finding evaluator combines the reversible engine with a
grouped inverse DFT so the full-width dense state is never needed.

Basis convention: amplitude index i has bit j equal to the value of wire j.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import Circuit, Gate, GateKind, RegisterLayout, gate_matrix
from .classical import gcd, mod_pow
from . import templates

__all__ = [
    "DENSE_QUBIT_CAP", "Distribution", "basis_state", "simulate_dense",
    "circuit_unitary", "simulate_reversible", "simulate_reversible_batch",
    "measure_probs", "order_finding_distribution",
]

DENSE_QUBIT_CAP = 14
_BATCH_WIRE_CAP = 64  # the batch engine packs each basis index into a uint64
NORM_TOL = 1e-9
_PROB_FLOOR = 1e-14  # distributions drop dust below this; lost mass < NORM_TOL

CLASSICAL_KINDS = frozenset({
    GateKind.X, GateKind.CNOT, GateKind.TOFFOLI, GateKind.SWAP, GateKind.FREDKIN,
})


def _dense_cap(cap: int | None) -> int:
    if cap is not None:
        return cap
    return int(os.environ.get("IONSHOR_DENSE_CAP", DENSE_QUBIT_CAP))


def basis_state(width: int, index: int = 0) -> np.ndarray:
    """Statevector |index> on the given number of wires."""
    if not 0 <= index < (1 << width):
        raise ValueError(f"basis index {index} out of range for width {width}")
    state = np.zeros(1 << width, dtype=complex)
    state[index] = 1.0
    return state


def _apply(state: np.ndarray, matrix: np.ndarray, wires: tuple[int, ...],
           width: int) -> np.ndarray:
    """Apply a k-wire gate to an amplitude tensor of shape [2]*width (+batch)."""
    k = len(wires)
    axes = [width - 1 - w for w in wires]
    g = matrix.reshape([2] * (2 * k))
    state = np.tensordot(g, state, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(state, list(range(k)), axes)


def simulate_dense(circuit: Circuit, initial: np.ndarray | int | None = None,
                   cap: int | None = None) -> np.ndarray:
    """Evolve a statevector through the circuit.

    ``initial`` may be an amplitude array, a basis index, or None for |0...0>.
    Widths above the cap (default 14, env IONSHOR_DENSE_CAP) are rejected.
    """
    width = circuit.width
    limit = _dense_cap(cap)
    if width > limit:
        raise ValueError(
            f"width {width} exceeds the dense cap of {limit} qubits; use the "
            "reversible engine or order_finding_distribution instead")
    if initial is None:
        state = basis_state(width)
    elif isinstance(initial, (int, np.integer)):
        state = basis_state(width, int(initial))
    else:
        state = np.asarray(initial, dtype=complex).reshape(-1).copy()
        if state.shape[0] != 1 << width:
            raise ValueError(f"initial state has {state.shape[0]} amplitudes, "
                             f"expected {1 << width}")
        norm = np.linalg.norm(state)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"initial state is not normalized (norm {norm})")
    t = state.reshape([2] * width)
    for gate in circuit.gates:
        t = _apply(t, gate_matrix(gate), gate.wires, width)
    out = t.reshape(-1)
    norm = np.linalg.norm(out)
    if abs(norm - 1.0) > NORM_TOL:
        raise RuntimeError(f"norm drifted to {norm} during simulation")
    return out


def circuit_unitary(circuit: Circuit, cap: int | None = None) -> np.ndarray:
    """Full unitary of the circuit, built column-batched via the dense engine."""
    width = circuit.width
    limit = _dense_cap(cap)
    if width > limit:
        raise ValueError(f"width {width} exceeds the dense cap of {limit} qubits")
    dim = 1 << width
    t = np.eye(dim, dtype=complex).reshape([2] * width + [dim])
    for gate in circuit.gates:
        t = _apply(t, gate_matrix(gate), gate.wires, width)
    return t.reshape(dim, dim)


def _check_classical(gate: Gate, position: int) -> None:
    if gate.kind not in CLASSICAL_KINDS:
        raise ValueError(
            f"gate {position} is {gate.kind.value}, which is not classical-"
            "reversible; the reversible engine handles only "
            "{X, CNOT, Toffoli, SWAP, Fredkin}")


def simulate_reversible(circuit: Circuit, basis_in: int) -> int:
    """Propagate one basis state through a classical-reversible circuit."""
    if not 0 <= basis_in < (1 << circuit.width):
        raise ValueError(f"basis index {basis_in} out of range "
                         f"for width {circuit.width}")
    bits = basis_in
    for pos, gate in enumerate(circuit.gates):
        _check_classical(gate, pos)
        kind, w = gate.kind, gate.wires
        if kind is GateKind.X:
            bits ^= 1 << w[0]
        elif kind is GateKind.CNOT:
            if bits >> w[0] & 1:
                bits ^= 1 << w[1]
        elif kind is GateKind.TOFFOLI:
            if bits >> w[0] & 1 and bits >> w[1] & 1:
                bits ^= 1 << w[2]
        elif kind is GateKind.SWAP:
            b0, b1 = bits >> w[0] & 1, bits >> w[1] & 1
            if b0 != b1:
                bits ^= (1 << w[0]) | (1 << w[1])
        else:  # FREDKIN
            if bits >> w[0] & 1:
                b0, b1 = bits >> w[1] & 1, bits >> w[2] & 1
                if b0 != b1:
                    bits ^= (1 << w[1]) | (1 << w[2])
    return bits


def simulate_reversible_batch(circuit: Circuit, basis_in) -> np.ndarray:
    """Vectorized reversible engine: one row of bit-planes per wire.

    Basis indices are uint64 words, so circuits wider than 64 wires are
    rejected.
    """
    if circuit.width > _BATCH_WIRE_CAP:
        raise ValueError(f"circuit width {circuit.width} exceeds the batch "
                         f"engine's {_BATCH_WIRE_CAP}-wire limit")
    idx = np.asarray(basis_in, dtype=np.uint64)
    if idx.size and int(idx.max()) >= (1 << circuit.width):
        raise ValueError("basis index out of range for circuit width")
    width = circuit.width
    shifts = np.arange(width, dtype=np.uint64)
    bits = ((idx[None, :] >> shifts[:, None]) & np.uint64(1)).astype(bool)
    for pos, gate in enumerate(circuit.gates):
        _check_classical(gate, pos)
        kind, w = gate.kind, gate.wires
        if kind is GateKind.X:
            bits[w[0]] ^= True
        elif kind is GateKind.CNOT:
            bits[w[1]] ^= bits[w[0]]
        elif kind is GateKind.TOFFOLI:
            bits[w[2]] ^= bits[w[0]] & bits[w[1]]
        elif kind is GateKind.SWAP:
            bits[[w[0], w[1]]] = bits[[w[1], w[0]]]
        else:  # FREDKIN
            flip = bits[w[0]] & (bits[w[1]] ^ bits[w[2]])
            bits[w[1]] ^= flip
            bits[w[2]] ^= flip
    out = np.zeros(idx.shape, dtype=np.uint64)
    for wire in range(width):
        out |= bits[wire].astype(np.uint64) << np.uint64(wire)
    return out


@dataclass(frozen=True)
class Distribution:
    """Measurement distribution: outcome integer -> probability."""

    probs: dict[int, float]

    def __post_init__(self) -> None:
        if any(p < 0 for p in self.probs.values()):
            raise ValueError("probabilities must be non-negative")
        total = sum(self.probs.values())
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")

    def prob(self, outcome: int) -> float:
        return self.probs.get(outcome, 0.0)

    def items(self) -> list[tuple[int, float]]:
        return sorted(self.probs.items())

    def top(self, count: int) -> list[tuple[int, float]]:
        return sorted(self.probs.items(), key=lambda kv: (-kv[1], kv[0]))[:count]

    def to_csv(self) -> str:
        lines = ["outcome,probability"]
        lines += [f"{k},{p:.12g}" for k, p in self.items()]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({str(k): p for k, p in self.items()})


def measure_probs(state: np.ndarray, wires) -> Distribution:
    """Marginal distribution over the listed wires, first wire least significant."""
    wires = tuple(wires)
    if len(set(wires)) != len(wires):
        raise ValueError(f"measurement wires must be distinct, got {wires}")
    state = np.asarray(state).reshape(-1)
    width = state.shape[0].bit_length() - 1
    if 1 << width != state.shape[0]:
        raise ValueError("state length is not a power of two")
    if any(not 0 <= w < width for w in wires):
        raise ValueError(f"measurement wires out of range for width {width}")
    p = np.abs(state) ** 2
    t = p.reshape([2] * width)
    keep = {width - 1 - w for w in wires}
    drop = tuple(ax for ax in range(width) if ax not in keep)
    if drop:
        t = t.sum(axis=drop)
    # Remaining axes run over kept wires in descending wire order; put the
    # last listed wire first so flattening yields sum(bit_i << i).
    current = sorted(wires, reverse=True)
    perm = [current.index(w) for w in reversed(wires)]
    flat = t.transpose(perm).reshape(-1)
    return Distribution({int(k): float(v) for k, v in enumerate(flat)
                         if v > _PROB_FLOOR})


@lru_cache(maxsize=32)
def _order_finding_probs(N: int, y: int, n_x: int) -> tuple[tuple[int, ...],
                                                            tuple[float, ...]]:
    params = templates.TemplateParams(N=N, y=y, n_x=n_x)
    circuit = templates.modular_exponentiation(params)
    layout = params.layout
    M = 1 << n_x
    base = layout.encode(z=1, N=N)
    inputs = np.arange(M, dtype=np.uint64) + np.uint64(base)
    outputs = simulate_reversible_batch(circuit, inputs)

    f = np.zeros(M, dtype=np.int64)
    for i, w in enumerate(layout.z):
        f |= ((outputs >> np.uint64(w)) & np.uint64(1)).astype(np.int64) << i
    reference = np.array([mod_pow(y, int(xv), N) for xv in range(M)], dtype=np.int64)
    # x and N must come back intact and every ancilla cleared, so the whole
    # output word is determined by x and f(x).
    z_shift = np.uint64(layout.z[0])
    expected = (inputs - np.uint64(1 << layout.z[0])
                + (f.astype(np.uint64) << z_shift))
    if not (np.array_equal(f, reference) and np.array_equal(outputs, expected)):
        raise RuntimeError("modular exponentiation circuit disagrees with the "
                           "classical reference")

    # Post inverse-QFT amplitude of outcome k from the inputs mapping to value
    # v is (1/M) sum_{x: f(x)=v} exp(-2 pi i k x / M); group, DFT, sum squares.
    probs = np.zeros(M)
    for value in np.unique(f):
        indicator = (f == value).astype(float)
        probs += np.abs(np.fft.fft(indicator)) ** 2
    probs /= float(M) ** 2
    outcomes = np.nonzero(probs > _PROB_FLOOR)[0]
    return tuple(int(k) for k in outcomes), tuple(float(probs[k]) for k in outcomes)


def order_finding_distribution(N: int, y: int, n_x: int) -> Distribution:
    """Exact measurement distribution of the order-finding exponent register.

    Evaluates y^x mod N for every basis x by running the actual modular-
    exponentiation circuit through the reversible engine (cross-checked
    against mod_pow), then applies the inverse DFT per residue group, which
    sidesteps the full-width dense state.
    """
    if N < 2:
        raise ValueError(f"modulus N must be >= 2, got {N}")
    if gcd(y % N, N) != 1:
        raise ValueError(f"base {y} is not coprime to {N}")
    if n_x < 1:
        raise ValueError(f"n_x must be >= 1, got {n_x}")
    width = RegisterLayout(n_x, N.bit_length()).width
    if width > _BATCH_WIRE_CAP:
        raise ValueError(f"N = {N} with n_x = {n_x} needs {width} wires; the "
                         f"batch engine handles at most {_BATCH_WIRE_CAP}")
    outcomes, probs = _order_finding_probs(N, y % N, n_x)
    return Distribution(dict(zip(outcomes, probs)))
