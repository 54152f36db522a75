"""Execution engines: dense statevector, classical-reversible, structured.

The dense engine applies each gate by stride iteration over the amplitude
tensor (no full 2^n x 2^n matrices are ever formed).  The reversible engine
propagates a single basis index through classical gates, with a bit-sliced
batch variant that stores each wire as a uint64 plane holding 64 inputs per
word and applies each gate to whole planes.  The structured order-finding
evaluator runs that engine on planes built straight from the register
layout, and combines it with a grouped inverse DFT so the full-width dense
state is never needed.

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
    "DENSE_QUBIT_CAP", "NX_CAP", "Distribution", "basis_state", "simulate_dense",
    "circuit_unitary", "simulate_reversible", "simulate_reversible_batch",
    "measure_probs", "order_finding_distribution",
]

DENSE_QUBIT_CAP = 14
NX_CAP = 20  # order-finding inputs 2**n_x, up to ~300 bytes each: ~330 MB
_BATCH_WIRE_CAP = 64  # basis indices in and out of the batch engine are uint64
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


_OP_X, _OP_CNOT, _OP_TOFFOLI, _OP_SWAP, _OP_FREDKIN = range(5)
# Lane i of a plane is bit i of its little-endian uint64 words.
_PLANE_DTYPE = np.dtype("<u8")


def _compile(circuit: Circuit) -> list[tuple[int, int, int, int]]:
    """Int-coded ops (opcode, wire, wire, wire), unused wires 0.

    Rejects the first non-classical gate by position and kind.
    """
    # Local names: enum class attribute lookups are slow per gate.
    x, cnot, toffoli, swap, fredkin = (GateKind.X, GateKind.CNOT,
                                       GateKind.TOFFOLI, GateKind.SWAP,
                                       GateKind.FREDKIN)
    ops = []
    for pos, gate in enumerate(circuit.gates):
        kind, w = gate.kind, gate.wires
        if kind is cnot:
            ops.append((_OP_CNOT, w[0], w[1], 0))
        elif kind is toffoli:
            ops.append((_OP_TOFFOLI, w[0], w[1], w[2]))
        elif kind is swap:
            ops.append((_OP_SWAP, w[0], w[1], 0))
        elif kind is x:
            ops.append((_OP_X, w[0], 0, 0))
        elif kind is fredkin:
            ops.append((_OP_FREDKIN, w[0], w[1], w[2]))
        else:
            _check_classical(gate, pos)  # raises
    return ops


def _run(ops: list[tuple[int, int, int, int]], planes: list[np.ndarray]) -> None:
    """Apply compiled ops in place to a list of equal-length uint64 planes.

    A SWAP exchanges two list entries, so afterwards ``planes[w]`` is wire w
    but need not be the array passed in for it.
    """
    tmp = np.empty_like(planes[0]) if planes else None
    xor, and_ = np.bitwise_xor, np.bitwise_and
    # Every ufunc below writes its result into its last argument.
    for code, a, b, c in ops:
        if code == _OP_CNOT:
            xor(planes[b], planes[a], planes[b])
        elif code == _OP_TOFFOLI:
            and_(planes[a], planes[b], tmp)
            xor(planes[c], tmp, planes[c])
        elif code == _OP_SWAP:
            planes[a], planes[b] = planes[b], planes[a]
        elif code == _OP_X:
            np.invert(planes[a], planes[a])
        else:  # _OP_FREDKIN
            xor(planes[b], planes[c], tmp)
            and_(tmp, planes[a], tmp)
            xor(planes[b], tmp, planes[b])
            xor(planes[c], tmp, planes[c])


def _plane_words(count: int) -> int:
    return -(-count // 64)


def simulate_reversible_batch(circuit: Circuit, basis_in) -> np.ndarray:
    """Vectorized reversible engine on bit-sliced uint64 planes.

    Each wire is one plane of ceil(M/64) words holding that wire's bit for
    64 of the M inputs per word, and every gate is one or a few bitwise
    operations on whole planes.  Basis indices in and out are uint64 words,
    so circuits wider than 64 wires are rejected.
    """
    width = circuit.width
    if width > _BATCH_WIRE_CAP:
        raise ValueError(f"circuit width {width} exceeds the batch "
                         f"engine's {_BATCH_WIRE_CAP}-wire limit")
    ops = _compile(circuit)
    idx = np.asarray(basis_in, dtype=np.uint64)
    if idx.size and int(idx.max()) >= (1 << width):
        raise ValueError("basis index out of range for circuit width")
    count = idx.size
    lanes = np.zeros(64 * _plane_words(count), dtype=np.uint64)
    lanes[:count] = idx.reshape(-1)
    planes = [np.packbits((lanes >> np.uint64(w)) & np.uint64(1),
                          bitorder="little").view(_PLANE_DTYPE)
              for w in range(width)]
    _run(ops, planes)
    out = np.zeros(count, dtype=np.uint64)
    for w, plane in enumerate(planes):
        bits = np.unpackbits(plane.view(np.uint8), count=count, bitorder="little")
        out |= bits.astype(np.uint64) << np.uint64(w)
    return out.reshape(idx.shape)


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

    def sampling_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Outcomes in increasing order and their probabilities rescaled to
        sum to exactly 1, as arrays for ``Generator.choice``."""
        keys = sorted(self.probs)
        outcomes = np.array(keys)
        probs = np.array([self.probs[k] for k in keys])
        return outcomes, probs / probs.sum()

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


def _lane_bit_plane(bit: int, words: int) -> np.ndarray:
    """Plane whose lane i holds bit ``bit`` of i: the x wire of that weight."""
    if bit < 6:  # the pattern repeats inside every word
        word = sum(1 << i for i in range(64) if i >> bit & 1)
        return np.full(words, word, dtype=_PLANE_DTYPE)
    on = (np.arange(words) >> (bit - 6)) & 1
    return np.where(on == 1, ~np.uint64(0), np.uint64(0)).astype(_PLANE_DTYPE)


def _order_finding_planes(layout: RegisterLayout, N: int, words: int
                          ) -> list[np.ndarray]:
    """Input planes of |x>|1>|0>|0>|0>|N>|0> with lane i holding x = i."""
    planes = [np.zeros(words, dtype=_PLANE_DTYPE) for _ in range(layout.width)]
    for j, w in enumerate(layout.x):
        planes[w] = _lane_bit_plane(j, words)
    for wires, value in ((layout.z, 1), (layout.N, N)):
        for j, w in enumerate(wires):
            if value >> j & 1:
                planes[w] = np.full(words, ~np.uint64(0), dtype=_PLANE_DTYPE)
    return planes


def _mod_pow_table(y: int, N: int, n_x: int) -> np.ndarray:
    """y**x mod N for every x < 2**n_x, independent of the circuit.

    Square-and-multiply over all x at once: the x with bit j set are the x
    below 2**j shifted by 2**j, so their values are those times
    y**(2**j) mod N.  Products stay below N**2, far inside int64.
    """
    table = np.array([1 % N], dtype=np.int64)
    for j in range(n_x):
        table = np.concatenate((table, table * mod_pow(y, 1 << j, N) % N))
    return table


@lru_cache(maxsize=32)
def _order_finding_probs(N: int, y: int, n_x: int) -> tuple[tuple[int, ...],
                                                            tuple[float, ...]]:
    params = templates.TemplateParams(N=N, y=y, n_x=n_x)
    circuit = templates.modular_exponentiation(params)
    layout = params.layout
    M = 1 << n_x
    ops = _compile(circuit)
    expected = _order_finding_planes(layout, N, _plane_words(M))
    planes = [p.copy() for p in expected]
    _run(ops, planes)

    f = np.zeros(M, dtype=np.int64)
    for i, w in enumerate(layout.z):
        bits = np.unpackbits(planes[w].view(np.uint8), count=M, bitorder="little")
        f |= bits.astype(np.int64) << i
    # x and N must come back intact and every ancilla cleared, so the whole
    # output is determined by x and f(x).
    z = set(layout.z)
    intact = all(np.array_equal(planes[w], expected[w])
                 for w in range(layout.width) if w not in z)
    if not (intact and np.array_equal(f, _mod_pow_table(y, N, n_x))):
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
    against a vectorised mod_pow table), then applies the inverse DFT per
    residue group, which sidesteps the full-width dense state.

    Memory grows with M = 2**n_x: about 120 bytes per input for the arrays
    of the evaluation, and up to 300 when every outcome has support and the
    distribution holds M entries.  n_x is therefore capped at NX_CAP = 20
    (about 330 MB measured at the cap), and the circuit must fit the batch
    engine's 64 wires.  Both limits are checked before anything is built.
    """
    if N < 2:
        raise ValueError(f"modulus N must be >= 2, got {N}")
    if gcd(y % N, N) != 1:
        raise ValueError(f"base {y} is not coprime to {N}")
    if n_x < 1:
        raise ValueError(f"n_x must be >= 1, got {n_x}")
    if n_x > NX_CAP:
        raise ValueError(f"n_x = {n_x} exceeds the order-finding evaluator's "
                         f"cap of {NX_CAP} (2**n_x inputs are held in memory)")
    width = RegisterLayout(n_x, N.bit_length()).width
    if width > _BATCH_WIRE_CAP:
        raise ValueError(f"N = {N} with n_x = {n_x} needs {width} wires; the "
                         f"batch engine handles at most {_BATCH_WIRE_CAP}")
    outcomes, probs = _order_finding_probs(N, y % N, n_x)
    return Distribution(dict(zip(outcomes, probs)))
