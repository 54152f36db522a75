"""Execution engines: dense statevector, classical-reversible, structured.

The dense engine applies each gate by stride iteration over the amplitude
tensor (no full 2^n x 2^n matrices are ever formed).  The reversible engine
propagates a single basis index through classical gates, with a bit-sliced
batch variant that stores each wire as a uint64 plane holding 64 inputs per
word and applies the circuit's own Gate objects, one by one, to whole planes.
The structured order-finding evaluator runs that engine on planes built
straight from the register layout, checks the result exactly, and takes the
inverse DFT in closed form: y^x mod N has a period r, so the outcome
probabilities are two Fejer kernels evaluated in one O(2^n_x) pass, and the
full-width dense state is never needed.

Basis convention: amplitude index i has bit j equal to the value of wire j.
"""
from __future__ import annotations

import json
import os
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

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
# Order finding holds 2**n_x inputs at about 80 bytes each, and printing a
# full support costs ~95 (CSV) to ~145 (JSON) bytes per outcome: ~270 MB.
NX_CAP = 20
_BATCH_WIRE_CAP = 64  # basis indices in and out of the batch engine are uint64
NORM_TOL = 1e-9
_PROB_FLOOR = 1e-14  # distributions drop dust below this; lost mass < NORM_TOL

CLASSICAL_KINDS = frozenset({
    GateKind.X, GateKind.CNOT, GateKind.TOFFOLI, GateKind.SWAP, GateKind.FREDKIN,
})


def _dense_cap(cap: int | None) -> int:
    if cap is not None:
        return cap
    raw = os.environ.get("IONSHOR_DENSE_CAP")
    if raw is None:
        return DENSE_QUBIT_CAP
    if not raw.strip().isdecimal():  # int() reads every such string
        raise ValueError(f"IONSHOR_DENSE_CAP must be a non-negative integer, "
                         f"got {raw!r}")
    return int(raw)


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


# Lane i of a plane is bit i of its little-endian uint64 words.
_PLANE_DTYPE = np.dtype("<u8")


def _check_all_classical(gates) -> None:
    """Reject the first non-classical gate by position and kind."""
    for pos, gate in enumerate(gates):
        if gate.kind not in CLASSICAL_KINDS:
            _check_classical(gate, pos)  # raises


def _run(gates, planes: list[np.ndarray]) -> None:
    """Apply classical gates in place to a list of equal-length uint64 planes.

    The gates must have passed ``_check_all_classical``.  A SWAP exchanges
    two list entries, so afterwards ``planes[w]`` is wire w but need not be
    the array passed in for it.
    """
    tmp = np.empty_like(planes[0]) if planes else None
    xor, and_ = np.bitwise_xor, np.bitwise_and
    # Local names: enum class attribute lookups are slow per gate.
    x, cnot, toffoli, swap = GateKind.X, GateKind.CNOT, GateKind.TOFFOLI, GateKind.SWAP
    # Every ufunc below writes its result into its last argument.
    for gate in gates:
        kind, w = gate.kind, gate.wires
        if kind is cnot:
            a, b = w
            xor(planes[b], planes[a], planes[b])
        elif kind is toffoli:
            a, b, c = w
            and_(planes[a], planes[b], tmp)
            xor(planes[c], tmp, planes[c])
        elif kind is swap:
            a, b = w
            planes[a], planes[b] = planes[b], planes[a]
        elif kind is x:
            a = w[0]
            np.invert(planes[a], planes[a])
        else:  # FREDKIN
            a, b, c = w
            xor(planes[b], planes[c], tmp)
            and_(tmp, planes[a], tmp)
            xor(planes[b], tmp, planes[b])
            xor(planes[c], tmp, planes[c])


def _plane_words(count: int) -> int:
    return -(-count // 64)


def _unpack(planes: list[np.ndarray], wires, count: int, dtype) -> np.ndarray:
    """The first ``count`` lanes as integers whose bit i is on ``wires[i]``."""
    dtype = np.dtype(dtype)
    out = np.zeros(count, dtype=dtype)
    for i, w in enumerate(wires):
        bits = np.unpackbits(planes[w].view(np.uint8), count=count, bitorder="little")
        out |= bits.astype(dtype) << dtype.type(i)
    return out


def simulate_reversible_batch(circuit: Circuit, basis_in) -> np.ndarray:
    """Vectorized reversible engine on bit-sliced uint64 planes.

    Each wire is one plane of ceil(M/64) words holding that wire's bit for
    64 of the M inputs per word, and each of the circuit's gates is applied
    as one or a few bitwise operations on whole planes.  Basis indices in
    are non-negative integers and out are uint64 words, so circuits wider
    than 64 wires are rejected.
    """
    width = circuit.width
    if width > _BATCH_WIRE_CAP:
        raise ValueError(f"circuit width {width} exceeds the batch "
                         f"engine's {_BATCH_WIRE_CAP}-wire limit")
    _check_all_classical(circuit.gates)
    idx = np.asarray(basis_in)
    if idx.size and not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"basis indices must be integers below 2**64, "
                         f"got an array of dtype {idx.dtype}")
    if idx.size and int(idx.min()) < 0:
        raise ValueError(f"basis indices must be non-negative, got {int(idx.min())}")
    idx = idx.astype(np.uint64, copy=False)
    if idx.size and int(idx.max()) >= (1 << width):
        raise ValueError("basis index out of range for circuit width")
    count = idx.size
    lanes = np.zeros(64 * _plane_words(count), dtype=np.uint64)
    lanes[:count] = idx.reshape(-1)
    planes = [np.packbits((lanes >> np.uint64(w)) & np.uint64(1),
                          bitorder="little").view(_PLANE_DTYPE)
              for w in range(width)]
    _run(circuit.gates, planes)
    return _unpack(planes, range(width), count, np.uint64).reshape(idx.shape)


@dataclass(frozen=True)
class Distribution:
    """Measurement distribution over integer outcomes.

    Stored as two read-only arrays of equal length: ``outcomes`` (int64,
    non-negative, strictly increasing) and ``probabilities`` (float64,
    summing to 1 within NORM_TOL).  Array arguments are made read-only in
    place, not copied, so the constructor takes ownership of them.
    """

    outcomes: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        outcomes = np.asarray(self.outcomes)
        probs = np.asarray(self.probabilities, dtype=np.float64)
        if outcomes.ndim != 1 or probs.shape != outcomes.shape:
            raise ValueError(
                f"outcomes {outcomes.shape} and probabilities {probs.shape} "
                "must be 1-D arrays of the same length")
        if outcomes.size and not np.issubdtype(outcomes.dtype, np.integer):
            raise ValueError(f"outcomes must be integers, got {outcomes.dtype}")
        outcomes = outcomes.astype(np.int64, copy=False)
        if outcomes.size and outcomes[0] < 0:
            raise ValueError("outcomes must be non-negative")
        if not (outcomes[1:] > outcomes[:-1]).all():
            raise ValueError("outcomes must be strictly increasing")
        if not (probs >= 0).all():
            raise ValueError("probabilities must be non-negative")
        total = probs.sum()
        if not abs(total - 1.0) <= NORM_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        for name, array in (("outcomes", outcomes), ("probabilities", probs)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return (np.array_equal(self.outcomes, other.outcomes)
                and np.array_equal(self.probabilities, other.probabilities))

    @classmethod
    def from_dense(cls, probs: np.ndarray) -> Distribution:
        """Outcome k with probability ``probs[k]``, dropping dust at or below
        _PROB_FLOOR (the mass lost stays below NORM_TOL)."""
        outcomes = np.flatnonzero(probs > _PROB_FLOOR)
        return cls(outcomes, probs[outcomes])

    @property
    def probs(self) -> Mapping[int, float]:
        """Read-only outcome -> probability mapping, built on each access."""
        return MappingProxyType(dict(self.items()))

    def prob(self, outcome: int) -> float:
        i = int(np.searchsorted(self.outcomes, outcome))
        if i < self.outcomes.size and self.outcomes[i] == outcome:
            return float(self.probabilities[i])
        return 0.0

    def items(self) -> list[tuple[int, float]]:
        return list(zip(self.outcomes.tolist(), self.probabilities.tolist()))

    def sampling_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Outcomes in increasing order and their probabilities rescaled to
        sum to exactly 1, as arrays for ``Generator.choice``."""
        return self.outcomes, self.probabilities / self.probabilities.sum()

    def top(self, count: int) -> list[tuple[int, float]]:
        """The ``count`` most likely outcomes; ties go to the smaller outcome."""
        order = np.argsort(-self.probabilities, kind="stable")[:count]
        return list(zip(self.outcomes[order].tolist(),
                        self.probabilities[order].tolist()))

    def to_csv(self) -> str:
        rows = zip(self.outcomes.tolist(), self.probabilities.tolist())
        return "outcome,probability\n" + "".join(["%d,%.12g\n" % row
                                                   for row in rows])

    def to_json(self) -> str:
        return json.dumps(dict(self.items()))  # json writes int keys as strings


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
    return Distribution.from_dense(t.transpose(perm).reshape(-1))


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
def _order_finding_probs(N: int, y: int, n_x: int) -> Distribution:
    params = templates.TemplateParams(N=N, y=y, n_x=n_x)
    circuit = templates.modular_exponentiation(params)
    layout = params.layout
    M = 1 << n_x
    _check_all_classical(circuit.gates)
    expected = _order_finding_planes(layout, N, _plane_words(M))
    planes = [p.copy() for p in expected]
    _run(circuit.gates, planes)

    f = _unpack(planes, layout.z, M, np.int64)
    # x and N must come back intact and every ancilla cleared, so the whole
    # output is determined by x and f(x).
    z = set(layout.z)
    intact = all(np.array_equal(planes[w], expected[w])
                 for w in range(layout.width) if w not in z)
    if not (intact and np.array_equal(f, _mod_pow_table(y, N, n_x))):
        raise RuntimeError("modular exponentiation circuit disagrees with the "
                           "classical reference")

    # f is y**x mod N exactly, so its period is the order of y, or M when no
    # value repeats below M.
    repeats = np.flatnonzero(f[1:] == f[0])
    period = int(repeats[0]) + 1 if repeats.size else M
    return Distribution.from_dense(_period_probs(period, M))


def _period_probs(r: int, M: int) -> np.ndarray:
    """Inverse-QFT outcome probabilities of M inputs whose values repeat with
    period r (1 <= r <= M) and are distinct within a period.

    The inputs sharing a value are x = j + s*r, so each such class of c
    members contributes |(1/M) sum_s exp(-2 pi i k s r / M)|**2 = F_c / M**2,
    the Fejer kernel of m = k*r mod M.  M mod r classes have q + 1 members
    and the rest q, with q = M // r.
    """
    q, e = divmod(M, r)
    m = np.arange(M, dtype=np.int64) * r % M
    return ((r - e) * _fejer(q, m, M) + e * _fejer(q + 1, m, M)) / float(M) ** 2


def _sin_squared(n: np.ndarray, M: int) -> np.ndarray:
    """sin(pi n / M)**2 for integers n, reduced exactly to an angle in [0, pi/2]."""
    n = n % M
    return np.sin(np.minimum(n, M - n) * (np.pi / M)) ** 2


def _fejer(c: int, m: np.ndarray, M: int) -> np.ndarray:
    """sin(pi c m / M)**2 / sin(pi m / M)**2, and its limit c**2 where m = 0.

    Products c*m stay below M**2 <= 2**40, so int64 holds them exactly.
    """
    out = np.full(m.shape, float(c * c))
    np.divide(_sin_squared(c * m, M), _sin_squared(m, M), out=out, where=m != 0)
    return out


def order_finding_distribution(N: int, y: int, n_x: int) -> Distribution:
    """Exact measurement distribution of the order-finding exponent register.

    Evaluates y^x mod N for every basis x by running the actual modular-
    exponentiation circuit through the reversible engine (cross-checked
    against a vectorised mod_pow table), then takes the inverse DFT in
    closed form from the period of y^x mod N (see ``_period_probs``), which
    sidesteps the full-width dense state.

    Memory grows with M = 2**n_x: about 80 bytes per input for the arrays of
    the evaluation, and 16 per outcome with support for the two arrays of the
    result (peak RSS 111 MB at n_x = 20 with 4 outcomes, 121 MB with all M).
    Writing all M outcomes out as CSV or JSON adds about 95 or 145 bytes
    each, so ``simulate --N 221 --y 3 --nx 20`` peaks at 219 or 270 MB.
    n_x is therefore capped at NX_CAP = 20, and the circuit must fit the
    batch engine's 64 wires.  Both limits are checked before anything is
    built.  Results are cached; the returned distribution is read-only and
    may be shared between callers.
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
    return _order_finding_probs(N, y % N, n_x)
