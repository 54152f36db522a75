"""Execution engines: dense statevector, classical-reversible, structured.

The dense engine applies each gate by stride iteration over the amplitude
tensor (no full 2^n x 2^n matrices are ever formed).  The reversible engine
is bit-sliced: each wire is a Python int whose bit i is that wire's bit for
input i, and the circuit's own Gate objects are applied one by one as one or
two big-int operations on whole planes; a single basis index is one lane.
The structured order-finding evaluator checks the modular exponentiation
exactly, one exponent stage at a time: it runs each stage's gates through
that engine on the stage's 2N inputs (control bit and z < N), never on the
2^n_x exponents.  It then takes the inverse DFT in closed form: y^x mod N
has a period r, so the outcome probabilities are two Fejer kernels evaluated
in one O(2^n_x) pass, and the full-width dense state is never needed.

Basis convention: amplitude index i has bit j equal to the value of wire j.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .circuit import Circuit, GateKind, RegisterLayout, gate_matrix
from .classical import gcd, mod_pow
from . import templates

__all__ = [
    "DENSE_QUBIT_CAP", "NX_CAP", "N_CAP", "Distribution", "basis_state",
    "simulate_dense", "circuit_unitary", "simulate_reversible",
    "simulate_reversible_batch", "measure_probs", "order_finding_distribution",
]

DENSE_QUBIT_CAP = 14
# An order-finding distribution has up to 2**n_x outcomes, and building and
# printing a full support costs ~180 (CSV) to ~190 (JSON) bytes per outcome.
NX_CAP = 20
# Order finding checks each exponent stage on 2N inputs.
N_CAP = 1 << 16
_BATCH_WIRE_CAP = 64  # basis indices in and out of the batch engine are uint64
NORM_TOL = 1e-9
_PROB_FLOOR = 1e-14  # distributions drop dust below this; lost mass < NORM_TOL

CLASSICAL_KINDS = frozenset({
    GateKind.X, GateKind.CNOT, GateKind.TOFFOLI, GateKind.SWAP, GateKind.FREDKIN,
})


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
                   cap: int = DENSE_QUBIT_CAP) -> np.ndarray:
    """Evolve a statevector through the circuit.

    ``initial`` may be an amplitude array, a basis index, or None for |0...0>.
    Widths above ``cap`` qubits are rejected.
    """
    width = circuit.width
    if width > cap:
        raise ValueError(
            f"width {width} exceeds the dense cap of {cap} qubits; use the "
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


def circuit_unitary(circuit: Circuit, cap: int = DENSE_QUBIT_CAP) -> np.ndarray:
    """Full unitary of the circuit, built column-batched via the dense engine."""
    width = circuit.width
    if width > cap:
        raise ValueError(f"width {width} exceeds the dense cap of {cap} qubits")
    dim = 1 << width
    t = np.eye(dim, dtype=complex).reshape([2] * width + [dim])
    for gate in circuit.gates:
        t = _apply(t, gate_matrix(gate), gate.wires, width)
    return t.reshape(dim, dim)


def _check_classical(gates, width: int, stage: int | None = None,
                     control: int = 0, n_x: int = 0) -> None:
    """Reject gates the reversible engine may not run, before any of them
    runs: every gate must be classical and act below ``width``, and the
    gates of exponent stage ``stage`` must touch no x wire (the first
    ``n_x``) but its ``control``.
    """
    allowed = {control, *range(n_x, width)}.intersection(range(width))
    for gate in gates:
        if gate.kind in CLASSICAL_KINDS and allowed.issuperset(gate.wires):
            continue
        pos = gates.index(gate)  # the first equal gate fails first
        if gate.kind not in CLASSICAL_KINDS:
            raise ValueError(
                f"gate {pos} is {gate.kind.value}, which is not classical-"
                "reversible; the reversible engine handles only "
                "{X, CNOT, Toffoli, SWAP, Fredkin}")
        # a circuit's own gates lie below its width, so only a stage gets here
        bad = next(w for w in gate.wires if w not in allowed)
        raise ValueError(
            f"gate {pos} of exponent stage {stage} ({gate.kind.value} on "
            f"wires {gate.wires}) touches wire {bad}; the stage may act "
            f"only on x wire {control} and wires {n_x} to {width - 1}")


def simulate_reversible(circuit: Circuit, basis_in: int) -> int:
    """Propagate one basis state through a classical-reversible circuit."""
    if not 0 <= basis_in < (1 << circuit.width):
        raise ValueError(f"basis index {basis_in} out of range "
                         f"for width {circuit.width}")
    _check_classical(circuit.gates, circuit.width)
    planes = [basis_in >> w & 1 for w in range(circuit.width)]
    _run(circuit.gates, planes, 1)
    return sum(bit << w for w, bit in enumerate(planes))


def _run(gates, planes: list[int], mask: int) -> None:
    """Apply classical gates in place to a list of int bit planes.

    Plane w holds wire w's bit for input i as its bit i; ``mask`` has a one
    for every input, so X flips no bit past the last one.  Each gate is one
    or two big-int operations on whole planes.  The gates must have passed
    ``_check_classical``.
    """
    # Local names: enum class attribute lookups are slow per gate.
    x, cnot, toffoli, swap = GateKind.X, GateKind.CNOT, GateKind.TOFFOLI, GateKind.SWAP
    for gate in gates:
        kind, w = gate.kind, gate.wires
        if kind is cnot:
            a, b = w
            planes[b] ^= planes[a]
        elif kind is toffoli:
            a, b, c = w
            planes[c] ^= planes[a] & planes[b]
        elif kind is swap:
            a, b = w
            planes[a], planes[b] = planes[b], planes[a]
        elif kind is x:
            planes[w[0]] ^= mask
        else:  # FREDKIN
            a, b, c = w
            t = (planes[b] ^ planes[c]) & planes[a]
            planes[b] ^= t
            planes[c] ^= t


def _pack(values: np.ndarray, bits: int) -> list[int]:
    """Planes of bits 0..bits-1 of non-negative integer ``values``, one lane
    per value."""
    values = values.astype(np.uint64, copy=False)
    return [int.from_bytes(np.packbits((values >> np.uint64(j)) & np.uint64(1),
                                       bitorder="little").tobytes(), "little")
            for j in range(bits)]


def _unpack(planes: list[int], count: int) -> np.ndarray:
    """The first ``count`` lanes as uint64 integers whose bit i is on plane i;
    the inverse of ``_pack``."""
    out = np.zeros(count, dtype=np.uint64)
    size = -(-count // 8)
    for i, plane in enumerate(planes):
        raw = np.frombuffer(plane.to_bytes(size, "little"), dtype=np.uint8)
        bits = np.unpackbits(raw, count=count, bitorder="little")
        out |= bits.astype(np.uint64) << np.uint64(i)
    return out


def simulate_reversible_batch(circuit: Circuit, basis_in) -> np.ndarray:
    """Vectorized reversible engine on bit-sliced planes.

    Each wire is one Python int whose bit i is that wire's bit for input i,
    and each of the circuit's gates is applied as one or two big-int
    operations on whole planes.  Basis indices in are non-negative integers
    and out are uint64 words, so circuits wider than 64 wires are rejected.
    """
    width = circuit.width
    if width > _BATCH_WIRE_CAP:
        raise ValueError(f"circuit width {width} exceeds the batch "
                         f"engine's {_BATCH_WIRE_CAP}-wire limit")
    _check_classical(circuit.gates, width)
    idx = np.asarray(basis_in)
    if idx.size and not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"basis indices must be integers below 2**64, "
                         f"got an array of dtype {idx.dtype}")
    if idx.size and int(idx.min()) < 0:
        raise ValueError(f"basis indices must be non-negative, got {int(idx.min())}")
    idx = idx.astype(np.uint64, copy=False)
    if idx.size and int(idx.max()) >= (1 << width):
        raise ValueError("basis index out of range for circuit width")
    planes = _pack(idx.reshape(-1), width)
    _run(circuit.gates, planes, (1 << idx.size) - 1)
    return _unpack(planes, idx.size).reshape(idx.shape)


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

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """``size`` outcomes drawn independently from ``rng``, or one outcome
        if ``size`` is None; the probabilities are rescaled to sum to exactly
        1, as ``Generator.choice`` requires."""
        return rng.choice(self.outcomes, size,
                          p=self.probabilities / self.probabilities.sum())

    def top(self, count: int) -> list[tuple[int, float]]:
        """The ``count`` most likely outcomes; ties go to the smaller outcome."""
        order = np.argsort(-self.probabilities, kind="stable")[:count]
        return list(zip(self.outcomes[order].tolist(),
                        self.probabilities[order].tolist()))

    def _interleaved(self) -> tuple:
        """Outcome, probability, outcome, ... as Python numbers, the argument
        of one ``%`` format over all rows."""
        flat = [0] * (2 * self.outcomes.size)
        flat[::2] = self.outcomes.tolist()
        flat[1::2] = self.probabilities.tolist()
        return tuple(flat)

    def to_csv(self) -> str:
        return ("outcome,probability\n" + "%d,%.12g\n" * self.outcomes.size
                % self._interleaved())

    def to_json(self) -> str:
        # What json.dumps writes for the dict: int keys as strings, floats
        # by repr.
        row = '"%d": %r'
        return "{" + ", ".join([row] * self.outcomes.size) % self._interleaved() + "}"


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


def _order(y: int, N: int, limit: int) -> int:
    """Multiplicative order of y mod N, or ``limit`` if it is not below that."""
    r, acc = 1, y % N
    while acc != 1 and r < limit:
        acc = acc * y % N
        r += 1
    return r


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

    Checks the actual modular-exponentiation circuit one exponent stage at a
    time: stage i runs through the reversible engine on its 2N inputs and
    must multiply z by y^(2^i) mod N under x wire i and restore every other
    register, so the circuit maps x to y^x mod N.  The inverse DFT is then
    taken in closed form from the period of y^x mod N, the order of y (see
    ``_period_probs``), which sidesteps the full-width dense state.

    The check holds a few 2N-bit int planes per wire and a few N-element
    arrays: 0.2 MiB at N = 511 and 2.8 MiB at N = 65521 (n_x = 20, by
    tracemalloc), and its time grows with N, so N is capped at N_CAP = 2**16.
    The result grows with M = 2**n_x: the closed form takes about 56 bytes
    per outcome while it runs and the result keeps 16 per outcome with
    support (peak RSS 87 MB at n_x = 20, with 4 outcomes or all M; nothing
    is kept between calls, so ten bases in turn peak at 87 MB too).  Writing
    all M outcomes out as CSV or JSON adds about 96 or 107 bytes each, so
    ``simulate --N 221 --y 3 --nx 20`` peaks at 188 or 199 MB; NX_CAP = 20
    bounds this output.  Both caps are checked before anything is built.
    """
    if N < 2:
        raise ValueError(f"modulus N must be >= 2, got {N}")
    if N >= N_CAP:
        raise ValueError(f"N = {N} exceeds the order-finding evaluator's cap of "
                         f"{N_CAP - 1} (each exponent stage is checked on 2N inputs)")
    if gcd(y % N, N) != 1:
        raise ValueError(f"base {y} is not coprime to {N}")
    if n_x < 1:
        raise ValueError(f"n_x must be >= 1, got {n_x}")
    if n_x > NX_CAP:
        raise ValueError(f"n_x = {n_x} exceeds the order-finding evaluator's "
                         f"cap of {NX_CAP} (the distribution has up to 2**n_x "
                         "outcomes)")
    y %= N
    layout = RegisterLayout(n_x, N.bit_length())
    multipliers = [mod_pow(y, 1 << i, N) for i in range(n_x)]
    # Lane l < 2N holds the stage input (c, z) = (l >= N, l mod N): each z
    # plane repeats its N-lane plane of 0..N-1 above bit N.
    z = np.arange(N)
    low = (1 << N) - 1
    mask = low << N | low
    z_planes = _pack(z, layout.n)
    state = [0] * layout.width
    for w, plane in zip(layout.z, z_planes):
        state[w] = plane << N | plane
    for j, w in enumerate(layout.N):
        state[w] = mask if N >> j & 1 else 0

    # Stage i must multiply z by m_i**c mod N on every input, touch no x
    # wire but its control x_i, keep x_i and N and clear every ancilla.
    # Then, by induction over the stages, the circuit maps |x>|1> to
    # |x>|y**x mod N> with every other register restored.
    stages = 0
    for i, gates in enumerate(templates._exponent_stages(layout, y, N)):
        if i == n_x:
            raise RuntimeError("the modular exponentiation circuit has more "
                               f"than {n_x} exponent stages")
        control, m = layout.x[i], multipliers[i]
        _check_classical(gates, layout.width, i, control, n_x)
        planes = state.copy()
        planes[control] = low << N
        expected = planes.copy()
        for w, plane, product in zip(layout.z, z_planes, _pack(z * m % N, layout.n)):
            expected[w] = product << N | plane
        _run(gates, planes, mask)
        if planes != expected:
            raise RuntimeError(f"exponent stage {i} of the modular exponentiation "
                               "circuit disagrees with the classical reference")
        stages += 1
    if stages != n_x:
        raise RuntimeError(f"the modular exponentiation circuit has {stages} "
                           f"exponent stages, not {n_x}")

    # The values y**x mod N repeat with the order of y, and are distinct
    # below M when that order is M or more.
    M = 1 << n_x
    return Distribution.from_dense(_period_probs(_order(y, N, M), M))
