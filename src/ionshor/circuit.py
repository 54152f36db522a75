"""Gate-level circuit IR: gate kinds, register layout, inversion, text round-trip.

Wire convention is little-endian throughout: wire 0 carries the least
significant bit of a computational-basis index, and the first wire of a
register is that register's least significant bit.  Gate matrices index the
first listed wire as the most significant bit of the gate's own basis, so
``CNOT(c, t)`` is the textbook [[1,0,0,0],[0,1,0,0],[0,0,0,1],[0,0,1,0]].

Circuits are immutable after construction and all operations here are pure,
so values are safe to share across threads.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Mapping

import numpy as np

__all__ = [
    "GateKind", "Gate", "Circuit", "RegisterLayout", "ParseError",
    "X", "H", "CNOT", "SWAP", "TOFFOLI", "FREDKIN", "CRK", "CRK_INV",
    "CV", "CV_INV", "U1", "R", "XX",
    "crk_angle", "gate_adjoint", "gate_matrix", "inverse", "serialize", "parse",
]

UNITARY_TOL = 1e-10


class GateKind(Enum):
    """Closed gate set: elementary gates plus the two trapped-ion natives."""

    X = "X"
    H = "H"
    CNOT = "CNOT"
    SWAP = "SWAP"
    TOFFOLI = "TOFFOLI"
    FREDKIN = "FREDKIN"
    CRK = "CRK"          # controlled phase diag(1,1,1,e^{2pi i/2^k})
    CRKINV = "CRKINV"
    CV = "CV"            # controlled sqrt(X)
    CVINV = "CVINV"
    U1 = "U1"            # arbitrary single-qubit unitary, 8 re/im params
    R = "R"              # native single-qubit rotation R(theta, phi)
    XX = "XX"            # native Molmer-Sorensen XX(chi)

    # Members are singletons compared by identity, so the identity hash is
    # equivalent to Enum's and spares a Python call on every table lookup.
    __hash__ = object.__hash__

    @property
    def arity(self) -> int:
        return _SHAPE[self][1]


def _check_crk(name: str, params: tuple) -> None:
    k = params[0]
    if not (k >= 1 and k % 1 == 0):
        raise ValueError(f"CRK order k must be a positive integer, got {k}")


def _check_finite(name: str, params: tuple) -> None:
    if not all(map(math.isfinite, params)):
        raise ValueError(f"{name} params must be finite, got {params}")


def unitary_deviation(m: np.ndarray) -> float:
    """Largest entry of |m^dagger m - I|; inf, without a numpy warning, when
    huge entries overflow.  Compare with ``not err <= UNITARY_TOL`` so that
    NaN fails too."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(m.conj().T @ m - np.eye(len(m))).max()


def _check_u1(name: str, params: tuple) -> None:
    _check_finite(name, params)
    err = unitary_deviation(_u1_matrix(params))
    if not err <= UNITARY_TOL:
        raise ValueError(f"U1 matrix is not unitary (deviation {err:.3g})")


# kind -> (name, arity, number of params, params check or None): the one
# table Gate validation and parse read, without Enum's value descriptor.
_SHAPE = {kind: (kind.value, *shape)
          for kind, *shape in (
              (GateKind.X, 1, 0, None),
              (GateKind.H, 1, 0, None),
              (GateKind.CNOT, 2, 0, None),
              (GateKind.SWAP, 2, 0, None),
              (GateKind.TOFFOLI, 3, 0, None),
              (GateKind.FREDKIN, 3, 0, None),
              (GateKind.CRK, 2, 1, _check_crk),
              (GateKind.CRKINV, 2, 1, _check_crk),
              (GateKind.CV, 2, 0, None),
              (GateKind.CVINV, 2, 0, None),
              (GateKind.U1, 1, 8, _check_u1),
              (GateKind.R, 1, 2, _check_finite),
              (GateKind.XX, 2, 1, _check_finite))}


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate instance: a kind, the wires it acts on, and numeric params.

    Params by kind: CRK/CRKINV hold (k,) with integer k >= 1; R holds
    (theta, phi); XX holds (chi,); U1 holds the 2x2 matrix flattened to
    (re00, im00, re01, im01, re10, im10, re11, im11).  R, XX and U1 params
    must be finite.
    """

    kind: GateKind
    wires: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        name, arity, param_count, check = _SHAPE[self.kind]
        wires, params = self.wires, self.params
        if len(wires) != arity:
            raise ValueError(f"{name} acts on {arity} wires, got {wires}")
        if arity > 1 and len(set(wires)) != arity:
            raise ValueError(f"{name} wires must be distinct, got {wires}")
        for w in wires:
            if type(w) is not int or w < 0:
                wires = None  # leave the all-int fast path
                break
        if type(wires) is not tuple:
            object.__setattr__(self, "wires", _index_wires(self.wires))
        if len(params) != param_count:
            raise ValueError(f"{name} takes {param_count} params, got {len(params)}")
        if check is not None:
            check(name, params)


_new_object = object.__new__
_set_kind, _set_wires, _set_params = (
    Gate.kind.__set__, Gate.wires.__set__, Gate.params.__set__)


def _trusted_gate(kind: GateKind, wires: tuple[int, ...],
                  params: tuple[float, ...]) -> Gate:
    """A Gate built without ``__post_init__``'s checks, for the R and XX
    gates the lowering makes from int wires and finite params it computed
    itself; every other caller goes through ``Gate(...)``."""
    gate = _new_object(Gate)
    _set_kind(gate, kind)
    _set_wires(gate, wires)
    _set_params(gate, params)
    return gate


def _index_wires(wires) -> tuple[int, ...]:
    """The wires as a tuple of ``operator.index`` values: no float passes."""
    try:
        out = tuple(map(operator.index, wires))
        if min(out, default=0) >= 0:
            return out
    except TypeError:
        pass
    raise ValueError(f"wires must be non-negative integers, got {wires}")


def _u1_matrix(params: tuple[float, ...]) -> np.ndarray:
    p = params
    return np.array([[p[0] + 1j * p[1], p[2] + 1j * p[3]],
                     [p[4] + 1j * p[5], p[6] + 1j * p[7]]])


# Gate factories, named after the gates they build.
def X(w: int) -> Gate:
    return Gate(GateKind.X, (w,))


def H(w: int) -> Gate:
    return Gate(GateKind.H, (w,))


def CNOT(control: int, target: int) -> Gate:
    return Gate(GateKind.CNOT, (control, target))


def SWAP(w0: int, w1: int) -> Gate:
    return Gate(GateKind.SWAP, (w0, w1))


def TOFFOLI(c0: int, c1: int, target: int) -> Gate:
    return Gate(GateKind.TOFFOLI, (c0, c1, target))


def FREDKIN(control: int, t0: int, t1: int) -> Gate:
    return Gate(GateKind.FREDKIN, (control, t0, t1))


def CRK(control: int, target: int, k: int) -> Gate:
    return Gate(GateKind.CRK, (control, target), (k,))


def CRK_INV(control: int, target: int, k: int) -> Gate:
    return Gate(GateKind.CRKINV, (control, target), (k,))


def CV(control: int, target: int) -> Gate:
    return Gate(GateKind.CV, (control, target))


def CV_INV(control: int, target: int) -> Gate:
    return Gate(GateKind.CVINV, (control, target))


def U1(w: int, matrix) -> Gate:
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"U1 needs a 2x2 matrix, got shape {m.shape}")
    params = tuple(float(v) for entry in m.reshape(-1) for v in (entry.real, entry.imag))
    return Gate(GateKind.U1, (w,), params)


def R(w: int, theta: float, phi: float) -> Gate:
    return Gate(GateKind.R, (w,), (float(theta), float(phi)))


def XX(w0: int, w1: int, chi: float) -> Gate:
    return Gate(GateKind.XX, (w0, w1), (float(chi),))


_MAT_V = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2  # sqrt(X)


def _controlled(m: np.ndarray) -> np.ndarray:
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = m
    return out


def _permutation(dim: int, swaps: list[tuple[int, int]]) -> np.ndarray:
    out = np.eye(dim, dtype=complex)
    for i, j in swaps:
        out[[i, j]] = out[[j, i]]
    return out


# The unitaries of the kinds without params, built once; gate_matrix hands
# out copies.
_FIXED_MATRIX = {
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.H: np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    GateKind.CNOT: _permutation(4, [(2, 3)]),
    GateKind.SWAP: _permutation(4, [(1, 2)]),
    GateKind.TOFFOLI: _permutation(8, [(6, 7)]),
    GateKind.FREDKIN: _permutation(8, [(5, 6)]),
    GateKind.CV: _controlled(_MAT_V),
    GateKind.CVINV: _controlled(_MAT_V.conj().T),
}


def crk_angle(gate: Gate) -> float:
    """phi = +-2 pi / 2^k of a CRK (+) or CRKINV (-) gate; it is 0.0 once
    2^-k underflows, however large k is."""
    phi = math.ldexp(2 * math.pi, -int(gate.params[0]))
    return -phi if gate.kind is GateKind.CRKINV else phi


def gate_matrix(gate: Gate) -> np.ndarray:
    """Unitary of a gate on its own wires (first wire = most significant bit)."""
    kind = gate.kind
    fixed = _FIXED_MATRIX.get(kind)
    if fixed is not None:
        return fixed.copy()
    if kind in (GateKind.CRK, GateKind.CRKINV):
        phase = np.exp(1j * crk_angle(gate))
        return np.diag([1, 1, 1, phase]).astype(complex)
    if kind is GateKind.U1:
        return _u1_matrix(gate.params)
    if kind is GateKind.R:
        theta, phi = gate.params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([[c, -1j * np.exp(-1j * phi) * s],
                         [-1j * np.exp(1j * phi) * s, c]])
    if kind is GateKind.XX:
        chi = gate.params[0]
        c, s = math.cos(chi), -1j * math.sin(chi)
        return np.array([[c, 0, 0, s], [0, c, s, 0], [0, s, c, 0], [s, 0, 0, c]])
    raise ValueError(f"unknown gate kind {kind}")


_ADJOINT_KIND = {
    GateKind.CRK: GateKind.CRKINV,
    GateKind.CRKINV: GateKind.CRK,
    GateKind.CV: GateKind.CVINV,
    GateKind.CVINV: GateKind.CV,
}


def gate_adjoint(gate: Gate) -> Gate:
    """Adjoint of one gate; self-adjoint kinds come back unchanged."""
    kind = gate.kind
    if kind in _ADJOINT_KIND:
        return Gate(_ADJOINT_KIND[kind], gate.wires, gate.params)
    if kind is GateKind.XX:
        return Gate(kind, gate.wires, (-gate.params[0],))
    if kind is GateKind.R:
        theta, phi = gate.params
        return Gate(kind, gate.wires, (-theta, phi))
    if kind is GateKind.U1:
        return U1(gate.wires[0], _u1_matrix(gate.params).conj().T)
    return gate


@dataclass(frozen=True, slots=True)
class RegisterLayout:
    """Contiguous wire ranges x, z, a, b, c, N, t used by the arithmetic templates.

    Register sizes are n_x, n, n, n+1, n, n, 1 in that order; the ranges and
    the width follow from (n_x, n), which alone are compared, hashed and shown.
    """

    n_x: int
    n: int
    x: tuple[int, ...] = field(init=False, repr=False, compare=False)
    z: tuple[int, ...] = field(init=False, repr=False, compare=False)
    a: tuple[int, ...] = field(init=False, repr=False, compare=False)
    b: tuple[int, ...] = field(init=False, repr=False, compare=False)
    c: tuple[int, ...] = field(init=False, repr=False, compare=False)
    N: tuple[int, ...] = field(init=False, repr=False, compare=False)
    t: int = field(init=False, repr=False, compare=False)
    width: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n_x, n = self.n_x, self.n
        if n < 1:
            raise ValueError(f"register size n must be >= 1, got {n}")
        if n_x < 0:
            raise ValueError(f"exponent register size n_x must be >= 0, got {n_x}")
        start = 0
        for name, size in (("x", n_x), ("z", n), ("a", n), ("b", n + 1),
                           ("c", n), ("N", n), ("t", 1)):
            object.__setattr__(self, name, tuple(range(start, start + size)))
            start += size
        object.__setattr__(self, "t", self.t[0])  # t is a single wire
        object.__setattr__(self, "width", start)

    def registers(self) -> Mapping[str, tuple[int, ...]]:
        return {"x": self.x, "z": self.z, "a": self.a, "b": self.b,
                "c": self.c, "N": self.N, "t": (self.t,)}

    def encode(self, **values: int) -> int:
        """Basis index with each named register holding the given integer."""
        basis = 0
        regs = self.registers()
        for name, value in values.items():
            if name not in regs:
                raise ValueError(f"unknown register {name!r}")
            wires = regs[name]
            if not 0 <= value < (1 << len(wires)):
                raise ValueError(f"value {value} does not fit register {name} "
                                 f"of {len(wires)} bits")
            for i, w in enumerate(wires):
                basis |= ((value >> i) & 1) << w
        return basis

    def decode(self, basis: int) -> dict[str, int]:
        """Integer content of every register in a basis index."""
        out = {}
        for name, wires in self.registers().items():
            out[name] = sum(((basis >> w) & 1) << i for i, w in enumerate(wires))
        return out


@dataclass(frozen=True, slots=True)
class Circuit:
    """Ordered gate sequence over a fixed qubit count, immutable once built.

    The width is stored as a non-negative int and bounds every wire; any
    iterable of gates is stored as a tuple.  Circuits compare and hash on
    (width, gates).
    """

    width: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        width, gates = self.width, tuple(self.gates)
        try:
            width = operator.index(width)
        except TypeError:
            raise ValueError(f"width must be an integer, got {width!r}") from None
        if width < 0:
            raise ValueError(f"width must be >= 0, got {width}")
        for g in gates:
            for w in g.wires:
                if w >= width:
                    raise ValueError(f"{g.kind.value} on wires {g.wires} "
                                     f"exceeds circuit width {width}")
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "gates", gates)

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __repr__(self) -> str:
        return f"Circuit(width={self.width}, gates={len(self.gates)})"

    def __add__(self, other: "Circuit") -> "Circuit":
        if not isinstance(other, Circuit):
            return NotImplemented
        if self.width != other.width:
            raise ValueError(f"cannot compose circuits of widths "
                             f"{self.width} and {other.width}")
        return Circuit(self.width, self.gates + other.gates)

    def inverse(self) -> "Circuit":
        return inverse(self)


def inverse(circuit: Circuit) -> Circuit:
    """Adjoint circuit: gates reversed, each replaced by its own adjoint."""
    return Circuit(circuit.width, [gate_adjoint(g) for g in reversed(circuit.gates)])


def _format_params(gate: Gate) -> list[str]:
    if gate.kind in (GateKind.CRK, GateKind.CRKINV):
        return [str(int(gate.params[0]))]
    return [repr(p) for p in gate.params]


def serialize(circuit: Circuit) -> str:
    """Circuit text: a ``qubits <width>`` header then one gate per line.

    Float parameters use repr so that parse(serialize(c)) == c exactly.
    """
    lines = [f"qubits {circuit.width}"]
    for g in circuit.gates:
        tokens = [g.kind.value, *map(str, g.wires), *_format_params(g)]
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


class ParseError(ValueError):
    """Malformed circuit text; message carries the 1-based line number."""


_KIND_BY_NAME = {k.value: k for k in GateKind}


def parse(text: str) -> Circuit:
    """Parse circuit text produced by :func:`serialize`.

    Rejects unknown gate names, out-of-range wires, wrong arity, and
    malformed numbers, each with a line-numbered diagnostic.  ``#`` starts
    a comment.  Each distinct gate line is parsed once per call, and its
    repeats share that Gate.
    """
    width = None
    gates: list[Gate] = []
    # Line body -> its Gate, for lines that parsed.  The width is fixed after
    # the header, so a repeat has passed the range check too.
    parsed: dict[str, Gate] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        gate = parsed.get(line)
        if gate is not None:
            gates.append(gate)
            continue
        tokens = line.split()
        if width is None:
            if tokens[0] != "qubits" or len(tokens) != 2:
                raise ParseError(f"line {lineno}: expected header 'qubits <width>'")
            try:
                width = int(tokens[1])
            except ValueError:
                raise ParseError(f"line {lineno}: malformed width {tokens[1]!r}") from None
            if width < 0:
                raise ParseError(f"line {lineno}: width must be >= 0")
            continue
        kind = _KIND_BY_NAME.get(tokens[0])
        if kind is None:
            raise ParseError(f"line {lineno}: unknown gate {tokens[0]!r}")
        name, arity, param_count, _ = _SHAPE[kind]
        if len(tokens) != 1 + arity + param_count:
            raise ParseError(
                f"line {lineno}: {name} expects {arity} wires and "
                f"{param_count} params, got {len(tokens) - 1} fields")
        try:
            wires = tuple(int(t) for t in tokens[1:1 + arity])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed wire index") from None
        try:
            if kind in (GateKind.CRK, GateKind.CRKINV):
                params: tuple[float, ...] = (int(tokens[-1]),)
            else:
                params = tuple(float(t) for t in tokens[1 + arity:])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed numeric parameter") from None
        try:
            gate = Gate(kind, wires, params)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if any(w >= width for w in wires):
            raise ParseError(
                f"line {lineno}: wire out of range for width {width}: {wires}")
        gates.append(gate)
        parsed[line] = gate
    if width is None:
        raise ParseError("line 1: missing 'qubits <width>' header")
    return Circuit(width, gates)
