"""Shared test helpers: an independent matrix oracle and circuit generators.

The oracle builds full 2^n x 2^n unitaries by explicit basis-index embedding,
deliberately avoiding the package's stride-based amplitude path so the two
implementations check each other.
"""
from __future__ import annotations

import numpy as np
import pytest

from ionshor.circuit import (
    CNOT, CRK, CRK_INV, CV, CV_INV, FREDKIN, H, SWAP, TOFFOLI, U1, X,
    Circuit, Gate, gate_matrix,
)


def embed_gate(mat: np.ndarray, wires: tuple[int, ...], width: int) -> np.ndarray:
    """Gate matrix embedded into the full space, wire 0 = least significant."""
    dim = 1 << width
    k = len(wires)
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        sub = 0
        for i, w in enumerate(wires):
            sub |= ((col >> w) & 1) << (k - 1 - i)
        for row_sub in range(1 << k):
            amp = mat[row_sub, sub]
            if amp == 0:
                continue
            row = col
            for i, w in enumerate(wires):
                bit = (row_sub >> (k - 1 - i)) & 1
                row = (row & ~(1 << w)) | (bit << w)
            out[row, col] += amp
    return out


def oracle_unitary(circuit: Circuit) -> np.ndarray:
    """Full-matrix product oracle; keep widths <= ~8."""
    dim = 1 << circuit.width
    U = np.eye(dim, dtype=complex)
    for g in circuit.gates:
        U = embed_gate(gate_matrix(g), g.wires, circuit.width) @ U
    return U


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diagonal(r) / np.abs(np.diagonal(r)))


_CLASSICAL_FACTORIES = ("X", "CNOT", "SWAP", "TOFFOLI", "FREDKIN")
_ELEMENTARY_FACTORIES = _CLASSICAL_FACTORIES + (
    "H", "CRK", "CRKINV", "CV", "CVINV", "U1")


def _make_gate(name: str, wires: list[int], rng: np.random.Generator) -> Gate:
    if name == "X":
        return X(wires[0])
    if name == "H":
        return H(wires[0])
    if name == "CNOT":
        return CNOT(wires[0], wires[1])
    if name == "SWAP":
        return SWAP(wires[0], wires[1])
    if name == "TOFFOLI":
        return TOFFOLI(wires[0], wires[1], wires[2])
    if name == "FREDKIN":
        return FREDKIN(wires[0], wires[1], wires[2])
    if name == "CRK":
        return CRK(wires[0], wires[1], int(rng.integers(1, 6)))
    if name == "CRKINV":
        return CRK_INV(wires[0], wires[1], int(rng.integers(1, 6)))
    if name == "CV":
        return CV(wires[0], wires[1])
    if name == "CVINV":
        return CV_INV(wires[0], wires[1])
    if name == "U1":
        return U1(wires[0], haar_unitary(rng))
    raise AssertionError(name)


_ARITY = {"X": 1, "H": 1, "U1": 1, "TOFFOLI": 3, "FREDKIN": 3}


def random_circuit(rng: np.random.Generator, width: int, n_gates: int,
                   classical_only: bool = False) -> Circuit:
    names = _CLASSICAL_FACTORIES if classical_only else _ELEMENTARY_FACTORIES
    gates = []
    for _ in range(n_gates):
        name = names[rng.integers(len(names))]
        arity = _ARITY.get(name, 2)
        if arity > width:
            continue
        wires = list(rng.choice(width, size=arity, replace=False))
        gates.append(_make_gate(name, [int(w) for w in wires], rng))
    return Circuit(width, gates)


def compact(circuit: Circuit) -> Circuit:
    """Remap the circuit onto its touched wires only, preserving order."""
    touched = sorted({w for g in circuit.gates for w in g.wires})
    remap = {w: i for i, w in enumerate(touched)}
    gates = [Gate(g.kind, tuple(remap[w] for w in g.wires), g.params)
             for g in circuit.gates]
    return Circuit(len(touched), gates)


def grouped_fft_probs(f: np.ndarray) -> np.ndarray:
    """Oracle: the post inverse-QFT amplitude of outcome k from the inputs
    mapping to value v is (1/M) sum_{x: f(x)=v} exp(-2 pi i k x / M); so
    group the inputs by value, DFT each indicator and sum the squares."""
    f = np.asarray(f)
    M = f.size
    probs = np.zeros(M)
    for value in np.unique(f):
        probs += np.abs(np.fft.fft((f == value).astype(float))) ** 2
    return probs / float(M) ** 2


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240917)
