"""Pinned outputs of the lowering, and one-pass versus stepwise equivalence.

The digests were taken from the four-step pipeline that built an
intermediate circuit per step; the one-pass ``transpile`` must reproduce
them byte for byte.
"""
import hashlib
import math

import numpy as np
import pytest

from ionshor import transpiler
from ionshor.circuit import (
    CNOT, CRK, CRK_INV, FREDKIN, SWAP, TOFFOLI, H, R, X, XX, Circuit, parse,
    serialize,
)
from ionshor.simulator import circuit_unitary
from ionshor.templates import TemplateParams, order_finding, qft, qft_inv
from ionshor.transpiler import (
    lower_toffoli, lower_two_qubit, merge_singles, transpile,
)
from conftest import random_circuit

GOLDEN = [
    # (name, circuit factory, natives, sha256 of to_text(), sha256 of to_json())
    ("order_finding_N3", lambda: order_finding(TemplateParams(N=3, y=2, n=2, n_x=6)),
     27159,
     "ab829bb280474f89d660f827a59fe47de7f5118f44bcd5d78e39c036ed48af3d",
     "f301229f8afc75e82169e00aff861d367c1bfe23e81b89a931db5d8fc84a35d2"),
    ("order_finding_N7", lambda: order_finding(TemplateParams(N=7, y=2, n=3, n_x=8)),
     84974,
     "8d48ab298772508bb237d785c9a32b75edbbd6c016845e879a9029f5e35b7bb3",
     "f616f65099a59311f6c5be893b59bcd8eeec07728bc1066da7581b28ae72bb30"),
    ("order_finding_N15", lambda: order_finding(TemplateParams(N=15, y=2, n=4, n_x=10)),
     192769,
     "32e786ebf4c24f9a280d1a0d1565755a5b1b5eea139efa07d7283032de56a43a",
     "059f5bcd1278431ccfe9b22d9972682180604f92e7d701326fc3ec57230890be"),
    ("qft32", lambda: qft(range(32)),
     5264,
     "84ba2c02d544001ba9d76a5a5d9b6bdd9790035c9dff253a696b8fa9334a3f00",
     "a3c36b81a292633556d476065eec19923eb7b1f5ebc9ddc98d39bb52fc29b5eb"),
    ("qft_inv32", lambda: qft_inv(range(32)),
     5232,
     "04eea26e5bcb3f199a569cbc5fc44eee17ba446256e4e68a029878fdc20d89c2",
     "554bb8d043947c95dae75e2b9c37891085c117c9d6a2414b598d55a27d8e0439"),
    # the QFT ops of the transpile benchmark, whose products repeat across wires
    ("qft128", lambda: qft(range(128)),
     82496,
     "59f1abcc9fa116581c4e4bf65ab5393ca557e33d229ad0d5532e47574aa5704f",
     "e03518051678d561e7d603fca6de535f427f5766cebaab9bee5214f657325c6f"),
    ("qft_inv128", lambda: qft_inv(range(128)),
     82368,
     "db541fc599fe44365b583a0978b0ca248f915656a13a824c89138061e8f66e90",
     "fd56b0946debac78c106b37a060c1d56d59bdbbc624ca5897064eff368e9a16a"),
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name,make,natives,text_digest,json_digest", GOLDEN,
                         ids=[case[0] for case in GOLDEN])
def test_transpile_matches_pinned_output(name, make, natives, text_digest,
                                         json_digest):
    program = transpile(make())
    assert len(program) == natives
    assert _sha256(program.to_text()) == text_digest
    assert _sha256(program.to_json()) == json_digest


def _random_mixed_circuit(rng: np.random.Generator, width: int) -> Circuit:
    """Every elementary kind, plus native R and raw XX of either sign."""
    gates = list(random_circuit(rng, width, int(rng.integers(1, 30))).gates)
    for _ in range(int(rng.integers(0, 6))):
        pos = int(rng.integers(len(gates) + 1))
        if rng.random() < 0.5:
            w0, w1 = (int(w) for w in rng.choice(width, size=2, replace=False))
            chi = float(rng.choice([-1, 1]) * rng.uniform(0.05, math.pi / 2))
            gates.insert(pos, XX(w0, w1, chi))
        else:
            gates.insert(pos, R(int(rng.integers(width)),
                                float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4))))
    return Circuit(width, gates)


def test_one_pass_equals_stepwise_pipeline(rng):
    for _ in range(80):
        width = int(rng.integers(2, 7))
        c = _random_mixed_circuit(rng, width)
        fused = transpile(c)
        for stepwise in (merge_singles(lower_two_qubit(lower_toffoli(c))),
                         merge_singles(lower_two_qubit(c))):
            assert fused.width == stepwise.width
            assert fused.gates == stepwise.gates
            assert fused.global_phase == stepwise.global_phase
            # to_json prints repr of every float, so signed zeros count too
            assert fused.to_json() == stepwise.to_json()


@pytest.mark.parametrize("make", [
    lambda: order_finding(TemplateParams(N=3, y=2, n=2, n_x=5)),
    lambda: qft(range(32)),
], ids=["order_finding_N3", "qft32"])
def test_each_product_is_decomposed_at_most_once_per_call(monkeypatch, make):
    calls: list[bytes] = []
    decompose = transpiler.decompose_unitary

    def counting(U):
        calls.append(np.asarray(U).tobytes())
        return decompose(U)

    monkeypatch.setattr(transpiler, "decompose_unitary", counting)
    program = transpile(make())
    assert len(calls) == len(set(calls))
    # far fewer decompositions than emitted rotation pairs
    assert 10 * len(calls) < len(program)


def _shared_pool(rng: np.random.Generator, width: int) -> list:
    """A few gate objects of every multi-qubit kind plus single-qubit gates,
    for circuits that visit each object many times."""
    pool = list(random_circuit(rng, width, 12).gates)
    for _ in range(2):
        a, b, c = (int(w) for w in rng.choice(width, size=3, replace=False))
        pool += [CRK(a, b, int(rng.integers(1, 6))), CRK_INV(b, a, 3),
                 TOFFOLI(a, b, c), FREDKIN(c, a, b), SWAP(a, c),
                 XX(a, b, float(rng.uniform(0.05, 1.5))),
                 XX(b, c, -float(rng.uniform(0.05, 1.5))),
                 H(a), X(c), R(b, 0.3, -1.2)]
    return pool


def _assert_memo_agrees(c: Circuit, fused) -> None:
    stepwise = merge_singles(lower_two_qubit(c))
    assert fused.gates == stepwise.gates
    assert fused.global_phase == stepwise.global_phase
    assert fused.to_json() == stepwise.to_json()
    got = np.exp(1j * fused.global_phase) * circuit_unitary(fused.as_circuit())
    assert np.abs(got - circuit_unitary(c)).max() < 1e-9


def test_transition_memo_equals_stepwise_under_varied_entering_states(rng):
    # Shared objects recur after different gates on their wires, so the memo
    # hits and misses under many entering products; the stepwise views lower
    # every gate afresh and are the reference.
    for _ in range(30):
        width = int(rng.integers(3, 6))
        pool = _shared_pool(rng, width)
        picks = rng.integers(len(pool), size=int(rng.integers(20, 80)))
        c = Circuit(width, [pool[i] for i in picks])
        _assert_memo_agrees(c, transpile(c))


def test_transition_memo_keys_on_the_entering_products(monkeypatch):
    cx, xx = CNOT(0, 1), XX(0, 1, 0.3)
    # visits of cx: nothing pending (first sight, then recorded, then a hit),
    # then after an H on its control (a miss under a new entering product)
    c = Circuit(2, [cx, xx, cx, xx, cx, H(0), cx])
    lowered: list = []
    walk = transpiler._walk

    def counting_walk(**callbacks):
        lower = walk(**callbacks)

        def counted(g):
            lowered.append(g)
            lower(g)
        return counted

    monkeypatch.setattr(transpiler, "_walk", counting_walk)
    fused = transpile(c)
    assert [g is cx for g in lowered] == [True, False, True, False, True]
    _assert_memo_agrees(c, fused)


def test_parsed_order_finding_shares_objects_and_matches_pinned_output():
    name, make, natives, text_digest, json_digest = GOLDEN[0]
    c = parse(serialize(make()))
    assert len({id(g) for g in c.gates}) < len(c.gates) // 10
    program = transpile(c)
    assert len(program) == natives
    assert _sha256(program.to_text()) == text_digest
    assert _sha256(program.to_json()) == json_digest
