"""Pinned outputs of the lowering, and one-pass versus stepwise equivalence.

The digests were taken when CR_k became one XX block, after the one-pass
``transpile`` had matched the stepwise pipeline and every CR_k unitary; a
change that keeps the lowering must reproduce them byte for byte.
"""
import hashlib
import math

import numpy as np
import pytest

from ionshor import transpiler
from ionshor.circuit import (
    CNOT, CRK, CRK_INV, FREDKIN, SWAP, TOFFOLI, H, R, X, XX, Circuit,
    GateKind, parse, serialize,
)
from ionshor.simulator import circuit_unitary
from ionshor.templates import (
    TemplateParams, modular_exponentiation, order_finding, qft, qft_inv,
)
from ionshor.transpiler import (
    lower_toffoli, lower_two_qubit, merge_singles, transpile,
)
from conftest import random_circuit

GOLDEN = [
    # (name, circuit factory, natives, sha256 of to_text(), sha256 of to_json())
    ("order_finding_N3", lambda: order_finding(TemplateParams(N=3, y=2, n=2, n_x=6)),
     27084,
     "adcd28d55dd29ac582468aefb51a7acb434b85818aaa7562df7e78e17be8aba5",
     "366a9a4ad599ff58615b7807b806bab62eec32285be21864287ca4dc25916fdf"),
    ("order_finding_N7", lambda: order_finding(TemplateParams(N=7, y=2, n=3, n_x=8)),
     84834,
     "a2924cfd9056f0d0a138d56c052ef732ceb65aba3307454bc63208e4501f16f7",
     "d7d6051576cddcb3883f0599c4a426d92063277837922cddd6358b3461d97b1e"),
    ("order_finding_N15", lambda: order_finding(TemplateParams(N=15, y=2, n=4, n_x=10)),
     192544,
     "08f1da84455ea294b79df39f02345e6df6b86134bea0ec0d645e18b7d6c628aa",
     "344eaee796668e2b96c41f750601eb76606f5396267eaa98c995cccf09452ac5"),
    ("qft32", lambda: qft(range(32)),
     2782,
     "9e12e9a4c3b0d4f60fdc3f9f58216d04cbefb229674843790eb878074b4cc768",
     "8def790365eec6ea05bbd82e0457a83e1bfd4f50b3a9f693b96ad69f92faf785"),
    ("qft_inv32", lambda: qft_inv(range(32)),
     2752,
     "f293dd7fb6a132af5cb06f7842b0f2bc0ea3f0f01b2afc6669caaa298833d665",
     "1a1c81ca4cc4541284860345f404ea897128dcdf63a53ae71655c36993b0a11c"),
    # the QFT ops of the transpile benchmark, whose products repeat across wires
    ("qft128", lambda: qft(range(128)),
     26366,
     "5a12249be72500298d28304a8f4adf8a045f25285bbe2b8405a4c09b7334c3aa",
     "78dd29c59bb88415b4191523e77a2d328fd592fb5eb495441a696283574574af"),
    ("qft_inv128", lambda: qft_inv(range(128)),
     26240,
     "9cb08079dd013d95b8bbc7db5e0df877f6a2e5edc1d371c21385eaa79ec0822d",
     "ad91e7aa452074eb50b866dc0dc9b7fd6afdc55e264e9b4a4acacf596aeb6ff0"),
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_modular_exponentiation_lowering_is_unchanged_by_the_crk_rows():
    # no CR_k here: pinned before CR_k was lowered to one XX
    program = transpile(modular_exponentiation(TemplateParams(N=3, y=2, n=2, n_x=6)))
    assert len(program) == 26964
    assert _sha256(program.to_text()) == \
        "4f6e508224e1d320f78bcc69a2523ceec53b8bf36509c387c45a5b66320471c1"
    assert _sha256(program.to_json()) == \
        "6375d89f98a9a8878acfe34b6e941dc7f6e15e3db5774dd8ae1165a7a154fb46"


@pytest.mark.parametrize("n", [*range(2, 10), 128])
def test_qft_emits_one_xx_per_crk_and_three_per_swap(n):
    # n(n-1)/2 CR_k and floor(n/2) SWAPs
    program = transpile(qft(range(n)))
    xx = sum(g.kind is GateKind.XX for g in program.gates)
    assert xx == n * (n - 1) // 2 + 3 * (n // 2)


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
