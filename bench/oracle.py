"""Output checks that share no code with the program under test.

Each check takes an op's plan entry and the text the program produced, and
returns ``(ok, detail, counts)``.  The references are built here from first
principles: ``pow`` and numpy FFTs for distributions, numpy matrices of the
circuit and native gates for unitaries, trial division for primes.
"""
from __future__ import annotations

import cmath
import io
import json
import math
import re
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent   # paths in a plan are relative to it

DIST_TOL = 1e-9
UNITARY_TOL = 1e-8
SUPPORT_FLOOR = 1e-12
# Published order-finding totals for this protocol at n_x = 2n + 2:
# (native gates, XX gates, depth bound).  Counts must lie within a factor of
# two, scaled by n_x / (2n + 2).
REFERENCE_COUNTS = {
    2: (23941, 5010, 3808 * 3),
    3: (77054, 16152, 11440 * 3),
    4: (174649, 36650, 25648 * 3),
    5: (340520, 71452, 48615 * 3),
}


def default_nx(N: int) -> int:
    return 2 * N.bit_length() + 2


# -- simulate ---------------------------------------------------------------

def reference_distribution(N: int, y: int, n_x: int) -> np.ndarray:
    """Exact P(k) of the order-finding exponent register, for all k < 2^n_x.

    f(x) = pow(y, x, N) has period r = ord_N(y) and takes r distinct values,
    so the inputs with f(x) = v form one residue class x = j (mod r).  The
    amplitude of outcome k from class j is a DFT of that class's indicator;
    a class shifted by j has the same magnitude spectrum as the class at 0,
    so the per-residue FFTs reduce to one FFT per class size (q or q + 1).
    """
    M = 1 << n_x
    r = next(x for x in range(1, N + 1) if pow(y, x, N) == 1)
    q, extra = divmod(M, r)
    probs = np.zeros(M)
    for teeth, classes in ((q + 1, extra), (q, r - extra)):
        if classes and teeth:
            comb = np.zeros(M)
            comb[:teeth * r:r] = 1.0
            probs += classes * np.abs(np.fft.fft(comb)) ** 2
    return probs / float(M) ** 2


def _parse_distribution(text: str, M: int) -> np.ndarray:
    if not text.startswith("outcome,probability\n"):
        raise ValueError("missing 'outcome,probability' header")
    rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    outcomes = rows[:, 0].astype(np.int64)
    if (outcomes != rows[:, 0]).any() or outcomes.min() < 0 or outcomes.max() >= M:
        raise ValueError("outcome outside [0, 2^n_x)")
    if len(np.unique(outcomes)) != len(outcomes):
        raise ValueError("repeated outcome")
    dist = np.zeros(M)
    dist[outcomes] = rows[:, 1]
    return dist


def check_simulate(check: dict, text: str, cache: dict) -> tuple[bool, str, dict]:
    N, y = check["N"], check["y"]
    n_x = check.get("nx", default_nx(N))
    key = (N, y, n_x)
    if key not in cache:
        cache[key] = reference_distribution(N, y, n_x)
    ref = cache[key]
    try:
        got = _parse_distribution(text, len(ref))
    except ValueError as exc:
        return False, f"malformed distribution: {exc}", {}
    if abs(got.sum() - 1.0) > DIST_TOL:
        return False, f"probabilities sum to {got.sum()!r}", {}
    shots = check.get("shots")
    if shots is None:
        err = float(np.abs(got - ref).max())
        if err > DIST_TOL:
            return False, f"max |p - reference| = {err:.3g}", {}
        return True, "", {}
    drawn = np.nonzero(got)[0]
    outside = drawn[ref[drawn] <= SUPPORT_FLOOR]
    if len(outside):
        return False, f"sampled outcome {int(outside[0])} outside the support", {}
    counts = got[drawn] * shots
    if np.abs(counts - np.round(counts)).max() > 1e-6:
        return False, f"frequencies are not multiples of 1/{shots}", {}
    return True, "", {}


# -- estimate ---------------------------------------------------------------

def check_estimate(check: dict, text: str) -> tuple[bool, str, dict]:
    try:
        (report,) = json.loads(text)
        total, two = report["total_native"], report["two_qubit"]
        single, depth = report["single_qubit"], report["depth_bound"]
        hist = report["histogram"]
    except (ValueError, KeyError, TypeError) as exc:
        return False, f"malformed report: {exc!r}", {}
    n, k = check["n"], check["nx"]
    problems = []
    if (report["n"], report["n_x"]) != (n, k):
        problems.append(f"report is for n={report['n']}, n_x={report['n_x']}")
    if total != two + single:
        problems.append("total != XX + single-qubit")
    if sum(hist.values()) != total or set(hist) - {"R", "XX"} or hist.get("XX", 0) != two:
        problems.append(f"histogram {hist} does not match the totals")
    if depth <= 0 or depth % 3:
        problems.append(f"depth bound {depth} is not a positive multiple of 3")
    if n in REFERENCE_COUNTS:
        scale = k / (2 * n + 2)
        for name, got, ref in zip(("total", "XX", "depth"), (total, two, depth),
                                  REFERENCE_COUNTS[n]):
            if not ref * scale / 2 <= got <= ref * scale * 2:
                problems.append(f"{name} {got} outside x2 of {ref * scale:.0f}")
    counts = {"native_gates": total, "xx_gates": two, "depth_bound": depth}
    return not problems, "; ".join(problems), counts


# -- transpile --------------------------------------------------------------

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_V = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2


def _controlled(u: np.ndarray) -> np.ndarray:
    m = np.eye(2 * len(u), dtype=complex)
    m[len(u):, len(u):] = u
    return m


def _swap() -> np.ndarray:
    return np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def _matrix(name: str, params: list[float]) -> np.ndarray:
    """Gate unitary on its own wires, first wire most significant."""
    if name == "X":
        return _X
    if name == "H":
        return _H
    if name == "CNOT":
        return _controlled(_X)
    if name == "SWAP":
        return _swap()
    if name == "TOFFOLI":
        return _controlled(_controlled(_X))
    if name == "FREDKIN":
        return _controlled(_swap())
    if name == "CV":
        return _controlled(_V)
    if name == "CVINV":
        return _controlled(_V.conj().T)
    if name in ("CRK", "CRKINV"):
        sign = 1 if name == "CRK" else -1
        return np.diag([1, 1, 1, cmath.exp(sign * 2j * math.pi / 2 ** int(params[0]))])
    if name == "U1":
        p = params
        return np.array([[p[0] + 1j * p[1], p[2] + 1j * p[3]],
                         [p[4] + 1j * p[5], p[6] + 1j * p[7]]])
    if name == "R":
        theta, phi = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([[c, -1j * cmath.exp(-1j * phi) * s],
                         [-1j * cmath.exp(1j * phi) * s, c]])
    if name == "XX":
        c, s = math.cos(params[0]), -1j * math.sin(params[0])
        return np.array([[c, 0, 0, s], [0, c, s, 0], [0, s, c, 0], [s, 0, 0, c]])
    raise ValueError(f"unknown gate {name}")


def unitary(width: int, gates) -> np.ndarray:
    """Unitary of (name, wires, params) gates; bit w of an index is wire w."""
    dim = 1 << width
    t = np.eye(dim, dtype=complex).reshape([2] * width + [dim])
    for name, wires, params in gates:
        k = len(wires)
        axes = [width - 1 - w for w in wires]
        g = _matrix(name, params).reshape([2] * (2 * k))
        t = np.tensordot(g, t, axes=(list(range(k, 2 * k)), axes))
        t = np.moveaxis(t, list(range(k)), axes)
    return t.reshape(dim, dim)


def parse_circuit(text: str) -> tuple[int, list]:
    """Header width and (name, wires, params) of circuit text."""
    width, gates = None, []
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        if width is None:
            width = int(tokens[1])
            continue
        name = tokens[0]
        arity = 1 if name in ("X", "H", "U1", "R") else \
            3 if name in ("TOFFOLI", "FREDKIN") else 2
        gates.append((name, [int(t) for t in tokens[1:1 + arity]],
                      [float(t) for t in tokens[1 + arity:]]))
    return width, gates


_NATIVE_TEXT = re.compile(
    r"R (\d+) (\S+) (\S+)|XX (\d+) (\d+) (\S+)")


def _parse_native_text(text: str) -> tuple[int, list, float]:
    lines = text.split("\n")
    if lines[-1] != "" or not lines[0].startswith("qubits "):
        raise ValueError("missing 'qubits' header or final newline")
    width = int(lines[0][len("qubits "):])
    trailer = lines[-2]
    if not trailer.startswith("# global_phase "):
        raise ValueError("missing '# global_phase' trailer")
    phase = float(trailer[len("# global_phase "):])
    gates = []
    for lineno, line in enumerate(lines[1:-2], start=2):
        m = _NATIVE_TEXT.fullmatch(line)
        if m is None:
            raise ValueError(f"line {lineno} is not an R or XX gate: {line[:60]!r}")
        if m.group(1) is not None:
            gates.append(("R", [int(m.group(1))], [float(m.group(2)), float(m.group(3))]))
        else:
            gates.append(("XX", [int(m.group(4)), int(m.group(5))], [float(m.group(6))]))
    return width, gates, phase


def _parse_native_json(text: str) -> tuple[int, list, float]:
    payload = json.loads(text)
    if set(payload) != {"qubits", "gates", "global_phase"}:
        raise ValueError(f"unexpected keys {sorted(payload)}")
    gates = []
    for g in payload["gates"]:
        name, wires, params = g["gate"], g["wires"], g["params"]
        if (name, len(wires), len(params)) not in (("R", 1, 2), ("XX", 2, 1)):
            raise ValueError(f"not an R or XX gate: {g}")
        gates.append((name, [int(w) for w in wires], [float(p) for p in params]))
    return int(payload["qubits"]), gates, float(payload["global_phase"])


def check_transpile(check: dict, text: str) -> tuple[bool, str, dict]:
    width, source = parse_circuit((ROOT / check["source"]).read_text(encoding="utf-8"))
    try:
        parse = _parse_native_text if check["format"] == "text" else _parse_native_json
        out_width, gates, phase = parse(text)
    except (ValueError, KeyError, TypeError) as exc:
        return False, f"malformed native program: {exc}", {}
    if out_width != width:
        return False, f"program has {out_width} qubits, source has {width}", {}
    if any(w >= width for _, wires, _ in gates for w in wires) \
            or any(len(set(wires)) != len(wires) for _, wires, _ in gates):
        return False, "gate wires out of range or repeated", {}
    xx = sum(1 for name, _, _ in gates if name == "XX")
    counts = {"native_gates": len(gates), "xx_gates": xx}
    if check["unitary"]:
        err = np.abs(cmath.exp(1j * phase) * unitary(width, gates)
                     - unitary(width, source)).max()
        if err > UNITARY_TOL:
            return False, f"unitary differs from the source by {err:.3g}", counts
    return True, "", counts


# -- factor -----------------------------------------------------------------

def is_prime(N: int) -> bool:
    return N >= 2 and all(N % p for p in range(2, math.isqrt(N) + 1))


def check_factor(check: dict, text: str) -> tuple[bool, str, dict]:
    try:
        result = json.loads(text)
        N, f, trials = result["N"], result["factor"], result["trials"]
    except (ValueError, KeyError, TypeError) as exc:
        return False, f"malformed result: {exc!r}", {}
    expected = check["N"]
    counts = {"trials": trials, "composite": not is_prime(expected),
              "found": f is not None}
    if N != expected:
        return False, f"result is for N={N}", counts
    if f is not None and not (1 < f < N and N % f == 0):
        return False, f"{f} is not a nontrivial factor of {N}", counts
    if f is not None and is_prime(N):
        return False, f"returned {f} for the prime {N}", counts
    return True, "", counts


# -- error-path probes ------------------------------------------------------

def check_probe(check: dict, rc, stderr: str, text: str, exc: str | None,
                cache: dict) -> tuple[bool, str]:
    """Pass on exit 1 with a message naming the parameter, or on a result
    that matches the reference distribution."""
    if exc is not None:
        return False, "traceback: " + exc.strip().splitlines()[-1]
    if rc == 1:
        names = "|".join(re.escape(n) for n in check["names"])
        if re.search(rf"(--|\b)({names})\b", stderr):
            return True, stderr.strip()
        return False, f"exit 1 without naming {'/'.join(check['names'])}: " \
                      f"{stderr.strip()}"
    if rc == 0 and check.get("may_succeed"):
        ok, detail, _ = check_simulate(check, text, cache)
        return ok, detail or "distribution matches the reference"
    return False, f"exit {rc}: {stderr.strip()}"
