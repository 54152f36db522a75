"""Seeded inputs of the four workloads.

Each function returns the argv lists the program sees, and nothing of the
program is imported here.  The seed decides the concrete inputs; the
properties that set how much work a pass does (n and n_x for ``estimate``,
circuit family, width and format for ``transpile``, bit length of N and
order of y for ``simulate``, the (N, --seed) plan for ``factor``) are fixed
by design, so that the time of a pass does not depend on the seed.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# (n, n_x) of the estimate ops: n = 2 and 3 at n_x = 2n+1 and 2n+3, n = 4 at
# 2n+1.  A pass takes 5 to 7 s, so that a run of 24 s holds at least two
# passes even when the host is slow.
ESTIMATE_OPS = ((2, 5), (2, 7), (3, 7), (3, 9), (4, 9))
QFT_WIDTH = 128


def _prime_factors(N: int) -> set[int]:
    found, p = set(), 2
    while p * p <= N:
        while N % p == 0:
            found.add(p)
            N //= p
        p += 1
    return found | ({N} if N > 1 else set())


FACTOR_COMPOSITES = tuple(N for N in range(15, 100, 2)
                          if len(_prime_factors(N)) >= 2)
FACTOR_SEED = 1
# A prime runs all of --max-trials; that costs about 1 s at 5 bits and 2.5 s
# at 6 bits, and differs by up to 40% between primes of one width, so it is
# fixed.  A 5-bit prime keeps a pass short enough for 3-4 passes a run.
FACTOR_PRIME = 29
SIMULATE_STRATA = {4: 1, 5: 3, 6: 3, 7: 3, 8: 2}   # bit length of N -> ops
# Orders of y that are not powers of two give a distribution with full
# support, so every op prints all 2^n_x outcomes.
SIMULATE_ORDERS = [r for r in range(9, 32) if r & (r - 1)]
SHOTS = 1000


@dataclass
class Op:
    argv: list[str]
    check: dict                      # what the oracle needs to know
    output: str | None = None        # file the program writes with -o


@dataclass
class Plan:
    ops: list[Op]
    builds: list[list[str]] = field(default_factory=list)  # untimed set-up
    probes: list[Op] = field(default_factory=list)         # untimed, simulate only


def _coprime_base(rng: random.Random, N: int) -> int:
    return rng.choice([y for y in range(2, N) if math.gcd(y, N) == 1])


def estimate(rng: random.Random, work: str) -> Plan:
    """Each (n, n_x) in ESTIMATE_OPS, in seeded order.  Time and memory grow
    with n_x, and n and n_x are the only inputs of an estimate, so the seed
    sets only the order."""
    ops = [Op(["estimate", "--n-range", str(n), "--nx", str(k), "--format", "json"],
              {"n": n, "nx": k})
           for n, k in ESTIMATE_OPS]
    rng.shuffle(ops)
    return Plan(ops)


def transpile(rng: random.Random, work: str) -> Plan:
    """An order-finding circuit for a 4-bit N to JSON, a QFT on 128 wires to
    text, an inverse QFT on 128 wires to JSON and a circuit of at most 8
    wires in a drawn format.  The oracle checks the small circuit against its
    full unitary.  QFT time grows with the square of the width and JSON
    emission costs more than text, so the widths and the formats of the large
    circuits are fixed.  N and y change the order-finding circuit's gate
    count by less than 3%, and the small circuit has at most 40 gates."""
    N = rng.choice([9, 11, 13, 15])
    y = _coprime_base(rng, N)
    small = rng.choice([["QFT", "--n", str(k)] for k in (5, 6, 7, 8)]
                       + [["QFT_inv", "--n", str(k)] for k in (5, 6, 7, 8)]
                       + [["ADDER", "--n", "1"], ["ADDER_inv", "--n", "1"],
                          ["CARRY"], ["CTRL_SWAP"]])
    sources = {
        "of": (["Order_Finding", "--N", str(N), "--y", str(y)], "json"),
        "qft": (["QFT", "--n", str(QFT_WIDTH)], "text"),
        "qft_inv": (["QFT_inv", "--n", str(QFT_WIDTH)], "json"),
        "small": (small, rng.choice(["text", "json"])),
    }
    builds, ops = [], []
    for name, (template, fmt) in sources.items():
        source, out = f"{work}/{name}.qc", f"{work}/{name}.{fmt}.out"
        builds.append(["build", "--template", *template, "-o", source])
        ops.append(Op(["transpile", source, "--format", fmt, "-o", out],
                      {"source": source, "format": fmt, "unitary": name == "small"},
                      out))
    rng.shuffle(ops)
    return Plan(ops, builds)


def _order(y: int, N: int) -> int:
    return next(r for r in range(1, N + 1) if pow(y, r, N) == 1)


def simulate(rng: random.Random, work: str) -> Plan:
    """Distinct (N, y) pairs: N odd with a fixed count per bit length, and y
    of order r in SIMULATE_ORDERS, since the grouped DFT costs one FFT per
    residue.  Ops run in increasing bit length, so the program's cache holds
    the same share of distributions when the largest one is built.  The
    first op of each stratum above 4 bits is sampled (4 of 12).  Three
    error-path probes ride along."""
    ops = []
    for bits, count in SIMULATE_STRATA.items():
        lo = max(15, 2 ** (bits - 1) + 1)
        pairs = [(N, y) for N in range(lo, 2 ** bits, 2) for y in range(2, N)
                 if math.gcd(y, N) == 1 and (bits == 4 or _order(y, N) in SIMULATE_ORDERS)]
        chosen: list[tuple[int, int]] = []
        while len(chosen) < count:
            N, y = rng.choice(pairs)
            if all(N != M for M, _ in chosen):
                chosen.append((N, y))
        for i, (N, y) in enumerate(chosen):
            argv = ["simulate", "--N", str(N), "--y", str(y)]
            check = {"N": N, "y": y}
            if i == 0 and bits > 4:
                argv += ["--shots", str(SHOTS), "--seed", str(rng.randrange(2 ** 31))]
                check["shots"] = SHOTS
            ops.append(Op(argv, check))
    big = rng.randrange(257, 512, 2)
    big_y = _coprime_base(rng, big)
    N, y = ops[0].check["N"], ops[0].check["y"]
    probes = [
        Op(["simulate", "--N", str(big), "--y", str(big_y)],
           {"N": big, "y": big_y, "names": ("N", "nx", "n_x"), "may_succeed": True}),
        Op(["simulate", "--N", str(N), "--y", str(y), "--shots", "0"],
           {"N": N, "y": y, "names": ("shots",)}),
        Op(["simulate", "--N", str(N), "--y", str(y), "--shots", "-5"],
           {"N": N, "y": y, "names": ("shots",)}),
    ]
    return Plan(ops, probes=probes)


def factor(rng: random.Random, work: str) -> Plan:
    """Each composite once and one prime (1 op in 21), in seeded order.
    The per-op --seed decides how many trials an op takes, so it is fixed;
    the order decides which distributions the program's cache holds."""
    ops = [Op(["factor", "--N", str(N), "--seed", str(FACTOR_SEED)], {"N": N})
           for N in FACTOR_COMPOSITES + (FACTOR_PRIME,)]
    rng.shuffle(ops)
    return Plan(ops)


WORKLOADS = {"estimate": estimate, "transpile": transpile,
             "simulate": simulate, "factor": factor}


def make(workload: str, seed: int, work: str) -> Plan:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), work)
