"""Pinned CLI output of ``simulate`` and ``factor``.

The digests were taken from the engine that kept one bool row per wire and
checked the circuit with one ``mod_pow`` call per input; the bit-sliced
engine and the vectorised reference must reproduce them byte for byte,
including the seeded ``--shots`` draws and the factor trial traces.

The csv and json digests of (21, 5) and (33, 2), whose orders 6 and 10 do
not divide M, were re-taken when the per-residue FFT gave way to the closed
Fejer-kernel form: the FFT's last-bit error had flipped the 12th significant
digit of a few rows (P(1753) of (21, 5) printed ...523 and is 1.2490553452350e-7),
and the closed form prints each of them correctly rounded.

The full-size pins of (221, 3), (77, 73) and factor 77 and 99 were taken
from the evaluator that ran the exponent stages one at a time; running
them in lockstep groups must not change a byte.
"""
import hashlib

import pytest

from ionshor.cli import main

SIMULATE_GOLDEN = [
    # (N, y, extra argv, sha256 of stdout)
    (15, 7, (), "1fe10a044374fee93a709e246177bf27718fd22045b480044b168cca1fa61a7d"),
    (15, 7, ("--format", "json"),
     "c68154f4468e1e2147aad94f565952a867412921121a2ec4f07f0a860f53f87b"),
    (15, 7, ("--shots", "1000", "--seed", "5"),
     "12838a95fb1ac112be3b29cfa71f0ee13ffcecc76031835361f0a2ea4f641c81"),
    (21, 5, (), "f7218710f574064ab0cc4ac29b855561f79870ce190a2dc2c185571b68d6e32f"),
    (21, 5, ("--format", "json"),
     "49273cb0648e001dab7673c5f7abcfddfaa3454964f2cba6420f0ad780a75ea7"),
    (21, 5, ("--shots", "1000", "--seed", "5"),
     "440f355332097435c7ef6e3ea7ea1f5efd3fd9f0b6305a64e1240981c8d961a7"),
    (33, 2, (), "fefce2163a18f69f8246207cbcd5057da50be1b49f6fcca2d7076069a5c27380"),
    (33, 2, ("--format", "json"),
     "4f28ffed93838e700741afeb956f7b929e089a898410f9b883ddb76ffaeea2f5"),
    (33, 2, ("--shots", "1000", "--seed", "5"),
     "566f328890036ff5b9128ce8db0f6fd804c3897bacdd8f368c8d549565435c08"),
    # full size: 2**18 rows from 18 exponent stages, and 16 stages that
    # fit one lockstep group at 2N = 154 lanes each
    (221, 3, (), "66d5cd6df3d059fda7a62e99dbf712e98dc29696fbbb86f4cabefdd253bddbce"),
    (77, 73, ("--format", "json"),
     "dd32296a00c32ed8519bde8110222166d29ae051df23316dac7740d9cd5539db"),
]

FACTOR_GOLDEN = [
    # (N, sha256 of `factor --N N --seed 1` stdout)
    (21, "31f0ccaafff7ab0775a9f93b0d57814001eafce151d632aceca0269d2f2b3426"),
    (33, "fdddc7c40d9e73db9cce28bd3379e0d8293c6b358b05e0f630ec042bd5309f21"),
    (91, "469464aa17cdcdb426dc5ac2bbc4e5c3b66d1b914b20564ba0bbf6c0d9e14266"),
    (77, "736bfc7b39550614380b6ac6c80ea5feee9b23c2c50d7119e225b8d7218635d2"),
    (99, "5a3806f4571ca1ee205c8adb08caa82804e1a01a9f8e43d83fa11091b6960f69"),
]


def _stdout_digest(capsys, *argv: str) -> str:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("N,y,extra,digest", SIMULATE_GOLDEN,
                         ids=[f"N{N}-y{y}-{'-'.join(e) or 'csv'}"
                              for N, y, e, _ in SIMULATE_GOLDEN])
def test_simulate_matches_pinned_output(capsys, N, y, extra, digest):
    assert _stdout_digest(capsys, "simulate", "--N", str(N), "--y", str(y),
                          *extra) == digest


@pytest.mark.parametrize("N,digest", FACTOR_GOLDEN,
                         ids=[f"N{N}" for N, _ in FACTOR_GOLDEN])
def test_factor_matches_pinned_output(capsys, N, digest):
    assert _stdout_digest(capsys, "factor", "--N", str(N), "--seed", "1") == digest
