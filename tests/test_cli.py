import io
import json
import math
import warnings

import numpy as np
import pytest

from ionshor import cli, simulator
from ionshor.circuit import parse
from ionshor.cli import main
from conftest import grouped_fft_probs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_sum(capsys):
    code, out, _ = run(capsys, "build", "--template", "SUM")
    assert code == 0
    assert out == "qubits 3\nCNOT 0 2\nCNOT 1 2\n"


def test_build_order_finding_width(capsys):
    code, out, _ = run(capsys, "build", "--template", "Order_Finding",
                       "--N", "5", "--y", "3", "--nx", "8")
    assert code == 0
    circuit = parse(out)
    assert circuit.width == 25
    assert len(circuit.gates) > 6000


def test_build_names_match_catalog(capsys):
    for name, extra in [
        ("SUM", []), ("CARRY", []), ("CARRY_inv", []), ("Ctrl_SWAP", []),
        ("ADDER", ["--n", "2"]), ("ADDER_inv", ["--n", "2"]),
        ("ADDER_MOD", ["--N", "5"]), ("ADDER_MOD_inv", ["--N", "5"]),
        ("Ctrl_MULT_MOD", ["--N", "5", "--m", "3"]),
        ("Ctrl_MULT_MOD_inv", ["--N", "5", "--m", "3"]),
        ("CR_k", ["--k", "3"]), ("CR_k_inv", ["--k", "3"]),
        ("QFT_", ["--n", "3"]), ("QFT_inv", ["--n", "3"]),
        ("MODULAR_EXPONENTIATION", ["--N", "5", "--y", "3", "--nx", "8"]),
    ]:
        code, out, err = run(capsys, "build", "--template", name, *extra)
        assert code == 0, (name, err)
        parse(out)


def test_build_unknown_template_exits_1(capsys):
    code, _, err = run(capsys, "build", "--template", "WAT")
    assert code == 1 and "unknown template" in err


def test_build_missing_param_exits_1(capsys):
    code, _, err = run(capsys, "build", "--template", "ADDER_MOD")
    assert code == 1 and "--N" in err


@pytest.mark.parametrize("n", [2, 0])
def test_build_too_small_n_names_both_values(capsys, n):
    code, out, err = run(capsys, "build", "--template", "ADDER_MOD",
                         "--N", "5", "--n", str(n))
    assert code == 1 and out == ""
    assert f"N is too big: N = 5 needs n >= 3 bits, got n = {n}" in err


def test_simulate_trivial_distribution(capsys):
    code, out, _ = run(capsys, "simulate", "--N", "5", "--y", "1", "--nx", "4")
    assert code == 0
    assert out == "outcome,probability\n0,1\n"


def test_simulate_order_four_csv(capsys):
    code, out, _ = run(capsys, "simulate", "--N", "5", "--y", "3", "--nx", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "outcome,probability"
    assert lines[1:] == ["0,0.25", "64,0.25", "128,0.25", "192,0.25"]


def test_simulate_json(capsys):
    code, out, _ = run(capsys, "simulate", "--N", "5", "--y", "4",
                       "--nx", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"0": 0.5, "128": 0.5}


def test_simulate_shots_mode(capsys):
    code, out, _ = run(capsys, "simulate", "--N", "5", "--y", "3", "--nx", "8",
                       "--shots", "1000", "--seed", "9")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    total = sum(float(p) for _, p in rows)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert {k for k, _ in rows} <= {"0", "64", "128", "192"}


def test_simulate_rejects_non_coprime(capsys):
    code, _, err = run(capsys, "simulate", "--N", "15", "--y", "5")
    assert code == 1 and "coprime" in err


@pytest.mark.parametrize("shots", ["0", "-5"])
def test_simulate_rejects_non_positive_shots(capsys, shots):
    code, _, err = run(capsys, "simulate", "--N", "15", "--y", "2",
                       "--shots", shots)
    assert code == 1 and "--shots must be >= 1" in err


def test_simulate_rejects_shots_beyond_cap(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("distribution built before the --shots check")
    monkeypatch.setattr(simulator, "order_finding_distribution", unreachable)
    for shots in (str(cli.MAX_SHOTS + 1), "1000000000000000"):
        code, _, err = run(capsys, "simulate", "--N", "15", "--y", "7",
                           "--shots", shots)
        assert code == 1 and f"--shots must be <= {cli.MAX_SHOTS}" in err


def test_simulate_runs_modulus_beyond_64_wires(capsys):
    # n_x = 20 gives 67 wires; 256 = -1 has order 2 mod 257
    code, out, _ = run(capsys, "simulate", "--N", "257", "--y", "256")
    assert code == 0
    assert out.startswith("outcome,probability\n")
    rows = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1, ndmin=2)
    got = np.zeros(1 << 20)
    got[rows[:, 0].astype(np.int64)] = rows[:, 1]
    oracle = grouped_fft_probs([pow(256, x, 257) for x in range(1 << 20)])
    assert np.abs(got - oracle).max() <= 1e-12


def test_simulate_rejects_n_x_beyond_memory_cap(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("circuit built before the n_x check")
    monkeypatch.setattr(simulator.templates, "_exponent_stages", unreachable)
    code, _, err = run(capsys, "simulate", "--N", "15", "--y", "7", "--nx", "40")
    assert code == 1 and "n_x = 40" in err


def test_dense_cap_flag_is_gone(capsys):
    code, _, err = run(capsys, "simulate", "--N", "5", "--y", "1", "--nx", "4",
                       "--dense-cap", "20")
    assert code == 1 and "unrecognized arguments: --dense-cap" in err


# Without --nx, each command takes n_x = 2n + 2 for the n bits of N.
def test_build_defaults_n_x(capsys):
    code, out, _ = run(capsys, "build", "--template", "Order_Finding",
                       "--N", "5", "--y", "3")
    assert code == 0 and out.startswith("qubits 25\n")   # n_x = 8, 5n + 2 = 17


def test_estimate_defaults_n_x(capsys):
    code, out, _ = run(capsys, "estimate", "--n-range", "3", "--format", "json")
    assert code == 0 and json.loads(out)[0]["n_x"] == 8


def test_simulate_defaults_n_x(capsys):
    code, out, _ = run(capsys, "simulate", "--N", "5", "--y", "3")
    assert code == 0
    assert out.splitlines()[1:] == ["0,0.25", "64,0.25", "128,0.25", "192,0.25"]


def test_factor_defaults_n_x(capsys):
    # seed 1 draws a base coprime to 527 = 17 * 31, so the run reaches the
    # n_x cap rather than the gcd shortcut
    code, out, err = run(capsys, "factor", "--N", "527", "--seed", "1")
    assert code == 1 and out == ""
    assert "n_x = 22 exceeds" in err


def test_transpile_file_roundtrip(tmp_path, capsys):
    source = tmp_path / "sum.qc"
    run(capsys, "build", "--template", "SUM", "-o", str(source))
    code, out, _ = run(capsys, "transpile", str(source))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "qubits 3"
    assert lines[-1].startswith("# global_phase ")
    body_kinds = {line.split()[0] for line in lines[1:-1]}
    assert body_kinds <= {"R", "XX"}


def test_transpile_json_format(tmp_path, capsys):
    source = tmp_path / "sum.qc"
    run(capsys, "build", "--template", "SUM", "-o", str(source))
    code, out, _ = run(capsys, "transpile", str(source), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert {g["gate"] for g in payload["gates"]} <= {"R", "XX"}


@pytest.mark.parametrize("kind", ["CRK", "CRKINV"])
@pytest.mark.parametrize("k", [1024, 10**20])
def test_transpile_crk_beyond_float_exponent(tmp_path, capsys, kind, k):
    source = tmp_path / "crk.qc"
    source.write_text(f"qubits 2\n{kind} 0 1 {k}\n")
    code, out, err = run(capsys, "transpile", str(source))
    assert code == 0 and err == ""
    assert out.splitlines()[-1].startswith("# global_phase ")


def test_transpile_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "transpile", "/nonexistent/file.qc")
    assert code == 2 and "i/o error" in err


def test_transpile_bad_circuit_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.qc"
    bad.write_text("qubits 2\nBOGUS 0 1\n")
    code, _, err = run(capsys, "transpile", str(bad))
    assert code == 1 and "unknown gate" in err


def test_transpile_non_finite_param_exits_1(tmp_path, capsys):
    bad = tmp_path / "nan.qc"
    bad.write_text("qubits 2\nR 0 nan 0\nXX 0 1 inf\n")
    code, out, err = run(capsys, "transpile", str(bad))
    assert code == 1 and out == ""
    assert "line 2: R params must be finite" in err


def test_estimate_csv(capsys):
    code, out, _ = run(capsys, "estimate", "--n-range", "2..3",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,n_x,N,y,total_native,two_qubit,single_qubit,depth_bound"
    assert len(lines) == 3
    assert lines[1].startswith("2,6,3,2,")


def test_estimate_single_n_text(capsys):
    code, out, _ = run(capsys, "estimate", "--n-range", "2")
    assert code == 0
    assert "total_native" in out.splitlines()[0]


def test_estimate_bad_range_exits_1(capsys):
    code, _, err = run(capsys, "estimate", "--n-range", "x..y")
    assert code == 1 and "n-range" in err


def test_estimate_empty_range_exits_1(capsys):
    code, out, err = run(capsys, "estimate", "--n-range", "5..3")
    assert code == 1 and out == ""
    assert "--n-range" in err and "LO must not exceed HI" in err


@pytest.mark.parametrize("trials", ["-3", "0"])
def test_factor_rejects_max_trials_below_one(capsys, trials):
    code, out, err = run(capsys, "factor", "--N", "15", "--seed", "1",
                         "--max-trials", trials)
    assert code == 1 and out == ""
    assert f"--max-trials must be >= 1, got {trials}" in err


@pytest.mark.parametrize("argv", [
    ("simulate", "--N", "15", "--y", "7", "--shots", "10"),
    ("simulate", "--N", "15", "--y", "7"),
    ("factor", "--N", "15"),
])
def test_negative_seed_exits_1_naming_the_flag(capsys, monkeypatch, argv):
    def unreachable(*args, **kwargs):
        raise AssertionError("work started before the --seed check")
    monkeypatch.setattr(simulator, "order_finding_distribution", unreachable)
    monkeypatch.setattr(cli.shor, "factor", unreachable)
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == 1 and out == ""
    assert "--seed must be >= 0, got -1" in err


def test_factor_json(capsys):
    code, out, _ = run(capsys, "factor", "--N", "15", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["factor"] in (3, 5)


def test_decompose_u_hadamard(capsys):
    s = 1 / math.sqrt(2)
    code, out, _ = run(capsys, "decompose-u", repr(s), "0", repr(s), "0",
                       repr(s), "0", repr(-s), "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["a"] == pytest.approx(-math.pi / 2, abs=1e-11)
    assert payload["b"] == pytest.approx(math.pi / 4, abs=1e-11)
    assert payload["c"] == pytest.approx(-math.pi / 2, abs=1e-11)
    assert payload["d"] == pytest.approx(math.pi / 2, abs=1e-11)


def test_decompose_u_rejects_non_unitary(capsys):
    code, _, err = run(capsys, "decompose-u", "1", "0", "0", "0", "0", "0",
                       "2", "0")
    assert code == 1 and "unitary" in err


@pytest.mark.parametrize("entries", [
    ("nan", "0", "0", "0", "0", "0", "1", "0"),
    ("1", "0", "0", "0", "0", "0", "0", "inf"),
])
def test_decompose_u_rejects_non_finite(capsys, entries):
    code, out, err = run(capsys, "decompose-u", *entries)
    assert code == 1 and out == ""
    assert "entries must be finite" in err


def test_decompose_u_overflow_exits_1_without_warnings(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "decompose-u", "1", "0", "0", "0", "0", "0",
                             "1", "1e308")
    assert code == 1 and out == ""
    assert err == "error: matrix is not unitary (deviation inf)\n"


def test_byte_identical_reruns(capsys):
    argv = ("simulate", "--N", "5", "--y", "3", "--nx", "8")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    argv = ("factor", "--N", "21", "--seed", "5")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_output_file_writing(tmp_path, capsys):
    target = tmp_path / "dist.csv"
    code, out, _ = run(capsys, "simulate", "--N", "5", "--y", "1",
                       "--nx", "4", "-o", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "outcome,probability\n0,1\n"


def test_unwritable_output_exits_2(capsys):
    code, _, err = run(capsys, "simulate", "--N", "5", "--y", "1",
                       "--nx", "4", "-o", "/nonexistent-dir/out.csv")
    assert code == 2 and "i/o error" in err


def test_bad_flag_exits_1(capsys):
    code, _, err = run(capsys, "simulate", "--N", "5")
    assert code == 1
