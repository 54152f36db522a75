"""One-off check that the traced per-step gate counts reproduce the baseline.

Run from the root of a checkout:  python3 bench/check_baseline.py

It traces ``estimate --n-range n --nx 2n+2`` for n = 2, 4, 6 and compares
the gates out of each lowering step, the XX count and the depth bound with
the baseline table recorded before any optimisation.  It also checks the
``decompose_unitary`` calls and distinct inputs of two transpile runs; the
recorded distinct counts are of inputs rounded to 12 decimals, and the
exact count that the traced run reports is printed next to them.  It takes
under a minute and exits 1 on any mismatch.
"""
import contextlib
import io
import json
import os
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import numpy as np  # noqa: E402

import ionshor.cli  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

# n: elementary gates, after lower_toffoli, after lower_two_qubit, native,
# XX, depth bound (ROADMAP baseline, n_x = 2n + 2).
BASELINE = {
    2: (2106, 5274, 21837, 27159, 5427, 11526),
    4: (13990, 37350, 154535, 192769, 38545, 74841),
    6: (44114, 120050, 496433, 619739, 123935, 234684),
}
# circuit: decompose_unitary (calls, distinct inputs rounded to 12 decimals)
DECOMPOSE = {
    ("Order_Finding", "--N", "13", "--y", "2"): (78552, 52),
    ("QFT", "--n", "128"): (33024, 166),
}


def traced(argv: list[str]) -> tuple[dict, str, Tracer]:
    tracer = Tracer()
    tracer.install()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = ionshor.cli.main(argv)
    finally:
        tracer.uninstall()
    if rc != 0:
        raise SystemExit(f"{argv} exited with {rc}")
    return layer_metrics(tracer), out.getvalue(), tracer


def main() -> int:
    mismatches = 0
    for n, expected in BASELINE.items():
        m, text, _ = traced(["estimate", "--n-range", str(n),
                             "--nx", str(2 * n + 2), "--format", "json"])
        (report,) = json.loads(text)
        got = (m["templates.gates_out"], m["transpiler.lower_toffoli.gates_out"],
               m["transpiler.lower_two_qubit.gates_out"],
               m["transpiler.merge_singles.gates_out"], report["two_qubit"],
               report["depth_bound"])
        ok = got == expected
        mismatches += not ok
        print(f"n={n}: {' / '.join(map(str, got))} "
              f"{'matches' if ok else 'DIFFERS from ' + str(expected)}")
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for template, expected in DECOMPOSE.items():
            path = os.path.join(tmp, "c.qc")
            if ionshor.cli.main(["build", "--template", *template, "-o", path]):
                raise SystemExit(f"build {template} failed")
            m, _, tracer = traced(["transpile", path, "-o", os.path.join(tmp, "out")])
            inputs = tracer.distinct["transpiler.decompose_unitary"]
            rounded = {np.round(np.frombuffer(key, dtype=complex), 12).tobytes()
                       for key in inputs}
            got = (m["transpiler.decompose_unitary.calls"], len(rounded))
            ok = got == expected
            mismatches += not ok
            print(f"{' '.join(template)}: decompose_unitary {got[0]} calls, "
                  f"{got[1]} distinct after rounding, {len(inputs)} exact "
                  f"{'matches' if ok else 'DIFFERS from ' + str(expected)}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
