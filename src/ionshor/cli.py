"""Command-line front end: build, simulate, transpile, estimate, factor, decompose-u.

Exit codes: 0 success, 1 validation failure (message names the offending
parameter and constraint), 2 I/O failure.  Identical argv and seed produce
byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import estimator, shor, simulator, templates, transpiler
from .circuit import Circuit, RegisterLayout, parse, serialize

__all__ = ["main"]


# Distribution.sample holds a float64 uniform, an int64 index and the int64
# draw per shot, and np.unique then sorts a copy of the draws: about 24 bytes
# per shot at the peak (measured with tracemalloc), so about 240 MB at this cap.
MAX_SHOTS = 10 ** 7


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise CliError(message)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _modulus(args) -> templates.TemplateParams:
    return templates.TemplateParams(N=args.N, n=args.n)


def _multiplier(args) -> templates.TemplateParams:
    return templates.TemplateParams(N=args.N, n=args.n, m=args.m, n_x=1)


def _exponent(args) -> templates.TemplateParams:
    n_x = templates.default_n_x(args.N.bit_length(), args.nx)
    return templates.TemplateParams(N=args.N, y=args.y, n=args.n, n_x=n_x)


# Lower-case template name -> (the options it requires, checked in this
# order; its library circuit from the parsed arguments).
_TEMPLATES = {
    "sum": ((), lambda a: templates.sum_gate(0, 1, 2)),
    "carry": ((), lambda a: templates.carry_gate(0, 1, 2, 3)),
    "carry_inv": ((), lambda a: templates.carry_inv(0, 1, 2, 3)),
    "ctrl_swap": ((), lambda a: templates.ctrl_swap(0, 1, 2)),
    "cr_k": (("k",), lambda a: templates.cr_k(0, 1, a.k)),
    "cr_k_inv": (("k",), lambda a: templates.cr_k_inv(0, 1, a.k)),
    "qft": (("n",), lambda a: templates.qft(range(a.n))),
    "qft_inv": (("n",), lambda a: templates.qft_inv(range(a.n))),
    "adder": (("n",), lambda a: templates.adder(RegisterLayout(0, a.n))),
    "adder_inv": (("n",), lambda a: templates.adder_inv(RegisterLayout(0, a.n))),
    "adder_mod": (("N",), lambda a: templates.adder_mod(_modulus(a))),
    "adder_mod_inv": (("N",), lambda a: templates.adder_mod_inv(_modulus(a))),
    "ctrl_mult_mod": (("N", "m"),
                      lambda a: templates.ctrl_mult_mod(_multiplier(a))),
    "ctrl_mult_mod_inv": (("N", "m"),
                          lambda a: templates.ctrl_mult_mod_inv(_multiplier(a))),
    "modular_exponentiation": (
        ("N", "y"), lambda a: templates.modular_exponentiation(_exponent(a))),
    "order_finding": (("N", "y"),
                      lambda a: templates.order_finding(_exponent(a))),
}
_TEMPLATES["crk"], _TEMPLATES["crk_inv"] = _TEMPLATES["cr_k"], _TEMPLATES["cr_k_inv"]


def _build_circuit(args) -> Circuit:
    entry = _TEMPLATES.get(args.template.lower().rstrip("_"))
    if entry is None:
        raise CliError(f"unknown template {args.template!r}; expected one of "
                       f"{', '.join(_TEMPLATES)} (any case)")
    required, build = entry
    for name in required:
        if getattr(args, name) is None:
            raise CliError(f"--{name} is required for this template")
    return build(args)


def _cmd_build(args) -> None:
    _emit(serialize(_build_circuit(args)), args.output)


def _cmd_simulate(args) -> None:
    if args.seed is not None and args.seed < 0:
        raise CliError(f"--seed must be >= 0, got {args.seed}")
    if args.shots is not None and args.shots < 1:
        raise CliError(f"--shots must be >= 1, got {args.shots}")
    if args.shots is not None and args.shots > MAX_SHOTS:
        raise CliError(f"--shots must be <= {MAX_SHOTS}, got {args.shots}")
    n_x = templates.default_n_x(args.N.bit_length(), args.nx)
    dist = simulator.order_finding_distribution(args.N, args.y, n_x)
    if args.shots is not None:
        rng = np.random.default_rng(args.seed)
        values, counts = np.unique(dist.sample(rng, args.shots), return_counts=True)
        dist = simulator.Distribution(values, counts / args.shots)
    _emit(dist.to_json() + "\n" if args.format == "json" else dist.to_csv(),
          args.output)


def _cmd_transpile(args) -> None:
    try:
        with open(args.circuit, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read {args.circuit}: {exc}") from exc
    program = transpiler.transpile(parse(text))
    _emit(program.to_json() + "\n" if args.format == "json" else program.to_text(),
          args.output)


def _parse_range(arg: str) -> list[int]:
    if ".." in arg:
        lo, hi = arg.split("..", 1)
        try:
            ns = list(range(int(lo), int(hi) + 1))
        except ValueError:
            raise CliError(f"bad --n-range {arg!r}: expected LO..HI") from None
        if not ns:
            raise CliError(f"bad --n-range {arg!r}: LO must not exceed HI")
        return ns
    try:
        return [int(arg)]
    except ValueError:
        raise CliError(f"bad --n-range {arg!r}: expected LO..HI or one integer") \
            from None


def _cmd_estimate(args) -> None:
    ns = _parse_range(args.n_range)
    reports = [estimator.estimate_order_finding(n, args.nx) for n in ns]
    if args.format == "json":
        text = json.dumps([r.to_dict() for r in reports]) + "\n"
    elif args.format == "csv":
        text = estimator.reports_to_csv(reports)
    else:
        widths = (4, 6, 8, 14, 12, 14, 12)
        header = ("n", "n_x", "N", "total_native", "two_qubit",
                  "single_qubit", "depth_bound")
        rows = [header] + [
            (r.n, r.n_x, r.N, r.total_native, r.two_qubit, r.single_qubit,
             r.depth_bound) for r in reports]
        text = "\n".join("".join(str(v).rjust(w) for v, w in zip(row, widths))
                         for row in rows) + "\n"
    _emit(text, args.output)


def _cmd_factor(args) -> None:
    if args.seed is not None and args.seed < 0:
        raise CliError(f"--seed must be >= 0, got {args.seed}")
    if args.max_trials < 1:
        raise CliError(f"--max-trials must be >= 1, got {args.max_trials}")
    outcome = shor.factor(args.N, seed=args.seed, max_trials=args.max_trials)
    _emit(outcome.to_json() + "\n", args.output)


def _cmd_decompose_u(args) -> None:
    v = args.entries
    if not np.isfinite(v).all():
        raise CliError(f"decompose-u entries must be finite, got {v}")
    matrix = [[complex(v[0], v[1]), complex(v[2], v[3])],
              [complex(v[4], v[5]), complex(v[6], v[7])]]
    p = transpiler.decompose_unitary(matrix)
    text = json.dumps({"a": float(f"{p.a:.12g}"), "b": float(f"{p.b:.12g}"),
                       "c": float(f"{p.c:.12g}"), "d": float(f"{p.d:.12g}")})
    _emit(text + "\n", args.output)


def _make_parser() -> _Parser:
    parser = _Parser(prog="ionshor", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common_out(p):
        p.add_argument("--output", "-o", default=None, help="write to file")

    p = sub.add_parser("build", help="emit a named template as circuit text")
    p.add_argument("--template", required=True)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--y", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--nx", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    common_out(p)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("simulate",
                       help="exact order-finding measurement distribution")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--nx", type=int, default=None)
    p.add_argument("--shots", type=int, default=None,
                   help="sample instead of reporting exact probabilities")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    common_out(p)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("transpile", help="lower a circuit file to R/XX natives")
    p.add_argument("circuit", help="circuit text file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    common_out(p)
    p.set_defaults(fn=_cmd_transpile)

    p = sub.add_parser("estimate", help="order-finding resource table")
    p.add_argument("--n-range", required=True, help="e.g. 2..5 or a single n")
    p.add_argument("--nx", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json", "text"), default="text")
    common_out(p)
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("factor", help="run the factorization driver")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-trials", type=int, default=shor.MAX_TRIALS)
    common_out(p)
    p.set_defaults(fn=_cmd_factor)

    p = sub.add_parser("decompose-u",
                       help="angles (a, b, c, d) of a 2x2 unitary")
    p.add_argument("entries", type=float, nargs=8,
                   metavar="F", help="re00 im00 re01 im01 re10 im10 re11 im11")
    common_out(p)
    p.set_defaults(fn=_cmd_decompose_u)
    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        args.fn(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
