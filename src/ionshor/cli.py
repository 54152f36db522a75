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


def _require(args, *names: str) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise CliError(f"--{name} is required for this template")


def _build_circuit(args) -> Circuit:
    name = args.template.lower().rstrip("_")
    t = templates
    if name == "sum":
        return t.sum_gate(0, 1, 2)
    if name == "carry":
        return t.carry_gate(0, 1, 2, 3)
    if name == "carry_inv":
        return t.carry_inv(0, 1, 2, 3)
    if name == "ctrl_swap":
        return t.ctrl_swap(0, 1, 2)
    if name in ("cr_k", "cr_k_inv", "crk", "crk_inv"):
        _require(args, "k")
        fn = t.cr_k if "inv" not in name else t.cr_k_inv
        return fn(0, 1, args.k)
    if name in ("qft", "qft_inv"):
        _require(args, "n")
        fn = t.qft if name == "qft" else t.qft_inv
        return fn(range(args.n))
    if name in ("adder", "adder_inv"):
        _require(args, "n")
        layout = RegisterLayout(0, args.n)
        return t.adder(layout) if name == "adder" else t.adder_inv(layout)
    if name in ("adder_mod", "adder_mod_inv"):
        _require(args, "N")
        params = templates.TemplateParams(N=args.N, n=args.n)
        return t.adder_mod(params) if name == "adder_mod" else t.adder_mod_inv(params)
    if name in ("ctrl_mult_mod", "ctrl_mult_mod_inv"):
        _require(args, "N", "m")
        params = templates.TemplateParams(N=args.N, n=args.n, m=args.m, n_x=1)
        fn = t.ctrl_mult_mod if name == "ctrl_mult_mod" else t.ctrl_mult_mod_inv
        return fn(params)
    if name == "modular_exponentiation":
        _require(args, "N", "y")
        n_x = args.nx if args.nx is not None else 2 * args.N.bit_length() + 2
        return t.modular_exponentiation(
            templates.TemplateParams(N=args.N, y=args.y, n=args.n, n_x=n_x))
    if name == "order_finding":
        _require(args, "N", "y")
        n_x = args.nx if args.nx is not None else 2 * args.N.bit_length() + 2
        return t.order_finding(
            templates.TemplateParams(N=args.N, y=args.y, n=args.n, n_x=n_x))
    raise CliError(f"unknown template {args.template!r}")


def _cmd_build(args) -> None:
    _emit(serialize(_build_circuit(args)), args.output)


def _cmd_simulate(args) -> None:
    if args.shots is not None and args.shots < 1:
        raise CliError(f"--shots must be >= 1, got {args.shots}")
    n_x = args.nx if args.nx is not None else 2 * args.N.bit_length() + 2
    dist = simulator.order_finding_distribution(args.N, args.y, n_x)
    if args.shots is not None:
        rng = np.random.default_rng(args.seed)
        outcomes, probs = dist.sampling_arrays()
        draws = rng.choice(outcomes, size=args.shots, p=probs)
        values, counts = np.unique(draws, return_counts=True)
        dist = simulator.Distribution(
            {int(v): float(c) / args.shots for v, c in zip(values, counts)})
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
            return list(range(int(lo), int(hi) + 1))
        except ValueError:
            raise CliError(f"bad --n-range {arg!r}: expected LO..HI") from None
    try:
        return [int(arg)]
    except ValueError:
        raise CliError(f"bad --n-range {arg!r}: expected LO..HI or one integer") \
            from None


def _cmd_estimate(args) -> None:
    ns = _parse_range(args.n_range)
    reports = [estimator.estimate_order_finding(n, args.nx) for n in ns]
    if args.format == "json":
        text = json.dumps([json.loads(r.to_json()) for r in reports]) + "\n"
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
    p.add_argument("--max-trials", type=int, default=20)
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
