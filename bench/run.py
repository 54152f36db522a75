"""Benchmark of the ionshor CLI: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload estimate --seed 1 --seconds 20 --trace 0

Workloads (see ``plan.py`` and ``BENCHMARK.json`` for why each exists):
``estimate``, ``transpile``, ``simulate`` and ``factor``.  Every pass is a
fresh interpreter with one BLAS/OpenMP thread that imports ``src/ionshor``
and runs the workload's ops, each one in-process ``ionshor.cli.main(argv)``
call.  Passes repeat until ``--seconds`` would be exceeded; every op of every
pass is checked by ``oracle.py``.  With ``--trace 0`` the passes are untraced
and the end-to-end metrics are reported; with ``--trace 1`` untraced and
traced passes alternate and the per-layer metrics are reported, together
with the tracing overhead.  The last line of stdout is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import plan  # noqa: E402

# Import-only interpreters run after every untraced pass, for setup_s.  Spread
# over the run, their median follows the host's speed over the whole run
# rather than over the second or so that a block of samples takes.
IMPORTS_PER_PASS = 6
RUN_LIMIT_S = 170           # a run must end well inside 180 s
THREAD_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

# Metric names and units; the run reports exactly the listed ones.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class BenchError(Exception):
    """The benchmark itself could not run (not a failed op)."""


class Runner:
    def __init__(self, workload: str, seed: int, work: Path):
        self.work = work
        self.rel = os.path.relpath(work, ROOT)
        self.plan = plan.make(workload, seed, self.rel)
        self.started = time.monotonic()
        self.jobs = 0

    def spawn(self, job: dict) -> dict:
        self.jobs += 1
        path = self.work / f"job{self.jobs}.json"
        path.write_text(json.dumps(job), encoding="utf-8")
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        try:
            proc = subprocess.run(
                [sys.executable, "-I", str(BENCH / "worker.py"), str(path)],
                cwd=ROOT, env={**os.environ, **THREAD_ENV}, capture_output=True,
                text=True, timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{job['mode']} job did not finish within the "
                             f"{RUN_LIMIT_S} s limit of a run") from None
        if proc.returncode != 0:
            raise BenchError(f"{job['mode']} job exited with {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def pass_job(self, traced: bool) -> dict:
        ops = [{"argv": op.argv, "output": op.output, "save": f"{self.rel}/op{i}.txt"}
               for i, op in enumerate(self.plan.ops)]
        probes = [{"argv": p.argv, "save": f"{self.rel}/probe{i}.txt"}
                  for i, p in enumerate(self.plan.probes)]
        return {"mode": "pass", "trace": traced, "ops": ops, "probes": probes,
                "spans": f"{self.rel}/spans.jsonl"}

    def passes(self, seconds: float, trace: bool
               ) -> tuple[list[tuple[bool, dict]], list[float]]:
        """Run passes until another one would end after ``seconds``.  With
        tracing, untraced and traced passes alternate in whole pairs;
        without, each pass is followed by import samples.  Returns the
        passes and the import times of every interpreter started."""
        start = time.monotonic()
        done: list[tuple[bool, dict, float]] = []
        setup: list[float] = []
        while True:
            traced = trace and len(done) % 2 == 1
            t = time.monotonic()
            reply = self.spawn(self.pass_job(traced))
            setup.append(reply["setup_s"])
            if not trace:
                setup += [self.spawn({"mode": "import"})["setup_s"]
                          for _ in range(IMPORTS_PER_PASS)]
            done.append((traced, reply, time.monotonic() - t))
            if trace and len(done) % 2:
                continue
            group = 2 if trace else 1
            cost = statistics.median(
                sum(d for _, _, d in done[i:i + group])
                for i in range(0, len(done), group))
            if time.monotonic() - start + cost > seconds:
                return [(traced, reply) for traced, reply, _ in done], setup

    def output_text(self, i: int, op: plan.Op) -> str:
        path = ROOT / (op.output or f"{self.rel}/op{i}.txt")
        return path.read_text(encoding="utf-8") if path.exists() else ""

    def verify(self, workload: str, replies: list[dict]):
        """Oracle verdict and output counts per op; the outputs of every pass
        must be byte-identical, so the last pass's files stand for all."""
        cache: dict = {}
        verdicts, counts = [], []
        for i, op in enumerate(self.plan.ops):
            results = [r["ops"][i] for r in replies]
            bad = next((r for r in results if r["exc"] or r["rc"] != 0), None)
            if bad is not None:
                detail = bad["exc"] or f"exit {bad['rc']}: {bad['err'].strip()}"
                verdicts.append((False, detail.strip().splitlines()[-1]))
                counts.append({})
                continue
            if len({r["sha"] for r in results}) > 1:
                verdicts.append((False, "output differs between passes"))
                counts.append({})
                continue
            text = self.output_text(i, op)
            if workload == "simulate":
                ok, detail, c = oracle.check_simulate(op.check, text, cache)
            else:
                check = getattr(oracle, f"check_{workload}")
                ok, detail, c = check(op.check, text)
            verdicts.append((ok, detail))
            counts.append(c)
        probes = []
        for i, probe in enumerate(self.plan.probes):
            last = replies[-1]["probes"][i]
            text = (ROOT / self.rel / f"probe{i}.txt").read_text(encoding="utf-8")
            ok, detail = oracle.check_probe(probe.check, last["rc"], last["err"],
                                            text, last["exc"], cache)
            probes.append((probe, ok, detail))
        return verdicts, counts, probes


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _end_to_end(replies: list[dict]) -> dict[str, float]:
    """Medians over passes.  The latency percentiles are taken over each op's
    best latency across the passes, which drops the time that a slow spell
    of the shared host added to one of its runs."""
    per_op = [min(r["ops"][i]["t"] for r in replies)
              for i in range(len(replies[0]["ops"]))]
    return {"wall_s": statistics.median(sum(op["t"] for op in r["ops"])
                                        for r in replies),
            "op_p50_ms": statistics.median(per_op) * 1e3,
            "op_p90_ms": _p90(per_op) * 1e3,
            "peak_rss_mb": statistics.median(r["rss_kb"] for r in replies) / 1024}


def _output_counts(counts: list[dict]) -> dict[str, float]:
    total = {k: sum(c.get(k, 0) for c in counts)
             for k in ("native_gates", "xx_gates", "depth_bound")}
    factor_ops = [c for c in counts if "trials" in c]
    composites = [c for c in factor_ops if c["composite"]]
    total["success_rate"] = (sum(c["found"] for c in composites) / len(composites)
                             if composites else 0.0)
    total["trials_per_op"] = (sum(c["trials"] for c in factor_ops) / len(factor_ops)
                              if factor_ops else 0.0)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(plan.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(args.workload, args.seed, work)
        if runner.plan.builds:
            runner.spawn({"mode": "build", "argv": runner.plan.builds})
        # The first interpreter compiles the bytecode, so its import is not timed.
        runner.spawn({"mode": "import"})
        done, setup = runner.passes(args.seconds, bool(args.trace))
        replies = [reply for _, reply in done]
        verdicts, counts, probes = runner.verify(args.workload, replies)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        for path in work.iterdir():
            if path.name != "spans.jsonl":
                path.unlink()

    n_ops = len(runner.plan.ops)
    # An op that fails in one pass counts as failed in every pass.
    attempted = n_ops * len(replies)
    failed = sum(not ok for ok, _ in verdicts) * len(replies)
    probe_failed = sum(not ok for _, ok, _ in probes) * len(replies)
    error_rate = (failed + probe_failed) / (attempted + len(probes) * len(replies))
    untraced = [r for t, r in done if not t]
    traced = [r for t, r in done if t]

    print(f"workload {args.workload}, seed {args.seed}: {len(replies)} passes of "
          f"{n_ops} ops ({len(traced)} traced)")
    for i, (ok, detail) in enumerate(verdicts):
        if not ok:
            print(f"  FAILED op {' '.join(runner.plan.ops[i].argv)}: {detail}")
    for probe, ok, detail in probes:
        print(f"  probe {' '.join(probe.argv)}: {'pass' if ok else 'FAIL'} ({detail})")
    print(f"  error_rate {error_rate:.4f} ({failed} of {attempted} ops failed, "
          f"{probe_failed} of {len(probes) * len(replies)} probes failed)")
    outputs = _output_counts(counts)
    layer_units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    print("  " + ", ".join(f"{k} {v:g} {layer_units[k]}"
                           for k, v in outputs.items() if v))
    print("  pass wall_s: " + " ".join(
        f"{sum(op['t'] for op in r['ops']):.3f}{'*' if t else ''}" for t, r in done))

    if not args.trace:
        metrics = {"setup_s": statistics.median(setup), **_end_to_end(untraced)}
        print(f"  op_p50_ms and op_p90_ms are over {n_ops} ops, each the best "
              f"of {len(untraced)} passes")
    else:
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        metrics["cli.bytes_out"] = statistics.median(
            sum(op["bytes"] for op in r["ops"]) for r in traced)
        traced_wall = _end_to_end(traced)["wall_s"]
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - _end_to_end(untraced)["wall_s"]
        metrics.update(outputs)
        metrics["error_rate"] = error_rate
        metrics["probe_failures"] = probe_failed
    units = {m["name"]: m["unit"]
             for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        print(f"benchmark failed: metrics {sorted(set(metrics) ^ set(units))} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"  {name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
