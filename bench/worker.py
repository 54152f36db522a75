"""One benchmark process: import ionshor, then run a job given as JSON.

Run as ``python -I bench/worker.py JOB.json`` from the checkout root.  The
job's ``mode`` is ``import`` (only the import is timed), ``build`` (untimed
set-up commands) or ``pass`` (timed ops, then untimed probes).  Every op is
one ``ionshor.cli.main(argv)`` call with stdout and stderr captured.  The
result is one JSON object on stdout.
"""
import sys
import time

_t0 = time.perf_counter()
import os  # noqa: E402

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
sys.path.insert(0, _SRC)
import ionshor.cli  # noqa: E402

SETUP_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def run(argv, tracer=None, op=None) -> tuple[dict, str]:
    out, err = io.StringIO(), io.StringIO()
    exc = None
    if tracer is not None:
        tracer.op = op
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = ionshor.cli.main(argv)
    except Exception:  # a traceback out of main() is a failed op, not a crash
        rc, exc = None, traceback.format_exc(limit=-2)
    elapsed = time.perf_counter() - start
    return {"t": elapsed, "rc": rc, "exc": exc, "err": err.getvalue()[-2000:]}, \
        out.getvalue()


def record_output(result: dict, text: str, path: str, written: str | None) -> None:
    """Untimed: keep the output for the oracle and fingerprint it."""
    if written is not None and os.path.exists(written):
        with open(written, "rb") as fh:
            data = fh.read()
    else:
        data = text.encode()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    result["bytes"] = len(text.encode()) + (len(data) if written else 0)
    result["sha"] = hashlib.sha256(data).hexdigest()


def main() -> int:
    if not os.path.abspath(ionshor.cli.__file__).startswith(_SRC + os.sep):
        print(f"ionshor was imported from {ionshor.cli.__file__}, not {_SRC}",
              file=sys.stderr)
        return 3
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    reply: dict = {"setup_s": SETUP_S}
    if job["mode"] == "build":
        for argv in job["argv"]:
            result, _ = run(argv)
            if result["rc"] != 0:
                print(f"set-up command {argv} failed: {result}", file=sys.stderr)
                return 4
    elif job["mode"] == "pass":
        tracer = None
        if job["trace"]:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer, layer_metrics
            tracer = Tracer()
            tracer.install()
        ops = []
        for i, op in enumerate(job["ops"]):
            if op["output"] and os.path.exists(op["output"]):
                os.remove(op["output"])
            result, text = run(op["argv"], tracer, i)
            record_output(result, text, op["save"], op["output"])
            ops.append(result)
        reply["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        reply["ops"] = ops
        if tracer is not None:
            tracer.uninstall()
            reply["layers"] = layer_metrics(tracer)
            with open(job["spans"], "w", encoding="utf-8") as fh:
                for i, span in enumerate(tracer.spans):
                    fh.write(json.dumps(span.as_dict(i)) + "\n")
        probes = []
        for probe in job["probes"]:
            result, text = run(probe["argv"])
            record_output(result, text, probe["save"], None)
            probes.append(result)
        reply["probes"] = probes
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main())
