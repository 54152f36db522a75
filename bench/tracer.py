"""Spans and counters recorded from outside the program, for the traced run.

The tracer replaces a public function at the module attribute its callers
look up (``ionshor.transpiler.lower_two_qubit``, ``ionshor.shor.mod_pow``,
...) with a wrapper, and puts the original back on ``uninstall``.  Spans
record a name, start, end, parent span and op id.  Hot, fine-grained
functions are only counted, against the innermost open span.  The one
exception is ``mod_pow`` as the simulator looks it up: it is the simulator's
classical cross-check, and the span around it is stamped with the start of
the first call and the end of the last, so that the check gets a time of its
own.  Nothing here is imported by the untraced run.
"""
from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name, attribute recorded from the result).  The same
# function appears once per module whose code looks it up by that name.
SPANNED = [
    ("ionshor.cli", "main", "cli.main", None),
    ("ionshor.cli", "parse", "circuit.parse", "gates"),
    ("ionshor.estimator", "estimate_order_finding", "estimator.estimate", None),
    ("ionshor.estimator", "count_gates", "estimator.count_gates", None),
    ("ionshor.estimator", "depth_bound", "estimator.depth_bound", None),
    ("ionshor.estimator", "order_finding", "templates.order_finding", "gates"),
    ("ionshor.estimator", "transpile", "transpiler.transpile", "gates"),
    ("ionshor.transpiler", "transpile", "transpiler.transpile", "gates"),
    ("ionshor.transpiler", "lower_toffoli", "transpiler.lower_toffoli", "gates"),
    ("ionshor.transpiler", "lower_two_qubit", "transpiler.lower_two_qubit", "gates"),
    ("ionshor.transpiler", "merge_singles", "transpiler.merge_singles", "gates"),
    ("ionshor.transpiler.NativeProgram", "to_text", "transpiler.emit", "bytes"),
    ("ionshor.transpiler.NativeProgram", "to_json", "transpiler.emit", "bytes"),
    ("ionshor.simulator", "order_finding_distribution", "simulator.distribution", None),
    ("ionshor.shor", "order_finding_distribution", "simulator.distribution", None),
    ("ionshor.simulator", "simulate_reversible_batch", "simulator.batch",
     "gate_inputs"),
    ("ionshor.shor", "factor", "shor.factor", "trials"),
]

# (module, attribute, counter name, whether distinct inputs are counted)
COUNTED = [
    ("ionshor.transpiler", "decompose_unitary", "transpiler.decompose_unitary", True),
    ("ionshor.classical", "mod_pow", "classical.mod_pow", False),
    ("ionshor.shor", "mod_pow", "classical.mod_pow", False),
    ("ionshor.classical", "order_candidates", "classical.order_candidates", False),
    ("ionshor.shor", "order_candidates", "classical.order_candidates", False),
]

# (module, attribute, counter name) of the simulator's reference check
REFERENCE = ("ionshor.simulator", "mod_pow", "classical.mod_pow")
CALIBRATION_CALLS = 20000


def _resolve(path: str):
    """Module, or class inside a module, named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


def _span_value(kind: str | None, args, result) -> int | None:
    if kind == "gate_inputs":
        return len(args[0]) * len(args[1])
    if kind == "gates":
        return len(result)
    if kind == "bytes":
        return len(result.encode())
    if kind == "trials":
        return result.trials
    return None


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "value", "counts",
                 "ref_first", "ref_last", "ref_calls")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.value = None
        self.counts = None
        self.ref_first = None   # start of the first reference call in this span
        self.ref_last = None    # end of the last one
        self.ref_calls = 0

    def as_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                "value": self.value, "counts": self.counts or {},
                "reference_calls": self.ref_calls}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        templates = importlib.import_module("ionshor.templates")
        spanned = SPANNED + [
            ("ionshor.templates", f, f"templates.{f}", "gates")
            for f in templates.__all__ if not isinstance(getattr(templates, f), type)]
        for path, attr, name, kind in spanned:
            self._patch(path, attr, self._spanned(name, kind))
        for path, attr, name, distinct in COUNTED:
            self._patch(path, attr, self._counted(name, distinct))
        path, attr, name = REFERENCE
        self._patch(path, attr, self._reference(name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, path: str, attr: str, make) -> None:
        owner = _resolve(path)
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # -- wrappers ---------------------------------------------------------
    def _spanned(self, name: str, kind: str | None):
        spans, stack = self.spans, self.stack

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = Span(name, 0.0, stack[-1] if stack else None, self.op)
                stack.append(len(spans))
                spans.append(span)
                span.start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = perf_counter()
                    stack.pop()
                span.value = _span_value(kind, args, result)
                return result
            return wrapper
        return make

    def _counted(self, name: str, distinct: bool):
        spans, stack, counts = self.spans, self.stack, self.counts
        seen = self.distinct[name]

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                if distinct:
                    seen.add(_matrix_key(args[0]))
                if stack:
                    span = spans[stack[-1]]
                    if span.counts is None:
                        span.counts = Counter()
                    span.counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _reference(self, name: str):
        spans, stack, counts = self.spans, self.stack, self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                if not stack:
                    return fn(*args, **kwargs)
                span = spans[stack[-1]]
                if span.ref_first is None:
                    span.ref_first = perf_counter()
                result = fn(*args, **kwargs)
                span.ref_last = perf_counter()
                span.ref_calls += 1
                return result
            return wrapper
        return make


def reference_overhead() -> float:
    """Seconds the reference wrapper adds to one call: wrapped minus bare
    calls of a no-op inside an open span, the fastest of five batches."""
    def noop(y, x, N):
        return 1

    probe = Tracer()
    probe.spans.append(Span("calibration", 0.0, None, None))
    probe.stack.append(0)
    wrapped = probe._reference("calibration")(noop)
    best = {}
    for fn in (noop, wrapped) * 5:
        start = perf_counter()
        for x in range(CALIBRATION_CALLS):
            fn(3, x, 7)
        elapsed = perf_counter() - start
        best[fn] = min(best.get(fn, elapsed), elapsed)
    return max(best[wrapped] - best[noop], 0.0) / CALIBRATION_CALLS


def _matrix_key(matrix) -> bytes:
    return np.asarray(matrix, dtype=complex).tobytes()


def _ancestors(spans: list[Span], index: int):
    parent = spans[index].parent
    while parent is not None:
        yield spans[parent]
        parent = spans[parent].parent


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times and counts of one traced pass.

    A span's self time is its duration minus that of its direct children.
    Inside a distribution span, the stretch from the first to the last
    reference ``mod_pow`` call is the classical reference check, and is
    counted as a child ``simulator.reference`` span of its own.  What the
    wrapper adds to each of those calls, measured by
    ``reference_overhead``, is taken out of the reference time and charged
    to no layer.  The counting wrappers' own cost is not taken out: it stays
    in the self time of the span that made the calls.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    reference = 0.0
    overhead = reference_overhead()
    for i, s in enumerate(spans):
        duration = s.end - s.start
        if s.parent is not None:
            child_time[s.parent] += duration
        if s.ref_first is not None:
            stretch = s.ref_last - s.ref_first
            reference += max(stretch - s.ref_calls * overhead, 0.0)
            child_time[i] += stretch
    total: Counter = Counter()
    value: Counter = Counter()
    self_by_name: Counter = Counter()
    self_by_layer: Counter = Counter()
    for i, s in enumerate(spans):
        duration = s.end - s.start
        own = duration - child_time[i]
        self_by_name[s.name] += own
        self_by_layer[s.name.split(".")[0]] += own
        total[s.name] += duration
        if s.value is not None:
            value[s.name] += s.value
    self_by_layer["simulator"] += reference

    def outermost(prefix: str):
        for i, s in enumerate(spans):
            if s.name.startswith(prefix) and not any(
                    a.name.startswith(prefix) for a in _ancestors(spans, i)):
                yield s

    templates_top = list(outermost("templates."))
    calls = sum(1 for s in spans if s.name == "simulator.distribution")
    builds = sum(1 for i, s in enumerate(spans) if s.name == "simulator.batch"
                 and any(a.name == "simulator.distribution"
                         for a in _ancestors(spans, i)))
    in_shor = [s for i, s in enumerate(spans) if s.name == "shor.factor" or any(
        a.name == "shor.factor" for a in _ancestors(spans, i))]
    shor_dist = sum(1 for s in in_shor if s.name == "simulator.distribution")
    # one order_candidates call per measurement sample
    shor_samples = sum((s.counts or {}).get("classical.order_candidates", 0)
                       for s in in_shor)
    m = {
        "transpiler.lower_toffoli_s": total["transpiler.lower_toffoli"],
        "transpiler.lower_toffoli.gates_out": value["transpiler.lower_toffoli"],
        "transpiler.lower_two_qubit_s": total["transpiler.lower_two_qubit"],
        "transpiler.lower_two_qubit.gates_out": value["transpiler.lower_two_qubit"],
        "transpiler.merge_singles_s": total["transpiler.merge_singles"],
        "transpiler.merge_singles.gates_out": value["transpiler.merge_singles"],
        "transpiler.decompose_unitary.calls":
            tracer.counts["transpiler.decompose_unitary"],
        "transpiler.decompose_unitary.distinct":
            len(tracer.distinct["transpiler.decompose_unitary"]),
        "transpiler.emit_s": total["transpiler.emit"],
        "transpiler.emit.bytes": value["transpiler.emit"],
        "circuit.parse_s": total["circuit.parse"],
        "circuit.parse.gates": value["circuit.parse"],
        "cli.self_s": self_by_layer["cli"],
        "estimator.count_gates_s": total["estimator.count_gates"],
        "estimator.depth_bound_s": total["estimator.depth_bound"],
        "templates.build_s": sum(s.end - s.start for s in templates_top),
        "templates.gates_out": sum(s.value or 0 for s in templates_top),
        "simulator.batch_s": total["simulator.batch"],
        "simulator.batch.gate_inputs": value["simulator.batch"],
        "simulator.reference_s": reference,
        "simulator.distribution.self_s": self_by_name["simulator.distribution"],
        "simulator.distribution.calls": calls,
        "simulator.distribution.builds": builds,
        "simulator.cache_hit_ratio": 1 - builds / calls if calls else 0.0,
        "shor.factor_s": total["shor.factor"],
        "shor.self_s": self_by_layer["shor"],
        "shor.trials": value["shor.factor"],
        "shor.distribution_calls": shor_dist,
        "shor.samples": shor_samples,
        "classical.mod_pow.calls": tracer.counts["classical.mod_pow"],
        "classical.order_candidates.calls":
            tracer.counts["classical.order_candidates"],
    }
    for layer in ("circuit", "templates", "transpiler", "estimator", "simulator"):
        m[f"{layer}.self_s"] = self_by_layer[layer]
    return m
