"""Native-gate counting and the label-propagation depth bound.

The depth bound ignores single-qubit gates: every qubit starts at level 0,
each two-qubit gate raises both its qubits to max(levels)+1, and the final
maximum times 3 bounds the schedule depth (at most two R rotations sit on a
wire between consecutive XX gates, so each two-qubit level costs at most
three time steps).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .circuit import GateKind
from .templates import TemplateParams, default_n_x, order_finding
from .transpiler import NativeProgram, transpile

__all__ = ["ResourceReport", "count_gates", "depth_bound",
           "estimate_order_finding", "reports_to_csv"]

CSV_HEADER = "n,n_x,N,y,total_native,two_qubit,single_qubit,depth_bound"


@dataclass(frozen=True)
class ResourceReport:
    """Per-kind gate counts and depth bound for one native program; the
    totals are read from the histogram."""

    histogram: dict[str, int]
    depth_bound: int
    n: int | None = None
    n_x: int | None = None
    N: int | None = None
    y: int | None = None

    def __post_init__(self) -> None:
        if self.depth_bound % 3:
            raise ValueError("depth_bound carries the x3 factor, so it must be "
                             "divisible by 3")

    @property
    def total_native(self) -> int:
        return sum(self.histogram.values())

    @property
    def two_qubit(self) -> int:
        return self.histogram.get(GateKind.XX.value, 0)

    @property
    def single_qubit(self) -> int:
        return self.total_native - self.two_qubit

    def to_dict(self) -> dict:
        """The JSON form as a dict, for serialising several reports at once."""
        return {"n": self.n, "n_x": self.n_x, "N": self.N, "y": self.y,
                "total_native": self.total_native, "two_qubit": self.two_qubit,
                "single_qubit": self.single_qubit, "depth_bound": self.depth_bound,
                "histogram": self.histogram}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def csv_row(self) -> str:
        blank = ""
        return ",".join(str(v) if v is not None else blank for v in (
            self.n, self.n_x, self.N, self.y, self.total_native,
            self.two_qubit, self.single_qubit, self.depth_bound))


def depth_bound(program: NativeProgram) -> int:
    """Upper bound on circuit depth: 3 x the deepest two-qubit level."""
    xx = GateKind.XX
    levels = [0] * program.width
    for w0, w1 in [g.wires for g in program.gates if g.kind is xx]:
        a, b = levels[w0], levels[w1]
        levels[w0] = levels[w1] = (a if a > b else b) + 1
    return 3 * max(levels, default=0)


def count_gates(program: NativeProgram) -> ResourceReport:
    """Exact per-kind counts plus the depth bound of a native program."""
    depth = depth_bound(program)  # first, so its list and kinds never coexist
    kinds = [g.kind for g in program.gates]
    # keys in order of first appearance
    histogram = {k.value: kinds.count(k) for k in dict.fromkeys(kinds)}
    return ResourceReport(histogram, depth)


def estimate_order_finding(n: int, n_x: int | None = None) -> ResourceReport:
    """Build, transpile and count the order-finding circuit for n-bit moduli.

    Representative parameters are N = 2^n - 1 (the largest n-bit odd modulus)
    and y = 2, recorded in the report; n_x defaults to 2n + 2.  Counts for
    other moduli of the same bit width differ only mildly.
    """
    if n < 2:
        raise ValueError(f"modulus width n must be >= 2, got {n}")
    n_x = default_n_x(n, n_x)
    N = 2 ** n - 1
    y = 2
    circuit = order_finding(TemplateParams(N=N, y=y, n=n, n_x=n_x))
    program = transpile(circuit)
    return replace(count_gates(program), n=n, n_x=n_x, N=N, y=y)


def reports_to_csv(reports) -> str:
    lines = [CSV_HEADER]
    lines += [r.csv_row() for r in reports]
    return "\n".join(lines) + "\n"
