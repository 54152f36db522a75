"""Order-finding circuits from reversible modular arithmetic, transpiled to
trapped-ion R/XX natives, with simulation, resource estimation and a
factorization driver."""

from .circuit import (
    Circuit, Gate, GateKind, RegisterLayout, ParseError,
    gate_adjoint, gate_matrix, inverse, parse, serialize,
)
from .classical import (
    gcd, is_perfect_power, mod_pow, modular_multiplicative_inverse,
    order_candidates, precompute_multipliers,
)
from .templates import (
    TemplateParams, adder, adder_inv, adder_mod, adder_mod_inv, carry_gate,
    carry_inv, cr_k, cr_k_inv, ctrl_mult_mod, ctrl_mult_mod_inv, ctrl_swap,
    modular_exponentiation, order_finding, qft, qft_inv, sum_gate,
)
from .simulator import (
    DENSE_QUBIT_CAP, Distribution, basis_state, circuit_unitary,
    measure_probs, order_finding_distribution, simulate_dense,
    simulate_reversible, simulate_reversible_batch,
)
from .transpiler import (
    NativeProgram, UnitaryParams, decompose_unitary, lower_toffoli,
    lower_two_qubit, merge_singles, reconstruct, transpile,
)
from .estimator import (
    ResourceReport, count_gates, depth_bound, estimate_order_finding,
    reports_to_csv,
)
from .shor import ShorOutcome, factor, find_order

__version__ = "0.1.0"
