"""Circuit templates: ripple-carry modular arithmetic, QFT, order finding.

The arithmetic follows the ripple-carry architecture of Vedral, Barenco and
Ekert (CARRY/SUM ladders), composed bottom-up:

    ADDER                |a>|b>|0>           -> |a>|a+b>|0>
    ADDER_MOD            |a>|b>|0>|N>|0>     -> |a>|(a+b) mod N>|0>|N>|0>
    Ctrl_MULT_MOD        |c>|z>|0>|0>|0>|N>|0> -> |c>|z>|0>|z*m^c mod N>|0>|N>|0>
    MODULAR_EXPONENTIATION  |x>|1>|0...>     -> |x>|y^x mod N>|0...>

Every template emits only {X, H, CNOT, SWAP, Toffoli, Fredkin, CR_k, CR_k†};
the arithmetic ones are purely classical-reversible and restore their
ancilla registers bit-exactly.
"""
from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

from .circuit import (
    CNOT, CRK, CRK_INV, FREDKIN, H, SWAP, TOFFOLI, X,
    Circuit, Gate, RegisterLayout, inverse,
)
from .classical import gcd, modular_multiplicative_inverse, precompute_multipliers

__all__ = [
    "TemplateParams", "sum_gate", "carry_gate", "carry_inv",
    "adder", "adder_inv", "adder_mod", "adder_mod_inv",
    "ctrl_mult_mod", "ctrl_mult_mod_inv", "ctrl_swap",
    "modular_exponentiation", "qft", "qft_inv", "cr_k", "cr_k_inv",
    "order_finding",
]


@dataclass(frozen=True)
class TemplateParams:
    """Shared parameters of the modular-arithmetic templates.

    n defaults to the bit length of N and n_x to 0 (no exponent register);
    the layout is derived from (n_x, n).
    """

    N: int
    y: int = 1
    n: int | None = None
    n_x: int = 0
    m: int | None = None
    layout: RegisterLayout = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValueError(f"modulus N must be >= 2, got {self.N}")
        n = self.N.bit_length() if self.n is None else self.n
        object.__setattr__(self, "n", n)
        if self.N.bit_length() > n:
            raise ValueError(f"N is too big: N = {self.N} needs n >= "
                             f"{self.N.bit_length()} bits, got n = {n}")
        object.__setattr__(self, "layout", RegisterLayout(self.n_x, n))


def _inverted(gates: Sequence[Gate]) -> Sequence[Gate]:
    """Inverse of an arithmetic block: its gates in reverse order.

    Arithmetic blocks hold only X, CNOT, SWAP and Toffoli, each its own
    adjoint, so reversing the order alone inverts the block.
    """
    return gates[::-1]


def _wrap(gates: list[Gate], *wires: int) -> Circuit:
    return Circuit(max(wires) + 1, gates)


def _sum_gates(w0: int, w1: int, w2: int) -> list[Gate]:
    return [CNOT(w0, w2), CNOT(w1, w2)]


def _carry_gates(c_in: int, a: int, b: int, c_out: int) -> list[Gate]:
    return [TOFFOLI(a, b, c_out), CNOT(a, b), TOFFOLI(c_in, b, c_out)]


def sum_gate(w0: int, w1: int, w2: int) -> Circuit:
    """Two CNOTs onto w2: |a,b,c> -> |a,b,c^a^b>."""
    return _wrap(_sum_gates(w0, w1, w2), w0, w1, w2)


def carry_gate(c_in: int, a: int, b: int, c_out: int) -> Circuit:
    """Carry ladder rung: c_out picks up the carry of a + b + c_in.

    On the way it leaves a^b in b, which the reversed copy inside ADDER
    undoes; the externally tested contract is the composed ADDER.
    """
    return _wrap(_carry_gates(c_in, a, b, c_out), c_in, a, b, c_out)


def carry_inv(c_in: int, a: int, b: int, c_out: int) -> Circuit:
    return carry_gate(c_in, a, b, c_out).inverse()


def _adder_gates(layout: RegisterLayout) -> list[Gate]:
    a, b, c, n = layout.a, layout.b, layout.c, layout.n
    gates: list[Gate] = []
    for i in range(n - 1):
        gates += _carry_gates(c[i], a[i], b[i], c[i + 1])
    gates += _carry_gates(c[n - 1], a[n - 1], b[n - 1], b[n])
    gates.append(CNOT(a[n - 1], b[n - 1]))
    gates += _sum_gates(c[n - 1], a[n - 1], b[n - 1])
    for i in reversed(range(n - 1)):
        gates += _inverted(_carry_gates(c[i], a[i], b[i], c[i + 1]))
        gates += _sum_gates(c[i], a[i], b[i])
    return gates


def adder(layout: RegisterLayout) -> Circuit:
    """|a>|b>|0> -> |a>|a+b>|0> with the n+1-bit sum in register b."""
    return Circuit(layout.width, _adder_gates(layout))


def adder_inv(layout: RegisterLayout) -> Circuit:
    return adder(layout).inverse()


def _adder_mod_gates(layout: RegisterLayout, N: int) -> tuple[Gate, ...]:
    """ADDER_MOD's gates as one tuple.  A multiplier build makes it once and
    repeats it n times, a modular exponentiation 2*n*n_x times; nothing is
    cached between builds."""
    a, b, c, Nw, t, n = layout.a, layout.b, layout.c, layout.N, layout.t, layout.n
    add = _adder_gates(layout)
    swap_aN = [SWAP(a[i], Nw[i]) for i in range(n)]
    # t-controlled (un)loading of the constant N in register a.
    load_N = [CNOT(t, a[j]) for j in range(n) if (N >> j) & 1]
    gates: list[Gate] = []
    gates += add
    gates += swap_aN
    gates += _inverted(add)         # b <- a+b-N, sign in b's top bit
    gates += [X(b[n]), CNOT(b[n], t), X(b[n])]   # t=1 iff a+b >= N
    gates += load_N                 # a: N -> 0 when t=1
    gates += add
    gates += load_N                 # a back to N in both branches
    gates += swap_aN
    # Uncompute t by comparing the result with a: b < a iff t was set.
    gates += _inverted(add)
    gates.append(CNOT(b[n], t))
    gates += add
    return tuple(gates)


def adder_mod(params: TemplateParams) -> Circuit:
    """|a>|b>|0>|N>|0> -> |a>|(a+b) mod N>|0>|N>|0> for a, b < N."""
    return Circuit(params.layout.width, _adder_mod_gates(params.layout, params.N))


def adder_mod_inv(params: TemplateParams) -> Circuit:
    return adder_mod(params).inverse()


def _ctrl_mult_mod_blocks(layout: RegisterLayout, m: int, N: int, control: int,
                          adder_mod: tuple[Gate, ...]) -> list[tuple[Gate, ...]]:
    """Ctrl_MULT_MOD's gates as blocks: per bit of z a load block, the
    caller's ADDER_MOD block for (layout, N) and the same load block again,
    then one block copying z into b.  One ADDER_MOD block serves a whole
    build.  m must be coprime to N: ctrl_mult_mod checks it, and
    _exponent_stages passes powers of a coprime base and their inverses."""
    z, a, b, n = layout.z, layout.a, layout.b, layout.n
    blocks: list[tuple[Gate, ...]] = []
    for i in range(n):
        const = (m << i) % N
        load = tuple([TOFFOLI(control, z[i], a[j]) for j in range(n) if (const >> j) & 1])
        blocks += (load, adder_mod, load)
    # Copy z into b when the control is 0 so both branches write b.
    blocks.append((X(control), *[TOFFOLI(control, z[i], b[i]) for i in range(n)],
                   X(control)))
    return blocks


def _cmm_control(params: TemplateParams, control: int | None) -> int:
    if control is not None:
        return control
    if params.n_x < 1:
        raise ValueError("ctrl_mult_mod needs a control wire: "
                         "use n_x >= 1 or pass control explicitly")
    return params.layout.x[0]


def ctrl_mult_mod(params: TemplateParams, control: int | None = None) -> Circuit:
    """Multiply register z by m modulo N into b when the control is set.

    |c>|z>|0>|0>|0>|N>|0> -> |c>|z>|0>|z*m mod N>|0>|N>|0>  if c = 1,
    and b receives z unchanged if c = 0.  Control defaults to the first
    x-register wire.
    """
    if params.m is None:
        raise ValueError("ctrl_mult_mod needs the multiplier m")
    control = _cmm_control(params, control)
    if gcd(params.m % params.N, params.N) != 1:
        raise ValueError(f"multiplier {params.m} is not coprime to {params.N}: "
                         "the reversed template needs its modular inverse")
    adder_mod = _adder_mod_gates(params.layout, params.N)
    blocks = _ctrl_mult_mod_blocks(params.layout, params.m, params.N, control, adder_mod)
    return Circuit(params.layout.width, [g for block in blocks for g in block])


def ctrl_mult_mod_inv(params: TemplateParams, control: int | None = None) -> Circuit:
    return ctrl_mult_mod(params, control).inverse()


def ctrl_swap(control: int, t0: int, t1: int) -> Circuit:
    """Fredkin: swap t0 and t1 when the control is set."""
    return _wrap([FREDKIN(control, t0, t1)], control, t0, t1)


def _exponent_stages(layout: RegisterLayout, y: int,
                     N: int) -> Iterator[list[tuple[Gate, ...]]]:
    """The gates of each MODULAR_EXPONENTIATION stage, one list of blocks per
    exponent bit.

    Stage i is CMM(m_i), SWAP(z, b), then CMM(m_i^-1) reversed, all
    controlled by x_i, with m_i = y^(2^i) mod N.  It maps
    |x_i>|z>|0>|0>|0>|N>|0> to |x_i>|z*m_i^(x_i) mod N>|0>|0>|0>|N>|0>, so
    the stages together map z = 1 to y^x mod N.  The ADDER_MOD block, its
    reversal and the SWAP row are each one tuple, built once per call and
    shared by every stage; each stage's load and copy blocks are its own.
    """
    z, b, n = layout.z, layout.b, layout.n
    adder_mod = _adder_mod_gates(layout, N)
    undo_adder_mod = _inverted(adder_mod)
    swap_zb = tuple([SWAP(z[j], b[j]) for j in range(n)])
    for control, m_i in zip(layout.x, precompute_multipliers(y, N, layout.n_x)):
        inv_m = modular_multiplicative_inverse(m_i, N)
        unmultiply = _ctrl_mult_mod_blocks(layout, inv_m, N, control, adder_mod)
        yield (_ctrl_mult_mod_blocks(layout, m_i, N, control, adder_mod) + [swap_zb]
               + [undo_adder_mod if block is adder_mod else _inverted(block)
                  for block in reversed(unmultiply)])


def _modular_exponentiation_gates(layout: RegisterLayout, y: int, N: int) -> list[Gate]:
    return [gate for blocks in _exponent_stages(layout, y, N)
            for block in blocks for gate in block]


def modular_exponentiation(params: TemplateParams) -> Circuit:
    """|x>|1>|0>|0>|0>|N>|0> -> |x>|y^x mod N>|0>|0>|0>|N>|0>.

    One controlled-multiply / swap / reversed-controlled-multiply block per
    exponent bit, with multipliers y^(2^i) mod N and their modular inverses
    precomputed classically.
    """
    if params.n_x < 1:
        raise ValueError("modular exponentiation needs n_x >= 1 exponent wires")
    gates = _modular_exponentiation_gates(params.layout, params.y, params.N)
    return Circuit(params.layout.width, gates)


def _qft_gates(wires: tuple[int, ...]) -> list[Gate]:
    n = len(wires)
    gates: list[Gate] = []
    for i in reversed(range(n)):
        gates.append(H(wires[i]))
        for j in reversed(range(i)):
            gates.append(CRK(wires[j], wires[i], i - j + 1))
    for i in range(n // 2):
        gates.append(SWAP(wires[i], wires[n - 1 - i]))
    return gates


def qft(wires) -> Circuit:
    """Quantum Fourier transform whose unitary is the DFT matrix
    F[j, k] = 2^(-n/2) exp(2 pi i jk / 2^n) in little-endian bit order.

    Includes the terminal bit-reversal swaps.
    """
    wires = tuple(wires)
    if not wires:
        raise ValueError("qft needs at least one wire")
    return _wrap(_qft_gates(wires), *wires)


def qft_inv(wires) -> Circuit:
    """Adjoint of :func:`qft`: the mirrored gate sequence."""
    return inverse(qft(wires))


def cr_k(control: int, target: int, k: int) -> Circuit:
    """Controlled phase shift diag(1,1,1,e^{2 pi i / 2^k})."""
    return _wrap([CRK(control, target, k)], control, target)


def cr_k_inv(control: int, target: int, k: int) -> Circuit:
    return _wrap([CRK_INV(control, target, k)], control, target)


# Not in __all__: that lists the templates, and bench/tracer.py wraps each
# of those as a builder whose result has a length.
def default_n_x(n: int, n_x: int | None = None) -> int:
    """``n_x`` if given, else the exponent-register size for n-bit moduli:
    2n + 2, one more than order finding needs."""
    return 2 * n + 2 if n_x is None else n_x


def order_finding(params: TemplateParams) -> Circuit:
    """Hadamards on x, modular exponentiation, then inverse QFT on x.

    Requires n_x >= 2n + 1 so the phase estimate pins down the order.
    """
    layout = params.layout
    if params.n_x < 2 * params.n + 1:
        raise ValueError(f"order finding needs n_x >= 2n+1 = {2 * params.n + 1}, "
                         f"got n_x = {params.n_x}")
    gates: list[Gate] = [H(w) for w in layout.x]
    gates += _modular_exponentiation_gates(layout, params.y, params.N)
    gates += qft_inv(layout.x).gates
    return Circuit(layout.width, gates)
