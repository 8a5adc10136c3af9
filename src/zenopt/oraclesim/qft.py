"""Fourier-basis arithmetic: QFT circuits and polynomial value loading.

The transform convention maps |s> to sum_k exp(-2*pi*i*k*s/2^m)|k>/sqrt(2^m)
over the m-qubit ring. Where a construction says "without swaps", the
bit-reversing swap network at the end is omitted and the phase banks that
feed the register are rearranged instead, which is how the hardware-facing
adders avoid swap gates.

Values in the register are two's complement: an m-bit register holds
integers in [-2^(m-1), 2^(m-1)), with the top bit as the sign. A polynomial
over bits is loaded by one phase bank per term: the bank writes the term's
contribution onto every register qubit, controlled on the term's variables,
and an inverse QFT turns the accumulated phases back into a readable value.
Coefficients are integers, so every bank angle is an exact dyadic multiple
of pi and the polynomial loads exactly (no 2^-m rounding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, CPhase, H, Op, Phase, inverted

# ---------------------------------------------------------------------------
# Two's complement
# ---------------------------------------------------------------------------


def twos_complement(value: int, m: int) -> str:
    """MSB-first bitstring of ``value`` in m-bit two's complement."""
    lo, hi = -(1 << (m - 1)), (1 << (m - 1)) - 1
    if not (lo <= value <= hi):
        raise OverflowError(f"{value} does not fit in {m}-bit two's complement [{lo}, {hi}]")
    return format(value & ((1 << m) - 1), f"0{m}b")


def from_twos_complement(bits: str) -> int:
    """Inverse of :func:`twos_complement` (MSB-first bitstring in)."""
    m = len(bits)
    raw = int(bits, 2)
    return raw - (1 << m) if bits[0] == "1" else raw


def twos_complement_bits(value: int, m: int) -> tuple[int, ...]:
    """Little-endian bit tuple (bit 0 first), the register/clbit order."""
    return tuple(int(b) for b in reversed(twos_complement(value, m)))


# ---------------------------------------------------------------------------
# QFT circuits
# ---------------------------------------------------------------------------


def _swap_ops(a: int, b: int) -> list[Op]:
    from .circuit import CNOT

    return [CNOT(a, b), CNOT(b, a), CNOT(a, b)]


def qft_circuit(m: int, inverse: bool = False, with_swaps: bool = True) -> Circuit:
    """Transform on the 2^m ring (see module docstring for the sign
    convention). Without swaps the output register is bit-reversed."""
    if m < 1:
        raise ValueError("need at least one qubit")
    ops: list[Op] = []
    for i in range(m - 1, -1, -1):
        ops.append(H(i))
        for l in range(i - 1, -1, -1):
            ops.append(CPhase((l,), i, -math.pi / (1 << (i - l))))
    if with_swaps:
        for j in range(m // 2):
            ops.extend(_swap_ops(j, m - 1 - j))
    if inverse:
        ops = inverted(ops)
    circ = Circuit(m)
    circ.extend(ops)
    return circ


# ---------------------------------------------------------------------------
# Integer polynomials over bits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedPointPoly:
    """g(b) = sum_k d_k * prod_{l in S_k} b_l with integer coefficients d_k,
    loaded into a ``precision``-bit two's-complement register.

    ``terms`` pairs each coefficient with the (possibly empty) set of
    variable indices it multiplies. Every value of g over the Boolean cube
    fits the register, so the register reads the value itself.
    """

    terms: tuple[tuple[int, frozenset[int]], ...]
    precision: int

    def __post_init__(self):
        for d, _ in self.terms:
            if abs(d - round(d)) > 1e-12:
                raise ValueError(f"coefficient {d} is not an integer")
        terms = tuple((int(round(d)), frozenset(int(v) for v in s)) for d, s in self.terms)
        object.__setattr__(self, "terms", terms)
        if self.precision < 1:
            raise ValueError("precision must be at least one bit")
        lo, hi = self.value_bounds()
        half = 1 << (self.precision - 1)
        if lo < -half or hi >= half:
            raise ValueError(
                f"values span [{lo}, {hi}], outside the {self.precision}-bit "
                f"two's-complement range [{-half}, {half - 1}]"
            )

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def max_variable(self) -> int:
        return max((max(s) for _, s in self.terms if s), default=-1)

    def value_bounds(self) -> tuple[int, int]:
        """Interval bound on g over the Boolean cube: each monomial ranges
        over {0, d} (or is the constant d for an empty support)."""
        lo = hi = 0
        for d, s in self.terms:
            if s:
                lo += min(d, 0)
                hi += max(d, 0)
            else:
                lo += d
                hi += d
        return lo, hi

    def loaded_integers(self, bits: np.ndarray) -> np.ndarray:
        """Register content for every row of the bit table ``bits`` (see
        :func:`zenopt.operators.bit_matrix`): g(b) reduced mod 2^m."""
        values = np.zeros(len(bits), dtype=np.int64)
        for d, s in self.terms:
            values += d * bits[:, sorted(s)].all(axis=1)
        return values % (1 << self.precision)

    def bank_angle(self, d: int, register_bit: int) -> float:
        """Phase written by coefficient ``d`` onto value bit ``register_bit``:
        the exact dyadic angle -pi*d / 2^(m-1-j)."""
        return -math.pi * d / (1 << (self.precision - 1 - register_bit))


def bank_ops_for_bit(poly: FixedPointPoly, register_bit: int, target: int) -> list[Op]:
    """Phase bank writing value bit ``register_bit`` of every term onto
    ``target``, controlled on each term's variables (an uncontrolled phase
    for constant terms)."""
    ops: list[Op] = []
    for d, s in poly.terms:
        angle = poly.bank_angle(d, register_bit)
        if s:
            ops.append(CPhase(tuple(sorted(s)), target, angle))
        else:
            ops.append(Phase(target, angle))
    return ops


def load_bank_ops(poly: FixedPointPoly, aux_of_bit) -> list[Op]:
    """One bank per term: the term's phases for value bit j land on qubit
    ``aux_of_bit(j)``, giving num_terms * precision rotations in total."""
    ops: list[Op] = []
    for d, s in poly.terms:
        for j in range(poly.precision):
            angle = poly.bank_angle(d, j)
            target = aux_of_bit(j)
            if s:
                ops.append(CPhase(tuple(sorted(s)), target, angle))
            else:
                ops.append(Phase(target, angle))
    return ops


def fourier_load_polynomial(poly: FixedPointPoly, n: int) -> Circuit:
    """Circuit on n system + m auxiliary qubits computing |b>|0> -> |b>|g~(b)>.

    Prepares the auxiliaries in |+>^m, applies one multi-controlled phase
    bank per polynomial term, and finishes with the swap-free inverse QFT.
    The missing swaps are compensated by loading the banks in bit-reversed
    order, so the register still reads out little-endian.
    """
    if poly.max_variable() >= n:
        raise ValueError("polynomial references a variable beyond the system register")
    m = poly.precision
    circ = Circuit(n + m)
    for k in range(m):
        circ.h(n + k)
    circ.extend(load_bank_ops(poly, lambda j: n + (m - 1 - j)))
    for op in qft_circuit(m, inverse=True, with_swaps=False).ops:
        circ.append(_shift_op(op, n))
    return circ


def _shift_op(op: Op, offset: int) -> Op:
    """Translate a single-register op onto qubits offset..offset+m-1."""
    from .circuit import CNOT, Barrier

    match op:
        case H(q):
            return H(q + offset)
        case Phase(q, a):
            return Phase(q + offset, a)
        case CPhase(controls, target, a):
            return CPhase(tuple(c + offset for c in controls), target + offset, a)
        case CNOT(c, t):
            return CNOT(c + offset, t + offset)
        case Barrier():
            return op
    raise TypeError(f"cannot shift op {op!r}")


# ---------------------------------------------------------------------------
# Semiclassical inverse QFT
# ---------------------------------------------------------------------------


def semiclassical_inverse_qft(m: int) -> Circuit:
    """Measured inverse transform using one auxiliary readout qubit.

    Qubits 0..m-1 are the register, qubit m the auxiliary. Every two-qubit
    phase of the coherent inverse QFT is replaced by a classically
    conditioned single-qubit phase: round t swaps register qubit m-1-t onto
    the auxiliary, applies corrections conditioned on the bits already read,
    and measures the auxiliary into classical bit t (bit t of the value,
    LSB first), then resets it. The classical word is distributed exactly as
    a coherent inverse QFT followed by a full register measurement.
    """
    if m < 1:
        raise ValueError("need at least one qubit")
    circ = Circuit(m + 1, num_clbits=m)
    aux = m
    for t in range(m):
        q = m - 1 - t
        circ.extend(_swap_ops(q, aux))
        for s in range(t):
            circ.conditional(s, Phase(aux, math.pi / (1 << (t - s))))
        circ.h(aux)
        circ.measure(aux, t)
        circ.reset(aux)
    return circ
