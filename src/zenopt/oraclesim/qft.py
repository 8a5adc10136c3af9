"""Fourier-basis arithmetic: QFT circuits and polynomial value loading.

The transform convention maps |s> to sum_k exp(-2*pi*i*k*s/2^m)|k>/sqrt(2^m)
over the m-qubit ring. Where a construction says "without swaps", the
bit-reversing swap network at the end is omitted and the phase banks that
feed the register are rearranged instead, which is how the hardware-facing
adders avoid swap gates.

The transform is built directly on whichever qubits hold the register, so
the same construction serves a bare m-qubit circuit and the auxiliary
register behind a system register.

Values in the register are two's complement: an m-bit register holds
integers in [-2^(m-1), 2^(m-1)), with the top bit as the sign. A polynomial
over bits is loaded by one phase bank per term: the bank writes the term's
contribution onto every register qubit, controlled on the term's variables,
with one :meth:`FixedPointPoly.bank_op` per qubit, and an inverse QFT turns
the accumulated phases back into a readable value. Coefficients are
integers, so every bank angle is an exact dyadic multiple of pi and the
polynomial loads exactly (no 2^-m rounding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import CNOT, Circuit, CPhase, H, Op, Phase, inverted

# ---------------------------------------------------------------------------
# QFT circuits
# ---------------------------------------------------------------------------


def _swap_ops(a: int, b: int) -> list[Op]:
    return [CNOT(a, b), CNOT(b, a), CNOT(a, b)]


def _qft_ops(qubits, inverse: bool, with_swaps: bool) -> list[Op]:
    """Transform on the register ``qubits``, least significant first (see
    module docstring for the sign convention)."""
    q = list(qubits)
    m = len(q)
    ops: list[Op] = []
    for i in range(m - 1, -1, -1):
        ops.append(H(q[i]))
        for l in range(i - 1, -1, -1):
            ops.append(CPhase((q[l],), q[i], -math.pi / (1 << (i - l))))
    if with_swaps:
        for j in range(m // 2):
            ops.extend(_swap_ops(q[j], q[m - 1 - j]))
    return inverted(ops) if inverse else ops


def qft_circuit(m: int, inverse: bool = False, with_swaps: bool = True) -> Circuit:
    """Transform on the 2^m ring (see module docstring for the sign
    convention). Without swaps the output register is bit-reversed."""
    if m < 1:
        raise ValueError("need at least one qubit")
    return Circuit(m).extend(_qft_ops(range(m), inverse, with_swaps))


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
            raise ValueError(f"precision must be at least one bit, got {self.precision}")
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

    def bank_op(self, d: int, support: frozenset[int], j: int, target: int) -> Op:
        """Phase that the term d * prod_{l in support} b_l writes onto value
        bit ``j``, held on qubit ``target``: the exact dyadic angle
        -pi*d / 2^(m-1-j), controlled on the term's variables (an
        uncontrolled phase for a constant term)."""
        angle = -math.pi * d / (1 << (self.precision - 1 - j))
        return CPhase(tuple(support), target, angle) if support else Phase(target, angle)


def bank_ops_for_bit(poly: FixedPointPoly, register_bit: int, target: int) -> list[Op]:
    """Phase bank writing value bit ``register_bit`` of every term onto
    ``target``."""
    return [poly.bank_op(d, s, register_bit, target) for d, s in poly.terms]


def fourier_load_polynomial(poly: FixedPointPoly, n: int) -> Circuit:
    """Circuit on n system + m auxiliary qubits computing |b>|0> -> |b>|g~(b)>.

    Prepares the auxiliaries in |+>^m, applies one multi-controlled phase
    bank per polynomial term (num_terms * precision rotations in total),
    and finishes with the swap-free inverse QFT. The missing swaps are
    compensated by loading value bit j onto auxiliary m-1-j, so the
    register still reads out little-endian.
    """
    if poly.max_variable() >= n:
        raise ValueError("polynomial references a variable beyond the system register")
    m = poly.precision
    circ = Circuit(n + m)
    for k in range(m):
        circ.h(n + k)
    for d, s in poly.terms:
        for j in range(m):
            circ.append(poly.bank_op(d, s, j, n + m - 1 - j))
    circ.extend(_qft_ops(range(n, n + m), inverse=True, with_swaps=False))
    return circ


# ---------------------------------------------------------------------------
# Semiclassical inverse QFT
# ---------------------------------------------------------------------------


def readout_round(circ: Circuit, aux: int, t: int) -> None:
    """Round t of a semiclassical inverse QFT on the readout qubit ``aux``:
    phases conditioned on the bits already read (classical bits 0..t-1),
    then H, measure into classical bit t, and reset."""
    for s in range(t):
        circ.conditional(s, Phase(aux, math.pi / (1 << (t - s))))
    circ.h(aux)
    circ.measure(aux, t)
    circ.reset(aux)


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
    for t in range(m):
        circ.extend(_swap_ops(m - 1 - t, m))
        readout_round(circ, m, t)
    return circ
