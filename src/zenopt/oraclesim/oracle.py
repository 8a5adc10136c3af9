"""Constraint-checking measurement circuits built from Fourier arithmetic.

An equality constraint a.x = rhs loads a.x - rhs into the auxiliary register
and measures all of it; success is the all-zeros readout, after which the
auxiliaries are reset. With quantum conditional logic (qcl) the same
measurement uses a single repeatedly measured readout qubit: each round
loads one value bit's phases directly onto the readout qubit and corrects it
with classically conditioned phases before measuring.

An inequality is normalized to g(x) >= 0 (a LEQ constraint is negated), its
value is loaded, only the sign bit is measured (0 = in constraint), and the
inverse of the oracle uncomputes the register. Which readout means success
is recorded on the returned object rather than hard-coded, since it depends
on the chosen encoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections import Counter
from functools import cached_property

import numpy as np

from .. import operators as ops
from ..problems import LinearConstraint, Sense
from .circuit import Circuit, Conditional, CPhase, Measure, Phase, Reset, inverted
from .qft import FixedPointPoly, bank_ops_for_bit, fourier_load_polynomial


@dataclass(frozen=True)
class ResourceCount:
    """Exact gate census plus the documented asymptotic cost notes."""

    gate_counts: dict[str, int]
    controlled_phase: int
    measurements: int
    resets: int
    num_qubits: int
    num_clbits: int
    notes: tuple[str, ...]

    def total_ops(self) -> int:
        return sum(self.gate_counts.values())


_COST_NOTES = (
    "fault-tolerant T-count, reversible-adder route: O(K*(n+m)) for a K-term polynomial",
    "fault-tolerant T-count, Fourier-arithmetic route: O(K*m*n + m*log(m))",
)


def count_resources(circ: Circuit) -> ResourceCount:
    names = Counter()
    cp = meas = rst = 0
    for op in circ.ops:
        inner = op.gate if isinstance(op, Conditional) else op
        label = type(op).__name__ if not isinstance(op, Conditional) else f"CCOND:{type(inner).__name__}"
        names[label] += 1
        if isinstance(inner, CPhase):
            cp += 1
        if isinstance(op, Measure):
            meas += 1
        if isinstance(op, Reset):
            rst += 1
    return ResourceCount(
        gate_counts=dict(names),
        controlled_phase=cp,
        measurements=meas,
        resets=rst,
        num_qubits=circ.num_qubits,
        num_clbits=circ.num_clbits,
        notes=_COST_NOTES,
    )


# ---------------------------------------------------------------------------
# Constraint circuits
# ---------------------------------------------------------------------------


def constraint_value_poly(c: LinearConstraint, n: int, m: int) -> FixedPointPoly:
    """Value polynomial whose register encoding decides the constraint.

    EQ and GEQ load a.x - rhs; LEQ loads rhs - a.x so feasibility is always
    "value >= 0" (sign bit 0) for inequalities and "value = 0" for
    equalities. Raises on non-integer data or a range that overflows m bits.
    """
    if not c.has_integer_coeffs():
        raise ValueError("Fourier constraint oracles need integer coefficients")
    if len(c.coeffs) > n:
        raise ValueError("constraint has more coefficients than system qubits")
    sign = -1.0 if c.sense == Sense.LEQ else 1.0
    terms = [(sign * a, {j}) for j, a in enumerate(c.coeffs) if a != 0.0]
    const = -sign * c.rhs
    if const != 0.0:
        terms.append((const, set()))
    if not terms:
        terms.append((0.0, set()))
    lo = sum(min(d, 0.0) for d, s in terms if s) + sum(d for d, s in terms if not s)
    hi = sum(max(d, 0.0) for d, s in terms if s) + sum(d for d, s in terms if not s)
    if lo < -(1 << (m - 1)) or hi > (1 << (m - 1)) - 1:
        raise OverflowError(
            f"constraint values span [{lo:g}, {hi:g}], outside {m}-bit two's complement"
        )
    return FixedPointPoly(terms, m)


@dataclass(frozen=True)
class ConstraintOracle:
    """A measurement circuit plus the book-keeping needed to validate it."""

    circuit: Circuit
    constraint: LinearConstraint
    poly: FixedPointPoly
    n_system: int
    aux_qubits: tuple[int, ...]
    kind: str  # "equality" | "equality-qcl" | "inequality"
    success_readout: str

    @property
    def precision(self) -> int:
        return self.poly.precision

    def outcome_is_feasible(self, word: tuple[int, ...]) -> bool:
        if self.kind == "inequality":
            return word[0] == 0
        return all(b == 0 for b in word)

    @cached_property
    def readouts(self) -> np.ndarray:
        """Classical readout word of every basis input, row x for input x:
        the little-endian value bits for equalities, the sign bit alone for
        inequalities."""
        values = self.poly.loaded_integers(ops.bit_matrix(self.n_system))
        words = (values[:, None] >> np.arange(self.precision)) & 1
        if self.kind == "inequality":
            words = words[:, -1:]
        words.setflags(write=False)
        return words

    def expected_word(self, x: int) -> tuple[int, ...]:
        """Classical readout for basis input x: row x of :attr:`readouts`."""
        return tuple(self.readouts[x].tolist())

    def induced_partition(self) -> ops.Measurement:
        """Matrix-level measurement the circuit realizes: basis states grouped
        by their classical readout word, in lexicographic word order. For
        inequalities this is exactly the two-outcome feasible/infeasible
        split; measuring the whole register refines the infeasible block by
        violation value."""
        words, group = np.unique(self.readouts, axis=0, return_inverse=True)
        if len(words) == 1:
            return ops.Measurement.trivial(self.n_system)
        # The shape of the inverse differs between numpy 2.x releases.
        group = group.reshape(-1)
        return ops.Measurement(
            [ops.Projector(self.n_system, np.flatnonzero(group == k)) for k in range(len(words))]
        )

    def feasibility_measurement(self) -> ops.Measurement:
        # The constraint may name fewer variables than the register holds.
        bits = ops.bit_matrix(self.n_system)[:, : len(self.constraint.coeffs)]
        feas = self.constraint.satisfied(bits)
        return ops.Measurement.two_outcome(ops.Projector(self.n_system, np.flatnonzero(feas)))


def constraint_measurement_circuit(
    c: LinearConstraint, n: int, m: int, qcl: bool = False
) -> ConstraintOracle:
    """Build the gate-level non-selective constraint measurement.

    ``m`` must be wide enough for the value range of the constraint
    polynomial over the whole cube; :func:`constraint_value_poly` checks.
    """
    poly = constraint_value_poly(c, n, m)
    if c.sense == Sense.EQ:
        return _equality_oracle(c, poly, n, qcl)
    if qcl:
        raise ValueError("quantum conditional logic applies to equality constraints only")
    return _inequality_oracle(c, poly, n)


def _equality_oracle(
    c: LinearConstraint, poly: FixedPointPoly, n: int, qcl: bool
) -> ConstraintOracle:
    m = poly.precision
    if qcl:
        circ = Circuit(n + 1, num_clbits=m)
        aux = n
        circ.h(aux)
        for t in range(m):
            # Round t reads value bit t: load the phases of register bit
            # m-1-t straight onto the readout qubit, correct for the bits
            # already measured, then measure and re-prepare |+>.
            circ.extend(bank_ops_for_bit(poly, m - 1 - t, aux))
            for s in range(t):
                circ.conditional(s, Phase(aux, math.pi / (1 << (t - s))))
            circ.h(aux)
            circ.measure(aux, t)
            circ.reset(aux)
            circ.h(aux)
        return ConstraintOracle(
            circuit=circ,
            constraint=c,
            poly=poly,
            n_system=n,
            aux_qubits=(aux,),
            kind="equality-qcl",
            success_readout="all classical bits read 0",
        )

    circ = Circuit(n + m, num_clbits=m)
    loader = fourier_load_polynomial(poly, n)
    circ.extend(loader.ops)
    circ.barrier()
    for k in range(m):
        circ.measure(n + k, k)
    for k in range(m):
        circ.reset(n + k)
    return ConstraintOracle(
        circuit=circ,
        constraint=c,
        poly=poly,
        n_system=n,
        aux_qubits=tuple(range(n, n + m)),
        kind="equality",
        success_readout="all classical bits read 0",
    )


def _inequality_oracle(c: LinearConstraint, poly: FixedPointPoly, n: int) -> ConstraintOracle:
    m = poly.precision
    circ = Circuit(n + m, num_clbits=1)
    loader = fourier_load_polynomial(poly, n)
    circ.extend(loader.ops)
    circ.barrier()
    circ.measure(n + m - 1, 0)  # sign bit
    circ.barrier()
    circ.extend(inverted(loader.ops))
    return ConstraintOracle(
        circuit=circ,
        constraint=c,
        poly=poly,
        n_system=n,
        aux_qubits=tuple(range(n, n + m)),
        kind="inequality",
        success_readout="classical bit c0 reads 0 (non-negative value)",
    )
