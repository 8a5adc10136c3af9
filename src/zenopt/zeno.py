"""Measurement super-operator, Zeno blocks, and measurement-count schedules.

The non-selective measurement maps rho to sum_j P_j rho P_j. A *block* is a
sequence of parameterized evolutions executed between measurements; running a
block with N subdivisions means repeating N times: evolve every generator by
angle/N, then measure. N = 0 means the block runs unmeasured at full angle.
:func:`zeno_block` is the one executor of that loop; the parameter-shift
circuit runs each sub-step through it as a block with N = 1 (or N = 0 when
unmeasured), and the infinite-measurement limit is one measurement followed
by one evolution under the projected generator.

The scheduling rules translate a target out-of-constraint bound ``delta``
into sufficient measurement counts. All of them are ceilinged and, for a
measured block, clamped to at least one (the raw formulas can return zero
for tiny angles, which would silently turn the block into an unmeasured
one). ``delta`` must stay at or below 0.19; the bounds are not valid beyond
that, so the limit is enforced at the API boundary instead of extrapolating.
A tiny ``delta`` or ``eta`` gives an exact but astronomically large count,
which a block refuses above :data:`MAX_MEASUREMENTS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from . import operators as ops
from .qcore import (
    DenseHermitian,
    DensityMatrix,
    DimensionMismatchError,
    Generator,
    RankOneUniform,
    State,
    TransverseField,
    apply_evolution,
    as_density,
)

DELTA_MAX = 0.19
#: Largest measurement count one block runs. The schedule rules return exact
#: integers (``schedule_eta(1.5, 1e-300)`` has 300 digits), so a count above
#: this is refused rather than looped over.
MAX_MEASUREMENTS = 10**6

GeneratorAngles = Sequence[tuple[Generator, float]]


class DeltaRangeError(ValueError):
    """delta outside (0, 0.19], where the measurement bounds hold."""


class UnsupportedMixerError(TypeError):
    """Mixer without a closed-form schedule; fall back to the generic rule."""


def _check_delta(delta: float) -> float:
    if not (0.0 < delta <= DELTA_MAX):
        raise DeltaRangeError(f"delta must lie in (0, {DELTA_MAX}], got {delta}")
    return float(delta)


def _clamped_ceil(value: float) -> int:
    return max(1, math.ceil(value))


# ---------------------------------------------------------------------------
# Measurement super-operator and blocks
# ---------------------------------------------------------------------------


def apply_measurement(state: State, m: ops.Measurement) -> DensityMatrix:
    """Non-selective measurement: rho -> sum_j P_j rho P_j.

    Promotes a pure state to a density matrix (measurements generally produce
    mixtures). Trace is preserved exactly; the result is block-diagonal with
    respect to the projector index sets, so the implementation just zeroes
    the cross-block entries, in the transverse field's frame too: of the
    matrix, or in the factored form of S once every column of L lies in one
    block (until then the factored state keeps the measurement pending, see
    ``DensityMatrix._measure_factors``).
    """
    if state.dim != m.dim:
        raise DimensionMismatchError(f"state dim {state.dim} != measurement dim {m.dim}")
    rho = as_density(state)
    if not rho._measure_factors(m):
        np.putmask(rho._densify(), m.cross_block_mask(), 0.0)
    rho.note_superop()
    return rho


def zeno_block(
    state: State,
    generators_with_angles: GeneratorAngles,
    m: ops.Measurement,
    n_measurements: int,
) -> State:
    """One block of the measured evolution.

    With ``n_measurements`` = N >= 1, repeats N times: evolve each generator
    by angle/N in order, then apply the measurement. N = 0 applies the
    unscaled product with no measurement at all (and no promotion). A count
    above :data:`MAX_MEASUREMENTS` raises ValueError.
    """
    if n_measurements < 0:
        raise ValueError("measurement count must be non-negative")
    if n_measurements > MAX_MEASUREMENTS:
        raise ValueError(
            f"measurement count {n_measurements} exceeds the per-block limit of {MAX_MEASUREMENTS}"
        )
    steps = max(1, n_measurements)
    for _ in range(steps):
        for g, angle in generators_with_angles:
            state = apply_evolution(state, g, angle / steps)
        if n_measurements:
            state = apply_measurement(state, m)
    return state


def zeno_limit_propagator(
    state: State,
    generators_with_angles: GeneratorAngles,
    m: ops.Measurement,
) -> DensityMatrix:
    """Infinite-measurement limit of a block: measure, then evolve for unit
    time under the projected generator sum_j P_j (sum_i angle_i H_i) P_j."""
    total = np.zeros((m.dim, m.dim), dtype=np.complex128)
    for g, angle in generators_with_angles:
        if g.dim != m.dim:
            raise DimensionMismatchError("generator and measurement dims differ")
        total += angle * g.materialize()
    total[m.cross_block_mask()] = 0.0  # as ops.zeno_hamiltonian, with one eigh
    rho = apply_measurement(state, m)
    return apply_evolution(rho, DenseHermitian(total), 1.0)


# ---------------------------------------------------------------------------
# Measurement-count schedules
# ---------------------------------------------------------------------------


def schedule_theorem1(theta: float, xi_min: float, xi_max: float, delta: float) -> int:
    """Sufficient equally-spaced measurement count for a single evolution.

    N = ceil([theta * (xi_max - xi_min)]^2 / ln((1 - 2*delta)^-2)), clamped
    to >= 1. Guarantees the in-subspace probability stays at least
    1 - delta for any initial state supported in the measured subspace.
    """
    delta = _check_delta(delta)
    span = xi_max - xi_min
    tau = -2.0 * math.log1p(-2.0 * delta)
    return _clamped_ceil((theta * span) ** 2 / tau)


def cor1_tau(delta: float, commuting: bool) -> float:
    """Denominator of the per-block rule: ln((1-2d)^-2) for commuting
    generators, ln((1-d)^-1.78) otherwise (the 0.89 constant from the
    non-commuting analysis is baked in, not exposed)."""
    delta = _check_delta(delta)
    if commuting:
        return -2.0 * math.log1p(-2.0 * delta)
    return -1.78 * math.log1p(-delta)


def schedule_cor1(
    angle_sums: Sequence[float],
    max_norms: Sequence[float],
    n_blocks: int,
    delta: float,
    commuting: bool,
) -> list[int]:
    """Per-block counts N_k = ceil(4*L*(sum|theta|)^2 * max||H||^2 / tau).

    ``angle_sums[k]`` is the sum of absolute angles in block k and
    ``max_norms[k]`` the largest spectral norm among its generators; ``L``
    is the number of measured blocks in the whole evolution.
    """
    if len(angle_sums) != len(max_norms):
        raise ValueError("angle_sums and max_norms must have equal length")
    if n_blocks < 1:
        raise ValueError("need at least one block")
    tau = cor1_tau(delta, commuting)
    return [
        _clamped_ceil(4.0 * n_blocks * (s * h) ** 2 / tau)
        for s, h in zip(angle_sums, max_norms)
    ]


def schedule_cor3(mixer: Generator, beta: float, p: int, delta: float) -> int:
    """Mixer-specific count for one QAOA mixing layer of a p-layer circuit.

    Transverse field on n qubits: ceil(p * beta^2 * n^2 / ln((1-2d)^-1/2));
    rank-one uniform mixer: ceil(p * beta^2 / ln((1-2d)^-2)). Other mixers
    raise UnsupportedMixerError; callers fall back to schedule_theorem1 with
    the mixer's spectral span.
    """
    delta = _check_delta(delta)
    if p < 1:
        raise ValueError("layer count must be positive")
    if isinstance(mixer, TransverseField):
        tau = -0.5 * math.log1p(-2.0 * delta)
        return _clamped_ceil(p * beta**2 * mixer.n**2 / tau)
    if isinstance(mixer, RankOneUniform):
        tau = -2.0 * math.log1p(-2.0 * delta)
        return _clamped_ceil(p * beta**2 / tau)
    raise UnsupportedMixerError(
        f"no closed-form schedule for {type(mixer).__name__}; use schedule_theorem1"
    )


def schedule_eta(beta: float, eta: float) -> int:
    """Relaxed heuristic count N = ceil(beta^2 / eta), clamped to >= 1."""
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be finite and positive, got {eta}")
    return _clamped_ceil(beta**2 / eta)


def repetitions_cor2(in_constraint_prob: float, epsilon: float) -> int:
    """Copies to prepare-and-measure so at least one lands in constraint.

    ceil(ln(1/eps) / ln(1/(1-c))) repetitions give success probability at
    least 1 - eps when each copy is in constraint with probability >= c.
    """
    if not (0.0 < in_constraint_prob < 1.0):
        if in_constraint_prob >= 1.0:
            return 1
        raise ValueError("in-constraint probability must lie in (0, 1)")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    return max(1, math.ceil(math.log(1.0 / epsilon) / -math.log1p(-in_constraint_prob)))


def survival_bound_lemma2(theta: float, n_measurements: int, xi_span: float) -> float:
    """Worst-case in-subspace probability after an N-step measured evolution.

    Closed form 1/2 + 1/2 * (2*p* - 1)^N with p* = cos^2(span*theta/(2N)),
    valid for |theta| <= pi*N/span. The worst case is attained by an equal
    superposition of extreme eigenvectors measured against its own span.
    """
    if n_measurements < 1:
        raise ValueError("need at least one measurement")
    if xi_span <= 0:
        raise ValueError("eigenvalue span must be positive")
    if abs(theta) > math.pi * n_measurements / xi_span + 1e-12:
        raise ValueError("theta outside the validity range |theta| <= pi*N/span")
    p_star = math.cos(xi_span * theta / (2.0 * n_measurements)) ** 2
    return 0.5 + 0.5 * (2.0 * p_star - 1.0) ** n_measurements


# ---------------------------------------------------------------------------
# Schedule objects
# ---------------------------------------------------------------------------

RULES = ("theorem1", "cor1", "cor3", "eta", "manual")


@dataclass(frozen=True)
class ZenoSchedule:
    """Rule that assigns a measurement count to every measured mixer block.

    Counts produced by the closed-form rules depend on the current mixer
    angles, so they are recomputed per evaluation via :meth:`mixer_counts`.
    A manual schedule fixes the counts outright; zeros there mean the block
    runs unmeasured and unscaled.
    """

    rule: str
    delta: float | None = None
    eta: float | None = None
    counts: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown schedule rule {self.rule!r}")
        if self.rule in ("theorem1", "cor1", "cor3"):
            if self.delta is None:
                raise ValueError(f"rule {self.rule!r} needs delta")
            _check_delta(self.delta)
        if self.rule == "eta":
            if self.eta is None or not (math.isfinite(self.eta) and self.eta > 0):
                raise ValueError(f"rule 'eta' needs a finite positive eta, got {self.eta}")
        if self.rule == "manual":
            if self.counts is None or any(c < 0 for c in self.counts):
                raise ValueError("rule 'manual' needs non-negative counts")

    @classmethod
    def from_eta(cls, eta: float) -> "ZenoSchedule":
        return cls(rule="eta", eta=eta)

    @classmethod
    def manual(cls, counts: Sequence[int]) -> "ZenoSchedule":
        return cls(rule="manual", counts=tuple(int(c) for c in counts))

    def mixer_counts(self, mixer: Generator, betas: Sequence[float]) -> list[int]:
        """Measurement counts for p mixer blocks with the given angles."""
        betas = list(betas)
        p = len(betas)
        if self.rule == "manual":
            if len(self.counts) != p:
                raise ValueError(
                    f"manual schedule has {len(self.counts)} counts for {p} layers"
                )
            return list(self.counts)
        if self.rule == "eta":
            return [schedule_eta(b, self.eta) for b in betas]
        if self.rule == "cor1":
            norm = max(map(abs, mixer.span()))
            return schedule_cor1(
                [abs(b) for b in betas], [norm] * p, p, self.delta, commuting=True
            )
        if self.rule == "cor3":
            try:
                return [schedule_cor3(mixer, b, p, self.delta) for b in betas]
            except UnsupportedMixerError:
                pass
        # theorem1, which is also cor3's fallback for unsupported mixers
        lo, hi = mixer.span()
        return [schedule_theorem1(b, lo, hi, self.delta) for b in betas]

    @classmethod
    def parse(cls, text: str, delta: float | None = None) -> "ZenoSchedule":
        """Schedule from its command-line text: ``theorem1``, ``cor1`` or
        ``cor3`` (bounded by ``delta``), ``eta=VAL`` or ``manual=N1,N2,...``.
        Raises ValueError."""
        if text in ("theorem1", "cor1", "cor3"):
            if delta is None:
                raise ValueError(f"schedule {text!r} needs --delta")
            return cls(rule=text, delta=delta)
        rule, _, value = text.partition("=")
        try:
            if rule == "eta":
                return cls.from_eta(float(value))
            if rule == "manual":
                return cls.manual(int(c) for c in value.split(","))
        except ValueError as exc:
            raise ValueError(f"cannot parse schedule {text!r}: {exc}") from exc
        raise ValueError(
            f"unknown schedule {text!r}: expected theorem1|cor1|cor3|eta=VAL|manual=N1,..."
        )

    def describe(self) -> str:
        if self.rule == "eta":
            return f"eta={self.eta:g}"
        if self.rule == "manual":
            return "manual=" + ",".join(str(c) for c in self.counts)
        return f"{self.rule}(delta={self.delta:g})"
