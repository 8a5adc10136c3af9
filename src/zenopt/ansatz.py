"""Full parameterized evolutions assembled from the evolution primitives.

Three families: QAOA with measured mixer blocks (phase layers are diagonal
and cannot violate constraints, so only the mixing layers are measured, which
halves the measurement cost versus measuring every block), the penalty-term
QAOA baseline (pure-state, measurement-free, on the slack-extended register),
and a layered hardware-efficient circuit whose CNOTs are folded into one
generator per rotation layer, so the whole circuit is a product of
parameterized exponentials that a measured block can rescale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from . import zeno
from .qcore import (
    DenseHermitian,
    DensityMatrix,
    Diagonal,
    Generator,
    State,
    StateVector,
    TransverseField,
    apply_evolution,
    as_density,
)

_IN_CONSTRAINT_TOL = 1e-9


@dataclass(frozen=True)
class QaoaParams:
    betas: tuple[float, ...]
    gammas: tuple[float, ...]

    def __post_init__(self):
        betas = tuple(map(float, self.betas))
        gammas = tuple(map(float, self.gammas))
        if len(betas) != len(gammas):
            raise ValueError("betas and gammas must have equal length")
        if not all(map(math.isfinite, betas + gammas)):
            raise ValueError("QAOA parameters must be finite")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "gammas", gammas)

    @property
    def p(self) -> int:
        return len(self.betas)

    @classmethod
    def from_flat(cls, values) -> "QaoaParams":
        values = np.asarray(values, dtype=np.float64).reshape(-1).tolist()
        if len(values) % 2:
            raise ValueError("flat parameter vector must have even length")
        half = len(values) // 2
        return cls(tuple(values[:half]), tuple(values[half:]))

    def flat(self) -> np.ndarray:
        return np.array(self.betas + self.gammas, dtype=np.float64)


def mixer_beta_halfwidth(mixer: Generator) -> float:
    """Default box half-width for mixer angles: the evolution is periodic, so
    |beta| <= pi/2 suffices for the transverse field and |beta| <= pi for the
    rank-one uniform mixer. Soft defaults, not hard constraints."""
    if isinstance(mixer, TransverseField):
        return math.pi / 2
    return math.pi


# ---------------------------------------------------------------------------
# QAOA with measured mixing layers
# ---------------------------------------------------------------------------


def run_qaoa_zeno(
    cost: Diagonal,
    mixer: Generator,
    m: ops.Measurement,
    params: QaoaParams,
    schedule: zeno.ZenoSchedule,
    initial: StateVector,
) -> DensityMatrix:
    """Alternating phase/mixer evolution with measured mixer blocks.

    Per layer j: unmeasured diagonal evolution by gamma_j, then the mixer
    block split into N_j sub-steps with a measurement after each. The first
    projector of ``m`` is taken as the in-constraint block; the initial state
    must be supported on it.
    """
    if cost.dim != mixer.dim or cost.dim != m.dim or cost.dim != initial.dim:
        raise ops.DimensionMismatchError("cost, mixer, measurement, and state dims differ")
    out_mass = float(np.linalg.norm(np.delete(initial.amps, m.projectors[0].indices)))
    if out_mass > _IN_CONSTRAINT_TOL:
        raise ValueError(
            f"initial state has out-of-constraint mass {out_mass:.3e} (must be in-constraint)"
        )
    counts = schedule.mixer_counts(mixer, params.betas)

    state: State = initial.copy()
    for gamma, beta, n_meas in zip(params.gammas, params.betas, counts):
        state = apply_evolution(state, cost, gamma)
        state = zeno.zeno_block(state, [(mixer, beta)], m, n_meas)
    return as_density(state)


def run_qaoa_penalty(
    cost_relaxed: Diagonal,
    mixer: Generator,
    params: QaoaParams,
) -> StateVector:
    """Penalty-term baseline: pure-state QAOA from the uniform superposition
    over the extended (problem + slack) register, no measurements."""
    state = StateVector.uniform(cost_relaxed.n)
    for gamma, beta in zip(params.gammas, params.betas):
        apply_evolution(state, cost_relaxed, gamma)
        apply_evolution(state, mixer, beta)
    return state


def adiabatic_schedule(cfg: "AdiabaticConfig") -> QaoaParams:
    """Discretized linear-interpolation parameters.

    beta_j = -(T/p)(1 - j/p) and gamma_j = -j*T/p^2 for j = 1..p; as p grows
    the circuit approaches continuous evolution with time scale T.
    """
    t, p = cfg.total_time, cfg.layers
    betas = tuple(-(t / p) * (1.0 - j / p) for j in range(1, p + 1))
    gammas = tuple(-(j * t) / p**2 for j in range(1, p + 1))
    return QaoaParams(betas, gammas)


@dataclass(frozen=True)
class AdiabaticConfig:
    total_time: float
    layers: int

    def __post_init__(self):
        if self.total_time < 0:
            raise ValueError("total evolution time must be non-negative")
        if self.layers < 1:
            raise ValueError("need at least one layer")


def zeno_mixer_ground_state(mixer: Generator, feasible: ops.Projector) -> StateVector:
    """Ground state of the projected mixer P_F B P_F within the feasible
    block (used as the initial state of the adiabatic-limit experiment).

    With the schedule's negated angles the evolution tracks this eigenstate
    into the feasible-block ground state of the cost operator.
    """
    if feasible.is_empty():
        raise ValueError("feasible set is empty")
    sub = mixer.materialize()[np.ix_(feasible.indices, feasible.indices)]
    sub = (sub + sub.conj().T) / 2.0
    _, vecs = np.linalg.eigh(sub)
    amps = np.zeros(feasible.dim, dtype=np.complex128)
    amps[feasible.indices] = vecs[:, 0]
    return StateVector(amps, copy=False)


# ---------------------------------------------------------------------------
# Layered hardware-efficient circuit (nearest-neighbour entanglers)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LvqeParams:
    """Angles for the layered circuit: one initial y-rotation per qubit, then
    per layer a nearest-neighbour CNOT ladder followed by a y-rotation on
    every qubit."""

    theta0: tuple[float, ...]
    layer_thetas: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        theta0 = tuple(float(v) for v in self.theta0)
        layers = tuple(tuple(float(v) for v in row) for row in self.layer_thetas)
        n = len(theta0)
        if n < 1:
            raise ValueError("need at least one qubit")
        if any(len(row) != n for row in layers):
            raise ValueError("every layer needs one angle per qubit")
        if not all(math.isfinite(v) for v in theta0 + sum(layers, ())):
            raise ValueError("layered-circuit angles must be finite")
        object.__setattr__(self, "theta0", theta0)
        object.__setattr__(self, "layer_thetas", layers)

    @property
    def n(self) -> int:
        return len(self.theta0)

    @property
    def p(self) -> int:
        return len(self.layer_thetas)

    @classmethod
    def from_flat(cls, n: int, p: int, values) -> "LvqeParams":
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if values.size != n * (p + 1):
            raise ValueError(f"expected {n * (p + 1)} angles, got {values.size}")
        rows = values.reshape(p + 1, n)
        return cls(tuple(rows[0]), tuple(tuple(r) for r in rows[1:]))

    def flat(self) -> np.ndarray:
        return np.array([*self.theta0, *(v for row in self.layer_thetas for v in row)])


def _ladder_permutation(n: int) -> np.ndarray:
    """Basis permutation of the CNOT ladder CNOT(0,1), CNOT(1,2), ...

    CNOTs map computational basis states to computational basis states, so
    the whole ladder is a permutation and conjugating a Pauli by it is pure
    index bookkeeping.
    """
    perm = np.arange(1 << n, dtype=np.int64)
    for c in range(n - 1):
        t = c + 1
        flip = ((perm >> c) & 1) == 1
        perm = np.where(flip, perm ^ (1 << t), perm)
    return perm


@functools.lru_cache(maxsize=1)  # one register size: W is 256 MiB at n = 12
def _y_eigenbasis(n: int) -> np.ndarray:
    """Read-only W = ((|0> + i|1>, |0> - i|1>) / sqrt 2)^(x)n: column x is the
    eigenvector of each Y_k with eigenvalue 1 - 2 x_k."""
    w = functools.reduce(np.kron, [np.array([[1.0, 1.0], [1j, -1j]]) / math.sqrt(2)] * n)
    w.setflags(write=False)
    return w


def lvqe_generators(params: LvqeParams) -> list[tuple[DenseHermitian, float]]:
    """Fold the layered circuit into one generator per rotation layer.

    Pushing every CNOT ladder through the later rotation layers conjugates
    each single-qubit Y into a Pauli string, and the leftover ladders act on
    the all-zeros initial state as the identity. A layer's strings share the
    ladder permutation C, so they commute and the layer is exactly
    exp(-i*H) with H = C (sum_k (theta_k / 2) * Y_k) C^T. The result is an
    ordered list of (generator, 1.0) pairs equivalent to the original gate
    sequence, which is exactly what a measured block can rescale.

    H comes from its closed-form spectrum in O(d n) plus one row scatter, with
    no d x d matrix and no ``eigh``: eigenvalues sum_k s_k theta_k / 2 over the
    sign rows s = 1 - 2 x of :func:`zenopt.operators.bit_matrix`, eigenvectors
    the Y eigenbasis W with its rows permuted by C. H is purely imaginary
    (Y = i [[0, -1], [1, 0]]), so every generator is ``real``: its propagators
    are real orthogonal and a measured block runs on the real form K of the
    density matrix in the computational basis.
    """
    n = params.n
    perm = _ladder_permutation(n)
    basis = _y_eigenbasis(n)
    signs = 1.0 - 2.0 * ops.bit_matrix(n)

    conj = np.arange(1 << n, dtype=np.int64)  # ladder^(p - layer), built from the last layer back
    gens: list[tuple[DenseHermitian, float]] = []
    for row in reversed([params.theta0, *params.layer_thetas]):
        v = np.empty_like(basis)
        v[conj] = basis
        gens.append((DenseHermitian.from_eigh(signs @ (0.5 * np.asarray(row)), v, real=True), 1.0))
        conj = perm[conj]
    return gens[::-1]


def run_lvqe_zeno(
    m: ops.Measurement,
    params: LvqeParams,
    n_measurements: int,
) -> DensityMatrix:
    """Layered circuit with a single trailing measured block.

    The whole folded product is treated as one block: it is re-run
    ``n_measurements`` times with every angle divided by the count, with a
    measurement after each pass. ``n_measurements`` = 0 runs the plain
    circuit once, unmeasured (the manual-schedule variant).
    """
    if params.n != m.n:
        raise ops.DimensionMismatchError(
            f"parameters are for {params.n} qubits, measurement for {m.n}"
        )
    gens = lvqe_generators(params)
    state: State = StateVector.basis(params.n, 0)
    state = zeno.zeno_block(state, gens, m, n_measurements)
    return as_density(state)


def lvqe_statevector(params: LvqeParams) -> StateVector:
    """Plain (measurement-free) layered-circuit state, for cross-checks."""
    state = StateVector.basis(params.n, 0)
    for g, angle in lvqe_generators(params):
        apply_evolution(state, g, angle)
    return state
