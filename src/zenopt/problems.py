"""Discrete portfolio instances, constraints, penalty relaxation, and metrics.

The objective is the discrete mean-variance model q*x'Sx - mu'x over binary
asset-selection vectors, restricted to a feasible set cut out by linear
equality/inequality constraints. Instance generation is fully seeded so all
experiments are reproducible from (n, seed, config) alone.

Inequalities are relaxed into penalties through binary slack registers. The
slack width is ceil(log2(g_max/dg + 1)), one bit more than the usual
ceil(log2(g_max/dg)) when g_max/dg is a power of two: the narrower register
cannot represent the largest achievable slack value, which would penalize
genuinely feasible portfolios.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from . import operators as ops
from .qcore import State, StateVector


class Sense(str, Enum):
    EQ = "EQ"
    LEQ = "LEQ"
    GEQ = "GEQ"


@dataclass(frozen=True)
class LinearConstraint:
    """coeffs . x  (sense)  rhs, over binary variables."""

    coeffs: tuple[float, ...]
    sense: Sense
    rhs: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        object.__setattr__(self, "sense", Sense(self.sense))
        for name, value in (("coeffs", self.coeffs), ("rhs", self.rhs)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"constraint {name} must be finite, got {value}")
        if not any(c != 0.0 for c in self.coeffs):
            raise ValueError("constraint coefficients are all zero")

    def satisfied(self, x):
        """The sense test on coeffs . x, to 1e-9: a bool for one bit vector,
        a boolean array with one entry per row for a bit matrix."""
        lhs = np.asarray(x, dtype=np.float64) @ np.asarray(self.coeffs)
        if self.sense == Sense.EQ:
            holds = np.abs(lhs - self.rhs) <= 1e-9
        elif self.sense == Sense.LEQ:
            holds = lhs <= self.rhs + 1e-9
        else:
            holds = lhs >= self.rhs - 1e-9
        return bool(holds) if holds.ndim == 0 else holds

    def slack_form(self) -> tuple[np.ndarray, float]:
        """Rewrite as g(x) >= 0 (or g(x) = 0 for equalities): returns (a, c)
        with g(x) = a.x + c."""
        a = np.asarray(self.coeffs, dtype=np.float64)
        if self.sense == Sense.LEQ:
            return -a, float(self.rhs)
        return a, -float(self.rhs)

    def has_integer_coeffs(self) -> bool:
        vals = list(self.coeffs) + [self.rhs]
        return all(abs(v - round(v)) < 1e-12 for v in vals)


@dataclass(frozen=True)
class PortfolioInstance:
    """A problem; its objective table and feasible set are computed once."""

    n: int
    q: float
    sigma: np.ndarray
    mu: np.ndarray
    constraints: tuple[LinearConstraint, ...]

    def __post_init__(self):
        sigma = np.array(self.sigma, dtype=np.float64)
        mu = np.array(self.mu, dtype=np.float64).reshape(-1)
        if not (2 <= self.n <= 12):
            raise ValueError(f"asset count must lie in [2, 12], got {self.n}")
        if sigma.shape != (self.n, self.n):
            raise ValueError("sigma must be n x n")
        if mu.shape != (self.n,):
            raise ValueError("mu must have length n")
        for name, value in (("q", self.q), ("sigma", sigma), ("mu", mu)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        constraints = tuple(self.constraints)
        for i, c in enumerate(constraints):
            if len(c.coeffs) != self.n:
                raise ValueError(
                    f"constraint {i} ({c.sense.value}) has {len(c.coeffs)} coefficients "
                    f"for {self.n} assets"
                )
        if np.max(np.abs(sigma - sigma.T)) > 1e-12:
            raise ValueError("sigma is not symmetric")
        if np.linalg.eigvalsh(sigma)[0] < -1e-9:
            raise ValueError("sigma is not positive semi-definite")
        sigma.setflags(write=False)
        mu.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "constraints", constraints)

    # -- objective ---------------------------------------------------------

    def objective_value(self, x) -> float:
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if x.size != self.n:
            raise ValueError(f"bitstring length {x.size} != {self.n} assets")
        return float(self.q * x @ self.sigma @ x - self.mu @ x)

    def objective_table(self) -> np.ndarray:
        """f(x) for every basis index (little-endian bits)."""
        return self._objective.copy()

    @cached_property
    def _bits(self) -> np.ndarray:
        return ops.bit_matrix(self.n)

    @cached_property
    def _objective(self) -> np.ndarray:
        x = self._bits
        table = ((self.q * x) @ self.sigma * x).sum(axis=1) - x @ self.mu
        table.setflags(write=False)
        return table

    @cached_property
    def _feasible(self) -> ops.Projector:
        mask = np.ones(1 << self.n, dtype=bool)
        for c in self.constraints:
            mask &= c.satisfied(self._bits)
        return ops.Projector(self.n, np.flatnonzero(mask))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "sigma": [[float(v) for v in row] for row in self.sigma],
            "mu": [float(v) for v in self.mu],
            "constraints": [
                {"coeffs": list(c.coeffs), "sense": c.sense.value, "rhs": c.rhs}
                for c in self.constraints
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PortfolioInstance":
        required = {"n", "q", "sigma", "mu", "constraints"}
        missing = required - set(data)
        if missing:
            raise ValueError(f"instance JSON missing fields: {sorted(missing)}")
        constraints = tuple(
            LinearConstraint(tuple(c["coeffs"]), Sense(c["sense"]), float(c["rhs"]))
            for c in data["constraints"]
        )
        return cls(
            n=int(data["n"]),
            q=float(data["q"]),
            sigma=np.array(data["sigma"], dtype=np.float64),
            mu=np.array(data["mu"], dtype=np.float64),
            constraints=constraints,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "PortfolioInstance":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Seeded instance generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstanceConfig:
    """Knobs for seeded generation; defaults mirror the benchmark regime
    (budget ceil(n/2), optional return threshold at the feasible median)."""

    q: float = 0.5
    budget: int | None = None
    return_constraint: bool = False


def generate_instance(
    n: int, seed: int, cfg: InstanceConfig | None = None
) -> PortfolioInstance:
    """Deterministic instance from (n, seed, cfg).

    Sigma = A A^T / n with standard-normal A, mu uniform on [0, 1]. The
    default constraint is the budget sum(x) <= ceil(n/2); with
    ``return_constraint`` a minimum-return inequality mu.x >= R is added,
    with R the median return over budget-feasible portfolios.
    """
    cfg = cfg or InstanceConfig()
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    sigma = a @ a.T / n
    mu = rng.uniform(0.0, 1.0, size=n)

    budget = cfg.budget if cfg.budget is not None else math.ceil(n / 2)
    constraints = [LinearConstraint((1.0,) * n, Sense.LEQ, float(budget))]

    if cfg.return_constraint:
        x = ops.bit_matrix(n)
        returns = (x @ mu)[constraints[0].satisfied(x)]
        constraints.append(LinearConstraint(tuple(mu), Sense.GEQ, float(np.median(returns))))

    inst = PortfolioInstance(n=n, q=cfg.q, sigma=sigma, mu=mu, constraints=tuple(constraints))
    if inst._feasible.is_empty():
        raise ValueError("generated instance has an empty feasible set")
    return inst


def feasible_states(inst: PortfolioInstance) -> ops.Projector:
    """Projector onto the basis states satisfying every constraint."""
    return inst._feasible


def feasibility_measurement(inst: PortfolioInstance) -> ops.Measurement:
    return ops.Measurement.two_outcome(feasible_states(inst))


def initial_state_uniform_feasible(feasible: ops.Projector) -> StateVector:
    """Uniform superposition over the feasible basis states (direct amplitude
    construction, no circuit)."""
    if feasible.is_empty():
        raise ValueError("cannot build an initial state over an empty feasible set")
    amps = np.zeros(feasible.dim, dtype=np.complex128)
    amps[feasible.indices] = 1.0 / math.sqrt(feasible.rank)
    return StateVector(amps, copy=False, validate=False)


# ---------------------------------------------------------------------------
# Penalty relaxation with slack registers
# ---------------------------------------------------------------------------


def _slack_width(g_max: float, dg: float) -> int:
    levels = g_max / dg
    if levels < 1e-12:
        return 0
    return max(1, math.ceil(math.log2(levels + 1.0)))


def default_slack_spacings(inst: PortfolioInstance, bits: int = 3):
    """Per-constraint slack discretization: None for equalities and
    integer-coefficient inequalities (unit spacing applies); real-coefficient
    inequalities get g_max/(2^bits - 1), an exactly ``bits``-wide register."""
    feas = inst._feasible
    if feas.is_empty():
        raise ValueError("instance has an empty feasible set")
    x_table = inst._bits[feas.indices]
    spacings = []
    for c in inst.constraints:
        if c.sense == Sense.EQ or c.has_integer_coeffs():
            spacings.append(None)
            continue
        a, const = c.slack_form()
        g_max = float(np.max(x_table @ a + const))
        spacings.append(g_max / ((1 << bits) - 1) if g_max > 1e-12 else 1.0)
    return spacings


@dataclass(frozen=True)
class PenaltyRelaxation:
    """Relaxed objective f(x) + sum_j lambda_j * gbar_j over an extended
    register of n problem qubits plus one slack register per inequality."""

    instance: PortfolioInstance
    lambdas: tuple[float, ...]
    slack_widths: tuple[int, ...]
    diagonal: np.ndarray = field(repr=False)

    @property
    def n_slack(self) -> int:
        return int(sum(self.slack_widths))

    @property
    def total_qubits(self) -> int:
        return self.instance.n + self.n_slack


def check_penalty_factors(lambdas) -> tuple[float, ...]:
    """The penalty factors as floats; each must be finite and non-negative."""
    lambdas = tuple(float(v) for v in lambdas)
    for v in lambdas:
        if not (math.isfinite(v) and v >= 0):
            raise ValueError(f"penalty factors must be finite and non-negative, got {v}")
    return lambdas


def penalty_objective(
    inst: PortfolioInstance,
    lambdas,
    slack_spacings=None,
) -> PenaltyRelaxation:
    """Extended diagonal of the penalty-relaxed objective.

    Equalities contribute lambda*(g(x))^2 directly. Each inequality is
    normalized to g(x) >= 0, given a binary slack register wide enough to
    represent every achievable slack value, and contributes
    lambda*(g(x) - dg*sum_j 2^(j-1) s_j)^2. The spacing dg defaults to 1 for
    integer-coefficient constraints and must be supplied otherwise.
    """
    lambdas = check_penalty_factors(lambdas)
    if len(lambdas) != len(inst.constraints):
        raise ValueError("one lambda per constraint is required")
    if slack_spacings is None:
        slack_spacings = [None] * len(inst.constraints)
    if len(slack_spacings) != len(inst.constraints):
        raise ValueError("one slack spacing entry per constraint is required")

    n = inst.n
    feas = inst._feasible
    x_table = inst._bits

    widths: list[int] = []
    slack_terms: list[tuple[np.ndarray, float, int, float]] = []  # (g-values, dg, width, lambda)
    penalties_eq = np.zeros(1 << n, dtype=np.float64)

    for c, lam, spacing in zip(inst.constraints, lambdas, slack_spacings):
        a, const = c.slack_form()
        g_vals = x_table @ a + const
        if c.sense == Sense.EQ:
            widths.append(0)
            penalties_eq += lam * g_vals**2
            continue
        if spacing is None:
            if not c.has_integer_coeffs():
                raise ValueError(
                    "inequality with non-integer coefficients needs an explicit slack spacing"
                )
            dg = 1.0
        else:
            dg = float(spacing)
            if dg <= 0:
                raise ValueError("slack spacing must be positive")
        if feas.is_empty():
            raise ValueError("penalty relaxation needs a non-empty feasible set")
        g_max = float(np.max(g_vals[feas.indices]))
        width = _slack_width(g_max, dg)
        widths.append(width)
        slack_terms.append((g_vals, dg, width, lam))

    # Assemble the extended diagonal as a (slack state, problem state) table.
    # Slack registers are appended above the problem qubits in constraint
    # order, little-endian within each register.
    total_slack = sum(widths)
    table = np.tile(inst._objective + penalties_eq, (1 << total_slack, 1))
    s_idx = np.arange(1 << total_slack)[:, None]
    offset = 0
    for g_vals, dg, width, lam in slack_terms:
        slack_value = dg * ((s_idx >> offset) & ((1 << width) - 1))
        table += lam * (g_vals - slack_value) ** 2
        offset += width

    return PenaltyRelaxation(
        instance=inst,
        lambdas=lambdas,
        slack_widths=tuple(widths),
        diagonal=table.reshape(-1),
    )


# ---------------------------------------------------------------------------
# Figures of merit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeasibleSpan:
    f_min: float
    f_max: float
    best_index: int
    worst_index: int


def feasible_span(inst: PortfolioInstance) -> FeasibleSpan:
    feas = inst._feasible
    if feas.is_empty():
        raise ValueError("instance has an empty feasible set")
    vals = inst._objective[feas.indices]
    lo, hi = int(np.argmin(vals)), int(np.argmax(vals))
    f_min, f_max = float(vals[lo]), float(vals[hi])
    if math.isclose(f_min, f_max, rel_tol=0.0, abs_tol=1e-15):
        raise ValueError("degenerate instance: objective is constant on the feasible set")
    return FeasibleSpan(f_min, f_max, int(feas.indices[lo]), int(feas.indices[hi]))


def cost_scale(inst: PortfolioInstance) -> float:
    """Span of f over the whole cube; phase operators divide by this so the
    two parameter families see gradients of comparable magnitude."""
    table = inst._objective
    span = float(table.max() - table.min())
    return span if span > 0 else 1.0


def evaluate_metrics(
    state: State,
    inst: PortfolioInstance,
    relaxation: PenaltyRelaxation | None = None,
) -> dict[str, float]:
    """Approximation ratio, in-constraint probability, and (for relaxed
    pure states) the penalty-objective ratio.

    r = (<C_F>/p_F - f_max) / (f_min - f_max): the expectation of C_F (which
    is supported only on the feasible set) normalized to the in-constraint
    block, so r grades the quality of the solution delivered once a feasible
    outcome is observed, independently of the in-constraint probability
    p_F = Tr[P_F rho] reported alongside. f_min/f_max come from exhaustive
    enumeration over the feasible set. For a state on the extended register,
    r and the in-constraint probability are computed on the problem-qubit
    marginal and r_penalty (unconditioned) on the full register.
    """
    span = feasible_span(inst)
    feas = inst._feasible
    table = inst._objective
    probs = state.probabilities()

    n = inst.n
    if relaxation is not None and state.dim == (1 << relaxation.total_qubits):
        if not isinstance(state, StateVector):
            raise ValueError("penalty-relaxed metrics are defined for pure states only")
        marginal = probs.reshape(-1, 1 << n).sum(axis=0)
        fp = relaxation.diagonal
        fp_min, fp_max = float(fp.min()), float(fp.max())
        exp_penalty = float(np.dot(fp, probs))
        r_penalty = (exp_penalty - fp_max) / (fp_min - fp_max) if fp_max > fp_min else 1.0
    elif state.dim == (1 << n):
        marginal = probs
        r_penalty = None
    else:
        raise ValueError(
            f"state dim {state.dim} matches neither the instance nor its relaxation"
        )

    feas_mask = feas.mask()
    in_prob = float(np.clip(marginal[feas_mask].sum(), 0.0, 1.0))
    if in_prob < 1e-12:
        raise ValueError("state has no in-constraint support; r is undefined")
    exp_cf = float(np.dot(table[feas_mask], marginal[feas_mask])) / in_prob
    r = (exp_cf - span.f_max) / (span.f_min - span.f_max)

    out = {"r": r, "in_constraint_prob": in_prob}
    if r_penalty is not None:
        out["r_penalty"] = float(r_penalty)
    return out
