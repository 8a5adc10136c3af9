"""Experiment protocols: optimized runs, parameter transfer, and sweeps.

This is the layer the CLI drives. Each protocol returns plain dicts ready for
JSON/CSV emission, and every run is reproducible from (instance, config,
seed): the optimizer is seeded, the instance generator is seeded, and the
simulator is deterministic.

The phase operator uses the objective divided by its span over the whole
cube, so the mixer and phase parameter families see gradients of comparable
magnitude; reported metrics always use the raw objective.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import ansatz, optimize, problems, zeno
from .operators import Measurement, Projector
from .qcore import Diagonal, Generator, RankOneUniform, StateVector, TransverseField, expectation

MIXER_KINDS = ("x", "cg")


def make_mixer(kind: str, n: int) -> Generator:
    if kind == "x":
        return TransverseField(n)
    if kind == "cg":
        return RankOneUniform(n)
    raise ValueError(f"unknown mixer kind {kind!r} (expected one of {MIXER_KINDS})")


@dataclass(frozen=True)
class ProblemBundle:
    """Instance plus everything derived from it that runs need."""

    instance: problems.PortfolioInstance
    feasible: Projector
    measurement: Measurement
    cost_scaled: Diagonal
    scale: float
    initial: StateVector

    @classmethod
    def build(cls, inst: problems.PortfolioInstance) -> "ProblemBundle":
        feas = problems.feasible_states(inst)
        if feas.is_empty():
            raise ValueError("instance has an empty feasible set")
        scale = problems.cost_scale(inst)
        cost_scaled = Diagonal(inst.objective_table() / scale)
        return cls(
            instance=inst,
            feasible=feas,
            measurement=Measurement.two_outcome(feas),
            cost_scaled=cost_scaled,
            scale=scale,
            initial=problems.initial_state_uniform_feasible(feas),
        )

    def feasible_cost_diagonal(self) -> np.ndarray:
        """Scaled objective supported only on the feasible set (the quantity
        the optimizer minimizes for measured runs)."""
        diag = np.zeros(self.cost_scaled.values.size)
        diag[self.feasible.indices] = self.cost_scaled.values[self.feasible.indices]
        return diag


def parameter_box(mixer: Generator, p: int) -> list[tuple[float, float]]:
    bw = ansatz.mixer_beta_halfwidth(mixer)
    return [(-bw, bw)] * p + [(-math.pi, math.pi)] * p


# ---------------------------------------------------------------------------
# Measured (Zeno) QAOA runs
# ---------------------------------------------------------------------------


def evaluate_zeno_qaoa(
    bundle: ProblemBundle,
    mixer: Generator,
    params: ansatz.QaoaParams,
    schedule: zeno.ZenoSchedule,
) -> dict[str, float]:
    rho = ansatz.run_qaoa_zeno(
        bundle.cost_scaled, mixer, bundle.measurement, params, schedule, bundle.initial
    )
    metrics = problems.evaluate_metrics(rho, bundle.instance)
    metrics["total_measurements"] = float(sum(schedule.mixer_counts(mixer, params.betas)))
    return metrics


def zeno_objective(
    bundle: ProblemBundle, mixer: Generator, schedule: zeno.ZenoSchedule
):
    """Objective closure for the optimizer: the in-constraint expectation of
    the (scaled) cost under the measured evolution."""
    cf = Diagonal(bundle.feasible_cost_diagonal())

    def objective(flat: np.ndarray) -> float:
        params = ansatz.QaoaParams.from_flat(flat)
        rho = ansatz.run_qaoa_zeno(
            bundle.cost_scaled, mixer, bundle.measurement, params, schedule, bundle.initial
        )
        return expectation(rho, cf)

    return objective


def optimize_zeno_qaoa(
    bundle: ProblemBundle,
    mixer_kind: str,
    p: int,
    schedule: zeno.ZenoSchedule,
    restarts: int | None = None,
    seed: int = 0,
    budget: int | None = None,
    jobs: int = 1,
) -> tuple[optimize.OptimizationReport, ansatz.QaoaParams, dict[str, float]]:
    mixer = make_mixer(mixer_kind, bundle.instance.n)
    restarts = default_restarts(p) if restarts is None else restarts
    budget = default_budget(restarts) if budget is None else budget
    report = optimize.optimize_params(
        zeno_objective(bundle, mixer, schedule),
        dim=2 * p,
        box=parameter_box(mixer, p),
        restarts=restarts,
        seed=seed,
        budget=budget,
        jobs=jobs,
    )
    params = ansatz.QaoaParams.from_flat(report.best_params)
    return report, params, evaluate_zeno_qaoa(bundle, mixer, params, schedule)


def default_restarts(p: int) -> int:
    return 50 if p <= 3 else 100


def default_budget(restarts: int) -> int:
    return restarts * 400


# ---------------------------------------------------------------------------
# Penalty-term baseline runs
# ---------------------------------------------------------------------------


def penalty_setup(
    bundle: ProblemBundle, lambdas, mixer_kind: str
) -> tuple[problems.PenaltyRelaxation, Diagonal, Generator, float]:
    spacings = problems.default_slack_spacings(bundle.instance)
    relax = problems.penalty_objective(bundle.instance, lambdas, slack_spacings=spacings)
    span = float(relax.diagonal.max() - relax.diagonal.min())
    scale = span if span > 0 else 1.0
    cost = Diagonal(relax.diagonal / scale)
    mixer = make_mixer(mixer_kind, relax.total_qubits)
    return relax, cost, mixer, scale


def evaluate_penalty_qaoa(
    bundle: ProblemBundle,
    relax: problems.PenaltyRelaxation,
    cost: Diagonal,
    mixer: Generator,
    params: ansatz.QaoaParams,
) -> dict[str, float]:
    psi = ansatz.run_qaoa_penalty(cost, mixer, params)
    metrics = problems.evaluate_metrics(psi, bundle.instance, relaxation=relax)
    metrics["total_measurements"] = 0.0
    return metrics


def optimize_penalty_qaoa(
    bundle: ProblemBundle,
    lambdas,
    mixer_kind: str,
    p: int,
    restarts: int | None = None,
    seed: int = 0,
    budget: int | None = None,
    jobs: int = 1,
) -> tuple[optimize.OptimizationReport, ansatz.QaoaParams, dict[str, float]]:
    relax, cost, mixer, _ = penalty_setup(bundle, lambdas, mixer_kind)
    restarts = default_restarts(p) if restarts is None else restarts
    budget = default_budget(restarts) if budget is None else budget

    def objective(flat: np.ndarray) -> float:
        psi = ansatz.run_qaoa_penalty(cost, mixer, ansatz.QaoaParams.from_flat(flat))
        return expectation(psi, cost)

    report = optimize.optimize_params(
        objective,
        dim=2 * p,
        box=parameter_box(mixer, p),
        restarts=restarts,
        seed=seed,
        budget=budget,
        jobs=jobs,
    )
    params = ansatz.QaoaParams.from_flat(report.best_params)
    return report, params, evaluate_penalty_qaoa(bundle, relax, cost, mixer, params)


def run_qaoa(
    bundle: ProblemBundle,
    mixer_kind: str,
    p: int,
    method: zeno.ZenoSchedule | list[float],
    params=None,
    *,
    restarts: int | None = None,
    seed: int = 0,
    budget: int | None = None,
    jobs: int = 1,
) -> tuple[optimize.OptimizationReport | None, ansatz.QaoaParams, dict[str, float]]:
    """One p-layer QAOA run: measured under ``method`` when it is a
    :class:`zeno.ZenoSchedule`, the penalty baseline when it is a list of
    penalty factors (one per constraint). Flat ``params`` are evaluated as
    given and the report is None; otherwise the parameters are optimized."""
    measured = isinstance(method, zeno.ZenoSchedule)
    if params is None:
        opts = dict(restarts=restarts, seed=seed, budget=budget, jobs=jobs)
        if measured:
            return optimize_zeno_qaoa(bundle, mixer_kind, p, method, **opts)
        return optimize_penalty_qaoa(bundle, method, mixer_kind, p, **opts)
    qaoa = ansatz.QaoaParams.from_flat(params)
    if qaoa.p != p:
        raise ValueError(f"{qaoa.p}-layer parameters given for a {p}-layer run")
    if measured:
        mixer = make_mixer(mixer_kind, bundle.instance.n)
        return None, qaoa, evaluate_zeno_qaoa(bundle, mixer, qaoa, method)
    relax, cost, mixer, _ = penalty_setup(bundle, method, mixer_kind)
    return None, qaoa, evaluate_penalty_qaoa(bundle, relax, cost, mixer, qaoa)


# ---------------------------------------------------------------------------
# Layered-circuit (hardware-efficient) runs
# ---------------------------------------------------------------------------


def lvqe_objective(bundle: ProblemBundle, p: int, n_measurements: int):
    cf = Diagonal(bundle.feasible_cost_diagonal())
    n = bundle.instance.n

    def objective(flat: np.ndarray) -> float:
        params = ansatz.LvqeParams.from_flat(n, p, flat)
        rho = ansatz.run_lvqe_zeno(bundle.measurement, params, n_measurements)
        return expectation(rho, cf)

    return objective


def optimize_lvqe(
    bundle: ProblemBundle,
    p: int,
    n_measurements: int,
    restarts: int | None = None,
    seed: int = 0,
    budget: int | None = None,
    jobs: int = 1,
) -> tuple[optimize.OptimizationReport, ansatz.LvqeParams, dict[str, float]]:
    n = bundle.instance.n
    dim = n * (p + 1)
    restarts = 20 if restarts is None else restarts
    budget = restarts * 200 * (p + 1) if budget is None else budget
    report = optimize.optimize_params(
        lvqe_objective(bundle, p, n_measurements),
        dim=dim,
        box=[(-math.pi, math.pi)] * dim,
        restarts=restarts,
        seed=seed,
        budget=budget,
        jobs=jobs,
    )
    params = ansatz.LvqeParams.from_flat(n, p, report.best_params)
    rho = ansatz.run_lvqe_zeno(bundle.measurement, params, n_measurements)
    metrics = problems.evaluate_metrics(rho, bundle.instance)
    metrics["total_measurements"] = float(n_measurements)
    return report, params, metrics


# ---------------------------------------------------------------------------
# Sweeps (long-format rows, one per grid point)
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = (
    "sweep_var",
    "value1",
    "value2",
    "r",
    "r_penalty",
    "in_constraint_prob",
    "total_measurements",
    "seed",
)


def _sweep_row(sweep_var, value1, value2, metrics, seed) -> dict:
    return {
        "sweep_var": sweep_var,
        "value1": value1,
        "value2": value2 if value2 is not None else "",
        "r": metrics["r"],
        "r_penalty": metrics.get("r_penalty", ""),
        "in_constraint_prob": metrics["in_constraint_prob"],
        "total_measurements": metrics.get("total_measurements", 0.0),
        "seed": seed,
    }


def _run_sweep_point(payload: dict) -> dict:
    """Worker for one grid point; top-level so process pools can pickle it.
    The payload carries the :func:`run_qaoa` arguments and the grid
    coordinates ``row = (sweep_var, value1, value2)``."""
    bundle = ProblemBundle.build(problems.PortfolioInstance.from_dict(payload["instance"]))
    _, _, metrics = run_qaoa(
        bundle, payload["mixer"], payload["p"], payload["method"], payload.get("params"),
        restarts=payload["restarts"], seed=payload["seed"], budget=payload["budget"],
    )
    return _sweep_row(*payload["row"], metrics, payload["seed"])


def run_sweep(points: list[dict], jobs: int = 1) -> list[dict]:
    """Execute grid points (optionally in parallel) and return rows sorted by
    grid coordinates, independent of completion order."""
    if not points:
        raise ValueError("empty sweep grid")
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_sweep_point, points))
    else:
        rows = [_run_sweep_point(pt) for pt in points]
    return sorted(rows, key=lambda r: (str(r["sweep_var"]), _num(r["value1"]), _num(r["value2"])))


def _num(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        return -math.inf


# ---------------------------------------------------------------------------
# Measurement-count table
# ---------------------------------------------------------------------------


SCALING_COLUMNS = ("mixer", "n", "delta", "layers", "beta", "n_measurements")


def scaling_table(
    n: int, deltas, betas, p: int = 1
) -> list[dict]:
    """Measurement counts versus mixing angle for both closed-form mixers."""
    rows = []
    for kind in MIXER_KINDS:
        mixer = make_mixer(kind, n)
        for delta in deltas:
            for beta in betas:
                rows.append(
                    {
                        "mixer": kind,
                        "n": n,
                        "delta": delta,
                        "layers": p,
                        "beta": beta,
                        "n_measurements": zeno.schedule_cor3(mixer, beta, p, delta),
                    }
                )
    return rows
