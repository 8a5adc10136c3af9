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


def _zeno_state(bundle: ProblemBundle, mixer: Generator, params: ansatz.QaoaParams, schedule):
    return ansatz.run_qaoa_zeno(
        bundle.cost_scaled, mixer, bundle.measurement, params, schedule, bundle.initial
    )


def evaluate_zeno_qaoa(
    bundle: ProblemBundle,
    mixer: Generator,
    params: ansatz.QaoaParams,
    schedule: zeno.ZenoSchedule,
) -> dict[str, float]:
    rho = _zeno_state(bundle, mixer, params, schedule)
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
        return expectation(_zeno_state(bundle, mixer, params, schedule), cf)

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
    """Optimize a measured p-layer run with :func:`run_qaoa`; ``jobs`` must
    be 1 (see :func:`_serial_restarts`)."""
    _serial_restarts(jobs)
    return run_qaoa(bundle, mixer_kind, p, schedule, restarts=restarts, seed=seed, budget=budget)


def _serial_restarts(jobs: int) -> None:
    """Restarts always run one after another on the calling thread. The
    ``jobs`` keyword of the ``optimize_*`` functions survives only because the
    benchmark harness still passes ``jobs=1``; it goes once the harness drops
    the argument."""
    if jobs != 1:
        raise ValueError(f"restarts run serially; jobs must be 1, got {jobs}")


def _optimize(objective, box, p: int, restarts, seed: int, budget, lvqe: bool = False):
    """Seeded multistart search over ``box`` for a p-layer circuit. Unless
    given, QAOA gets 50 restarts (100 above three layers) of 400 evaluations
    each and the layered circuit 20 restarts of 200 (p + 1)."""
    if restarts is None:
        restarts = 20 if lvqe else 50 if p <= 3 else 100
    if budget is None:
        budget = restarts * (200 * (p + 1) if lvqe else 400)
    return optimize.optimize_params(
        objective, dim=len(box), box=box, restarts=restarts, seed=seed, budget=budget
    )


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
    """Optimize a p-layer penalty baseline run with :func:`run_qaoa`;
    ``jobs`` must be 1 (see :func:`_serial_restarts`)."""
    _serial_restarts(jobs)
    return run_qaoa(bundle, mixer_kind, p, lambdas, restarts=restarts, seed=seed, budget=budget)


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
) -> tuple[optimize.OptimizationReport | None, ansatz.QaoaParams, dict[str, float]]:
    """One p-layer QAOA run: measured under ``method`` when it is a
    :class:`zeno.ZenoSchedule`, the penalty baseline when it is a list of
    penalty factors (one per constraint). Flat ``params`` are evaluated as
    given and the report is None; otherwise the parameters are optimized."""
    given = None if params is None else ansatz.QaoaParams.from_flat(params)
    if given is not None and given.p != p:
        raise ValueError(f"{given.p}-layer parameters given for a {p}-layer run")
    if isinstance(method, zeno.ZenoSchedule):
        mixer = make_mixer(mixer_kind, bundle.instance.n)
        objective = zeno_objective(bundle, mixer, method)

        def evaluate(qaoa: ansatz.QaoaParams) -> dict[str, float]:
            return evaluate_zeno_qaoa(bundle, mixer, qaoa, method)

    else:
        relax, cost, mixer, _ = penalty_setup(bundle, method, mixer_kind)

        def objective(flat: np.ndarray) -> float:
            psi = ansatz.run_qaoa_penalty(cost, mixer, ansatz.QaoaParams.from_flat(flat))
            return expectation(psi, cost)

        def evaluate(qaoa: ansatz.QaoaParams) -> dict[str, float]:
            psi = ansatz.run_qaoa_penalty(cost, mixer, qaoa)
            metrics = problems.evaluate_metrics(psi, bundle.instance, relaxation=relax)
            metrics["total_measurements"] = 0.0
            return metrics

    if given is not None:
        return None, given, evaluate(given)
    report = _optimize(objective, parameter_box(mixer, p), p, restarts, seed, budget)
    best = ansatz.QaoaParams.from_flat(report.best_params)
    return report, best, evaluate(best)


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
    """Optimize a p-layer layered circuit with ``n_measurements`` trailing
    measurements; ``jobs`` must be 1 (see :func:`_serial_restarts`)."""
    _serial_restarts(jobs)
    n = bundle.instance.n
    box = [(-math.pi, math.pi)] * (n * (p + 1))
    objective = lvqe_objective(bundle, p, n_measurements)
    report = _optimize(objective, box, p, restarts, seed, budget, lvqe=True)
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
    """Execute grid points (in parallel, on at most one process per point)
    and return rows sorted by grid coordinates, independent of completion order."""
    if not points:
        raise ValueError("empty sweep grid")
    if jobs < 1:
        raise ValueError(f"sweep jobs must be at least 1, got {jobs}")
    jobs = min(jobs, len(points))
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
    for delta in deltas:  # refused even when the beta grid is empty
        zeno.ZenoSchedule(rule="cor3", delta=delta)
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
