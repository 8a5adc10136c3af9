"""The four benchmark workloads.

A workload builds its inputs from the run's seed in ``setup`` and lists its
operations in ``ops``. One round runs every operation once, in order; an
operation receives the outputs of the operations before it. Every round of
a run repeats the same operations on the same inputs, so their outputs must
repeat bit for bit. ``verify`` checks one operation's output against the
references in :mod:`reference`, and ``dense_reference`` recomputes one
evaluation with dense matrices.

Work per round is kept independent of the seed, so that runs with different
seeds take comparable time: the seed picks the instance, while the
optimizer's multistart seed is fixed (``OPT_SEED``), and the fixed
parameters of ``zeno-transfer-n10`` are drawn from a band in which every eta
of the grid gives the same measurement counts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

import reference as ref
from zenopt import ansatz, experiments, oraclesim, problems, qcore, zeno

#: Multistart seed of every optimizer run (the CLI's ``--seed``). The random
#: starts decide how many sub-steps each evaluation needs under the eta rule,
#: so a fixed value keeps the work per round the same for every run seed.
OPT_SEED = 0


def problem_of(bundle) -> dict:
    return bundle.instance.to_dict()


def optimizer_errors(report, reevaluated: float) -> list[str]:
    if reevaluated != report.best_value:
        return [
            f"optimizer best value {report.best_value!r} != re-evaluation "
            f"{reevaluated!r} at its best parameters"
        ]
    return []


def density_errors(rho, problem: dict, metrics: dict) -> list[str]:
    """Invariants of a measured-run state and its metrics, from its diagonal."""
    probs = np.real(np.diag(rho.mat))
    return ref.check_density(rho.mat) + ref.check_metrics(
        metrics, ref.metrics_from_probabilities(problem, probs)
    )


def uniform_feasible(problem: dict) -> np.ndarray:
    feasible = ref.feasible_mask(problem)
    return feasible / math.sqrt(feasible.sum()) + 0j


class Workload:
    name: str

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def ops(self) -> list:
        """[(label, fn)]; ``fn(previous_outputs)`` runs one operation."""
        raise NotImplementedError

    def evaluations(self, outputs: list) -> int:
        """Full circuit evaluations one round made."""
        raise NotImplementedError

    def verify(self, index: int, outputs: list) -> list[str]:
        raise NotImplementedError

    def dense_reference(self, outputs: list) -> tuple[int, list[str]]:
        """(index of the operation it rechecks, failure messages)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# zeno-opt-n6
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZenoOptConfig:
    n: int = 6
    p: int = 3
    eta: float = 0.4
    restarts: int = 4
    budget: int = 64
    etas: tuple[float, ...] = (1.6, 0.4, 0.1)


class ZenoOpt(Workload):
    name = "zeno-opt-n6"

    def __init__(self, smoke: bool = False):
        self.cfg = ZenoOptConfig(n=4, p=1, restarts=2, budget=16, etas=(1.6, 0.4)) if smoke else ZenoOptConfig()

    def setup(self, seed: int) -> None:
        cfg = self.cfg
        self.bundle = experiments.ProblemBundle.build(problems.generate_instance(cfg.n, seed))
        self.mixer = experiments.make_mixer("x", cfg.n)
        self.schedule = zeno.ZenoSchedule.from_eta(cfg.eta)
        self.transfer = [zeno.ZenoSchedule.from_eta(eta) for eta in cfg.etas]

    def ops(self) -> list:
        cfg = self.cfg

        def optimize(_):
            return experiments.optimize_zeno_qaoa(
                self.bundle, "x", cfg.p, self.schedule,
                restarts=cfg.restarts, seed=OPT_SEED, budget=cfg.budget, jobs=1,
            )

        def transfer(schedule):
            return lambda outs: experiments.evaluate_zeno_qaoa(
                self.bundle, self.mixer, outs[0][1], schedule
            )

        return [("optimize", optimize)] + [
            (f"evaluate eta={s.eta:g}", transfer(s)) for s in self.transfer
        ]

    def evaluations(self, outputs: list) -> int:
        return outputs[0][0].n_evaluations + 1 + len(self.transfer)

    def _state(self, params, schedule):
        b = self.bundle
        return ansatz.run_qaoa_zeno(b.cost_scaled, self.mixer, b.measurement, params, schedule, b.initial)

    def verify(self, index: int, outputs: list) -> list[str]:
        report, params, metrics = outputs[0]
        problem = problem_of(self.bundle)
        if index == 0:
            schedule = self.schedule
            objective = experiments.zeno_objective(self.bundle, self.mixer, schedule)
            errors = optimizer_errors(report, objective(report.best_params))
        else:
            schedule = self.transfer[index - 1]
            metrics = outputs[index]
            errors = []
        measurements = sum(ref.eta_counts(params.betas, schedule.eta))
        errors += ref.check_metrics(metrics, {"total_measurements": measurements})
        return errors + density_errors(self._state(params, schedule), problem, metrics)

    def dense_reference(self, outputs: list) -> tuple[int, list[str]]:
        params = outputs[0][1]
        schedule = self.transfer[0]
        problem = problem_of(self.bundle)
        rho_ref = ref.qaoa_zeno(
            ref.objective_table(problem) / ref.cost_span(problem),
            ref.transverse_field_matrix(self.cfg.n),
            ref.feasible_mask(problem),
            params.betas, params.gammas,
            ref.eta_counts(params.betas, schedule.eta),
            uniform_feasible(problem),
        )
        rho = self._state(params, schedule)
        errors = ref.check_close("measured QAOA state", rho.mat, rho_ref, ref.STATE_TOL)
        want = ref.metrics_from_probabilities(problem, np.real(np.diag(rho_ref)))
        return 1, errors + ref.check_metrics(outputs[1], want, ref.STATE_TOL)


# ---------------------------------------------------------------------------
# zeno-transfer-n10
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferConfig:
    n: int = 10
    p: int = 2
    etas: tuple[float, ...] = (1.6, 0.4)
    mixers: tuple[str, ...] = ("x", "cg")
    #: beta^2 is drawn from this band: every beta in it gets one sub-step at
    #: eta = 1.6 and two at eta = 0.4, whatever the seed.
    beta_sq: tuple[float, float] = (0.45, 0.75)


class Transfer(Workload):
    name = "zeno-transfer-n10"

    def __init__(self, smoke: bool = False):
        self.cfg = TransferConfig(n=5) if smoke else TransferConfig()

    def setup(self, seed: int) -> None:
        cfg = self.cfg
        inst = problems.generate_instance(
            cfg.n, seed, problems.InstanceConfig(return_constraint=True)
        )
        self.bundle = experiments.ProblemBundle.build(inst)
        rng = np.random.default_rng(seed)
        betas = rng.choice((-1.0, 1.0), cfg.p) * np.sqrt(rng.uniform(*cfg.beta_sq, cfg.p))
        gammas = rng.uniform(-math.pi, math.pi, cfg.p)
        self.params = ansatz.QaoaParams(tuple(betas), tuple(gammas))
        self.points = [
            (kind, experiments.make_mixer(kind, cfg.n), zeno.ZenoSchedule.from_eta(eta))
            for kind in cfg.mixers
            for eta in cfg.etas
        ]

    def ops(self) -> list:
        def evaluate(mixer, schedule):
            return lambda _: experiments.evaluate_zeno_qaoa(
                self.bundle, mixer, self.params, schedule
            )

        return [(f"evaluate {kind} eta={s.eta:g}", evaluate(m, s)) for kind, m, s in self.points]

    def evaluations(self, outputs: list) -> int:
        return len(self.points)

    def _state(self, index: int):
        _, mixer, schedule = self.points[index]
        b = self.bundle
        return ansatz.run_qaoa_zeno(b.cost_scaled, mixer, b.measurement, self.params, schedule, b.initial)

    def verify(self, index: int, outputs: list) -> list[str]:
        schedule = self.points[index][2]
        measurements = sum(ref.eta_counts(self.params.betas, schedule.eta))
        errors = ref.check_metrics(outputs[index], {"total_measurements": measurements})
        return errors + density_errors(self._state(index), problem_of(self.bundle), outputs[index])

    def dense_reference(self, outputs: list) -> tuple[int, list[str]]:
        # The rank-one mixer at the largest eta: the cheapest evaluation.
        index = self.cfg.mixers.index("cg") * len(self.cfg.etas)
        schedule = self.points[index][2]
        problem = problem_of(self.bundle)
        rho_ref = ref.qaoa_zeno(
            ref.objective_table(problem) / ref.cost_span(problem),
            ref.rank_one_uniform_matrix(self.cfg.n),
            ref.feasible_mask(problem),
            self.params.betas, self.params.gammas,
            ref.eta_counts(self.params.betas, schedule.eta),
            uniform_feasible(problem),
        )
        errors = ref.check_close("measured QAOA state", self._state(index).mat, rho_ref, ref.STATE_TOL)
        want = ref.metrics_from_probabilities(problem, np.real(np.diag(rho_ref)))
        return index, errors + ref.check_metrics(outputs[index], want, ref.STATE_TOL)


# ---------------------------------------------------------------------------
# penalty-sweep-n6
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PenaltyConfig:
    n: int = 6
    p: int = 2
    #: Problem plus slack qubits. Seeds whose relaxation needs another width
    #: are skipped, so every run simulates the same register size.
    total_qubits: int | None = 10
    lambdas: tuple[tuple[float, float], ...] = ((0.5, 0.5), (0.5, 2.0), (2.0, 0.5), (2.0, 2.0))
    restarts: int = 4
    budget: int = 120


class PenaltySweep(Workload):
    name = "penalty-sweep-n6"

    def __init__(self, smoke: bool = False):
        self.cfg = (
            PenaltyConfig(n=4, p=1, total_qubits=None, lambdas=((0.5, 2.0),), restarts=2, budget=16)
            if smoke
            else PenaltyConfig()
        )

    def setup(self, seed: int) -> None:
        cfg = self.cfg
        config = problems.InstanceConfig(return_constraint=True)
        for instance_seed in itertools.count(seed):
            inst = problems.generate_instance(cfg.n, instance_seed, config)
            size = ref.penalty_diagonal(inst.to_dict(), (1.0, 1.0)).size
            if cfg.total_qubits is None or size == 1 << cfg.total_qubits:
                break
        self.bundle = experiments.ProblemBundle.build(inst)

    def ops(self) -> list:
        cfg = self.cfg

        def optimize(lambdas):
            return lambda _: experiments.optimize_penalty_qaoa(
                self.bundle, list(lambdas), "x", cfg.p,
                restarts=cfg.restarts, seed=OPT_SEED, budget=cfg.budget, jobs=1,
            )

        return [(f"optimize lambda={l1:g},{l2:g}", optimize((l1, l2))) for l1, l2 in cfg.lambdas]

    def evaluations(self, outputs: list) -> int:
        return sum(report.n_evaluations + 1 for report, _, _ in outputs)

    def _state(self, index: int, params):
        relax, cost, mixer, _ = experiments.penalty_setup(self.bundle, list(self.cfg.lambdas[index]), "x")
        return relax, cost, ansatz.run_qaoa_penalty(cost, mixer, params)

    def verify(self, index: int, outputs: list) -> list[str]:
        report, params, metrics = outputs[index]
        problem = problem_of(self.bundle)
        relax, cost, psi = self._state(index, params)
        diag = ref.penalty_diagonal(problem, self.cfg.lambdas[index])
        errors = ref.check_close("penalty diagonal", relax.diagonal, diag, ref.METRIC_TOL)
        errors += optimizer_errors(report, qcore.expectation(psi, cost))
        errors += ref.check_close("state norm", np.linalg.norm(psi.amps), 1.0, ref.STATE_TOL)
        want = ref.metrics_from_probabilities(problem, np.abs(psi.amps) ** 2, diag)
        want["total_measurements"] = 0.0
        return errors + ref.check_metrics(metrics, want)

    def dense_reference(self, outputs: list) -> tuple[int, list[str]]:
        _, params, metrics = outputs[0]
        problem = problem_of(self.bundle)
        diag = ref.penalty_diagonal(problem, self.cfg.lambdas[0])
        total = int(diag.size).bit_length() - 1
        psi_ref = ref.qaoa_pure(
            diag / (diag.max() - diag.min()),
            ref.transverse_field_matrix(total),
            params.betas, params.gammas,
            np.full(diag.size, 1.0 / math.sqrt(diag.size), dtype=np.complex128),
        )
        _, _, psi = self._state(0, params)
        errors = ref.check_close("penalty QAOA state", psi.amps, psi_ref, ref.STATE_TOL)
        want = ref.metrics_from_probabilities(problem, np.abs(psi_ref) ** 2, diag)
        return 0, errors + ref.check_metrics(metrics, want, ref.STATE_TOL)


# ---------------------------------------------------------------------------
# lvqe-oracle-n5
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LvqeConfig:
    n: int = 5
    p: int = 1
    measurements: int = 20
    precision: int = 3
    restarts: int = 2
    budget: int = 32


class LvqeOracle(Workload):
    name = "lvqe-oracle-n5"

    def __init__(self, smoke: bool = False):
        self.cfg = LvqeConfig(n=3, measurements=4, restarts=1, budget=12) if smoke else LvqeConfig()

    def setup(self, seed: int) -> None:
        self.bundle = experiments.ProblemBundle.build(problems.generate_instance(self.cfg.n, seed))

    def ops(self) -> list:
        cfg = self.cfg

        def oracle(_):
            circuit = oraclesim.constraint_measurement_circuit(
                self.bundle.instance.constraints[0], cfg.n, cfg.precision
            ).circuit
            kraus = oraclesim.induced_superoperator(circuit, range(cfg.n))
            target = oraclesim.measurement_kraus(self.bundle.measurement)
            return kraus, oraclesim.channel_distance(kraus, target)

        def optimize(_):
            return experiments.optimize_lvqe(
                self.bundle, cfg.p, cfg.measurements,
                restarts=cfg.restarts, seed=OPT_SEED, budget=cfg.budget, jobs=1,
            )

        return [("oracle", oracle), ("optimize", optimize)]

    def evaluations(self, outputs: list) -> int:
        return outputs[1][0].n_evaluations + 1

    def _state(self, params):
        return ansatz.run_lvqe_zeno(self.bundle.measurement, params, self.cfg.measurements)

    def verify(self, index: int, outputs: list) -> list[str]:
        problem = problem_of(self.bundle)
        if index == 0:
            kraus, distance = outputs[0]
            errors = [] if distance < 1e-9 else [f"oracle channel distance {distance:.3e}"]
            return errors + ref.check_kraus(kraus, ref.feasible_mask(problem), np.random.default_rng(0))
        report, params, metrics = outputs[1]
        objective = experiments.lvqe_objective(self.bundle, self.cfg.p, self.cfg.measurements)
        errors = optimizer_errors(report, objective(report.best_params))
        errors += ref.check_metrics(metrics, {"total_measurements": float(self.cfg.measurements)})
        errors += ref.check_close(
            "folded circuit state",
            ansatz.lvqe_statevector(params).amps,
            ref.ladder_circuit_state(params.n, params.theta0, params.layer_thetas),
            ref.STATE_TOL,
        )
        return errors + density_errors(self._state(params), problem, metrics)

    def dense_reference(self, outputs: list) -> tuple[int, list[str]]:
        _, params, metrics = outputs[1]
        problem = problem_of(self.bundle)
        generators = [(g.materialize(), angle) for g, angle in ansatz.lvqe_generators(params)]
        rho_ref = ref.measured_product(generators, self.cfg.measurements, ref.feasible_mask(problem))
        errors = ref.check_close("measured LVQE state", self._state(params).mat, rho_ref, ref.STATE_TOL)
        want = ref.metrics_from_probabilities(problem, np.real(np.diag(rho_ref)))
        return 1, errors + ref.check_metrics(metrics, want, ref.STATE_TOL)


WORKLOADS = {w.name: w for w in (ZenoOpt, Transfer, PenaltySweep, LvqeOracle)}
