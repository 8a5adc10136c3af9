"""Experiment protocols: bundles, transfer behavior, sweep workers."""

import numpy as np
import pytest

from zenopt import ansatz, experiments, problems, zeno
from zenopt.qcore import TransverseField


@pytest.fixture(scope="module")
def bundle4():
    return experiments.ProblemBundle.build(problems.generate_instance(4, 7))


def test_bundle_contents(bundle4):
    assert bundle4.feasible.rank == 11
    assert bundle4.measurement.projectors[0] == bundle4.feasible
    span = float(bundle4.cost_scaled.values.max() - bundle4.cost_scaled.values.min())
    assert span == pytest.approx(1.0)
    diag = bundle4.feasible_cost_diagonal()
    assert np.count_nonzero(diag[np.setdiff1d(np.arange(16), bundle4.feasible.indices)]) == 0


def test_make_mixer():
    assert isinstance(experiments.make_mixer("x", 3), TransverseField)
    assert experiments.make_mixer("cg", 3).n == 3
    with pytest.raises(ValueError):
        experiments.make_mixer("xy", 3)


def test_zeno_qaoa_output_invariants(bundle4):
    """Trace one and exact block-diagonality right after the final
    measurement of a measured run."""
    params = ansatz.QaoaParams((0.6,), (0.4,))
    mixer = experiments.make_mixer("x", 4)
    rho = ansatz.run_qaoa_zeno(
        bundle4.cost_scaled, mixer, bundle4.measurement, params,
        zeno.ZenoSchedule.from_eta(0.2), bundle4.initial)
    assert abs(rho.trace() - 1.0) < 1e-9
    mask = bundle4.measurement.block_mask()
    assert np.max(np.abs(rho.mat[~mask])) == 0.0
    rho.validate(1e-9)


def test_eta_transfer_boosts_feasibility(bundle4):
    sched = zeno.ZenoSchedule.from_eta(1.6)
    report, params, source = experiments.optimize_zeno_qaoa(
        bundle4, "x", 1, sched, restarts=10, seed=4, budget=3000)
    mixer = experiments.make_mixer("x", 4)
    tighter = experiments.evaluate_zeno_qaoa(
        bundle4, mixer, params, zeno.ZenoSchedule.from_eta(0.025))
    assert tighter["in_constraint_prob"] >= source["in_constraint_prob"] - 1e-9
    assert tighter["total_measurements"] >= source["total_measurements"]


def test_lambda_transfer_collapses_to_baseline():
    """Parameters tuned at a weak penalty lose their edge when re-evaluated
    under a strong penalty: r falls back to the uniform-feasible baseline."""
    inst = problems.generate_instance(5, 1)
    bundle = experiments.ProblemBundle.build(inst)
    r_uniform = problems.evaluate_metrics(
        problems.initial_state_uniform_feasible(bundle.feasible), inst)["r"]
    _, params, source = experiments.optimize_penalty_qaoa(
        bundle, [0.1], "x", 1, restarts=16, seed=2, budget=6000)
    assert source["r"] >= r_uniform + 0.1
    relax, cost, mixer, _ = experiments.penalty_setup(bundle, [20.0], "x")
    far = experiments.evaluate_penalty_qaoa(bundle, relax, cost, mixer, params)
    assert far["r"] <= r_uniform + 0.05


@pytest.mark.slow
def test_optimized_lvqe_reaches_high_feasibility(bundle4):
    """Single measured block with 100 passes, optimized: near-unit feasible
    probability and near-optimal conditional quality on the 4-asset case."""
    _, _, metrics = experiments.optimize_lvqe(
        bundle4, 1, 100, restarts=6, seed=3, budget=2400)
    assert metrics["in_constraint_prob"] > 0.9
    assert metrics["r"] > 0.9
    assert metrics["total_measurements"] == 100.0


def test_sweep_worker_and_sorting():
    inst = problems.generate_instance(4, 7)
    points = [
        {
            "instance": inst.to_dict(), "mixer": "cg", "p": 1, "restarts": 3,
            "seed": 1, "budget": 600, "method": zeno.ZenoSchedule.from_eta(eta),
            "row": ("eta", eta, None),
        }
        for eta in (0.4, 1.6, 0.1)
    ]
    rows = experiments.run_sweep(points, jobs=1)
    assert [r["value1"] for r in rows] == [0.1, 0.4, 1.6]
    assert all(set(experiments.SWEEP_COLUMNS) == set(r) for r in rows)
    with pytest.raises(ValueError):
        experiments.run_sweep([], jobs=1)


def test_scaling_table_rows():
    rows = experiments.scaling_table(3, [0.19], [0.0, np.pi / 2], p=1)
    by_key = {(r["mixer"], r["beta"]): r["n_measurements"] for r in rows}
    assert by_key[("x", np.pi / 2)] == 93
    assert by_key[("x", 0.0)] == 1
    assert by_key[("cg", np.pi / 2)] == 3  # ceil(2.4674/0.95607)
