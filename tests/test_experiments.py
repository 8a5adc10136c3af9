"""Experiment protocols: bundles, transfer behavior, sweep workers."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zenopt
from zenopt import ansatz, experiments, problems, zeno
from zenopt.operators import Measurement, Projector, complement
from zenopt.qcore import DenseHermitian, RankOneUniform, TransverseField


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
    _, _, far = experiments.run_qaoa(bundle, "x", 1, [20.0], params.flat())
    assert far["r"] <= r_uniform + 0.05


def test_optimized_lvqe_reaches_high_feasibility(bundle4):
    """Single measured block with 100 passes, optimized: near-unit feasible
    probability and near-optimal conditional quality on the 4-asset case."""
    _, _, metrics = experiments.optimize_lvqe(
        bundle4, 1, 100, restarts=6, seed=3, budget=2400)
    assert metrics["in_constraint_prob"] > 0.9
    assert metrics["r"] > 0.9
    assert metrics["total_measurements"] == 100.0


@pytest.mark.parametrize(
    "run",
    [
        lambda b, **kw: experiments.optimize_zeno_qaoa(
            b, "x", 1, zeno.ZenoSchedule.from_eta(1.6), **kw
        ),
        lambda b, **kw: experiments.optimize_penalty_qaoa(b, [1.0], "x", 1, **kw),
        lambda b, **kw: experiments.optimize_lvqe(b, 1, 5, **kw),
    ],
    ids=["zeno", "penalty", "lvqe"],
)
def test_restarts_only_run_serially(bundle4, run):
    with pytest.raises(ValueError, match="jobs must be 1"):
        run(bundle4, restarts=1, budget=2, jobs=2)


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


@pytest.mark.parametrize("n_points, jobs, workers", [(1, 4, None), (3, 8, 3), (3, 2, 2)])
def test_sweep_pool_has_at_most_one_worker_per_point(monkeypatch, n_points, jobs, workers):
    # A one-point grid runs serially; otherwise the pool never outnumbers the points.
    opened = []

    class RecordingPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments, "_run_sweep_point",
                        lambda pt: {"sweep_var": "eta", "value1": pt, "value2": None})
    rows = experiments.run_sweep(list(range(n_points)), jobs=jobs)
    assert [r["value1"] for r in rows] == list(range(n_points))
    assert opened == ([] if workers is None else [workers])


def test_scaling_table_rows():
    rows = experiments.scaling_table(3, [0.19], [0.0, np.pi / 2], p=1)
    by_key = {(r["mixer"], r["beta"]): r["n_measurements"] for r in rows}
    assert by_key[("x", np.pi / 2)] == 93
    assert by_key[("x", 0.0)] == 1
    assert by_key[("cg", np.pi / 2)] == 3  # ceil(2.4674/0.95607)


# ---------------------------------------------------------------------------
# Measured cg mixer in the factored form rho = L S L^H
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=3, max_value=7),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=1, max_value=3),
    st.sampled_from((2, 3)),
    st.sampled_from((1.6, 0.4, 0.1)),
)
def test_measured_cg_stays_low_rank_and_matches_the_dense_path(n, seed, p, outcomes, eta):
    inst = problems.generate_instance(n, seed, problems.InstanceConfig(return_constraint=True))
    bundle = experiments.ProblemBundle.build(inst)
    m = bundle.measurement
    if outcomes == 3:  # the infeasible block split in two
        rest = complement(bundle.feasible).indices
        m = Measurement((bundle.feasible, Projector(n, rest[::2]), Projector(n, rest[1::2])))
    rng = np.random.default_rng(seed)
    params = ansatz.QaoaParams(*(tuple(rng.uniform(-math.pi, math.pi, p)) for _ in range(2)))
    schedule = zeno.ZenoSchedule.from_eta(eta)
    cg = RankOneUniform(n)
    rho = ansatz.run_qaoa_zeno(bundle.cost_scaled, cg, m, params, schedule, bundle.initial)
    dense = ansatz.run_qaoa_zeno(
        bundle.cost_scaled, DenseHermitian(cg.materialize()), m, params, schedule, bundle.initial
    )

    # Each measured cg block adds the J non-empty block pieces of u to L. The
    # first block starts on the pure state, so its promoted column splits into
    # J pieces too: L has at most J * (p + 1) columns, and rho rank 1 + J * p.
    outcomes = sum(not proj.is_empty() for proj in m.projectors)
    if outcomes * (p + 1) < 1 << n:
        assert rho._S is not None and rho._S.shape[0] <= outcomes * (p + 1)
    got, want = problems.evaluate_metrics(rho, inst), problems.evaluate_metrics(dense, inst)
    for key in want:
        assert abs(got[key] - want[key]) < 1e-12
    np.testing.assert_allclose(rho.mat, dense.mat, rtol=0, atol=1e-12)
    assert np.linalg.matrix_rank(rho.mat, tol=1e-10, hermitian=True) <= 1 + outcomes * p


_RSS_CHILD = """
import os, resource
from zenopt import ansatz, experiments, problems, qcore, zeno

n = 11
inst = problems.generate_instance(n, 3, problems.InstanceConfig(return_constraint=True))
bundle = experiments.ProblemBundle.build(inst)
params = ansatz.QaoaParams((0.9, -0.7), (0.6, 1.3))
mixer, schedule = qcore.RankOneUniform(n), zeno.ZenoSchedule.from_eta(0.2)
# A forked process starts its high-water mark at its resident set, so the
# transient peaks of imports and set-up do not hide what the run allocates.
pid = os.fork()
if pid == 0:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = experiments.evaluate_zeno_qaoa(bundle, mixer, params, schedule)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(after - before, metrics["total_measurements"], flush=True)
    os._exit(0)
_, status = os.waitpid(pid, 0)
raise SystemExit(os.waitstatus_to_exitcode(status))
"""


def test_measured_cg_run_peak_rss_stays_below_one_dense_matrix():
    # ru_maxrss (KiB on Linux) also sees BLAS buffers, which tracemalloc does
    # not. One dense 11-qubit density matrix is 64 MiB.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(Path(zenopt.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD], env=env, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    growth_kib, measurements = done.stdout.split()
    assert float(measurements) == 8.0
    assert int(growth_kib) < 16 * 1024
