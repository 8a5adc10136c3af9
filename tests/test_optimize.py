"""Multistart simplex search and parameter-shift gradients."""

import numpy as np
import pytest

from zenopt import experiments, problems, zeno
from zenopt.operators import Measurement, Projector
from zenopt.optimize import (
    ZenoCircuit,
    finite_difference_gradient,
    optimize_params,
    parameter_shift_gradient,
)
from zenopt.qcore import DenseHermitian, StateVector, TransverseField

PAULI = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}


def pauli_string(label: str) -> np.ndarray:
    mat = np.array([[1.0]])
    for ch in reversed(label):  # qubit 0 is the least significant factor
        mat = np.kron(PAULI[ch], mat)
    return mat


def test_convex_quadratic_minimum():
    report = optimize_params(lambda x: (x[0] - 0.3) ** 2, dim=1,
                             box=[(-2.0, 2.0)], restarts=5, seed=1, budget=2000)
    assert abs(report.best_params[0] - 0.3) < 1e-6
    assert report.best_value < 1e-10


def test_optimizer_is_deterministic():
    def rosen(x):
        return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2

    a = optimize_params(rosen, 2, [(-2, 2), (-2, 2)], restarts=8, seed=42, budget=4000)
    b = optimize_params(rosen, 2, [(-2, 2), (-2, 2)], restarts=8, seed=42, budget=4000)
    assert a.best_value == b.best_value
    np.testing.assert_array_equal(a.best_params, b.best_params)
    assert a.trace == b.trace
    # threaded execution must not change the result
    c = optimize_params(rosen, 2, [(-2, 2), (-2, 2)], restarts=8, seed=42, budget=4000, jobs=4)
    assert c.best_value == a.best_value


def test_trace_is_monotone_and_consistent():
    report = optimize_params(lambda x: np.cos(3 * x[0]) + 0.1 * x[0] ** 2, dim=1,
                             box=[(-3, 3)], restarts=6, seed=0, budget=3000)
    values = [v for _, v in report.trace]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] == report.best_value


def test_best_params_stay_in_box():
    report = optimize_params(lambda x: -np.sum(x), dim=3,
                             box=[(0.0, 1.0)] * 3, restarts=4, seed=7, budget=2000)
    assert np.all(report.best_params >= 0.0) and np.all(report.best_params <= 1.0)
    assert report.best_value == pytest.approx(-3.0, abs=1e-4)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        optimize_params(lambda x: 0.0, 1, [(1.0, 0.0)], restarts=1, seed=0, budget=10)
    with pytest.raises(ValueError):
        optimize_params(lambda x: 0.0, 1, [(0.0, 1.0)], restarts=0, seed=0, budget=10)
    with pytest.raises(ValueError):
        optimize_params(lambda x: 0.0, 1, [(0.0, 1.0)], restarts=1, seed=0, budget=0)


def test_qaoa_energy_matches_grid_search_oracle():
    inst = problems.generate_instance(4, 7)
    bundle = experiments.ProblemBundle.build(inst)
    sched = zeno.ZenoSchedule.from_eta(0.4)
    objective = experiments.zeno_objective(bundle, TransverseField(4), sched)
    box = experiments.parameter_box(TransverseField(4), 1)
    grid_best = min(
        objective(np.array([b, g]))
        for b in np.linspace(box[0][0], box[0][1], 64)
        for g in np.linspace(box[1][0], box[1][1], 64)
    )
    report = optimize_params(objective, 2, box, restarts=20, seed=3, budget=6000)
    assert report.best_value <= grid_best + 1e-6


def test_transfer_params_identity():
    """Optimized parameters evaluated again under the same measured schedule
    or penalty factors reproduce the optimizer's metrics exactly."""
    bundle = experiments.ProblemBundle.build(problems.generate_instance(4, 7))
    for method in (zeno.ZenoSchedule.from_eta(0.4), [2.0]):
        report, params, metrics = experiments.run_qaoa(
            bundle, "x", 1, method, restarts=8, seed=2, budget=2000)
        again, same, transferred = experiments.run_qaoa(
            bundle, "x", 1, method, report.best_params)
        assert again is None and same == params
        assert transferred == metrics
        with pytest.raises(ValueError):
            experiments.run_qaoa(bundle, "x", 2, method, report.best_params)


# ---------------------------------------------------------------------------
# Parameter-shift rule
# ---------------------------------------------------------------------------


def random_zeno_circuit(rng, n, n_blocks, max_count):
    dim = 1 << n
    labels = ["X", "Y", "Z"]
    blocks = []
    for b in range(n_blocks):
        label = "".join(rng.choice(labels) for _ in range(n))
        blocks.append((DenseHermitian(pauli_string(label)), b, int(rng.integers(1, max_count + 1))))
    cut = sorted(rng.choice(dim, size=int(rng.integers(1, dim)), replace=False))
    m = Measurement.two_outcome(Projector(n, cut))
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    initial = StateVector(v / np.linalg.norm(v))
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    obs = DenseHermitian((a + a.conj().T) / 2.0)
    return ZenoCircuit(initial, tuple(blocks), m), obs


def test_single_step_reduces_to_standard_shift_rule():
    rng = np.random.default_rng(0)
    circ, obs = random_zeno_circuit(rng, 2, 1, 1)
    # without measurements, one block: E(t) = a + b cos 2t + c sin 2t
    circ_plain = ZenoCircuit(circ.initial, ((circ.blocks[0][0], 0, 0),), circ.measurement)
    params = np.array([0.37])
    grad = parameter_shift_gradient(circ_plain, obs, params, 0)
    plus = circ_plain.expectation(obs, np.array([0.37 + np.pi / 4]))
    minus = circ_plain.expectation(obs, np.array([0.37 - np.pi / 4]))
    assert grad == pytest.approx(plus - minus, abs=1e-12)
    fd = finite_difference_gradient(lambda x: circ_plain.expectation(obs, x), params, 0)
    assert abs(grad - fd) < 1e-6


def test_shift_rule_matches_finite_differences_on_random_circuits():
    rng = np.random.default_rng(123)
    for trial in range(20):
        n = int(rng.integers(1, 4))
        circ, obs = random_zeno_circuit(rng, n, int(rng.integers(1, 4)), 5)
        params = rng.uniform(-np.pi, np.pi, size=len(circ.blocks))
        index = int(rng.integers(0, len(circ.blocks)))
        grad = parameter_shift_gradient(circ, obs, params, index)
        fd = finite_difference_gradient(
            lambda x: circ.expectation(obs, x), params, index)
        assert abs(grad - fd) < 1e-6


def test_shift_rule_evaluation_count():
    rng = np.random.default_rng(9)
    circ, obs = random_zeno_circuit(rng, 2, 1, 4)
    count = circ.blocks[0][2]
    calls = 0
    original = ZenoCircuit.expectation

    def counting(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return original(self, *args, **kwargs)

    ZenoCircuit.expectation = counting
    try:
        parameter_shift_gradient(circ, obs, np.array([0.3]), 0)
    finally:
        ZenoCircuit.expectation = original
    assert calls == 2 * count


def test_insensitive_parameter_has_zero_gradient():
    # a diagonal generator acting on a diagonal-invariant observable
    rng = np.random.default_rng(5)
    z = DenseHermitian(pauli_string("ZZ"))
    m = Measurement.two_outcome(Projector(2, [0, 3]))
    initial = StateVector.basis(2, 0)
    circ = ZenoCircuit(initial, ((z, 0, 3),), m)
    obs = DenseHermitian(np.diag(rng.standard_normal(4)))
    grad = parameter_shift_gradient(circ, obs, np.array([0.7]), 0)
    assert abs(grad) < 1e-9


def test_shift_rule_rejects_non_involution():
    m = Measurement.two_outcome(Projector(2, [0, 1]))
    gen = DenseHermitian(np.diag([0.0, 1.0, 2.0, 3.0]))  # not unitary
    circ = ZenoCircuit(StateVector.uniform(2), ((gen, 0, 2),), m)
    with pytest.raises(ValueError):
        parameter_shift_gradient(circ, DenseHermitian(np.eye(4)), np.array([0.1]), 0)
    with pytest.raises(IndexError):
        parameter_shift_gradient(circ, DenseHermitian(np.eye(4)), np.array([0.1]), 5)
