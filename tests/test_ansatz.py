"""QAOA/layered-circuit assemblies: cross-checks against plain evolutions."""

import numpy as np
import pytest
from scipy.linalg import expm

from zenopt import experiments, problems
from zenopt.ansatz import (
    AdiabaticConfig,
    LvqeParams,
    QaoaParams,
    _ladder_permutation,
    adiabatic_schedule,
    lvqe_generators,
    lvqe_statevector,
    mixer_beta_halfwidth,
    run_lvqe_zeno,
    run_qaoa_penalty,
    run_qaoa_zeno,
    zeno_mixer_ground_state,
)
from zenopt.operators import Measurement, Projector, bit_matrix
from zenopt.qcore import (
    DenseHermitian,
    Diagonal,
    RankOneUniform,
    StateVector,
    TransverseField,
    expectation,
)
from zenopt.zeno import ZenoSchedule


def bundle_for(n=4, seed=7):
    inst = problems.generate_instance(n, seed)
    feas = problems.feasible_states(inst)
    return inst, feas, Measurement.two_outcome(feas)


def test_qaoa_params_validation():
    with pytest.raises(ValueError):
        QaoaParams((0.1,), (0.1, 0.2))
    with pytest.raises(ValueError):
        QaoaParams((float("inf"),), (0.1,))
    p = QaoaParams.from_flat([0.1, 0.2, 0.3, 0.4])
    assert p.betas == (0.1, 0.2) and p.gammas == (0.3, 0.4)
    np.testing.assert_array_equal(p.flat(), [0.1, 0.2, 0.3, 0.4])


def test_mixer_beta_halfwidth():
    assert mixer_beta_halfwidth(TransverseField(3)) == pytest.approx(np.pi / 2)
    assert mixer_beta_halfwidth(RankOneUniform(3)) == pytest.approx(np.pi)


def test_zero_params_leave_initial_state():
    inst, feas, m = bundle_for()
    cost = Diagonal(inst.objective_table())
    initial = problems.initial_state_uniform_feasible(feas)
    params = QaoaParams((0.0,), (0.0,))
    rho = run_qaoa_zeno(cost, TransverseField(4), m, params, ZenoSchedule.from_eta(1.0), initial)
    np.testing.assert_allclose(rho.mat, initial.to_density().mat, atol=1e-12)
    metrics = problems.evaluate_metrics(rho, inst)
    assert metrics["in_constraint_prob"] == pytest.approx(1.0)


def test_out_of_constraint_initial_state_rejected():
    inst, feas, m = bundle_for()
    cost = Diagonal(inst.objective_table())
    bad = StateVector.basis(4, 15)  # weight-4 string violates the budget
    with pytest.raises(ValueError):
        run_qaoa_zeno(cost, TransverseField(4), m, QaoaParams((0.1,), (0.1,)),
                      ZenoSchedule.from_eta(1.0), bad)


def test_suppressed_mixer_keeps_state():
    # F = {01, 10} with the transverse field: large N freezes the dynamics
    f = Projector(2, [1, 2])
    m = Measurement.two_outcome(f)
    cost = Diagonal(np.zeros(4))
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1.0
    initial = StateVector(amps)
    rho = run_qaoa_zeno(cost, TransverseField(2), m, QaoaParams((0.8,), (0.3,)),
                        ZenoSchedule.manual([3000]), initial)
    assert rho.mat[1, 1].real > 0.995


def test_trivial_measurement_single_count_equals_plain_qaoa():
    # equality-constrained instance has no slack qubits, so the penalty
    # baseline at lambda = 0 is exactly unconstrained QAOA on f
    inst = problems.PortfolioInstance(
        n=3, q=0.7, sigma=np.eye(3), mu=np.array([0.2, 0.8, 0.4]),
        constraints=(problems.LinearConstraint((1.0, -1.0, 0.0), problems.Sense.EQ, 0.0),),
    )
    relax = problems.penalty_objective(inst, [0.0])
    assert relax.n_slack == 0
    cost = Diagonal(relax.diagonal)
    params = QaoaParams((0.4, -0.2), (0.7, 0.1))
    psi = run_qaoa_penalty(cost, TransverseField(3), params)
    rho = run_qaoa_zeno(cost, TransverseField(3), Measurement.trivial(3), params,
                        ZenoSchedule.manual([1, 1]), StateVector.uniform(3))
    np.testing.assert_allclose(rho.mat, psi.to_density().mat, atol=1e-10)


def test_cor3_schedule_meets_its_guarantee():
    inst, feas, m = bundle_for()
    cost = Diagonal(inst.objective_table() / problems.cost_scale(inst))
    initial = problems.initial_state_uniform_feasible(feas)
    params = QaoaParams((0.9, -0.6), (0.5, 0.8))
    sched = ZenoSchedule(rule="cor3", delta=0.1)
    rho = run_qaoa_zeno(cost, TransverseField(4), m, params, sched, initial)
    metrics = problems.evaluate_metrics(rho, inst)
    assert metrics["in_constraint_prob"] >= 0.9


def test_penalty_run_with_zero_layers_is_uniform():
    inst = problems.generate_instance(4, 7)
    relax = problems.penalty_objective(inst, [1.0])
    psi = run_qaoa_penalty(Diagonal(relax.diagonal), TransverseField(relax.total_qubits),
                           QaoaParams((), ()))
    np.testing.assert_allclose(psi.amps, StateVector.uniform(relax.total_qubits).amps)


def test_penalty_improves_in_constraint_probability():
    # qualitative sweep on a fixed seeded instance: a strong penalty yields a
    # higher feasible fraction than no penalty, at optimized parameters
    inst = problems.generate_instance(4, 7)
    from zenopt import experiments

    bundle = experiments.ProblemBundle.build(inst)
    icps = []
    for lam in (0.0, 4.0):
        _, _, metrics = experiments.optimize_penalty_qaoa(
            bundle, [lam], "x", 1, restarts=12, seed=3, budget=4000)
        icps.append(metrics["in_constraint_prob"])
    assert icps[1] > icps[0]


def test_adiabatic_schedule_values():
    params = adiabatic_schedule(AdiabaticConfig(1.0, 2))
    assert params.betas == pytest.approx((-0.25, 0.0))
    assert params.gammas == pytest.approx((-0.25, -0.5))
    single = adiabatic_schedule(AdiabaticConfig(3.0, 1))
    assert single.betas == pytest.approx((0.0,))
    assert single.gammas == pytest.approx((-3.0,))
    zero = adiabatic_schedule(AdiabaticConfig(0.0, 3))
    assert all(v == 0.0 for v in zero.betas + zero.gammas)


def test_zeno_mixer_ground_state_is_feasible_eigenvector():
    from zenopt.operators import zeno_hamiltonian

    inst, feas, m = bundle_for()
    psi = zeno_mixer_ground_state(TransverseField(4), feas)
    assert np.linalg.norm(np.delete(psi.amps, feas.indices)) < 1e-12
    hz = zeno_hamiltonian(TransverseField(4), m)
    sub = hz.mat[np.ix_(feas.indices, feas.indices)]
    w = np.linalg.eigvalsh(sub)[0]
    assert expectation(psi, hz) == pytest.approx(w, abs=1e-10)


# ---------------------------------------------------------------------------
# Layered circuit
# ---------------------------------------------------------------------------


def direct_gate_simulation(params: LvqeParams) -> np.ndarray:
    """Oracle: apply the raw gate sequence (Ry layers and CNOT ladders)."""
    n = params.n
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0

    def ry(theta):
        c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
        return np.array([[c, -s], [s, c]])

    def apply_1q(v, u, q):
        view = v.reshape(1 << (n - 1 - q), 2, 1 << q)
        return np.einsum("ab,xby->xay", u, view).reshape(-1)

    def apply_cnot(v, c, t):
        idx = np.arange(1 << n)
        src = np.where(((idx >> c) & 1) == 1, idx ^ (1 << t), idx)
        return v[src]

    for k in range(n):
        psi = apply_1q(psi, ry(params.theta0[k]), k)
    for row in params.layer_thetas:
        for c in range(n - 1):
            psi = apply_cnot(psi, c, c + 1)
        for k in range(n):
            psi = apply_1q(psi, ry(row[k]), k)
    return psi


@pytest.mark.parametrize("n,p,seed", [(2, 1, 0), (3, 2, 1), (4, 1, 2), (3, 3, 5)])
def test_folded_generators_match_direct_gates(n, p, seed):
    rng = np.random.default_rng(seed)
    params = LvqeParams.from_flat(n, p, rng.uniform(-np.pi, np.pi, size=n * (p + 1)))
    psi = lvqe_statevector(params)
    oracle = direct_gate_simulation(params)
    np.testing.assert_allclose(psi.amps, oracle, atol=1e-10)


def per_qubit_fold(params: LvqeParams) -> list[list[tuple[np.ndarray, float]]]:
    """Reference: the fold as one involutory Pauli string per qubit, grouped
    by rotation layer, as (dense matrix, angle) pairs."""
    n, p = params.n, params.p
    dim = 1 << n
    idx = np.arange(dim)
    perm_pow = [idx]
    for _ in range(p):
        perm_pow.append(_ladder_permutation(n)[perm_pow[-1]])
    layers = []
    for layer, row in enumerate([params.theta0, *params.layer_thetas]):
        conj = perm_pow[p - layer]
        strings = []
        for k in range(n):
            y = np.zeros((dim, dim), dtype=complex)
            y[idx ^ (1 << k), idx] = np.where((idx >> k) & 1 == 0, 1j, -1j)
            g = np.zeros_like(y)
            g[np.ix_(conj, conj)] = y
            strings.append((g, row[k] / 2.0))
        layers.append(strings)
    return layers


def reference_lvqe(params: LvqeParams, m: Measurement, n_measurements: int) -> np.ndarray:
    """Dense measured block over the per-qubit fold: N passes of every
    Pauli-string exponential at angle/N, each followed by sum_j P_j rho P_j."""
    dim = 1 << params.n
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    steps = max(1, n_measurements)
    strings = [pair for layer in per_qubit_fold(params) for pair in layer]
    for _ in range(steps):
        for g, angle in strings:
            u = expm(-1j * (angle / steps) * g)
            rho = u @ rho @ u.conj().T
        if n_measurements:
            rho = sum(proj.matrix() @ rho @ proj.matrix() for proj in m.projectors)
    return rho


FOLD_CASES = [(2, 1, 0), (3, 2, 1), (4, 1, 2), (3, 3, 5)]


@pytest.mark.parametrize("n,p,seed", FOLD_CASES)
def test_layer_generator_equals_product_of_pauli_strings(n, p, seed):
    rng = np.random.default_rng(seed)
    params = LvqeParams.from_flat(n, p, rng.uniform(-np.pi, np.pi, size=n * (p + 1)))
    gens = lvqe_generators(params)
    reference = per_qubit_fold(params)
    assert len(gens) == p + 1
    for (gen, angle), strings in zip(gens, reference):
        product = np.eye(1 << n, dtype=complex)
        for g, theta in strings:
            product = expm(-1j * theta * g) @ product
        np.testing.assert_allclose(expm(-1j * angle * gen.materialize()), product, atol=1e-12)


def scatter_fold(params: LvqeParams) -> list[np.ndarray]:
    """Reference: each layer's H = C (sum_k (theta_k / 2) Y_k) C^T as a dense
    matrix, scattered entry by entry through the ladder permutation C."""
    n = params.n
    perm = _ladder_permutation(n)
    idx = np.arange(1 << n, dtype=np.int64)
    flipped = idx ^ (1 << np.arange(n))[:, None]  # (n, 2^n): row k flips qubit k
    y_sign = 1j * (1.0 - 2.0 * bit_matrix(n).T)  # Y|0> = i|1>, Y|1> = -i|0>
    conj, layers = idx, []
    for row in reversed([params.theta0, *params.layer_thetas]):
        h = np.zeros((1 << n, 1 << n), dtype=np.complex128)
        h[conj[flipped], conj] = (0.5 * np.asarray(row))[:, None] * y_sign
        layers.append(h)
        conj = perm[conj]
    return layers[::-1]


@pytest.mark.parametrize("n,p,seed", FOLD_CASES + [(6, 3, 9)])
def test_closed_form_layers_match_the_scattered_fold(n, p, seed):
    rng = np.random.default_rng(seed)
    params = LvqeParams.from_flat(n, p, rng.uniform(-np.pi, np.pi, size=n * (p + 1)))
    rows = [params.theta0, *params.layer_thetas]
    for (gen, angle), h, row in zip(lvqe_generators(params), scatter_fold(params), rows):
        assert angle == 1.0 and gen.real
        np.testing.assert_allclose(gen.materialize(), h, rtol=0, atol=1e-12)
        for a in (0.3, -1.7):
            u = gen.propagator(a)
            assert u.dtype == np.float64
            np.testing.assert_allclose(u, expm(-1j * a * h), rtol=0, atol=1e-12)
        half = 0.5 * np.abs(row).sum()
        np.testing.assert_allclose(gen.span(), (-half, half), rtol=0, atol=1e-12)


def test_lvqe_objective_needs_no_eigh_and_no_generator_matrix(monkeypatch):
    bundle = experiments.ProblemBundle.build(problems.generate_instance(5, 3))
    objective = experiments.lvqe_objective(bundle, 2, 6)
    x = np.random.default_rng(2).uniform(-np.pi, np.pi, size=15)
    before = objective(x)

    def refuse(*args, **kwargs):
        raise AssertionError("the layered circuit must not need this")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(DenseHermitian, "materialize", refuse)
    assert objective(x) == before


@pytest.mark.parametrize("n_measurements", [0, 1, 3, 20])
@pytest.mark.parametrize("n,p,seed", FOLD_CASES)
def test_lvqe_measured_block_matches_per_qubit_fold(n, p, seed, n_measurements):
    rng = np.random.default_rng(seed)
    params = LvqeParams.from_flat(n, p, rng.uniform(-np.pi, np.pi, size=n * (p + 1)))
    feasible = Projector(n, np.flatnonzero(rng.random(1 << n) < 0.5).tolist() + [0])
    m = Measurement.two_outcome(feasible)
    rho = run_lvqe_zeno(m, params, n_measurements)
    np.testing.assert_allclose(rho.mat, reference_lvqe(params, m, n_measurements), atol=1e-12)


@pytest.mark.parametrize("n,p,seed", FOLD_CASES)
def test_lvqe_runs_on_the_real_form(n, p, seed):
    # Every folded layer is purely imaginary, so its propagator is real: the
    # first sub-step evolves |0...0> and the measurement keeps it factored,
    # and from the second sub-step on the state is the float64 matrix K in
    # the computational basis.
    rng = np.random.default_rng(seed)
    params = LvqeParams.from_flat(n, p, rng.uniform(-np.pi, np.pi, size=n * (p + 1)))
    assert all(g.real and g.propagator(angle).dtype == np.float64 for g, angle in lvqe_generators(params))
    m = Measurement.two_outcome(Projector(n, np.flatnonzero(rng.random(1 << n) < 0.5).tolist() + [0]))
    rho = run_lvqe_zeno(m, params, 2)
    assert rho._S is None and not rho._framed and rho._arr.dtype == np.float64
    np.testing.assert_allclose(rho.mat, reference_lvqe(params, m, 2), rtol=0, atol=1e-12)


def test_lvqe_zero_angles_is_ground_state():
    inst, feas, m = bundle_for()
    params = LvqeParams.from_flat(4, 1, np.zeros(8))
    rho = run_lvqe_zeno(m, params, 10)
    assert rho.mat[0, 0].real == pytest.approx(1.0)
    # the all-zeros string satisfies the budget, so the state is feasible
    metrics = problems.evaluate_metrics(rho, inst)
    assert metrics["in_constraint_prob"] == pytest.approx(1.0)


def test_lvqe_measured_block_monotone_on_two_level_worst_case():
    from zenopt.zeno import survival_bound_lemma2

    vals = [survival_bound_lemma2(1.0, k, 2.0) for k in (1, 100)]
    assert vals[1] >= vals[0] - 1e-6


def test_lvqe_param_shapes():
    with pytest.raises(ValueError):
        LvqeParams((0.1, 0.2), ((0.1,),))
    with pytest.raises(ValueError, match="must be finite"):
        LvqeParams((0.1, np.nan), ((0.2, 0.3),))
    params = LvqeParams.from_flat(3, 2, np.arange(9, dtype=float))
    assert params.n == 3 and params.p == 2
    np.testing.assert_array_equal(params.flat(), np.arange(9, dtype=float))
    with pytest.raises(ValueError):
        LvqeParams.from_flat(3, 2, np.zeros(7))


def test_lvqe_more_measurements_keep_feasibility_higher():
    # trend record on a seeded instance: not asserted as a strict invariant,
    # only that the heavily measured run confines the state substantially
    inst, feas, m = bundle_for()
    rng = np.random.default_rng(4)
    params = LvqeParams.from_flat(4, 1, rng.uniform(-1.5, 1.5, size=8))
    icp_1 = problems.evaluate_metrics(run_lvqe_zeno(m, params, 1), inst)["in_constraint_prob"]
    icp_100 = problems.evaluate_metrics(run_lvqe_zeno(m, params, 100), inst)["in_constraint_prob"]
    assert icp_100 > 0.9
    assert icp_100 >= icp_1 - 0.05
