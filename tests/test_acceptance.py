"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Criteria 1-6 are exact/closed-form checks; 7-10 are
property surrogates on seeded instances; 11 validates the gradient rule.
Expected wall time is a few minutes, dominated by the optimization loops in
criteria 8-10.
"""

import math

import numpy as np
import pytest
from scipy import stats

from zenopt import ansatz, experiments, optimize, problems, zeno
from zenopt.operators import Measurement, Projector
from zenopt.oraclesim import (
    channel_distance,
    basis_channel_distance,
    clbit_distribution,
    constraint_measurement_circuit,
    induced_superoperator,
    measurement_kraus,
)
from zenopt.qcore import DenseHermitian, Diagonal, StateVector, TransverseField
from zenopt.zeno import (
    ZenoSchedule,
    schedule_cor1,
    schedule_cor3,
    schedule_eta,
    schedule_theorem1,
    survival_bound_lemma2,
    zeno_block,
    zeno_limit_propagator,
)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}", flush=True)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(np.abs(np.linalg.eigvalsh(a - b))) / 2.0)


def random_hermitian(rng, dim, norm=None):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (a + a.conj().T) / 2.0
    if norm is not None:
        h *= norm / np.linalg.norm(h, 2)
    return h


# ---------------------------------------------------------------------------
# 1. Worst-case survival closed form
# ---------------------------------------------------------------------------


def test_criterion_01_worst_case_survival_exactness():
    """Worst-case two-level survival equals the closed form for N in 1..100."""
    xi_min, xi_max = -1.0, 1.0
    h = DenseHermitian(np.array([[0.0, xi_min], [xi_min, 0.0]]))  # rotated frame
    m = Measurement.two_outcome(Projector(1, [0]))
    theta = 1.0
    worst = 0.0
    for count in range(1, 101):
        rho = zeno_block(StateVector.basis(1, 0), [(h, theta)], m, count)
        closed = survival_bound_lemma2(theta, count, xi_max - xi_min)
        worst = max(worst, abs(rho.mat[0, 0].real - closed))
    ok = worst < 1e-10
    report(1, "worst-case survival closed form", ok, f"max |err| = {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 2. Scheduled-count soundness
# ---------------------------------------------------------------------------


def test_criterion_02_single_evolution_schedule_soundness():
    """100 randomized trials: the scheduled count meets the 1-delta bound."""
    rng = np.random.default_rng(77)
    violations = 0
    for _ in range(100):
        n = int(rng.integers(1, 5))  # dim <= 16
        dim = 1 << n
        h = DenseHermitian(random_hermitian(rng, dim, norm=2.0))
        delta = float(rng.choice([0.05, 0.1, 0.19]))
        theta = float(rng.uniform(-np.pi, np.pi))
        size = int(rng.integers(1, dim))
        f = Projector(n, sorted(rng.choice(dim, size=size, replace=False)))
        amps = np.zeros(dim, dtype=complex)
        raw = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        amps[f.indices] = raw / np.linalg.norm(raw)
        w = np.linalg.eigvalsh(h.mat)
        count = schedule_theorem1(theta, w[0], w[-1], delta)
        rho = zeno_block(StateVector(amps), [(h, theta)], Measurement.two_outcome(f), count)
        p_in = float(np.sum(rho.probabilities()[f.indices]))
        if p_in < 1.0 - delta - 1e-12:
            violations += 1
    ok = violations == 0
    report(2, "scheduled-count soundness", ok, f"{violations}/100 violations")
    assert ok


# ---------------------------------------------------------------------------
# 3. Schedule arithmetic
# ---------------------------------------------------------------------------


def test_criterion_03_schedule_arithmetic():
    from zenopt.qcore import RankOneUniform

    exact = (
        schedule_theorem1(1.0, 0.0, 1.0, 0.19) == 2
        and schedule_theorem1(np.pi, -1.0, 1.0, 0.1) == 89
        and schedule_cor1([1.0], [1.0], 1, 0.19, commuting=True) == [5]
        and schedule_cor1([1.0], [1.0], 1, 0.19, commuting=False) == [11]
        and schedule_cor3(TransverseField(3), np.pi / 2, 1, 0.19) == 93
        and schedule_cor3(RankOneUniform(4), np.pi, 1, 0.19) == 11
        and schedule_eta(1.6, 1.6) == 2
        and schedule_eta(1.0, 0.01) == 100
        and zeno.repetitions_cor2(0.5, 0.01) == 7
    )
    rng = np.random.default_rng(12)
    consistent = all(
        schedule_cor3(TransverseField(n := int(rng.integers(1, 11))),
                      beta := float(rng.uniform(-np.pi, np.pi)), 1,
                      delta := float(rng.uniform(0.01, 0.19)))
        == schedule_theorem1(beta, -float(n), float(n), delta)
        for _ in range(1000)
    )
    ok = exact and consistent
    report(3, "schedule arithmetic", ok)
    assert ok


# ---------------------------------------------------------------------------
# 4. Zeno-limit convergence
# ---------------------------------------------------------------------------


def test_criterion_04_zeno_limit_convergence():
    """Trace distance to the limit propagator halves as N doubles (O(1/N))."""
    all_ratios = []
    ok = True
    for seed in range(5):
        rng = np.random.default_rng(seed)
        h = DenseHermitian(random_hermitian(rng, 8, norm=1.0))
        size = int(rng.integers(2, 7))
        f = Projector(3, sorted(rng.choice(8, size=size, replace=False)))
        m = Measurement.two_outcome(f)
        amps = np.zeros(8, dtype=complex)
        raw = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        amps[f.indices] = raw / np.linalg.norm(raw)
        psi = StateVector(amps)
        limit = zeno_limit_propagator(psi.copy(), [(h, 0.9)], m)
        errs = [
            trace_distance(zeno_block(psi.copy(), [(h, 0.9)], m, count).mat, limit.mat)
            for count in (16, 32, 64, 128, 256)
        ]
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        all_ratios.extend(ratios)
        ok = ok and all(1.5 <= r <= 2.5 for r in ratios)
    report(4, "zeno-limit O(1/N) convergence", ok,
           f"ratios in [{min(all_ratios):.2f}, {max(all_ratios):.2f}]")
    assert ok


# ---------------------------------------------------------------------------
# 5. Suppressed-mixer example
# ---------------------------------------------------------------------------


def test_criterion_05_suppressed_mixer():
    """F = {01, 10} under X1 + X2: the projected mixer block is exactly zero
    and the limit dynamics is the identity on F."""
    from zenopt.operators import zeno_hamiltonian

    f = Projector(2, [1, 2])
    m = Measurement.two_outcome(f)
    hz = zeno_hamiltonian(TransverseField(2), m)
    block_zero = bool(np.all(hz.mat == 0.0))
    amps = np.zeros(4, dtype=complex)
    amps[[1, 2]] = np.array([0.8, 0.6])
    psi = StateVector(amps)
    limit = zeno_limit_propagator(psi.copy(), [(TransverseField(2), 1.3)], m)
    identity_on_f = trace_distance(limit.mat, psi.to_density().mat) < 1e-12
    ok = block_zero and identity_on_f
    report(5, "suppressed-mixer identity", ok)
    assert ok


# ---------------------------------------------------------------------------
# 6. Oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_06_oracle_equivalence():
    """Gate-level constraint measurements equal their matrix-level
    counterparts as channels, and register values are exhaustively correct.

    Measuring the whole value register of the equality oracle realizes the
    partition of basis states by constraint value, whose feasible block is
    the value-0 set; the comparison is against that matrix-level family over
    a spanning probe set, plus the two-outcome feasibility split on
    computational-basis inputs. The sign-bit inequality oracle is exactly
    the two-outcome measurement.
    """
    eq = problems.LinearConstraint((2.0, -1.0, -1.0, 0.0), problems.Sense.EQ, 0.0)
    leq = problems.LinearConstraint((1.0, 1.0, 1.0, 1.0), problems.Sense.LEQ, 2.0)
    cases = [
        ("equality qcl m=3", constraint_measurement_circuit(eq, 4, 3, qcl=True)),
        ("equality m=3", constraint_measurement_circuit(eq, 4, 3, qcl=False)),
        ("inequality m=4", constraint_measurement_circuit(leq, 4, 4)),
    ]
    ok = True
    worst = 0.0
    for label, oracle in cases:
        circ = oracle.circuit
        for x in range(16):
            amps = np.zeros(1 << circ.num_qubits, dtype=complex)
            amps[x] = 1.0
            dist = clbit_distribution(circ, amps)
            if abs(dist.get(oracle.expected_word(x), 0.0) - 1.0) > 1e-9:
                ok = False
        kraus = induced_superoperator(circ, list(range(4)))
        d_fine = channel_distance(kraus, measurement_kraus(oracle.induced_partition()))
        d_basis = basis_channel_distance(
            kraus, measurement_kraus(oracle.feasibility_measurement()))
        worst = max(worst, d_fine, d_basis)
        if d_fine > 1e-9 or d_basis > 1e-9:
            ok = False
    # the two equality implementations induce the same channel
    a = induced_superoperator(cases[0][1].circuit, list(range(4)))
    b = induced_superoperator(cases[1][1].circuit, list(range(4)))
    same = channel_distance(a, b)
    ok = ok and same < 1e-9
    report(6, "oracle-channel equivalence", ok, f"max distance = {max(worst, same):.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 7. Adiabatic-limit recovery
# ---------------------------------------------------------------------------

ADIABATIC_INSTANCE = dict(n=4, seed=13, cfg=problems.InstanceConfig(q=4.0, budget=3))
ADIABATIC_AMPLIFICATION = 20.0  # phase-operator gain over the unit-span cost


def _adiabatic_r_curve(t80: float, schedule_for_p) -> list[float]:
    """r(p) along the discretized-interpolation path; the evolution time
    grows with depth as T(p) = t80 * (p/80)^(1/3) (the limit statement takes
    time and depth to infinity jointly)."""
    inst = problems.generate_instance(
        ADIABATIC_INSTANCE["n"], ADIABATIC_INSTANCE["seed"], ADIABATIC_INSTANCE["cfg"])
    bundle = experiments.ProblemBundle.build(inst)
    mixer = TransverseField(4)
    cost = Diagonal(bundle.cost_scaled.values * ADIABATIC_AMPLIFICATION)
    initial = ansatz.zeno_mixer_ground_state(mixer, bundle.feasible)
    rs = []
    for p in (10, 20, 40, 80):
        t = t80 * (p / 80.0) ** (1.0 / 3.0)
        params = ansatz.adiabatic_schedule(ansatz.AdiabaticConfig(t, p))
        rho = ansatz.run_qaoa_zeno(cost, mixer, bundle.measurement, params,
                                   schedule_for_p(p), initial)
        rs.append(problems.evaluate_metrics(rho, inst)["r"])
    return rs


def test_criterion_07_adiabatic_limit_recovery_eta_schedule():
    """The criterion as stated: eta = 0.05 counts, r non-decreasing over
    p in {10, 20, 40, 80} and r(80) >= 0.99.

    Known red: N = ceil(beta_j^2/0.05) yields one measurement per mixing
    layer for every usable evolution time at these depths, orders of
    magnitude below what the mixer-specific sufficient rule requires for the
    transverse-field mixer (span 2n), so the out-of-block error floor caps r(80) near 0.97 across
    the whole (instance, T, cost-gain) design space that was scanned; longer
    evolution times improve adiabaticity but leak faster than p = 80 can
    repay. The evolution time here is the longest that keeps the curve
    monotone. The companion test below shows the same instance, angle
    formulas, and depth grid do recover the optimum once the measurement
    counts actually confine the evolution; the decisions ledger has the full
    analysis.
    """
    rs = _adiabatic_r_curve(7.0, lambda p: ZenoSchedule.from_eta(0.05))
    monotone = all(rs[i] <= rs[i + 1] + 1e-12 for i in range(3))
    ok = monotone and rs[-1] >= 0.99
    report(7, "adiabatic-limit recovery (eta=0.05, as specified)", ok,
           "r(p) = " + ", ".join(f"{v:.4f}" for v in rs))
    assert monotone, f"r(p) not non-decreasing: {rs}"
    assert rs[-1] >= 0.99, (
        f"r(80) = {rs[-1]:.4f} < 0.99 with the specified eta = 0.05 counts; "
        "see test docstring and decisions ledger"
    )


def test_adiabatic_limit_recovery_with_confining_counts():
    """Same instance, angle formulas, and depth grid as criterion 7, with
    measurement counts that confine the evolution (200 per layer, at the level the
    closed-form bounds ask for): the optimum is recovered monotonically. The denser measurements
    admit a longer evolution time, which is exactly the trade-off that caps
    the eta = 0.05 variant."""
    rs = _adiabatic_r_curve(12.0, lambda p: ZenoSchedule.manual([200] * p))
    monotone = all(rs[i] <= rs[i + 1] + 1e-12 for i in range(3))
    ok = monotone and rs[-1] >= 0.99
    report(7, "adiabatic-limit recovery (confining counts, diagnostic)", ok,
           "r(p) = " + ", ".join(f"{v:.4f}" for v in rs))
    assert ok


# ---------------------------------------------------------------------------
# 8. Eta monotonicity / parameter transfer
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_08_eta_transfer():
    """Fixed parameters optimized at eta = 1.6 on a seeded 6-asset instance:
    the in-constraint probability is non-decreasing (tolerance 0.02 per
    step) as eta sweeps down to 0.025, and r moves < 0.05 between
    eta = 0.1 and eta = 0.025, at p = 1 and p = 5."""
    inst = problems.generate_instance(6, 11)
    bundle = experiments.ProblemBundle.build(inst)
    mixer = experiments.make_mixer("x", 6)
    etas = [1.6, 0.8, 0.4, 0.2, 0.1, 0.05, 0.025]
    ok = True
    details = []
    for p, restarts, budget in ((1, 20, 8000), (5, 30, 18000)):
        _, params, _ = experiments.optimize_zeno_qaoa(
            bundle, "x", p, ZenoSchedule.from_eta(1.6),
            restarts=restarts, seed=5, budget=budget)
        curve = {
            eta: experiments.evaluate_zeno_qaoa(
                bundle, mixer, params, ZenoSchedule.from_eta(eta))
            for eta in etas
        }
        icps = [curve[eta]["in_constraint_prob"] for eta in etas]
        monotone = all(b >= a - 0.02 for a, b in zip(icps, icps[1:]))
        drift = abs(curve[0.1]["r"] - curve[0.025]["r"])
        ok = ok and monotone and drift < 0.05
        details.append(f"p={p}: icp {icps[0]:.3f}->{icps[-1]:.3f}, |dr|={drift:.4f}")
    report(8, "eta transfer monotonicity", ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 9. Penalty trade-off
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_09_penalty_tradeoff():
    """Penalty-factor sweep on a seeded 5-asset instance: the in-constraint
    probability rises with lambda while r falls (Spearman > 0.8 / < -0.5)."""
    inst = problems.generate_instance(5, 1)
    bundle = experiments.ProblemBundle.build(inst)
    lambdas = [0.3, 0.6, 1.2, 2.5, 5.0, 10.0]
    ok = True
    details = []
    for p, restarts, budget in ((1, 20, 8000), (3, 32, 20000)):
        rs, icps = [], []
        for lam in lambdas:
            _, _, m = experiments.optimize_penalty_qaoa(
                bundle, [lam], "x", p, restarts=restarts, seed=2, budget=budget)
            rs.append(m["r"])
            icps.append(m["in_constraint_prob"])
        rho_icp = stats.spearmanr(lambdas, icps).statistic
        rho_r = stats.spearmanr(lambdas, rs).statistic
        ok = ok and rho_icp > 0.8 and rho_r < -0.5
        details.append(f"p={p}: corr(icp)={rho_icp:.2f}, corr(r)={rho_r:.2f}")
    report(9, "penalty trade-off", ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 10. Zeno-vs-penalty dominance
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_10_zeno_vs_penalty_dominance():
    """On 5 seeded budget-constrained instances, the best measured run (eta
    tuned over a 4-point grid, feasibility >= 0.95) matches or beats the
    best penalty run's r at p = 1 and p = 3 for at least 4 of 5 instances."""
    instances = [(4, 7), (5, 1), (5, 2), (6, 11), (6, 3)]
    etas = [0.1, 0.025, 0.00625, 0.0015625]
    lambdas = [0.3, 0.6, 1.2, 2.5, 5.0, 10.0]
    dominated = 0
    lines = []
    for n, seed in instances:
        inst = problems.generate_instance(n, seed)
        bundle = experiments.ProblemBundle.build(inst)
        mixer = experiments.make_mixer("x", n)
        wins = []
        for p, restarts, budget in ((1, 16, 6000), (3, 20, 10000)):
            _, params, _ = experiments.optimize_zeno_qaoa(
                bundle, "x", p, ZenoSchedule.from_eta(0.4),
                restarts=restarts, seed=13, budget=budget)
            best_zeno = -math.inf
            for eta in etas:
                m = experiments.evaluate_zeno_qaoa(
                    bundle, mixer, params, ZenoSchedule.from_eta(eta))
                if m["in_constraint_prob"] >= 0.95:
                    best_zeno = max(best_zeno, m["r"])
            best_pen = max(
                experiments.optimize_penalty_qaoa(
                    bundle, [lam], "x", p, restarts=restarts, seed=13, budget=budget
                )[2]["r"]
                for lam in lambdas
            )
            wins.append(best_zeno >= best_pen)
            lines.append(f"n={n},seed={seed},p={p}: zeno={best_zeno:.3f} pen={best_pen:.3f}")
        dominated += all(wins)
    ok = dominated >= 4
    report(10, "zeno-vs-penalty dominance", ok, f"{dominated}/5 instances")
    if not ok:
        print("\n".join(lines))
    assert ok


# ---------------------------------------------------------------------------
# 11. Parameter-shift correctness
# ---------------------------------------------------------------------------


def test_criterion_11_parameter_shift():
    """20 random measured circuits: shift-rule gradient vs central finite
    differences, |err| < 1e-6 each."""
    pauli = {
        "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
        "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
        "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
    }

    def pauli_string(rng, n):
        mat = np.array([[1.0]])
        for _ in range(n):
            mat = np.kron(pauli[rng.choice(list(pauli))], mat)
        return mat

    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        dim = 1 << n
        blocks = tuple(
            (DenseHermitian(pauli_string(rng, n)), b, int(rng.integers(1, 6)))
            for b in range(int(rng.integers(1, 4)))
        )
        cut = sorted(rng.choice(dim, size=int(rng.integers(1, dim)), replace=False))
        m = Measurement.two_outcome(Projector(n, cut))
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        circ = optimize.ZenoCircuit(StateVector(v / np.linalg.norm(v)), blocks, m)
        obs = DenseHermitian(random_hermitian(rng, dim))
        params = rng.uniform(-np.pi, np.pi, size=len(blocks))
        index = int(rng.integers(0, len(blocks)))
        grad = optimize.parameter_shift_gradient(circ, obs, params, index)
        fd = optimize.finite_difference_gradient(
            lambda x: circ.expectation(obs, x), params, index)
        worst = max(worst, abs(grad - fd))
    ok = worst < 1e-6
    report(11, "parameter-shift correctness", ok, f"max |err| = {worst:.2e}")
    assert ok
