"""Measurement super-operator, blocks, schedules, and closed-form bounds.

Schedule values below were frozen from direct evaluation of the closed
forms (ceil of the stated quotients), and the dynamical checks use the exact
density-matrix simulator as the oracle.
"""

import numpy as np
import pytest

from zenopt.operators import Measurement, Projector
from zenopt.qcore import (
    DenseHermitian,
    DensityMatrix,
    Diagonal,
    RankOneUniform,
    StateVector,
    TransverseField,
    apply_evolution,
)
from zenopt.zeno import (
    DeltaRangeError,
    UnsupportedMixerError,
    ZenoSchedule,
    apply_measurement,
    repetitions_cor2,
    schedule_cor1,
    schedule_cor3,
    schedule_eta,
    schedule_theorem1,
    survival_bound_lemma2,
    zeno_block,
    zeno_limit_propagator,
)


def two_level_worst_case(xi_min=-1.0, xi_max=1.0):
    """Lemma-2 worst case rotated into a basis-aligned frame: the equal
    superposition of extreme eigenvectors becomes |0> and the projector onto
    it becomes {0}; the Hamiltonian picks up off-diagonal couplings."""
    h = np.array(
        [[(xi_min + xi_max) / 2.0, (xi_min - xi_max) / 2.0],
         [(xi_min - xi_max) / 2.0, (xi_min + xi_max) / 2.0]]
    )
    return DenseHermitian(h), Measurement.two_outcome(Projector(1, [0]))


def in_subspace_weight(rho: DensityMatrix, proj: Projector) -> float:
    return float(np.sum(rho.probabilities()[proj.indices]))


# ---------------------------------------------------------------------------
# Measurement super-operator
# ---------------------------------------------------------------------------


def test_measurement_dephases_plus_state():
    m = Measurement.two_outcome(Projector(1, [0]))
    rho = apply_measurement(StateVector.uniform(1), m)
    np.testing.assert_allclose(rho.mat, np.diag([0.5, 0.5]), atol=1e-15)


def test_measurement_preserves_in_subspace_states():
    rng = np.random.default_rng(0)
    f = Projector(3, [0, 3, 5])
    amps = np.zeros(8, dtype=complex)
    raw = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    amps[f.indices] = raw / np.linalg.norm(raw)
    rho = StateVector(amps).to_density()
    before = rho.mat.copy()
    apply_measurement(rho, Measurement.two_outcome(f))
    np.testing.assert_allclose(rho.mat, before, atol=1e-15)


def test_measurement_single_step_worst_case_cosine():
    # one evolve-then-measure step of the worst case gives cos^2(span*t/2)
    h, m = two_level_worst_case()
    theta = 0.7
    state = StateVector.basis(1, 0)
    apply_evolution(state, h, theta)
    rho = apply_measurement(state, m)
    assert abs(rho.mat[0, 0].real - np.cos(theta) ** 2) < 1e-12


def test_measurement_idempotent():
    rng = np.random.default_rng(4)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    rho = StateVector(v / np.linalg.norm(v)).to_density()
    m = Measurement.two_outcome(Projector(3, [1, 2, 6]))
    once = apply_measurement(rho, m)
    first = once.mat.copy()
    twice = apply_measurement(once, m)
    np.testing.assert_allclose(twice.mat, first, atol=1e-12)


def test_measurement_commutes_with_diagonal_evolution():
    # diagonal phase operators cannot change block membership, which is why
    # only mixing layers need measuring
    rng = np.random.default_rng(6)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi = StateVector(v / np.linalg.norm(v))
    cost = Diagonal(rng.standard_normal(8))
    m = Measurement.two_outcome(Projector(3, [0, 2, 7]))
    a = apply_measurement(psi.copy(), m)
    apply_evolution(a, cost, 0.83)
    b = psi.copy()
    apply_evolution(b, cost, 0.83)
    b = apply_measurement(b, m)
    np.testing.assert_allclose(a.mat, b.mat, atol=1e-12)


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------


def test_zero_angle_block_preserves_feasible_state():
    f = Projector(2, [1, 2])
    amps = np.zeros(4, dtype=complex)
    amps[[1, 2]] = 1.0 / np.sqrt(2.0)
    rho = StateVector(amps).to_density()
    before = rho.mat.copy()
    out = zeno_block(rho, [(TransverseField(2), 0.0)], Measurement.two_outcome(f), 5)
    np.testing.assert_allclose(out.mat, before, atol=1e-15)


def test_suppressed_mixer_dynamics_become_trivial():
    # F = {01, 10} under the transverse field: large N freezes the state
    f = Projector(2, [1, 2])
    m = Measurement.two_outcome(f)
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1.0
    initial = StateVector(amps)
    out = zeno_block(initial.copy(), [(TransverseField(2), 0.9)], m, 4000)
    assert abs(out.mat[1, 1].real - 1.0) < 5e-3
    limit = zeno_limit_propagator(initial.copy(), [(TransverseField(2), 0.9)], m)
    np.testing.assert_allclose(limit.mat, initial.to_density().mat, atol=1e-12)


def test_block_matches_markov_chain_closed_form():
    h, m = two_level_worst_case()
    theta, n = 0.8, 7
    rho = zeno_block(StateVector.basis(1, 0), [(h, theta)], m, n)
    p_star = np.cos(theta / n) ** 2  # span = 2
    expected = 0.5 + 0.5 * (2.0 * p_star - 1.0) ** n
    assert abs(rho.mat[0, 0].real - expected) < 1e-12


def test_block_with_zero_measurements_is_plain_evolution():
    rng = np.random.default_rng(8)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi = StateVector(v / np.linalg.norm(v))
    m = Measurement.two_outcome(Projector(2, [0, 1]))
    out = zeno_block(psi.copy(), [(TransverseField(2), 0.61)], m, 0)
    assert isinstance(out, StateVector)  # no promotion without measurements
    ref = psi.copy()
    apply_evolution(ref, TransverseField(2), 0.61)
    np.testing.assert_allclose(out.amps, ref.amps, atol=1e-14)


# ---------------------------------------------------------------------------
# Schedules: frozen hand-derived values
# ---------------------------------------------------------------------------


def test_schedule_theorem1_values():
    assert schedule_theorem1(1.0, 0.0, 1.0, 0.19) == 2
    assert schedule_theorem1(0.0, -3.0, 3.0, 0.1) == 1  # clamp
    assert schedule_theorem1(np.pi, -1.0, 1.0, 0.1) == 89


def test_schedule_theorem1_delta_range():
    for bad in (0.0, -0.1, 0.2, 0.5):
        with pytest.raises(DeltaRangeError):
            schedule_theorem1(1.0, 0.0, 1.0, bad)


def test_schedule_cor1_values():
    assert schedule_cor1([1.0], [1.0], 1, 0.19, commuting=True) == [5]
    assert schedule_cor1([1.0], [1.0], 1, 0.19, commuting=False) == [11]
    # linear in the number of blocks, up to the ceiling
    raw = 4.0 * (0.7 * 1.3) ** 2 / (-2.0 * np.log1p(-0.2))
    assert schedule_cor1([0.7], [1.3], 1, 0.1, commuting=True) == [int(np.ceil(raw))]
    assert schedule_cor1([0.7], [1.3], 2, 0.1, commuting=True) == [int(np.ceil(2 * raw))]


def test_schedule_cor3_values():
    assert schedule_cor3(TransverseField(3), np.pi / 2, 1, 0.19) == 93
    assert schedule_cor3(RankOneUniform(4), np.pi, 1, 0.19) == 11
    assert schedule_cor3(TransverseField(3), 0.0, 1, 0.1) == 1  # clamp
    with pytest.raises(UnsupportedMixerError):
        schedule_cor3(Diagonal([0.0, 1.0]), 0.5, 1, 0.1)


def test_cor3_consistent_with_theorem1_for_transverse_field():
    # ln((1-2d)^(-1/2)) = ln((1-2d)^(-2))/4 makes the two rules coincide at
    # p = 1 with spectral span 2n
    rng = np.random.default_rng(12)
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        beta = rng.uniform(-np.pi, np.pi)
        delta = rng.uniform(0.01, 0.19)
        assert schedule_cor3(TransverseField(n), beta, 1, delta) == schedule_theorem1(
            beta, -float(n), float(n), delta
        )


def test_schedule_eta_values():
    assert schedule_eta(1.6, 1.6) == 2
    assert schedule_eta(0.0, 0.7) == 1
    assert schedule_eta(1.0, 0.01) == 100
    for eta in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="eta must be finite and positive"):
            schedule_eta(1.0, eta)


def test_repetitions_cor2_values():
    assert repetitions_cor2(0.5, 0.01) == 7
    assert repetitions_cor2(0.99, 0.5) == 1
    assert repetitions_cor2(1.0, 0.5) == 1  # certain success
    with pytest.raises(ValueError):
        repetitions_cor2(0.5, 1.5)


# ---------------------------------------------------------------------------
# Closed-form survival bound
# ---------------------------------------------------------------------------


def test_survival_bound_single_measurement_matches_cosine():
    theta = 0.9
    assert abs(survival_bound_lemma2(theta, 1, 1.0) - np.cos(theta / 2.0) ** 2) < 1e-15
    # a quarter-period rotation leaves the subspace entirely
    assert abs(survival_bound_lemma2(np.pi, 1, 1.0)) < 1e-15


def test_survival_bound_matches_simulation():
    h, m = two_level_worst_case()
    rho = zeno_block(StateVector.basis(1, 0), [(h, 1.0)], m, 10)
    assert abs(rho.mat[0, 0].real - survival_bound_lemma2(1.0, 10, 2.0)) < 1e-12


def test_survival_bound_validity_range():
    with pytest.raises(ValueError):
        survival_bound_lemma2(4.0, 1, 1.0)


# ---------------------------------------------------------------------------
# Soundness of the scheduled counts (randomized)
# ---------------------------------------------------------------------------


def _random_setup(rng, n):
    dim = 1 << n
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = DenseHermitian((a + a.conj().T) / 2.0)
    size = int(rng.integers(1, dim))
    f = Projector(n, sorted(rng.choice(dim, size=size, replace=False)))
    amps = np.zeros(dim, dtype=complex)
    raw = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    amps[f.indices] = raw / np.linalg.norm(raw)
    return h, f, StateVector(amps)


def test_single_block_schedule_soundness_randomized():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(1, 5))  # dim <= 16
        h, f, psi = _random_setup(rng, n)
        delta = float(rng.choice([0.05, 0.1, 0.19]))
        theta = float(rng.uniform(-np.pi, np.pi))
        lo, hi = np.linalg.eigvalsh(h.mat)[[0, -1]]
        count = schedule_theorem1(theta, lo, hi, delta)
        rho = zeno_block(psi, [(h, theta)], Measurement.two_outcome(f), count)
        assert in_subspace_weight(rho, f) >= 1.0 - delta - 1e-12


def test_multi_generator_schedule_soundness_non_commuting():
    rng = np.random.default_rng(91)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        h1, f, psi = _random_setup(rng, n)
        dim = 1 << n
        b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h2 = DenseHermitian((b + b.conj().T) / 2.0)
        delta = 0.1
        angles = rng.uniform(-1.0, 1.0, size=2)
        norms = [max(abs(v) for v in np.linalg.eigvalsh(h.mat)) for h in (h1, h2)]
        counts = schedule_cor1(
            [abs(angles).sum()], [max(norms)], 1, delta, commuting=False
        )
        m = Measurement.two_outcome(f)
        rho = zeno_block(psi, [(h1, angles[0]), (h2, angles[1])], m, counts[0])
        assert in_subspace_weight(rho, f) >= 1.0 - delta - 1e-12


# ---------------------------------------------------------------------------
# Zeno-limit propagator
# ---------------------------------------------------------------------------


def test_limit_propagator_trivial_measurement_is_plain_evolution():
    rng = np.random.default_rng(14)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi = StateVector(v / np.linalg.norm(v))
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = DenseHermitian((a + a.conj().T) / 2.0)
    limit = zeno_limit_propagator(psi.copy(), [(h, 0.73)], Measurement.trivial(2))
    ref = psi.copy()
    apply_evolution(ref, h, 0.73)
    np.testing.assert_allclose(limit.mat, ref.to_density().mat, atol=1e-12)


def trace_distance(a, b):
    w = np.linalg.eigvalsh(a - b)
    return float(np.sum(np.abs(w)) / 2.0)


def test_block_converges_to_limit_at_rate_one_over_n():
    rng = np.random.default_rng(3)
    h, f, psi = _random_setup(rng, 3)
    m = Measurement.two_outcome(f)
    h = DenseHermitian(h.mat / np.linalg.norm(h.mat, 2))
    limit = zeno_limit_propagator(psi.copy(), [(h, 0.9)], m)
    errs = []
    for count in (16, 32, 64, 128):
        rho = zeno_block(psi.copy(), [(h, 0.9)], m, count)
        errs.append(trace_distance(rho.mat, limit.mat))
    for a, b in zip(errs, errs[1:]):
        assert 1.5 <= a / b <= 2.5


# ---------------------------------------------------------------------------
# Schedule objects
# ---------------------------------------------------------------------------


def test_zeno_schedule_counts():
    sched = ZenoSchedule.from_eta(0.1)
    assert sched.mixer_counts(TransverseField(2), [1.0, 0.5]) == [10, 3]
    manual = ZenoSchedule.manual([0, 2])
    assert manual.mixer_counts(TransverseField(2), [1.0, 0.5]) == [0, 2]
    with pytest.raises(ValueError):
        manual.mixer_counts(TransverseField(2), [1.0, 0.5, 0.2])
    cor3 = ZenoSchedule(rule="cor3", delta=0.19)
    assert cor3.mixer_counts(TransverseField(3), [np.pi / 2]) == [93]
    # unsupported mixers fall back to the generic single-block rule
    fallback = cor3.mixer_counts(Diagonal([0.0, 2.0]), [1.0])
    assert fallback == [schedule_theorem1(1.0, 0.0, 2.0, 0.19)]
    with pytest.raises(ValueError):
        ZenoSchedule(rule="cor3", delta=0.3)
    with pytest.raises(ValueError):
        ZenoSchedule(rule="nope")


def test_zeno_schedule_parse():
    cases = [
        ("eta=0.5", None, ZenoSchedule.from_eta(0.5)),
        ("manual=1,0,2", None, ZenoSchedule.manual([1, 0, 2])),
        ("cor3", 0.1, ZenoSchedule(rule="cor3", delta=0.1)),
        ("theorem1", 0.05, ZenoSchedule(rule="theorem1", delta=0.05)),
        ("eta=0.25", 0.1, ZenoSchedule.from_eta(0.25)),  # delta unused
    ]
    for text, delta, expected in cases:
        sched = ZenoSchedule.parse(text, delta)
        assert sched == expected
        assert ZenoSchedule.parse(sched.describe().split("(")[0], delta) == sched
    # manual counts are checked against the layer count when they are used
    with pytest.raises(ValueError):
        ZenoSchedule.parse("manual=1").mixer_counts(TransverseField(2), [0.1, 0.2, 0.3])


@pytest.mark.parametrize(
    "text, delta",
    [("eta=abc", None), ("eta=-1", None), ("manual=1,x", None), ("cor1", None),
     ("cor3", 0.3), ("bogus", 0.1), ("theorem1=0.1", 0.1)],
)
def test_zeno_schedule_parse_rejects(text, delta):
    with pytest.raises(ValueError):
        ZenoSchedule.parse(text, delta)
