"""State and evolution primitives: closed forms against dense oracles."""

import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from zenopt.operators import Measurement, Projector
from zenopt.qcore import (
    DenseHermitian,
    DensityMatrix,
    Diagonal,
    DimensionMismatchError,
    RankOneUniform,
    StateVector,
    TransverseField,
    apply_evolution,
    expectation,
    is_hermitian,
    is_unitary,
    max_qubits,
)
from zenopt.zeno import zeno_block


def random_state(n, rng):
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return StateVector(v / np.linalg.norm(v))


def test_matrix_predicates():
    h = np.array([[1.0, 1j], [-1j, 2.0]])
    assert is_hermitian(h)
    assert not is_unitary(h)
    u = expm(-1j * h)
    assert is_unitary(u, 1e-12)
    assert not is_hermitian(u)


def test_state_vector_norm_enforced():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]))
    StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))


def test_density_matrix_invariants_enforced():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    rho = DensityMatrix(np.eye(2) / 2.0)
    rho.validate()


def test_qubit_cap_env_var(monkeypatch):
    monkeypatch.setenv("ZENO_MAX_QUBITS", "3")
    assert max_qubits() == 3
    with pytest.raises(ValueError):
        StateVector.uniform(4)
    # the env var can only lower the cap
    monkeypatch.setenv("ZENO_MAX_QUBITS", "99")
    assert max_qubits() == 14
    # a value that is not an integer, or below one, is refused by name
    for bad in ("abc", "2.5", "0", "-3"):
        monkeypatch.setenv("ZENO_MAX_QUBITS", bad)
        with pytest.raises(ValueError, match="ZENO_MAX_QUBITS"):
            max_qubits()


def test_zero_angle_is_identity():
    rng = np.random.default_rng(0)
    rho = random_state(2, rng).to_density()
    before = rho.mat.copy()
    apply_evolution(rho, TransverseField(2), 0.0)
    np.testing.assert_allclose(rho.mat, before, atol=1e-15)


def test_transverse_field_half_period():
    # exp(-i (pi/2) X)|0> = -i|1>, global-phase equivalent to |1>
    psi = StateVector.basis(1, 0)
    apply_evolution(psi, TransverseField(1), np.pi / 2)
    np.testing.assert_allclose(psi.amps, [0.0, -1j], atol=1e-12)


def test_rank_one_uniform_overlap_closed_form():
    # |<00|out>|^2 = |1 + (e^{-i theta}-1)/4|^2, cross-checked against the
    # dense eigendecomposition of the materialized projector
    theta = 0.813
    psi = StateVector.basis(2, 0)
    apply_evolution(psi, RankOneUniform(2), theta)
    expected = abs(1.0 + (np.exp(-1j * theta) - 1.0) / 4.0) ** 2
    assert abs(abs(psi.amps[0]) ** 2 - expected) < 1e-12

    dense = DenseHermitian(RankOneUniform(2).materialize())
    ref = StateVector.basis(2, 0)
    apply_evolution(ref, dense, theta)
    np.testing.assert_allclose(psi.amps, ref.amps, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["x", "cg", "diag"])
def test_specialized_paths_match_dense_materialization(n, kind):
    rng = np.random.default_rng(17 * n + len(kind))
    if kind == "x":
        gen = TransverseField(n)
    elif kind == "cg":
        gen = RankOneUniform(n)
    else:
        gen = Diagonal(rng.standard_normal(1 << n))
    dense = DenseHermitian(gen.materialize())
    for _ in range(5):
        angle = rng.uniform(-3.0, 3.0)
        psi = random_state(n, rng)
        a, b = psi.copy(), psi.copy()
        apply_evolution(a, gen, angle)
        apply_evolution(b, dense, angle)
        np.testing.assert_allclose(a.amps, b.amps, atol=1e-10)
        # scipy expm as an independent oracle
        c = expm(-1j * angle * gen.materialize()) @ psi.amps
        np.testing.assert_allclose(a.amps, c, atol=1e-10)
        ra, rb = psi.to_density(), psi.to_density()
        apply_evolution(ra, gen, angle)
        apply_evolution(rb, dense, angle)
        np.testing.assert_allclose(ra.mat, rb.mat, atol=1e-10)


def test_evolution_angles_compose():
    rng = np.random.default_rng(5)
    for gen in (TransverseField(3), RankOneUniform(3),
                DenseHermitian(_random_hermitian(3, rng))):
        a, b = 0.37, -1.21
        psi = random_state(3, rng)
        p1 = psi.copy()
        apply_evolution(p1, gen, a)
        apply_evolution(p1, gen, b)
        p2 = psi.copy()
        apply_evolution(p2, gen, a + b)
        np.testing.assert_allclose(p1.amps, p2.amps, atol=1e-10)


def _random_hermitian(n, rng):
    dim = 1 << n
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


def test_density_invariants_survive_long_evolution():
    # 10,000 alternating applications must keep trace/Hermiticity/PSD to 1e-9
    rng = np.random.default_rng(11)
    rho = random_state(2, rng).to_density()
    gens = [TransverseField(2), Diagonal(rng.standard_normal(4)),
            RankOneUniform(2), DenseHermitian(_random_hermitian(2, rng))]
    for i in range(10_000):
        apply_evolution(rho, gens[i % 4], 0.05)
    assert abs(rho.trace() - 1.0) < 1e-9
    assert np.max(np.abs(rho.mat - rho.mat.conj().T)) < 1e-9
    assert rho.min_eigenvalue() > -1e-9


def test_expectation_values():
    assert expectation(StateVector.basis(1, 0), Diagonal([5.0, 7.0])) == 5.0
    rho = DensityMatrix(np.eye(2) / 2.0)
    assert abs(expectation(rho, Diagonal([3.0, 9.0])) - 6.0) < 1e-12
    # |+>^2 is the +1 eigenstate of each X
    plus = StateVector.uniform(2)
    assert abs(expectation(plus, TransverseField(2)) - 2.0) < 1e-12
    assert abs(expectation(plus, RankOneUniform(2)) - 1.0) < 1e-12


def test_expectation_matches_dense_oracle():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    gens = (TransverseField(3), RankOneUniform(3), Diagonal(rng.standard_normal(8)),
            DenseHermitian((a + a.conj().T) / 2.0))
    for gen in gens:
        g = gen.materialize()
        psi = random_state(3, rng)
        assert abs(expectation(psi, gen) - np.vdot(psi.amps, g @ psi.amps).real) < 1e-10
        other = random_state(3, rng)
        rho = DensityMatrix(0.3 * psi.to_density().mat + 0.7 * other.to_density().mat)
        assert abs(expectation(rho, gen) - np.trace(g @ rho.mat).real) < 1e-10


def test_dimension_and_angle_errors():
    psi = StateVector.basis(2, 0)
    with pytest.raises(DimensionMismatchError):
        apply_evolution(psi, TransverseField(3), 0.1)
    with pytest.raises(ValueError):
        apply_evolution(psi, TransverseField(2), float("nan"))
    with pytest.raises(ValueError):
        DenseHermitian(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_involution_uses_closed_form():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    gen = DenseHermitian(np.kron(x, x))
    assert gen.is_involution
    angle = 0.91
    expected = np.cos(angle) * np.eye(4) - 1j * np.sin(angle) * np.kron(x, x)
    np.testing.assert_allclose(gen.propagator(angle), expected, atol=1e-14)


# ---------------------------------------------------------------------------
# Differential test: every generator kind against scipy expm conjugation
# ---------------------------------------------------------------------------

GENERATOR_KINDS = ("diag", "x", "cg", "dense")


def _random_generator(kind, n, rng):
    if kind == "diag":
        return Diagonal(rng.standard_normal(1 << n))
    if kind == "x":
        return TransverseField(n)
    if kind == "cg":
        return RankOneUniform(n)
    h = _random_hermitian(n, rng)
    return DenseHermitian(h / np.linalg.norm(h, 2))


def _random_state(n, mixed, rng):
    if not mixed:
        return random_state(n, rng)
    a = rng.standard_normal((1 << n, 1 << n)) + 1j * rng.standard_normal((1 << n, 1 << n))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def _dense(state):
    return state.to_density().mat if isinstance(state, StateVector) else state.mat.copy()


def _conjugate(rho, gen, angle):
    u = expm(-1j * angle * gen.materialize())
    return u @ rho @ u.conj().T


evolution_cases = st.fixed_dictionaries({
    "n": st.integers(min_value=1, max_value=6),
    "mixed": st.booleans(),
    "seed": st.integers(min_value=0, max_value=2**32 - 1),
})


@settings(max_examples=60, deadline=None)
@given(evolution_cases, st.sampled_from(GENERATOR_KINDS), st.floats(min_value=-3.0, max_value=3.0))
def test_apply_evolution_matches_expm(case, kind, angle):
    rng = np.random.default_rng(case["seed"])
    gen = _random_generator(kind, case["n"], rng)
    state = _random_state(case["n"], case["mixed"], rng)
    expected = _conjugate(_dense(state), gen, angle)
    out = apply_evolution(state, gen, angle)
    assert type(out) is type(state)
    np.testing.assert_allclose(_dense(out), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [7, 8, 9, 10])
@pytest.mark.parametrize("mixed", [False, True])
def test_transverse_field_multi_group_matches_reference(n, mixed):
    # Above six qubits the x mixer is applied as several Kronecker blocks;
    # n = 7 and 9 split unevenly.
    rng = np.random.default_rng(100 + 2 * n + mixed)
    gen = TransverseField(n)
    angle = float(rng.uniform(-3.0, 3.0))
    if n <= 9:
        u = expm(-1j * angle * gen.materialize())
    else:
        rx = np.cos(angle) * np.eye(2) - 1j * np.sin(angle) * np.array([[0.0, 1.0], [1.0, 0.0]])
        u = reduce(np.kron, [rx] * n)
    state = _random_state(n, mixed, rng)
    rho = _dense(state)
    out = apply_evolution(state, gen, angle)
    np.testing.assert_allclose(_dense(out), u @ rho @ u.conj().T, rtol=0, atol=1e-12)


def test_transverse_field_density_step_holds_one_extra_matrix():
    # From the second qubit group on, each product is written into the
    # buffer the group before last has finished with, so a two-group
    # density-matrix step allocates one extra matrix, not three.
    n = 8
    gen = TransverseField(n)
    state = _random_state(n, True, np.random.default_rng(8))
    fortran = DensityMatrix(np.asfortranarray(state.mat), copy=False, validate=False)
    tracemalloc.start()
    try:
        apply_evolution(state, gen, 0.37)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * state.mat.nbytes
    # An input whose layout cannot take a product in place evolves the same.
    np.testing.assert_allclose(apply_evolution(fortran, gen, 0.37).mat, state.mat, rtol=0, atol=1e-15)


def _check_zeno_block(n, mixed, seed, kinds, n_measurements):
    rng = np.random.default_rng(seed)
    gens = [(_random_generator(k, n, rng), float(rng.uniform(-3.0, 3.0))) for k in kinds]
    inside = rng.random(1 << n) < 0.5
    feasible = Projector(n, np.flatnonzero(inside))
    m = Measurement.two_outcome(feasible)
    state = _random_state(n, mixed, rng)

    steps = max(1, n_measurements)
    us = [expm(-1j * angle / steps * g.materialize()) for g, angle in gens]
    projectors = [p.matrix() for p in m.projectors]
    rho = _dense(state)
    for _ in range(steps):
        for u in us:
            rho = u @ rho @ u.conj().T
        if n_measurements:
            rho = sum(p @ rho @ p for p in projectors)

    out = zeno_block(state, gens, m, n_measurements)
    np.testing.assert_allclose(_dense(out), rho, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    evolution_cases,
    st.lists(st.sampled_from(GENERATOR_KINDS), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=4),
)
def test_zeno_block_matches_expm_and_projector_loop(case, kinds, n_measurements):
    _check_zeno_block(case["n"], case["mixed"], case["seed"], kinds, n_measurements)


def test_zeno_block_multi_group_x_mixer():
    _check_zeno_block(7, True, 7, ["diag", "x"], 3)
