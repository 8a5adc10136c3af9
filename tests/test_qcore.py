"""State and evolution primitives: closed forms against dense oracles."""

import tracemalloc
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from zenopt import qcore
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
    as_density,
    expectation,
    is_hermitian,
    is_unitary,
    max_qubits,
)
from zenopt.zeno import apply_measurement, zeno_block


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


def test_no_copy_constructors_take_real_input_and_share_complex_input():
    # copy=False copies only when the input is not complex128 already.
    psi = StateVector(np.array([1.0, 0.0]), copy=False)
    rho = DensityMatrix(np.eye(2) / 2.0, copy=False)
    assert psi.amps.dtype == rho.mat.dtype == np.complex128
    np.testing.assert_array_equal(rho.mat, np.eye(2) / 2.0)
    amps, mat = np.array([0.0, 1.0], dtype=np.complex128), np.eye(2, dtype=np.complex128) / 2.0
    assert np.shares_memory(StateVector(amps, copy=False).amps, amps)
    assert np.shares_memory(DensityMatrix(mat, copy=False).mat, mat)
    assert not np.shares_memory(StateVector(amps).amps, amps)


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


def test_uniform_state_is_fresh_each_call():
    first = StateVector.uniform(3)
    apply_evolution(first, Diagonal(np.arange(8.0)), 0.4)
    np.testing.assert_allclose(StateVector.uniform(3).amps, np.full(8, 1 / np.sqrt(8)), rtol=0, atol=1e-16)


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
    # Any finite real is taken as its float; one beyond float range is refused.
    ref = apply_evolution(StateVector.basis(2, 0), TransverseField(2), 1 / 3)
    np.testing.assert_array_equal(apply_evolution(psi, TransverseField(2), Fraction(1, 3)).amps, ref.amps)
    for bad in (10**400, Fraction(10**400, 3), "0.1", 1j):
        with pytest.raises(ValueError):
            apply_evolution(psi, TransverseField(2), bad)
    with pytest.raises(ValueError):
        DenseHermitian(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_involution_propagator_matches_closed_form():
    # An involution takes the eigendecomposition like any dense generator;
    # its propagator is cos(a)*I - i*sin(a)*H.
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    gen = DenseHermitian(np.kron(x, x))
    angle = 0.91
    expected = np.cos(angle) * np.eye(4) - 1j * np.sin(angle) * np.kron(x, x)
    np.testing.assert_allclose(gen.propagator(angle), expected, atol=1e-14)


def _memo_matrix(involution):
    if involution:
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        return np.kron(x, x)
    return _random_hermitian(2, np.random.default_rng(11))


@pytest.mark.parametrize("involution", [True, False], ids=["involution", "eigh"])
def test_dense_propagator_memo(involution):
    # An involution and a general Hermitian matrix share one memo: the same
    # read-only array per angle, equal to a fresh generator's.
    mat = _memo_matrix(involution)
    assert np.allclose(mat @ mat, np.eye(len(mat))) is involution
    gen = DenseHermitian(mat)
    first = gen.propagator(0.37)
    assert not first.flags.writeable
    assert gen.propagator(0.37) is first
    with pytest.raises(ValueError):
        first[0, 0] = 0.0
    second = gen.propagator(-1.2)
    assert second is not first and not second.flags.writeable
    np.testing.assert_array_equal(second, DenseHermitian(mat).propagator(-1.2))
    np.testing.assert_array_equal(gen.propagator(0.37), DenseHermitian(mat).propagator(0.37))


def test_transverse_field_blocks_are_real_rotations():
    # n = 7 splits into a 4-qubit and a 3-qubit group. Each block is the real
    # rotation Q^(x)k = D exp(-i a X)^(x)k D^H, D = diag(1, -i)^(x)k.
    blocks = TransverseField(7).propagator(0.37)
    assert [b.shape for b in blocks] == [(16, 16), (8, 8)]
    c, s = np.cos(0.37), np.sin(0.37)
    for block, k in zip(blocks, (4, 3)):
        np.testing.assert_allclose(block, reduce(np.kron, [np.array([[c, s], [-s, c]])] * k),
                                   rtol=0, atol=1e-15)


ZENO_MEMO_GENERATORS = {
    "involution": lambda: DenseHermitian(_memo_matrix(True)),
    "eigh": lambda: DenseHermitian(_memo_matrix(False)),
    "x": lambda: TransverseField(2),
}


@pytest.mark.parametrize("kind", list(ZENO_MEMO_GENERATORS))
def test_zeno_block_independent_of_earlier_angles(kind):
    make = ZENO_MEMO_GENERATORS[kind]
    m = Measurement.two_outcome(Projector(2, [0, 3]))
    start = StateVector.basis(2, 0)
    fresh = zeno_block(start.copy(), [(make(), 0.9)], m, 7)
    used = make()
    for angle in (0.2, 0.9 / 7 + 1e-3, -0.5):
        apply_evolution(StateVector.basis(2, 0), used, angle)
        apply_evolution(StateVector.basis(2, 0).to_density(), used, angle)
    again = zeno_block(start.copy(), [(used, 0.9)], m, 7)
    np.testing.assert_array_equal(again.mat, fresh.mat)


# ---------------------------------------------------------------------------
# Differential test: every generator kind against scipy expm conjugation
# ---------------------------------------------------------------------------

GENERATOR_KINDS = ("diag", "x", "cg", "dense", "imag")


def _random_generator(kind, n, rng):
    if kind == "diag":
        return Diagonal(rng.standard_normal(1 << n))
    if kind == "x":
        return TransverseField(n)
    if kind == "cg":
        return RankOneUniform(n)
    if kind == "imag":  # i A, A real antisymmetric: a real propagator, acting on K
        a = rng.standard_normal((1 << n, 1 << n))
        h = 1j * (a - a.T)
    else:
        h = _random_hermitian(n, rng)
    return DenseHermitian(h / np.linalg.norm(h, 2))


def _parts(prop):
    # A propagator is an array, a tuple of blocks (x mixer) or a scalar (cg).
    return prop if isinstance(prop, tuple) else (prop,)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_propagator_memo(kind):
    # n = 7 gives the x mixer two distinct blocks (4 and 3 qubits).
    def make():
        return _random_generator(kind, 7, np.random.default_rng(11))

    gen = make()
    first = gen.propagator(0.37)
    assert gen.propagator(0.37) is first
    second = gen.propagator(-1.2)
    assert second is not first
    for part in _parts(first) + _parts(second):
        if isinstance(part, np.ndarray):
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part.flat[0] = 0.0
    for angle in (-1.2, 0.37):
        used, fresh = _parts(gen.propagator(angle)), _parts(make().propagator(angle))
        assert len(used) == len(fresh)
        for a, b in zip(used, fresh):
            np.testing.assert_array_equal(a, b)


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


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("mixed", [False, True])
def test_transverse_field_multi_group_matches_reference(n, mixed):
    # Up to six qubits the x mixer is one real Kronecker block between two
    # phase passes; above six it takes several blocks, and n = 7 and 9 split
    # unevenly.
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
    # The kernel on several columns (post > 1) or rows (pre > 1) at once. It
    # acts in the frame psi~ = D psi, D = diag(1, -i)^(x)n, as D u D^H.
    d = reduce(np.kron, [np.array([1.0, -1j])] * n)
    u = d[:, None] * u * d.conj()
    cols = rng.standard_normal((1 << n, 3)) + 1j * rng.standard_normal((1 << n, 3))
    prop = gen.propagator(angle)
    np.testing.assert_allclose(gen._evolve(cols.copy(), prop, 1, 3), u @ cols, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gen._evolve(cols.T.copy(), prop, 3, 1), cols.T @ u.T, rtol=0, atol=1e-12)


def test_transverse_field_density_step_holds_one_extra_matrix():
    # From the second qubit group on, each product, on the rows and then on
    # the columns, is written into the buffer the product before last has
    # finished with, so a two-group density-matrix step allocates one extra
    # matrix, not three. n = 7 splits into groups of 4 and 3 qubits.
    for n in (7, 8):
        gen = TransverseField(n)
        state = _random_state(n, True, np.random.default_rng(n))
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
    return out


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


def _is_real_form(rho, framed=None):
    """A dense density matrix stored as K = Re rho + Im rho, in the basis
    ``framed`` names (None: either)."""
    return (rho._S is None and framed in (None, rho._framed)
            and rho._arr.dtype == np.float64 and rho._arr.shape == (rho.dim,) * 2)


def _check_drift_control_on_the_real_form(monkeypatch, kinds, framed):
    # 120 measured sub-steps: the drift pass after the 100th measurement acts
    # on the real form K, where it only renormalizes the trace (symmetrizing
    # K would erase Im rho).
    real, note = [], DensityMatrix.note_superop
    monkeypatch.setattr(DensityMatrix, "note_superop",
                        lambda rho: (real.append(_is_real_form(rho, framed)), note(rho)))
    out = _check_zeno_block(7, True, 12, kinds, 120)
    assert len(real) == 120 and all(real)
    mat = out.mat
    assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12
    assert abs(np.trace(mat) - 1.0) <= 1e-12


def test_drift_control_runs_in_the_frame(monkeypatch):
    _check_drift_control_on_the_real_form(monkeypatch, ["diag", "x"], True)


def test_drift_control_runs_on_the_real_form_of_the_computational_basis(monkeypatch):
    # A purely imaginary dense generator keeps K outside the frame.
    _check_drift_control_on_the_real_form(monkeypatch, ["diag", "imag"], False)


def test_dense_generator_is_real_exactly_when_purely_imaginary():
    x, y = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, -1j], [1j, 0.0]])
    assert DenseHermitian(y).real and DenseHermitian(np.kron(y, x)).real
    assert not DenseHermitian(np.kron(y, y)).real and not DenseHermitian(x).real
    a = np.random.default_rng(3).standard_normal((8, 8))
    assert not DenseHermitian(1j * (a - a.T) + 1e-300 * np.eye(8)).real  # exact, no tolerance
    gen = DenseHermitian(1j * (a - a.T))
    v = gen.propagator(0.6)
    assert v.dtype == np.float64 and v.flags.c_contiguous
    np.testing.assert_allclose(v, expm(-0.6j * gen.materialize()), rtol=0, atol=1e-13)
    np.testing.assert_allclose(v @ v.T, np.eye(8), rtol=0, atol=1e-13)


def test_generator_from_eigenpairs_in_any_order():
    # Eigenpairs known in closed form come unsorted: span() is the min and
    # max, and the generator is the one eigh builds from the matrix, which
    # it never forms for evolution.
    rng = np.random.default_rng(4)
    mat = _random_hermitian(3, rng)
    w, v = np.linalg.eigh(mat)
    order = [3, 0, 7, 5, 1, 6, 2, 4]
    gen = DenseHermitian.from_eigh(w[order], v[:, order], real=False)
    assert gen.n == 3 and gen.mat is None and not gen.real
    assert gen.span() == (float(w[0]), float(w[-1]))
    ref = DenseHermitian(mat)
    np.testing.assert_allclose(gen.propagator(0.4), ref.propagator(0.4), rtol=0, atol=1e-13)
    np.testing.assert_allclose(gen.materialize(), ref.materialize(), rtol=0, atol=1e-13)


def test_real_form_moves_between_bases():
    # A promoted pure state densifies straight to K for an imaginary dense
    # step; K in the computational basis meets the x mixer (decode, then
    # encode in the frame), K in the frame meets an imaginary dense step
    # (decode, then encode outside it), and a rank-one step decodes K to the
    # complex form.
    n = 4
    rng = np.random.default_rng(8)
    state = random_state(n, rng).to_density()
    assert _rank(state) == 1
    rho = _dense(state.copy())
    imag = _random_generator("imag", n, rng)
    for g, framed in ((imag, False), (TransverseField(n), True), (imag, False), (RankOneUniform(n), None)):
        apply_evolution(state, g, 0.45)
        rho = _conjugate(rho, g, 0.45)
        assert _is_real_form(state, framed) is (framed is not None)
        np.testing.assert_allclose(state.copy().mat, rho, rtol=0, atol=1e-12)
    assert state._arr.dtype == np.complex128 and not state._framed


def test_copy_keeps_the_real_form():
    n = 5
    rng = np.random.default_rng(21)
    state = _random_state(n, True, rng)
    x, diag = TransverseField(n), Diagonal(rng.standard_normal(1 << n))
    rho = _conjugate(state.mat, x, 0.4)
    apply_evolution(state, x, 0.4)
    twin = state.copy()
    assert _is_real_form(state, True) and _is_real_form(twin, True)
    assert not np.shares_memory(twin._arr, state._arr)
    for g, angle in ((diag, 0.7), (x, -0.3), (diag, 1.1)):
        apply_evolution(state, g, angle)
        apply_evolution(twin, g, angle)
        rho = _conjugate(rho, g, angle)
    assert _is_real_form(twin, True)
    np.testing.assert_array_equal(twin._arr, state._arr)
    np.testing.assert_allclose(twin.mat, rho, rtol=0, atol=1e-12)
    twin._arr[0, 1] += 1.0  # the copy does not alias the original
    np.testing.assert_allclose(state.mat, rho, rtol=0, atol=1e-12)


def test_assigned_real_matrix_is_not_read_as_the_real_form():
    rho = DensityMatrix(np.eye(2) / 2.0)
    rho.mat = np.full((2, 2), 0.5)  # |+><+|, real, outside the frame
    gen = Diagonal(np.array([0.0, 1.0]))
    apply_evolution(rho, gen, 0.9)
    np.testing.assert_allclose(rho.mat, _conjugate(np.full((2, 2), 0.5), gen, 0.9), rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [1, int(np.log2(qcore._TILE)), int(np.log2(qcore._TILE)) + 1])
def test_diagonal_step_on_the_real_form_matches_phase_conjugation(n):
    # Less than one tile, exactly one tile, and 2 x 2 tiles, where each pair
    # (K_ij, K_ji) off the diagonal tiles lies in two different tiles.
    rng = np.random.default_rng(n)
    a = rng.standard_normal((1 << n, 1 << n)) + 1j * rng.standard_normal((1 << n, 1 << n))
    rho = a @ a.conj().T
    gen = Diagonal(rng.standard_normal(1 << n))
    e = gen.propagator(0.83)
    k = gen._evolve_density(rho.real + rho.imag, e)
    want = e[:, None] * rho * e.conj()
    np.testing.assert_allclose(k, want.real + want.imag, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Frame leaks: public amplitudes and matrices never show the x-mixer frame
# ---------------------------------------------------------------------------

FRAME_STEPS = GENERATOR_KINDS + (
    "measure", "copy", "to_density", "probabilities", "expectation", "read", "min_eigenvalue", "validate",
)


@settings(max_examples=40, deadline=None)
@given(
    st.fixed_dictionaries({
        "n": st.integers(min_value=1, max_value=8),
        "mixed": st.booleans(),
        "seed": st.integers(min_value=0, max_value=2**32 - 1),
    }),
    st.lists(st.sampled_from(FRAME_STEPS), min_size=1, max_size=12),
)
def test_frame_never_leaks(case, steps):
    n = case["n"]
    rng = np.random.default_rng(case["seed"])
    gens = {kind: _random_generator(kind, n, rng) for kind in GENERATOR_KINDS}
    m = Measurement.two_outcome(Projector(n, np.flatnonzero(rng.random(1 << n) < 0.5)))
    projectors = [p.matrix() for p in m.projectors]
    state = _random_state(n, case["mixed"], rng)
    psi = None if case["mixed"] else state.amps.copy()
    rho = _dense(state)
    for step in steps:
        if step in gens:
            angle = float(rng.uniform(-3.0, 3.0))
            u = expm(-1j * angle * gens[step].materialize())
            state = apply_evolution(state, gens[step], angle)
            rho = u @ rho @ u.conj().T
            psi = None if psi is None else u @ psi
        elif step == "measure":
            state = apply_measurement(state, m)
            rho = sum(p @ rho @ p for p in projectors)
            psi = None
        elif step == "copy":
            state = state.copy()
        elif step == "to_density":
            state, psi = as_density(state), None
        elif step == "probabilities":
            np.testing.assert_allclose(state.probabilities(), np.diag(rho).real, rtol=0, atol=1e-12)
        elif step == "read":  # on the state itself, which leaves the frame
            public = state.amps if psi is not None else state.mat
            np.testing.assert_allclose(public, rho if psi is None else psi, rtol=0, atol=1e-12)
        elif step == "min_eigenvalue":
            state, psi = as_density(state), None
            assert abs(state.min_eigenvalue() - np.linalg.eigvalsh(rho)[0]) < 1e-12
        elif step == "validate":
            state, psi = as_density(state), None
            state.validate(1e-12)
        else:
            obs = gens[GENERATOR_KINDS[rng.integers(len(GENERATOR_KINDS))]]
            assert abs(expectation(state, obs) - np.trace(obs.materialize() @ rho).real) < 1e-12
        # A copy keeps the frame, so reading it leaves the state's own alone.
        public = state.copy().amps if psi is not None else _dense(state.copy())
        np.testing.assert_allclose(public, rho if psi is None else psi, rtol=0, atol=1e-12)
    np.testing.assert_allclose(_dense(state), rho, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Factored density matrices: rho = L S L^H through diagonal, rank-one and
# measurement steps, densified by every other use
# ---------------------------------------------------------------------------

# Diagonal, rank-one and measurement steps are listed twice so that long
# factored stretches are common; "x", "dense" and a non-diagonal expectation
# leave the factored form.
FACTORED_STEPS = GENERATOR_KINDS + (
    "diag", "cg", "measure2", "measure3", "trivial", "measure2", "measure3",
    "copy", "probabilities", "expectation",
)


def _measurements(n, rng):
    # Independent partitions, so that neither of two consecutive measurements
    # refines the other.
    labels = rng.integers(0, 3, 1 << n)
    return {
        "measure2": Measurement.two_outcome(Projector(n, np.flatnonzero(rng.random(1 << n) < 0.5))),
        "measure3": Measurement([Projector(n, np.flatnonzero(labels == j)) for j in range(3)]),
        "trivial": Measurement.trivial(n),
    }


def _rank(state):
    """Columns of a factored density matrix; None in any other form."""
    return state._S.shape[0] if isinstance(state, DensityMatrix) and state._S is not None else None


@settings(max_examples=80, deadline=None)
@given(
    st.fixed_dictionaries({
        "n": st.integers(min_value=1, max_value=6),
        "mixed": st.booleans(),
        "seed": st.integers(min_value=0, max_value=2**32 - 1),
    }),
    st.lists(st.sampled_from(FACTORED_STEPS), min_size=1, max_size=15),
)
def test_factored_density_matches_expm(case, steps):
    n = case["n"]
    rng = np.random.default_rng(case["seed"])
    gens = {kind: _random_generator(kind, n, rng) for kind in GENERATOR_KINDS}
    measurements = _measurements(n, rng)
    state = _random_state(n, case["mixed"], rng)
    rho = _dense(state)
    for step in steps:
        if step in gens:
            angle = float(rng.uniform(-3.0, 3.0))
            state = apply_evolution(state, gens[step], angle)
            rho = _conjugate(rho, gens[step], angle)
        elif step in measurements:
            state = apply_measurement(state, measurements[step])
            rho = sum(p.matrix() @ rho @ p.matrix() for p in measurements[step].projectors)
        elif step == "copy":
            state = state.copy()
        elif step == "probabilities":
            np.testing.assert_allclose(state.probabilities(), np.diag(rho).real, rtol=0, atol=1e-12)
        else:
            kind = GENERATOR_KINDS[rng.integers(len(GENERATOR_KINDS))]
            want = np.trace(gens[kind].materialize() @ rho).real
            assert abs(expectation(state, gens[kind]) - want) < 1e-12
        if _rank(state) is not None:
            assert state._arr.shape == (state.dim, _rank(state)) and _rank(state) < state.dim
        np.testing.assert_allclose(_dense(state.copy()), rho, rtol=0, atol=1e-12)
    assert abs(as_density(state.copy()).trace() - 1.0) < 1e-12
    np.testing.assert_allclose(_dense(state), rho, rtol=0, atol=1e-12)


def test_factored_form_densifies_at_full_rank():
    # One qubit: |psi><psi| is rank 1 of 2, so the rank-one step densifies.
    psi = random_state(1, np.random.default_rng(3))
    rho = psi.to_density()
    assert _rank(rho) == 1
    expected = _conjugate(_dense(psi), RankOneUniform(1), 0.7)
    apply_evolution(rho, RankOneUniform(1), 0.7)
    assert _rank(rho) is None
    np.testing.assert_allclose(rho.mat, expected, rtol=0, atol=1e-12)


def test_promotion_is_a_rank_one_factor():
    psi = random_state(5, np.random.default_rng(4))
    rho = psi.to_density()
    assert _rank(rho) == 1 and rho._arr.shape == (32, 1)
    rho._arr[0, 0] = 0.0  # the factor does not alias the amplitudes
    assert psi.amps[0] != 0.0
    for read in (DensityMatrix.min_eigenvalue, DensityMatrix.validate, lambda r: r.mat):
        other = psi.to_density()
        read(other)
        assert _rank(other) is None
    # A column inside one block is not split: its other pieces are empty. The
    # split waits for the next rank-one step, which appends u to L.
    m = Measurement.two_outcome(Projector(5, range(0, 32, 3)))
    inside = np.zeros(32, dtype=np.complex128)
    inside[::3] = 1.0 / np.sqrt(11)
    rho = apply_measurement(StateVector(inside), m)
    apply_evolution(rho, RankOneUniform(5), 0.4)
    assert _rank(rho) == 2
    expected = _conjugate(np.outer(inside, inside), RankOneUniform(5), 0.4)
    np.testing.assert_allclose(rho.mat, expected, rtol=0, atol=1e-15)
    # The trivial measurement's empty projector adds no piece either.
    rho = psi.to_density()
    apply_evolution(rho, RankOneUniform(5), 0.3)
    apply_measurement(rho, Measurement.trivial(5))
    apply_evolution(rho, RankOneUniform(5), 0.2)
    assert _rank(rho) == 2
