"""Projectors, measurements, projected Hamiltonians, spectral spans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenopt.operators import (
    Measurement,
    Projector,
    bit_matrix,
    complement,
    zeno_hamiltonian,
)
from zenopt.problems import LinearConstraint, Sense
from zenopt.qcore import DenseHermitian, Diagonal, RankOneUniform, TransverseField


def satisfying_projector(c: LinearConstraint) -> Projector:
    n = len(c.coeffs)
    return Projector(n, np.flatnonzero(c.satisfied(bit_matrix(n))))


def test_hardware_equality_predicate():
    # 2x1 - x2 - x3 = 0 on four variables: (x1,x2,x3) in {(0,0,0),(1,1,1)},
    # x4 free -> indices {0, 7, 8, 15} (enumerated by hand over 16 strings)
    p = satisfying_projector(LinearConstraint((2, -1, -1, 0), Sense.EQ, 0))
    assert list(p.indices) == [0, 7, 8, 15]


def test_hamming_weight_budget_predicate():
    # sum x <= 2 on four variables: C(4,0)+C(4,1)+C(4,2) = 11 states
    p = satisfying_projector(LinearConstraint((1, 1, 1, 1), Sense.LEQ, 2))
    assert p.rank == 11
    brute = [x for x in range(16) if bin(x).count("1") <= 2]
    assert list(p.indices) == brute


def test_always_true_predicate_is_identity():
    p = satisfying_projector(LinearConstraint((1, 1), Sense.LEQ, 2))
    assert list(p.indices) == [0, 1, 2, 3]
    np.testing.assert_array_equal(p.matrix(), np.eye(4))


def test_projector_matrix_is_projection():
    p = Projector(3, [1, 4, 6])
    mat = p.matrix()
    np.testing.assert_allclose(mat @ mat, mat, atol=1e-15)
    np.testing.assert_allclose(mat, mat.conj().T, atol=1e-15)


def test_complement():
    full = Projector(2, [0, 1, 2, 3])
    assert complement(full).rank == 0
    eq = satisfying_projector(LinearConstraint((2, -1, -1, 0), Sense.EQ, 0))
    assert complement(eq).rank == 12
    assert complement(complement(eq)) == eq


def test_empty_projector_is_a_value():
    p = Projector(2, [])
    assert p.is_empty()
    assert complement(p).is_full()


def test_measurement_validation():
    with pytest.raises(ValueError):
        Measurement([Projector(2, [0, 1]), Projector(2, [1, 2, 3])])  # overlap
    with pytest.raises(ValueError):
        Measurement([Projector(2, [0]), Projector(2, [1])])  # not complete
    m = Measurement.two_outcome(Projector(2, [1, 2]))
    assert [p.rank for p in m.projectors] == [2, 2]
    t = Measurement.trivial(2)
    assert t.projectors[0].is_full() and t.projectors[1].is_empty()


def test_zeno_hamiltonian_suppressed_mixer_is_zero():
    # F = {01, 10}: the transverse field connects F states only through G,
    # so the projected mixer vanishes identically
    m = Measurement.two_outcome(Projector(2, [1, 2]))
    hz = zeno_hamiltonian(TransverseField(2), m)
    np.testing.assert_array_equal(hz.mat, np.zeros((4, 4)))


def test_zeno_hamiltonian_rank_one_block():
    m = Measurement.two_outcome(Projector(2, [1, 2]))
    hz = zeno_hamiltonian(RankOneUniform(2), m)
    block = hz.mat[np.ix_([1, 2], [1, 2])]
    np.testing.assert_allclose(block, np.full((2, 2), 0.25), atol=1e-15)


def test_zeno_hamiltonian_trivial_measurement():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = (a + a.conj().T) / 2.0
    hz = zeno_hamiltonian(DenseHermitian(h), Measurement.trivial(3))
    np.testing.assert_allclose(hz.mat, h, atol=1e-14)


def test_zeno_hamiltonian_hermitian_and_commutes_with_projectors():
    rng = np.random.default_rng(9)
    for trial in range(10):
        n = int(rng.integers(1, 4))
        dim = 1 << n
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = DenseHermitian((a + a.conj().T) / 2.0)
        cut = sorted(rng.choice(dim, size=int(rng.integers(1, dim)), replace=False))
        m = Measurement.two_outcome(Projector(n, cut))
        hz = zeno_hamiltonian(h, m).mat
        assert np.max(np.abs(hz - hz.conj().T)) < 1e-12
        for p in m.projectors:
            pm = p.matrix()
            assert np.max(np.abs(hz @ pm - pm @ hz)) < 1e-12


def test_spectral_span_closed_forms():
    assert TransverseField(3).span() == (-3.0, 3.0)
    assert RankOneUniform(5).span() == (0.0, 1.0)
    assert Diagonal([2.0, -1.0, 0.0, 7.0]).span() == (-1.0, 7.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_spectral_span_matches_materialized(n):
    diag = Diagonal(np.random.default_rng(n).standard_normal(1 << n))
    for gen in (TransverseField(n), RankOneUniform(n), diag):
        lo, hi = gen.span()
        dlo, dhi = DenseHermitian(gen.materialize()).span()
        assert abs(lo - dlo) < 1e-10 and abs(hi - dhi) < 1e-10


def test_span_bounded_by_twice_spectral_norm():
    # |xi_max - xi_min| <= 2 ||H||_2, 100 random Hermitian matrices
    rng = np.random.default_rng(31)
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (a + a.conj().T) / 2.0
        w = np.linalg.eigvalsh(h)
        assert w[-1] - w[0] <= 2.0 * np.max(np.abs(w)) + 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=255))
def test_bits_round_trip(x):
    bits = bit_matrix(8)[x]
    assert sum(int(b) << j for j, b in enumerate(bits)) == x


def test_spectral_norm():
    # The cor1 schedule reads ||H|| as the larger end of the span in size.
    assert max(map(abs, TransverseField(4).span())) == 4.0
    assert max(map(abs, Diagonal([-3.0, 2.0]).span())) == 3.0
