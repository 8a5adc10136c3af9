"""Projectors, measurement families, and projected (Zeno) Hamiltonians.

Projectors are stored as sorted sets of computational-basis indices and are
only materialized when an operation truly needs a dense matrix. Applying a
measurement then amounts to zeroing the cross-block entries of a density
matrix, which is O(4^n) instead of a chain of matrix products.

Bit order is little-endian throughout the package: bit ``j`` of an integer
index is variable ``x_{j+1}``. :func:`bit_matrix` spells the convention out
as one table, from which constraints, objectives and oracle readouts are
computed for every basis state at once; the gate-level circuit module
shares it.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .qcore import (
    DenseHermitian,
    Diagonal,
    DimensionMismatchError,
    Generator,
    RankOneUniform,
    TransverseField,
    check_num_qubits,
)


def bit_matrix(n: int) -> np.ndarray:
    """The ``(2^n, n)`` bit table: row ``idx`` holds the little-endian bits of
    basis index ``idx`` (entry ``j`` is x_{j+1}), as floats."""
    idx = np.arange(1 << n)
    return ((idx[:, None] >> np.arange(n)) & 1).astype(np.float64)


class Projector:
    """Orthogonal projector onto a set of computational-basis states."""

    __slots__ = ("n", "indices")

    def __init__(self, n: int, indices):
        self.n = check_num_qubits(n)
        idx = np.unique(np.asarray(list(indices), dtype=np.int64).reshape(-1))
        if idx.size and (idx[0] < 0 or idx[-1] >= (1 << n)):
            raise ValueError("projector index out of range")
        idx.setflags(write=False)
        self.indices = idx

    @property
    def dim(self) -> int:
        return 1 << self.n

    @property
    def rank(self) -> int:
        return int(self.indices.size)

    def is_empty(self) -> bool:
        return self.indices.size == 0

    def is_full(self) -> bool:
        return self.indices.size == self.dim

    def mask(self) -> np.ndarray:
        out = np.zeros(self.dim, dtype=bool)
        out[self.indices] = True
        return out

    def matrix(self) -> np.ndarray:
        mat = np.zeros((self.dim, self.dim), dtype=np.complex128)
        mat[self.indices, self.indices] = 1.0
        return mat

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Projector)
            and self.n == other.n
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.indices.tobytes()))

    def __repr__(self) -> str:
        return f"Projector(n={self.n}, rank={self.rank})"


def complement(p: Projector) -> Projector:
    keep = np.setdiff1d(np.arange(1 << p.n, dtype=np.int64), p.indices, assume_unique=True)
    return Projector(p.n, keep)


class Measurement:
    """A complete family of orthogonal basis-aligned projectors.

    The index sets are pairwise disjoint and cover the whole register, so the
    materialized projectors sum to the identity. At least two projectors are
    required; a trivial measurement is represented as {I, 0}.
    """

    __slots__ = ("n", "projectors", "_labels", "_mask", "_cross")

    def __init__(self, projectors: Sequence[Projector]):
        projectors = tuple(projectors)
        if len(projectors) < 2:
            raise ValueError("a measurement needs at least two projectors (use Measurement.trivial)")
        n = projectors[0].n
        if any(p.n != n for p in projectors):
            raise DimensionMismatchError("measurement projectors live on different registers")
        labels = np.full(1 << n, -1, dtype=np.int64)
        for j, p in enumerate(projectors):
            if np.any(labels[p.indices] != -1):
                raise ValueError("measurement projectors overlap")
            labels[p.indices] = j
        if np.any(labels == -1):
            raise ValueError("measurement projectors do not cover the register")
        self.n = n
        self.projectors = projectors
        labels.setflags(write=False)
        self._labels = labels
        self._mask: np.ndarray | None = None
        self._cross: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return 1 << self.n

    @property
    def labels(self) -> np.ndarray:
        """labels[i] = index of the projector owning basis state i."""
        return self._labels

    def block_mask(self) -> np.ndarray:
        """Boolean matrix, True where row and column share a projector block."""
        if self._mask is None:
            self._mask = self._labels[:, None] == self._labels[None, :]
            self._mask.setflags(write=False)
        return self._mask

    def cross_block_mask(self) -> np.ndarray:
        """Complement of :meth:`block_mask`: the entries a measurement zeroes."""
        if self._cross is None:
            self._cross = ~self.block_mask()
            self._cross.setflags(write=False)
        return self._cross

    @classmethod
    def two_outcome(cls, feasible: Projector) -> "Measurement":
        return cls((feasible, complement(feasible)))

    @classmethod
    def trivial(cls, n: int) -> "Measurement":
        full = Projector(n, np.arange(1 << n))
        return cls((full, Projector(n, [])))

    def __repr__(self) -> str:
        ranks = tuple(p.rank for p in self.projectors)
        return f"Measurement(n={self.n}, ranks={ranks})"


def zeno_hamiltonian(b: Generator, m: Measurement) -> DenseHermitian:
    """Projected generator sum_j P_j B P_j, as a dense Hermitian matrix.

    This is the generator of the infinite-measurement-limit dynamics; it is
    block-diagonal with respect to the measurement's index sets, so it is
    built by masking the cross-block entries of B.
    """
    if b.dim != m.dim:
        raise DimensionMismatchError(f"generator dim {b.dim} != measurement dim {m.dim}")
    mat = b.materialize()
    mat[m.cross_block_mask()] = 0.0
    return DenseHermitian(mat)


def spectral_span(b: Generator) -> tuple[float, float]:
    """(min, max) eigenvalue of a generator.

    Structured generators have known spectra: the n-qubit transverse field
    spans [-n, n] and a rank-one projector has eigenvalues {0, 1}. Dense
    generators fall back to an eigendecomposition.
    """
    if isinstance(b, TransverseField):
        return (-float(b.n), float(b.n))
    if isinstance(b, RankOneUniform):
        return (0.0, 1.0)
    if isinstance(b, Diagonal):
        return (float(b.values.min()), float(b.values.max()))
    if isinstance(b, DenseHermitian):
        w, _ = b.eigensystem()
        return (float(w[0]), float(w[-1]))
    raise TypeError(f"unknown generator type {type(b).__name__}")


def spectral_norm(b: Generator) -> float:
    lo, hi = spectral_span(b)
    return max(abs(lo), abs(hi))
