"""Exact complex linear algebra and state evolution for small qubit registers.

Everything here is exact double-precision numpy. States live on ``n`` qubits
with little-endian bit order: bit ``j`` of a computational-basis index is
variable ``x_{j+1}``. Pure states are kept as :class:`StateVector` for speed
and are promoted to a :class:`DensityMatrix` only when a measurement
super-operator first touches them (see :mod:`zenopt.zeno`).

A density matrix has three storage forms. The promotion builds the factored
form rho = L S L^H (a d x r factor L, an r x r Hermitian S, r < d) in O(d).
Diagonal steps scale the rows of L, a rank-one uniform step appends the
uniform vector u to L once and then only updates S, and a measurement zeroes
the cross-block entries of S once the columns of L are split into block
pieces (which the next rank-one step does), so a measured complete-graph
QAOA costs O(d r) per layer and O(r^3) per sub-step. Everything else (any
other generator, a read of ``mat``, the eigenvalue check, a rank that would
reach d) leaves it through the one exit ``DensityMatrix._densify`` for a
dense d x d form: a complex matrix, or the real matrix K = Re rho + Im rho,
which fixes the Hermitian rho (Re rho = (K + K^T)/2, Im rho = (K - K^T)/2)
at 8 B per entry, half the complex form's 16 B. A dense matrix is stored
as K, in whichever basis the state is stored in, whenever the step acting
on it has a real propagator there (a real orthogonal V acts on K exactly as
K -> V K V^T), and as the complex matrix when a step needs that form.

Each generator kind is one class that holds its facts: its spectral span
``span()``, the frame ``frame`` its kernels act in, whether its density
step acts on K (``real``), a propagator exp(-i*a*G) in a compact form, of
which :meth:`Generator.propagator` keeps the last angle's, one evolution
kernel, which applies it along one axis of a state array, and a density
step for each dense form it meets, by default the kernel along the rows and
then the columns with the conjugate propagator; :func:`apply_evolution`
alone tells pure from mixed. No structured generator is materialized for
evolution: a diagonal acts by phases on either dense form, the rank-one
projector by a sum on the complex one, and the transverse field by real
Kronecker blocks on K, in the frame psi~ = D psi (rho~ = D rho D^H),
D = diag(1, -i)^(x)n, that it moves a state into. A dense generator is
exponentiated through its eigenpairs, reusable across angles: ``eigh`` of a
given matrix, or a closed form (a folded layer of the layered circuit), which
forms no matrix. A purely imaginary one (a folded layer, a Pauli string with
an odd number of Y factors) has a real propagator, so it acts on K in the
computational basis. Diagonals, measurements, drift control and
probabilities commute with D, hold on either dense form and use the stored
array as is. Moving between bases, a step that needs the complex form, and
reading ``StateVector.amps`` or ``DensityMatrix.mat`` decode first. Only
:func:`expectation` of a non-diagonal observable, which no evolution loop
needs, materializes the generator.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import sys

import numpy as np

#: Hard cap on register size. Density matrices above this exceed desk-scale
#: memory (a 14-qubit density matrix is already 4 GiB).
HARD_MAX_QUBITS = 14

_NORM_TOL = 1e-9
_HERM_TOL = 1e-9
#: Number of super-operator applications between drift-control passes
#: (re-symmetrize and renormalize the density matrix).
_RESYM_INTERVAL = 100
#: Largest qubit group whose transverse-field propagator is built as one
#: dense block (a 64 x 64 matrix).
_BLOCK_QUBITS = 6
#: Side of the square tiles a diagonal step on the real form K works in.
_TILE = 128


class DimensionMismatchError(ValueError):
    """Operands act on registers of different sizes."""


def max_qubits() -> int:
    """Current register-size cap.

    ``ZENO_MAX_QUBITS`` can lower (never raise) the built-in cap, which is
    handy for keeping CI memory bounded.
    """
    env = os.environ.get("ZENO_MAX_QUBITS")
    if env is None:
        return HARD_MAX_QUBITS
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"ZENO_MAX_QUBITS must be a positive integer, got {env!r}")
    return min(HARD_MAX_QUBITS, cap)


def check_num_qubits(n: int) -> int:
    if n < 1:
        raise ValueError(f"register needs at least one qubit, got {n}")
    cap = max_qubits()
    if n > cap:
        raise ValueError(f"register size {n} exceeds the cap of {cap} qubits")
    return int(n)


def num_qubits_for_dim(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def is_hermitian(mat: np.ndarray, tol: float = 1e-9) -> bool:
    mat = np.asarray(mat)
    return mat.ndim == 2 and mat.shape[0] == mat.shape[1] and np.max(np.abs(mat - mat.conj().T)) <= tol


def is_unitary(mat: np.ndarray, tol: float = 1e-9) -> bool:
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return False
    eye = np.eye(mat.shape[0])
    return np.max(np.abs(mat.conj().T @ mat - eye)) <= tol


@functools.cache
def _frame_phases(n: int) -> np.ndarray:
    """The diagonal of D = diag(1, -i)^(x)n: (-i)^|x|, read-only."""
    weight = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).sum(1)
    d = np.array([1, -1j, -1, 1j])[weight & 3]
    d.setflags(write=False)
    return d


def _encode(rho: np.ndarray, d: np.ndarray | None = None) -> np.ndarray:
    """K = Re rho + Im rho of a complex ``rho``; given the diagonal ``d`` of
    D, of rho~ = D rho D^H instead (computed in ``rho``, which is left
    overwritten)."""
    if d is not None:
        rho *= d[:, None]
        rho *= d.conj()
    return np.add(rho.real, rho.imag, order="C")


def _decode(k: np.ndarray, d: np.ndarray | None = None) -> np.ndarray:
    """The rho = (K + K^T)/2 + i (K - K^T)/2 that ``k`` encodes, as a new
    complex array; given the diagonal ``d`` of D, D^H rho D instead."""
    rho = np.empty(k.shape, dtype=np.complex128)
    np.add(k, k.T, out=rho.real)
    np.subtract(k, k.T, out=rho.imag)
    if d is None:
        rho *= 0.5
    else:
        rho *= 0.5 * d.conj()[:, None]
        rho *= d
    return rho


class _Stored:
    """The stored array ``_arr`` of a state, in the frame D while ``_framed``."""

    __slots__ = ("n", "_arr", "_framed")

    def _set_frame(self, framed: bool):
        """Move ``_arr`` into (or out of) the frame, in place; return self.
        The entries of a vector and the rows of a matrix take the phases."""
        if self._framed is not framed:
            d = _frame_phases(self.n) if framed else _frame_phases(self.n).conj()
            self._arr *= d if self._arr.ndim == 1 else d[:, None]
            self._framed = framed
        return self

    def _public(self) -> np.ndarray:
        return self._set_frame(False)._arr

    def _assign(self, arr: np.ndarray) -> None:
        # Complex: a real dense matrix would read as K.
        self._arr, self._framed = np.asarray(arr, dtype=np.complex128), False

    @property
    def dim(self) -> int:
        return self._arr.shape[0]


class StateVector(_Stored):
    """Pure state of an ``n``-qubit register, normalized to 1e-9."""

    __slots__ = ()
    amps = property(_Stored._public, _Stored._assign, doc="Amplitudes in the computational basis.")

    def __init__(self, amps: np.ndarray, *, copy: bool = True, validate: bool = True):
        amps = (np.array if copy else np.asarray)(amps, dtype=np.complex128).reshape(-1)
        self.n = check_num_qubits(num_qubits_for_dim(amps.size))
        self.amps = amps
        if validate:
            nrm = np.linalg.norm(amps)
            if abs(nrm - 1.0) > _NORM_TOL:
                raise ValueError(f"state vector norm {nrm} is not 1 within {_NORM_TOL}")

    @classmethod
    def basis(cls, n: int, index: int) -> "StateVector":
        amps = np.zeros(1 << n, dtype=np.complex128)
        amps[index] = 1.0
        return cls(amps, copy=False, validate=False)

    @classmethod
    def uniform(cls, n: int) -> "StateVector":
        return cls(np.full(1 << n, complex(1.0 / math.sqrt(1 << n))), copy=False, validate=False)

    def copy(self) -> "StateVector":
        out = StateVector(self._arr, copy=True, validate=False)
        out._framed = self._framed
        return out

    def probabilities(self) -> np.ndarray:
        return np.abs(self._arr) ** 2

    def to_density(self) -> "DensityMatrix":
        """|psi><psi| in the factored form L = psi, S = [1]: O(d), not O(d^2)."""
        one = np.ones((1, 1), dtype=np.complex128)
        return DensityMatrix._stored(self.n, self._arr[:, None].copy(), one, self._framed)


class DensityMatrix(_Stored):
    """Exact mixed state of an ``n``-qubit register, in one of three storage forms.

    *Dense*: ``_arr`` is the complex d x d matrix, always in the
    computational basis. *Real*: ``_arr`` is the float64 d x d matrix
    K = Re rho + Im rho of the matrix in the basis ``_framed`` names (rho~ in
    the frame D, where a dense matrix is always K). A step whose propagator is
    real in that basis (:attr:`Generator.real`) works on K, and a diagonal
    step on either form; a dense state meets the transverse field encoded in
    the frame and a purely imaginary dense generator encoded in the
    computational basis. Moving between bases decodes first, and so does a
    step that needs the complex form. *Factored*: ``_arr`` is a d x r
    column-major factor L and ``_S`` an r x r Hermitian matrix, rho = L S L^H
    with r < d.
    A pure state is promoted to the factored form (L = psi), and it stays
    factored through diagonal steps (the rows of L are scaled), rank-one
    uniform steps (S <- A S A^H, see :class:`RankOneUniform`) and basis-aligned
    measurements (:meth:`_measure_factors`; the next rank-one step splits the
    columns of L into block pieces); the frame flag then applies to the rows
    of L. Every other use leaves the form through the one exit
    :meth:`_densify`: any other generator, a read of ``mat``,
    :meth:`min_eigenvalue` and :meth:`validate`, or a rank that would reach d.

    Mutated in place by evolution and measurement; single-owner semantics.
    Long Zeno chains re-symmetrize and renormalize every
    ``_RESYM_INTERVAL`` super-operator applications to keep floating-point
    drift out of the Hermiticity/trace invariants (K is Hermitian by
    construction, so it only renormalizes).
    """

    # _u: boolean mask of the columns of L that sum to the uniform vector
    # (None: no such record). _blocks: (labels, same-block mask of the columns)
    # once every column of L lies in one block of the measurement whose labels
    # array is ``labels`` (None: not known). _pending: a measurement applied to
    # L S L^H but not yet to L and S (None: none).
    __slots__ = ("_superops", "_S", "_u", "_blocks", "_pending")

    def __init__(self, mat: np.ndarray, *, copy: bool = True, validate: bool = True):
        mat = (np.array if copy else np.asarray)(mat, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        self.n = check_num_qubits(num_qubits_for_dim(mat.shape[0]))
        self.mat = mat
        self._superops = 0
        if validate:
            if not is_hermitian(mat, _HERM_TOL):
                raise ValueError("density matrix is not Hermitian within 1e-9")
            tr = np.trace(mat).real
            if abs(tr - 1.0) > _NORM_TOL:
                raise ValueError(f"density matrix trace {tr} is not 1 within {_NORM_TOL}")

    @classmethod
    def _stored(cls, n: int, arr: np.ndarray, s: np.ndarray | None, framed: bool) -> "DensityMatrix":
        """The state with storage ``arr`` (and ``s``: factored), no checks."""
        rho = cls.__new__(cls)
        rho.n, rho._arr, rho._framed, rho._S = n, arr, framed, s
        rho._u = rho._blocks = rho._pending = None
        rho._superops = 0
        return rho

    @property
    def mat(self) -> np.ndarray:
        """The matrix in the computational basis (densifies a factored state
        and decodes K)."""
        return self._set_frame(False)._densify(False)

    @mat.setter
    def mat(self, mat: np.ndarray) -> None:
        self._assign(mat)
        self._S = self._u = self._blocks = self._pending = None

    def _set_frame(self, framed: bool):
        # A dense matrix is K in the frame: entering it encodes (a K of the
        # computational basis is decoded first), leaving it decodes.
        if self._S is None and self._framed is not framed:
            d = _frame_phases(self.n)
            self._arr = _encode(self._densify(False), d) if framed else _decode(self._arr, d)
            self._framed = framed
        return super()._set_frame(framed)

    def _densify(self, real: bool | None = None) -> np.ndarray:
        """The one exit from the factored form, and the one switch between the
        dense forms in the computational basis: ``_arr`` becomes the dense
        matrix, as K if ``real`` and complex if not. None keeps a dense
        matrix's form and densifies as K exactly in the frame, where a dense
        matrix is always K. Returns the dense ``_arr``."""
        if self._S is not None:
            factor, s = self._arr, self._S
            if self._framed if real is None else real:
                # K = Re M (Re L - Im L)^T + Im M (Re L + Im L)^T, M = L S, in either basis
                m = factor @ s
                self._arr = np.hstack((m.real, m.imag)) @ np.hstack(
                    (factor.real - factor.imag, factor.real + factor.imag)).T
            elif s.shape[0] == 1:  # a promoted pure state: one outer product, no BLAS call
                self._arr = np.outer(factor[:, 0] * s[0, 0], factor[:, 0].conj())
            else:
                self._arr = (factor @ s) @ factor.conj().T
            if self._pending is not None:
                np.putmask(self._arr, self._pending.cross_block_mask(), 0.0)
            self._S = self._u = self._blocks = self._pending = None
        elif real is not None and (self._arr.dtype == np.float64) is not real:
            self._arr = _encode(self._arr) if real else _decode(self._arr)
        return self._arr

    def _append(self, column: np.ndarray) -> bool:
        """Add ``column`` to L with zero weight in S; False if r would reach d."""
        r = self._S.shape[0]
        if r + 1 >= self.dim:
            return False
        factor = np.empty((self.dim, r + 1), dtype=np.complex128, order="F")
        factor[:, :r], factor[:, r] = self._arr, column
        s = np.zeros((r + 1, r + 1), dtype=np.complex128)
        s[:r, :r] = self._S
        self._arr, self._S, self._blocks = factor, s, None
        return True

    def _measure_factors(self, m) -> bool:
        """Non-selective measurement ``m`` on the factored form. Once every
        column of L lies in one block of ``m``, it zeroes the cross-block
        entries of S. Otherwise ``m`` stays pending: it commutes with diagonal
        steps and keeps the diagonal, so only the next rank-one step
        (:meth:`_split`) or densify applies it. False (nothing done) in the
        dense form or if an earlier pending measurement cannot be split."""
        if self._S is None:
            return False
        if self._pending is not None and self._pending is not m and not self._split():
            return False
        if self._blocks is not None and self._blocks[0] is m.labels:
            self._S *= self._blocks[1]
        else:
            self._pending = m
        return True

    def _split(self) -> bool:
        """Apply the pending measurement to the factors: split every column of
        L into its non-empty block pieces, then zero the cross-block entries
        of S. False (nothing done) if r would reach d."""
        labels, factor, r = self._pending.labels, self._arr, self._arr.shape[1]
        # Column a of the new factor is the block-blocks[a] piece of column
        # src[a]: L = L' T with T[a, src[a]] = 1, so S' = S[src][:, src].
        rows, cols = np.nonzero(factor)
        blocks, src = np.divmod(np.flatnonzero(np.bincount(labels[rows] * r + cols)), r)
        if src.size >= self.dim:
            return False
        self._arr = factor[:, src]  # column-major, as every factor
        self._arr *= labels[:, None] == blocks
        self._S = self._S[src][:, src]
        if self._u is not None:
            self._u = self._u[src]
        self._blocks = (labels, blocks[:, None] == blocks)
        self._S *= self._blocks[1]
        self._pending = None
        return True

    def trace(self) -> float:
        if self._S is not None:
            return float(np.vdot(self._arr, self._arr @ self._S).real)
        return float(np.trace(self._arr).real)

    def probabilities(self) -> np.ndarray:
        if self._S is not None:  # the row sums of (L S) o conj(L); D cancels
            return np.einsum("ij,ij->i", self._arr @ self._S, self._arr.conj()).real
        return np.real(np.diag(self._arr)).copy()

    def min_eigenvalue(self) -> float:
        mat = self.mat
        return float(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)[0])

    def note_superop(self) -> None:
        """Drift control hook, called by each measurement super-operator."""
        self._superops += 1
        if self._superops % _RESYM_INTERVAL == 0:
            target = self._arr if self._S is None else self._S
            if target.dtype == np.complex128:  # K (float64) is Hermitian by construction
                target += target.conj().T
                target *= 0.5
            target /= self.trace()

    def copy(self) -> "DensityMatrix":
        s = None if self._S is None else self._S.copy()
        out = DensityMatrix._stored(self.n, self._arr.copy(order="K"), s, self._framed)
        if s is not None:
            out._u, out._blocks, out._pending = self._u, self._blocks, self._pending  # never written in place
        return out

    def validate(self, tol: float = _NORM_TOL) -> None:
        if not is_hermitian(self.mat, tol):
            raise ValueError("density matrix drifted off Hermitian")
        if abs(self.trace() - 1.0) > tol:
            raise ValueError("density matrix trace drifted off 1")
        if self.min_eigenvalue() < -tol:
            raise ValueError("density matrix has a negative eigenvalue")


State = StateVector | DensityMatrix


def as_density(state: State) -> DensityMatrix:
    return state.to_density() if isinstance(state, StateVector) else state


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _apply_block(arr: np.ndarray, u: np.ndarray, q: int, post: int = 1, out=None):
    """Apply the real ``2^k x 2^k`` matrix ``u`` to qubits ``q .. q+k-1`` of
    the complex or real ``arr`` viewed as ``(pre, 2^n, post)``, on its float64
    view. The result goes into ``out`` when that is a C-contiguous array of
    ``arr``'s shape that does not overlap it, else a new array; returns it."""
    shape = (-1, u.shape[0], (arr.itemsize // 8) * (1 << q) * post)
    if out is None or not out.flags.c_contiguous:
        out = np.empty(arr.shape, dtype=arr.dtype)
    floats = np.ascontiguousarray(arr).view(np.float64)
    np.matmul(u, floats.reshape(shape), out=out.view(np.float64).reshape(shape))
    return out


class Generator:
    """Hermitian generator of a one-parameter unitary family exp(-i*a*G).

    ``propagator(angle)`` gives exp(-i*angle*G), read-only, in the compact
    form a subclass's ``_make(angle)`` builds; the last (angle, propagator)
    pair is kept, so a measured block that repeats an angle builds it once.
    ``_evolve(arr, prop, pre, post)`` applies it along the middle axis of
    ``arr`` viewed as ``(pre, 2^n, post)`` (maybe in place), and
    ``_evolve_density(mat, prop)`` conjugates a dense density matrix in the
    form ``real`` names: by default the rows, then the columns by
    ``np.conj(prop)``, the conjugate's form. ``frame`` is the frame the
    kernels act in (True: D, False: the computational basis, None: either);
    ``real`` is the dense form the density step takes (True: K, which the
    frame D always takes, False: the complex matrix, None: either);
    ``span()`` is the (min, max) eigenvalue.
    """

    __slots__ = ("n", "_memo")
    frame: bool | None = False
    real: bool | None = False

    def __init__(self, n: int):
        self.n = check_num_qubits(n)
        self._memo = (None, None)

    @property
    def dim(self) -> int:
        return 1 << self.n

    def materialize(self) -> np.ndarray:
        raise NotImplementedError

    def propagator(self, angle: float):
        if self._memo[0] != angle:
            made = self._make(angle)
            for part in made if isinstance(made, tuple) else (made,):
                np.asarray(part).setflags(write=False)  # a scalar is immutable already
            self._memo = (angle, made)
        return self._memo[1]

    def _evolve_density(self, mat, prop):
        mat = self._evolve(mat, prop, 1, self.dim)
        return self._evolve(mat, np.conj(prop), self.dim, 1)

    def _evolve_factors(self, rho: "DensityMatrix", prop) -> bool:
        """Conjugate a factored ``rho`` in place, keeping its form; False if
        this kind cannot (the caller densifies)."""
        return False


class Diagonal(Generator):
    """Cost-style operator, diagonal in the computational basis."""

    __slots__ = ("values",)
    frame = real = None

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        super().__init__(num_qubits_for_dim(values.size))
        self.values = values

    def materialize(self) -> np.ndarray:
        return np.diag(self.values.astype(np.complex128))

    def span(self) -> tuple[float, float]:
        return (float(self.values.min()), float(self.values.max()))

    def _make(self, angle: float) -> np.ndarray:
        return np.exp(-1j * angle * self.values)

    def _evolve(self, arr, phases, pre, post):
        view = arr.reshape(pre, self.dim, post)
        view *= phases[:, None]
        return view.reshape(arr.shape)

    def _evolve_density(self, mat, phases):
        if mat.dtype != np.float64:
            return super()._evolve_density(mat, phases)
        # K holds z_ij = K_ij + i K_ji = (1 + i) conj(rho~_ij), so the step is
        # z <- conj(e_i) z e_j. Each pair of tiles (I, J), I <= J, is read into
        # one complex tile z before either is written; a diagonal tile's z holds
        # each pair twice and keeps K_II = Re z.
        t = min(_TILE, self.dim)
        z = np.empty((t, t), dtype=np.complex128)
        for i in range(0, self.dim, t):
            rows = phases[i:i + t].conj()[:, None]
            for j in range(i, self.dim, t):
                z.real = mat[i:i + t, j:j + t]
                z.imag = mat[j:j + t, i:i + t].T
                z *= rows
                z *= phases[j:j + t]
                if j != i:
                    mat[j:j + t, i:i + t] = z.imag.T
                mat[i:i + t, j:j + t] = z.real
        return mat

    def _evolve_factors(self, rho, phases):
        rho._arr *= phases[:, None]  # the rows of L; its columns no longer sum to u
        rho._u = None
        return True


class TransverseField(Generator):
    """Sum of single-qubit Pauli-X terms.

    exp(-i*a*X)^(x)n = D R D with D = diag(1, -i)^(x)n, R = [[c, s], [s, -c]]^(x)n.
    The kernels act in the frame D: psi~ -> Q psi~, and K -> Q K Q^T on the
    real form of rho~, with the real Q = D^2 R = [[c, s], [-s, c]]^(x)n,
    applied as Kronecker blocks of at most ``_BLOCK_QUBITS`` qubits.
    """

    __slots__ = ("_groups", "_index")
    frame = real = True

    def __init__(self, n: int):
        super().__init__(n)
        n_groups = -(-self.n // _BLOCK_QUBITS)
        sizes = [len(g) for g in np.array_split(np.arange(self.n), n_groups)]
        self._groups = tuple(zip(np.cumsum([0] + sizes[:-1]).tolist(), sizes))
        # Block entry (a, b) is c^(k-w) s^w, w = |a ^ b|, negated if |a & ~b| is odd.
        self._index = {}
        for k in set(sizes):
            a = np.arange(1 << k)
            ones = ((a[:, None] >> np.arange(k)) & 1).sum(1)
            self._index[k] = ones[a[:, None] ^ a] + (k + 1) * (ones[a[:, None] & ~a] & 1)

    def materialize(self) -> np.ndarray:
        dim = self.dim
        mat = np.zeros((dim, dim), dtype=np.complex128)
        idx = np.arange(dim)
        for k in range(self.n):
            mat[idx ^ (1 << k), idx] += 1.0
        return mat

    def span(self) -> tuple[float, float]:
        return (-float(self.n), float(self.n))

    def _make(self, angle: float) -> tuple:
        c, s = math.cos(angle), math.sin(angle)
        made = {}
        for k in self._index:
            v = [c ** (k - w) * s ** w for w in range(k + 1)]
            made[k] = np.array(v + [-x for x in v])[self._index[k]]
        return tuple(made[k] for _, k in self._groups)

    def _rows(self, arr, blocks, post, spare=None):
        # Q on (-1, 2^n, post). Products alternate arr and spare: one extra array.
        for (q, _), block in zip(self._groups, blocks):
            spare, arr = arr, _apply_block(arr, block, q, post, out=spare)
        return arr, spare

    def _evolve(self, arr, blocks, pre, post):
        return self._rows(arr.reshape(pre, self.dim, post), blocks, post)[0].reshape(arr.shape)

    def _evolve_density(self, k, blocks):
        # K <- Q K Q^T: the rows, then the columns, each product into the buffer
        # the one before last has finished with. On the columns the upper groups
        # act along the middle axis and the lowest is a right product with B^T,
        # 2^n rows at a time (one product over all rows made threaded BLAS touch
        # 13 MiB more on the complex form).
        a, spare = self._rows(k, blocks, self.dim)
        for (q, _), block in zip(self._groups[1:], blocks[1:]):
            spare, a = a, _apply_block(a, block, q, 1, out=spare)
        shape = (-1, self.dim, len(blocks[0]))
        np.matmul(a.reshape(shape), blocks[0].T, out=spare.reshape(shape))
        return spare


class RankOneUniform(Generator):
    """Rank-one projector onto the uniform superposition (complete-graph mixer)."""

    __slots__ = ()

    def materialize(self) -> np.ndarray:
        dim = self.dim
        return np.full((dim, dim), 1.0 / dim, dtype=np.complex128)

    def span(self) -> tuple[float, float]:
        return (0.0, 1.0)

    def _make(self, angle: float) -> complex:
        """c in exp(-i*angle*P) = I + c*P, since P is a projector."""
        return np.exp(-1j * angle) - 1.0

    def _evolve(self, arr, c, pre, post):
        view = arr.reshape(pre, self.dim, post)
        view += (c / self.dim) * view.sum(axis=1, keepdims=True)
        return view.reshape(arr.shape)

    def _evolve_factors(self, rho, c):
        # With columns e of L that sum to u (appended once after a diagonal
        # step), U L = L + c u (u^H L) = L A, A = I + c e (u^H L): S <- A S A^H.
        if rho._pending is not None and not rho._split():
            return False
        if rho._u is None:
            if not rho._append(np.full(self.dim, 1.0 / math.sqrt(self.dim), dtype=np.complex128)):
                return False
            rho._u = np.arange(rho._S.shape[0]) == rho._S.shape[0] - 1
        a = np.eye(rho._S.shape[0], dtype=np.complex128)
        a[rho._u] += (c / math.sqrt(self.dim)) * rho._arr.sum(axis=0)
        rho._S = (a @ rho._S) @ a.conj().T
        return True


class DenseHermitian(Generator):
    """Arbitrary Hermitian generator V diag(w) V^H, exponentiated for every
    angle through its eigenpairs (w, V): ``eigh`` of the matrix at
    construction, or eigenpairs known in closed form (:meth:`from_eigh`: no
    matrix until ``materialize()``, no check, no ``eigh``).

    A generator whose symmetrized matrix has an all-zero real part (``real``,
    tested exactly) is i A with A real antisymmetric, so its propagator
    exp(a A) is real orthogonal: Re(V e) Re(V)^T + Im(V e) Im(V)^T,
    e = exp(-i a w), two real products. It conjugates the real form K of a
    density matrix as K -> (V K) V^T; a state vector takes the same product
    as for a complex propagator.
    """

    __slots__ = ("mat", "_eig", "real")

    def __init__(self, mat: np.ndarray):
        mat = np.array(mat, dtype=np.complex128)
        if not is_hermitian(mat, _HERM_TOL):
            raise ValueError("generator matrix is not Hermitian")
        super().__init__(num_qubits_for_dim(mat.shape[0]))
        self.mat = (mat + mat.conj().T) / 2.0
        self.mat.setflags(write=False)
        self.real = not np.any(self.mat.real)
        self._eig = np.linalg.eigh(self.mat)

    @classmethod
    def from_eigh(cls, w: np.ndarray, v: np.ndarray, *, real: bool) -> "DenseHermitian":
        """The generator with eigenvalues ``w`` (in any order) and orthonormal
        eigenvectors the columns of ``v``, purely imaginary if ``real``; trusted."""
        g = cls.__new__(cls)
        Generator.__init__(g, num_qubits_for_dim(len(w)))
        g.mat, g._eig, g.real = None, (w, v), real
        return g

    def materialize(self) -> np.ndarray:
        if self.mat is not None:
            return np.array(self.mat)
        w, v = self._eig
        mat = (v * w) @ v.conj().T
        return 1j * mat.imag if self.real else mat

    def span(self) -> tuple[float, float]:
        w = self._eig[0]
        return (float(w.min()), float(w.max()))

    def _make(self, angle: float) -> np.ndarray:
        w, v = self._eig
        ve = v * np.exp(-1j * angle * w)
        return ve.real @ v.real.T + ve.imag @ v.imag.T if self.real else ve @ v.conj().T

    def _evolve(self, arr, u, pre, post):
        # Every state layout has pre == 1 or post == 1: one matrix product.
        if pre == 1:
            return (u @ arr.reshape(self.dim, post)).reshape(arr.shape)
        return (arr.reshape(pre, self.dim) @ u.T).reshape(arr.shape)

    def _evolve_density(self, mat, u):
        if self.real:
            return (u @ mat) @ u.T
        return super()._evolve_density(mat, u)


# ---------------------------------------------------------------------------
# Evolution and expectation
# ---------------------------------------------------------------------------


def _check_angle(angle: float) -> float:
    # A finite float skips the numbers.Real ABC check (~1 us).
    if not isinstance(angle, float) or not math.isfinite(angle):
        if not isinstance(angle, numbers.Real) or not abs(angle) <= sys.float_info.max:
            raise ValueError(f"evolution angle must be a finite real, got {angle!r}")
    return float(angle)


def _check_dims(state: State, g: Generator) -> None:
    if state.dim != g.dim:
        raise DimensionMismatchError(f"state dim {state.dim} != generator dim {g.dim}")


def apply_evolution(state: State, g: Generator, angle: float) -> State:
    """Conjugate ``state`` by exp(-i*angle*g), in place, and return it.

    The generator's kernel acts on the amplitudes of a pure state; its
    density step conjugates a density matrix, each in the frame it needs and
    a dense matrix in the form it needs.
    """
    angle = _check_angle(angle)
    _check_dims(state, g)
    prop = g.propagator(angle)
    if g.frame is not None:
        state._set_frame(g.frame)
    if isinstance(state, StateVector):
        state._arr = g._evolve(state._arr, prop, 1, 1)
    elif state._S is None or not g._evolve_factors(state, prop):
        state._arr = g._evolve_density(state._densify(g.real), prop)
    return state


def expectation(state: State, obs: Generator) -> float:
    """Tr[obs * rho] (or the pure-state expectation), as a real number.

    A diagonal observable weighs the basis-state probabilities; any other
    is materialized and contracted with the density matrix. The imaginary
    residue is asserted below 1e-9 and discarded.
    """
    _check_dims(state, obs)

    if isinstance(obs, Diagonal):
        return float(np.dot(obs.values, state.probabilities()))
    # vdot conjugates obs elementwise, which for Hermitian obs is its
    # transpose, so the sum is Tr[obs * rho].
    return _real_part(np.vdot(obs.materialize(), as_density(state).mat))


def _real_part(value: complex) -> float:
    if abs(value.imag) >= 1e-9:
        raise ValueError(f"expectation has non-negligible imaginary part {value.imag}")
    return float(value.real)
