"""Exact complex linear algebra and state evolution for small qubit registers.

Everything here is dense double-precision numpy. States live on ``n`` qubits
with little-endian bit order: bit ``j`` of a computational-basis index is
variable ``x_{j+1}``. Pure states are kept as :class:`StateVector` for speed
and are promoted to a :class:`DensityMatrix` only when a measurement
super-operator first touches them (see :mod:`zenopt.zeno`).

Each generator kind has one evolution kernel, which applies exp(-i*a*G)
along one axis of a state array, and a density step, by default the kernel
along the rows and then the columns with the conjugate propagator;
:func:`apply_evolution` alone tells pure from mixed. No structured
generator is materialized for evolution: a diagonal acts by phases, the
rank-one projector by a sum, and the transverse field as D R D, phases
around real Kronecker blocks kept for the last angle, with a density step
that uses the Hermiticity of rho. A dense generator is exponentiated
through its eigendecomposition, exact for Hermitian input and reusable
across angles. Only :func:`expectation` of a non-diagonal observable,
which no evolution loop needs, materializes the generator.
"""

from __future__ import annotations

import math
import numbers
import os

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


class StateVector:
    """Pure state of an ``n``-qubit register, normalized to 1e-9."""

    __slots__ = ("n", "amps")

    def __init__(self, amps: np.ndarray, *, copy: bool = True, validate: bool = True):
        amps = np.array(amps, dtype=np.complex128, copy=copy).reshape(-1)
        self.n = check_num_qubits(num_qubits_for_dim(amps.size))
        self.amps = amps
        if validate:
            nrm = np.linalg.norm(amps)
            if abs(nrm - 1.0) > _NORM_TOL:
                raise ValueError(f"state vector norm {nrm} is not 1 within {_NORM_TOL}")

    @property
    def dim(self) -> int:
        return self.amps.size

    @classmethod
    def basis(cls, n: int, index: int) -> "StateVector":
        amps = np.zeros(1 << n, dtype=np.complex128)
        amps[index] = 1.0
        return cls(amps, copy=False, validate=False)

    @classmethod
    def uniform(cls, n: int) -> "StateVector":
        dim = 1 << n
        return cls(np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128), copy=False, validate=False)

    def copy(self) -> "StateVector":
        return StateVector(self.amps, copy=True, validate=False)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amps, self.amps.conj()), copy=False, validate=False)


class DensityMatrix:
    """Exact mixed state of an ``n``-qubit register.

    Mutated in place by evolution and measurement; single-owner semantics.
    Long Zeno chains re-symmetrize and renormalize every
    ``_RESYM_INTERVAL`` super-operator applications to keep floating-point
    drift out of the Hermiticity/trace invariants.
    """

    __slots__ = ("n", "mat", "_superops")

    def __init__(self, mat: np.ndarray, *, copy: bool = True, validate: bool = True):
        mat = np.array(mat, dtype=np.complex128, copy=copy)
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

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def copy(self) -> "DensityMatrix":
        return DensityMatrix(self.mat, copy=True, validate=False)

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def probabilities(self) -> np.ndarray:
        return np.real(np.diag(self.mat)).copy()

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh((self.mat + self.mat.conj().T) / 2.0)[0])

    def note_superop(self) -> None:
        """Drift control hook, called by each measurement super-operator."""
        self._superops += 1
        if self._superops % _RESYM_INTERVAL == 0:
            self.mat += self.mat.conj().T
            self.mat *= 0.5
            self.mat /= np.trace(self.mat).real

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
    the complex ``arr`` viewed as ``(pre, 2^n, post)``, on its float64 view.
    The result goes into ``out`` when that is a C-contiguous array of
    ``arr``'s shape that does not overlap it, else a new array; returns it."""
    shape = (-1, u.shape[0], 2 * (1 << q) * post)
    if out is None or not out.flags.c_contiguous:
        out = np.empty(arr.shape, dtype=np.complex128)
    floats = np.ascontiguousarray(arr).view(np.float64)
    np.matmul(u, floats.reshape(shape), out=out.view(np.float64).reshape(shape))
    return out


class Generator:
    """Hermitian generator of a one-parameter unitary family exp(-i*a*G).

    ``_propagator(angle)`` gives exp(-i*angle*G) in a compact form,
    ``_evolve(arr, prop, pre, post)`` applies it along the middle axis of
    ``arr`` viewed as ``(pre, 2^n, post)`` (maybe in place), and
    ``_evolve_density(mat, prop)`` conjugates a density matrix: by default
    the rows, then the columns by ``np.conj(prop)``, the conjugate's form.
    """

    n: int

    @property
    def dim(self) -> int:
        return 1 << self.n

    def materialize(self) -> np.ndarray:
        raise NotImplementedError

    def _propagator(self, angle: float):
        raise TypeError(f"unknown generator type {type(self).__name__}")

    def _evolve_density(self, mat, prop):
        mat = self._evolve(mat, prop, 1, self.dim)
        return self._evolve(mat, np.conj(prop), self.dim, 1)


class Diagonal(Generator):
    """Cost-style operator, diagonal in the computational basis."""

    __slots__ = ("n", "values")

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        self.n = check_num_qubits(num_qubits_for_dim(values.size))
        self.values = values

    def materialize(self) -> np.ndarray:
        return np.diag(self.values.astype(np.complex128))

    def _propagator(self, angle: float) -> np.ndarray:
        return np.exp(-1j * angle * self.values)

    def _evolve(self, arr, phases, pre, post):
        view = arr.reshape(pre, self.dim, post)
        view *= phases[:, None]
        return view.reshape(arr.shape)


class TransverseField(Generator):
    """Sum of single-qubit Pauli-X terms.

    exp(-i*a*X)^(x)n = D R D: phases D = diag(1, -i)^(x)n around the real
    R = [[c, s], [s, -c]]^(x)n, applied as Kronecker blocks of at most
    ``_BLOCK_QUBITS`` qubits and kept read-only for the last angle. With
    B = D rho D^H Hermitian, R B R = R (R B)^H: rows, conjugate transpose, rows.
    """

    __slots__ = ("n", "_groups", "_index", "_phase", "_dm_phase", "_last")

    def __init__(self, n: int):
        self.n = check_num_qubits(n)
        n_groups = -(-self.n // _BLOCK_QUBITS)
        sizes = [len(g) for g in np.array_split(np.arange(self.n), n_groups)]
        self._groups = tuple(zip(np.cumsum([0] + sizes[:-1]).tolist(), sizes))
        # Block entry (a, b) is c^(k-w) s^w, w = |a ^ b|, negated if |a & b| is odd.
        self._index = {}
        for k in set(sizes):
            a = np.arange(1 << k)
            ones = ((a[:, None] >> np.arange(k)) & 1).sum(1)
            self._index[k] = ones[a[:, None] ^ a] + (k + 1) * (ones[a[:, None] & a] & 1)
        weight = ((np.arange(self.dim)[:, None] >> np.arange(self.n)) & 1).sum(1)
        self._phase = np.array([1, -1j, -1, 1j])[weight & 3][:, None]
        # D rho D^H is one product with a phase table up to 64 x 64, else two.
        sides = (self._phase, self._phase.conj().T)
        self._dm_phase = (sides[0] * sides[1],) if self.n <= _BLOCK_QUBITS else sides
        self._last: tuple[float | None, tuple] = (None, ())

    def materialize(self) -> np.ndarray:
        dim = self.dim
        mat = np.zeros((dim, dim), dtype=np.complex128)
        idx = np.arange(dim)
        for k in range(self.n):
            mat[idx ^ (1 << k), idx] += 1.0
        return mat

    def _propagator(self, angle: float) -> tuple:
        if self._last[0] != angle:
            c, s = math.cos(angle), math.sin(angle)
            made = {}
            for k in self._index:
                v = [c ** (k - w) * s ** w for w in range(k + 1)]
                made[k] = np.array(v + [-x for x in v])[self._index[k]]
                made[k].setflags(write=False)
            self._last = (angle, tuple(made[k] for _, k in self._groups))
        return self._last[1]

    def _rows(self, arr, blocks, post, spare=None):
        # R on (-1, 2^n, post). Products alternate arr and spare: one extra array.
        for (q, _), block in zip(self._groups, blocks):
            spare, arr = arr, _apply_block(arr, block, q, post, out=spare)
        return arr, spare

    def _evolve(self, arr, blocks, pre, post):
        view = arr.reshape(pre, self.dim, post)
        view *= self._phase
        view = self._rows(view, blocks, post)[0]
        view *= self._phase
        return view.reshape(arr.shape)

    def _evolve_density(self, mat, blocks):
        for phase in self._dm_phase:
            mat *= phase
        a, spare = self._rows(mat, blocks, self.dim)
        np.conjugate(a.T, out=spare)
        mat = self._rows(spare, blocks, self.dim, a)[0]
        for phase in self._dm_phase:
            mat *= phase
        return mat


class RankOneUniform(Generator):
    """Rank-one projector onto the uniform superposition (complete-graph mixer)."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = check_num_qubits(n)

    def materialize(self) -> np.ndarray:
        dim = self.dim
        return np.full((dim, dim), 1.0 / dim, dtype=np.complex128)

    def _propagator(self, angle: float) -> complex:
        """c in exp(-i*angle*P) = I + c*P, since P is a projector."""
        return np.exp(-1j * angle) - 1.0

    def _evolve(self, arr, c, pre, post):
        view = arr.reshape(pre, self.dim, post)
        view += (c / self.dim) * view.sum(axis=1, keepdims=True)
        return view.reshape(arr.shape)


class DenseHermitian(Generator):
    """Arbitrary Hermitian generator, exponentiated via eigendecomposition.

    If the matrix squares to the identity (Pauli strings), the propagator
    collapses to the closed form cos(a)*I - i*sin(a)*H and the
    eigendecomposition is skipped. The last (angle, propagator) pair is kept,
    read-only, so a measured block that repeats an angle builds it once.
    """

    __slots__ = ("n", "mat", "_eig", "_involution", "_last")

    def __init__(self, mat: np.ndarray):
        mat = np.array(mat, dtype=np.complex128)
        if not is_hermitian(mat, _HERM_TOL):
            raise ValueError("generator matrix is not Hermitian")
        self.n = check_num_qubits(num_qubits_for_dim(mat.shape[0]))
        self.mat = (mat + mat.conj().T) / 2.0
        self.mat.setflags(write=False)
        self._eig: tuple[np.ndarray, np.ndarray] | None = None
        self._last: tuple[float | None, np.ndarray | None] = (None, None)
        # An involution has ||H||_F^2 = Tr H^2 = d: an O(d^2) test first.
        near = abs(np.vdot(self.mat, self.mat).real - self.dim) <= self.dim * 1e-9
        self._involution = bool(near and np.max(np.abs(self.mat @ self.mat - np.eye(self.dim))) < 1e-12)

    def materialize(self) -> np.ndarray:
        return np.array(self.mat)

    @property
    def is_involution(self) -> bool:
        return self._involution

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eig is None:
            w, v = np.linalg.eigh(self.mat)
            self._eig = (w, v)
        return self._eig

    def propagator(self, angle: float) -> np.ndarray:
        if self._last[0] == angle:
            return self._last[1]
        if self._involution:
            u = np.cos(angle) * np.eye(self.dim) - 1j * np.sin(angle) * self.mat
        else:
            w, v = self.eigensystem()
            u = (v * np.exp(-1j * angle * w)) @ v.conj().T
        u.setflags(write=False)
        self._last = (angle, u)
        return u

    _propagator = propagator

    def _evolve(self, arr, u, pre, post):
        # Every state layout has pre == 1 or post == 1: one matrix product.
        if pre == 1:
            return (u @ arr.reshape(self.dim, post)).reshape(arr.shape)
        return (arr.reshape(pre, self.dim) @ u.T).reshape(arr.shape)


# ---------------------------------------------------------------------------
# Evolution and expectation
# ---------------------------------------------------------------------------


def _check_angle(angle: float) -> float:
    # A finite float skips the numbers.Real ABC check and np.isfinite (~1 us each).
    if not isinstance(angle, float) or not math.isfinite(angle):
        if not isinstance(angle, numbers.Real) or not np.isfinite(angle):
            raise ValueError(f"evolution angle must be a finite real, got {angle!r}")
    return float(angle)


def _check_dims(state: State, g: Generator) -> None:
    if state.dim != g.dim:
        raise DimensionMismatchError(f"state dim {state.dim} != generator dim {g.dim}")


def apply_evolution(state: State, g: Generator, angle: float) -> State:
    """Conjugate ``state`` by exp(-i*angle*g), in place, and return it.

    The generator's kernel acts on the amplitudes of a pure state; its
    density step conjugates a density matrix.
    """
    angle = _check_angle(angle)
    _check_dims(state, g)
    prop = g._propagator(angle)
    if isinstance(state, StateVector):
        state.amps = g._evolve(state.amps, prop, 1, 1)
    else:
        state.mat = g._evolve_density(state.mat, prop)
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
