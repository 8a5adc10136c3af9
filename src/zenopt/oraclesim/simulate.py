"""Exact simulation of circuits with mid-circuit measurement.

Measurement trees here are shallow (at most a handful of measured bits), so
the validation mode enumerates every outcome branch exactly instead of
sampling: each Measure or Reset splits the current amplitudes into their
projected parts, and branches carry their classical record plus unnormalized
amplitudes (the squared norm is the branch probability).

The enumerator is batched: its input is one state, or a ``(2^N, k)`` array
whose columns are k states, and every op acts on all columns side by side.
A branch is kept while any column still has weight on it, so one pass gives
each input's branches at once; a column that never reaches a branch carries
zeros there. The matrix of a measurement-free circuit is the one branch of
the identity batch, and ``induced_superoperator`` turns a constraint-checking
circuit into the quantum channel it applies to the system register by
running the circuit once on every system basis state (auxiliaries in |0>)
and reading one Kraus operator per outcome branch off that batch. That is
what lets a gate-level oracle be compared, as a map, against a matrix-level
measurement family.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..operators import Measurement
from ..qcore import StateVector, _apply_block
from .circuit import (
    CNOT,
    Barrier,
    Circuit,
    Conditional,
    CPhase,
    H,
    Measure,
    Op,
    Phase,
    Reset,
    X,
)

_H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
_PRUNE = 1e-30  # squared-norm threshold below which a column counts as empty

ENUMERATE_QUBIT_CAP = 12


def _bit_mask(n: int, qubits, value: int = 1) -> np.ndarray:
    idx = np.arange(1 << n)
    mask = np.ones(1 << n, dtype=bool)
    for q in qubits:
        mask &= ((idx >> q) & 1) == value
    return mask


def _apply_unitary_op(amps: np.ndarray, op: Op, n: int) -> np.ndarray:
    """Apply a gate to every column of the ``(2^n, k)`` array ``amps``."""
    match op:
        case H(q):
            return _apply_block(amps, _H2, q, amps.shape[1])
        case X(q):
            idx = np.arange(1 << n)
            return amps[idx ^ (1 << q)]
        case Phase(q, a):
            out = amps.copy()
            out[_bit_mask(n, [q])] *= np.exp(1j * a)
            return out
        case CPhase(controls, target, a):
            out = amps.copy()
            out[_bit_mask(n, list(controls) + [target])] *= np.exp(1j * a)
            return out
        case CNOT(c, t):
            idx = np.arange(1 << n)
            src = np.where(((idx >> c) & 1) == 1, idx ^ (1 << t), idx)
            return amps[src]
        case Barrier():
            return amps
    raise TypeError(f"not a unitary op: {op!r}")


@dataclass(frozen=True)
class Branch:
    """One measurement-outcome branch of a circuit execution.

    ``key`` records every stochastic event (measurements and resets) as
    (op position, outcome); ``clbits`` maps classical bits to their final
    values. Amplitudes are unnormalized and shaped like the input (one
    column per input of a batch): their squared norm is the branch
    probability.
    """

    key: tuple[tuple[int, int], ...]
    clbits: dict[int, int]
    amps: np.ndarray

    @property
    def probability(self):
        """Branch probability: a float, or one per column of a batch."""
        prob = np.sum(np.abs(self.amps) ** 2, axis=0)
        return float(prob) if prob.ndim == 0 else prob

    def clbit_word(self, num_clbits: int) -> tuple[int, ...]:
        return tuple(self.clbits.get(c, 0) for c in range(num_clbits))


def _project_bit(amps: np.ndarray, q: int, value: int, n: int) -> np.ndarray:
    out = amps.copy()
    out[_bit_mask(n, [q], value=1 - value)] = 0.0
    return out


def _move_bit_to_zero(amps: np.ndarray, q: int, n: int) -> np.ndarray:
    """Kraus |0><1| on qubit q: shift the bit-set amplitudes onto bit-clear."""
    idx = np.arange(1 << n)
    hi = ((idx >> q) & 1) == 1
    out = np.zeros_like(amps)
    out[idx[hi] ^ (1 << q)] = amps[hi]
    return out


def _reached(amps: np.ndarray) -> bool:
    """Whether any column has weight left on a branch."""
    return float(np.max(np.sum(np.abs(amps) ** 2, axis=0))) > _PRUNE


def enumerate_branches(circ: Circuit, input_state) -> list[Branch]:
    """Every measurement-outcome branch, exactly, for one input or a batch.

    ``input_state`` is a StateVector or amplitude array over all circuit
    qubits, or a ``(2^N, k)`` array whose columns are k inputs run side by
    side. A branch is dropped only when it is empty for every input, so for
    each column the branch probabilities sum to one (up to float rounding).
    """
    if circ.num_qubits > ENUMERATE_QUBIT_CAP:
        raise ValueError(
            f"{circ.num_qubits} qubits exceeds the branch-enumeration cap "
            f"of {ENUMERATE_QUBIT_CAP}"
        )
    amps0 = input_state.amps if isinstance(input_state, StateVector) else input_state
    amps0 = np.array(amps0, dtype=np.complex128)
    n = circ.num_qubits
    if amps0.ndim > 2 or amps0.shape[0] != (1 << n):
        raise ValueError("input state dimension does not match the circuit")
    shape = amps0.shape
    amps0 = amps0.reshape(1 << n, -1)

    branches = [Branch(key=(), clbits={}, amps=amps0)]
    for pos, op in enumerate(circ.ops):
        nxt: list[Branch] = []
        for br in branches:
            match op:
                case Measure(q, c):
                    for value in (0, 1):
                        amps = _project_bit(br.amps, q, value, n)
                        if _reached(amps):
                            nxt.append(
                                Branch(br.key + ((pos, value),), {**br.clbits, c: value}, amps)
                            )
                case Reset(q):
                    keep = _project_bit(br.amps, q, 0, n)
                    if _reached(keep):
                        nxt.append(Branch(br.key + ((pos, 0),), dict(br.clbits), keep))
                    moved = _move_bit_to_zero(br.amps, q, n)
                    if _reached(moved):
                        nxt.append(Branch(br.key + ((pos, 1),), dict(br.clbits), moved))
                case Conditional(c, gate):
                    if br.clbits.get(c, 0) == 1:
                        nxt.append(Branch(br.key, br.clbits, _apply_unitary_op(br.amps, gate, n)))
                    else:
                        nxt.append(br)
                case _:
                    nxt.append(Branch(br.key, br.clbits, _apply_unitary_op(br.amps, op, n)))
        branches = nxt
    return [Branch(br.key, br.clbits, br.amps.reshape(shape)) for br in branches]


def sample(circ: Circuit, input_state, shots: int, seed: int) -> dict[tuple[int, ...], int]:
    """Draw ``shots`` readouts from the exact distribution; returns
    clbit-word counts."""
    dist = clbit_distribution(circ, input_state)
    words = list(dist)
    probs = np.array([dist[w] for w in words])
    draws = np.random.default_rng(seed).multinomial(shots, probs / probs.sum())
    return {w: int(c) for w, c in zip(words, draws) if c}


def clbit_distribution(circ: Circuit, input_state) -> dict[tuple[int, ...], float]:
    """Exact probability of each classical readout word (one per column
    when ``input_state`` is a batch)."""
    dist: dict[tuple[int, ...], float] = {}
    for br in enumerate_branches(circ, input_state):
        word = br.clbit_word(circ.num_clbits)
        dist[word] = dist.get(word, 0.0) + br.probability
    return dist


def unitary_matrix(circ: Circuit) -> np.ndarray:
    """Dense matrix of a measurement-free circuit."""
    if not circ.is_unitary_only():
        raise ValueError("circuit contains measurements, resets, or classical control")
    (branch,) = enumerate_branches(circ, np.eye(1 << circ.num_qubits))
    return branch.amps


# ---------------------------------------------------------------------------
# Induced channels
# ---------------------------------------------------------------------------

_AUX_PURITY_TOL = 1e-9


class AuxiliaryEntangledError(RuntimeError):
    """The auxiliary register did not disentangle: an uncompute bug."""


def induced_superoperator(circ: Circuit, system_qubits) -> list[np.ndarray]:
    """Kraus operators of the channel the circuit applies to the system.

    The circuit runs once on the batch of all system basis states, with the
    auxiliary qubits (everything not in ``system_qubits``) in |0>. Branch by
    branch, the auxiliaries must end in one state that factors from the
    system: the aux marginal summed over inputs must have purity above
    1 - 1e-9, and every input's amplitudes must match that state times a
    system vector to 1e-7; otherwise AuxiliaryEntangledError is raised.
    Returns one Kraus operator per outcome branch, so the channel is
    rho -> sum_b K_b rho K_b^dagger, marginalized over the auxiliaries.
    """
    system_qubits = list(system_qubits)
    n = circ.num_qubits
    aux_qubits = [q for q in range(n) if q not in system_qubits]
    ns, na = len(system_qubits), len(aux_qubits)
    dim_s = 1 << ns

    # Map full-register indices to (aux, system) coordinates once.
    full_idx = np.arange(1 << n)
    sys_coord = np.zeros(1 << n, dtype=np.int64)
    for pos, q in enumerate(system_qubits):
        sys_coord |= (((full_idx >> q) & 1) << pos)
    aux_coord = np.zeros(1 << n, dtype=np.int64)
    for pos, q in enumerate(aux_qubits):
        aux_coord |= (((full_idx >> q) & 1) << pos)
    scatter = aux_coord * dim_s + sys_coord  # position in (aux, sys) layout

    # Column x is system basis state x with the auxiliaries in |0>.
    inputs = np.zeros((1 << n, dim_s), dtype=np.complex128)
    inputs[full_idx[aux_coord == 0], sys_coord[aux_coord == 0]] = 1.0

    kraus: dict[tuple, np.ndarray] = {}
    for br in enumerate_branches(circ, inputs):
        psi = np.empty_like(br.amps)
        psi[scatter] = br.amps
        psi = psi.reshape(1 << na, dim_s * dim_s)  # [aux, (system out, input)]
        # The auxiliary reference state is the dominant eigenvector of the
        # aux marginal, its phase pinned (largest entry real and positive)
        # so the Kraus operators do not depend on the eigensolver's choice.
        rho_aux = psi @ psi.conj().T
        tr = np.trace(rho_aux).real
        purity = float(np.trace(rho_aux @ rho_aux).real) / tr**2
        if purity < 1.0 - _AUX_PURITY_TOL:
            raise AuxiliaryEntangledError(f"auxiliary purity {purity:.6f} on branch {br.key}")
        _, v = np.linalg.eigh(rho_aux)
        ref = v[:, -1]
        pivot = np.argmax(np.abs(ref))
        ref = ref * np.exp(-1j * np.angle(ref[pivot]))
        column = ref.conj() @ psi
        residual = np.linalg.norm(
            (psi - np.outer(ref, column)).reshape(1 << na, dim_s, dim_s), axis=(0, 1)
        )
        if residual.max() > 1e-7:
            raise AuxiliaryEntangledError(
                f"auxiliary register correlated with the system on branch {br.key} "
                f"(residual {residual.max():.3e})"
            )
        kraus[br.key] = column.reshape(dim_s, dim_s)

    return [kraus[key] for key in sorted(kraus)]


def measurement_kraus(m: Measurement) -> list[np.ndarray]:
    """Kraus family of a matrix-level non-selective measurement."""
    return [p.matrix() for p in m.projectors if not p.is_empty()]


def apply_kraus(kraus, rho: np.ndarray) -> np.ndarray:
    out = np.zeros_like(rho)
    for k in kraus:
        out += k @ rho @ k.conj().T
    return out


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    diff = a - b
    diff = (diff + diff.conj().T) / 2.0
    return float(np.sum(np.abs(np.linalg.eigvalsh(diff))) / 2.0)


def probe_states(dim: int) -> Iterator[np.ndarray]:
    """Tomographically complete family of pure-state density matrices,
    yielded one at a time: basis states first, then two-level real and
    imaginary superpositions."""
    for i in range(dim):
        v = np.zeros(dim, dtype=np.complex128)
        v[i] = 1.0
        yield np.outer(v, v.conj())
    for i in range(dim):
        for j in range(i + 1, dim):
            for amp in (1.0, 1.0j):
                v = np.zeros(dim, dtype=np.complex128)
                v[i] = 1.0 / np.sqrt(2.0)
                v[j] = amp / np.sqrt(2.0)
                yield np.outer(v, v.conj())


def channel_distance(kraus_a, kraus_b, probes=None) -> float:
    """Max output trace distance over a spanning family of input states.

    Zero exactly when the two channels are equal as maps (the probe family
    spans operator space); used as the diamond-norm proxy for oracle
    validation. ``probes`` is any iterable of density matrices, consumed
    once; it defaults to :func:`probe_states`.
    """
    dim = kraus_a[0].shape[0]
    if probes is None:
        probes = probe_states(dim)
    worst = 0.0
    for rho in probes:
        worst = max(worst, _trace_distance(apply_kraus(kraus_a, rho), apply_kraus(kraus_b, rho)))
    return worst


def basis_channel_distance(kraus_a, kraus_b) -> float:
    """Max output trace distance over computational-basis inputs only."""
    dim = kraus_a[0].shape[0]
    return channel_distance(kraus_a, kraus_b, probes=itertools.islice(probe_states(dim), dim))
