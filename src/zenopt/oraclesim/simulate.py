"""Exact simulation of circuits with mid-circuit measurement.

Measurement trees here are shallow (at most a handful of measured bits), so
the validation mode enumerates every outcome branch exactly instead of
sampling: each Measure or Reset splits the current amplitude vector into its
projected parts, and branches carry their classical record plus unnormalized
amplitudes (the squared norm is the branch probability).

``induced_superoperator`` turns a constraint-checking circuit into the
quantum channel it applies to the system register, by extracting one Kraus
operator per outcome branch. That is what lets a gate-level oracle be
compared, as a map, against a matrix-level measurement family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..operators import Measurement
from ..qcore import StateVector, _apply_1q
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
_PRUNE = 1e-30  # squared-norm threshold below which a branch is dropped

ENUMERATE_QUBIT_CAP = 12


def _bit_mask(n: int, qubits, value: int = 1) -> np.ndarray:
    idx = np.arange(1 << n)
    mask = np.ones(1 << n, dtype=bool)
    for q in qubits:
        mask &= ((idx >> q) & 1) == value
    return mask


def _apply_unitary_op(amps: np.ndarray, op: Op, n: int) -> np.ndarray:
    match op:
        case H(q):
            return _apply_1q(amps, _H2, q, n)
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
    values. Amplitudes are unnormalized: their squared norm is the branch
    probability.
    """

    key: tuple[tuple[int, int], ...]
    clbits: dict[int, int]
    amps: np.ndarray

    @property
    def probability(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

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


def enumerate_branches(circ: Circuit, input_state) -> list[Branch]:
    """Every measurement-outcome branch, exactly.

    ``input_state`` is a StateVector or amplitude array over all circuit
    qubits. Branch probabilities sum to one (up to float rounding).
    """
    if circ.num_qubits > ENUMERATE_QUBIT_CAP:
        raise ValueError(
            f"{circ.num_qubits} qubits exceeds the branch-enumeration cap "
            f"of {ENUMERATE_QUBIT_CAP}"
        )
    amps0 = input_state.amps if isinstance(input_state, StateVector) else np.asarray(input_state)
    amps0 = np.array(amps0, dtype=np.complex128).reshape(-1)
    if amps0.size != (1 << circ.num_qubits):
        raise ValueError("input state dimension does not match the circuit")
    n = circ.num_qubits

    branches = [Branch(key=(), clbits={}, amps=amps0)]
    for pos, op in enumerate(circ.ops):
        nxt: list[Branch] = []
        for br in branches:
            match op:
                case Measure(q, c):
                    for value in (0, 1):
                        amps = _project_bit(br.amps, q, value, n)
                        if np.vdot(amps, amps).real > _PRUNE:
                            nxt.append(
                                Branch(br.key + ((pos, value),), {**br.clbits, c: value}, amps)
                            )
                case Reset(q):
                    keep = _project_bit(br.amps, q, 0, n)
                    if np.vdot(keep, keep).real > _PRUNE:
                        nxt.append(Branch(br.key + ((pos, 0),), dict(br.clbits), keep))
                    moved = _move_bit_to_zero(br.amps, q, n)
                    if np.vdot(moved, moved).real > _PRUNE:
                        nxt.append(Branch(br.key + ((pos, 1),), dict(br.clbits), moved))
                case Conditional(c, gate):
                    if br.clbits.get(c, 0) == 1:
                        nxt.append(Branch(br.key, br.clbits, _apply_unitary_op(br.amps, gate, n)))
                    else:
                        nxt.append(br)
                case _:
                    nxt.append(Branch(br.key, br.clbits, _apply_unitary_op(br.amps, op, n)))
        branches = nxt
    return branches


def sample(circ: Circuit, input_state, shots: int, seed: int) -> dict[tuple[int, ...], int]:
    """Draw measurement records shot by shot; returns clbit-word counts."""
    rng = np.random.default_rng(seed)
    amps0 = input_state.amps if isinstance(input_state, StateVector) else np.asarray(input_state)
    n = circ.num_qubits
    counts: dict[tuple[int, ...], int] = {}
    for _ in range(shots):
        amps = np.array(amps0, dtype=np.complex128).reshape(-1)
        clbits: dict[int, int] = {}
        for op in circ.ops:
            match op:
                case Measure(q, c):
                    p1 = float(np.sum(np.abs(amps[_bit_mask(n, [q])]) ** 2))
                    value = int(rng.random() < p1)
                    amps = _project_bit(amps, q, value, n)
                    amps /= np.linalg.norm(amps)
                    clbits[c] = value
                case Reset(q):
                    p1 = float(np.sum(np.abs(amps[_bit_mask(n, [q])]) ** 2))
                    if rng.random() < p1:
                        amps = _move_bit_to_zero(amps, q, n)
                    else:
                        amps = _project_bit(amps, q, 0, n)
                    amps /= np.linalg.norm(amps)
                case Conditional(c, gate):
                    if clbits.get(c, 0) == 1:
                        amps = _apply_unitary_op(amps, gate, n)
                case _:
                    amps = _apply_unitary_op(amps, op, n)
        word = tuple(clbits.get(c, 0) for c in range(circ.num_clbits))
        counts[word] = counts.get(word, 0) + 1
    return counts


def clbit_distribution(circ: Circuit, input_state) -> dict[tuple[int, ...], float]:
    """Exact probability of each classical readout word."""
    dist: dict[tuple[int, ...], float] = {}
    for br in enumerate_branches(circ, input_state):
        word = br.clbit_word(circ.num_clbits)
        dist[word] = dist.get(word, 0.0) + br.probability
    return dist


def unitary_matrix(circ: Circuit) -> np.ndarray:
    """Dense matrix of a measurement-free circuit."""
    if not circ.is_unitary_only():
        raise ValueError("circuit contains measurements, resets, or classical control")
    dim = 1 << circ.num_qubits
    cols = np.eye(dim, dtype=np.complex128)
    for op in circ.ops:
        for j in range(dim):
            cols[:, j] = _apply_unitary_op(cols[:, j], op, circ.num_qubits)
    return cols


# ---------------------------------------------------------------------------
# Induced channels
# ---------------------------------------------------------------------------

_AUX_PURITY_TOL = 1e-9


class AuxiliaryEntangledError(RuntimeError):
    """The auxiliary register did not disentangle: an uncompute bug."""


def induced_superoperator(circ: Circuit, system_qubits) -> list[np.ndarray]:
    """Kraus operators of the channel the circuit applies to the system.

    Auxiliary qubits (everything not in ``system_qubits``) start in |0> and
    must end, branch by branch, in a state that factors from the system
    (marginal purity above 1 - 1e-9); otherwise AuxiliaryEntangledError is
    raised. Returns one Kraus operator per outcome branch, so the channel is
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

    kraus: dict[tuple, np.ndarray] = {}
    aux_ref: dict[tuple, np.ndarray] = {}

    for x in range(dim_s):
        amps = np.zeros(1 << n, dtype=np.complex128)
        start = 0
        for pos, q in enumerate(system_qubits):
            start |= (((x >> pos) & 1) << q)
        amps[start] = 1.0
        for br in enumerate_branches(circ, amps):
            psi = np.zeros(1 << n, dtype=np.complex128)
            psi[scatter] = br.amps
            psi = psi.reshape(1 << na, dim_s)  # [aux, system]
            if br.key not in aux_ref:
                # Fix the auxiliary reference state from the dominant
                # eigenvector of the aux marginal; its phase is pinned so
                # Kraus columns from different inputs stay consistent.
                rho_aux = psi @ psi.conj().T
                tr = np.trace(rho_aux).real
                purity = float(np.trace(rho_aux @ rho_aux).real) / tr**2
                if purity < 1.0 - _AUX_PURITY_TOL:
                    raise AuxiliaryEntangledError(
                        f"auxiliary purity {purity:.6f} on branch {br.key}"
                    )
                w, v = np.linalg.eigh(rho_aux)
                ref = v[:, -1]
                pivot = np.argmax(np.abs(ref))
                ref = ref * np.exp(-1j * np.angle(ref[pivot]))
                aux_ref[br.key] = ref
                kraus[br.key] = np.zeros((dim_s, dim_s), dtype=np.complex128)
            column = aux_ref[br.key].conj() @ psi
            residual = np.linalg.norm(psi - np.outer(aux_ref[br.key], column))
            if residual > 1e-7:
                raise AuxiliaryEntangledError(
                    f"auxiliary register correlated with the system on branch {br.key} "
                    f"(residual {residual:.3e})"
                )
            kraus[br.key][:, x] = column

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


def probe_states(dim: int) -> list[np.ndarray]:
    """Tomographically complete family of pure-state density matrices:
    basis states plus two-level real and imaginary superpositions."""
    probes = []
    for i in range(dim):
        v = np.zeros(dim, dtype=np.complex128)
        v[i] = 1.0
        probes.append(np.outer(v, v.conj()))
    for i in range(dim):
        for j in range(i + 1, dim):
            for amp in (1.0, 1.0j):
                v = np.zeros(dim, dtype=np.complex128)
                v[i] = 1.0 / np.sqrt(2.0)
                v[j] = amp / np.sqrt(2.0)
                probes.append(np.outer(v, v.conj()))
    return probes


def channel_distance(kraus_a, kraus_b, probes=None) -> float:
    """Max output trace distance over a spanning family of input states.

    Zero exactly when the two channels are equal as maps (the probe family
    spans operator space); used as the diamond-norm proxy for oracle
    validation.
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
    return channel_distance(kraus_a, kraus_b, probes=probe_states(dim)[:dim])
