"""Reference implementations the benchmark checks zenopt's outputs against.

Nothing here imports zenopt. Each reference is written from the definition
it checks, in the plainest form:

* the objective and the feasible set by enumerating every bitstring;
* the penalty diagonal by enumerating every slack value;
* evolutions as ``scipy.linalg.expm`` of dense generator matrices, and the
  non-selective measurement as an explicit sum of ``P rho P``;
* the layered circuit as explicit RY gates and CNOT ladders.

Bit order is little-endian, as in zenopt: bit ``j`` of a basis index is
variable ``x_{j+1}``. An instance is read as the plain dict that
``PortfolioInstance.to_dict`` writes (the instance JSON format).

The ``check_*`` functions return a list of failure messages, empty when the
output passes.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

#: Tolerance for quantities the program and the reference compute by the
#: same arithmetic in a different order (metrics, diagonals).
METRIC_TOL = 1e-10
#: Tolerance for states the reference computes by a different method
#: (dense matrix exponentials against structured kernels).
STATE_TOL = 1e-9


# ---------------------------------------------------------------------------
# Brute-force problem data
# ---------------------------------------------------------------------------


def bit_table(n: int) -> np.ndarray:
    """(2^n, n) table of every bitstring; row i holds the bits of index i."""
    idx = np.arange(1 << n)
    return ((idx[:, None] >> np.arange(n)[None, :]) & 1).astype(np.float64)


def objective_table(problem: dict) -> np.ndarray:
    """q x'Sx - mu'x for every bitstring."""
    x = bit_table(problem["n"])
    sigma = np.asarray(problem["sigma"], dtype=np.float64)
    mu = np.asarray(problem["mu"], dtype=np.float64)
    return problem["q"] * np.einsum("ij,jk,ik->i", x, sigma, x) - x @ mu


def _satisfied(lhs: np.ndarray, sense: str, rhs: float) -> np.ndarray:
    if sense == "EQ":
        return np.abs(lhs - rhs) <= 1e-9
    if sense == "LEQ":
        return lhs <= rhs + 1e-9
    return lhs >= rhs - 1e-9


def feasible_mask(problem: dict) -> np.ndarray:
    """True for every bitstring that satisfies all constraints."""
    x = bit_table(problem["n"])
    mask = np.ones(1 << problem["n"], dtype=bool)
    for c in problem["constraints"]:
        lhs = x @ np.asarray(c["coeffs"], dtype=np.float64)
        mask &= _satisfied(lhs, c["sense"], float(c["rhs"]))
    return mask


def cost_span(problem: dict) -> float:
    """Span of the objective over the whole cube (the phase-operator scale)."""
    table = objective_table(problem)
    span = float(table.max() - table.min())
    return span if span > 0 else 1.0


def penalty_diagonal(problem: dict, lambdas, slack_bits: int = 3) -> np.ndarray:
    """Penalty-relaxed objective over problem qubits plus slack registers.

    Each constraint is written as g(x) >= 0 (or g(x) = 0 for an equality).
    An equality adds lambda * g^2. An inequality gets a binary slack register
    of width ceil(log2(g_max/dg + 1)), where g_max is the largest g over the
    feasible set and dg is 1 for integer data or g_max/(2^slack_bits - 1)
    otherwise, and adds lambda * (g(x) - dg * s)^2. Slack registers sit above
    the problem qubits in constraint order. Every (x, s) pair is enumerated.
    """
    n = problem["n"]
    x = bit_table(n)
    feas = feasible_mask(problem)
    base = objective_table(problem)
    registers = []  # (g values, dg, width, lambda)
    for c, lam in zip(problem["constraints"], lambdas):
        a = np.asarray(c["coeffs"], dtype=np.float64)
        rhs = float(c["rhs"])
        g = rhs - x @ a if c["sense"] == "LEQ" else x @ a - rhs
        if c["sense"] == "EQ":
            base = base + lam * g**2
            continue
        integer = all(abs(v - round(v)) < 1e-12 for v in list(c["coeffs"]) + [rhs])
        g_max = float(g[feas].max())
        if integer:
            dg = 1.0
        else:
            dg = g_max / ((1 << slack_bits) - 1) if g_max > 1e-12 else 1.0
        levels = g_max / dg
        width = 0 if levels < 1e-12 else max(1, math.ceil(math.log2(levels + 1.0)))
        registers.append((g, dg, width, lam))

    total = sum(w for _, _, w, _ in registers)
    diag = np.empty(1 << (n + total))
    for s in range(1 << total):
        values = base.copy()
        offset = 0
        for g, dg, width, lam in registers:
            level = (s >> offset) & ((1 << width) - 1)
            values = values + lam * (g - dg * level) ** 2
            offset += width
        diag[s << n : (s + 1) << n] = values
    return diag


def metrics_from_probabilities(
    problem: dict, probs: np.ndarray, penalty_diag: np.ndarray | None = None
) -> dict[str, float]:
    """r, in_constraint_prob and (for a relaxed register) r_penalty.

    r = (E[f | feasible] - f_max) / (f_min - f_max) with f_min and f_max the
    extremes of f over the feasible set. On an extended register the problem
    qubits are the low bits, so their marginal sums over the slack index.
    """
    n = problem["n"]
    probs = np.asarray(probs, dtype=np.float64)
    marginal = probs.reshape(-1, 1 << n).sum(axis=0)
    feas = feasible_mask(problem)
    table = objective_table(problem)
    f_min, f_max = float(table[feas].min()), float(table[feas].max())
    p_in = float(marginal[feas].sum())
    expected = float((table[feas] * marginal[feas]).sum()) / p_in
    out = {"r": (expected - f_max) / (f_min - f_max), "in_constraint_prob": p_in}
    if penalty_diag is not None:
        lo, hi = float(penalty_diag.min()), float(penalty_diag.max())
        out["r_penalty"] = (float(penalty_diag @ probs) - hi) / (lo - hi)
    return out


def eta_counts(betas, eta: float) -> list[int]:
    """Measurement counts of the eta rule: N = max(1, ceil(beta^2 / eta))."""
    return [max(1, math.ceil(b * b / eta)) for b in betas]


# ---------------------------------------------------------------------------
# Dense generators, evolutions and measurements
# ---------------------------------------------------------------------------


def transverse_field_matrix(n: int) -> np.ndarray:
    """sum_k X_k as a dense matrix."""
    dim = 1 << n
    mat = np.zeros((dim, dim))
    idx = np.arange(dim)
    for k in range(n):
        mat[idx ^ (1 << k), idx] += 1.0
    return mat


def rank_one_uniform_matrix(n: int) -> np.ndarray:
    """Projector onto the uniform superposition, |+><+|."""
    dim = 1 << n
    return np.full((dim, dim), 1.0 / dim)


def evolve(state: np.ndarray, generator: np.ndarray, angle: float) -> np.ndarray:
    """exp(-i angle G) applied to a state vector, or conjugating a density matrix."""
    u = scipy.linalg.expm(-1j * angle * np.asarray(generator, dtype=np.complex128))
    if state.ndim == 1:
        return u @ state
    return u @ state @ u.conj().T


def measure(rho: np.ndarray, feasible: np.ndarray) -> np.ndarray:
    """Two-outcome non-selective measurement, sum_j P_j rho P_j, as matmuls."""
    out = np.zeros_like(rho)
    for block in (feasible, ~feasible):
        p = np.diag(block.astype(np.complex128))
        out += p @ rho @ p
    return out


def qaoa_zeno(
    cost_diag: np.ndarray,
    mixer: np.ndarray,
    feasible: np.ndarray,
    betas,
    gammas,
    counts,
    psi0: np.ndarray,
) -> np.ndarray:
    """Density matrix of measured QAOA: per layer, evolve by the cost, then
    split the mixer into N sub-steps with a measurement after each."""
    rho = np.outer(psi0, psi0.conj())
    cost = np.diag(cost_diag)
    for beta, gamma, n_meas in zip(betas, gammas, counts):
        rho = evolve(rho, cost, gamma)
        for _ in range(n_meas):
            rho = evolve(rho, mixer, beta / n_meas)
            rho = measure(rho, feasible)
    return rho


def qaoa_pure(cost_diag: np.ndarray, mixer: np.ndarray, betas, gammas, psi0) -> np.ndarray:
    """State vector of measurement-free QAOA."""
    psi = np.asarray(psi0, dtype=np.complex128)
    cost = np.diag(cost_diag)
    for beta, gamma in zip(betas, gammas):
        psi = evolve(psi, cost, gamma)
        psi = evolve(psi, mixer, beta)
    return psi


def measured_product(generators, n_meas: int, feasible: np.ndarray) -> np.ndarray:
    """One measured block over a product of (matrix, angle) evolutions,
    started from |0...0>: N passes at angle/N, each followed by a measurement."""
    dim = feasible.size
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[0, 0] = 1.0
    for _ in range(n_meas):
        for mat, angle in generators:
            rho = evolve(rho, mat, angle / n_meas)
        rho = measure(rho, feasible)
    return rho


def ladder_circuit_state(n: int, theta0, layer_thetas) -> np.ndarray:
    """Layered circuit by explicit gates: RY on every qubit, then per layer a
    CNOT ladder CNOT(0,1), CNOT(1,2), ... followed by RY on every qubit."""
    dim = 1 << n

    def on_qubit(u: np.ndarray, k: int) -> np.ndarray:
        return np.kron(np.kron(np.eye(1 << (n - 1 - k)), u), np.eye(1 << k))

    def ry(theta: float) -> np.ndarray:
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        return np.array([[c, -s], [s, c]])

    def cnot(control: int, target: int) -> np.ndarray:
        mat = np.zeros((dim, dim))
        for i in range(dim):
            j = i ^ (1 << target) if (i >> control) & 1 else i
            mat[j, i] = 1.0
        return mat

    psi = np.zeros(dim, dtype=np.complex128)
    psi[0] = 1.0
    for k in range(n):
        psi = on_qubit(ry(theta0[k]), k) @ psi
    for row in layer_thetas:
        for c in range(n - 1):
            psi = cnot(c, c + 1) @ psi
        for k in range(n):
            psi = on_qubit(ry(row[k]), k) @ psi
    return psi


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_density(rho: np.ndarray, tol: float = STATE_TOL) -> list[str]:
    """Hermitian, trace one and positive semi-definite."""
    errors = []
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > tol:
        errors.append(f"density matrix not Hermitian: max |rho - rho^H| = {herm:.3e}")
    trace = complex(np.trace(rho))
    if abs(trace - 1.0) > tol:
        errors.append(f"density matrix trace {trace:.12g} is not 1")
    low = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0])
    if low < -tol:
        errors.append(f"density matrix has eigenvalue {low:.3e} < 0")
    return errors


def check_close(name: str, got, want, tol: float) -> list[str]:
    """Max absolute difference of two arrays (or numbers) within ``tol``."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != reference shape {want.shape}"]
    diff = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not diff <= tol:
        return [f"{name}: differs from the reference by {diff:.3e} (tolerance {tol:g})"]
    return []


def check_metrics(got: dict, want: dict, tol: float = METRIC_TOL) -> list[str]:
    """Every reference metric is reported and agrees within ``tol``."""
    errors = []
    for key, value in want.items():
        if key not in got:
            errors.append(f"metric {key} missing")
        else:
            errors += check_close(f"metric {key}", got[key], value, tol)
    return errors


def check_kraus(kraus, feasible: np.ndarray, rng: np.random.Generator) -> list[str]:
    """The Kraus set is complete, one operator's support is exactly the
    feasible set, and on a random full-rank state the channel equals the
    two-outcome measurement."""
    errors = []
    dim = feasible.size
    completeness = sum(k.conj().T @ k for k in kraus)
    errors += check_close("sum K^H K", completeness, np.eye(dim), STATE_TOL)
    supports = [np.linalg.norm(k, axis=0) > 0.5 for k in kraus]
    if not any(np.array_equal(s, feasible) for s in supports):
        errors.append("no Kraus operator acts exactly on the brute-force feasible set")
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    channel = sum(k @ rho @ k.conj().T for k in kraus)
    errors += check_close("oracle channel output", channel, measure(rho, feasible), STATE_TOL)
    return errors
