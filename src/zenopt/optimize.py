"""Classical outer loop: multistart simplex search and exact gradients.

The local method is Nelder-Mead started from seeded uniform-random points in
a box; box bounds are enforced by reflecting the trial point back into the
box (a triangle-wave fold), which keeps the simplex unconstrained while every
objective evaluation happens inside the box. Everything is deterministic
given the seed.

For measured (Zeno) circuits whose generators are both unitary and Hermitian
the parameter-shift rule stays exact: differentiating a parameter that is
split across N sub-steps costs 2N expectation evaluations, one +/- pair per
sub-step, with the sub-step's rotation shifted by a quarter period.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from collections.abc import Callable, Sequence

import numpy as np
from scipy import optimize as sciopt

from . import operators as ops
from . import zeno
from .qcore import (
    DenseHermitian,
    Generator,
    State,
    StateVector,
    expectation,
)


@dataclass(frozen=True)
class OptimizationReport:
    best_params: np.ndarray
    best_value: float
    trace: tuple[tuple[int, float], ...]  # (evaluation index, best so far)
    restarts: int
    seed: int
    n_evaluations: int

    def __post_init__(self):
        params = np.array(self.best_params, dtype=np.float64)
        params.setflags(write=False)
        object.__setattr__(self, "best_params", params)


def _reflect_into_box(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    width = hi - lo
    period = 2.0 * width
    t = np.mod(x - lo, period)
    return lo + np.minimum(t, period - t)


def _single_start(objective, x0, lo, hi, maxfev):
    evals: list[float] = []

    def wrapped(x):
        value = float(objective(_reflect_into_box(x, lo, hi)))
        evals.append(value)
        return value

    result = sciopt.minimize(
        wrapped,
        x0,
        method="Nelder-Mead",
        options={"maxfev": maxfev, "xatol": 1e-6, "fatol": 1e-9, "adaptive": True},
    )
    best_x = _reflect_into_box(np.asarray(result.x, dtype=np.float64), lo, hi)
    return best_x, float(result.fun), evals


def optimize_params(
    objective: Callable[[np.ndarray], float],
    dim: int,
    box: Sequence[tuple[float, float]],
    restarts: int = 50,
    seed: int = 0,
    budget: int = 20_000,
    jobs: int = 1,
) -> OptimizationReport:
    """Minimize ``objective`` over a box with seeded multistart Nelder-Mead.

    ``budget`` caps the total number of objective evaluations, split evenly
    across restarts. Ties between restarts break toward the earlier start,
    so reports are reproducible bit-for-bit from the seed regardless of
    ``jobs``.
    """
    if budget < 1:
        raise ValueError("evaluation budget must be at least 1")
    if restarts < 1:
        raise ValueError("need at least one restart")
    box = list(box)
    if len(box) != dim or any(hi <= lo for lo, hi in box):
        raise ValueError("box must provide a (lo, hi) range with lo < hi per coordinate")
    lo = np.array([b[0] for b in box], dtype=np.float64)
    hi = np.array([b[1] for b in box], dtype=np.float64)

    rng = np.random.default_rng(seed)
    starts = [lo + (hi - lo) * rng.random(dim) for _ in range(restarts)]
    per_start = max(1, budget // restarts)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(
                pool.map(lambda x0: _single_start(objective, x0, lo, hi, per_start), starts)
            )
    else:
        results = [_single_start(objective, x0, lo, hi, per_start) for x0 in starts]

    trace: list[tuple[int, float]] = []
    best_x, best_val = None, math.inf
    count = 0
    for x, val, evals in results:
        for v in evals:
            count += 1
            if v < (trace[-1][1] if trace else math.inf):
                trace.append((count, v))
        if val < best_val:
            best_x, best_val = x, val

    return OptimizationReport(
        best_params=best_x,
        best_value=best_val,
        trace=tuple(trace),
        restarts=restarts,
        seed=seed,
        n_evaluations=count,
    )


# ---------------------------------------------------------------------------
# Parameter-shift gradients for measured circuits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZenoCircuit:
    """Measured parameterized evolution in block form.

    Each block is (generator, parameter index, measurement count). A block
    with count N >= 1 evolves by angle/N and measures, N times over; count 0
    is a plain unmeasured evolution. Generators used with the shift rule must
    square to the identity (unitary and Hermitian).
    """

    initial: StateVector
    blocks: tuple[tuple[Generator, int, int], ...]
    measurement: ops.Measurement

    def run(
        self,
        params: np.ndarray,
        shift_at: tuple[int, int, float] | None = None,
    ) -> State:
        """Evolve the initial state; ``shift_at`` = (block, sub-step, extra)
        inserts one extra rotation by ``extra`` at that sub-step."""
        state: State = self.initial.copy()
        for b, (gen, p_idx, n_meas) in enumerate(self.blocks):
            angle = float(params[p_idx])
            steps = max(1, n_meas)
            for k in range(steps):
                sub = angle / steps
                if shift_at is not None and shift_at[0] == b and shift_at[1] == k:
                    sub += shift_at[2]
                state = zeno.zeno_block(state, [(gen, sub)], self.measurement, min(n_meas, 1))
        return state

    def expectation(
        self,
        observable: Generator,
        params: np.ndarray,
        shift_at: tuple[int, int, float] | None = None,
    ) -> float:
        return expectation(self.run(params, shift_at), observable)


def parameter_shift_gradient(
    circuit: ZenoCircuit,
    observable: Generator,
    params: np.ndarray,
    index: int,
) -> float:
    """Exact derivative of the measured-circuit expectation w.r.t. one
    parameter.

    For a parameter split over N sub-steps the chain rule gives
    (1/N) * sum_k [E(+pi/4 at sub-step k) - E(-pi/4 at sub-step k)]: the
    quarter-period extra rotation realizes the commutator insertion exactly
    for involutory generators, so this matches finite differences to solver
    precision at a cost of 2N expectation evaluations.
    """
    params = np.asarray(params, dtype=np.float64)
    total = 0.0
    touched = False
    for b, (gen, p_idx, n_meas) in enumerate(circuit.blocks):
        if p_idx != index:
            continue
        touched = True
        if not (isinstance(gen, DenseHermitian) and gen.is_involution):
            raise ValueError(
                "parameter-shift needs a unitary-Hermitian generator; "
                "use finite differences for this block"
            )
        steps = max(1, n_meas)
        acc = 0.0
        for k in range(steps):
            plus = circuit.expectation(observable, params, (b, k, math.pi / 4))
            minus = circuit.expectation(observable, params, (b, k, -math.pi / 4))
            acc += plus - minus
        total += acc / steps
    if not touched:
        raise IndexError(f"no block uses parameter index {index}")
    return total


def finite_difference_gradient(
    value: Callable[[np.ndarray], float],
    params: np.ndarray,
    index: int,
    step: float = 1e-5,
) -> float:
    """Central finite differences, for validating the shift rule."""
    params = np.asarray(params, dtype=np.float64)
    up, down = params.copy(), params.copy()
    up[index] += step
    down[index] -= step
    return (value(up) - value(down)) / (2.0 * step)
