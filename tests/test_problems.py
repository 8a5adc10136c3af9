"""Instances, constraints, penalty relaxation, metrics."""

import json
import math

import numpy as np
import pytest

from zenopt.operators import bit_matrix
from zenopt.problems import (
    InstanceConfig,
    LinearConstraint,
    PortfolioInstance,
    Sense,
    cost_scale,
    evaluate_metrics,
    feasible_span,
    feasible_states,
    generate_instance,
    initial_state_uniform_feasible,
    penalty_objective,
)
from zenopt.qcore import StateVector


def brute_objective(inst, x):
    # independent re-implementation of q*x'Sx - mu'x
    total = 0.0
    for i in range(inst.n):
        for j in range(inst.n):
            total += inst.q * x[i] * inst.sigma[i, j] * x[j]
    return total - sum(inst.mu[i] * x[i] for i in range(inst.n))


def test_objective_values():
    inst = generate_instance(4, 7)
    assert inst.objective_value([0, 0, 0, 0]) == 0.0
    with pytest.raises(ValueError):
        inst.objective_value([1, 0])
    ident = PortfolioInstance(
        n=3, q=1.0, sigma=np.eye(3), mu=np.zeros(3),
        constraints=(LinearConstraint((1.0, 1.0, 1.0), Sense.LEQ, 3.0),),
    )
    for x in ([1, 0, 0], [1, 1, 0], [1, 1, 1]):
        assert ident.objective_value(x) == sum(x)


def test_objective_matches_brute_force_oracle():
    inst = generate_instance(4, 3)
    for idx in range(16):
        x = bit_matrix(4)[idx]
        assert abs(inst.objective_value(x) - brute_objective(inst, x)) < 1e-12


def test_generation_is_deterministic():
    a = generate_instance(4, 7)
    b = generate_instance(4, 7)
    assert a.to_json() == b.to_json()
    np.testing.assert_array_equal(a.sigma, b.sigma)


def test_default_budget_feasible_set():
    inst = generate_instance(4, 7)
    assert feasible_states(inst).rank == 11  # Hamming weight <= 2


def test_multi_constraint_feasible_set_is_intersection():
    base = generate_instance(4, 7)
    multi = generate_instance(4, 7, InstanceConfig(return_constraint=True))
    f_base = set(feasible_states(base).indices)
    f_multi = set(feasible_states(multi).indices)
    assert f_multi and f_multi < f_base


def test_feasible_states_match_per_state_predicate_loop():
    # Reference: each basis state's bit vector tested one at a time, and the
    # return threshold taken over a list of budget-feasible returns.
    for n in range(2, 9):
        for seed in (0, 5):
            for cfg in (InstanceConfig(), InstanceConfig(return_constraint=True)):
                inst = generate_instance(n, seed, cfg)
                rows = [np.array([(x >> j) & 1 for j in range(n)], dtype=float)
                        for x in range(1 << n)]
                expected = [x for x, row in enumerate(rows)
                            if all(c.satisfied(row) for c in inst.constraints)]
                assert feasible_states(inst).indices.tolist() == expected
                if cfg.return_constraint:
                    budget = inst.constraints[0].rhs
                    returns = [float(row @ inst.mu) for row in rows if row.sum() <= budget]
                    assert inst.constraints[1].rhs == float(np.median(returns))


def test_satisfied_takes_a_vector_or_a_matrix():
    c = LinearConstraint((1.0, -2.0, 1.0), Sense.GEQ, 0.0)
    table = bit_matrix(3)
    mask = c.satisfied(table)
    assert mask.dtype == bool and mask.shape == (8,)
    assert mask.tolist() == [c.satisfied(row) for row in table]
    assert isinstance(c.satisfied(table[0]), bool)


def test_constraint_validation():
    with pytest.raises(ValueError):
        LinearConstraint((0.0, 0.0), Sense.EQ, 0.0)
    with pytest.raises(ValueError):
        generate_instance(13, 0)
    with pytest.raises(ValueError):
        PortfolioInstance(
            n=2, q=0.5, sigma=np.array([[1.0, 0.5], [0.4, 1.0]]),
            mu=np.zeros(2), constraints=(),
        )


NON_FINITE = {
    "q-nan": ("q", math.nan), "q-inf": ("q", math.inf),
    "sigma-nan": ("sigma", np.array([[1.0, math.nan], [math.nan, 1.0]])),
    "mu-inf": ("mu", np.array([math.inf, 0.0])),
    "coeffs-nan": ("coeffs", (1.0, math.nan)), "rhs-nan": ("rhs", math.nan),
    "rhs-inf": ("rhs", -math.inf),
}


@pytest.mark.parametrize("case", list(NON_FINITE))
def test_non_finite_field_is_refused_by_name(case):
    name, value = NON_FINITE[case]
    con = {"coeffs": (1.0, 1.0), "sense": Sense.LEQ, "rhs": 1.0}
    inst = {"n": 2, "q": 0.5, "sigma": np.eye(2), "mu": np.zeros(2)}
    (con if name in con else inst)[name] = value
    with pytest.raises(ValueError, match=f"^(constraint )?{name} must be finite"):
        PortfolioInstance(**inst, constraints=(LinearConstraint(**con),))


@pytest.mark.parametrize("length", [3, 5])
def test_constraint_length_is_refused_by_name(length):
    con = LinearConstraint((1.0,) * length, Sense.LEQ, 2.0)
    with pytest.raises(ValueError, match=f"^constraint 1 \\(LEQ\\) has {length} coefficients for 4 assets"):
        PortfolioInstance(n=4, q=0.5, sigma=np.eye(4), mu=np.zeros(4),
                          constraints=(LinearConstraint((1.0,) * 4, Sense.GEQ, 1.0), con))


def test_instance_json_round_trip():
    inst = generate_instance(5, 9, InstanceConfig(return_constraint=True))
    text = inst.to_json()
    data = json.loads(text)
    assert set(data) == {"n", "q", "sigma", "mu", "constraints"}
    assert data["constraints"][0]["sense"] == "LEQ"
    back = PortfolioInstance.from_json(text)
    assert back.to_json() == text
    with pytest.raises(ValueError):
        PortfolioInstance.from_dict({"n": 4})


def test_initial_state_uniform_feasible():
    inst = generate_instance(4, 7)
    feas = feasible_states(inst)
    psi = initial_state_uniform_feasible(feas)
    assert np.count_nonzero(psi.amps) == 11
    np.testing.assert_allclose(
        psi.amps[feas.indices], np.full(11, 1.0 / math.sqrt(11.0)), atol=1e-15
    )
    full = initial_state_uniform_feasible(feasible_states(
        PortfolioInstance(
            n=2, q=0.5, sigma=np.eye(2), mu=np.ones(2),
            constraints=(LinearConstraint((1.0, 1.0), Sense.LEQ, 2.0),),
        )
    ))
    np.testing.assert_allclose(full.amps, StateVector.uniform(2).amps, atol=1e-15)


def test_initial_state_rejects_empty_set():
    from zenopt.operators import Projector

    with pytest.raises(ValueError):
        initial_state_uniform_feasible(Projector(2, []))


# ---------------------------------------------------------------------------
# Penalty relaxation
# ---------------------------------------------------------------------------


def equality_instance():
    return PortfolioInstance(
        n=4, q=0.5, sigma=np.eye(4), mu=np.array([0.3, 0.2, 0.1, 0.4]),
        constraints=(LinearConstraint((2.0, -1.0, -1.0, 0.0), Sense.EQ, 0.0),),
    )


def test_equality_penalty_vanishes_exactly_on_feasible_set():
    inst = equality_instance()
    relax = penalty_objective(inst, [1.0])
    assert relax.n_slack == 0
    f = inst.objective_table()
    feas = feasible_states(inst)
    for idx in range(16):
        bits = bit_matrix(4)[idx]
        g = 2 * bits[0] - bits[1] - bits[2]
        expected = f[idx] + g**2
        assert abs(relax.diagonal[idx] - expected) < 1e-12
        if idx in feas.indices:
            assert relax.diagonal[idx] == pytest.approx(f[idx])


def test_budget_penalty_slack_register():
    inst = generate_instance(4, 7)  # budget sum x <= 2
    relax = penalty_objective(inst, [1.0])
    # g_max = 2 is a power of two: the wider register must represent slack 2
    assert relax.slack_widths == (2,)
    assert relax.total_qubits == 6
    f = inst.objective_table()
    feas = set(feasible_states(inst).indices)
    # minimum over slack vanishes exactly when x is feasible
    for x in range(16):
        over_slack = [relax.diagonal[(s << 4) | x] - f[x] for s in range(4)]
        if x in feas:
            assert min(over_slack) == pytest.approx(0.0, abs=1e-12)
        else:
            assert min(over_slack) > 1e-9


def reference_penalty_diagonal(inst, lambdas, widths, slack_spacings):
    """The extended diagonal assembled one slack state at a time."""
    n = inst.n
    x_table = bit_matrix(n)
    penalties_eq = np.zeros(1 << n)
    slack_terms = []
    for c, lam, width, spacing in zip(inst.constraints, lambdas, widths, slack_spacings):
        a, const = c.slack_form()
        g_vals = x_table @ a + const
        if c.sense == Sense.EQ:
            penalties_eq += lam * g_vals**2
        else:
            slack_terms.append((g_vals, 1.0 if spacing is None else float(spacing), width, lam))
    f_table = inst.objective_table() + penalties_eq
    total_slack = sum(widths)
    diag = np.empty(1 << (n + total_slack))
    for s_idx in range(1 << total_slack):
        total = f_table.copy()
        offset = 0
        for g_vals, dg, width, lam in slack_terms:
            bits = (s_idx >> offset) & ((1 << width) - 1)
            total += lam * (g_vals - dg * bits) ** 2
            offset += width
        diag[s_idx << n : (s_idx + 1) << n] = total
    return diag


def test_penalty_diagonal_matches_per_slack_state_loop():
    from zenopt.problems import default_slack_spacings

    rng = np.random.default_rng(3)
    cases = [(equality_instance(), [None])]
    for n in range(2, 9):
        for cfg in (InstanceConfig(), InstanceConfig(return_constraint=True)):
            inst = generate_instance(n, n + 10, cfg)
            cases.append((inst, default_slack_spacings(inst)))
    for inst, spacings in cases:
        lambdas = [float(v) for v in rng.uniform(0.1, 5.0, size=len(inst.constraints))]
        relax = penalty_objective(inst, lambdas, spacings)
        ref = reference_penalty_diagonal(inst, lambdas, relax.slack_widths, spacings)
        assert np.array_equal(relax.diagonal, ref)


def test_zero_lambda_recovers_plain_objective_everywhere():
    inst = generate_instance(4, 2)
    relax = penalty_objective(inst, [0.0])
    f = inst.objective_table()
    for s in range(1 << relax.n_slack):
        np.testing.assert_allclose(relax.diagonal[(s << 4):((s + 1) << 4)], f, atol=1e-15)


def test_large_lambda_minimum_is_feasible():
    # lambda above the objective span forces the relaxed minimum onto a
    # feasible assignment with consistent slack (enumeration at n <= 6)
    for n, seed in ((4, 1), (5, 4), (6, 2)):
        inst = generate_instance(n, seed)
        f = inst.objective_table()
        lam = float(f.max() - f.min()) + 1.0
        relax = penalty_objective(inst, [lam])
        best = int(np.argmin(relax.diagonal))
        x = best & ((1 << n) - 1)
        assert x in set(feasible_states(inst).indices)
        assert relax.diagonal[best] == pytest.approx(f[x], abs=1e-9)


def test_penalty_rejects_bad_inputs():
    inst = generate_instance(4, 7)
    with pytest.raises(ValueError):
        penalty_objective(inst, [1.0, 2.0])  # wrong count
    with pytest.raises(ValueError):
        penalty_objective(inst, [-1.0])
    non_integer = PortfolioInstance(
        n=2, q=0.5, sigma=np.eye(2), mu=np.array([0.3, 0.6]),
        constraints=(LinearConstraint((0.5, 1.0), Sense.GEQ, 0.25),),
    )
    with pytest.raises(ValueError):
        penalty_objective(non_integer, [1.0])
    # an explicit slack spacing makes it representable
    relax = penalty_objective(non_integer, [1.0], slack_spacings=[0.25])
    assert relax.n_slack >= 1


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def test_metrics_on_pure_basis_states():
    inst = generate_instance(4, 7)
    span = feasible_span(inst)
    best = evaluate_metrics(StateVector.basis(4, span.best_index), inst)
    assert best["r"] == pytest.approx(1.0)
    assert best["in_constraint_prob"] == pytest.approx(1.0)
    worst = evaluate_metrics(StateVector.basis(4, span.worst_index), inst)
    assert worst["r"] == pytest.approx(0.0, abs=1e-12)


def test_metrics_uniform_feasible_matches_enumeration():
    inst = generate_instance(4, 7)
    feas = feasible_states(inst)
    psi = initial_state_uniform_feasible(feas)
    metrics = evaluate_metrics(psi, inst)
    f = inst.objective_table()[feas.indices]
    span = feasible_span(inst)
    expected = (f.mean() - span.f_max) / (span.f_min - span.f_max)
    assert metrics["r"] == pytest.approx(expected, abs=1e-12)
    assert metrics["in_constraint_prob"] == pytest.approx(1.0)


def test_r_affine_in_objective_and_bounded_on_feasible_states():
    inst = generate_instance(5, 6)
    span = feasible_span(inst)
    for idx in feasible_states(inst).indices:
        m = evaluate_metrics(StateVector.basis(5, int(idx)), inst)
        f = inst.objective_table()[idx]
        assert 0.0 <= m["r"] <= 1.0 + 1e-12
        assert m["r"] == pytest.approx((f - span.f_max) / (span.f_min - span.f_max))


def test_metrics_on_relaxed_register():
    inst = generate_instance(4, 7)
    relax = penalty_objective(inst, [2.0])
    # uniform over the extended register
    psi = StateVector.uniform(relax.total_qubits)
    m = evaluate_metrics(psi, inst, relaxation=relax)
    assert 0.0 < m["in_constraint_prob"] < 1.0
    assert m["in_constraint_prob"] == pytest.approx(11.0 / 16.0)
    assert "r_penalty" in m
    fp = relax.diagonal
    expected_rp = (fp.mean() - fp.max()) / (fp.min() - fp.max())
    assert m["r_penalty"] == pytest.approx(expected_rp, abs=1e-12)


def test_degenerate_instance_rejected():
    inst = PortfolioInstance(
        n=2, q=0.0, sigma=np.zeros((2, 2)), mu=np.zeros(2),
        constraints=(LinearConstraint((1.0, 1.0), Sense.LEQ, 2.0),),
    )
    with pytest.raises(ValueError):
        feasible_span(inst)
    with pytest.raises(ValueError):
        evaluate_metrics(StateVector.uniform(2), inst)


def test_default_slack_spacings():
    from zenopt.problems import default_slack_spacings

    budget_only = generate_instance(4, 7)
    assert default_slack_spacings(budget_only) == [None]  # integer coefficients
    multi = generate_instance(4, 2, InstanceConfig(return_constraint=True))
    spacings = default_slack_spacings(multi, bits=3)
    assert spacings[0] is None
    assert spacings[1] is not None and spacings[1] > 0
    # the widest representable slack covers the largest achievable one
    relax = penalty_objective(multi, [1.0, 1.0], slack_spacings=spacings)
    assert relax.slack_widths[1] == 3


def test_cost_scale_positive():
    inst = generate_instance(4, 7)
    f = inst.objective_table()
    assert cost_scale(inst) == pytest.approx(float(f.max() - f.min()))


