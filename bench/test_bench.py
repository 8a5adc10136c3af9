"""Self-test of the benchmark: python3 -m pytest bench/test_bench.py -q

* the references agree with zenopt at n <= 4;
* every check fails on a deliberately perturbed output;
* every workload runs end to end at reduced size, untraced and traced.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import reference as ref  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from zenopt import ansatz, experiments, oraclesim, problems, zeno  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def instance(n, seed, returns=False):
    return problems.generate_instance(n, seed, problems.InstanceConfig(return_constraint=returns))


# ---------------------------------------------------------------------------
# References agree with the program
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,seed,returns", [(2, 0, False), (3, 4, True), (4, 7, True)])
def test_problem_tables_match(n, seed, returns):
    inst = instance(n, seed, returns)
    problem = inst.to_dict()
    np.testing.assert_allclose(ref.objective_table(problem), inst.objective_table(), atol=1e-12)
    np.testing.assert_array_equal(ref.feasible_mask(problem), problems.feasible_states(inst).mask())
    assert ref.cost_span(problem) == pytest.approx(problems.cost_scale(inst), abs=1e-12)
    lambdas = [0.7] * len(inst.constraints)
    relax = problems.penalty_objective(inst, lambdas, problems.default_slack_spacings(inst))
    np.testing.assert_allclose(ref.penalty_diagonal(problem, lambdas), relax.diagonal, atol=1e-10)


@pytest.mark.parametrize("kind", ["x", "cg"])
def test_measured_qaoa_matches(kind):
    inst = instance(4, 3)
    bundle = experiments.ProblemBundle.build(inst)
    problem = inst.to_dict()
    params = ansatz.QaoaParams((0.9, -0.6), (0.5, 1.7))
    schedule = zeno.ZenoSchedule.from_eta(0.3)
    counts = schedule.mixer_counts(experiments.make_mixer(kind, 4), params.betas)
    assert ref.eta_counts(params.betas, 0.3) == counts
    rho = ansatz.run_qaoa_zeno(
        bundle.cost_scaled, experiments.make_mixer(kind, 4), bundle.measurement, params, schedule, bundle.initial
    )
    mixer = ref.transverse_field_matrix(4) if kind == "x" else ref.rank_one_uniform_matrix(4)
    rho_ref = ref.qaoa_zeno(
        ref.objective_table(problem) / ref.cost_span(problem), mixer, ref.feasible_mask(problem),
        params.betas, params.gammas, counts, workloads.uniform_feasible(problem),
    )
    np.testing.assert_allclose(rho.mat, rho_ref, atol=1e-12)
    assert ref.check_density(rho.mat) == []
    got = problems.evaluate_metrics(rho, inst)
    assert ref.check_metrics(got, ref.metrics_from_probabilities(problem, np.real(np.diag(rho_ref)))) == []


def test_penalty_qaoa_and_metrics_match():
    inst = instance(3, 2, returns=True)
    bundle = experiments.ProblemBundle.build(inst)
    problem = inst.to_dict()
    relax, cost, mixer, scale = experiments.penalty_setup(bundle, [1.0, 2.0], "x")
    params = ansatz.QaoaParams((0.4,), (1.1,))
    psi = ansatz.run_qaoa_penalty(cost, mixer, params)
    diag = ref.penalty_diagonal(problem, (1.0, 2.0))
    size = diag.size
    psi_ref = ref.qaoa_pure(
        diag / (diag.max() - diag.min()), ref.transverse_field_matrix(relax.total_qubits),
        params.betas, params.gammas, np.full(size, 1 / math.sqrt(size), dtype=complex),
    )
    np.testing.assert_allclose(psi.amps, psi_ref, atol=1e-12)
    got = problems.evaluate_metrics(psi, inst, relaxation=relax)
    want = ref.metrics_from_probabilities(problem, np.abs(psi_ref) ** 2, diag)
    assert set(want) == {"r", "in_constraint_prob", "r_penalty"}
    assert ref.check_metrics(got, want) == []


@pytest.mark.parametrize("n,p", [(2, 1), (3, 2), (4, 1)])
def test_layered_circuit_matches(n, p):
    rng = np.random.default_rng(n * 10 + p)
    params = ansatz.LvqeParams.from_flat(n, p, rng.uniform(-math.pi, math.pi, n * (p + 1)))
    direct = ref.ladder_circuit_state(n, params.theta0, params.layer_thetas)
    np.testing.assert_allclose(ansatz.lvqe_statevector(params).amps, direct, atol=1e-12)
    inst = instance(n, 5)
    rho = ansatz.run_lvqe_zeno(problems.feasibility_measurement(inst), params, 3)
    gens = [(g.materialize(), a) for g, a in ansatz.lvqe_generators(params)]
    want = ref.measured_product(gens, 3, ref.feasible_mask(inst.to_dict()))
    np.testing.assert_allclose(rho.mat, want, atol=1e-12)


def test_oracle_kraus_passes_checks():
    inst = instance(4, 1)
    circuit = oraclesim.constraint_measurement_circuit(inst.constraints[0], 4, 3).circuit
    kraus = oraclesim.induced_superoperator(circuit, range(4))
    assert ref.check_kraus(kraus, ref.feasible_mask(inst.to_dict()), np.random.default_rng(0)) == []


# ---------------------------------------------------------------------------
# Every check fails on a perturbed output
# ---------------------------------------------------------------------------


def pure_density(n=3, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def test_density_check_catches_each_invariant():
    rho = pure_density()
    assert ref.check_density(rho) == []
    skew = rho.copy()
    skew[0, 1] += 1e-6
    assert any("Hermitian" in e for e in ref.check_density(skew))
    assert any("trace" in e for e in ref.check_density(rho * 1.001))
    negative = rho - 1e-6 * np.eye(rho.shape[0]) + 1e-6 * rho.shape[0] * np.diag([1.0] + [0.0] * 7)
    assert any("eigenvalue" in e for e in ref.check_density(negative))


def test_metric_and_close_checks_catch_perturbations():
    want = {"r": 0.5, "in_constraint_prob": 0.9}
    assert ref.check_metrics(dict(want), want) == []
    assert ref.check_metrics({"r": 0.5 + 1e-9, "in_constraint_prob": 0.9}, want)
    assert ref.check_metrics({"r": 0.5}, want)
    assert ref.check_close("x", [1.0, float("nan")], [1.0, 1.0], 1e-3)
    assert ref.check_close("x", np.ones(3), np.ones(4), 1.0)


def test_kraus_check_catches_each_fault():
    inst = instance(3, 1)
    feasible = ref.feasible_mask(inst.to_dict())
    good = [np.diag(feasible.astype(complex)), np.diag((~feasible).astype(complex))]
    rng = np.random.default_rng(0)
    assert ref.check_kraus(good, feasible, rng) == []
    assert ref.check_kraus(good[:1], feasible, rng)  # incomplete
    shifted = np.roll(feasible, 1)
    assert ref.check_kraus(good, shifted, rng)  # wrong feasible block
    unitary = [np.eye(feasible.size)[::-1].astype(complex)]
    assert ref.check_kraus(unitary, feasible, rng)  # complete, but the wrong channel


def test_optimizer_check_and_fingerprint_catch_one_ulp():
    report = type("Report", (), {"best_value": 0.25})()
    assert workloads.optimizer_errors(report, 0.25) == []
    assert workloads.optimizer_errors(report, np.nextafter(0.25, 1.0))
    a = {"r": 0.25, "x": np.arange(3.0)}
    b = {"r": np.nextafter(0.25, 1.0), "x": np.arange(3.0)}
    assert worker.fingerprint(a) == worker.fingerprint(dict(a))
    assert worker.fingerprint(a) != worker.fingerprint(b)


def perturbed(output):
    """The same output with one number moved: metric ``r`` by 1e-6, or, for
    the oracle, every Kraus operator scaled by 0.999."""
    if isinstance(output, dict):
        return {**output, "r": output["r"] + 1e-6}
    if isinstance(output, tuple) and len(output) == 3:
        return (output[0], output[1], perturbed(output[2]))
    kraus, distance = output
    return [k * 0.999 for k in kraus], distance


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_checks_pass_then_catch_perturbation(name):
    workload = workloads.WORKLOADS[name](smoke=True)
    workload.setup(3)
    ops = workload.ops()
    outputs = worker.run_round(ops)
    assert not any(isinstance(o, Exception) for o in outputs)
    assert workload.evaluations(outputs) >= 1
    for k in range(len(ops)):
        assert workload.verify(k, outputs) == [], ops[k][0]
    index, errors = workload.dense_reference(outputs)
    assert errors == []
    for k in range(len(ops)):
        bad = list(outputs)
        bad[k] = perturbed(outputs[k])
        assert workload.verify(k, bad), f"{ops[k][0]}: perturbed output passed"
    bad = list(outputs)
    bad[index] = perturbed(outputs[index])
    assert workload.dense_reference(bad)[1], "perturbed output passed the dense reference"


# ---------------------------------------------------------------------------
# Smoke runs through the command
# ---------------------------------------------------------------------------


def run_command(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    done = run_command(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for value in result["metrics"].values():
        assert math.isfinite(value["value"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_command(tmp_path, "zeno-opt-n6", 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_computed_bytes_model():
    # One transverse-field step on an n = 10 density matrix: 4n passes of 16 MiB.
    import tracing

    assert tracing.computed_bytes("tf", "dm", 10) == 40 * 16 * (1 << 20)
    assert tracing.computed_bytes("diag", "sv", 3) == 2 * 16 * 8
