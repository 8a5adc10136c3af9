"""End-to-end CLI: subcommands, file formats, exit codes, determinism."""

import csv
import json
import math
import re
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from referencing import Registry, Resource

from zenopt import problems
from zenopt.cli import main
from zenopt.zeno import schedule_cor3
from zenopt.qcore import RankOneUniform, TransverseField


def load_schemas():
    base = Path(__import__("zenopt").__file__).parent / "schemas"
    instance = json.loads((base / "instance.schema.json").read_text())
    record = json.loads((base / "run_record.schema.json").read_text())
    registry = Registry().with_resource(
        "instance.schema.json", Resource.from_contents(instance)
    )
    return instance, record, registry


def run_cli(*args) -> int:
    return main(list(args))


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_run_qaoa_record_and_schema(tmp_path):
    out = tmp_path / "run.json"
    csv_path = tmp_path / "run.csv"
    code = run_cli(
        "run-qaoa", "--generate", "4,7", "--mixer", "cg", "--layers", "1",
        "--schedule", "eta=0.1", "--restarts", "8", "--budget", "2000",
        "--seed", "1", "--out", str(out), "--csv", str(csv_path),
    )
    assert code == 0
    record = json.loads(out.read_text())
    instance_schema, record_schema, registry = load_schemas()
    jsonschema.validate(record["instance"], instance_schema)
    jsonschema.validate(record, record_schema, registry=registry)
    assert record["metrics"]["in_constraint_prob"] >= 0.95
    assert record["config"]["schedule"] == "eta=0.1"
    rows = read_csv(csv_path)
    assert len(rows) == 1
    assert float(rows[0]["in_constraint_prob"]) == pytest.approx(
        record["metrics"]["in_constraint_prob"]
    )


def test_run_qaoa_is_deterministic(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run_cli(
            "run-qaoa", "--generate", "4,3", "--mixer", "x", "--layers", "1",
            "--schedule", "eta=0.4", "--restarts", "6", "--budget", "1200",
            "--seed", "9", "--out", str(out),
        ) == 0
        outs.append(json.loads(out.read_text()))
    a, b = outs
    assert a["metrics"] == b["metrics"]
    assert a["optimizer"]["best_params"] == b["optimizer"]["best_params"]


def test_manual_zero_schedule_is_unmeasured_passthrough(tmp_path):
    out = tmp_path / "run.json"
    assert run_cli(
        "run-qaoa", "--generate", "4,7", "--mixer", "x", "--layers", "1",
        "--schedule", "manual=0", "--restarts", "6", "--budget", "1500",
        "--seed", "4", "--out", str(out),
    ) == 0
    record = json.loads(out.read_text())
    assert record["metrics"]["total_measurements"] == 0.0
    # reproduce the unmeasured state directly and compare feasible mass
    from zenopt import ansatz, experiments

    inst = problems.PortfolioInstance.from_dict(record["instance"])
    bundle = experiments.ProblemBundle.build(inst)
    params = ansatz.QaoaParams.from_flat(np.asarray(record["optimizer"]["best_params"]))
    rho = ansatz.run_qaoa_zeno(
        bundle.cost_scaled, TransverseField(4), bundle.measurement, params,
        __import__("zenopt.zeno", fromlist=["ZenoSchedule"]).ZenoSchedule.manual([0]),
        bundle.initial,
    )
    metrics = problems.evaluate_metrics(rho, inst)
    assert metrics["in_constraint_prob"] == pytest.approx(
        record["metrics"]["in_constraint_prob"], abs=1e-12
    )


def test_penalty_conflicts_with_schedule():
    assert run_cli(
        "run-qaoa", "--generate", "4,7", "--penalty", "1.0",
        "--schedule", "eta=0.1",
    ) == 2


@pytest.mark.parametrize(
    "cap, source, message",
    [
        pytest.param("abc", "4,7", "ZENO_MAX_QUBITS", id="abc"),
        pytest.param("0", "4,7", "ZENO_MAX_QUBITS", id="0"),
        pytest.param("3", "4,7", "cap of 3", id="over-cap"),
        pytest.param("3", "file", "cap of 3", id="over-cap-file"),
        pytest.param(None, "13,1", "[2, 12]", id="too-many-assets"),
        pytest.param(None, "1,1", "[2, 12]", id="too-few-assets"),
    ],
)
def test_malformed_qubit_cap_is_a_validation_error(
    monkeypatch, tmp_path, capsys, cap, source, message
):
    """A malformed or exceeded qubit cap, or an asset count outside [2, 12],
    is a validation error, whether the instance is generated or loaded."""
    flags = ["--generate", source]
    if source == "file":
        path = tmp_path / "instance.json"
        path.write_text(problems.generate_instance(4, 7).to_json())
        flags = ["--instance", str(path)]
    if cap is not None:
        monkeypatch.setenv("ZENO_MAX_QUBITS", cap)
    assert run_cli("run-qaoa", *flags, "--schedule", "eta=0.1") == 2
    assert message in capsys.readouterr().err


def _exit_code(*args) -> int:
    """Exit code of ``main``, including argparse's own ``SystemExit``."""
    try:
        return run_cli(*args)
    except SystemExit as exc:
        return exc.code


NINE_VARIABLES = "1,1,1,1,1,1,1,1,1 LEQ 3"


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(["run-qaoa", "--generate", "4,7", "--layers", "0"],
                     "at least one parameter", id="run-qaoa-layers-0"),
        pytest.param(["run-lvqe", "--generate", "4,7", "--layers", "-1"],
                     "at least one parameter", id="run-lvqe-layers-minus-1"),
        pytest.param(["run-lvqe", "--generate", "4,7", "--restarts", "0"],
                     "at least one restart", id="run-lvqe-restarts-0"),
        pytest.param(["run-lvqe", "--generate", "4,7", "--measurements", "-1",
                      "--restarts", "1", "--budget", "2"],
                     "measurement count must be non-negative", id="run-lvqe-measurements"),
        pytest.param(["scaling-table", "--num-qubits", "3", "--deltas", "0.1",
                      "--layers", "0", "--csv", "OUT"],
                     "layer count must be positive", id="scaling-table-layers-0"),
        pytest.param(["scaling-table", "--num-qubits", "20", "--deltas", "0.1", "--csv", "OUT"],
                     "register size 20 exceeds the cap", id="scaling-table-20-qubits"),
        pytest.param(["compile-oracle", "--constraint", NINE_VARIABLES, "--precision", "4",
                      "--verify"],
                     "branch-enumeration cap", id="compile-oracle-13-qubits"),
        pytest.param(["compile-oracle", "--constraint", "1,1,1,1 LEQ 2", "--precision", "30",
                      "--verify"],
                     "34 qubits exceeds the branch-enumeration cap", id="compile-oracle-34-qubits"),
        pytest.param(["run-qaoa", "--generate", "4,7", "--restarts", "1", "--budget", "2",
                      "--jobs", "2"],
                     "invalid choice: 2", id="run-qaoa-jobs-2"),
        pytest.param(["run-lvqe", "--generate", "4,7", "--restarts", "1", "--budget", "2",
                      "--jobs", "2"],
                     "invalid choice: 2", id="run-lvqe-jobs-2"),
        pytest.param(["sweep", "eta", "--generate", "4,7", "--etas", "1.6", "--restarts", "1",
                      "--budget", "2", "--csv", "OUT", "--out", "OUT"],
                     "unrecognized arguments: --out", id="sweep-out"),
        pytest.param(["sweep", "eta", "--generate", "4,7", "--etas", "1.6", "--restarts", "1",
                      "--budget", "2", "--csv", "OUT", "--jobs", "-3"],
                     "sweep jobs must be at least 1, got -3", id="sweep-jobs-minus-3"),
        pytest.param(["run-qaoa", "--generate", "4,7", "--restarts", "1", "--budget", "0"],
                     "evaluation budget must be at least 1", id="run-qaoa-budget-0"),
        pytest.param(["run-lvqe", "--generate", "4,7", "--restarts", "1", "--budget", "0"],
                     "evaluation budget must be at least 1", id="run-lvqe-budget-0"),
        pytest.param(["sweep", "layers", "--generate", "4,2", "--return-constraint",
                      "--penalty", "1.0", "--layers-grid", "1", "--restarts", "1",
                      "--budget", "2", "--jobs", "1", "--csv", "OUT"],
                     "--penalty lists 1 factors for 2 constraints", id="sweep-layers-penalty-count"),
        pytest.param(["compile-oracle", "--constraint", "1,1 LEQ 1", "--precision", "0"],
                     "precision must be at least one bit, got 0", id="compile-oracle-precision-0"),
        # Counts above the per-block limit: each of these looped until killed.
        pytest.param(["run-qaoa", "--generate", "4,7", "--schedule", "eta=1e-300",
                      "--restarts", "1", "--budget", "2"],
                     "exceeds the per-block limit of 1000000", id="run-qaoa-eta-1e-300"),
        pytest.param(["run-qaoa", "--generate", "4,7", "--schedule", "theorem1",
                      "--delta", "1e-300", "--restarts", "1", "--budget", "2"],
                     "exceeds the per-block limit of 1000000", id="run-qaoa-theorem1-1e-300"),
        pytest.param(["run-qaoa", "--generate", "4,7", "--mixer", "cg", "--schedule", "cor3",
                      "--delta", "1e-12", "--restarts", "1", "--budget", "2"],
                     "exceeds the per-block limit of 1000000", id="run-qaoa-cg-cor3-1e-12"),
        pytest.param(["run-qaoa", "--generate", "4,7", "--schedule", "manual=100000000000",
                      "--restarts", "1", "--budget", "2"],
                     "measurement count 100000000000 exceeds the per-block limit",
                     id="run-qaoa-manual-1e11"),
        pytest.param(["sweep", "eta", "--generate", "4,7", "--etas", "1e-300", "--restarts", "1",
                      "--budget", "2", "--csv", "OUT"],
                     "exceeds the per-block limit of 1000000", id="sweep-eta-1e-300"),
    ],
)
def test_bad_input_exits_2(monkeypatch, tmp_path, capsys, args, message):
    """Bad input ends with exit code 2 and one message on stderr, whether
    argparse or the library refuses it."""
    monkeypatch.delenv("ZENO_MAX_QUBITS", raising=False)
    args = [str(tmp_path / "out") if a == "OUT" else a for a in args]
    assert _exit_code(*args) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(["run-qaoa", "--penalty", "nan"],
                     "penalty factors must be finite and non-negative, got nan", id="penalty-nan"),
        pytest.param(["run-qaoa", "--penalty", "inf"],
                     "penalty factors must be finite and non-negative, got inf", id="penalty-inf"),
        pytest.param(["sweep", "lambda", "--lambdas", "nan,1", "--csv", "OUT"],
                     "penalty factors must be finite and non-negative, got nan", id="lambdas-nan"),
        pytest.param(["run-qaoa", "--schedule", "eta=nan"],
                     "needs a finite positive eta, got nan", id="schedule-eta-nan"),
        pytest.param(["run-qaoa", "--schedule", "eta=inf"],
                     "needs a finite positive eta, got inf", id="schedule-eta-inf"),
        pytest.param(["sweep", "eta", "--etas", "nan", "--csv", "OUT"],
                     "needs a finite positive eta, got nan", id="etas-nan"),
    ],
)
def test_non_finite_input_exits_2(tmp_path, capsys, args, message):
    """A NaN or infinite penalty factor or eta is refused by name."""
    args = [str(tmp_path / "out") if a == "OUT" else a for a in args]
    small = ["--generate", "4,7", "--restarts", "1", "--budget", "4"]
    assert _exit_code(*args, *small) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("q", "NaN"), ("mu", "[Infinity, 0, 0, 0]"), ("rhs", "NaN")],
)
def test_non_finite_instance_exits_2(tmp_path, capsys, field, value):
    """An instance file with a NaN or infinite field is refused on loading."""
    data = problems.generate_instance(4, 7).to_dict()
    (data["constraints"][0] if field == "rhs" else data)[field] = json.loads(value)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    assert run_cli("run-qaoa", "--instance", str(path), "--restarts", "1", "--budget", "4") == 2
    err = capsys.readouterr().err
    assert "cannot load instance" in err and f"{field} must be finite" in err


@pytest.mark.parametrize("length", [3, 5])
def test_constraint_length_mismatch_exits_2(tmp_path, capsys, length):
    """An instance whose constraint does not have one coefficient per asset
    is refused on loading, not failed later by a matrix product."""
    data = problems.generate_instance(4, 7).to_dict()
    data["constraints"][0]["coeffs"] = [1.0] * length
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    assert run_cli("run-qaoa", "--instance", str(path), "--restarts", "1", "--budget", "4") == 2
    err = capsys.readouterr().err
    assert "cannot load instance" in err and f"constraint 0 (LEQ) has {length} coefficients" in err


def test_malformed_circuit_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bare.txt"
    path.write_text("QUBITS\nCLBITS 1\n")
    assert run_cli(
        "compile-oracle", "--constraint", "1,1 LEQ 1", "--precision", "3",
        "--check-file", str(path),
    ) == 2
    assert "cannot load circuit" in capsys.readouterr().err


def test_penalty_run_emits_r_penalty(tmp_path):
    out = tmp_path / "pen.json"
    assert run_cli(
        "run-qaoa", "--generate", "4,7", "--mixer", "x", "--layers", "1",
        "--penalty", "2.0", "--restarts", "6", "--budget", "1500",
        "--seed", "3", "--out", str(out),
    ) == 0
    record = json.loads(out.read_text())
    assert "r_penalty" in record["metrics"]
    assert record["metrics"]["total_measurements"] == 0.0


def test_instance_file_round_trip(tmp_path):
    inst = problems.generate_instance(4, 5)
    path = tmp_path / "instance.json"
    path.write_text(inst.to_json())
    out = tmp_path / "run.json"
    assert run_cli(
        "run-qaoa", "--instance", str(path), "--layers", "1",
        "--schedule", "eta=0.4", "--restarts", "4", "--budget", "800",
        "--seed", "0", "--out", str(out),
    ) == 0
    record = json.loads(out.read_text())
    assert record["instance"] == inst.to_dict()


def test_infeasible_instance_exit_code(tmp_path):
    inst = problems.PortfolioInstance(
        n=2, q=0.5, sigma=np.eye(2), mu=np.ones(2),
        constraints=(problems.LinearConstraint((1.0, 1.0), problems.Sense.GEQ, 5.0),),
    )
    path = tmp_path / "bad.json"
    path.write_text(inst.to_json())
    assert run_cli(
        "run-qaoa", "--instance", str(path), "--schedule", "eta=0.1",
        "--out", str(tmp_path / "x.json"),
    ) == 3


def test_run_lvqe(tmp_path):
    out = tmp_path / "lvqe.json"
    assert run_cli(
        "run-lvqe", "--generate", "4,7", "--layers", "1", "--measurements", "50",
        "--restarts", "6", "--budget", "3000", "--seed", "2", "--out", str(out),
    ) == 0
    record = json.loads(out.read_text())
    _, record_schema, registry = load_schemas()
    jsonschema.validate(record, record_schema, registry=registry)
    assert record["metrics"]["total_measurements"] == 50.0
    assert record["metrics"]["in_constraint_prob"] > 0.5


def test_run_lvqe_default_restarts(tmp_path):
    out = tmp_path / "lvqe.json"
    assert run_cli(
        "run-lvqe", "--generate", "4,7", "--measurements", "5", "--budget", "40",
        "--out", str(out),
    ) == 0
    record = json.loads(out.read_text())
    assert record["optimizer"]["restarts"] == 20
    assert record["optimizer"]["n_evaluations"] <= 40


def test_sweep_eta_csv(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    assert run_cli(
        "sweep", "eta", "--generate", "4,7", "--mixer", "cg", "--layers", "1",
        "--etas", "1.6,0.2", "--restarts", "4", "--budget", "800",
        "--seed", "5", "--jobs", "1", "--csv", str(csv_path),
    ) == 0
    rows = read_csv(csv_path)
    assert [r["value1"] for r in rows] == ["0.2", "1.6"]  # sorted by grid value
    assert list(rows[0]) == [
        "sweep_var", "value1", "value2", "r", "r_penalty",
        "in_constraint_prob", "total_measurements", "seed",
    ]
    # smaller eta means at least as many measurements
    assert float(rows[0]["total_measurements"]) >= float(rows[1]["total_measurements"])


def test_sweep_transfer_from_source(tmp_path):
    out = tmp_path / "source.json"
    assert run_cli(
        "run-qaoa", "--generate", "4,7", "--mixer", "x", "--layers", "1",
        "--schedule", "eta=1.6", "--restarts", "6", "--budget", "1500",
        "--seed", "8", "--out", str(out),
    ) == 0
    csv_path = tmp_path / "transfer.csv"
    assert run_cli(
        "sweep", "transfer", "--generate", "4,7", "--transfer-from", str(out),
        "--etas", "1.6,0.1,0.025", "--jobs", "1", "--csv", str(csv_path),
    ) == 0
    rows = read_csv(csv_path)
    assert len(rows) == 3
    by_eta = {float(r["value1"]): r for r in rows}
    # transferring to smaller eta boosts the in-constraint probability
    assert (float(by_eta[0.025]["in_constraint_prob"])
            >= float(by_eta[1.6]["in_constraint_prob"]) - 1e-9)
    # and the source-eta row reproduces the source run's metrics
    source = json.loads(out.read_text())
    assert float(by_eta[1.6]["r"]) == pytest.approx(source["metrics"]["r"], abs=1e-12)


def test_sweep_lambda_two_dim(tmp_path):
    csv_path = tmp_path / "grid.csv"
    assert run_cli(
        "sweep", "lambda", "--generate", "4,2", "--return-constraint",
        "--mixer", "cg", "--layers", "1", "--lambdas", "0.5,2.0",
        "--lambdas2", "0.5,2.0", "--restarts", "3", "--budget", "600",
        "--seed", "1", "--jobs", "1", "--csv", str(csv_path),
    ) == 0
    rows = read_csv(csv_path)
    assert len(rows) == 4
    assert {(r["value1"], r["value2"]) for r in rows} == {
        ("0.5", "0.5"), ("0.5", "2.0"), ("2.0", "0.5"), ("2.0", "2.0"),
    }


def test_sweep_layers(tmp_path):
    csv_path = tmp_path / "layers.csv"
    assert run_cli(
        "sweep", "layers", "--generate", "4,7", "--mixer", "cg",
        "--layers-grid", "1,2", "--schedule", "eta=0.4",
        "--restarts", "3", "--budget", "600", "--seed", "1", "--jobs", "1",
        "--csv", str(csv_path),
    ) == 0
    rows = read_csv(csv_path)
    assert [r["value1"] for r in rows] == ["1", "2"]
    # penalty variant, and the two modes conflict
    assert run_cli(
        "sweep", "layers", "--generate", "4,7", "--layers-grid", "1",
        "--penalty", "1.0", "--restarts", "3", "--budget", "600",
        "--seed", "1", "--jobs", "1", "--csv", str(csv_path),
    ) == 0
    assert run_cli(
        "sweep", "layers", "--generate", "4,7", "--layers-grid", "1",
        "--penalty", "1.0", "--schedule", "eta=0.4", "--csv", str(csv_path),
    ) == 2
    # a malformed or incomplete schedule is a validation error
    for schedule in ("eta=abc", "cor3"):
        assert run_cli(
            "sweep", "layers", "--generate", "4,7", "--layers-grid", "1",
            "--schedule", schedule, "--csv", str(csv_path),
        ) == 2


def test_sweep_parallel_jobs_match_serial(tmp_path):
    args = [
        "sweep", "eta", "--generate", "4,7", "--mixer", "cg", "--layers", "1",
        "--etas", "1.6,0.4,0.1", "--restarts", "3", "--budget", "600", "--seed", "2",
    ]
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert run_cli(*args, "--jobs", "1", "--csv", str(serial)) == 0
    assert run_cli(*args, "--jobs", "2", "--csv", str(parallel)) == 0
    assert serial.read_text() == parallel.read_text()


def test_sweep_empty_grid_rejected(tmp_path):
    assert run_cli(
        "sweep", "eta", "--generate", "4,7", "--etas", "",
        "--csv", str(tmp_path / "x.csv"),
    ) == 2


def test_scaling_table(tmp_path):
    csv_path = tmp_path / "scaling.csv"
    assert run_cli(
        "scaling-table", "--num-qubits", "3", "--deltas", "0.19",
        "--betas", f"0,{math.pi / 2},{math.pi}", "--csv", str(csv_path),
    ) == 0
    rows = read_csv(csv_path)
    by_key = {(r["mixer"], float(r["beta"])): int(r["n_measurements"]) for r in rows}
    assert by_key[("x", math.pi / 2)] == 93
    assert by_key[("cg", math.pi)] == 11
    assert by_key[("x", 0.0)] == 1 and by_key[("cg", 0.0)] == 1
    # monotone non-decreasing in |beta| per mixer
    for kind in ("x", "cg"):
        vals = [v for (mk, _), v in sorted(by_key.items()) if mk == kind]
        assert vals == sorted(vals)
    # rows reproduce the closed-form rule
    mix = {"x": TransverseField(3), "cg": RankOneUniform(3)}
    for r in rows:
        assert int(r["n_measurements"]) == schedule_cor3(
            mix[r["mixer"]], float(r["beta"]), 1, float(r["delta"]))


def test_scaling_table_prints_counts_above_the_block_limit(tmp_path):
    # The table only computes counts, so it keeps the exact integers that a
    # measured run would refuse.
    csv_path = tmp_path / "scaling.csv"
    assert run_cli(
        "scaling-table", "--num-qubits", "3", "--deltas", "1e-300",
        "--betas", f"{math.pi / 2}", "--csv", str(csv_path),
    ) == 0
    counts = [int(r["n_measurements"]) for r in read_csv(csv_path)]
    assert len(counts) == 2 and all(c > 10**299 for c in counts)


def test_scaling_table_delta_out_of_range(tmp_path):
    assert run_cli(
        "scaling-table", "--num-qubits", "3", "--deltas", "0.3",
        "--csv", str(tmp_path / "x.csv"),
    ) == 2


# ---------------------------------------------------------------------------
# compile-oracle
# ---------------------------------------------------------------------------


def test_compile_oracle_verify_and_emit(tmp_path, capsys):
    path = tmp_path / "oracle.txt"
    assert run_cli(
        "compile-oracle", "--constraint", "2,-1,-1,0 EQ 0", "--precision", "3",
        "--qcl", "--verify", "--emit", str(path),
    ) == 0
    text = capsys.readouterr().out
    assert "verification passed" in text
    assert "1 auxiliary" in text
    # emitted file parses back to the same ops
    from zenopt.oraclesim import Circuit

    circ = Circuit.from_text(path.read_text())
    assert circ.num_qubits == 5

    assert run_cli(
        "compile-oracle", "--constraint", "1,1,1,1 LEQ 2", "--precision", "4",
        "--verify",
    ) == 0


def test_compile_oracle_verifies_seven_variable_oracle(capsys):
    # 11 qubits: 7 system variables and a 4-bit value register.
    assert run_cli(
        "compile-oracle", "--constraint", "1,1,1,1,1,1,1 LEQ 3", "--precision", "4",
        "--verify",
    ) == 0
    text = capsys.readouterr().out
    assert "verification passed" in text
    assert "11 (7 system + 4 auxiliary)" in text


def test_compile_oracle_reports_auxiliaries_of_checked_circuit(tmp_path, capsys):
    # The README's third command checks the qcl circuit (one readout qubit)
    # without --qcl: the report describes the circuit in the file.
    path = tmp_path / "oracle.txt"
    assert run_cli(
        "compile-oracle", "--constraint", "2,-1,-1,0 EQ 0", "--precision", "3",
        "--qcl", "--emit", str(path),
    ) == 0
    capsys.readouterr()
    assert run_cli(
        "compile-oracle", "--constraint", "2,-1,-1,0 EQ 0", "--precision", "3",
        "--check-file", str(path),
    ) == 0
    text = capsys.readouterr().out
    assert "verification passed" in text
    assert "qubits: 5 (4 system + 1 auxiliary)" in text
    # One classical bit more: every readout word has the wrong length.
    path.write_text(path.read_text().replace("CLBITS 3", "CLBITS 4"))
    assert run_cli(
        "compile-oracle", "--constraint", "2,-1,-1,0 EQ 0", "--precision", "3",
        "--check-file", str(path),
    ) == 4
    assert "verification failed at input x=0000" in capsys.readouterr().err


def test_compile_oracle_rejects_all_zero_coeffs():
    assert run_cli(
        "compile-oracle", "--constraint", "0,0 EQ 0", "--precision", "3",
    ) == 2


def test_compile_oracle_rejects_overflow():
    assert run_cli(
        "compile-oracle", "--constraint", "2,-1,-1,0 EQ 0", "--precision", "2",
    ) == 2


def _check_edited_oracle(tmp_path, capsys, shift):
    """Emit the README oracle, shift its first controlled phase by ``shift``,
    and return the exit code and stderr of ``--check-file`` on it."""
    path = tmp_path / "oracle.txt"
    assert run_cli(
        "compile-oracle", "--constraint", "2,-1,-1,0 EQ 0", "--precision", "3",
        "--emit", str(path),
    ) == 0
    capsys.readouterr()
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("CP"):
            parts = line.split()
            parts[-1] = repr(float(parts[-1]) + shift)
            lines[i] = " ".join(parts)
            break
    path.write_text("\n".join(lines) + "\n")
    code = run_cli(
        "compile-oracle", "--constraint", "2,-1,-1,0 EQ 0", "--precision", "3",
        "--check-file", str(path),
    )
    return code, capsys.readouterr().err


def test_compile_oracle_detects_corrupted_circuit(tmp_path, capsys):
    code, err = _check_edited_oracle(tmp_path, capsys, 0.4)
    assert code == 4
    assert "verification failed" in err and "input x=" in err


def test_verification_message_names_a_different_readout(tmp_path, capsys):
    # A small edit leaves the expected readout the most likely one; the
    # message must still name a different readout as the competitor.
    code, err = _check_edited_oracle(tmp_path, capsys, 0.05)
    assert code == 4
    match = re.search(
        r"input x=(\d+) .*expected readout (\(.*?\)) has probability ([\d.]+); "
        r"most likely other readout (\(.*?\)) has probability ([\d.]+)",
        err,
    )
    assert match, err
    x, expected, p_expected, other, p_other = match.groups()
    assert x == "0001"
    assert other != expected
    assert 0.99 < float(p_expected) < 1.0
    assert 0.0 < float(p_other) <= 1.0 - float(p_expected) + 1e-6
