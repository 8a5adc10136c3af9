"""Command-line experiment runner.

Subcommands:

* ``run-qaoa``        optimized QAOA run, measured (Zeno) or penalty baseline
* ``run-lvqe``        layered variational circuit with a trailing measured block
* ``sweep``           eta / lambda / layers / transfer grids, long-format CSV
* ``compile-oracle``  build, verify, and emit a constraint-measurement circuit
* ``scaling-table``   measurement-count table for both closed-form mixers

Exit codes: 0 success, 2 validation error, 3 infeasible or degenerate
instance, 4 verification failure. All randomness flows from ``--seed``, so
re-running a recorded command reproduces its metrics bit-identically.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shlex
import sys
import time

import numpy as np

from . import __version__, experiments, problems, qcore, zeno
from .oraclesim import circuit as circ_mod
from .oraclesim import oracle as oracle_mod
from .oraclesim import simulate as sim_mod

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFICATION = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_VALIDATION):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Flag parsing helpers
# ---------------------------------------------------------------------------


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise CliError(f"cannot parse float list {text!r}") from exc


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise CliError(f"cannot parse integer list {text!r}") from exc


def parse_constraint(text: str) -> problems.LinearConstraint:
    """Mini-grammar: comma-separated integer coefficients, sense token,
    integer right-hand side, e.g. "2,-1,-1,0 EQ 0"."""
    parts = text.split()
    if len(parts) != 3:
        raise CliError(f"constraint {text!r} must look like 'c1,c2,... SENSE rhs'")
    coeffs = _parse_ints(parts[0])
    if parts[1] not in ("EQ", "LEQ", "GEQ"):
        raise CliError(f"unknown constraint sense {parts[1]!r}")
    try:
        rhs = int(parts[2])
    except ValueError as exc:
        raise CliError(f"constraint right-hand side {parts[2]!r} is not an integer") from exc
    try:
        return problems.LinearConstraint(tuple(float(c) for c in coeffs), parts[1], float(rhs))
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def load_instance(args) -> tuple[problems.PortfolioInstance, dict]:
    if bool(args.instance) == bool(args.generate):
        raise CliError("exactly one of --instance FILE or --generate n,seed is required")
    if args.instance:
        try:
            with open(args.instance) as fh:
                inst = problems.PortfolioInstance.from_json(fh.read())
        except (OSError, ValueError, KeyError) as exc:
            raise CliError(f"cannot load instance {args.instance}: {exc}") from exc
        _check_register(inst.n)
        return inst, {"file": args.instance}
    try:
        n_text, seed_text = args.generate.split(",")
        n, seed = int(n_text), int(seed_text)
    except ValueError as exc:
        raise CliError(f"--generate expects 'n,seed', got {args.generate!r}") from exc
    if not 2 <= n <= 12:
        raise CliError(f"asset count must lie in [2, 12], got {n}")
    _check_register(n)
    cfg = problems.InstanceConfig(return_constraint=getattr(args, "return_constraint", False))
    try:
        inst = problems.generate_instance(n, seed, cfg)
    except ValueError as exc:
        raise CliError(str(exc), code=EXIT_INFEASIBLE) from exc
    return inst, {"generated": {"n": n, "seed": seed, "return_constraint": cfg.return_constraint}}


def _check_register(n: int | None = None) -> None:
    """Refuse a malformed ZENO_MAX_QUBITS, or an n-qubit register over its
    cap, before any work starts."""
    try:
        qcore.max_qubits() if n is None else qcore.check_num_qubits(n)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _bundle(inst: problems.PortfolioInstance) -> experiments.ProblemBundle:
    try:
        return experiments.ProblemBundle.build(inst)
    except ValueError as exc:
        raise CliError(str(exc), code=EXIT_INFEASIBLE) from exc


_INVOCATION: list[str] = []


def _command_line() -> str:
    args = _INVOCATION if _INVOCATION else sys.argv[1:]
    return "zenopt " + " ".join(shlex.quote(a) for a in args)


def write_json(path: str, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path: str, rows: list[dict], columns) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        writer.writerows(rows)


RUN_CSV_COLUMNS = (
    "experiment",
    "n",
    "seed",
    "mixer",
    "layers",
    "schedule",
    "penalty",
    "r",
    "r_penalty",
    "in_constraint_prob",
    "total_measurements",
    "n_evaluations",
)


def _emit_run_record(args, record: dict) -> None:
    text = json.dumps(record["metrics"], indent=2, sort_keys=True)
    print(text)
    if args.out:
        write_json(args.out, record)
    if getattr(args, "csv", None):
        cfg, met = record["config"], record["metrics"]
        row = {
            "experiment": record["experiment"],
            "n": record["instance"]["n"],
            "seed": cfg["seed"],
            "mixer": cfg.get("mixer", ""),
            "layers": cfg["layers"],
            "schedule": cfg.get("schedule", ""),
            "penalty": ",".join(str(v) for v in cfg.get("penalty", [])) or "",
            "r": met["r"],
            "r_penalty": met.get("r_penalty", ""),
            "in_constraint_prob": met["in_constraint_prob"],
            "total_measurements": met.get("total_measurements", 0.0),
            "n_evaluations": record["optimizer"]["n_evaluations"],
        }
        write_csv(args.csv, [row], RUN_CSV_COLUMNS)


def _run_record(args, experiment, bundle, source, config, report, metrics, started) -> dict:
    return {
        "experiment": experiment,
        "toolkit_version": __version__,
        "command": _command_line(),
        "instance": bundle.instance.to_dict(),
        "instance_source": source,
        "config": {
            **config,
            "layers": args.layers,
            "seed": args.seed,
            "restarts": args.restarts,
            "budget": args.budget,
            "cost_scale": bundle.scale,
        },
        "metrics": metrics,
        "optimizer": {
            "best_value": report.best_value,
            "best_params": [float(v) for v in report.best_params],
            "n_evaluations": report.n_evaluations,
            "restarts": report.restarts,
            "seed": report.seed,
        },
        "wall_time_s": time.perf_counter() - started,
    }


# ---------------------------------------------------------------------------
# run-qaoa
# ---------------------------------------------------------------------------


def cmd_run_qaoa(args) -> int:
    if args.penalty and args.schedule:
        raise CliError("--penalty (baseline) conflicts with --schedule (measured run)")
    inst, source = load_instance(args)
    bundle = _bundle(inst)
    started = time.perf_counter()
    try:
        if args.penalty:
            method = _parse_floats(args.penalty)
            if len(method) != len(inst.constraints):
                raise CliError(
                    f"--penalty lists {len(method)} factors for "
                    f"{len(inst.constraints)} constraints"
                )
            config = {"mixer": args.mixer, "penalty": method}
        else:
            method = zeno.ZenoSchedule.parse(args.schedule or "eta=1.6", args.delta)
            config = {"mixer": args.mixer, "schedule": method.describe()}
        report, _, metrics = experiments.run_qaoa(
            bundle, args.mixer, args.layers, method,
            restarts=args.restarts, seed=args.seed, budget=args.budget, jobs=args.jobs,
        )
    except (ValueError, zeno.DeltaRangeError) as exc:
        raise CliError(str(exc)) from exc
    _emit_run_record(
        args, _run_record(args, "run-qaoa", bundle, source, config, report, metrics, started)
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# run-lvqe
# ---------------------------------------------------------------------------


def cmd_run_lvqe(args) -> int:
    inst, source = load_instance(args)
    bundle = _bundle(inst)
    started = time.perf_counter()
    report, _, metrics = experiments.optimize_lvqe(
        bundle, args.layers, args.measurements,
        restarts=args.restarts, seed=args.seed, budget=args.budget, jobs=args.jobs,
    )
    config = {"measurements": args.measurements}
    _emit_run_record(
        args, _run_record(args, "run-lvqe", bundle, source, config, report, metrics, started)
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _source_params(path: str) -> tuple[np.ndarray, dict]:
    try:
        with open(path) as fh:
            record = json.load(fh)
        return np.asarray(record["optimizer"]["best_params"], dtype=float), record
    except (OSError, KeyError, ValueError) as exc:
        raise CliError(f"cannot read optimized parameters from {path}: {exc}") from exc


def cmd_sweep(args) -> int:
    inst, _ = load_instance(args)
    _bundle(inst)  # validates feasibility up front
    common = {
        "instance": inst.to_dict(),
        "mixer": args.mixer,
        "p": args.layers,
        "restarts": args.restarts,
        "seed": args.seed,
        "budget": args.budget,
    }
    kind = args.kind
    if kind == "transfer":
        if not args.transfer_from:
            raise CliError("sweep transfer needs --transfer-from RUN.json")
        params, record = _source_params(args.transfer_from)
        source_cfg = record.get("config", {})
        common["mixer"] = source_cfg.get("mixer", args.mixer)
        common["p"] = source_cfg.get("layers", args.layers)
        common["params"] = params.tolist()
        if args.etas:
            kind = "eta"
        elif args.lambdas:
            kind = "lambda"
        else:
            raise CliError("sweep transfer needs --etas or --lambdas")

    points: list[dict] = []
    try:
        if kind == "eta":
            for eta in _parse_floats(args.etas or ""):
                method = zeno.ZenoSchedule.from_eta(eta)
                points.append({**common, "method": method, "row": ("eta", eta, None)})
        elif kind == "lambda":
            grid1 = _parse_floats(args.lambdas or "")
            grid2 = _parse_floats(args.lambdas2) if args.lambdas2 else None
            expected = 2 if grid2 else 1
            if len(inst.constraints) != expected:
                raise CliError(
                    f"lambda sweep over {expected} factor(s) needs an instance with "
                    f"{expected} constraint(s), got {len(inst.constraints)}"
                )
            for l1 in grid1:
                for l2 in grid2 or [None]:
                    method = [l1] if l2 is None else [l1, l2]
                    points.append({**common, "method": method, "row": ("lambda", l1, l2)})
        else:
            if bool(args.penalty) == bool(args.schedule):
                raise CliError("layers sweep needs exactly one of --penalty or --schedule")
            if args.penalty:
                method = _parse_floats(args.penalty)
            else:
                method = zeno.ZenoSchedule.parse(args.schedule, args.delta)
            for p in _parse_ints(args.layers_grid or ""):
                points.append({**common, "p": p, "method": method, "row": ("layers", p, None)})
        rows = experiments.run_sweep(points, jobs=args.jobs)
    except (ValueError, zeno.DeltaRangeError) as exc:
        raise CliError(str(exc)) from exc
    write_csv(args.csv, rows, experiments.SWEEP_COLUMNS)
    print(f"wrote {len(rows)} rows to {args.csv}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# compile-oracle
# ---------------------------------------------------------------------------


def verify_oracle_circuit(
    circuit: circ_mod.Circuit, oracle: oracle_mod.ConstraintOracle
) -> None:
    """Exhaustive gate-level validation; raises CliError(code=4) on the first
    mismatch, naming the offending input."""
    n = oracle.n_system
    # One run over every system basis state: column x of each readout's
    # probabilities is input x's.
    dist = sim_mod.clbit_distribution(circuit, np.eye(1 << circuit.num_qubits, 1 << n))
    for x in range(1 << n):
        expected = oracle.expected_word(x)
        prob = dist[expected][x] if expected in dist else 0.0
        if abs(prob - 1.0) > 1e-9:
            other = max((word for word in dist if word != expected), key=lambda word: dist[word][x])
            raise CliError(
                f"verification failed at input x={x:0{n}b} (bits x1..xn right-to-left): "
                f"expected readout {expected} has probability {prob:.6f}; "
                f"most likely other readout {other} has probability {dist[other][x]:.6f}",
                code=EXIT_VERIFICATION,
            )
    try:
        kraus = sim_mod.induced_superoperator(circuit, list(range(n)))
    except sim_mod.AuxiliaryEntangledError as exc:
        raise CliError(f"verification failed: {exc}", code=EXIT_VERIFICATION) from exc
    fine = sim_mod.measurement_kraus(oracle.induced_partition())
    dist_fine = sim_mod.channel_distance(kraus, fine)
    if dist_fine > 1e-9:
        raise CliError(
            f"verification failed: induced channel deviates from the matrix-level "
            f"measurement by {dist_fine:.3e} (half the trace norm of the Choi-matrix "
            f"difference)",
            code=EXIT_VERIFICATION,
        )
    coarse = sim_mod.measurement_kraus(oracle.feasibility_measurement())
    dist_coarse = sim_mod.basis_channel_distance(kraus, coarse)
    if dist_coarse > 1e-9:
        raise CliError(
            f"verification failed: basis-state feasibility split deviates by {dist_coarse:.3e}",
            code=EXIT_VERIFICATION,
        )


def cmd_compile_oracle(args) -> int:
    constraint = parse_constraint(args.constraint)
    n = len(constraint.coeffs)
    try:
        oracle = oracle_mod.constraint_measurement_circuit(
            constraint, n, args.precision, qcl=args.qcl
        )
    except (ValueError, OverflowError) as exc:
        raise CliError(str(exc)) from exc

    circuit = oracle.circuit
    if args.check_file:
        try:
            with open(args.check_file) as fh:
                circuit = circ_mod.Circuit.from_text(fh.read())
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot load circuit {args.check_file}: {exc}") from exc

    if args.verify or args.check_file:
        verify_oracle_circuit(circuit, oracle)
        print("verification passed: register values exhaustive, induced channel exact")

    counts = oracle_mod.count_resources(circuit)
    print(f"kind: {oracle.kind}")
    print(f"qubits: {counts.num_qubits} ({oracle.n_system} system + {counts.num_qubits - oracle.n_system} auxiliary)")
    print(f"classical bits: {counts.num_clbits}")
    print(f"success readout: {oracle.success_readout}")
    print(f"gate counts: {json.dumps(counts.gate_counts, sort_keys=True)}")
    print(f"controlled-phase: {counts.controlled_phase}  measurements: {counts.measurements}  resets: {counts.resets}")
    for note in counts.notes:
        print(f"note: {note}")

    if args.emit:
        with open(args.emit, "w") as fh:
            fh.write(oracle.circuit.to_text())
        print(f"wrote circuit to {args.emit}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# scaling-table
# ---------------------------------------------------------------------------


def cmd_scaling_table(args) -> int:
    deltas = _parse_floats(args.deltas)
    try:
        for d in deltas:
            zeno.ZenoSchedule(rule="cor3", delta=d)
    except (ValueError, zeno.DeltaRangeError) as exc:
        raise CliError(str(exc)) from exc
    if args.betas:
        betas = _parse_floats(args.betas)
    else:
        betas = list(np.linspace(0.0, args.beta_max, args.beta_steps))
    rows = experiments.scaling_table(args.num_qubits, deltas, betas, p=args.layers)
    write_csv(args.csv, rows, experiments.SCALING_COLUMNS)
    print(f"wrote {len(rows)} rows to {args.csv}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argparse wiring
# ---------------------------------------------------------------------------


def _add_instance_flags(sub) -> None:
    sub.add_argument("--instance", help="instance JSON file")
    sub.add_argument("--generate", help="generate a seeded instance: 'n,seed'")
    sub.add_argument(
        "--return-constraint",
        action="store_true",
        help="add a minimum-return constraint to generated instances",
    )


def _add_run_flags(sub) -> None:
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--restarts", type=int, default=None)
    sub.add_argument("--budget", type=int, default=None, help="total objective evaluations")
    sub.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    sub.add_argument("--out", help="write the run record JSON here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zenopt", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("run-qaoa", help="optimized QAOA run (measured or penalty baseline)")
    _add_instance_flags(p)
    p.add_argument("--mixer", choices=experiments.MIXER_KINDS, default="x")
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--schedule", help="theorem1|cor1|cor3|eta=VAL|manual=N1,...")
    p.add_argument("--delta", type=float, default=None, help="out-of-constraint bound")
    p.add_argument("--penalty", help="penalty factors, one per constraint (baseline mode)")
    _add_run_flags(p)
    p.add_argument("--csv", help="also write a one-row CSV")
    p.set_defaults(func=cmd_run_qaoa)

    p = subs.add_parser("run-lvqe", help="layered variational circuit with measured block")
    _add_instance_flags(p)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--measurements", type=int, default=100)
    _add_run_flags(p)
    p.add_argument("--csv", help="also write a one-row CSV")
    p.set_defaults(func=cmd_run_lvqe)

    p = subs.add_parser("sweep", help="grid sweeps emitting long-format CSV")
    p.add_argument("kind", choices=("eta", "lambda", "layers", "transfer"))
    _add_instance_flags(p)
    p.add_argument("--mixer", choices=experiments.MIXER_KINDS, default="x")
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--etas", help="comma list of eta values")
    p.add_argument("--lambdas", help="comma list of penalty factors")
    p.add_argument("--lambdas2", help="second penalty-factor grid (2-D sweep)")
    p.add_argument("--layers-grid", help="comma list of layer counts")
    p.add_argument("--schedule", help="schedule for layers sweeps")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--penalty", help="penalty factors for layers sweeps")
    p.add_argument("--transfer-from", help="run record supplying source parameters")
    _add_run_flags(p)
    p.add_argument("--csv", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("compile-oracle", help="build and verify a constraint oracle circuit")
    p.add_argument("--constraint", required=True, help="e.g. '2,-1,-1,0 EQ 0'")
    p.add_argument("--precision", type=int, required=True, help="value-register width m")
    p.add_argument("--qcl", action="store_true", help="single-readout-qubit variant (equalities)")
    p.add_argument("--verify", action="store_true", help="exhaustive + channel verification")
    p.add_argument("--check-file", help="verify a previously emitted circuit file instead")
    p.add_argument("--emit", help="write the circuit text format here")
    p.set_defaults(func=cmd_compile_oracle)

    p = subs.add_parser("scaling-table", help="measurement counts vs mixing angle")
    p.add_argument("--num-qubits", type=int, required=True)
    p.add_argument("--deltas", required=True, help="comma list of delta targets")
    p.add_argument("--betas", help="comma list of mixing angles")
    p.add_argument("--beta-max", type=float, default=math.pi / 2)
    p.add_argument("--beta-steps", type=int, default=25)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--csv", required=True, help="output CSV path")
    p.set_defaults(func=cmd_scaling_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    _INVOCATION.clear()
    _INVOCATION.extend(sys.argv[1:] if argv is None else list(argv))
    args = parser.parse_args(argv)
    try:
        _check_register()
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except zeno.DeltaRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
