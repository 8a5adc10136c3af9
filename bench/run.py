"""zenopt benchmark: one seeded workload, end-to-end or traced.

    python3 bench/run.py --workload zeno-opt-n6 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Set-up is timed in several fresh processes
(each imports zenopt and builds the workload's inputs) and reported as their
median, scaled by the machine-speed factor of the timed phase; the last of
them goes on to the timed rounds. BLAS gets at most one
thread per available core. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, with the
end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``. ``--workload all`` runs the four in turn and prints one line
each, with a ``workload`` key. The full record (and, traced, the span file)
goes to ``.bench_results/``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_results"
WORKLOADS = ("zeno-opt-n6", "zeno-transfer-n10", "penalty-sweep-n6", "lvqe-oracle-n5")
#: Fresh processes that time set-up; the median of these and the measuring
#: process is ``setup_s``.
SETUP_SAMPLES = 4
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = env.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= cores):
            env[var] = str(cores)
    return env


def spawn(args, workload: str, extra: list[str], timeout: float) -> dict:
    """Run the worker in a fresh process; return its last output line."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        *(["--smoke"] if args.smoke else []), *extra,
        "--t0", repr(time.clock_gettime(time.CLOCK_MONOTONIC)),
    ]
    done = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def run_workload(args, workload: str) -> dict:
    """Set-up samples and the measuring process; returns the full record."""
    deadline = time.monotonic() + DEADLINE_S
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            setups.append(spawn(args, workload, ["--setup-only"], deadline - time.monotonic())["setup_s"])
    extra = ["--trace-file", str(RESULTS / f"{stem}.npz")] if args.trace else []
    record = spawn(args, workload, extra, deadline - time.monotonic())
    if not args.trace:
        setups.append(record["metrics"]["setup_s"]["value"])
        record["setup_samples_s"] = setups
        # Scaled by the timed phase's speed factor, as the time metrics are.
        record["metrics"]["setup_s"]["value"] = statistics.median(setups) / record["speed_factor"]
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or all four in turn (one result line each)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for the self-test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "zenopt" / "__init__.py").is_file():
        print(f"error: no zenopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        try:
            record = run_workload(args, workload)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        line = {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
        print(json.dumps({"workload": workload, **line} if args.workload == "all" else line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
