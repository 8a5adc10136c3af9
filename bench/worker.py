"""One workload in one fresh process; ``run.py`` starts it.

The process imports zenopt from the checkout's ``src``, sets the workload up
from the seed, then runs whole rounds until the timed rounds add up to the
run length. Outputs are fingerprinted in the timed phase and checked after
it: the checks re-run one round untimed, compare its fingerprints with the
timed rounds, and check every output against the references. The peak
resident set is read at the end of the timed phase, before any check
allocates. The last line printed is one JSON object.

``--setup-only`` stops after set-up and prints only the set-up time, which
``run.py`` uses to take the median of several set-ups.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def clock() -> float:
    """System-wide monotonic clock, comparable with the parent process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_zenopt():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import zenopt

    if Path(zenopt.__file__).resolve().parent != ROOT / "src" / "zenopt":
        raise ImportError(f"zenopt imported from {zenopt.__file__}, not from this checkout")


def fingerprint(obj, h=None) -> str:
    """Hash of every number in an output, bit for bit."""
    top = h is None
    h = h or hashlib.sha256()
    if isinstance(obj, np.ndarray):
        h.update(obj.dtype.str.encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            fingerprint(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d]" % len(obj))
        for item in obj:
            fingerprint(item, h)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            fingerprint(getattr(obj, field.name), h)
    elif isinstance(obj, (int, float, np.generic)):
        h.update(repr(obj).encode())
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")
    return h.hexdigest() if top else ""


def run_round(ops) -> list:
    """Every operation once; an operation that raises leaves its exception."""
    outputs = []
    for _, fn in ops:
        try:
            outputs.append(fn(outputs))
        except Exception as exc:  # the benchmark must count it and go on
            outputs.append(exc)
    return outputs


#: Median of ``speed_probe`` on the machine the README's figures come from.
PROBE_REFERENCE_S = 0.0375


def speed_probe() -> float:
    """Seconds for a fixed block of small numpy kernels (one-qubit rotations
    of a 64x64 complex matrix), which touches no zenopt code.

    A shared machine's speed drifts (by up to 1.6x over tens of seconds on
    the one the README's figures come from), so the time metrics are scaled
    by how fast this block ran during the same run.
    """
    c, s = np.cos(0.1), np.sin(0.1)
    u = np.array([[c, -1j * s], [-1j * s, c]])
    mat = np.full((64, 64), 1 / 64, dtype=np.complex128)
    start = time.perf_counter()
    for _ in range(150):
        for q in range(6):
            mat = np.einsum("ab,xby->xay", u, mat.reshape(1 << (5 - q), 2, -1)).reshape(64, 64)
    return time.perf_counter() - start


def checks(verify, index: int, outputs: list) -> list[str]:
    """Failure messages of one operation's checks; a check that raises fails."""
    try:
        return verify(index, outputs)
    except Exception:
        return ["check raised:\n" + traceback.format_exc()]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, required=True, help="parent's clock() at spawn")
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)

    import_zenopt()
    import tracing
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload = WORKLOADS[args.workload](smoke=args.smoke)
    workload.setup(args.seed)
    ops = workload.ops()
    setup_s = clock() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # Timed phase: whole rounds until the timed time reaches the run length.
    if tracer:
        tracer.mark("timed")
        before = tracer.snapshot()
    walls, evaluations, prints, probes = [], [], [], []
    while not walls or sum(walls) < args.seconds:
        start = time.perf_counter()
        outputs = run_round(ops)
        walls.append(time.perf_counter() - start)
        probes.append(speed_probe())
        evaluations.append(workload.evaluations(outputs) if not any(
            isinstance(o, Exception) for o in outputs) else 0)
        prints.append([None if isinstance(o, Exception) else fingerprint(o) for o in outputs])
        del outputs
    peak = peak_rss_mib()
    if tracer:
        counts = tracer.snapshot() - before
        tracer.mark("verify")

    # Checks: one more round, untimed, checked against the references.
    outputs = run_round(ops)
    errors: dict[int, list[str]] = {}
    for k in range(len(ops)):
        if isinstance(outputs[k], Exception):
            if prints[0][k] is not None:
                errors[k] = [f"raised only when checked: {outputs[k]!r}"]
            continue
        found = [] if fingerprint(outputs[k]) == prints[0][k] else ["output differs from the timed rounds"]
        errors[k] = found + checks(workload.verify, k, outputs)
    if not any(isinstance(o, Exception) for o in outputs):
        try:
            index, found = workload.dense_reference(outputs)
        except Exception:
            index, found = 0, ["dense reference raised:\n" + traceback.format_exc()]
        errors[index] = errors.get(index, []) + found
    errors = {k: found for k, found in errors.items() if found}

    failed = 0
    mismatched = False
    for round_prints in prints:
        for k, fp in enumerate(round_prints):
            wrong = fp != prints[0][k]
            mismatched |= wrong
            failed += fp is None or wrong or k in errors
    for k, found in errors.items():
        for message in found:
            print(f"{ops[k][0]}: {message}", file=sys.stderr)

    result = {
        "correct": not errors and not mismatched,
        "attempted": len(prints) * len(ops),
        "failed": failed,
        "rounds": len(walls),
        "round_walls_s": walls,
        "probe_s": probes,
    }
    # Whole-phase figures: a shared machine's speed can switch between levels
    # every few seconds, and a mean over the phase varies smoothly with the
    # share of time spent at each, where a median jumps between them. The
    # speed factor takes out the drift that is slower than a run.
    speed = statistics.fmean(probes) / PROBE_REFERENCE_S
    result["speed_factor"] = speed
    result["raw_wall_s"] = statistics.fmean(walls)
    wall = statistics.fmean(walls) / speed
    if tracer:
        tracer.mark("probe")
        tracing.probe()
        metrics, sources = tracing.layer_metrics(tracer, counts, len(walls), wall)
        result["metrics"] = {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in metrics.items()}
        result["sources"] = sources
        if args.trace_file:
            tracer.write(args.trace_file, {"workload": args.workload, "seed": args.seed, "rounds": len(walls)})
    else:
        result["metrics"] = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "evals_per_s": {"value": sum(evaluations) / sum(walls) * speed, "unit": "1/s"},
            "peak_rss_mib": {"value": peak, "unit": "MiB"},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
