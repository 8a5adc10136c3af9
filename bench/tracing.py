"""Tracing for the traced run: spans around zenopt's public functions.

``install`` replaces every public module-level function of zenopt's modules
(and ``ProblemBundle.build``) with a wrapper that records a span: name,
start, end and parent. A name a module imported with ``from .qcore import
...`` is replaced on that module's own binding too, so calls between modules
are seen. Nothing inside zenopt changes; an untraced run never imports this
module.

Spans stay in memory and are written to one file when the run ends. Counts
(computed bytes, sub-steps, branches, optimizer evaluations) are recorded by
the same wrappers.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("qcore", "operators", "zeno", "ansatz", "problems", "optimize", "experiments", "oraclesim")

_KIND = {"Diagonal": "diag", "TransverseField": "tf", "RankOneUniform": "r1", "DenseHermitian": "dense"}
_STATE = {"StateVector": "sv", "DensityMatrix": "dm"}
_COMPLEX = 16


def computed_bytes(kind: str, state: str, n: int) -> int:
    """Bytes of state and operator arrays one evolution reads and writes,
    computed from array sizes (cache hits are not modelled).

    Each pass over the state reads and writes it once: a diagonal is one pass
    over a vector and two over a density matrix (rows, then columns); the
    transverse field is one pass per qubit, doubled for a density matrix; the
    rank-one update reads the state once and updates it once (vector) or
    three times (density matrix); a dense propagator is a matrix-vector
    product or two matrix products.
    """
    d = 1 << n
    size = d if state == "sv" else d * d
    passes = {
        ("diag", "sv"): 2, ("diag", "dm"): 4,
        ("tf", "sv"): 2 * n, ("tf", "dm"): 4 * n,
        ("r1", "sv"): 3, ("r1", "dm"): 7,
        ("dense", "sv"): d + 2, ("dense", "dm"): 6,
    }[(kind, state)]
    return passes * size * _COMPLEX


class Tracer:
    """Spans as parallel arrays (index = span id), plus named counts."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.marks: dict[str, int] = {}

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        span = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def finish(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        self.stack.pop()

    def mark(self, label: str) -> None:
        """Remember where a phase of the run starts, as a span index."""
        self.marks[label] = len(self.start)

    def snapshot(self) -> Counter:
        return Counter(self.counts)

    def write(self, path: str, extra: dict) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            meta=json.dumps({"marks": self.marks, **extra}),
        )


def _span_name(label: str, args) -> str:
    if label == "qcore.apply_evolution" and len(args) >= 2:
        return f"{label}[{_KIND[type(args[1]).__name__]}.{_STATE[type(args[0]).__name__]}]"
    return label


def _count(tracer: Tracer, label: str, args, kwargs, result) -> None:
    if label == "qcore.apply_evolution":
        kind, state = _KIND[type(args[1]).__name__], _STATE[type(args[0]).__name__]
        tracer.counts["qcore.bytes_computed"] += computed_bytes(kind, state, args[1].n)
    elif label == "zeno.zeno_block":
        tracer.counts["zeno.substeps"] += int(args[3] if len(args) > 3 else kwargs["n_measurements"])
    elif label == "oraclesim.simulate.enumerate_branches":
        tracer.counts["oraclesim.branches"] += len(result)


def _wrap(tracer: Tracer, label: str, fn):
    if label == "optimize.optimize_params":
        inner = fn

        def fn(objective, *args, **kwargs):
            @functools.wraps(objective)
            def timed_objective(x):
                span = tracer.begin("optimize.objective")
                try:
                    return objective(x)
                finally:
                    tracer.finish(span)

            return inner(timed_objective, *args, **kwargs)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.begin(_span_name(label, args))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(span)
        _count(tracer, label, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every public function of zenopt's layers; returns their labels."""
    from zenopt import experiments

    modules = [m for name, m in sys.modules.items() if name == "zenopt" or name.startswith("zenopt.")]
    targets = {}
    for module in modules:
        short = module.__name__.removeprefix("zenopt.")
        if short.split(".")[0] not in LAYERS:
            continue
        for attr, obj in vars(module).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                targets[obj] = f"{short}.{attr}"

    wrappers = {fn: _wrap(tracer, label, fn) for fn, label in targets.items()}
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])

    build = experiments.ProblemBundle.build.__func__
    traced_build = _wrap(tracer, "experiments.ProblemBundle.build", build)
    experiments.ProblemBundle.build = classmethod(traced_build)
    return sorted(targets.values()) + ["experiments.ProblemBundle.build"]


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: (metric, span name, statistic, which time). Kernel metrics (qcore, zeno)
#: are self times; the circuit, problem, set-up and oracle metrics are
#: inclusive, since their children are those kernels.
TIMES = [
    ("qcore.evolve.tf.dm.ms", "qcore.apply_evolution[tf.dm]", 50, "self"),
    ("qcore.evolve.r1.dm.ms", "qcore.apply_evolution[r1.dm]", 50, "self"),
    ("qcore.evolve.diag.dm.ms", "qcore.apply_evolution[diag.dm]", 50, "self"),
    ("qcore.evolve.tf.sv.ms", "qcore.apply_evolution[tf.sv]", 50, "self"),
    ("qcore.evolve.diag.sv.ms", "qcore.apply_evolution[diag.sv]", 50, "self"),
    ("qcore.evolve.dense.dm.ms", "qcore.apply_evolution[dense.dm]", 50, "self"),
    ("qcore.evolve.dense.sv.ms", "qcore.apply_evolution[dense.sv]", 50, "self"),
    ("qcore.expectation.ms", "qcore.expectation", 50, "self"),
    ("zeno.measure.ms", "zeno.apply_measurement", 50, "self"),
    ("zeno.block.self_ms", "zeno.zeno_block", 50, "self"),
    ("ansatz.qaoa_zeno.ms_p50", "ansatz.run_qaoa_zeno", 50, "total"),
    ("ansatz.qaoa_zeno.ms_p90", "ansatz.run_qaoa_zeno", 90, "total"),
    ("ansatz.qaoa_penalty.ms_p50", "ansatz.run_qaoa_penalty", 50, "total"),
    ("ansatz.fold.ms_p50", "ansatz.lvqe_generators", 50, "total"),
    ("ansatz.lvqe_zeno.ms_p50", "ansatz.run_lvqe_zeno", 50, "total"),
    ("problems.metrics.ms", "problems.evaluate_metrics", 50, "total"),
    ("problems.penalty_objective.ms", "problems.penalty_objective", 50, "total"),
    ("experiments.bundle_build.ms", "experiments.ProblemBundle.build", 50, "total"),
    ("oraclesim.induced.ms", "oraclesim.simulate.induced_superoperator", 50, "total"),
    ("oraclesim.channel_distance.ms", "oraclesim.simulate.channel_distance", 50, "total"),
]

#: Counts per round of the timed phase.
COUNTS = ["qcore.bytes_computed", "zeno.substeps", "oraclesim.branches"]

UNITS = {
    **{metric: "ms" for metric, *_ in TIMES},
    "qcore.evolve.calls": "count",
    "qcore.bytes_computed": "bytes",
    "zeno.substeps": "count",
    "oraclesim.branches": "count",
    "optimize.evals": "count",
    "optimize.overhead_us_per_eval": "us",
    "problems.feasible_states.calls": "count",
    "trace.wall_s": "s",
}


class Spans:
    """Read-only view of a tracer's spans with self times."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name = np.frombuffer(tracer.name, dtype=np.int32)
        self.total = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
        parent = np.frombuffer(tracer.parent, dtype=np.int64)
        child = np.zeros_like(self.total)
        has = parent >= 0
        np.add.at(child, parent[has], self.total[has])
        self.self = self.total - child

    def select(self, name: str, lo: int, hi: int) -> np.ndarray:
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        idx = np.flatnonzero(self.name[lo:hi] == self.names.index(name))
        return idx + lo

    def prefixed(self, prefix: str, lo: int, hi: int) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return np.flatnonzero(np.isin(self.name[lo:hi], ids)) + lo


def layer_metrics(tracer: Tracer, counts: Counter, rounds: int, round_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics of the timed phase, and the source of each time.

    ``counts`` holds the counts recorded during the timed phase. A time whose
    function the workload never calls is taken from the layer probe that
    ends a traced run, so every metric is a measured number.
    """
    spans = Spans(tracer)
    m = tracer.marks
    windows = {
        "timed": (m["timed"], m["verify"]),
        "setup": (0, m["timed"]),
        "probe": (m["probe"], len(spans.total)),
    }
    out, sources = {}, {}
    for metric, name, q, which in TIMES:
        for source in ("setup" if metric.startswith("experiments.") else "timed", "probe"):
            idx = spans.select(name, *windows[source])
            if idx.size:
                values = (spans.self if which == "self" else spans.total)[idx] * 1e3
                out[metric], sources[metric] = float(np.percentile(values, q)), source
                break
        else:
            raise RuntimeError(f"no span for {metric}, not even in the layer probe")

    lo, hi = windows["timed"]
    for key in COUNTS:
        out[key] = counts[key] / rounds
    out["qcore.evolve.calls"] = spans.prefixed("qcore.apply_evolution[", lo, hi).size / rounds
    out["problems.feasible_states.calls"] = spans.select("problems.feasible_states", lo, hi).size / rounds

    for source in ("timed", "probe"):
        objective = spans.select("optimize.objective", *windows[source])
        if objective.size:
            runs = spans.select("optimize.optimize_params", *windows[source])
            overhead = spans.total[runs].sum() - spans.total[objective].sum()
            out["optimize.overhead_us_per_eval"] = overhead / objective.size * 1e6
            sources["optimize.overhead_us_per_eval"] = source
            break
    out["optimize.evals"] = spans.select("optimize.objective", lo, hi).size / rounds
    out["trace.wall_s"] = round_wall
    return out, sources


def probe(n: int = 4) -> None:
    """One small pass through every layer, at n = 4 qubits.

    Traced runs end with it, so that a time the workload itself never
    measures (a kernel it does not use) is still a measured number.
    """
    from zenopt import ansatz, experiments, oraclesim, problems, zeno

    inst = problems.generate_instance(n, 0, problems.InstanceConfig(return_constraint=True))
    bundle = experiments.ProblemBundle.build(inst)
    params = ansatz.QaoaParams((0.7, 0.5), (0.4, 0.3))
    for kind in experiments.MIXER_KINDS:
        experiments.evaluate_zeno_qaoa(
            bundle, experiments.make_mixer(kind, n), params, zeno.ZenoSchedule.from_eta(0.4)
        )
    experiments.lvqe_objective(bundle, 1, 2)(np.linspace(-1.0, 1.0, 2 * n))
    experiments.optimize_penalty_qaoa(bundle, [1.0, 1.0], "x", 1, restarts=1, seed=0, budget=8, jobs=1)
    oracle = oraclesim.constraint_measurement_circuit(inst.constraints[0], n, 3)
    kraus = oraclesim.induced_superoperator(oracle.circuit, range(n))
    oraclesim.channel_distance(kraus, oraclesim.measurement_kraus(oracle.induced_partition()))
