"""Golden run records: small CLI runs whose metrics must not drift.

``data/golden_runs.json`` holds, for each command, the ``r``,
``in_constraint_prob`` and ``total_measurements`` it printed when recorded
(one row per grid point for a sweep). A kernel rewrite that shifts the
physics, or the optimizer's path through it, by more than 1e-10 fails here.
"""

import csv
import json
from pathlib import Path

import pytest

from zenopt.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_runs.json").read_text())
KEYS = ("r", "in_constraint_prob", "total_measurements")


def _rows(args, tmp_path):
    out = tmp_path / "out"
    flag = "--csv" if args[0] == "sweep" else "--out"
    assert main([*args, "--jobs", "1", flag, str(out)]) == 0
    if args[0] == "sweep":
        with open(out) as fh:
            return [{k: float(row[k]) for k in KEYS} for row in csv.DictReader(fh)]
    metrics = json.loads(out.read_text())["metrics"]
    return [{k: float(metrics.get(k, 0.0)) for k in KEYS}]


@pytest.mark.parametrize("record", GOLDEN, ids=lambda rec: " ".join(rec["args"][:6]))
def test_golden_run_metrics(record, tmp_path):
    rows = _rows(record["args"], tmp_path)
    assert len(rows) == len(record["rows"])
    for got, want in zip(rows, record["rows"]):
        for key in KEYS:
            assert got[key] == pytest.approx(want[key], rel=0, abs=1e-10), key
