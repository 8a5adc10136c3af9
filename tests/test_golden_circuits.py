"""Golden circuits: the oracle builders' output, op for op.

``data/golden_circuits.json`` holds the ``to_text()`` of every circuit
below as it was recorded, plus each constraint oracle's ``kind`` and
``success_readout``. A refactor of the QFT, phase-bank or oracle builders
must reproduce them byte for byte: same ops, same order, same angles.
"""

import json
from pathlib import Path

import pytest

from zenopt.oraclesim import (
    FixedPointPoly,
    constraint_measurement_circuit,
    fourier_load_polynomial,
    qft_circuit,
    semiclassical_inverse_qft,
)
from zenopt.problems import LinearConstraint

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_circuits.json").read_text())


def _oracle(coeffs, sense, rhs, n, m, qcl=False):
    oracle = constraint_measurement_circuit(LinearConstraint(coeffs, sense, rhs), n, m, qcl=qcl)
    return {
        "text": oracle.circuit.to_text(),
        "kind": oracle.kind,
        "success_readout": oracle.success_readout,
    }


CASES = {}
for m in range(1, 5):
    for inverse in (False, True):
        for with_swaps in (False, True):
            CASES[f"qft m={m} inverse={inverse} with_swaps={with_swaps}"] = (
                lambda m=m, i=inverse, s=with_swaps: {
                    "text": qft_circuit(m, inverse=i, with_swaps=s).to_text()
                }
            )
    CASES[f"semiclassical m={m}"] = lambda m=m: {"text": semiclassical_inverse_qft(m).to_text()}
for name, terms, m, n in [
    ("equality", [(2, {0}), (-1, {1}), (-1, {2})], 3, 4),
    ("shifted cardinality", [(1, {0}), (1, {1}), (1, {2}), (1, {3}), (-3, set())], 4, 4),
    ("constant zero", [(0, set())], 3, 2),
    ("product term", [(3, {0, 2}), (-2, {1}), (1, set())], 4, 3),
]:
    CASES[f"load {name}"] = lambda terms=terms, m=m, n=n: {
        "text": fourier_load_polynomial(FixedPointPoly(terms, m), n).to_text()
    }
for name, args in [
    ("2,-1,-1,0 EQ 0 m=3", ((2, -1, -1, 0), "EQ", 0, 4, 3)),
    ("2,-1,-1,0 EQ 0 m=3 qcl", ((2, -1, -1, 0), "EQ", 0, 4, 3, True)),
    ("1,1,1,1 LEQ 2 m=4", ((1, 1, 1, 1), "LEQ", 2, 4, 4)),
    ("1,2,-1 GEQ 1 m=4", ((1, 2, -1), "GEQ", 1, 3, 4)),
    ("1,1 LEQ 1 n=4 m=3", ((1, 1), "LEQ", 1, 4, 3)),
    ("1,-1 EQ 0 n=3 m=2 qcl", ((1, -1), "EQ", 0, 3, 2, True)),
]:
    CASES[f"oracle {name}"] = lambda args=args: _oracle(*args)


def test_every_case_is_recorded():
    assert set(CASES) == set(GOLDEN)


@pytest.mark.parametrize("case", list(CASES))
def test_builder_output_is_unchanged(case):
    assert CASES[case]() == GOLDEN[case]
