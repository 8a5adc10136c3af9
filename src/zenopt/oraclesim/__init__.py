"""Gate-level circuit IR, exact branch-enumerating simulator, and
Fourier-arithmetic constraint oracles."""

from .circuit import Circuit
from .oracle import (
    ConstraintOracle,
    ResourceCount,
    constraint_measurement_circuit,
    constraint_value_poly,
    count_resources,
)
from .qft import (
    FixedPointPoly,
    fourier_load_polynomial,
    qft_circuit,
    semiclassical_inverse_qft,
)
from .simulate import (
    AuxiliaryEntangledError,
    Branch,
    basis_channel_distance,
    channel_distance,
    clbit_distribution,
    enumerate_branches,
    induced_superoperator,
    measurement_kraus,
    sample,
    unitary_matrix,
)

__all__ = [
    "AuxiliaryEntangledError",
    "Branch",
    "Circuit",
    "ConstraintOracle",
    "FixedPointPoly",
    "ResourceCount",
    "basis_channel_distance",
    "channel_distance",
    "clbit_distribution",
    "constraint_measurement_circuit",
    "constraint_value_poly",
    "count_resources",
    "enumerate_branches",
    "fourier_load_polynomial",
    "induced_superoperator",
    "measurement_kraus",
    "qft_circuit",
    "sample",
    "semiclassical_inverse_qft",
    "unitary_matrix",
]
