"""Circuit IR, exact simulation, Fourier arithmetic, and oracle equivalence."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenopt.oraclesim import (
    AuxiliaryEntangledError,
    Circuit,
    basis_channel_distance,
    channel_distance,
    clbit_distribution,
    constraint_measurement_circuit,
    count_resources,
    enumerate_branches,
    fourier_load_polynomial,
    induced_superoperator,
    measurement_kraus,
    qft_circuit,
    sample,
    semiclassical_inverse_qft,
    unitary_matrix,
    FixedPointPoly,
)
from zenopt.oraclesim.simulate import apply_kraus
from zenopt.oraclesim.circuit import (
    CNOT,
    Barrier,
    Conditional,
    CPhase,
    H,
    Measure,
    Phase,
    Reset,
    X,
)
from zenopt.operators import Measurement, Projector, bit_matrix
from zenopt.problems import LinearConstraint, Sense

EQ_CONSTRAINT = LinearConstraint((2.0, -1.0, -1.0, 0.0), Sense.EQ, 0.0)
LEQ_CONSTRAINT = LinearConstraint((1.0, 1.0, 1.0, 1.0), Sense.LEQ, 2.0)


def basis_input(circ: Circuit, system_index: int) -> np.ndarray:
    amps = np.zeros(1 << circ.num_qubits, dtype=complex)
    amps[system_index] = 1.0
    return amps


# ---------------------------------------------------------------------------
# Circuit IR and serialization
# ---------------------------------------------------------------------------


def test_circuit_validation():
    circ = Circuit(2, 1)
    with pytest.raises(ValueError):
        circ.h(2)
    with pytest.raises(ValueError):
        circ.cnot(0, 0)
    with pytest.raises(ValueError):
        circ.measure(0, 1)
    with pytest.raises(ValueError):
        circ.cphase([0], 0, 0.3)
    with pytest.raises(ValueError):
        circ.conditional(0, Measure(0, 0))
    with pytest.raises(ValueError):
        circ.phase(0, float("inf"))


def test_text_format_round_trips_bit_exactly():
    circ = Circuit(4, 2)
    circ.h(0)
    circ.x(3)
    circ.cphase((0, 1), 2, 0.7853981633974483)
    circ.phase(2, -np.pi / 7)
    circ.cnot(0, 1)
    circ.measure(3, 0)
    circ.conditional(0, Phase(2, 1.5707963267948966))
    circ.reset(3)
    circ.barrier()
    text = circ.to_text()
    assert "CP 0,1 2 0.7853981633974483" in text
    assert "MEASURE 3 -> c0" in text
    assert "CCOND c0 PHASE 2 1.5707963267948966" in text
    back = Circuit.from_text(text)
    assert back.ops == circ.ops
    assert back.to_text() == text


def test_text_format_rejects_garbage():
    with pytest.raises(ValueError):
        Circuit.from_text("H 0\n")
    with pytest.raises(ValueError):
        Circuit.from_text("QUBITS 2\nCLBITS 0\nWOBBLE 1\n")
    with pytest.raises(ValueError):
        Circuit.from_text("QUBITS 2\nCLBITS 0\nMEASURE 0 => c0\n")
    # A line with more tokens than its op's canonical line is refused, not
    # read as a shorter op.
    for line in ("CNOT 0 1 2", "H 2 junk", "BARRIER now", "MEASURE 0 -> c0 c1",
                 "CP 0 1 0.5 2", "CCOND c0 PHASE 1 0.5 0.25"):
        with pytest.raises(ValueError, match="malformed circuit line"):
            Circuit.from_text(f"QUBITS 3\nCLBITS 2\n{line}\n")
    # Malformed headers are refused with the header message, not an IndexError.
    for text in ("QUBITS\nCLBITS 1\n", "QUBITS 2\n", "QUBITS 2\nCLBITS\n",
                 "QUBITS two\nCLBITS 0\n", "CLBITS 0\nQUBITS 2\n", ""):
        with pytest.raises(ValueError, match="QUBITS and CLBITS headers"):
            Circuit.from_text(text)
    # Comment lines are dropped after stripping, indented ones too.
    circ = Circuit.from_text("  # note\nQUBITS 2\n\t# more\nCLBITS 0\n  # x\nH 1\n")
    assert (circ.num_qubits, circ.num_clbits, circ.to_text()) == (2, 0, "QUBITS 2\nCLBITS 0\nH 1\n")


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def test_enumerate_h_measure():
    circ = Circuit(1, 1)
    circ.h(0)
    circ.measure(0, 0)
    dist = clbit_distribution(circ, np.array([1.0, 0.0], dtype=complex))
    assert dist[(0,)] == pytest.approx(0.5)
    assert dist[(1,)] == pytest.approx(0.5)


def test_enumerate_bell_pair():
    circ = Circuit(2, 2)
    circ.h(0)
    circ.cnot(0, 1)
    circ.measure(0, 0)
    circ.measure(1, 1)
    dist = clbit_distribution(circ, basis_input(circ, 0))
    assert set(dist) == {(0, 0), (1, 1)}
    assert dist[(0, 0)] == pytest.approx(0.5)


def test_branch_probabilities_sum_to_one():
    rng = np.random.default_rng(3)
    oracle = constraint_measurement_circuit(EQ_CONSTRAINT, 4, 3, qcl=True)
    v = rng.standard_normal(1 << 5) + 1j * rng.standard_normal(1 << 5)
    v /= np.linalg.norm(v)
    total = sum(b.probability for b in enumerate_branches(oracle.circuit, v))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_sampling_matches_enumeration():
    circ = Circuit(2, 2)
    circ.h(0)
    circ.h(1)
    circ.measure(0, 0)
    circ.conditional(0, Phase(1, np.pi))
    circ.h(1)
    circ.measure(1, 1)
    exact = clbit_distribution(circ, basis_input(circ, 0))
    counts = sample(circ, basis_input(circ, 0), shots=4000, seed=11)
    for word, prob in exact.items():
        assert counts.get(word, 0) / 4000 == pytest.approx(prob, abs=0.05)
    # same seed, same draw
    assert sample(circ, basis_input(circ, 0), shots=50, seed=7) == sample(
        circ, basis_input(circ, 0), shots=50, seed=7
    )


def test_classical_control_changes_outcome():
    # X then measure into c0; conditioned phase flips |+> to |->
    circ = Circuit(2, 2)
    circ.x(0)
    circ.measure(0, 0)
    circ.h(1)
    circ.conditional(0, Phase(1, np.pi))
    circ.h(1)
    circ.measure(1, 1)
    dist = clbit_distribution(circ, basis_input(circ, 0))
    assert dist[(1, 1)] == pytest.approx(1.0)


def test_unitary_only_circuits_are_unitary():
    rng = np.random.default_rng(0)
    for m in (2, 3):
        for _ in range(3):
            circ = Circuit(m)
            for _ in range(12):
                kind = rng.integers(0, 4)
                q = int(rng.integers(0, m))
                if kind == 0:
                    circ.h(q)
                elif kind == 1:
                    circ.x(q)
                elif kind == 2:
                    circ.phase(q, float(rng.uniform(-np.pi, np.pi)))
                else:
                    t = int(rng.integers(0, m))
                    if t != q:
                        circ.cnot(q, t)
            u = unitary_matrix(circ)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(1 << m), atol=1e-10)


@st.composite
def random_circuits(draw):
    """Circuits on up to 4 qubits mixing every op kind, measured or not."""
    n = draw(st.integers(1, 4))
    n_clbits = draw(st.integers(1, 2))
    qubit = st.integers(0, n - 1)
    angle = st.floats(-np.pi, np.pi)

    def gate():
        kinds = [st.builds(H, qubit), st.builds(X, qubit), st.builds(Phase, qubit, angle)]
        if n > 1:
            kinds.append(qubit.flatmap(lambda t: st.builds(
                CPhase, st.sets(st.integers(0, n - 1).filter(lambda c: c != t),
                                min_size=1).map(tuple), st.just(t), angle)))
            kinds.append(qubit.flatmap(lambda c: st.builds(
                CNOT, st.just(c), qubit.filter(lambda t: t != c))))
        return st.one_of(kinds)

    clbit = st.integers(0, n_clbits - 1)
    op = st.one_of(
        gate(),
        st.builds(Measure, qubit, clbit),
        st.builds(Reset, qubit),
        st.builds(Conditional, clbit, gate()),
        st.just(Barrier()),
    )
    return Circuit(n, n_clbits).extend(draw(st.lists(op, max_size=14)))


@settings(max_examples=80, deadline=None)
@given(random_circuits(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_batched_enumeration_equals_single_inputs(circ, k, seed):
    """A k-column batch gives, key by key, each input's own branches; a
    column whose input never reaches a branch is zero there. Columns are
    random states or basis states, so inputs reach different branches."""
    rng = np.random.default_rng(seed)
    dim = 1 << circ.num_qubits
    inputs = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    basis = rng.random(k) < 0.5
    inputs[:, basis] = np.eye(dim)[:, rng.integers(0, dim, basis.sum())]
    inputs /= np.linalg.norm(inputs, axis=0)
    batch = {br.key: br for br in enumerate_branches(circ, inputs)}
    for j in range(k):
        single = {br.key: br for br in enumerate_branches(circ, inputs[:, j])}
        assert set(single) <= set(batch)
        for key, br in batch.items():
            assert br.amps.shape == (dim, k)
            if key in single:
                assert single[key].clbits == br.clbits
                np.testing.assert_allclose(br.amps[:, j], single[key].amps, rtol=0, atol=1e-12)
            else:
                assert np.max(np.abs(br.amps[:, j])) <= 1e-12


# ---------------------------------------------------------------------------
# QFT
# ---------------------------------------------------------------------------


def target_transform(m: int) -> np.ndarray:
    dim = 1 << m
    k, s = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    return np.exp(-2j * np.pi * k * s / dim) / np.sqrt(dim)


def test_qft_single_qubit_is_hadamard():
    u = unitary_matrix(qft_circuit(1))
    np.testing.assert_allclose(u, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_qft_matrix_and_inverse(m):
    u = unitary_matrix(qft_circuit(m))
    np.testing.assert_allclose(u, target_transform(m), atol=1e-10)
    ui = unitary_matrix(qft_circuit(m, inverse=True))
    np.testing.assert_allclose(u @ ui, np.eye(1 << m), atol=1e-10)


def test_qft_without_swaps_is_bit_reversed():
    m = 3
    dim = 1 << m
    rev = np.zeros((dim, dim))
    for i in range(dim):
        rev[int(format(i, f"0{m}b")[::-1], 2), i] = 1.0
    u = unitary_matrix(qft_circuit(m, with_swaps=False))
    np.testing.assert_allclose(u, rev @ target_transform(m), atol=1e-10)


# ---------------------------------------------------------------------------
# Polynomial loading
# ---------------------------------------------------------------------------


def loaded_register_value(circ: Circuit, n: int, m: int, x: int) -> int:
    branches = enumerate_branches(circ, basis_input(circ, x))
    assert len(branches) == 1
    out = branches[0].amps
    idx = int(np.argmax(np.abs(out)))
    assert abs(abs(out[idx]) - 1.0) < 1e-9
    assert (idx & ((1 << n) - 1)) == x
    return idx >> n


def test_load_equality_polynomial_exact():
    poly = FixedPointPoly([(2, {0}), (-1, {1}), (-1, {2})], 3)
    circ = fourier_load_polynomial(poly, 4)
    loaded = poly.loaded_integers(bit_matrix(4))
    for x in range(16):
        bits = [(x >> j) & 1 for j in range(4)]
        expect = (2 * bits[0] - bits[1] - bits[2]) % 8
        assert loaded_register_value(circ, 4, 3, x) == expect == loaded[x]


def test_load_shifted_cardinality_polynomial():
    # sum b - 3 with four value bits: sign bit set exactly when sum <= 2
    poly = FixedPointPoly(
        [(1, {0}), (1, {1}), (1, {2}), (1, {3}), (-3, set())], 4)
    circ = fourier_load_polynomial(poly, 4)
    for x in range(16):
        bits = [(x >> j) & 1 for j in range(4)]
        reg = loaded_register_value(circ, 4, 4, x)
        assert reg == (sum(bits) - 3) % 16
        assert ((reg >> 3) & 1) == (1 if sum(bits) <= 2 else 0)


def test_load_constant_zero_polynomial():
    poly = FixedPointPoly([(0, set())], 3)
    circ = fourier_load_polynomial(poly, 2)
    for x in range(4):
        assert loaded_register_value(circ, 2, 3, x) == 0


def test_rotation_bank_count():
    # K terms over m value bits load with exactly K*m rotations, each
    # controlled on the term's variables
    poly = FixedPointPoly([(2, {0}), (-1, {1}), (-1, {2})], 3)
    circ = fourier_load_polynomial(poly, 4)
    banks = [op for op in circ.ops
             if isinstance(op, CPhase) and any(c < 4 for c in op.controls)]
    assert len(banks) == poly.num_terms * poly.precision == 9


def test_poly_range_validation():
    with pytest.raises(ValueError):
        FixedPointPoly([(9, {0})], 4)  # 9 > 2^3 - 1
    with pytest.raises(ValueError):
        FixedPointPoly([(1.5, {0})], 4)
    with pytest.raises(ValueError):
        FixedPointPoly([(-1, {0}), (-8, set())], 4)  # -9 < -2^3
    with pytest.raises(ValueError):
        FixedPointPoly([(0, set())], 0)
    FixedPointPoly([(7, {0}), (-8, set())], 4)


# ---------------------------------------------------------------------------
# Semiclassical inverse QFT
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3])
def test_semiclassical_matches_coherent_distribution(m):
    coherent = Circuit(m, num_clbits=m)
    coherent.extend(qft_circuit(m, inverse=True).ops)
    for j in range(m):
        coherent.measure(j, j)
    semi = semiclassical_inverse_qft(m)
    assert semi.num_qubits == m + 1  # one auxiliary readout qubit
    rng = np.random.default_rng(m)
    worst = 0.0
    for _ in range(50):
        v = rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)
        v /= np.linalg.norm(v)
        ref = clbit_distribution(coherent, v)
        ext = np.zeros(1 << (m + 1), dtype=complex)
        ext[: 1 << m] = v
        got = clbit_distribution(semi, ext)
        keys = set(ref) | set(got)
        tv = 0.5 * sum(abs(ref.get(k, 0.0) - got.get(k, 0.0)) for k in keys)
        worst = max(worst, tv)
    assert worst < 1e-9


def test_semiclassical_resource_profile():
    for m in (1, 2, 4):
        counts = count_resources(semiclassical_inverse_qft(m))
        assert counts.measurements == m
        assert counts.num_qubits - m == 1  # single auxiliary regardless of width
        assert counts.resets == m
        # no coherent two-qubit phases: classical control replaces them
        assert counts.controlled_phase == 0


# ---------------------------------------------------------------------------
# Constraint oracles: the equivalence checks
# ---------------------------------------------------------------------------


def oracle_fixture(kind: str):
    if kind == "eq-qcl":
        return constraint_measurement_circuit(EQ_CONSTRAINT, 4, 3, qcl=True)
    if kind == "eq":
        return constraint_measurement_circuit(EQ_CONSTRAINT, 4, 3, qcl=False)
    if kind == "always":  # every x satisfies it
        return constraint_measurement_circuit(LinearConstraint((1.0, 1.0), Sense.LEQ, 2.0), 2, 3)
    return constraint_measurement_circuit(LEQ_CONSTRAINT, 4, 4)


@pytest.mark.parametrize("kind", ["eq-qcl", "eq", "ineq"])
def test_oracle_register_values_exhaustive(kind):
    oracle = oracle_fixture(kind)
    circ = oracle.circuit
    for x in range(16):
        dist = clbit_distribution(circ, basis_input(circ, x))
        assert dist.get(oracle.expected_word(x), 0.0) == pytest.approx(1.0, abs=1e-12)
        feas = oracle.constraint.satisfied(
            np.array([(x >> j) & 1 for j in range(4)], dtype=float))
        assert oracle.outcome_is_feasible(oracle.expected_word(x)) == feas


@pytest.mark.parametrize("kind", ["eq-qcl", "eq", "ineq"])
def test_oracle_channel_equals_matrix_level_measurement(kind):
    """The core equivalence: the circuit's induced channel equals the
    matrix-level measurement it is supposed to implement, as a map.

    Measuring the whole value register realizes the partition of basis
    states by register value (the feasible block is the value-0 /
    non-negative block); the inequality oracle measures only the sign, so
    its partition is exactly the two-outcome feasible/infeasible family.
    """
    oracle = oracle_fixture(kind)
    kraus = induced_superoperator(oracle.circuit, list(range(4)))
    fine = measurement_kraus(oracle.induced_partition())
    assert channel_distance(kraus, fine) < 1e-9
    coarse = measurement_kraus(oracle.feasibility_measurement())
    # on computational-basis inputs every refinement of the feasibility
    # split acts identically to the two-outcome measurement
    assert basis_channel_distance(kraus, coarse) < 1e-9
    if kind == "ineq":
        assert channel_distance(kraus, coarse) < 1e-9  # exactly two-outcome


def test_qcl_and_coherent_equality_oracles_agree():
    a = induced_superoperator(oracle_fixture("eq-qcl").circuit, list(range(4)))
    b = induced_superoperator(oracle_fixture("eq").circuit, list(range(4)))
    assert channel_distance(a, b) < 1e-9


def test_equality_oracle_aux_counts():
    assert oracle_fixture("eq-qcl").circuit.num_qubits == 5  # one readout qubit
    assert oracle_fixture("eq").circuit.num_qubits == 7
    assert oracle_fixture("ineq").circuit.num_qubits == 8


def test_oversized_circuit_is_refused_before_allocation():
    # 2^40 rows would need terabytes: the cap must be checked first.
    wide = Circuit(40)
    with pytest.raises(ValueError, match="branch-enumeration cap of 12"):
        induced_superoperator(wide, range(4))
    with pytest.raises(ValueError, match="branch-enumeration cap of 12"):
        unitary_matrix(wide)


def test_always_satisfied_constraint_gives_identity_channel():
    always = LinearConstraint((1.0, 1.0), Sense.LEQ, 2.0)  # every x satisfies
    oracle = constraint_measurement_circuit(always, 2, 3)
    kraus = induced_superoperator(oracle.circuit, [0, 1])
    ident = [np.eye(4, dtype=complex)]
    assert channel_distance(kraus, ident) < 1e-9


def test_oracle_input_validation():
    with pytest.raises(ValueError):
        constraint_measurement_circuit(
            LinearConstraint((0.5, 1.0), Sense.EQ, 0.0), 2, 4)
    with pytest.raises(OverflowError):
        constraint_measurement_circuit(EQ_CONSTRAINT, 4, 2)  # range [-2,2] needs 3 bits
    with pytest.raises(ValueError):
        constraint_measurement_circuit(LEQ_CONSTRAINT, 4, 4, qcl=True)


def reference_expected_word(oracle, x: int) -> tuple[int, ...]:
    """Per-input readout: the polynomial evaluated on one bit vector."""
    bits = [(x >> j) & 1 for j in range(oracle.n_system)]
    total = 0.0
    for d, s in oracle.poly.terms:
        if all(bits[v] for v in s):
            total += d
    m = oracle.precision
    v = round(total) % (1 << m)
    value_bits = tuple((v >> j) & 1 for j in range(m))
    return (value_bits[-1],) if oracle.kind == "inequality" else value_bits


def reference_induced_partition(oracle) -> Measurement:
    """Basis inputs grouped by their per-input readout, groups in sorted
    word order."""
    n = oracle.n_system
    groups: dict[tuple[int, ...], list[int]] = {}
    for x in range(1 << n):
        groups.setdefault(reference_expected_word(oracle, x), []).append(x)
    projs = [Projector(n, idx) for _, idx in sorted(groups.items())]
    return Measurement.trivial(n) if len(projs) == 1 else Measurement(projs)


def reference_feasibility_measurement(oracle) -> Measurement:
    """The constraint tested on one basis input's bit vector at a time."""
    n, k = oracle.n_system, len(oracle.constraint.coeffs)
    feas = [x for x in range(1 << n)
            if oracle.constraint.satisfied(np.array([(x >> j) & 1 for j in range(k)], float))]
    return Measurement.two_outcome(Projector(n, feas))


@st.composite
def integer_oracles(draw):
    n = draw(st.integers(1, 6))
    # The constraint names the first k <= n system qubits.
    k = draw(st.integers(1, n))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k).filter(any))
    sense = draw(st.sampled_from(list(Sense)))
    rhs = draw(st.integers(-3 * k, 3 * k))
    c = LinearConstraint(tuple(coeffs), sense, rhs)
    # Narrowest register holding every value of the loaded polynomial (LEQ
    # loads rhs - a.x), plus up to two spare bits.
    values = (bit_matrix(n)[:, :k] @ np.array(coeffs, float) - rhs) * (-1 if sense == Sense.LEQ else 1)
    reach = max(-values.min(), values.max() + 1)
    m = int(np.ceil(np.log2(reach))) + 1 + draw(st.integers(0, 2))
    qcl = sense == Sense.EQ and draw(st.booleans())
    return constraint_measurement_circuit(c, n, m, qcl=qcl)


@settings(max_examples=80, deadline=None)
@given(integer_oracles())
def test_oracle_tables_match_per_input_references(oracle):
    n = oracle.n_system
    words = [reference_expected_word(oracle, x) for x in range(1 << n)]
    assert oracle.readouts.tolist() == [list(w) for w in words]
    assert [oracle.expected_word(x) for x in range(1 << n)] == words
    assert oracle.induced_partition().projectors == reference_induced_partition(oracle).projectors
    feasible = reference_feasibility_measurement(oracle)
    assert oracle.feasibility_measurement().projectors == feasible.projectors
    assert [oracle.outcome_is_feasible(w) for w in words] == feasible.projectors[0].mask().tolist()


def test_uncompute_bug_is_detected():
    # drop the inverse-oracle tail: the sign measurement leaves the value
    # register correlated with the system
    oracle = oracle_fixture("ineq")
    broken = Circuit(oracle.circuit.num_qubits, oracle.circuit.num_clbits)
    ops = list(oracle.circuit.ops)
    cut = max(i for i, op in enumerate(ops) if isinstance(op, Measure))
    broken.extend(ops[: cut + 1])
    with pytest.raises(AuxiliaryEntangledError):
        induced_superoperator(broken, list(range(4)))


def reference_induced_superoperator(circ: Circuit, system_qubits) -> list[np.ndarray]:
    """Per-input reference: one branch enumeration per system basis state,
    with the auxiliary state fixed by the first input that reaches a branch."""
    system_qubits = list(system_qubits)
    n = circ.num_qubits
    aux_qubits = [q for q in range(n) if q not in system_qubits]
    dim_s, dim_a = 1 << len(system_qubits), 1 << len(aux_qubits)
    full_idx = np.arange(1 << n)
    sys_coord = sum(((full_idx >> q) & 1) << pos for pos, q in enumerate(system_qubits))
    aux_coord = sum(((full_idx >> q) & 1) << pos for pos, q in enumerate(aux_qubits))
    kraus, aux_ref = {}, {}
    for x in range(dim_s):
        amps = np.zeros(1 << n, dtype=complex)
        amps[sum(((x >> pos) & 1) << q for pos, q in enumerate(system_qubits))] = 1.0
        for br in enumerate_branches(circ, amps):
            psi = np.zeros((dim_a, dim_s), dtype=complex)
            psi[aux_coord, sys_coord] = br.amps
            if br.key not in aux_ref:
                rho_aux = psi @ psi.conj().T
                ref = np.linalg.eigh(rho_aux)[1][:, -1]
                aux_ref[br.key] = ref * np.exp(-1j * np.angle(ref[np.argmax(np.abs(ref))]))
                kraus[br.key] = np.zeros((dim_s, dim_s), dtype=complex)
            column = aux_ref[br.key].conj() @ psi
            assert np.linalg.norm(psi - np.outer(aux_ref[br.key], column)) <= 1e-7
            kraus[br.key][:, x] = column
    return [kraus[key] for key in sorted(kraus)]


@pytest.mark.parametrize("kind", ["eq-qcl", "eq", "ineq", "always"])
def test_induced_superoperator_matches_per_input_reference(kind):
    oracle = oracle_fixture(kind)
    system = range(oracle.n_system)
    new = induced_superoperator(oracle.circuit, system)
    ref = reference_induced_superoperator(oracle.circuit, system)
    assert len(new) == len(ref)
    assert channel_distance(ref, new) <= 1e-12


def reference_probe_states(dim: int):
    """Tomographically complete family of pure-state density matrices,
    yielded one at a time: basis states first, then two-level real and
    imaginary superpositions."""
    for i in range(dim):
        v = np.zeros(dim, dtype=complex)
        v[i] = 1.0
        yield np.outer(v, v.conj())
    for i in range(dim):
        for j in range(i + 1, dim):
            for amp in (1.0, 1.0j):
                v = np.zeros(dim, dtype=complex)
                v[i] = 1.0 / np.sqrt(2.0)
                v[j] = amp / np.sqrt(2.0)
                yield np.outer(v, v.conj())


def reference_channel_distance(kraus_a, kraus_b, probes=None) -> float:
    """Probe-loop reference: the largest output trace distance over
    ``probes`` (default: every state of :func:`reference_probe_states`)."""
    if probes is None:
        probes = reference_probe_states(kraus_a[0].shape[0])
    worst = 0.0
    for rho in probes:
        diff = apply_kraus(kraus_a, rho) - apply_kraus(kraus_b, rho)
        diff = (diff + diff.conj().T) / 2.0
        worst = max(worst, float(np.sum(np.abs(np.linalg.eigvalsh(diff))) / 2.0))
    return worst


def reference_basis_channel_distance(kraus_a, kraus_b) -> float:
    dim = kraus_a[0].shape[0]
    return reference_channel_distance(
        kraus_a, kraus_b, itertools.islice(reference_probe_states(dim), dim))


@pytest.mark.parametrize("kind", ["eq-qcl", "eq", "ineq", "always"])
def test_channel_distance_bounds_probe_reference(kind):
    """The Choi trace distance is at least every probe's trace distance, so
    it passes the 1e-9 gate only where the probe loop does. The README
    oracles are the "eq-qcl" and "ineq" fixtures."""
    oracle = oracle_fixture(kind)
    kraus = induced_superoperator(oracle.circuit, range(oracle.n_system))
    fine = measurement_kraus(oracle.induced_partition())
    new, ref = channel_distance(kraus, fine), reference_channel_distance(kraus, fine)
    assert new >= ref - 1e-15
    assert max(new, ref) < 1e-9
    coarse = measurement_kraus(oracle.feasibility_measurement())
    assert basis_channel_distance(kraus, coarse) == pytest.approx(
        reference_basis_channel_distance(kraus, coarse), abs=1e-12)
    # One column of one Kraus operator rephased: a different channel.
    bad = [k.copy() for k in kraus]
    bad[0][:, np.argmax(np.linalg.norm(bad[0], axis=0))] *= 1j
    assert min(channel_distance(bad, fine), reference_channel_distance(bad, fine)) > 1e-9


def random_kraus(rng, dim: int, count: int) -> list[np.ndarray]:
    """A random trace-preserving Kraus family: the blocks of an isometry."""
    g = rng.standard_normal((count * dim, dim)) + 1j * rng.standard_normal((count * dim, dim))
    return list(np.linalg.qr(g)[0].reshape(count, dim, dim))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_channel_distance_on_random_channels(dim, count_a, count_b, seed):
    rng = np.random.default_rng(seed)
    a, b = random_kraus(rng, dim, count_a), random_kraus(rng, dim, count_b)
    assert channel_distance(a, b) >= reference_channel_distance(a, b) - 1e-12
    assert basis_channel_distance(a, b) == pytest.approx(
        reference_basis_channel_distance(a, b), abs=1e-12)
    # K'_j = sum_k U_jk K_k for a unitary U is the same channel.
    z = rng.standard_normal((count_a, count_a)) + 1j * rng.standard_normal((count_a, count_a))
    mixed = list(np.tensordot(np.linalg.qr(z)[0], np.array(a), axes=1))
    assert channel_distance(a, mixed) <= 1e-12


def test_gate_level_measured_qaoa_matches_matrix_level():
    """End-to-end cross-validation: a one-layer measured QAOA evolution with
    the measurement realized by the gate-level oracle channel equals the
    matrix-level run with the oracle's induced measurement family."""
    from zenopt import ansatz, experiments, problems, zeno
    from zenopt.qcore import TransverseField, apply_evolution, as_density

    inst = problems.generate_instance(4, 7, problems.InstanceConfig(budget=2))
    oracle = constraint_measurement_circuit(LEQ_CONSTRAINT, 4, 4)
    kraus = induced_superoperator(oracle.circuit, list(range(4)))
    measurement = oracle.induced_partition()

    bundle = experiments.ProblemBundle.build(inst)
    mixer = TransverseField(4)
    params = ansatz.QaoaParams((0.7,), (0.9,))
    counts = [3]

    matrix_rho = ansatz.run_qaoa_zeno(
        bundle.cost_scaled, mixer, measurement, params,
        zeno.ZenoSchedule.manual(counts), bundle.initial)

    state = bundle.initial.copy()
    apply_evolution(state, bundle.cost_scaled, params.gammas[0])
    rho = as_density(state)
    for _ in range(counts[0]):
        apply_evolution(rho, mixer, params.betas[0] / counts[0])
        rho.mat = apply_kraus(kraus, rho.mat)
    np.testing.assert_allclose(rho.mat, matrix_rho.mat, atol=1e-9)


def test_resource_count_matches_ops():
    oracle = oracle_fixture("eq")
    counts = count_resources(oracle.circuit)
    assert counts.measurements == 3
    assert counts.resets == 3
    assert counts.total_ops() == len(oracle.circuit.ops)
    assert counts.gate_counts["Measure"] == 3
    assert len(counts.notes) == 2
    empty = count_resources(Circuit(1))
    assert empty.total_ops() == 0 and empty.controlled_phase == 0
