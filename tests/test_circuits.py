import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhmm import circuits as qc
from qhmm.channels import kraus_from_unitary
from qhmm.circuits import (
    Circuit,
    GateSpec,
    amplitude_damping_circuit,
    circuit_from_json,
    circuit_to_json,
    compile_circuit,
    efficient_su2,
    mutate,
    random_gate,
    real_amplitudes,
)
from qhmm.linalg import is_unitary

from conftest import uniform_gate_dists

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def default_dists(n_qubits=2, gate_set=("X", "Y", "RX", "RY")):
    return uniform_gate_dists(gate_set, n_qubits)


def random_circuit(dists, n_gates, rng, n_qubits=2):
    return Circuit(n_qubits,
                   tuple(random_gate(dists, rng) for _ in range(n_gates)))


def test_compile_empty():
    assert np.array_equal(compile_circuit(Circuit(2)), np.eye(4))


def test_compile_hadamard():
    c = Circuit(1, (GateSpec("H", (0,)),))
    assert np.abs(compile_circuit(c) - H).max() < 1e-15


def test_compile_damping_block_kraus():
    theta = math.pi / 2
    c = Circuit(2, (GateSpec("CRY", (0, 1), (theta,)), GateSpec("CX", (1, 0))))
    u = compile_circuit(c)
    k0 = kraus_from_unitary(u, 2, 2, 0)[0]
    assert np.abs(k0 - np.diag([1.0, math.cos(math.pi / 4)])).max() < 1e-12


def test_gate_order_first_acts_first():
    cx_then_h = Circuit(1, (GateSpec("X", (0,)), GateSpec("H", (0,))))
    x = compile_circuit(Circuit(1, (GateSpec("X", (0,)),)))
    assert np.abs(compile_circuit(cx_then_h) - H @ x).max() < 1e-15


def test_compile_concatenation_order(rng):
    dists = default_dists()
    c1, c2 = random_circuit(dists, 3, rng), random_circuit(dists, 4, rng)
    u = compile_circuit(c1 + c2)
    assert np.abs(u - compile_circuit(c2) @ compile_circuit(c1)).max() < 1e-12


def test_gate_matrix_matches_kron_oracle():
    # explicit kron products as the independent reference
    ry = _oracle_base("RY", 0.7)
    got = compile_circuit(Circuit(3, (GateSpec("RY", (1,), (0.7,)),)))
    want = np.kron(np.kron(np.eye(2), ry), np.eye(2))
    assert np.abs(got - want).max() < 1e-15
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    got = compile_circuit(Circuit(3, (GateSpec("CX", (2, 0)),)))
    x = _oracle_base("X", 0.0)
    want = np.kron(np.kron(np.eye(2), np.eye(2)), p0) + np.kron(
        np.kron(x, np.eye(2)), p1
    )
    assert np.abs(got - want).max() < 1e-15


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


def _oracle_base(gate, theta):
    """Data-qubit action written from Pauli matrices: R_P = exp(-i theta P / 2)."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    rot = {p: c * _PAULI["I"] - 1j * s * _PAULI[p] for p in "XYZ"}
    return {
        "X": _PAULI["X"], "Y": _PAULI["Y"], "Z": _PAULI["Z"], "H": H,
        "P": np.diag([1.0, np.exp(1j * theta)]),
        "RX": rot["X"], "RY": rot["Y"], "RZ": rot["Z"],
        "CX": _PAULI["X"], "CRY": rot["Y"], "CRZ": rot["Z"],
    }[gate]


def _kron_all(factors):
    out = np.eye(1, dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def _kron_gate(gate, qubits, theta, n_qubits):
    """Full-space matrix of one gate from Kronecker products."""
    base = _oracle_base(gate, theta)
    eye = _PAULI["I"]
    if len(qubits) == 1:
        return _kron_all([base if q == qubits[0] else eye
                          for q in range(n_qubits)])
    ctrl, data = qubits
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    return _kron_all([p0 if q == ctrl else eye for q in range(n_qubits)]) + (
        _kron_all([p1 if q == ctrl else (base if q == data else eye)
                   for q in range(n_qubits)])
    )


@pytest.mark.parametrize("n_qubits", [2, 3, 4])
@pytest.mark.parametrize("gate", sorted(qc.GATE_ARITY))
def test_compile_matches_kron_oracle_every_gate(gate, n_qubits):
    theta = 1.234
    params = (theta,) * qc.GATE_ARITY[gate]
    if gate in qc.TWO_QUBIT_GATES:
        placements = [(c, d) for c in range(n_qubits) for d in range(n_qubits)
                      if c != d]
    else:
        placements = [(q,) for q in range(n_qubits)]
    for qubits in placements:
        got = compile_circuit(Circuit(n_qubits, (GateSpec(gate, qubits, params),)))
        want = _kron_gate(gate, qubits, theta, n_qubits)
        assert np.abs(got - want).max() < 1e-14, (gate, qubits)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 4), st.integers(0, 20))
def test_gate_stack_matches_kron_product(seed, n_qubits, n_gates):
    # the engine's kernel, compile_circuit and a product of per-gate
    # Kronecker matrices agree on random circuits over every gate type
    from qhmm.learning import ChannelEngine

    rng = np.random.default_rng(seed)
    types = sorted(g for g in qc.GATE_ARITY
                   if n_qubits > 1 or g not in qc.TWO_QUBIT_GATES)
    gates, angles = [], []
    want = np.eye(2**n_qubits, dtype=complex)
    for _ in range(n_gates):
        gate = types[rng.integers(len(types))]
        if gate in qc.TWO_QUBIT_GATES:
            qubits = tuple(int(q) for q in rng.choice(n_qubits, 2, replace=False))
        else:
            qubits = (int(rng.integers(n_qubits)),)
        theta = float(rng.uniform(-8 * np.pi, 8 * np.pi))
        if qc.GATE_ARITY[gate]:
            gates.append(GateSpec(gate, qubits, (None,)))
            angles.append(theta)
        else:
            gates.append(GateSpec(gate, qubits))
        want = _kron_gate(gate, qubits, theta, n_qubits) @ want
    template = Circuit(n_qubits, tuple(gates))
    dim_s = 1 if n_qubits == 1 else 2
    dim_e = 2**n_qubits // dim_s
    engine = ChannelEngine(template, dim_s, dim_e,
                           tuple(str(e) for e in range(dim_e)),
                           np.eye(dim_s) / dim_s)
    got_engine = engine.unitary(np.array(angles))
    got_compiled = compile_circuit(template.with_parameters(angles))
    assert np.abs(got_engine - want).max() < 1e-13
    assert np.abs(got_compiled - want).max() < 1e-13
    if n_gates == 0:
        assert np.array_equal(got_engine, np.eye(2**n_qubits))
        assert np.array_equal(got_compiled, np.eye(2**n_qubits))


def _oracle_unitary(circuit, angles):
    """Product of the per-gate Kronecker matrices, the first gate acting
    first."""
    want = np.eye(2**circuit.n_qubits, dtype=complex)
    angles = iter(angles)
    for g in circuit.gates:
        theta = next(angles) if g.params else 0.0
        want = _kron_gate(g.gate, g.qubits, theta, circuit.n_qubits) @ want
    return want


def _gates(n_qubits, spec):
    """Unbound GateSpecs from (type, qubits) pairs."""
    return Circuit(n_qubits, tuple(
        GateSpec(gate, qubits, (None,) * qc.GATE_ARITY[gate])
        for gate, qubits in spec))


_MIXES = {
    # 18 angle gates of 2 terms on 8 x 8: 16 terms per factor, 5 factors
    "monras-split": (efficient_su2(3, 3, "full", "RZ_RX"), 5),
    "fixed-after-last-angle": (_gates(2, [
        ("RY", (0,)), ("RX", (1,)), ("CX", (0, 1)), ("H", (1,)), ("X", (0,)),
        ("Z", (1,))]), 1),
    "all-fixed": (_gates(3, [
        ("H", (0,)), ("CX", (0, 2)), ("Y", (1,)), ("Z", (2,)), ("X", (0,))]), 1),
    # P has two terms and CRY and CRZ three: P, CRY, CRZ and P make 36 of a
    # 4 x 4 factor's 64, the RX would make 72, so it and the CRY after it
    # share the second factor; on 8 x 8, CRZ P RY make 12 of 16, then
    # CRY CRZ 9, then P RZ 4
    "p-cry-crz": (_gates(2, [
        ("P", (0,)), ("CRY", (0, 1)), ("CRZ", (1, 0)), ("CX", (1, 0)),
        ("P", (1,)), ("RX", (0,)), ("CRY", (1, 0))]), 2),
    "p-cry-crz-3q": (_gates(3, [
        ("CRZ", (2, 0)), ("P", (1,)), ("RY", (2,)), ("CRY", (0, 2)),
        ("H", (1,)), ("CRZ", (1, 2)), ("P", (0,)), ("RZ", (1,))]), 3),
    # 32 x 32 and 64 x 64: at most 3 terms per factor, one angle gate each
    "five-qubits": (efficient_su2(5, 1) + _gates(5, [
        ("P", (4,)), ("CRY", (3, 0)), ("CRZ", (0, 4)), ("CX", (2, 1))]), 13),
    "six-qubits": (efficient_su2(6, 1, "linear") + _gates(6, [
        ("CRZ", (5, 0)), ("P", (2,)), ("CRY", (1, 4))]), 15),
}


@pytest.mark.parametrize("name", sorted(_MIXES))
def test_fused_factors_match_kron_oracle(name):
    # factors that split at the term budget, fixed gates folded in after the
    # last angle gate, a circuit without angles and gates of 1, 2 and 3
    # terms side by side, on up to six qubits, against per-gate Kronecker
    # products; a block's rows equal the points alone
    from qhmm.circuits import GateStack

    template, n_factors = _MIXES[name]
    stack = GateStack(template)
    assert len(stack.stack) == n_factors
    rng = np.random.default_rng(len(name))
    x = rng.uniform(-8 * np.pi, 8 * np.pi, size=(3, template.num_parameters))
    block = stack(x)
    for row, u in zip(x, block):
        assert np.abs(u - _oracle_unitary(template, row)).max() < 1e-13
        assert np.array_equal(stack(row), u)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
def test_zero_gate_circuit_is_exact_identity(n_qubits):
    from qhmm.learning import ChannelEngine

    eye = np.eye(2**n_qubits)
    assert np.array_equal(compile_circuit(Circuit(n_qubits)), eye)
    engine = ChannelEngine(Circuit(n_qubits), 1, 2**n_qubits,
                           tuple(str(e) for e in range(2**n_qubits)), np.eye(1))
    assert np.array_equal(engine.unitary(np.zeros(0)), eye)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, 12), st.integers(2, 4))
def test_compile_always_unitary(seed, n_gates, n_qubits):
    rng = np.random.default_rng(seed)
    dists = default_dists(
        n_qubits, ("X", "Y", "Z", "H", "P", "RX", "RY", "RZ", "CX", "CRY", "CRZ"))
    c = random_circuit(dists, n_gates, rng, n_qubits)
    assert is_unitary(compile_circuit(c))


def test_compile_unbound_parameter_raises():
    c = Circuit(1, (GateSpec("RY", (0,), (None,)),))
    with pytest.raises(ValueError):
        compile_circuit(c)


def test_gate_spec_validation():
    with pytest.raises(ValueError):
        GateSpec("CX", (1, 1))
    with pytest.raises(ValueError):
        GateSpec("RY", (0,))
    with pytest.raises(ValueError):
        GateSpec("NOPE", (0,))


# --- amplitude damping circuit -------------------------------------------------

def _step_probs(theta, n_steps=1):
    from qhmm import models

    q = models.amplitude_damping_qhmm(theta)
    return models.distribution(q, n_steps)


def test_damping_theta_half_pi():
    d = _step_probs(math.pi / 2)
    assert abs(d.prob((0,)) - 0.75) < 1e-12
    assert abs(d.prob((1,)) - 0.25) < 1e-12


def test_damping_theta_zero():
    d = _step_probs(0.0)
    assert abs(d.prob((0,)) - 0.5) < 1e-12


def test_damping_theta_pi_full_damping():
    # at gamma = 1 the measured system qubit is driven to |0> before readout:
    # symbol 0 appears with certainty under the table-exact designation
    d1 = _step_probs(math.pi)
    d2 = _step_probs(math.pi, 2)
    assert abs(d1.prob((0,)) - 1.0) < 1e-12
    assert abs(d2.prob((0, 0)) - 1.0) < 1e-12


def test_damping_design_fields():
    design = amplitude_damping_circuit(math.pi / 2)
    assert design.system_qubit == 0 and design.emission_qubit == 1
    assert design.measured == "system" and design.reset == "emission"
    assert abs(design.gamma - 0.5) < 1e-12
    assert [g.gate for g in design.step.gates] == ["CRY", "CX"]
    assert design.step.gates[0].qubits == (0, 1)
    assert design.step.gates[1].qubits == (1, 0)


# --- ansatz templates ------------------------------------------------------------

def test_real_amplitudes_linear_structure():
    c = real_amplitudes(2, reps=1, entanglement="linear")
    assert [g.gate for g in c.gates] == ["CX", "RY", "RY"]
    assert c.gates[0].qubits == (0, 1)
    assert c.num_parameters == 2


def test_real_amplitudes_full_counts():
    c = real_amplitudes(3, reps=2, entanglement="full")
    assert c.two_qubit_count == 6
    assert c.num_parameters == 6
    assert len(c.gates) == 2 * (3 + 3)


def test_real_amplitudes_zero_angles_is_entanglement_only():
    c = real_amplitudes(2, reps=1, entanglement="linear")
    u = compile_circuit(c.with_parameters([0.0, 0.0]))
    only_cx = compile_circuit(Circuit(2, (GateSpec("CX", (0, 1)),)))
    assert np.abs(u - only_cx).max() < 1e-12


def test_efficient_su2_counts_and_order():
    c = efficient_su2(2, reps=1, entanglement="full", rotation_pair="RZ_RX")
    assert c.num_parameters == 4
    kinds = [g.gate for g in c.gates]
    assert kinds == ["CX", "RZ", "RZ", "RX", "RX"]
    c2 = efficient_su2(2, reps=1, rotation_pair="RY_RZ")
    assert [g.gate for g in c2.gates][1:] == ["RY", "RY", "RZ", "RZ"]


def test_efficient_su2_param_count_formula():
    c = efficient_su2(3, reps=2, entanglement="linear", rotation_pair="RY_RZ")
    assert c.num_parameters == 2 * 2 * 3


def test_with_parameters_binding():
    c = real_amplitudes(2, reps=1, entanglement="linear")
    bound = c.with_parameters([0.1, 0.2])
    assert bound.parameters() == [0.1, 0.2]
    assert c.parameters() == [None, None]  # template untouched


# --- random gates and mutation -----------------------------------------------------

def test_random_gate_singleton_set(rng):
    dists = default_dists(gate_set=("RY",))
    for _ in range(20):
        g = random_gate(dists, rng)
        assert g.gate == "RY"
        assert g.qubits[0] in (0, 1)
        assert 0.0 <= g.params[0] <= 8 * math.pi


def test_random_gate_uniformity_chi2():
    rng = np.random.default_rng(77)
    dists = default_dists(gate_set=("X", "Y", "RX", "RY"))
    counts = {g: 0 for g in dists["gates"].domain}
    n = 10000
    for _ in range(n):
        counts[random_gate(dists, rng).gate] += 1
    expected = n / 4
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 11.34  # chi-square 0.99 quantile, 3 dof


def test_random_gate_seed_repeatability():
    dists = default_dists()
    a = [random_gate(dists, np.random.default_rng(5)) for _ in range(10)]
    b = [random_gate(dists, np.random.default_rng(5)) for _ in range(10)]
    assert a == b


def test_mutate_delete_to_empty(rng):
    dists = default_dists()
    c = Circuit(2, (GateSpec("X", (0,)),))
    out = mutate(c, 0, "dlt", dists, rng)
    assert len(out.gates) == 0


def test_mutate_delete_on_empty_returns_same_object(rng):
    dists = default_dists()
    c = Circuit(2)
    assert mutate(c, 0, "dlt", dists, rng) is c


def test_mutate_insert_on_empty(rng):
    dists = default_dists()
    out = mutate(Circuit(2), 0, "ins", dists, rng)
    assert len(out.gates) == 1


def test_mutate_gte_touches_only_position(rng):
    dists = default_dists(gate_set=("X", "Y", "RX", "RY"))
    c = random_circuit(dists, 5, rng)
    out = mutate(c, 2, "gte", dists, rng)
    assert len(out.gates) == 5
    for i in (0, 1, 3, 4):
        assert out.gates[i] == c.gates[i]


def test_mutate_qbt_keeps_type(rng):
    dists = default_dists()
    c = Circuit(2, (GateSpec("RY", (0,), (1.0,)),))
    out = mutate(c, 0, "qbt", dists, rng)
    assert out.gates[0].gate == "RY"
    assert out.gates[0].params == (1.0,)


def test_mutate_replace_and_insert_lengths(rng):
    dists = default_dists()
    c = random_circuit(dists, 4, rng)
    assert len(mutate(c, 1, "rpl", dists, rng).gates) == 4
    assert len(mutate(c, 4, "ins", dists, rng).gates) == 5


def test_circuit_json_round_trip(rng):
    dists = default_dists(gate_set=("X", "RY", "CX", "CRY"))
    c = random_circuit(dists, 6, rng)
    back = circuit_from_json(circuit_to_json(c))
    assert back == c
