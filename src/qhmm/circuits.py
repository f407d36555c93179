"""Gate-list circuits: the linear genotype, compilation to a unitary,
ansatz templates, random gates and mutations.

Qubit 0 is the most significant bit of the composite index; in a hybrid
state/emission register the system qubits are listed first, so a compiled
unitary indexes as s*M + e without permutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import as_matrix

PARAM_RANGE = (0.0, 8.0 * math.pi)

GATE_ARITY = {
    "X": 0, "Y": 0, "Z": 0, "H": 0,
    "P": 1, "RX": 1, "RY": 1, "RZ": 1,
    "CX": 0, "CRY": 1, "CRZ": 1,
}
TWO_QUBIT_GATES = frozenset({"CX", "CRY", "CRZ"})

_SQ2 = 1.0 / math.sqrt(2.0)
_FIXED = {
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=np.complex128),
}


def _base_matrix(gate: str, params: tuple) -> np.ndarray:
    """2x2 matrix of the gate's data-qubit action."""
    if gate in _FIXED:
        return _FIXED[gate]
    if gate == "CX":
        return _FIXED["X"]
    theta = params[0]
    if theta is None:
        raise ValueError(f"gate {gate} has an unbound parameter")
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if gate in ("RY", "CRY"):
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if gate == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    if gate in ("RZ", "CRZ"):
        return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    if gate == "P":
        return np.diag([1.0, np.exp(1j * theta)]).astype(np.complex128)
    raise ValueError(f"unknown gate type {gate!r}")


@dataclass(frozen=True)
class GateSpec:
    """One gate: type, (control,) data qubit(s), and 0-1 bound angles.

    A ``None`` parameter marks an unbound template slot.
    """

    gate: str
    qubits: tuple[int, ...]
    params: tuple = ()

    def __post_init__(self):
        if self.gate not in GATE_ARITY:
            raise ValueError(f"unknown gate type {self.gate!r}")
        want_qubits = 2 if self.gate in TWO_QUBIT_GATES else 1
        if len(self.qubits) != want_qubits:
            raise ValueError(
                f"{self.gate} takes {want_qubits} qubit(s), got {self.qubits}"
            )
        if want_qubits == 2 and self.qubits[0] == self.qubits[1]:
            raise ValueError("control and data qubits must differ")
        if len(self.params) != GATE_ARITY[self.gate]:
            raise ValueError(
                f"{self.gate} takes {GATE_ARITY[self.gate]} parameter(s), "
                f"got {len(self.params)}"
            )

    @property
    def is_two_qubit(self) -> bool:
        return self.gate in TWO_QUBIT_GATES


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[GateSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if max(g.qubits) >= self.n_qubits:
                raise ValueError(
                    f"gate {g} addresses qubit >= n_qubits={self.n_qubits}"
                )

    @property
    def parameter_index(self) -> list[tuple[int, int]]:
        """(gate position, parameter slot) for every parametric slot."""
        return [
            (i, slot)
            for i, g in enumerate(self.gates)
            for slot in range(len(g.params))
        ]

    @property
    def num_parameters(self) -> int:
        return len(self.parameter_index)

    def parameters(self) -> list:
        return [self.gates[i].params[s] for i, s in self.parameter_index]

    def with_parameters(self, values) -> "Circuit":
        values = list(values)
        if len(values) != self.num_parameters:
            raise ValueError(
                f"expected {self.num_parameters} parameters, got {len(values)}"
            )
        gates = list(self.gates)
        for (i, slot), v in zip(self.parameter_index, values):
            p = list(gates[i].params)
            p[slot] = float(v)
            gates[i] = replace(gates[i], params=tuple(p))
        return Circuit(self.n_qubits, tuple(gates))

    @property
    def two_qubit_count(self) -> int:
        return sum(1 for g in self.gates if g.is_two_qubit)

    def __add__(self, other: "Circuit") -> "Circuit":
        if other.n_qubits != self.n_qubits:
            raise ValueError("qubit counts differ")
        return Circuit(self.n_qubits, self.gates + other.gates)


def _qubit_masks(n_qubits: int, qubit: int):
    """Composite indices with the given qubit (MSB order) clear, paired with
    the same indices with it set."""
    d = 2**n_qubits
    bit = 1 << (n_qubits - 1 - qubit)
    idx = np.arange(d)
    lo = idx[(idx & bit) == 0]
    return lo, lo | bit


class _GateBuilder:
    """Full-space matrix assembly from index masks for one gate of a fixed
    structure; call it with the angle of a parametric gate."""

    def __init__(self, g: GateSpec, n_qubits: int):
        self.gate = g.gate
        self.dim = 2**n_qubits
        self.parametric = len(g.params) > 0
        if not g.is_two_qubit:
            self.r0, self.r1 = _qubit_masks(n_qubits, g.qubits[0])
            self.c0 = None
        else:
            ctrl, data = g.qubits
            lo, _ = _qubit_masks(n_qubits, ctrl)
            self.c0 = lo  # control clear: identity block
            t_lo, t_hi = _qubit_masks(n_qubits, data)
            cbit = 1 << (n_qubits - 1 - ctrl)
            keep = (t_lo & cbit) != 0
            self.r0, self.r1 = t_lo[keep], t_hi[keep]
        if not self.parametric:
            self.matrix = self._assemble(_base_matrix(g.gate, g.params))

    def _assemble(self, base: np.ndarray) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        if self.c0 is not None:
            out[self.c0, self.c0] = 1.0
        out[self.r0, self.r0] = base[0, 0]
        out[self.r0, self.r1] = base[0, 1]
        out[self.r1, self.r0] = base[1, 0]
        out[self.r1, self.r1] = base[1, 1]
        return out

    def __call__(self, theta=None) -> np.ndarray:
        if not self.parametric:
            return self.matrix
        return self._assemble(_base_matrix(self.gate, (theta,)))


def compile_circuit(c: Circuit) -> np.ndarray:
    """Unitary of the gate list; the first gate acts first (U = G_k ... G_1)."""
    dim = 2**c.n_qubits
    u = np.eye(dim, dtype=np.complex128)
    for g in c.gates:
        u = _GateBuilder(g, c.n_qubits)(*g.params) @ u
    return u


# --- ansatz templates -------------------------------------------------------

def _entanglement_block(n_qubits: int, entanglement: str) -> list[GateSpec]:
    if entanglement == "full":
        return [
            GateSpec("CX", (i, j))
            for i in range(n_qubits)
            for j in range(i + 1, n_qubits)
        ]
    if entanglement == "linear":
        return [GateSpec("CX", (i, i + 1)) for i in range(n_qubits - 1)]
    raise ValueError(f"unknown entanglement scheme {entanglement!r}")


def real_amplitudes(n_qubits: int, reps: int, entanglement: str = "full") -> Circuit:
    """Per repetition: entanglement block then an RY layer with fresh
    parameters; reps * n_qubits unbound parameters total."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    gates: list[GateSpec] = []
    for _ in range(reps):
        gates.extend(_entanglement_block(n_qubits, entanglement))
        gates.extend(GateSpec("RY", (q,), (None,)) for q in range(n_qubits))
    return Circuit(n_qubits, tuple(gates))


def efficient_su2(
    n_qubits: int,
    reps: int,
    entanglement: str = "full",
    rotation_pair: str = "RY_RZ",
) -> Circuit:
    """Per repetition: entanglement block then two single-qubit rotation
    layers in the stated order; 2 * reps * n_qubits parameters."""
    pairs = {"RY_RZ": ("RY", "RZ"), "RZ_RX": ("RZ", "RX")}
    if rotation_pair not in pairs:
        raise ValueError(f"unknown rotation pair {rotation_pair!r}")
    first, second = pairs[rotation_pair]
    gates: list[GateSpec] = []
    for _ in range(reps):
        gates.extend(_entanglement_block(n_qubits, entanglement))
        gates.extend(GateSpec(first, (q,), (None,)) for q in range(n_qubits))
        gates.extend(GateSpec(second, (q,), (None,)) for q in range(n_qubits))
    return Circuit(n_qubits, tuple(gates))


# --- amplitude damping reference circuit ------------------------------------

@dataclass(frozen=True)
class AmplitudeDampingDesign:
    """Two-qubit damping generator: prep puts the system qubit in |+>, each
    step runs CRY(theta) system->emission then CX emission->system; the
    SYSTEM qubit is measured each step and the emission qubit is reset."""

    prep: Circuit
    step: Circuit
    system_qubit: int
    emission_qubit: int
    measured: str  # register that is read out each step
    reset: str     # register that is reset each step
    theta: float
    gamma: float


def amplitude_damping_circuit(theta: float) -> AmplitudeDampingDesign:
    prep = Circuit(2, (GateSpec("H", (0,)),))
    step = Circuit(2, (GateSpec("CRY", (0, 1), (theta,)), GateSpec("CX", (1, 0))))
    return AmplitudeDampingDesign(
        prep=prep,
        step=step,
        system_qubit=0,
        emission_qubit=1,
        measured="system",
        reset="emission",
        theta=theta,
        gamma=math.sin(theta / 2) ** 2,
    )


# --- random gates and mutations ---------------------------------------------

@dataclass
class GateSpace:
    """Sampling space for random gates: allowed types and register sizes.

    ``distributions`` may carry objects with a ``sample(rng)`` method under the
    keys 'gates', 'qubit' and 'qubit_pair'; missing entries sample uniformly.
    """

    gate_set: tuple[str, ...]
    n_state_qubits: int
    n_emission_qubits: int
    distributions: dict = field(default_factory=dict)

    @property
    def n_qubits(self) -> int:
        return self.n_state_qubits + self.n_emission_qubits


def _sample(space: GateSpace, key: str, rng, fallback):
    dist = space.distributions.get(key)
    return dist.sample(rng) if dist is not None else fallback()


def random_gate(space: GateSpace, rng: np.random.Generator) -> GateSpec:
    """Type from the gates distribution, qubit(s) from the qubit
    distributions, angles uniform over [0, 8*pi]."""
    if not space.gate_set:
        raise ValueError("gate set is empty")
    gate = _sample(space, "gates", rng,
                   lambda: space.gate_set[rng.integers(len(space.gate_set))])
    if gate in TWO_QUBIT_GATES:
        qubits = tuple(_sample(space, "qubit_pair", rng,
                               lambda: _uniform_pair(space.n_qubits, rng)))
    else:
        q = _sample(space, "qubit", rng,
                    lambda: int(rng.integers(space.n_qubits)))
        qubits = (int(q),)
    lo, hi = PARAM_RANGE
    params = tuple(float(rng.uniform(lo, hi)) for _ in range(GATE_ARITY[gate]))
    return GateSpec(gate, qubits, params)


def _uniform_pair(n_qubits: int, rng) -> tuple[int, int]:
    if n_qubits < 2:
        raise ValueError("two-qubit gate needs at least two qubits")
    c = int(rng.integers(n_qubits))
    d = int(rng.integers(n_qubits - 1))
    if d >= c:
        d += 1
    return (c, d)


def mutate(
    c: Circuit, pos: int, m_type: str, space: GateSpace, rng: np.random.Generator
) -> Circuit:
    """One structural mutation at a position; other gates stay untouched.

    'dlt' on an empty circuit returns the input circuit unchanged (the caller
    can detect the no-op by identity).
    """
    gates = list(c.gates)
    if m_type == "ins":
        if not 0 <= pos <= len(gates):
            raise IndexError("insert position out of range")
        gates.insert(pos, random_gate(space, rng))
        return Circuit(c.n_qubits, tuple(gates))
    if not gates:
        if m_type == "dlt":
            return c
        raise IndexError("mutation position out of range for empty circuit")
    if not 0 <= pos < len(gates):
        raise IndexError("mutation position out of range")
    old = gates[pos]
    if m_type == "gte":
        new_type = _sample(space, "gates", rng,
                           lambda: space.gate_set[rng.integers(len(space.gate_set))])
        qubits = old.qubits
        if (new_type in TWO_QUBIT_GATES) != old.is_two_qubit:
            if new_type in TWO_QUBIT_GATES:
                qubits = _sample(space, "qubit_pair", rng,
                                 lambda: _uniform_pair(space.n_qubits, rng))
            else:
                qubits = (old.qubits[-1],)
        if GATE_ARITY[new_type] == GATE_ARITY[old.gate]:
            params = old.params
        else:
            lo, hi = PARAM_RANGE
            params = tuple(float(rng.uniform(lo, hi))
                           for _ in range(GATE_ARITY[new_type]))
        gates[pos] = GateSpec(new_type, tuple(qubits), params)
    elif m_type == "qbt":
        if old.is_two_qubit:
            qubits = _sample(space, "qubit_pair", rng,
                             lambda: _uniform_pair(space.n_qubits, rng))
        else:
            qubits = (_sample(space, "qubit", rng,
                              lambda: int(rng.integers(space.n_qubits))),)
        gates[pos] = replace(old, qubits=tuple(qubits))
    elif m_type == "rpl":
        gates[pos] = random_gate(space, rng)
    elif m_type == "dlt":
        del gates[pos]
    else:
        raise ValueError(f"unknown mutation type {m_type!r}")
    return Circuit(c.n_qubits, tuple(gates))


# --- serialization -----------------------------------------------------------

def circuit_to_json(c: Circuit) -> dict:
    return {
        "n_qubits": c.n_qubits,
        "gates": [
            {"t": g.gate, "q": list(g.qubits), "p": [float(p) for p in g.params]}
            for g in c.gates
        ],
    }


def circuit_from_json(d: dict) -> Circuit:
    gates = tuple(
        GateSpec(g["t"], tuple(int(q) for q in g["q"]),
                 tuple(float(p) for p in g.get("p", [])))
        for g in d["gates"]
    )
    return Circuit(int(d["n_qubits"]), gates)


def unitary_of(circuit_or_matrix) -> np.ndarray:
    """Accept either a Circuit or an explicit matrix."""
    if isinstance(circuit_or_matrix, Circuit):
        return compile_circuit(circuit_or_matrix)
    return as_matrix(circuit_or_matrix)
