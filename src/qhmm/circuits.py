"""Gate-list circuits: the linear genotype, compilation to a unitary,
ansatz templates, random gates and mutations.

Qubit 0 is the most significant bit of the composite index; in a hybrid
state/emission register the system qubits are listed first, so a compiled
unitary indexes as s*M + e without permutation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

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
_I2 = [[1, 0], [0, 1]]
_X = [[0, 1], [1, 0]]
_ROT_Y = [[0, -1], [1, 0]]
_ROT_Z = [[-1j, 0], [0, 1j]]
# Each gate type's data-qubit 2x2 is A0 + Ac cos(t/2) + Bc cos(t)
# + As sin(t/2) + Bs sin(t); the rows list (A0, Ac, Bc, As, Bs), and a gate
# without an angle is A0 alone.
_GATE_TERMS = {
    gate: np.array([np.broadcast_to(np.asarray(t, dtype=np.complex128), (2, 2))
                    for t in terms])
    for gate, terms in {
        "X": (_X, 0, 0, 0, 0),
        "Y": ([[0, -1j], [1j, 0]], 0, 0, 0, 0),
        "Z": ([[1, 0], [0, -1]], 0, 0, 0, 0),
        "H": ([[_SQ2, _SQ2], [_SQ2, -_SQ2]], 0, 0, 0, 0),
        "P": ([[1, 0], [0, 0]], 0, [[0, 0], [0, 1]], 0, [[0, 0], [0, 1j]]),
        "RX": (0, _I2, 0, [[0, -1j], [-1j, 0]], 0),
        "RY": (0, _I2, 0, _ROT_Y, 0),
        "RZ": (0, _I2, 0, _ROT_Z, 0),
        "CX": (_X, 0, 0, 0, 0),
        "CRY": (0, _I2, 0, _ROT_Y, 0),
        "CRZ": (0, _I2, 0, _ROT_Z, 0),
    }.items()
}
_HALF_AND_FULL = np.array([0.5, 1.0])


def _angle_weights(theta: np.ndarray) -> np.ndarray:
    """(..., P, 5) weights (1, cos t/2, cos t, sin t/2, sin t) of the gate
    terms for (..., P) angles."""
    t = theta[..., None] * _HALF_AND_FULL
    return np.concatenate((np.ones(theta.shape + (1,)), np.cos(t), np.sin(t)),
                          axis=-1)


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


@functools.cache  # keyed by qubit count and qubit tuple: few distinct keys
def _gate_layout(n_qubits: int, qubits: tuple[int, ...]):
    """Where a gate on ``qubits`` sits in a D x D matrix: the flat offsets
    of its four 2x2 entries, the entry number (0-3) of each offset, and the
    diagonal offsets of a controlled gate's identity block, all read-only."""
    d = 2**n_qubits
    r0, r1 = _qubit_masks(n_qubits, qubits[-1])
    eye = np.zeros(0, dtype=int)
    if len(qubits) == 2:
        off, _ = _qubit_masks(n_qubits, qubits[0])
        eye = off * (d + 1)  # control clear: identity
        on = (r0 & (1 << (n_qubits - 1 - qubits[0]))) != 0
        r0, r1 = r0[on], r1[on]
    where = np.concatenate([r0 * d + r0, r0 * d + r1, r1 * d + r0, r1 * d + r1])
    layout = (where, np.repeat(np.arange(4), len(r0)), eye)
    for a in layout:
        a.setflags(write=False)
    return layout


def _tree_product(f: np.ndarray) -> np.ndarray:
    """G_k ... G_1 of a (k, ..., D, D) stack, k >= 1, the first factor
    acting first, multiplied as a pairwise tree: neighbours are paired level
    by level, and the factor left over at the top of an odd level is
    multiplied in at the end."""
    left = []
    while len(f) > 1:
        if len(f) % 2:
            left.append(f[-1])
            f = f[:-1]
        f = f[1::2] @ f[0::2]
    u = f[0]
    for g in reversed(left):
        u = g @ u
    return u


class GateStack:
    """Unitary of one circuit structure as a function of its angles.

    Built once: every angle gate is a factor of its own and each run of
    consecutive fixed gates is multiplied into one factor; the factors sit
    in a (k, D, D) stack, and for each angle slot the flat stack indices of
    its four 2x2 entries are recorded. A call takes (P,) angles or a (B, P)
    block of them, evaluates all angle blocks at once, writes them into a
    copy of the stack and multiplies it as a pairwise tree, U = G_k ... G_1
    with the first gate acting first; a block gives a (B, D, D) stack of
    unitaries, each equal bit for bit to its row's unitary alone.
    """

    def __init__(self, c: Circuit):
        n, d = c.n_qubits, 2**c.n_qubits
        self.dim = d
        gates = np.zeros((len(c.gates), d, d), dtype=np.complex128)
        none = np.zeros(0, dtype=int)
        # per group (fixed gates, angle slots): terms, stack offsets, entries;
        # fixed entries go into the gate stack, angle entries into the factor
        # stack, where a new factor starts at every angle gate and after it
        fixed, slots = ([], [none], [none]), ([], [none], [none])
        eyes, first = [none], []
        for i, g in enumerate(c.gates):
            if i == 0 or g.params or c.gates[i - 1].params:
                first.append(i)
            where, which, eye = _gate_layout(n, g.qubits)
            terms, at, entry = slots if g.params else fixed
            at.append((len(first) - 1 if g.params else i) * d * d + where)
            entry.append(4 * len(terms) + which)
            terms.append(_GATE_TERMS[g.gate].reshape(5, 4))
            eyes.append(i * d * d + eye)
        flat_gates = gates.reshape(-1)
        flat_gates[np.concatenate(eyes)] = 1.0
        terms, at, entry = fixed
        a0 = np.array(terms).reshape(-1, 5, 4)[:, 0]
        flat_gates[np.concatenate(at)] = a0.reshape(-1)[np.concatenate(entry)]
        self.stack = gates[first]
        for i, (a, b) in enumerate(zip(first, first[1:] + [len(gates)])):
            if b - a > 1:  # a run of fixed gates
                self.stack[i] = _tree_product(gates[a:b])
        terms, at, entry = slots
        self.n_params = len(terms)
        self.terms = np.array(terms).reshape(-1, 5, 4)
        self.flat, self.entry = np.concatenate(at), np.concatenate(entry)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.n_params:
            raise ValueError(
                f"expected {self.n_params} angles or rows of them, "
                f"got shape {x.shape}"
            )
        lead = x.shape[:-1]
        if len(self.stack) == 0:
            return np.tile(np.eye(self.dim, dtype=np.complex128), lead + (1, 1))
        f = np.empty(lead + self.stack.shape, dtype=np.complex128)
        f[...] = self.stack
        if self.n_params:
            blocks = _angle_weights(x)[..., None, :] @ self.terms
            f.reshape(lead + (-1,))[..., self.flat] = \
                blocks.reshape(lead + (-1,)).take(self.entry, axis=-1)
        return _tree_product(f.swapaxes(0, -3))  # factors first


def compile_circuit(c: Circuit) -> np.ndarray:
    """Unitary of the gate list; the first gate acts first (U = G_k ... G_1)."""
    params = c.parameters()
    if any(p is None for p in params):
        raise ValueError("circuit has an unbound parameter")
    return GateStack(c)(params)


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

def _random_angles(gate: str, rng: np.random.Generator) -> tuple:
    lo, hi = PARAM_RANGE
    return tuple(float(rng.uniform(lo, hi)) for _ in range(GATE_ARITY[gate]))


def _draw_qubits(two_qubit: bool, dists: dict, rng: np.random.Generator) -> tuple:
    if two_qubit:
        return tuple(dists["qubit_pair"].sample(rng))
    return (dists["qubit"].sample(rng),)


def random_gate(dists: dict, rng: np.random.Generator) -> GateSpec:
    """Type from ``dists['gates']``, qubit(s) from ``dists['qubit']`` or
    ``dists['qubit_pair']`` (objects with a ``sample(rng)`` method), angles
    uniform over [0, 8*pi]."""
    gate = dists["gates"].sample(rng)
    return GateSpec(gate, _draw_qubits(gate in TWO_QUBIT_GATES, dists, rng),
                    _random_angles(gate, rng))


def mutate(
    c: Circuit, pos: int, m_type: str, dists: dict, rng: np.random.Generator
) -> Circuit:
    """One structural mutation at a position, drawing from the distributions
    of ``random_gate``; other gates stay untouched.

    'dlt' on an empty circuit returns the input circuit unchanged (the caller
    can detect the no-op by identity).
    """
    gates = list(c.gates)
    if m_type == "ins":
        if not 0 <= pos <= len(gates):
            raise IndexError("insert position out of range")
        gates.insert(pos, random_gate(dists, rng))
        return Circuit(c.n_qubits, tuple(gates))
    if not gates:
        if m_type == "dlt":
            return c
        raise IndexError("mutation position out of range for empty circuit")
    if not 0 <= pos < len(gates):
        raise IndexError("mutation position out of range")
    old = gates[pos]
    if m_type == "gte":
        new_type = dists["gates"].sample(rng)
        qubits = old.qubits
        if (new_type in TWO_QUBIT_GATES) != old.is_two_qubit:
            if new_type in TWO_QUBIT_GATES:
                qubits = tuple(dists["qubit_pair"].sample(rng))
            else:
                qubits = (old.qubits[-1],)
        if GATE_ARITY[new_type] == GATE_ARITY[old.gate]:
            params = old.params
        else:
            params = _random_angles(new_type, rng)
        gates[pos] = GateSpec(new_type, qubits, params)
    elif m_type == "qbt":
        gates[pos] = replace(old, qubits=_draw_qubits(old.is_two_qubit, dists, rng))
    elif m_type == "rpl":
        gates[pos] = random_gate(dists, rng)
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


def _angle_from_json(p) -> float:
    try:
        angle = float(p)
    except (TypeError, ValueError):
        raise ValueError(f"gate angle must be a number, got {p!r}") from None
    if not math.isfinite(angle):
        raise ValueError(f"gate angle must be finite, got {p!r}")
    return angle


def circuit_from_json(d: dict) -> Circuit:
    gates = tuple(
        GateSpec(g["t"], tuple(int(q) for q in g["q"]),
                 tuple(_angle_from_json(p) for p in g.get("p", [])))
        for g in d["gates"]
    )
    return Circuit(int(d["n_qubits"]), gates)


def unitary_of(circuit_or_matrix) -> np.ndarray:
    """Accept either a Circuit or an explicit matrix."""
    if isinstance(circuit_or_matrix, Circuit):
        return compile_circuit(circuit_or_matrix)
    return as_matrix(circuit_or_matrix)
