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

from .linalg import check_json

PARAM_RANGE = (0.0, 8.0 * math.pi)

GATE_ARITY = {
    "X": 0, "Y": 0, "Z": 0, "H": 0,
    "P": 1, "RX": 1, "RY": 1, "RZ": 1,
    "CX": 0, "CRY": 1, "CRZ": 1,
}
TWO_QUBIT_GATES = frozenset({"CX", "CRY", "CRZ"})

_SQ2 = 1.0 / math.sqrt(2.0)
_O2 = [[0, 0], [0, 0]]
_X = [[0, 1], [1, 0]]
_Y = [[0, -1j], [1j, 0]]
_Z = [[1, 0], [0, -1]]


def _rotation(pauli) -> tuple:
    """exp(-i t/2 pauli) as its two eigenprojector terms: e^{-it/2} (I + pauli)/2
    and e^{it/2} (I - pauli)/2."""
    half = np.array(pauli) / 2
    return ((-1, np.eye(2) / 2 + half), (1, np.eye(2) / 2 - half))


# Each gate is a sum of terms e^{ikt/2} M, one per eigenspace of its
# generator: the multiplier k of the half angle (0 for a fixed gate) and the
# 2x2 M on the data qubit. A two-qubit gate's 2x2 acts where its control is
# set; its first term, k = 0, also holds the identity where the control is
# clear.
_GATE_TERMS = {
    gate: (np.array([k for k, _ in terms]),
           np.array([two for _, two in terms], dtype=np.complex128))
    for gate, terms in {
        "X": ((0, _X),),
        "Y": ((0, _Y),),
        "Z": ((0, _Z),),
        "H": ((0, [[_SQ2, _SQ2], [_SQ2, -_SQ2]]),),
        "P": ((0, [[1, 0], [0, 0]]), (2, [[0, 0], [0, 1]])),
        "RX": _rotation(_X),
        "RY": _rotation(_Y),
        "RZ": _rotation(_Z),
        "CX": ((0, _X),),
        "CRY": ((0, _O2),) + _rotation(_Y),
        "CRZ": ((0, _O2),) + _rotation(_Z),
    }.items()
}
# A factor's term table holds at most max(3, FACTOR_ENTRIES // D**2) D x D
# matrices (``GateStack``): 64 on two qubits, 16 on three, 4 on four, and 3,
# one angle gate's terms, from five qubits on
FACTOR_ENTRIES = 1024


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
            if min(g.qubits) < 0 or max(g.qubits) >= self.n_qubits:
                raise ValueError(
                    f"gate {g} addresses a qubit outside [0, {self.n_qubits})"
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


@functools.cache  # keyed by qubit count, gate type and qubits: few keys
def _term_entries(n_qubits: int, gate: str, qubits: tuple[int, ...]):
    """Nonzero entries of a gate's terms as D x D matrices: flat offsets
    into their (n_terms, D, D) stack and values, both read-only.

    Entry [i, j] of a term is its 2x2 at the data-qubit bits of i and j
    where i and j agree on every other qubit; where a two-qubit gate's
    control is clear, its first term is the identity and its other terms
    are zero."""
    d, two = 2**n_qubits, _GATE_TERMS[gate][1]
    data = 1 << (n_qubits - 1 - qubits[-1])
    i, j = np.arange(d)[:, None], np.arange(d)
    mats = two[:, i // data & 1, j // data & 1] * (((i ^ j) & ~data) == 0)
    if len(qubits) == 2:
        clear = (i & (1 << (n_qubits - 1 - qubits[0]))) == 0
        first = (np.arange(len(two)) == 0)[:, None, None]
        mats = np.where(clear, first & (i == j), mats)
    at = np.flatnonzero(mats)
    entries = (at, mats.reshape(-1)[at])
    for a in entries:
        a.setflags(write=False)
    return entries


def _tree_levels(k: int) -> tuple:
    """The pairing of ``_tree_product`` for k >= 1 factors: per level, the
    slices of its upper and lower neighbours and whether the factor at the
    top of the level is left over (an odd level). The last level is one
    pair, indexed 1 and 0, so that its product has no level axis."""
    levels = []
    while k > 1:
        pairs = k // 2
        upper, lower = (1, 0) if pairs == 1 else (slice(1, 2 * pairs, 2),
                                                  slice(0, 2 * pairs, 2))
        levels.append((upper, lower, k % 2 == 1))
        k = pairs
    return tuple(levels)


def _tree_product(f: np.ndarray, levels: tuple, last=np.matmul) -> np.ndarray:
    """G_k ... G_1 of a (k, ..., D, D) stack, k >= 1, the first factor
    acting first, multiplied as a pairwise tree (``_tree_levels(k)``):
    neighbours are paired level by level, and the factor left over at the
    top of an odd level is multiplied in at the end. The products without
    a level axis, the last level's and the left-over factors', go through
    ``last``: ``np.dot`` for a (k, D, D) stack, which is the same BLAS
    product as ``np.matmul`` on matrices, with less dispatch."""
    left = []
    for upper, lower, odd in levels:
        if odd:
            left.append(f[-1])
        f = f[upper] @ f[lower] if type(upper) is slice else last(f[1], f[0])
    u = f if levels else f[0]
    for g in reversed(left):
        u = last(g, u)
    return u


class GateStack:
    """Unitary of one circuit structure as a function of its angles.

    Built once: each gate is the sum of its terms, a phase e^{ikt/2} of its
    angle t times a D x D matrix (``_GATE_TERMS``). Consecutive gates share
    one factor until an angle gate would take the factor's term table past
    max(3, FACTOR_ENTRIES // D**2) matrices; the table holds every product of
    one term per angle gate, with the fixed gates between them multiplied in,
    so each entry's coefficient is e^{i phase}, its phase the sum of its
    terms' k t/2. ``stack`` holds the tables as (k, T, D, D), zero-padded to
    the longest, and ``phases`` is the real (P, k*T) matrix whose entry
    (j, f*T + e) is the multiple of angle j in the phase of factor f's entry
    e (0 on padding). A call takes (P,) angles or a (B, P) block of them,
    forms every phase in one real matmul and every coefficient in one
    complex exp, sums every table in one batched matmul and multiplies the
    k factors as a pairwise tree, U = G_k ... G_1 with the first gate acting
    first; a block gives a (B, D, D) stack of unitaries. A point takes no
    leading axis at any step, and each row of a block runs through its own
    (1, P) and (1, T) products, the same vector products as a point's, so
    it equals bit for bit its row's unitary alone. ``multipliers`` lists,
    per angle, the multipliers k of its half angle in its gate's terms: the
    only way that angle enters U.
    """

    def __init__(self, c: Circuit):
        n, d = c.n_qubits, 2**c.n_qubits
        self.dim, self.n_params = d, c.num_parameters
        budget, eye = max(3, FACTOR_ENTRIES // (d * d)), np.eye(d, dtype=np.complex128)
        # per term count, one zeroed (terms*D, D) array for the gates' rows,
        # zeroed again after each gate
        zeroed = {}
        # per factor, its table as (D, T*D), [i, t*D + j] = entry t's [i, j],
        # and the multipliers of its angle gates; a new factor starts at the
        # angle gate that would take the current table past the budget
        factors, table, mults = [], eye, []
        for g in c.gates:
            ks, width = _GATE_TERMS[g.gate][0], table.shape[1] // d
            if g.params and 1 < width and width * len(ks) > budget:
                factors.append((table, mults))
                table, mults = eye, []
            # the gate's terms as D rows each multiply every entry in one
            # matmul; an angle gate's terms become the most significant digit
            # of the entry index, each taking k/2 of its angle into its entries
            at, values = _term_entries(n, g.gate, g.qubits)
            rows = zeroed.get(len(ks))
            if rows is None:
                rows = zeroed[len(ks)] = np.zeros(len(ks) * d * d, dtype=np.complex128)
            rows[at] = values
            table = rows.reshape(-1, d) @ table
            rows[at] = 0
            if g.params:
                table = table.reshape(len(ks), d, -1).swapaxes(0, 1).reshape(d, -1)
                mults.append(ks)
        factors.append((table, mults))
        self.multipliers = tuple(ks for _, mults in factors for ks in mults)
        width = max(table.shape[1] // d for table, _ in factors)
        self.stack = np.zeros((len(factors), width, d, d), dtype=np.complex128)
        self.phases = np.zeros((self.n_params, len(factors) * width))
        angle = 0
        for f, (table, mults) in enumerate(factors):
            self.stack[f, :table.shape[1] // d] = table.reshape(d, -1, d).swapaxes(0, 1)
            # entry e of the factor takes k = ks[(e // lower) % len(ks)] of
            # an angle whose gate follows gates of ``lower`` entries in all
            lower, entries = 1, self.phases[:, f * width:f * width + table.shape[1] // d]
            for ks in mults:
                entries[angle].reshape(-1, len(ks), lower)[:] = ks[:, None]
                lower, angle = lower * len(ks), angle + 1
        self.phases /= 2
        self.tables = self.stack.reshape(len(factors), width, d * d)
        # a point's shape, then a call's shapes after its leading axes: the
        # coefficients as rows of each factor's table, then the factors
        self.point_shape = (self.n_params,)
        self.coef_shape = (len(factors), 1, width)
        self.factor_shape = (len(factors), d, d)
        self.levels = _tree_levels(len(factors))

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape == self.point_shape:
            f = np.exp(1j * np.dot(x, self.phases)).reshape(self.coef_shape) @ self.tables
            return _tree_product(f.reshape(self.factor_shape), self.levels, np.dot)
        if x.ndim != 2 or x.shape[-1] != self.n_params:
            raise ValueError(
                f"expected {self.n_params} angles or rows of them, "
                f"got shape {x.shape}"
            )
        coef = np.exp(1j * (x[:, None, :] @ self.phases))
        f = (coef.reshape((len(x),) + self.coef_shape) @ self.tables).reshape(
            (len(x),) + self.factor_shape)
        # a block's (B, k, D, D) rows of factors are multiplied as (k, B, D, D)
        return _tree_product(f.swapaxes(0, 1), self.levels)


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


CIRCUIT_JSON = {"n_qubits": "integer", "gates": [
    {"t": "string", "q": ["integer"], "p?": ["finite number"]}]}


def circuit_from_json(d: dict, where: str = "circuit") -> Circuit:
    check_json(d, CIRCUIT_JSON, where)
    gates = tuple(GateSpec(g["t"], tuple(g["q"]), tuple(g.get("p", ())))
                  for g in d["gates"])
    return Circuit(d["n_qubits"], gates)
