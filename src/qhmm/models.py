"""Quantum hidden Markov models in operator-sum and unitary form.

A Kraus-form model is a symbol-labeled CPTP channel plus an initial density;
a unitary-form model is the dilated 6-tuple (alphabet, state space, emission
space, unitary, outcome partition, initial state) together with the register
designations used when the circuit is stepped: which register is measured
("emission" by default, "system" for the damping-style generator) and whether
the emission register is reset each step ("reset", design a) or carried
("carry", design b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels as ch
from . import circuits
from .channels import KrausChannel
from .circuits import (Circuit, amplitude_damping_circuit, circuit_from_json,
                       circuit_to_json, compile_circuit)
from .classical import ClassicalHmm, observable_operators
# qhmm simulate counts its shots through models.empirical_table
from .lang import (
    DistributionTable,
    Sequence,
    empirical_table,
    exact_tables,
)
from .linalg import (
    SHOWN,
    as_matrix,
    check_density,
    check_json,
    check_unitary,
    matrix_from_json,
    matrix_to_json,
    projector,
    tensor_product,
)


@dataclass
class QhmmKraus:
    alphabet: list[str]
    channel: KrausChannel
    rho0: np.ndarray

    def __post_init__(self):
        self.alphabet = [str(a) for a in self.alphabet]
        self.rho0 = check_density(as_matrix(self.rho0))
        if self.rho0.shape[0] != self.channel.dim:
            raise ValueError("rho0 dimension does not match the channel")
        if list(self.channel.groups) != self.alphabet:
            raise ValueError("channel group keys must equal the alphabet")
        rep = ch.validate_cptp(self.channel)
        if not rep.complete:
            raise ValueError(
                f"channel is not trace preserving (violation {rep.max_violation:.3g})"
            )

    @property
    def dim(self) -> int:
        return self.channel.dim


@dataclass
class QhmmUnitary:
    alphabet: list[str]
    dim_s: int
    dim_e: int
    u: object  # np.ndarray or Circuit
    symbol_map: tuple[str, ...]  # measured-register basis index -> symbol
    rho0: np.ndarray  # on the state space
    e0: int = 0
    reset_mode: str = "reset"   # "reset" (design a) | "carry" (design b)
    measured: str = "emission"  # "emission" | "system"

    def __post_init__(self):
        self.alphabet = [str(a) for a in self.alphabet]
        self.symbol_map = tuple(str(s) for s in self.symbol_map)
        self.rho0 = check_density(as_matrix(self.rho0))
        if self.rho0.shape[0] != self.dim_s:
            raise ValueError("rho0 must live on the state space")
        if self.reset_mode not in ("reset", "carry"):
            raise ValueError("reset_mode must be 'reset' or 'carry'")
        if self.measured not in ("emission", "system"):
            raise ValueError("measured must be 'emission' or 'system'")
        if not 0 <= self.e0 < self.dim_e:
            raise ValueError("e0 out of range")
        want = self.dim_e if self.measured == "emission" else self.dim_s
        if len(self.symbol_map) != want:
            raise ValueError(
                f"symbol_map must cover all {want} measured basis states"
            )
        missing = set(self.alphabet) - set(self.symbol_map)
        if missing:
            raise ValueError(f"symbols {sorted(missing)} have empty partitions")
        extra = set(self.symbol_map) - set(self.alphabet)
        if extra:
            raise ValueError(f"symbol_map uses unknown symbols {sorted(extra)}")

    def unitary(self) -> np.ndarray:
        # compile_circuit looked up in circuits, where perfbench's span
        # hooks wrap it
        u = (circuits.compile_circuit(self.u) if isinstance(self.u, Circuit)
             else as_matrix(self.u))
        if u.shape != (self.dim_s * self.dim_e,) * 2:
            raise ValueError("unitary dimension must be dim_s * dim_e")
        return u


def block_symbol_map(alphabet, dim: int) -> tuple[str, ...]:
    """Default partition: consecutive index blocks, one block per symbol."""
    m = len(alphabet)
    if dim < m:
        raise ValueError("measured register smaller than the alphabet")
    return tuple(str(alphabet[min(i * m // dim, m - 1)]) for i in range(dim))


def _outcome_kraus(q: QhmmUnitary, u: np.ndarray) -> list[np.ndarray]:
    """Reset-mode Kraus operators on the state space, one (k, N, N) stack per
    basis state of the measured register: K_e alone for a measured emission
    register, the compositions P_o K_e for a measured system one. Operators
    whose entries are all at most 1e-15 in modulus are dropped."""
    kraus = ch.kraus_from_unitary(u, q.dim_s, q.dim_e, q.e0)
    if q.measured == "emission":
        composed = kraus[:, None]
    else:
        projectors = np.stack([projector(o, q.dim_s) for o in range(q.dim_s)])
        composed = projectors[:, None] @ kraus
    nonzero = np.abs(composed).max(axis=(2, 3)) > 1e-15
    return [ops[keep] for ops, keep in zip(composed, nonzero)]


def to_kraus(q: QhmmUnitary) -> QhmmKraus:
    """Group the extracted Kraus operators by the outcome partition.

    With a measured system register the per-symbol operators are the
    projector-channel compositions P_o K_e, which is the stationary family
    the reset-mode process realizes; design b has no stationary family.
    """
    if q.reset_mode != "reset":
        raise ValueError("design b (carry) has no stationary Kraus family")
    outcomes = _outcome_kraus(q, q.unitary())
    # a symbol whose outcomes have no nonzero operator gets a (0, N, N) group
    groups = {a: np.concatenate([ops for sym, ops in zip(q.symbol_map, outcomes)
                                 if sym == a])
              for a in q.alphabet}
    return QhmmKraus(alphabet=list(q.alphabet),
                     channel=KrausChannel(dim=q.dim_s, groups=groups), rho0=q.rho0)


def from_kraus(q: QhmmKraus, dim_e: int, e0: int = 0) -> QhmmUnitary:
    """Stinespring dilation (``channels.stinespring_dilate``, completed by one
    Householder QR) with one emission index per Kraus operator in group
    order. The leftover indices hold zero operators: one goes to each symbol
    with an empty group, the rest to the last symbol."""
    u = ch.stinespring_dilate(q.channel, dim_e, e0)
    sizes = [len(ops) for ops in q.channel.groups.values()]
    labels = np.repeat(q.alphabet, sizes).tolist()
    labels += [a for a, k in zip(q.alphabet, sizes) if k == 0]
    if len(labels) > dim_e:
        raise ValueError(f"dim_e={dim_e} leaves no index for an empty group")
    labels += [q.alphabet[-1]] * (dim_e - len(labels))
    return QhmmUnitary(
        alphabet=list(q.alphabet),
        dim_s=q.dim,
        dim_e=dim_e,
        u=u,
        symbol_map=tuple(labels),
        rho0=q.rho0,
        e0=e0,
    )


def quantize_classical(h: ClassicalHmm) -> QhmmKraus:
    """Diagonal embedding of a classical model: one rank-one Kraus operator
    sqrt(O_a[i, j]) |i><j| per positive observable-operator entry, initial
    state diag(x0)."""
    obs = np.stack(list(observable_operators(h).values()))
    sym, rows, cols = np.nonzero(obs > 0.0)  # row-major within each symbol
    ops = np.zeros((len(sym), h.n, h.n), dtype=np.complex128)
    ops[np.arange(len(sym)), rows, cols] = np.sqrt(obs[sym, rows, cols])
    groups = {a: ops[sym == i] for i, a in enumerate(h.alphabet)}
    return QhmmKraus(
        alphabet=list(h.alphabet),
        channel=KrausChannel(dim=h.n, groups=groups),
        rho0=np.diag(h.x0).astype(np.complex128),
    )


def sequence_probability(q: QhmmKraus, seq: Sequence) -> float:
    """tr(T_at ∘ ... ∘ T_a1 (rho0)); the empty sequence has probability 1."""
    rho = q.rho0
    for a in seq:
        if not 0 <= a < len(q.alphabet):
            raise ValueError(f"symbol index {a} out of range")
        rho = ch.apply_symbol(q.channel, rho, q.alphabet[a])
    p = float(rho.trace().real)
    return min(max(p, 0.0), 1.0)


def forward_operators(q: QhmmKraus):
    """(ops, init, final) of ``lang.forward_probs``: the per-symbol real
    transfer matrices on ``channels.hermitian_coordinates``, the coordinates
    of rho0 and the trace in them, as ``learning.ChannelEngine`` holds them."""
    ops = np.stack([ch.real_transfer_matrix(q.channel.groups[a])
                    for a in q.alphabet])
    return ops, ch.hermitian_coordinates(q.rho0), np.eye(q.dim).ravel()


def distribution_tables(q: QhmmKraus, lengths) -> dict[int, DistributionTable]:
    """Exact tables for several lengths from one forward pass."""
    return exact_tables(*forward_operators(q), lengths)


def distribution(q: QhmmKraus, t: int) -> DistributionTable:
    return distribution_tables(q, [t])[t]


def steady_state(q: QhmmKraus) -> np.ndarray:
    """Fixed point of the symbol-summed channel."""
    return ch.steady_state(q.channel)


def simulate(q: QhmmUnitary, t: int, shots: int, seed: int) -> np.ndarray:
    """Trajectory sampling: per step apply U, projectively measure the
    designated register and emit the outcome's symbol. Reset mode samples the
    outcomes' Kraus sub-channels on the state space, carry mode the masked
    unitaries M_o U on rho0 (x) |e0><e0|; one uniform per (shot, step).

    Returns a (shots, t) array of symbol indices in the smallest unsigned
    dtype that holds the outcome indices, drawn by
    ``channels.sample_trajectories``.
    """
    u = q.unitary()
    if q.reset_mode == "reset":
        groups, rho = _outcome_kraus(q, u), q.rho0
    else:
        idx = np.arange(q.dim_s * q.dim_e)
        outcome_of = idx % q.dim_e if q.measured == "emission" else idx // q.dim_e
        masks = outcome_of == np.arange(len(q.symbol_map))[:, None]
        groups = np.where(masks[:, :, None], u, 0)[:, None]
        rho = tensor_product(q.rho0, projector(q.e0, q.dim_e))
    outcomes = ch.sample_trajectories(groups, rho, shots, t, seed)
    symbol_of = np.array([q.alphabet.index(s) for s in q.symbol_map],
                         dtype=outcomes.dtype)
    return symbol_of[outcomes]


# --- fixtures -----------------------------------------------------------------

def monras_qhmm() -> QhmmKraus:
    """One-qubit four-symbol generator built from scaled projectors onto
    |0>, |1>, |+>, |->, started in the maximally mixed state."""
    s = 1.0 / np.sqrt(2.0)
    plus = np.array([s, s], dtype=np.complex128)
    minus = np.array([s, -s], dtype=np.complex128)
    ops = {
        "0": s * projector(0, 2),
        "1": s * projector(1, 2),
        "2": s * np.outer(plus, plus.conj()),
        "3": s * np.outer(minus, minus.conj()),
    }
    groups = {a: [k] for a, k in ops.items()}
    return QhmmKraus(
        alphabet=["0", "1", "2", "3"],
        channel=KrausChannel(dim=2, groups=groups),
        rho0=np.eye(2, dtype=np.complex128) / 2,
    )


def amplitude_damping_model(theta: float) -> QhmmUnitary:
    """The two-qubit damping generator in unitary form: system qubit prepared
    in |+>, measured each step; emission qubit reset each step."""
    design = amplitude_damping_circuit(theta)
    plus = np.full((2, 2), 0.5, dtype=np.complex128)
    return QhmmUnitary(
        alphabet=["0", "1"],
        dim_s=2,
        dim_e=2,
        u=compile_circuit(design.step),
        symbol_map=("0", "1"),
        rho0=plus,
        e0=0,
        reset_mode="reset",
        measured="system",
    )


def amplitude_damping_qhmm(theta: float) -> QhmmKraus:
    """Kraus form of the damping generator (projector-composed family)."""
    return to_kraus(amplitude_damping_model(theta))


# --- serialization -------------------------------------------------------------

def qhmm_to_json(q) -> dict:
    if isinstance(q, QhmmKraus):
        return {
            "type": "kraus",
            "alphabet": list(q.alphabet),
            "channel": ch.channel_to_json(q.channel),
            "rho0": matrix_to_json(q.rho0),
        }
    if isinstance(q, QhmmUnitary):
        d = {
            "type": "unitary",
            "alphabet": list(q.alphabet),
            "dim_s": q.dim_s,
            "dim_e": q.dim_e,
            "symbol_map": list(q.symbol_map),
            "rho0": matrix_to_json(q.rho0),
            "e0": q.e0,
            "reset_mode": q.reset_mode,
            "measured": q.measured,
        }
        if isinstance(q.u, Circuit):
            d["circuit"] = circuit_to_json(q.u)
        else:
            d["unitary"] = matrix_to_json(as_matrix(q.u))
        return d
    raise TypeError(f"not a QHMM: {type(q)}")


# each part (channel, matrix, circuit) is checked by its own reader
KRAUS_JSON = {"alphabet": "list of strings", "channel": "object", "rho0": "object"}
UNITARY_JSON = {"alphabet": "list of strings", "dim_s": "integer", "dim_e": "integer",
                "symbol_map": "list of strings", "rho0": "object", "e0?": "integer",
                "reset_mode?": "string", "measured?": "string", "unitary?": "object",
                "circuit?": "object"}


def qhmm_from_json(d: dict):
    check_json(d, "object")
    kind = d.get("type")
    if kind == "kraus":
        check_json(d, KRAUS_JSON)
        return QhmmKraus(
            alphabet=d["alphabet"],
            channel=ch.channel_from_json(d["channel"]),
            rho0=matrix_from_json(d["rho0"], "rho0"),
        )
    if kind == "unitary":
        check_json(d, UNITARY_JSON)
        if ("unitary" in d) == ("circuit" in d):
            raise ValueError("a unitary model holds exactly one of unitary and circuit")
        rho0 = matrix_from_json(d["rho0"], "rho0")
        # a file's matrix is checked for unitarity and a file's circuit for
        # its size here (circuit_from_json checks its angles); a circuit is
        # unitary by construction, and matrices built in the package by
        # dilation or compilation are trusted as they are
        dim_s, dim_e = d["dim_s"], d["dim_e"]
        if "circuit" in d:
            u = circuit_from_json(d["circuit"])
            if 2**u.n_qubits != dim_s * dim_e:
                raise ValueError(
                    f"circuit has {u.n_qubits} qubits, dim_s * dim_e is "
                    f"{dim_s * dim_e}"
                )
        else:
            u = check_unitary(matrix_from_json(d["unitary"], "unitary"))
            if len(u) != dim_s * dim_e:
                raise ValueError(
                    f"unitary is {len(u)} x {len(u)}, dim_s * dim_e is {dim_s * dim_e}"
                )
        return QhmmUnitary(
            alphabet=d["alphabet"],
            dim_s=dim_s,
            dim_e=dim_e,
            u=u,
            symbol_map=d["symbol_map"],
            rho0=rho0,
            e0=d.get("e0", 0),
            reset_mode=d.get("reset_mode", "reset"),
            measured=d.get("measured", "emission"),
        )
    raise ValueError(f"unknown QHMM type {SHOWN.repr(kind)}")
