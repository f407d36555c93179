"""Classical hidden Markov models with observable operators.

Conventions: A is column-stochastic with A[to, from]; B[a, i] is the
probability of emitting symbol a from state i (each state's column sums
to 1); x0 is the initial state distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import sample_trajectories
from .lang import (
    DistributionTable,
    Sequence,
    exact_tables,
)
from .linalg import FieldsEqual, check_json

STOCHASTIC_TOL = 1e-10


@dataclass(eq=False)
class ClassicalHmm(FieldsEqual):
    alphabet: list[str]
    A: np.ndarray  # (n, n) column-stochastic transition
    B: np.ndarray  # (m, n) emission, columns sum to 1
    x0: np.ndarray  # (n,) initial distribution

    def __post_init__(self):
        self.alphabet = [str(a) for a in self.alphabet]
        self.A = np.asarray(self.A, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        self.x0 = np.asarray(self.x0, dtype=float)
        n = self.A.shape[0]
        m = len(self.alphabet)
        if len(set(self.alphabet)) != m:
            raise ValueError("alphabet labels must be distinct")
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        if self.B.shape != (m, n):
            raise ValueError(f"B must be ({m}, {n})")
        if self.x0.shape != (n,):
            raise ValueError(f"x0 must have length {n}")
        for name in ("A", "B", "x0"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} has non-finite entries")
        for name, mat in (("A", self.A), ("B", self.B)):
            if mat.min() < 0:
                raise ValueError(f"{name} has negative entries")
            colsums = mat.sum(axis=0)
            if np.abs(colsums - 1.0).max() > STOCHASTIC_TOL:
                raise ValueError(f"columns of {name} must sum to 1")
        if self.x0.min() < 0 or abs(self.x0.sum() - 1.0) > STOCHASTIC_TOL:
            raise ValueError("x0 must be a probability vector")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return len(self.alphabet)


def observable_operators(h: ClassicalHmm) -> dict[str, np.ndarray]:
    """Per-symbol operators T_a = A diag(B[a, .]); they sum to A."""
    return {a: h.A * h.B[i, :] for i, a in enumerate(h.alphabet)}


def sequence_probability(h: ClassicalHmm, seq: Sequence) -> float:
    """1 T_{a_t} ... T_{a_1} x0; the empty sequence has probability 1."""
    x = h.x0.copy()
    for a in seq:
        if not 0 <= a < h.m:
            raise ValueError(f"symbol index {a} out of range")
        x = h.A @ (h.B[a, :] * x)
    return float(x.sum())


def forward_operators(h: ClassicalHmm):
    """(ops, init, final) of ``lang.forward_probs``: the stacked observable
    operators, x0 and a vector of ones."""
    return np.stack(list(observable_operators(h).values())), h.x0, np.ones(h.n)


def distribution_tables(h: ClassicalHmm, lengths) -> dict[int, DistributionTable]:
    """Exact tables for several lengths from one forward pass."""
    return exact_tables(*forward_operators(h), lengths)


def distribution(h: ClassicalHmm, t: int) -> DistributionTable:
    """Exact table over all m^t sequences."""
    return distribution_tables(h, [t])[t]


def steady_state_classical(h: ClassicalHmm) -> np.ndarray:
    """Normalized eigenvector of A with eigenvalue 1."""
    w, v = np.linalg.eig(h.A)
    candidates = np.argsort(np.abs(w - 1.0))
    for i in candidates:
        if abs(w[i] - 1.0) > 1e-6:
            break
        x = v[:, i].real
        if abs(x.sum()) < 1e-12:
            continue
        x = x / x.sum()
        if x.min() >= -1e-12 and np.abs(h.A @ x - x).max() <= 1e-10:
            return np.clip(x, 0.0, None) / np.clip(x, 0.0, None).sum()
    raise ValueError("no stochastic fixed point found for A")


def sample(
    h: ClassicalHmm, t: int, n_seq: int, seed: int
) -> list[Sequence]:
    """n_seq length-t sequences, drawn symbol by symbol from the filtering
    state of the diagonal embedding, one uniform per (sequence, step), by
    ``channels.sample_trajectories``.

    Returns tuples rather than the sampler's array because the language
    benchmark digests ``repr`` of this output, and numpy summarizes the
    ``repr`` of a large array; returning the array waits for the next change
    to the benchmark."""
    from .models import quantize_classical  # models imports this module

    q = quantize_classical(h)
    outcomes = sample_trajectories(list(q.channel.groups.values()), q.rho0,
                                   n_seq, t, seed)
    return list(zip(*outcomes.T.tolist())) or [()] * n_seq


def _from_row_tables(alphabet, transition_rows, emission_rows) -> ClassicalHmm:
    """Build from row-convention tables, started in the steady state:
    transition rows are FROM-state rows and emission rows are per-state
    symbol distributions."""
    a = np.asarray(transition_rows, dtype=float).T
    b = np.asarray(emission_rows, dtype=float).T
    n = a.shape[0]
    h = ClassicalHmm(alphabet=alphabet, A=a, B=b, x0=np.full(n, 1.0 / n))
    return ClassicalHmm(alphabet=alphabet, A=a, B=b, x0=steady_state_classical(h))


def market_model() -> ClassicalHmm:
    """Four-state price-direction model, started in the steady state."""
    transition_rows = [
        [0.50, 0.10, 0.15, 0.25],
        [0.10, 0.50, 0.25, 0.15],
        [0.25, 0.15, 0.50, 0.10],
        [0.15, 0.25, 0.10, 0.50],
    ]
    emission_rows = [
        [0.8, 0.2],
        [0.2, 0.8],
        [0.4, 0.6],
        [0.6, 0.4],
    ]
    return _from_row_tables(["0", "1"], transition_rows, emission_rows)


def gaussian4_model() -> ClassicalHmm:
    """Four-state volatility-mixture model with the discretized 4-symbol
    emission table, started in the steady state."""
    transition_rows = [
        [0.60, 0.25, 0.05, 0.10],
        [0.05, 0.15, 0.05, 0.75],
        [0.75, 0.05, 0.15, 0.05],
        [0.10, 0.05, 0.65, 0.20],
    ]
    emission_rows = [
        [0.00, 0.50, 0.50, 0.00],
        [0.01, 0.49, 0.49, 0.01],
        [0.13, 0.37, 0.37, 0.13],
        [0.22, 0.28, 0.28, 0.22],
    ]
    return _from_row_tables(["0", "1", "2", "3"], transition_rows, emission_rows)


def fixtures() -> dict[str, ClassicalHmm]:
    return {"market": market_model(), "gaussian4": gaussian4_model()}


def hmm_to_json(h: ClassicalHmm) -> dict:
    return {
        "alphabet": list(h.alphabet),
        "A": h.A.tolist(),
        "B": h.B.tolist(),
        "x0": h.x0.tolist(),
    }


HMM_JSON = {"alphabet": "list of strings", "A": [["number"]], "B": [["number"]],
            "x0": ["number"]}


def hmm_from_json(d: dict) -> ClassicalHmm:
    check_json(d, HMM_JSON)
    return ClassicalHmm(alphabet=d["alphabet"], A=d["A"], B=d["B"], x0=d["x0"])
