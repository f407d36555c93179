"""Slow reference helpers that only the tests call.

Random states, unitaries and channels to test the library on, and
independent oracles for what it computes fast: partial traces, Hermitian
eigendecompositions, the Choi matrix and Kraus rank, the sum K (x) conj(K)
transfer matrices on row-major vec(rho), the Hermitian basis as the
columns vec(B_c), per-symbol probabilities, the distribution table as one
dict entry per sequence with its exact tables, CSV reader and writer,
divergences and fitness, per-tuple empirical counts, the forward
recursion run on a laid-out step, KL and total-variation
distances, and the amplitude-damping channel in Kraus form. Each is grouped under the library module it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from qhmm.channels import KrausChannel, apply_symbol
from qhmm.lang import (DistributionTable, Sequence, forward_plan, forward_probs,
                       parse_sequence, render_sequence, sequences_of_length)
from qhmm.linalg import RANK_REL_TOL, as_matrix, check_density, dagger, numerical_rank


# linear algebra and states (qhmm.linalg)


def ket(i: int, dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=np.complex128)
    v[i] = 1.0
    return v


def is_hermitian(m: np.ndarray, tol: float = 1e-8) -> bool:
    m = np.asarray(m)
    return m.shape[0] == m.shape[1] and np.abs(m - dagger(m)).max() <= tol


def is_density(rho: np.ndarray, **kw) -> bool:
    try:
        check_density(rho, **kw)
        return True
    except ValueError:
        return False


def partial_trace_emission(rho: np.ndarray, dim_s: int, dim_e: int) -> np.ndarray:
    """Trace out the emission (right, least significant) factor."""
    rho = as_matrix(rho)
    if rho.shape != (dim_s * dim_e, dim_s * dim_e):
        raise ValueError(
            f"dimension mismatch: {rho.shape} vs dims ({dim_s}, {dim_e})"
        )
    r = rho.reshape(dim_s, dim_e, dim_s, dim_e)
    return np.einsum("sete->st", r)


def eig_hermitian(m: np.ndarray, tol: float = 1e-8):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns (eigenvalues, eigenvectors) with eigenvectors as columns, so that
    m == V @ diag(w) @ V†.
    """
    m = as_matrix(m)
    if not is_hermitian(m, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((m + dagger(m)) / 2)
    order = np.argsort(w)[::-1]
    return w[order].real, v[:, order]


def operators_rank(ops: list[np.ndarray], rel_tol: float = RANK_REL_TOL) -> int:
    """Rank of a set of operators viewed as real vectors (re/im stacked)."""
    rows = [np.concatenate([op.real.ravel(), op.imag.ravel()]) for op in ops]
    return numerical_rank(np.array(rows).astype(np.complex128), rel_tol)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary from the QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


# channels (qhmm.channels)


def kraus_transfer_matrix(kraus: np.ndarray) -> np.ndarray:
    """N^2 x N^2 matrix acting on row-major vec(rho): sum_K K (x) conj(K) over
    a (k, N, N) stack, the zero matrix for an empty one."""
    k, n = kraus.shape[:2]
    pairs = kraus[:, :, None, :, None] * kraus.conj()[:, None, :, None, :]
    return pairs.reshape(k, n * n, n * n).sum(axis=0)


def transfer_matrix(ch: KrausChannel) -> np.ndarray:
    """The full channel's ``kraus_transfer_matrix``."""
    return kraus_transfer_matrix(ch.operators())


def hermitian_basis_columns(n):
    """(N^2, N^2) columns vec(B_cc'): |c><c|, |c><c'| + |c'><c| for c < c'
    and i|c'><c| - i|c><c'| for c > c', so that rho = sum x[c, c'] B_cc'."""
    basis = np.zeros((n, n, n, n), dtype=complex)
    for c in range(n):
        for c2 in range(n):
            if c <= c2:
                basis[c, c2, c, c2] = basis[c2, c, c, c2] = 1.0
            else:
                basis[c2, c, c, c2], basis[c, c2, c, c2] = 1j, -1j
    return basis.reshape(n * n, n * n)


def symbol_probability(ch: KrausChannel, rho: np.ndarray, a: str) -> float:
    p = float(np.trace(apply_symbol(ch, rho, a)).real)
    return min(max(p, 0.0), 1.0)


def choi(ch: KrausChannel) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) T(|i><j|), an N^2 x N^2 PSD operator."""
    n = ch.dim
    # row K holds the blocks K|i> in input-basis order
    v = ch.operators().swapaxes(1, 2).reshape(-1, n * n)
    return v.T @ v.conj()


def kraus_rank(ch: KrausChannel, rel_tol: float = 1e-7) -> int:
    """Rank of the Choi matrix = minimal number of Kraus operators."""
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    w, _ = eig_hermitian(choi(ch))
    top = max(w[0], 0.0)
    if top == 0.0:
        return 0
    return int(np.count_nonzero(w > rel_tol * top))


def random_channel(
    dim: int, n_kraus: int, rng: np.random.Generator, n_symbols: int = 1
) -> KrausChannel:
    """Random CPTP channel: Gaussian blocks normalized by the inverse sqrt of
    their completeness sum, split into n_symbols consecutive groups."""
    if n_kraus < n_symbols:
        raise ValueError("need at least one Kraus operator per symbol")
    # per block its real then its imaginary part, in one row-major draw
    parts = rng.normal(size=(n_kraus, 2, dim, dim))
    blocks = parts[:, 0] + 1j * parts[:, 1]
    # the normalized stack M (M^dagger M)^(-1/2) is the polar factor U V^dagger
    # of the stacked blocks M = U S V^dagger, complete to rounding however
    # ill-conditioned M is (inverting the square root of M^dagger M squares
    # the condition number)
    u, _, vh = np.linalg.svd(blocks.reshape(-1, dim), full_matrices=False)
    ops = (u @ vh).reshape(n_kraus, dim, dim)
    symbol = np.minimum(np.arange(n_kraus) * n_symbols // n_kraus, n_symbols - 1)
    return KrausChannel(dim=dim, groups={str(a): ops[symbol == a]
                                         for a in range(n_symbols)})


# distribution tables and the forward recursion (qhmm.lang)


@dataclass
class DictTable:
    """A distribution table as one dict entry per listed sequence: the
    reference that ``lang.DistributionTable``'s arrays are checked against."""

    t: int
    probs: dict[Sequence, float] = field(default_factory=dict)

    def prob(self, seq: Sequence) -> float:
        return self.probs.get(tuple(seq), 0.0)

    def total(self) -> float:
        return math.fsum(self.probs.values())

    def items(self):
        return self.probs.items()

    def __len__(self):
        return len(self.probs)


def table(t: int, m: int, probs: dict[Sequence, float]) -> DistributionTable:
    """The library table listing ``probs``'s (sequence, probability) pairs."""
    return DistributionTable.from_items(t, m, probs.items())


def dict_exact_tables(ops, init, final, lengths) -> dict[int, DictTable]:
    """``lang.exact_tables`` one dict entry per sequence, each clipped by
    min(max(p, 0), 1)."""
    lengths = sorted(set(lengths))
    m = len(ops)
    tables = {t: DictTable(t, {s: min(max(p, 0.0), 1.0) for s, p in
                               zip(sequences_of_length(m, t), vec.tolist())})
              for t, vec in zip(lengths, forward_probs(ops, init, final, lengths))}
    if 0 in tables:
        tables[0] = DictTable(0, {(): 1.0})
    return tables


def dict_read_tables_csv(path) -> dict[int, DictTable]:
    """The tables of a ``sequence,probability`` file, in file order within a
    length, over the alphabet of the symbols present, sorted."""
    with open(path) as fh:
        rows = [line.strip().rpartition(",")[::2] for line in fh
                if line.strip() and not line.lower().startswith("sequence,")]
    alphabet = sorted({ch for text, _ in rows for ch in text})
    tables: dict[int, DictTable] = {}
    for text, prob in rows:
        seq = parse_sequence(text, alphabet)
        tables.setdefault(len(seq), DictTable(len(seq))).probs[seq] = float(prob)
    return tables


def dict_divergence_max(d_l, d_q) -> float:
    """Max over the union of supports of |pL - pQ|, one sequence at a time."""
    keys = {s for s, _ in d_l.items()} | {s for s, _ in d_q.items()}
    return max((abs(d_l.prob(k) - d_q.prob(k)) for k in keys), default=0.0)


def dict_divergence_avg(target, hyp) -> float:
    return math.fsum(dict_divergence_max(a, b) for a, b in zip(target, hyp)) / len(target)


def dict_write_tables_csv(path, tables, alphabet) -> None:
    """``sequence,probability`` lines, each table's sequences sorted."""
    with open(path, "w") as fh:
        fh.write("sequence,probability\n")
        for tab in tables:
            for seq in sorted(tab.probs):
                fh.write(f"{render_sequence(seq, alphabet)},{tab.probs[seq]:.12g}\n")


def fitness_reference(hyp, target, c_q: float = 0.01, c_e: float = 0.01) -> float:
    """``learning.fitness_reference`` on ``DictTable``s: the hypothesis's
    exact tables against the target tables, one sequence at a time."""
    from qhmm.learning import complexity
    from qhmm.models import forward_operators

    targets = sorted(target, key=lambda tab: tab.t)
    hyp_tables = dict_exact_tables(*forward_operators(hyp.model(hyp.circuit.parameters())),
                                   [tab.t for tab in targets])
    div = dict_divergence_avg(targets, [hyp_tables[tab.t] for tab in targets])
    return -(div + complexity(hyp, c_q, c_e))


def empirical_estimate(windows: list[Sequence], t: int) -> DictTable:
    """Empirical frequencies of the windows; counts are exact integers. Kept
    as the per-tuple test oracle of ``empirical_table``."""
    if not windows:
        raise ValueError("cannot estimate a distribution from an empty sample")
    counts: dict[Sequence, int] = {}
    for w in windows:
        if len(w) != t:
            raise ValueError(f"window {w} does not have length {t}")
        counts[w] = counts.get(w, 0) + 1
    n = len(windows)
    return DictTable(t=t, probs={s: c / n for s, c in counts.items()})


def forward_levels(step, init, final, lengths) -> list[np.ndarray]:
    """``forward_plan`` built and run once, on a (..., D, m*(D + 1)) step."""
    d = step.shape[-2]
    return forward_plan(step.shape[-1] // (d + 1), init, final, lengths)(step)


def kl_divergence(d_l, d_q, epsilon: float = 1e-12) -> float:
    """Relative entropy sum p log(p/q), hypothesis probabilities floored at
    epsilon so zero-support sequences stay finite."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    acc = 0.0
    for seq, p in d_l.items():
        if p <= 0.0:
            continue
        q = max(d_q.prob(seq), epsilon)
        acc += p * math.log(p / q)
    return max(acc, 0.0)


def total_variation(d_l, d_q) -> float:
    keys = {s for s, _ in d_l.items()} | {s for s, _ in d_q.items()}
    return math.fsum(abs(d_l.prob(k) - d_q.prob(k)) for k in keys)


# model fixtures (qhmm.models)


def amplitude_damping_channel(gamma: float) -> KrausChannel:
    """State-first damping operators K0 = diag(1, sqrt(1-gamma)) for symbol 0
    and K1 = sqrt(gamma)|0><1| for symbol 1."""
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=np.complex128)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=np.complex128)
    return KrausChannel(dim=2, groups={"0": [k0], "1": [k1]})
