"""CPTP maps as symbol-labeled Kraus families.

A channel is stored as an ordered mapping symbol -> (k, N, N) stack of Kraus
operators, k >= 0; summing every group gives the full trace-preserving map,
while each group is the sub-channel realized when its symbol is observed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    as_matrix,
    complete_isometry_to_unitary,
    dagger,
    matrix_from_json,
    matrix_to_json,
    spectral_norm,
)

CPTP_TOL = 1e-9
SAMPLE_CHUNK = 16384  # shots drawn and stepped together by sample_trajectories


@dataclass
class KrausChannel:
    """Kraus operators grouped per observable symbol: each group is one
    complex (k, N, N) stack, and an empty group is a (0, N, N) stack."""

    dim: int
    groups: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        n = self.dim
        stacks = {}
        for sym, ops in self.groups.items():
            for k in ops:
                if np.shape(k) != (n, n):
                    raise ValueError(f"Kraus operator for symbol {sym!r} is "
                                     f"{np.shape(k)}, expected ({n}, {n})")
            stack = np.asarray(ops, dtype=np.complex128).reshape(-1, n, n)
            if not np.isfinite(stack).all():
                raise ValueError(f"Kraus operators for symbol {sym!r} have "
                                 f"non-finite entries")
            stacks[str(sym)] = stack
        self.groups = stacks

    def operators(self) -> np.ndarray:
        """All Kraus operators as one (K, N, N) stack in group order."""
        return np.concatenate([np.empty((0, self.dim, self.dim), np.complex128),
                               *self.groups.values()])

    def completeness_defect(self) -> float:
        ops = self.operators()
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: not complete
            defect = (dagger(ops) @ ops).sum(axis=0) - np.eye(self.dim)
            return float(np.abs(defect).max())


@dataclass
class CptpReport:
    complete: bool
    max_violation: float


def validate_cptp(ch: KrausChannel, tol: float = CPTP_TOL) -> CptpReport:
    """Check sum K†K == I within tol; complete positivity is automatic here."""
    v = ch.completeness_defect()
    return CptpReport(complete=v <= tol, max_violation=v)


def apply(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Full channel action sum_K K rho K†."""
    rho = as_matrix(rho)
    if rho.shape != (ch.dim, ch.dim):
        raise ValueError(f"state dim {rho.shape} does not match channel dim {ch.dim}")
    ops = ch.operators()
    return (ops @ rho @ dagger(ops)).sum(axis=0)


def apply_symbol(ch: KrausChannel, rho: np.ndarray, a: str) -> np.ndarray:
    """Unnormalized post-state for symbol a: sum over that group only."""
    if a not in ch.groups:
        raise KeyError(f"unknown symbol {a!r}")
    ops = ch.groups[a]
    return (ops @ rho @ dagger(ops)).sum(axis=0)


def kraus_from_unitary(
    u: np.ndarray, dim_s: int, dim_e: int, e0: int = 0
) -> np.ndarray:
    """(dim_e, dim_s, dim_s) stack of K_e[s, s'] = U[s*dim_e + e, s'*dim_e + e0]
    over the emissions e."""
    u = as_matrix(u)
    if u.shape != (dim_s * dim_e, dim_s * dim_e):
        raise ValueError("unitary dim does not equal dim_s * dim_e")
    if not 0 <= e0 < dim_e:
        raise ValueError("e0 out of range")
    u4 = u.reshape(dim_s, dim_e, dim_s, dim_e)
    return np.ascontiguousarray(u4[:, :, :, e0].transpose(1, 0, 2))


def stinespring_dilate(ch: KrausChannel, dim_e: int, e0: int = 0) -> np.ndarray:
    """Dilate to a unitary on H_S (x) H_E with one emission index per Kraus op.

    The isometry sends |v> to sum_k K_k|v> (x) |e_k>, and one Householder QR
    completes it to a unitary (``linalg.complete_isometry_to_unitary``).
    Extracting Kraus operators back with ``kraus_from_unitary`` recovers the
    original family, zero-padded up to dim_e.
    """
    ops = ch.operators()
    if dim_e < len(ops):
        raise ValueError(f"dim_e={dim_e} too small for {len(ops)} Kraus operators")
    rep = validate_cptp(ch)
    if not rep.complete:
        raise ValueError(
            f"channel is not trace preserving (violation {rep.max_violation:.3g})"
        )
    n = ch.dim
    v = np.zeros((n, dim_e, n), dtype=np.complex128)
    v[:, :len(ops)] = ops.swapaxes(0, 1)  # row s*dim_e + e holds K_e[s]
    return complete_isometry_to_unitary(v.reshape(n * dim_e, n), e0=e0)


@dataclass
class SteadyStateInfo:
    rho: np.ndarray
    residual: float
    multiplicity: int
    degenerate: bool


def kraus_transfer_matrix(kraus: np.ndarray) -> np.ndarray:
    """N^2 x N^2 matrix acting on row-major vec(rho): sum_K K (x) conj(K) over
    a (k, N, N) stack, the zero matrix for an empty one."""
    k, n = kraus.shape[:2]
    pairs = kraus[:, :, None, :, None] * kraus.conj()[:, None, :, None, :]
    return pairs.reshape(k, n * n, n * n).sum(axis=0)


def transfer_matrix(ch: KrausChannel) -> np.ndarray:
    """The full channel's ``kraus_transfer_matrix``."""
    return kraus_transfer_matrix(ch.operators())


def hermitian_coordinates(rho) -> np.ndarray:
    """The (N^2,) real coordinates of a Hermitian (N, N) rho, row-major:
    rho_ii at (i, i), Re rho_ij at (i, j) and Im rho_ij at (j, i), i < j.
    A channel's transfer matrix on them is real (the Pauli-Liouville form
    of Wood, Biamonte & Cory, arXiv:1111.6950, in another basis)."""
    rho = np.asarray(rho, dtype=np.complex128)
    below = np.tri(len(rho), k=-1, dtype=bool)
    return np.where(below, rho.T.imag, rho.real).ravel()


@functools.cache  # keyed by register sizes and emission symbols: few keys
def real_transfer_offsets(dim_s: int, dim_e: int, symbols: tuple[int, ...]):
    """Where the real transfer matrices of the Kraus groups of a unitary
    (``kraus_from_unitary`` with e0 = 0, emission e in group symbols[e])
    are gathered from U viewed as float64, laid out as the augmented
    (N^2, m*(N^2 + 1)) step of ``lang.forward_plan``: the flat offsets of
    both factors of every product summed, each product's sign and where
    each sum starts, in the step's row-major order; all read-only.

    Coordinate (c, c') of ``hermitian_coordinates`` weighs the basis
    operator |c><c| on the diagonal, |c><c'| + |c'><c| for c < c' and
    i|c'><c| - i|c><c'| for c > c'. Its row holds, in each symbol a's N^2
    columns, the coordinates of sum K_e B K_e^† over the emissions e of a,
    and in a's effect column that operator's trace: each a sum of Re or
    Im K_e[r, p] conj(K_e[r', p']) times 1 or +-i, with
    Re(K conj K') = aa' + bb' and Im(K conj K') = ba' - ab' for K = a + ib."""
    sym, n, flat = np.array(symbols), dim_s, np.arange(dim_s**2)
    c, c2 = np.divmod(flat, n)
    lo, hi, off, below = np.minimum(c, c2), np.maximum(c, c2), c != c2, c > c2
    # each row's terms i^q |p><p'|: one on the diagonal (twin 0), two off it
    # (twins 1 and 2)
    row = np.r_[flat, flat[off]]
    p, p2, q = np.r_[lo, hi[off]], np.r_[hi, lo[off]], np.r_[below, 3 * below[off]]
    twin = np.r_[off, 2 * off[off]]
    # each column reads Re (0) or Im (1) of entry (r, r'), r <= r'; the
    # effect column, n^2, reads Re of every diagonal entry
    col, diag = np.r_[flat, np.full(n, n * n)], np.arange(n)
    r, r2, part = np.r_[lo, diag], np.r_[hi, diag], np.r_[below, 0 * diag]
    i, j, e, b = np.indices((len(row), len(col), dim_e, 2)).reshape(4, -1)
    # a diagonal entry is real, so twin terms give it equal parts: it takes
    # the first twice and drops the second
    twice = (r[j] == r2[j]) * twin[i]
    keep = twice < 2
    i, j, e, b, twice = i[keep], j[keep], e[keep], b[keep], twice[keep]
    # Re or Im of i^q K conj K' is +-Re (even turn) or +-Im (odd)
    turn = (q[i] + 3 * part[j]) % 4
    im = turn % 2
    d = n * dim_e  # K_e[r, p] = U[r*dim_e + e, p*dim_e], re and im interleaved
    left = 2 * ((r[j] * dim_e + e) * d + p[i] * dim_e) + (b ^ im)
    right = 2 * ((r2[j] * dim_e + e) * d + p2[i] * dim_e) + b
    signs = (-1.0) ** ((turn % 3 > 0) + (im & b)) * (1 + twice)
    key = (row[i] * (sym.max() + 1) + sym[e]) * (n * n + 1) + col[j]
    order = np.argsort(key, kind="stable")
    offsets = (left[order], right[order], signs[order],
               np.flatnonzero(np.diff(key[order], prepend=-1)))
    for a in offsets:
        a.setflags(write=False)
    return offsets


def sample_outcomes(groups, rho0: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """(shots, t) outcome indices of measurement trajectories from rho0.

    ``groups[o]`` lists the Kraus operators of outcome o and ``draws`` holds
    one uniform per (shot, step); a step takes the first outcome whose
    cumulative probability tr(E_o rho), E_o = sum K†K, reaches the draw.
    Shots sharing an outcome prefix share one normalized state.
    """
    states = np.asarray(rho0, dtype=np.complex128)[None]
    n = states.shape[1]
    kraus = [np.asarray(g, dtype=np.complex128).reshape(-1, n, n) for g in groups]
    effects = np.stack([np.einsum("kji,kjl->il", k.conj(), k) for k in kraus])
    m = len(kraus)
    node = np.zeros(len(draws), dtype=np.intp)
    out = np.empty(draws.shape, dtype=np.min_scalar_type(m))
    for step in range(draws.shape[1]):
        probs = np.clip(np.einsum("oij,pji->po", effects, states).real, 0.0, None)
        cdf = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
        picked = (cdf[node] < draws[:, step, None]).sum(axis=1)
        out[:, step] = np.minimum(picked, m - 1)
        # dense rank of the (prefix, outcome) keys: their sorted order, no sort
        key = node * m + out[:, step]
        present = np.zeros(len(states) * m, dtype=bool)
        present[key] = True
        keys = np.flatnonzero(present)
        node = (np.cumsum(present) - 1)[key]
        prefix, taken = np.divmod(keys, m)
        nxt = np.empty((len(keys), n, n), dtype=np.complex128)
        for o in np.unique(taken):
            k, sel = kraus[o][None], taken == o
            nxt[sel] = (k @ states[prefix[sel], None] @ k.conj().swapaxes(2, 3)).sum(1)
        states = nxt / np.trace(nxt, axis1=1, axis2=2).real[:, None, None]
    return out


def sample_trajectories(groups, rho0: np.ndarray, shots: int, t: int,
                        seed: int) -> np.ndarray:
    """(shots, t) outcome indices of ``sample_outcomes``, in the smallest
    unsigned dtype that holds them, with draws from ``default_rng(seed)``.

    Shots are drawn and stepped SAMPLE_CHUNK at a time, so temporary memory
    does not grow with ``shots``. The result equals one (shots, t) draw: the
    chunks read the same stream in the same row-major order, and each shot's
    state depends on its own outcome prefix only.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((shots, t), dtype=np.min_scalar_type(len(groups)))
    for start in range(0, shots, SAMPLE_CHUNK):
        draws = rng.random((min(SAMPLE_CHUNK, shots - start), t))
        out[start:start + len(draws)] = sample_outcomes(groups, rho0, draws)
    return out


def steady_state_info(ch: KrausChannel, tol_eig: float = 1e-6) -> SteadyStateInfo:
    """Fixed point rho* = T(rho*) via the transfer-matrix eigenproblem.

    The eigenvector of eigenvalue closest to 1 is reshaped, hermitized and
    trace-normalized; degenerate channels (eigenvalue-1 multiplicity > 1) are
    flagged and any valid fixed point is returned.
    """
    n = ch.dim
    t = transfer_matrix(ch)
    w, vecs = np.linalg.eig(t)
    order = np.argsort(np.abs(w - 1.0))
    close = [i for i in order if abs(w[i] - 1.0) <= tol_eig]
    if not close:
        raise ValueError("no transfer-matrix eigenvalue within 1e-6 of 1")
    multiplicity = len(close)

    candidates = []
    for i in close:
        r = vecs[:, i].reshape(n, n)
        candidates.append((r + dagger(r)) / 2)
        candidates.append(1j * (r - dagger(r)) / 2)
    if multiplicity > 1:
        # degenerate fixed space: numpy may hand back indefinite mixtures, so
        # also try the spectral projection of I/N onto the eigenvalue-1 space
        # (the long-run average of the channel applied to I/N), which is PSD
        try:
            sel = (np.abs(w - 1.0) <= tol_eig).astype(float)
            proj = vecs @ (sel[:, None] * np.linalg.inv(vecs))
            candidates.append((proj @ (np.eye(n).ravel() / n)).reshape(n, n))
        except np.linalg.LinAlgError:
            pass
    for cand in candidates:
        cand = (cand + dagger(cand)) / 2
        tr = np.trace(cand).real
        if abs(tr) < 1e-9:
            continue
        rho = cand / tr
        if np.linalg.eigvalsh(rho).min() < -1e-8:
            continue
        residual = spectral_norm(apply(ch, rho) - rho)
        if residual <= 1e-8:
            return SteadyStateInfo(
                rho=rho,
                residual=residual,
                multiplicity=multiplicity,
                degenerate=multiplicity > 1,
            )
    raise ValueError("transfer matrix has eigenvalue 1 but no valid fixed point found")


def steady_state(ch: KrausChannel) -> np.ndarray:
    return steady_state_info(ch).rho


def channel_to_json(ch: KrausChannel) -> dict:
    return {
        "dim": ch.dim,
        "groups": {sym: [matrix_to_json(k) for k in ops] for sym, ops in ch.groups.items()},
    }


def channel_from_json(d: dict) -> KrausChannel:
    groups = d["groups"]
    if not isinstance(groups, dict):
        raise ValueError(
            f"channel groups must be a JSON object, not {type(groups).__name__}")
    return KrausChannel(
        dim=int(d["dim"]),
        groups={sym: [matrix_from_json(k) for k in ops] for sym, ops in groups.items()},
    )
