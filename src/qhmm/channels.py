"""CPTP maps as symbol-labeled Kraus families.

A channel is stored as an ordered, read-only mapping symbol -> (k, N, N)
stack of Kraus operators, k >= 0; summing every group gives the full
trace-preserving map, while each group is the sub-channel realized when its
symbol is observed. The constructor copies each stack and builds its
``sandwich_layout`` once, so ``apply_symbol`` only multiplies.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .linalg import (
    as_matrix,
    check_json,
    complete_isometry_to_unitary,
    dagger,
    matrix_from_json,
    matrix_to_json,
    spectral_norm,
)

CPTP_TOL = 1e-9
SAMPLE_CHUNK = 16384  # shots drawn and stepped together by sample_trajectories


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Kraus operators grouped per observable symbol: each group is one
    complex (k, N, N) stack, and an empty group is a (0, N, N) stack.

    The channel is immutable. The constructor copies every stack, so the
    caller's arrays stay independent of it, and marks the copies read-only;
    ``groups`` is a read-only mapping. Each group's ``sandwich_layout`` is
    built here, once, for ``apply_symbol``."""

    dim: int
    groups: Mapping[str, np.ndarray] = field(default_factory=dict)
    _layouts: dict[str, tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.dim
        stacks = {}
        for sym, ops in self.groups.items():
            for k in ops:
                if np.shape(k) != (n, n):
                    raise ValueError(f"Kraus operator for symbol {sym!r} is "
                                     f"{np.shape(k)}, expected ({n}, {n})")
            stack = np.array(np.reshape(ops, (-1, n, n)), dtype=np.complex128)
            if not np.isfinite(stack).all():
                raise ValueError(f"Kraus operators for symbol {sym!r} have "
                                 f"non-finite entries")
            stack.setflags(write=False)
            stacks[str(sym)] = stack
        object.__setattr__(self, "groups", MappingProxyType(stacks))
        object.__setattr__(self, "_layouts", {
            sym: sandwich_layout(stack) for sym, stack in stacks.items()})

    def __reduce__(self):  # pickled and deep-copied by its groups, rebuilt
        return KrausChannel, (self.dim, dict(self.groups))

    def __eq__(self, other):  # one dim, the same symbols in order, equal stacks
        if not isinstance(other, KrausChannel):
            return NotImplemented
        return (self.dim == other.dim and list(self.groups) == list(other.groups)
                and all(map(np.array_equal, self.groups.values(), other.groups.values())))

    def __hash__(self):  # equal channels share their dim, symbols and shapes
        return hash((self.dim, *((a, k.shape) for a, k in self.groups.items())))

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
    return kraus_sandwich(ch.operators(), rho)


def apply_symbol(ch: KrausChannel, rho: np.ndarray, a: str) -> np.ndarray:
    """Unnormalized post-state for symbol a: sum over that group only, by
    the group's layout built with the channel."""
    try:
        layout = ch._layouts[a]
    except KeyError:
        raise KeyError(f"unknown symbol {a!r}") from None
    return sandwich_product(layout, rho)


def kraus_sandwich(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_k K_k rho K_k† over a (k, N, N) stack, for an (N, N) rho or an
    (S, N, N) batch: ``sandwich_product`` of the stack's ``sandwich_layout``;
    zero for an empty stack."""
    return sandwich_product(sandwich_layout(ops), rho)


def sandwich_layout(ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The read-only factors of ``sandwich_product`` for a (k, N, N) stack:
    the (k N, N) rows[(i, k), a] = K_k[i, a] and the (k N, N) conjugate
    transpose of rows read as (N, k N), cols[(k, a), j] = conj K_k[j, a]."""
    n = ops.shape[-1]
    rows = ops.transpose(1, 0, 2).reshape(-1, n)
    cols = rows.reshape(n, -1).conj().T
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def sandwich_product(layout: tuple[np.ndarray, np.ndarray],
                     rho: np.ndarray) -> np.ndarray:
    """sum_k K_k rho K_k† as two flat products over a ``sandwich_layout``:
    row (i, k) of rows @ rho is K_k rho's row i, and each state's (N, k N)
    view of them times cols sums K_k rho K_k† over k."""
    rows, cols = layout
    if np.ndim(rho) == 2:  # one state: np.dot, with less call overhead
        return np.dot(np.dot(rows, rho).reshape(len(rho), -1), cols)
    return (rows @ rho).reshape(*np.shape(rho)[:-1], -1) @ cols


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


def hermitian_coordinates(rho) -> np.ndarray:
    """The (..., N^2) real coordinates x of a Hermitian (N, N) rho or an
    (S, N, N) batch, row-major: rho_ii at (i, i), Re rho_ij at (i, j) and
    Im rho_ij at (j, i), i < j; rho = sum_c x_c B_c (``hermitian_basis``).
    A channel's transfer matrix on them is real (the Pauli-Liouville form
    of Wood, Biamonte & Cory, arXiv:1111.6950, in another basis)."""
    rho = np.asarray(rho, dtype=np.complex128)
    n = rho.shape[-1]
    below = np.tri(n, k=-1, dtype=bool)
    return np.where(below, rho.swapaxes(-1, -2).imag, rho.real).reshape(
        rho.shape[:-2] + (n * n,))


@functools.cache  # keyed by the dimension: few keys
def hermitian_basis(n: int) -> np.ndarray:
    """The read-only (N^2, N, N) stack of the operators B_c that
    ``hermitian_coordinates`` weighs: at c = (c, c'), |c><c| on the
    diagonal, |c><c'| + |c'><c| for c < c' and i|c'><c| - i|c><c'| for
    c > c'."""
    flat = np.arange(n * n)
    c, c2 = np.divmod(flat, n)
    lo, hi, below = np.minimum(c, c2), np.maximum(c, c2), c > c2
    basis = np.zeros((n * n, n, n), dtype=np.complex128)
    basis[flat, lo, hi] = np.where(below, 1j, 1.0)
    basis[flat, hi, lo] = np.where(below, -1j, 1.0)
    basis.setflags(write=False)
    return basis


def real_transfer_matrix(kraus: np.ndarray) -> np.ndarray:
    """The real (N^2, N^2) matrix of sum_k K_k rho K_k† over a (k, N, N)
    stack on ``hermitian_coordinates``: column c holds the coordinates of
    the image of ``hermitian_basis`` operator B_c. The zero matrix for an
    empty stack."""
    images = kraus_sandwich(kraus, hermitian_basis(kraus.shape[-1]))
    return hermitian_coordinates(images).T


@functools.cache  # keyed by register sizes and emission symbols: few keys
def real_transfer_offsets(dim_s: int, dim_e: int, symbols: tuple[int, ...]):
    """Where the real transfer matrices of the Kraus groups of a unitary
    (``kraus_from_unitary`` with e0 = 0, emission e in group symbols[e])
    are gathered from U viewed as float64, laid out as the augmented
    (N^2, m*(N^2 + 1)) step of ``lang.forward_plan``: the flat offsets of
    both factors of every product summed, each product's sign and where
    each sum starts, in the step's row-major order; all read-only.

    Row c of the step belongs to operator B_c of ``hermitian_basis``. It
    holds, in each symbol a's N^2 columns, the coordinates of
    sum K_e B_c K_e^† over the emissions e of a,
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
    Shots sharing an outcome prefix share one normalized state, and the
    states taking outcome o step together through ``sandwich_product`` of
    o's ``sandwich_layout``, built once per call, when o is first taken.
    """
    states = np.asarray(rho0, dtype=np.complex128)[None]
    n = states.shape[1]
    kraus = [np.asarray(g, dtype=np.complex128).reshape(-1, n, n) for g in groups]
    layouts = {}  # outcome -> its sandwich_layout, built at its first step
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
            sel = taken == o
            if o not in layouts:
                layouts[o] = sandwich_layout(kraus[o])
            nxt[sel] = sandwich_product(layouts[o], states[prefix[sel]])
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
    """Fixed point rho* = T(rho*) of the full channel's
    ``real_transfer_matrix`` T.

    The multiplicity counts T's eigenvalues within tol_eig of 1; degenerate
    channels (multiplicity > 1) are flagged. rho* is the projection
    R (L^T R)^-1 L^T of I/N onto T's fixed space (the long-run average of the
    channel applied to I/N), trace-normalized and Hermitian by construction.
    R and L are the right and left null vectors of T - I from one SVD whose
    singular values are at rounding level (at most 1e-13 N^2; random
    channels reach 4 eps N^2), at least the nearest one: a slow mode within
    tol_eig of 1 counts in the multiplicity but stays out of the projection.
    """
    n = ch.dim
    t = real_transfer_matrix(ch.operators())
    multiplicity = int(np.count_nonzero(np.abs(np.linalg.eigvals(t) - 1.0) <= tol_eig))
    if not multiplicity:
        raise ValueError(f"no transfer-matrix eigenvalue within {tol_eig:g} of 1")
    u, s, vh = np.linalg.svd(t - np.eye(n * n))
    fixed = max(1, int(np.count_nonzero(s <= 1e-13 * n * n)))
    right, left = vh[-fixed:].T, u[:, -fixed:]
    trace = np.eye(n).ravel()  # also N times the coordinates of I/N
    try:
        x = right @ np.linalg.solve(left.T @ right, left.T @ trace / n)
    except np.linalg.LinAlgError:
        x = np.zeros(n * n)  # no projection: refused below
    if abs(trace @ x) > 1e-9:
        rho = np.tensordot(x / (trace @ x), hermitian_basis(n), 1)
        residual = spectral_norm(apply(ch, rho) - rho)
        if residual <= 1e-8 and np.linalg.eigvalsh(rho).min() >= -1e-8:
            return SteadyStateInfo(rho=rho, residual=residual,
                                   multiplicity=multiplicity,
                                   degenerate=multiplicity > 1)
    raise ValueError("transfer matrix has eigenvalue 1 but no valid fixed point found")


def steady_state(ch: KrausChannel) -> np.ndarray:
    return steady_state_info(ch).rho


def channel_to_json(ch: KrausChannel) -> dict:
    return {
        "dim": ch.dim,
        "groups": {sym: [matrix_to_json(k) for k in ops] for sym, ops in ch.groups.items()},
    }


CHANNEL_JSON = {"dim": "integer", "groups": {str: ["object"]}}


def channel_from_json(d: dict, where: str = "channel") -> KrausChannel:
    check_json(d, CHANNEL_JSON, where)
    return KrausChannel(dim=d["dim"], groups={
        sym: [matrix_from_json(k, f"{where}.groups.{sym}[{i}]") for i, k in enumerate(ops)]
        for sym, ops in d["groups"].items()})
