"""Dense complex linear algebra and quantum-state primitives.

Operators are plain complex128 numpy arrays. Structural invariants
(hermiticity, unitarity, density conditions) are checked by explicit
validators at fixed tolerances rather than enforced by wrapper classes.
All dimensions in play are small (<= 64 state dim, a few hundred after
dilation), so dense O(d^3) methods are used throughout.
"""

from __future__ import annotations

import math

import numpy as np

TOL_HERM = 1e-10
TOL_TRACE = 1e-10
TOL_PSD = 1e-9
TOL_UNITARY = 1e-9
RANK_REL_TOL = 1e-7


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix has non-finite entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def ket(i: int, dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=np.complex128)
    v[i] = 1.0
    return v


def projector(i: int, dim: int) -> np.ndarray:
    p = np.zeros((dim, dim), dtype=np.complex128)
    p[i, i] = 1.0
    return p


def is_hermitian(m: np.ndarray, tol: float = 1e-8) -> bool:
    m = np.asarray(m)
    return m.shape[0] == m.shape[1] and np.abs(m - dagger(m)).max() <= tol


def is_unitary(u: np.ndarray, tol: float = TOL_UNITARY) -> bool:
    u = np.asarray(u)
    if u.shape[0] != u.shape[1]:
        return False
    d = u.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: not unitary
        return np.abs(dagger(u) @ u - np.eye(d)).max() <= tol


def check_unitary(u: np.ndarray, tol: float = TOL_UNITARY) -> np.ndarray:
    u = as_matrix(u)
    if not is_unitary(u, tol):
        raise ValueError("matrix is not unitary within tolerance")
    return u


def check_density(
    rho: np.ndarray,
    tol_herm: float = TOL_HERM,
    tol_trace: float = TOL_TRACE,
    tol_psd: float = TOL_PSD,
) -> np.ndarray:
    """Validate a density operator: Hermitian, unit trace, PSD up to tol."""
    rho = as_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise ValueError("density operator must be square")
    if np.abs(rho - dagger(rho)).max() > tol_herm:
        raise ValueError("density operator is not Hermitian within tolerance")
    if abs(np.trace(rho) - 1.0) > tol_trace:
        raise ValueError("density operator trace differs from 1")
    if np.linalg.eigvalsh((rho + dagger(rho)) / 2).min() < -tol_psd:
        raise ValueError("density operator has a negative eigenvalue")
    return rho


def is_density(rho: np.ndarray, **kw) -> bool:
    try:
        check_density(rho, **kw)
        return True
    except ValueError:
        return False


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, first factor owning the most significant index.

    The composite index convention is (i_a * rows_b + i_b, j_a * cols_b + j_b):
    the state system is always the left factor, the emission system the right.
    """
    return np.kron(as_matrix(a), as_matrix(b))


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


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values in descending order; sigma_0 is the spectral norm."""
    return np.linalg.svd(as_matrix(m), compute_uv=False)


def spectral_norm(m: np.ndarray) -> float:
    s = singular_values(m)
    return float(s[0]) if s.size else 0.0


def numerical_rank(m: np.ndarray, rel_tol: float = RANK_REL_TOL) -> int:
    """Count singular values above rel_tol * sigma_0 (0 for the zero matrix)."""
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    s = singular_values(m)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def complete_isometry_to_unitary(
    v: np.ndarray, e0: int = 0, tol: float = TOL_UNITARY
) -> np.ndarray:
    """Extend a D x N isometry to a D x D unitary by one Householder QR.

    Column s of ``v`` becomes column s*M + e0 of the unitary, M = D // N,
    matching the embedding |s> -> |s>|e0> of the state register into the
    composite space. One Newton-Schulz step, v (3I - v†v) / 2, first
    orthonormalizes the columns of ``v``: it differs from v (v†v)^(-1/2)
    only at second order in the defect, so an isometry accepted within the
    default ``tol`` gives a unitary to rounding. The last D - N columns of
    the complete QR of ``v`` are an orthonormal basis of the complement of
    its range; they fill the remaining columns in order.
    """
    v = as_matrix(v)
    d, n = v.shape
    if n > d:
        raise ValueError("isometry must be tall: N <= D")
    if d % n != 0:
        raise ValueError("isometry rows must be a multiple of its columns")
    gram = dagger(v) @ v
    if np.abs(gram - np.eye(n)).max() > tol:
        raise ValueError("input is not an isometry")
    v = v @ (1.5 * np.eye(n) - 0.5 * gram)
    m = d // n
    if not 0 <= e0 < m:
        raise ValueError("e0 out of range")

    q = np.linalg.qr(v, mode="complete")[0]
    q[:, :n] = v
    # column s*M + e gathers v's column s at e == e0, else the next free one
    free = np.arange(n, d).reshape(n, m - 1)
    return q[:, np.insert(free, e0, np.arange(n), axis=1).ravel()]


def density_basis(n: int) -> list[np.ndarray]:
    """A spanning set of n^2 valid density operators.

    Diagonal projectors b_ii, plus for each i<j the symmetric element
    (b_ii + b_jj + b_ij + b_ji)/2 and the antisymmetric element
    (b_ii + b_jj + i(b_ji - b_ij))/2. The global 1/2 keeps the off-diagonal
    elements positive semidefinite with unit trace.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    def b(i, j):
        m = np.zeros((n, n), dtype=np.complex128)
        m[i, j] = 1.0
        return m

    ops = [b(i, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            ops.append(0.5 * (b(i, i) + b(j, j) + b(i, j) + b(j, i)))
    for i in range(n):
        for j in range(i + 1, n):
            ops.append(0.5 * (b(i, i) + b(j, j) + 1j * (b(j, i) - b(i, j))))
    return ops


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


def matrix_to_json(m: np.ndarray) -> dict:
    """Serialize to {"rows", "cols", "re", "im"} with row-major entries."""
    m = as_matrix(m)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": [float(x) for x in m.real.ravel()],
        "im": [float(x) for x in m.imag.ravel()],
    }


def matrix_from_json(d: dict) -> np.ndarray:
    rows, cols = int(d["rows"]), int(d["cols"])
    re = np.array(d["re"], dtype=float)
    im = np.array(d["im"], dtype=float)
    if re.size != rows * cols or im.size != rows * cols:
        raise ValueError("matrix JSON entry count does not match rows*cols")
    return (re + 1j * im).reshape(rows, cols)


def next_power_of_two(k: int) -> int:
    return 1 if k <= 1 else 2 ** math.ceil(math.log2(k))
