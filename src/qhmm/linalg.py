"""Dense complex linear algebra and quantum-state primitives.

Operators are plain complex128 numpy arrays. Structural invariants
(hermiticity, unitarity, density conditions) are checked by explicit
validators at fixed tolerances rather than enforced by wrapper classes.
All dimensions in play are small (<= 64 state dim, a few hundred after
dilation), so dense O(d^3) methods are used throughout.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import fields

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


def projector(i: int, dim: int) -> np.ndarray:
    p = np.zeros((dim, dim), dtype=np.complex128)
    p[i, i] = 1.0
    return p


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
    # a huge entry may overflow to inf or nan, which no check lets through;
    # halving before the sum keeps the Hermitian part finite
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.abs(rho - dagger(rho)).max() <= tol_herm:
            raise ValueError("density operator is not Hermitian within tolerance")
        if not abs(np.trace(rho) - 1.0) <= tol_trace:
            raise ValueError("density operator trace differs from 1")
    if not np.linalg.eigvalsh(rho / 2 + dagger(rho) / 2).min() >= -tol_psd:
        raise ValueError("density operator has a negative eigenvalue")
    return rho


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, first factor owning the most significant index.

    The composite index convention is (i_a * rows_b + i_b, j_a * cols_b + j_b):
    the state system is always the left factor, the emission system the right.
    """
    return np.kron(as_matrix(a), as_matrix(b))


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


def matrix_to_json(m: np.ndarray) -> dict:
    """Serialize to {"rows", "cols", "re", "im"} with row-major entries."""
    m = as_matrix(m)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": [float(x) for x in m.real.ravel()],
        "im": [float(x) for x in m.imag.ravel()],
    }


# the JSON kinds that config keys and model-file schemas name
JSON_KINDS = {
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "finite number": lambda v: JSON_KINDS["number"](v) and math.isfinite(v),
    "string": lambda v: isinstance(v, str),
    "list of strings": lambda v: (isinstance(v, list)
                                  and all(isinstance(n, str) for n in v)),
    "list": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}


# a refused value is shown one level deep, within reprlib's other limits:
# six items of a list, four keys of an object, 30 characters of a string
SHOWN = reprlib.Repr()
SHOWN.maxlevel = 1


def check_json(value, kind, where: str = "") -> None:
    """Refuse a JSON value that is not of ``kind`` with a ValueError naming
    it by ``where``. A kind is a name in ``JSON_KINDS``, [kind] for a list
    of that kind, or a dict for an object: {key: kind} for its keys, where
    a key ending in "?" may be absent, or {str: kind} for any keys."""
    name = {list: "list", dict: "object"}.get(type(kind), kind)
    if not JSON_KINDS[name](value):
        raise ValueError(f"{where or 'value'} must be a JSON {name}, "
                         f"got {SHOWN.repr(value)}")
    if isinstance(kind, list) and not (isinstance(kind[0], str)
                                       and all(map(JSON_KINDS[kind[0]], value))):
        for i, item in enumerate(value):  # each item, to name the first bad one
            check_json(item, kind[0], f"{where}[{i}]")
    for key, sub in kind.items() if isinstance(kind, dict) else ():
        for k in value if key is str else [key.rstrip("?")]:
            path = f"{where}.{k}" if where else k
            if k in value:
                check_json(value[k], sub, path)
            elif not key.endswith("?"):
                raise ValueError(f"{path} is missing")


MATRIX_JSON = {"rows": "integer", "cols": "integer", "re": ["number"], "im": ["number"]}


def matrix_from_json(d: dict, where: str = "matrix") -> np.ndarray:
    check_json(d, MATRIX_JSON, where)
    rows, cols = d["rows"], d["cols"]
    re = np.array(d["re"], dtype=float)
    im = np.array(d["im"], dtype=float)
    if re.size != rows * cols or im.size != rows * cols:
        raise ValueError(f"{where} JSON entry count does not match rows*cols")
    return (re + 1j * im).reshape(rows, cols)


def next_power_of_two(k: int) -> int:
    return 1 if k <= 1 else 2 ** math.ceil(math.log2(k))


class FieldsEqual:
    """``==`` of an eq=False dataclass: same type, fields equal, arrays by value."""

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(x, y) if np.ndarray in (type(x), type(y)) else x == y
                   for x, y in pairs)
