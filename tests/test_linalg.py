import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhmm import classical, linalg, models
from qhmm.linalg import (
    complete_isometry_to_unitary,
    dagger,
    density_basis,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    numerical_rank,
    singular_values,
    spectral_norm,
    tensor_product,
)

from oracles import (
    eig_hermitian,
    is_density,
    operators_rank,
    partial_trace_emission,
    random_density,
    random_unitary,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_tensor_identity():
    assert np.array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_basis_projectors():
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    out = tensor_product(p0, p1)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0  # composite index s*M + e = 0*2 + 1
    assert np.array_equal(out, expected)


def test_tensor_x_z_hand_expansion():
    expected = np.array(
        [
            [0, 0, 1, 0],
            [0, 0, 0, -1],
            [1, 0, 0, 0],
            [0, -1, 0, 0],
        ],
        dtype=complex,
    )
    assert np.abs(tensor_product(X, Z) - expected).max() == 0


def test_partial_trace_product_state(rng):
    rho_s = random_density(3, rng)
    e = np.zeros((2, 2), dtype=complex)
    e[0, 0] = 1.0
    assert np.abs(partial_trace_emission(tensor_product(rho_s, e), 3, 2) - rho_s).max() < 1e-14


def test_partial_trace_bell_state():
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(v, v.conj())
    assert np.abs(partial_trace_emission(rho, 2, 2) - np.eye(2) / 2).max() < 1e-14


def test_partial_trace_maximally_mixed():
    assert np.abs(partial_trace_emission(np.eye(4) / 4, 2, 2) - np.eye(2) / 2).max() < 1e-14


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace_emission(np.eye(4), 3, 2)


def test_eig_hermitian_diagonal():
    w, v = eig_hermitian(np.diag([3.0, 1.0]))
    assert np.allclose(w, [3.0, 1.0])
    assert np.abs(np.abs(v) - np.eye(2)).max() < 1e-12


def test_eig_hermitian_pauli_x():
    w, v = eig_hermitian(X)
    assert np.allclose(w, [1.0, -1.0])
    # eigenvectors are |+> and |-> up to phase
    assert abs(abs(v[0, 0]) - 1 / np.sqrt(2)) < 1e-12


def test_eig_hermitian_projector():
    plus = np.full((2, 2), 0.5, dtype=complex)
    w, _ = eig_hermitian(plus)
    assert np.allclose(w, [1.0, 0.0], atol=1e-12)


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_singular_values_identity():
    assert np.allclose(singular_values(np.eye(3)), [1, 1, 1])


def test_singular_values_rank_one():
    m = np.sqrt(2) * np.outer([1, 0], [1, 1]) / np.sqrt(2)  # sqrt(2)*|0><+|
    s = singular_values(m)
    assert abs(s[0] - np.sqrt(2)) < 1e-12 and s[1] < 1e-12


def test_singular_values_zero():
    assert np.allclose(singular_values(np.zeros((2, 3))), 0.0)


def test_numerical_rank_identity():
    assert numerical_rank(np.eye(4)) == 4


def test_numerical_rank_zero_matrix():
    assert numerical_rank(np.zeros((3, 3))) == 0


def test_numerical_rank_tol_positive():
    with pytest.raises(ValueError):
        numerical_rank(np.eye(2), rel_tol=0.0)


def test_complete_isometry_square_identity():
    u = complete_isometry_to_unitary(np.eye(4))
    assert np.abs(u - np.eye(4)).max() < 1e-12


def test_complete_isometry_hadamard_column():
    v = np.array([[1.0], [1.0]]) / np.sqrt(2)
    u = complete_isometry_to_unitary(v)
    assert np.abs(u[:, 0] - v[:, 0]).max() < 1e-12
    assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12


def test_complete_isometry_rejects_non_isometry():
    with pytest.raises(ValueError):
        complete_isometry_to_unitary(np.array([[1.0], [1.0]]))


def test_complete_isometry_embeds_at_e0(rng):
    # columns of the result at s*M + e0 must equal the isometry's columns
    k = random_unitary(2, rng)
    v = np.zeros((6, 2), dtype=complex)
    v[0::3, :] = k  # one Kraus op at emission index 0 of M=3
    u = complete_isometry_to_unitary(v, e0=1)
    for s in range(2):
        assert np.abs(u[:, s * 3 + 1] - v[:, s]).max() < 1e-12
    assert is_unitary(u)


def test_density_basis_n1():
    (op,) = density_basis(1)
    assert np.array_equal(op, np.array([[1.0]]))


def test_density_basis_n2_contains_plus_projector():
    ops = density_basis(2)
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert any(np.abs(op - plus).max() < 1e-12 for op in ops)
    assert len(ops) == 4


@pytest.mark.parametrize("n", [2, 3, 4])
def test_density_basis_members_valid_and_independent(n):
    ops = density_basis(n)
    assert len(ops) == n * n
    for op in ops:
        assert is_density(op)
    assert operators_rank(ops) == n * n


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_tensor_of_unitaries_is_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    u, v = random_unitary(dim, rng), random_unitary(dim, rng)
    assert is_unitary(tensor_product(u, v))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 2**31 - 1))
def test_partial_trace_preserves_trace_and_hermiticity(ds, de, seed):
    rng = np.random.default_rng(seed)
    rho = random_density(ds * de, rng)
    red = partial_trace_emission(rho, ds, de)
    assert abs(np.trace(red) - 1.0) < 1e-12
    assert np.abs(red - red.conj().T).max() < 1e-12


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([2, 8, 16, 64]), st.integers(0, 2**31 - 1))
def test_eigh_and_svd_reconstruction(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    herm = (g + g.conj().T) / 2
    w, v = eig_hermitian(herm)
    assert np.abs(v @ np.diag(w) @ v.conj().T - herm).max() < 1e-8
    assert np.all(np.diff(w) <= 1e-12)
    s = singular_values(g)
    assert np.all(np.diff(s) <= 1e-12)
    assert abs(spectral_norm(g) - s[0]) < 1e-12


def _newton_schulz(v):
    """The orthonormalizing step applied to the isometry before embedding."""
    return v @ (1.5 * np.eye(v.shape[1]) - 0.5 * (dagger(v) @ v))


def _gram_schmidt_completion(v, e0):
    """Oracle: the column-by-column completion used before the QR one. Column
    s of v goes to s*M + e0; canonical basis vectors, orthonormalized against
    every column built so far, fill the rest in order, skipping candidates
    whose residual norm falls below 1e-8."""
    d, n = v.shape
    m = d // n
    u = np.zeros((d, d), dtype=np.complex128)
    fixed = [s * m + e0 for s in range(n)]
    u[:, fixed] = v
    built = list(fixed)
    candidates = iter(np.eye(d, dtype=np.complex128))
    for col in range(d):
        if col in fixed:
            continue
        while True:
            basis = u[:, built]
            r = next(candidates)
            r = r - basis @ (dagger(basis) @ r)
            nrm = np.linalg.norm(r)
            if nrm >= 1e-8:
                u[:, col] = r / nrm
                built.append(col)
                break
    return u


def _check_completion(v, e0):
    d, n = v.shape
    fixed = np.arange(n) * (d // n) + e0
    u = complete_isometry_to_unitary(v, e0=e0)
    assert np.abs(dagger(u) @ u - np.eye(d)).max() <= 1e-13
    assert np.array_equal(u[:, fixed], _newton_schulz(v))
    oracle = _gram_schmidt_completion(_newton_schulz(v), e0)
    assert np.array_equal(oracle[:, fixed], u[:, fixed])
    # both fill the complement of range(v): the same projector onto it
    free = np.setdiff1d(np.arange(d), fixed)
    p, p_oracle = (w[:, free] @ dagger(w[:, free]) for w in (u, oracle))
    assert np.abs(p - p_oracle).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 32), st.integers(0, 31),
       st.integers(0, 2**31 - 1))
@example(n=4, m=1, e0=0, seed=0)  # N = D: nothing to complete
@example(n=1, m=32, e0=31, seed=0)
def test_isometry_completion_property(n, m, e0, seed):
    # any n orthonormal columns form an isometry
    v = random_unitary(n * m, np.random.default_rng(seed))[:, :n]
    _check_completion(v, e0 % m)


def _quantized_isometry(h, extra):
    """The dilation isometry of a quantized classical model, as
    ``stinespring_dilate`` lays it out: basis-aligned, so Gram-Schmidt
    skips candidates already in its range."""
    ops = models.quantize_classical(h).channel.operators()
    k, n = ops.shape[:2]
    v = np.zeros((n, k + extra, n), dtype=np.complex128)
    v[:, :k] = ops.swapaxes(0, 1)
    return v.reshape(-1, n)


@pytest.mark.parametrize("name", sorted(classical.fixtures()))
@pytest.mark.parametrize("extra", [0, 5])
def test_qr_completion_of_quantized_fixture(name, extra):
    v = _quantized_isometry(classical.fixtures()[name], extra)
    for e0 in (0, v.shape[0] // v.shape[1] - 1):
        _check_completion(v, e0)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 4), st.integers(0, 63),
       st.integers(0, 2**31 - 1))
def test_qr_completion_of_random_quantized_model(n, n_symbols, extra, e0, seed):
    rng = np.random.default_rng(seed)

    def sparse_stochastic(rows):
        # random columns summing to 1, about half of their entries zero
        w = rng.random((rows, n)) * (rng.random((rows, n)) < 0.5)
        w[rng.integers(rows, size=n), np.arange(n)] += 1.0
        return w / w.sum(axis=0)

    h = classical.ClassicalHmm(alphabet=[str(a) for a in range(n_symbols)],
                               A=sparse_stochastic(n), B=sparse_stochastic(n_symbols),
                               x0=np.full(n, 1.0 / n))
    v = _quantized_isometry(h, extra)
    _check_completion(v, e0 % (v.shape[0] // n))


def test_matrix_json_round_trip(rng):
    m = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    d = matrix_to_json(m)
    assert d["rows"] == 3 and d["cols"] == 5
    assert np.abs(matrix_from_json(d) - m).max() < 1e-15


def test_as_matrix_rejects_nan():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.array([[np.nan, 0], [0, 1]]))
