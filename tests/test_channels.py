import copy
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qhmm import channels as ch
from qhmm import classical, models
from qhmm.channels import (
    KrausChannel,
    apply,
    kraus_from_unitary,
    steady_state,
    steady_state_info,
    stinespring_dilate,
    validate_cptp,
)
from qhmm.linalg import is_unitary, numerical_rank, spectral_norm

from oracles import (
    amplitude_damping_channel,
    choi,
    hermitian_basis_columns,
    is_density,
    kraus_rank,
    kraus_transfer_matrix,
    random_channel,
    random_density,
    random_unitary,
    symbol_probability,
    transfer_matrix,
)


def identity_channel(dim=2):
    return KrausChannel(dim=dim, groups={"0": [np.eye(dim, dtype=complex)]})


def depolarizing_channel(dim=2):
    ops = []
    for i in range(dim):
        for j in range(dim):
            k = np.zeros((dim, dim), dtype=complex)
            k[i, j] = 1.0 / np.sqrt(dim)
            ops.append(k)
    return KrausChannel(dim=dim, groups={"0": ops})


def test_validate_identity():
    rep = validate_cptp(identity_channel())
    assert rep.complete and rep.max_violation == 0.0


def test_validate_monras_complete(monras):
    rep = validate_cptp(monras.channel)
    assert rep.complete


def test_validate_scaled_incomplete():
    scaled = KrausChannel(dim=2, groups={"0": [0.9 * np.eye(2, dtype=complex)]})
    rep = validate_cptp(scaled)
    assert not rep.complete
    assert abs(rep.max_violation - 0.19) < 1e-12


def test_apply_identity(rng):
    rho = random_density(2, rng)
    assert np.abs(apply(identity_channel(), rho) - rho).max() < 1e-14


def test_apply_damping_on_plus():
    chan = amplitude_damping_channel(0.5)
    plus = np.full((2, 2), 0.5, dtype=complex)
    out = apply(chan, plus)
    assert abs(out[0, 0].real - 0.75) < 1e-12
    assert abs(np.trace(out) - 1.0) < 1e-12


def test_apply_depolarizing_pure_state():
    rho = np.diag([1.0, 0.0]).astype(complex)
    out = apply(depolarizing_channel(), rho)
    assert np.abs(out - np.eye(2) / 2).max() < 1e-12


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply(identity_channel(2), np.eye(3) / 3)


def test_symbol_probability_monras_uniform(monras):
    rho = np.eye(2, dtype=complex) / 2
    for a in "0123":
        assert abs(symbol_probability(monras.channel, rho, a) - 0.25) < 1e-12


def test_symbol_probability_identity():
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert symbol_probability(identity_channel(), rho, "0") == 1.0


def test_symbol_probability_unknown_symbol():
    with pytest.raises(KeyError):
        symbol_probability(identity_channel(), np.eye(2) / 2, "9")


def test_symbol_probability_market_matches_classical(market):
    # classical observable-operator formula is the oracle
    q = models.quantize_classical(market)
    rho = q.rho0
    obs = classical.observable_operators(market)
    for a in market.alphabet:
        expected = float((obs[a] @ market.x0).sum())
        assert abs(symbol_probability(q.channel, rho, a) - expected) < 1e-12


def test_symbol_probability_full_damping_measure_emission():
    # the plain damping channel at gamma=1 assigns 1/2 to each symbol on |+>
    chan = amplitude_damping_channel(1.0)
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert abs(symbol_probability(chan, plus, "0") - 0.5) < 1e-12
    assert abs(symbol_probability(chan, plus, "1") - 0.5) < 1e-12


def test_choi_identity():
    j = choi(identity_channel())
    w = np.linalg.eigvalsh(j)[::-1]
    assert np.allclose(w, [2, 0, 0, 0], atol=1e-12)


def test_choi_depolarizing():
    j = choi(depolarizing_channel())
    assert np.abs(j - np.eye(4) / 2).max() < 1e-12


def test_choi_trace_preservation_marginal(rng):
    chan = random_channel(3, 4, rng)
    j = choi(chan)
    n = 3
    marg = np.einsum("irjr->ij", j.reshape(n, n, n, n))
    assert np.abs(marg - np.eye(n)).max() < 1e-8


def test_kraus_rank_unitary(rng):
    chan = KrausChannel(dim=2, groups={"0": [random_unitary(2, rng)]})
    assert kraus_rank(chan) == 1


def test_kraus_rank_depolarizing():
    assert kraus_rank(depolarizing_channel(2)) == 4


def test_kraus_rank_monras(monras):
    # the four scaled projectors span a 3-dim operator space
    # (P0 + P1 equals P+ + P-), so the Choi rank is 3
    assert kraus_rank(monras.channel) == 3


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 3), st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_kraus_rank_agrees_with_stacked_vectors(dim, n_kraus, seed):
    rng = np.random.default_rng(seed)
    chan = random_channel(dim, n_kraus, rng)
    stacked = np.array([k.ravel() for k in chan.operators()])
    assert kraus_rank(chan) == numerical_rank(stacked)


def test_kraus_from_identity():
    ks = kraus_from_unitary(np.eye(4, dtype=complex), 2, 2, 0)
    assert np.abs(ks[0] - np.eye(2)).max() < 1e-14
    assert np.abs(ks[1]).max() < 1e-14


def test_kraus_from_swap():
    swap = np.zeros((4, 4), dtype=complex)
    for s in range(2):
        for e in range(2):
            swap[e * 2 + s, s * 2 + e] = 1.0
    ks = kraus_from_unitary(swap, 2, 2, 0)
    total = sum(k.conj().T @ k for k in ks)
    assert np.abs(total - np.eye(2)).max() < 1e-12
    # swapping with |0> leaves K_e = |e><... rank-one operators
    for e, k in enumerate(ks):
        assert numerical_rank(k) == 1


def test_kraus_from_damping_step_unitary():
    from qhmm.circuits import amplitude_damping_circuit, compile_circuit

    theta = np.pi / 2
    design = amplitude_damping_circuit(theta)
    u = compile_circuit(design.step)
    k0, k1 = kraus_from_unitary(u, 2, 2, 0)
    gamma = np.sin(theta / 2) ** 2
    assert np.abs(k0 - np.diag([1.0, np.sqrt(1 - gamma)])).max() < 1e-12
    expected_k1 = np.zeros((2, 2))
    expected_k1[0, 1] = np.sqrt(gamma)
    assert np.abs(k1 - expected_k1).max() < 1e-12


def test_kraus_from_unitary_dim_mismatch():
    with pytest.raises(ValueError):
        kraus_from_unitary(np.eye(4), 2, 3, 0)


def test_stinespring_identity_min_dilation():
    u = stinespring_dilate(identity_channel(3), dim_e=1)
    assert np.abs(u - np.eye(3)).max() < 1e-12


def test_stinespring_dim_too_small(monras):
    with pytest.raises(ValueError):
        stinespring_dilate(monras.channel, dim_e=3)


def _choi_distance(a: KrausChannel, b: KrausChannel) -> float:
    return float(np.abs(choi(a) - choi(b)).max())


def test_stinespring_monras_round_trip(monras):
    u = stinespring_dilate(monras.channel, dim_e=4)
    assert is_unitary(u)
    ks = kraus_from_unitary(u, 2, 4, 0)
    rebuilt = KrausChannel(dim=2, groups={"0": ks})
    flat = KrausChannel(dim=2, groups={"0": monras.channel.operators()})
    assert _choi_distance(rebuilt, flat) < 1e-9


def test_stinespring_quantized_market_round_trip(market):
    q = models.quantize_classical(market)
    ops = q.channel.operators()
    dim_e = len(ops)  # 32 rank-one operators for the 4-state model
    u = stinespring_dilate(q.channel, dim_e=dim_e)
    assert is_unitary(u)
    ks = kraus_from_unitary(u, 4, dim_e, 0)
    rebuilt = KrausChannel(dim=4, groups={"0": ks})
    flat = KrausChannel(dim=4, groups={"0": ops})
    assert _choi_distance(rebuilt, flat) < 1e-8


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 3), st.integers(0, 8),
       st.integers(0, 2**31 - 1))
def test_stinespring_round_trip_random(dim, n_kraus, extra, e0, seed):
    # extraction reads back exactly the embedded columns: the operators after
    # the completion's Newton-Schulz step, then dim_e - k exact zeros
    chan = random_channel(dim, n_kraus, np.random.default_rng(seed))
    dim_e, e0 = n_kraus + extra, e0 % (n_kraus + extra)
    u = stinespring_dilate(chan, dim_e, e0)
    assert is_unitary(u, 1e-13)
    ks = kraus_from_unitary(u, dim, dim_e, e0)
    v = np.zeros((dim, dim_e, dim), dtype=complex)
    v[:, :n_kraus] = chan.operators().swapaxes(0, 1)
    v = v.reshape(dim * dim_e, dim)
    v = v @ (1.5 * np.eye(dim) - 0.5 * (v.conj().T @ v))
    assert np.array_equal(ks, v.reshape(dim, dim_e, dim).swapaxes(0, 1))
    assert not ks[n_kraus:].any()
    assert np.abs(ks[:n_kraus] - chan.operators()).max() < 1e-12


def test_random_channel_is_complete_to_rounding():
    # a single Gaussian block of condition number 132 used to come out with
    # completeness defect 2e-12, when the normalization inverted the square
    # root of its completeness sum; test_stinespring_round_trip_random found
    # it (dim 3, one operator, seed 204616) and failed at 1.1e-12
    chan = random_channel(3, 1, np.random.default_rng(204616))
    assert chan.completeness_defect() < 1e-14
    u = stinespring_dilate(chan, 1)
    assert np.abs(kraus_from_unitary(u, 3, 1) - chan.operators()).max() < 1e-14


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_apply_preserves_density(dim, n_kraus, seed):
    rng = np.random.default_rng(seed)
    chan = random_channel(dim, n_kraus, rng)
    rho = random_density(dim, rng)
    assert is_density(apply(chan, rho))


def test_steady_state_depolarizing():
    rho = steady_state(depolarizing_channel(2))
    assert np.abs(rho - np.eye(2) / 2).max() < 1e-10


def test_steady_state_identity_is_fixed_point():
    info = steady_state_info(identity_channel(2))
    assert info.degenerate
    assert spectral_norm(apply(identity_channel(2), info.rho) - info.rho) < 1e-10


def test_steady_state_damping():
    chan = amplitude_damping_channel(0.5)
    rho = steady_state(chan)
    assert np.abs(rho - np.diag([1.0, 0.0])).max() < 1e-8


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_steady_state_residual_random(dim, n_kraus, seed):
    rng = np.random.default_rng(seed)
    chan = random_channel(dim, n_kraus, rng)
    rho = steady_state(chan)
    assert spectral_norm(apply(chan, rho) - rho) <= 1e-8
    assert is_density(rho)


@pytest.mark.parametrize("n", [2, 4])
def test_steady_state_of_the_identity_is_the_maximally_mixed_state(n):
    # every state is fixed; the projection of I/N onto the fixed space is
    # I/N itself
    info = steady_state_info(identity_channel(n))
    assert info.multiplicity == n * n and info.degenerate
    assert np.abs(info.rho - np.eye(n) / n).max() < 1e-15


def test_steady_state_of_two_blocks_projects_the_maximally_mixed_state():
    # damping towards |0> inside span{|0>, |1>}, full depolarizing inside
    # span{|2>, |3>}: the fixed space holds |0><0| and the block's identity,
    # and I/4 keeps half its trace in each block
    ops = [np.diag([1.0, np.sqrt(0.7), 0.0, 0.0]), np.zeros((4, 4))]
    ops[1][0, 1] = np.sqrt(0.3)
    for i in (2, 3):
        for j in (2, 3):
            op = np.zeros((4, 4))
            op[i, j] = np.sqrt(0.5)
            ops.append(op)
    chan = KrausChannel(dim=4, groups={"0": ops})
    assert chan.completeness_defect() < 1e-15
    info = steady_state_info(chan)
    assert info.multiplicity == 2 and info.degenerate
    assert np.abs(info.rho - np.diag([0.5, 0.0, 0.25, 0.25])).max() < 1e-14


@pytest.mark.parametrize("gamma", [1e-11, 1e-9, 3e-8, 1e-7, 1e-6])
def test_steady_state_of_slow_damping_is_the_ground_state(gamma):
    # all four eigenvalues lie within tol_eig of 1, so the multiplicity is 4,
    # but only |0><0| is fixed: the slow modes stay out of the projection
    info = steady_state_info(amplitude_damping_channel(gamma))
    assert info.multiplicity == 4 and info.degenerate
    assert np.abs(info.rho - np.diag([1.0, 0.0])).max() < 1e-15
    assert info.residual < 1e-15


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(2, 5), st.integers(0, 2**31 - 1))
def test_steady_state_matches_the_complex_null_vector(dim, n_kraus, seed):
    # a unique fixed point is the eigenvector of eigenvalue 1 of the complex
    # sum K (x) conj(K) matrix, scaled to unit trace
    chan = random_channel(dim, n_kraus, np.random.default_rng(seed))
    info = steady_state_info(chan)
    assume(info.multiplicity == 1)
    w, vecs = np.linalg.eig(transfer_matrix(chan))
    r = vecs[:, np.argmin(np.abs(w - 1.0))].reshape(dim, dim)
    assert np.abs(info.rho - r / np.trace(r)).max() < 1e-12


def test_steady_state_refusals():
    # no eigenvalue near 1: the message gives the tolerance asked for
    halved = KrausChannel(dim=2, groups={"0": [np.eye(2) / 2]})
    with pytest.raises(ValueError, match="within 0.3 of 1"):
        steady_state_info(halved, tol_eig=0.3)
    with pytest.raises(ValueError, match="within 1e-06 of 1"):
        steady_state_info(halved)
    # a fixed space of traceless operators only: |0><1| + |1><0| and its
    # imaginary twin, while I/2 lies along the other eigenvectors
    stretch = KrausChannel(dim=2, groups={"0": [np.diag([2.0, 0.5])]})
    with pytest.raises(ValueError, match="no valid fixed point"):
        steady_state_info(stretch)
    # a shear: its left and right null vectors are orthogonal, so there is
    # no projection onto the fixed space
    shear = KrausChannel(dim=2, groups={"0": [np.array([[1.0, 1.0], [0.0, 1.0]])]})
    with pytest.raises(ValueError, match="no valid fixed point"):
        steady_state_info(shear)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_real_transfer_matrix_is_the_kraus_matrix_in_real_coordinates(k, n):
    # with Q the columns vec(B_c) of the Hermitian basis, the real matrix is
    # Q^-1 (sum K (x) conj(K)) Q; an empty group gives zero
    rng = np.random.default_rng(10 * k + n)
    ops = (random_channel(n, k, rng).operators() if k
           else np.empty((0, n, n), dtype=np.complex128))
    q = hermitian_basis_columns(n)
    got = ch.real_transfer_matrix(ops)
    assert got.dtype == np.float64 and got.shape == (n * n, n * n)
    want = np.linalg.solve(q, kraus_transfer_matrix(ops) @ q)
    assert np.abs(got - want).max() < 1e-15
    assert k or not got.any()


@pytest.mark.parametrize("n", [1, 2, 4])
def test_hermitian_basis_and_batched_coordinates(n):
    # the cached stack holds the oracle's columns, read-only, and the
    # coordinates of a batch are each state's own, bit for bit
    basis = ch.hermitian_basis(n)
    assert basis is ch.hermitian_basis(n) and not basis.flags.writeable
    assert np.array_equal(basis.reshape(n * n, n * n).T, hermitian_basis_columns(n))
    rng = np.random.default_rng(n)
    states = np.stack([random_density(n, rng) for _ in range(3)])
    coords = ch.hermitian_coordinates(states)
    assert coords.shape == (3, n * n)
    for rho, row in zip(states, coords):
        assert ch.hermitian_coordinates(rho).tobytes() == row.tobytes()


def test_transfer_matrix_identity():
    assert np.abs(transfer_matrix(identity_channel(2)) - np.eye(4)).max() < 1e-14


def test_stack_operations_match_per_operator_loops():
    # each group is one (k, N, N) stack; the per-operator loops it replaced
    # stay here as the reference, including an empty group's zero terms
    rng = np.random.default_rng(3)
    chan = random_channel(3, 5, rng, n_symbols=3)
    chan = KrausChannel(dim=3, groups={**chan.groups, "3": []})
    ops = list(chan.operators())
    assert [len(g) for g in chan.groups.values()] == [2, 2, 1, 0]
    assert all(g.dtype == np.complex128 for g in chan.groups.values())
    rho = random_density(3, rng)

    def sandwich(group):
        return sum((k @ rho @ k.conj().T for k in group), np.zeros((3, 3)))

    assert np.abs(apply(chan, rho) - sandwich(ops)).max() < 1e-15
    for a, group in chan.groups.items():
        assert np.abs(ch.apply_symbol(chan, rho, a) - sandwich(group)).max() < 1e-15
    kron = sum(np.kron(k, k.conj()) for k in ops)
    assert np.abs(transfer_matrix(chan) - kron).max() < 1e-15
    assert not kraus_transfer_matrix(chan.groups["3"]).any()
    vecs = [k.T.ravel() for k in ops]  # the blocks K|i> in input order
    want = sum(np.outer(v, v.conj()) for v in vecs)
    assert np.abs(choi(chan) - want).max() < 1e-15
    effect = sum(k.conj().T @ k for k in ops)
    assert chan.completeness_defect() == np.abs(effect - np.eye(3)).max()
    back = kraus_from_unitary(stinespring_dilate(chan, 6), 3, 6)
    assert np.abs(back[:5] - np.stack(ops)).max() < 1e-12
    assert np.abs(back[5]).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("k", [0, 1, 2, 16])
def test_kraus_sandwich_matches_per_operator_loop(k, n):
    # the two flat products of the one sandwich kernel against the sum of
    # K rho K† over the operators, on one state and on a batch of three
    rng = np.random.default_rng(10 * k + n)
    ops = (random_channel(n, k, rng).operators() if k
           else np.empty((0, n, n), dtype=np.complex128))
    states = np.stack([random_density(n, rng) for _ in range(3)])

    def loop(rho):
        return sum((op @ rho @ op.conj().T for op in ops), np.zeros((n, n)))

    for rho in states:
        out = ch.kraus_sandwich(ops, rho)
        assert out.shape == (n, n)
        assert np.abs(out - loop(rho)).max() < 1e-15
    batch = ch.kraus_sandwich(ops, states)
    assert batch.shape == (3, n, n)
    assert np.abs(batch - np.stack([loop(rho) for rho in states])).max() < 1e-15


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("k", [0, 1, 2, 16])
def test_apply_symbol_keeps_the_bits_of_the_sandwich_kernel(k, n):
    # apply_symbol multiplies by the layout the channel built once; its
    # output is the kernel's on the same group, bit for bit, on one state
    # and on a batch of three, and the per-operator loop's within 1e-15
    rng = np.random.default_rng(10 * k + n)
    ops = (random_channel(n, k, rng).operators() if k
           else np.empty((0, n, n), dtype=np.complex128))
    chan = KrausChannel(dim=n, groups={"a": ops})
    states = np.stack([random_density(n, rng) for _ in range(3)])

    def loop(rho):
        return sum((op @ rho @ op.conj().T for op in ops), np.zeros((n, n)))

    for rho in [*states, states]:
        got = ch.apply_symbol(chan, rho, "a")
        want = ch.kraus_sandwich(chan.groups["a"], rho)
        assert got.shape == np.shape(rho) and got.tobytes() == want.tobytes()
        ref = loop(rho) if rho.ndim == 2 else np.stack([loop(r) for r in rho])
        assert np.abs(got - ref).max() < 1e-15


def test_channel_is_independent_of_the_callers_arrays():
    # the constructor copies each group and keeps it read-only, in a
    # read-only mapping: neither the caller nor a reader can change a group
    a = np.eye(2, dtype=np.complex128)[None]
    chan = KrausChannel(2, {"0": a})
    rho = np.array([[0.6, 0.2j], [-0.2j, 0.4]])
    before = ch.apply_symbol(chan, rho, "0")
    assert not np.shares_memory(chan.groups["0"], a)
    a[0, 0, 0] = np.nan
    assert validate_cptp(chan).max_violation == 0.0
    assert ch.apply_symbol(chan, rho, "0").tobytes() == before.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        chan.groups["0"][0, 1, 1] = 0.0
    with pytest.raises(TypeError):
        chan.groups["x"] = np.zeros((1, 3, 3))
    with pytest.raises(FrozenInstanceError):
        chan.groups = {"x": np.zeros((1, 3, 3))}
    assert list(chan.groups) == ["0"]
    for back in (copy.deepcopy(chan), pickle.loads(pickle.dumps(chan))):
        assert back.groups["0"].tobytes() == chan.groups["0"].tobytes()
        assert ch.apply_symbol(back, rho, "0").tobytes() == before.tobytes()


def test_channels_compare_and_hash_by_value():
    # comparing two channels used to raise ValueError (an array's truth
    # value) and hashing one TypeError (the mappingproxy)
    a, b = models.monras_qhmm().channel, models.monras_qhmm().channel
    assert a == b and hash(a) == hash(b) and a is not b
    assert len({a, b, copy.deepcopy(a)}) == 1
    assert a != "channel" and a != a.groups
    ops = dict(a.groups)
    nudged = ops["1"].copy()
    nudged[0, 0, 0] += 1e-12
    renamed = {("x" if s == "1" else s): k for s, k in ops.items()}
    reordered = dict(reversed(list(ops.items())))
    for other in ({**ops, "1": nudged}, renamed, reordered):
        assert a != KrausChannel(2, other)
    # empty groups: equal when both are empty, unequal beside an operator
    empty = KrausChannel(2, {"0": np.eye(2)[None], "1": []})
    assert empty == KrausChannel(2, {"0": [np.eye(2)], "1": np.zeros((0, 2, 2))})
    assert hash(empty) == hash(KrausChannel(2, {"0": np.eye(2)[None], "1": []}))
    assert empty != KrausChannel(2, {"0": np.eye(2)[None], "1": np.zeros((1, 2, 2))})
    # the dimension: identities of 2 and 4, and empty channels of each
    assert identity_channel(2) != identity_channel(4)
    assert KrausChannel(2, {"0": []}) != KrausChannel(4, {"0": []})
    assert KrausChannel(2, {"0": []}) == KrausChannel(2, {"0": []})


def test_sampler_builds_each_outcomes_layout_once(monkeypatch):
    # one layout per outcome taken and call, however many steps the call
    # takes
    chan = random_channel(2, 5, np.random.default_rng(4), n_symbols=3)
    built = []
    layout = ch.sandwich_layout
    monkeypatch.setattr(ch, "sandwich_layout",
                        lambda ops: built.append(len(ops)) or layout(ops))
    draws = np.random.default_rng(5).random((50, 6))
    out = ch.sample_outcomes(list(chan.groups.values()), np.eye(2) / 2, draws)
    assert out.shape == (50, 6) and sorted(built) == [1, 2, 2]


def test_random_channel_keeps_the_per_block_draw_order():
    # each block draws its real part, then its imaginary part
    chan = random_channel(2, 3, np.random.default_rng(8), n_symbols=2)
    rng = np.random.default_rng(8)
    blocks = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
              for _ in range(3)]
    w, v = np.linalg.eigh(sum(b.conj().T @ b for b in blocks))
    ops = [b @ v @ np.diag(w ** -0.5) @ v.conj().T for b in blocks]
    assert np.abs(chan.operators() - np.stack(ops)).max() < 1e-14
    assert [len(g) for g in chan.groups.values()] == [2, 1]


def test_channel_json_round_trip(monras):
    d = ch.channel_to_json(monras.channel)
    back = ch.channel_from_json(d)
    assert back.dim == 2
    assert _choi_distance(back, monras.channel) < 1e-15
