import numpy as np
import pytest
from hypothesis import given, settings
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
    transfer_matrix,
    validate_cptp,
)
from qhmm.linalg import is_unitary, numerical_rank, spectral_norm

from oracles import (
    amplitude_damping_channel,
    choi,
    is_density,
    kraus_rank,
    random_channel,
    random_density,
    random_unitary,
    symbol_probability,
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
    assert not ch.kraus_transfer_matrix(chan.groups["3"]).any()
    vecs = [k.T.ravel() for k in ops]  # the blocks K|i> in input order
    want = sum(np.outer(v, v.conj()) for v in vecs)
    assert np.abs(choi(chan) - want).max() < 1e-15
    effect = sum(k.conj().T @ k for k in ops)
    assert chan.completeness_defect() == np.abs(effect - np.eye(3)).max()
    back = kraus_from_unitary(stinespring_dilate(chan, 6), 3, 6)
    assert np.abs(back[:5] - np.stack(ops)).max() < 1e-12
    assert np.abs(back[5]).max() < 1e-12


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
