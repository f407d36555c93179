"""The prefix-grouped Kraus sampler against a frozen per-shot joint-density
loop, which steps every shot through U rho U†, the block mask of the observed
outcome and (in reset mode) a partial trace with the emission reset."""

import math

import numpy as np
import pytest

from qhmm import channels, classical, models
from qhmm.linalg import dagger, tensor_product
from qhmm.models import QhmmUnitary

from oracles import ket


def _reference_simulate(q: QhmmUnitary, t: int, shots: int, seed: int):
    u = q.unitary()
    udag = dagger(u)
    dim = q.dim_s * q.dim_e
    sym_index = {a: i for i, a in enumerate(q.alphabet)}
    outcome_symbol = [sym_index[s] for s in q.symbol_map]
    idx = np.arange(dim)
    outcome_of = idx % q.dim_e if q.measured == "emission" else idx // q.dim_e
    n_outcomes = q.dim_e if q.measured == "emission" else q.dim_s
    masks = [np.outer(outcome_of == o, outcome_of == o) for o in range(n_outcomes)]
    e_ket = np.outer(ket(q.e0, q.dim_e), ket(q.e0, q.dim_e).conj())
    rho_init = tensor_product(q.rho0, e_ket)
    draws = np.random.default_rng(seed).random((shots, t))
    out = []
    for shot in range(shots):
        rho = rho_init
        seq = []
        for step in range(t):
            rho = u @ rho @ udag
            probs = np.bincount(outcome_of, weights=np.diagonal(rho).real,
                                minlength=n_outcomes)
            probs = np.clip(probs, 0.0, None)
            cdf = np.cumsum(probs / probs.sum())
            o = min(int(np.searchsorted(cdf, draws[shot, step])),
                    n_outcomes - 1)
            seq.append(outcome_symbol[o])
            rho = rho * masks[o]
            rho = rho / np.trace(rho).real
            if q.reset_mode == "reset":
                rho_s = np.einsum("sete->st",
                                  rho.reshape(q.dim_s, q.dim_e, q.dim_s, q.dim_e))
                rho = np.zeros((dim, dim), dtype=np.complex128)
                rho[q.e0::q.dim_e, q.e0::q.dim_e] = rho_s
        out.append(tuple(seq))
    return out


def _damping_variant(theta: float, reset_mode: str, measured: str) -> QhmmUnitary:
    d = models.amplitude_damping_model(theta)
    return QhmmUnitary(alphabet=d.alphabet, dim_s=2, dim_e=2, u=d.u,
                       symbol_map=d.symbol_map, rho0=d.rho0,
                       reset_mode=reset_mode, measured=measured)


def _dilated_gaussian4() -> QhmmUnitary:
    return models.from_kraus(models.quantize_classical(classical.gaussian4_model()), 64)


CASES = {
    "damping_system_reset": (lambda: models.amplitude_damping_model(math.pi / 2),
                             3, 2000, 2024),
    "emission_reset": (lambda: _damping_variant(math.pi / 3, "reset", "emission"),
                       4, 1000, 7),
    "carry_system": (lambda: _damping_variant(math.pi / 3, "carry", "system"),
                     4, 1000, 42),
    "carry_emission": (lambda: _damping_variant(1.1, "carry", "emission"),
                       4, 1000, 11),
    "dilated_gaussian4": (_dilated_gaussian4, 3, 12, 1),
    "t0": (lambda: models.amplitude_damping_model(math.pi / 2), 0, 5, 3),
    "shots0": (lambda: models.amplitude_damping_model(math.pi / 2), 3, 0, 3),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulate_matches_frozen_reference(case):
    make, t, shots, seed = CASES[case]
    q = make()
    got = models.simulate(q, t, shots, seed)
    assert [tuple(s) for s in got.tolist()] == _reference_simulate(q, t, shots, seed)
    assert got.shape == (shots, t)
    assert np.issubdtype(got.dtype, np.integer)


# shot counts that are not multiples of the patched chunk size of 7
CHUNK_CASES = {
    "reset_emission": lambda: models.simulate(
        _damping_variant(math.pi / 3, "reset", "emission"), 4, 103, 5),
    "reset_system": lambda: models.simulate(
        models.amplitude_damping_model(math.pi / 2), 3, 150, 6),
    "carry": lambda: models.simulate(
        _damping_variant(math.pi / 3, "carry", "system"), 4, 101, 7),
    "classical": lambda: np.array(
        classical.sample(classical.market_model(), 4, 150, seed=2)),
}


@pytest.mark.parametrize("case", sorted(CHUNK_CASES))
def test_chunked_draws_equal_one_chunk(case, monkeypatch):
    whole = CHUNK_CASES[case]()
    monkeypatch.setattr(channels, "SAMPLE_CHUNK", 7)
    chunked = CHUNK_CASES[case]()
    assert chunked.shape == whole.shape and np.array_equal(chunked, whole)


def test_classical_sample_python_ints_and_shapes(market):
    seqs = classical.sample(market, 4, 30, seed=0)
    assert len(seqs) == 30 and all(len(s) == 4 for s in seqs)
    assert all(type(a) is int for s in seqs for a in s)
    assert classical.sample(market, 0, 3, seed=0) == [(), (), ()]
    assert classical.sample(market, 3, 0, seed=0) == []


def test_sample_outcomes_takes_first_cdf_entry_reaching_the_draw():
    # exact outcome probabilities 1/4, 0 (no operators) and 3/4
    half = np.eye(2) / 2
    groups = [[half], [], [half, half, half]]
    draws = np.array([[0.0], [0.25], [0.2500001], [0.99]])
    out = channels.sample_outcomes(groups, np.eye(2) / 2, draws)
    assert out[:, 0].tolist() == [0, 0, 2, 2]
