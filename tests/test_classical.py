import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhmm import classical
from qhmm.classical import (
    ClassicalHmm,
    distribution,
    distribution_tables,
    fixtures,
    hmm_from_json,
    hmm_to_json,
    observable_operators,
    sample,
    sequence_probability,
    steady_state_classical,
)
from qhmm.lang import hankel, sequences_of_length, total_variation
from qhmm.linalg import numerical_rank

MARKET_TRANSITION_ROWS = [
    [0.50, 0.10, 0.15, 0.25],
    [0.10, 0.50, 0.25, 0.15],
    [0.25, 0.15, 0.50, 0.10],
    [0.15, 0.25, 0.10, 0.50],
]
MARKET_EMISSION_ROWS = [[0.8, 0.2], [0.2, 0.8], [0.4, 0.6], [0.6, 0.4]]
GAUSS_TRANSITION_ROWS = [
    [0.60, 0.25, 0.05, 0.10],
    [0.05, 0.15, 0.05, 0.75],
    [0.75, 0.05, 0.15, 0.05],
    [0.10, 0.05, 0.65, 0.20],
]
GAUSS_EMISSION_ROWS = [
    [0.00, 0.50, 0.50, 0.00],
    [0.01, 0.49, 0.49, 0.01],
    [0.13, 0.37, 0.37, 0.13],
    [0.22, 0.28, 0.28, 0.22],
]


def one_state_model():
    return ClassicalHmm(alphabet=["0"], A=np.eye(1), B=np.ones((1, 1)), x0=np.ones(1))


def two_state_cycle():
    # deterministic cycle alternating emissions 0, 1
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.array([[1.0, 0.0], [0.0, 1.0]])
    return ClassicalHmm(alphabet=["0", "1"], A=a, B=b, x0=np.array([1.0, 0.0]))


def test_fixture_market_tables(market):
    assert np.abs(market.A - np.array(MARKET_TRANSITION_ROWS).T).max() == 0
    assert np.abs(market.B - np.array(MARKET_EMISSION_ROWS).T).max() == 0
    assert market.alphabet == ["0", "1"]


def test_fixture_gaussian4_tables(gaussian4):
    assert np.abs(gaussian4.A - np.array(GAUSS_TRANSITION_ROWS).T).max() == 0
    assert np.abs(gaussian4.B - np.array(GAUSS_EMISSION_ROWS).T).max() == 0
    assert gaussian4.alphabet == ["0", "1", "2", "3"]


def test_fixture_x0_is_steady_state(market, gaussian4):
    for h in (market, gaussian4):
        assert np.abs(h.A @ h.x0 - h.x0).max() < 1e-10


def test_fixtures_mapping():
    fx = fixtures()
    assert set(fx) == {"market", "gaussian4"}


def test_invalid_column_sums_rejected():
    with pytest.raises(ValueError):
        ClassicalHmm(
            alphabet=["0"],
            A=np.array([[0.9]]),
            B=np.ones((1, 1)),
            x0=np.ones(1),
        )


def test_observable_operators_one_state():
    obs = observable_operators(one_state_model())
    assert np.array_equal(obs["0"], np.array([[1.0]]))


def test_observable_operators_market_column(market):
    obs = observable_operators(market)
    assert np.abs(obs["0"][:, 0] - market.A[:, 0] * 0.8).max() < 1e-15


def test_observable_operators_deterministic_emission():
    h = two_state_cycle()
    obs = observable_operators(h)
    assert np.abs(obs["0"][:, 1]).max() == 0  # state 1 never emits 0
    assert np.abs(obs["1"][:, 0]).max() == 0


def test_observable_operators_sum_to_transition(market, gaussian4):
    for h in (market, gaussian4):
        total = sum(observable_operators(h).values())
        assert np.abs(total - h.A).max() < 1e-12


def test_sequence_probability_empty(market):
    assert sequence_probability(market, ()) == 1.0


def test_sequence_probability_deterministic_cycle():
    h = two_state_cycle()
    assert abs(sequence_probability(h, (0, 1, 0, 1)) - 1.0) < 1e-15
    assert sequence_probability(h, (1, 0, 1, 0)) == 0.0


def test_sequence_probability_unknown_symbol(market):
    with pytest.raises(ValueError):
        sequence_probability(market, (2,))


@pytest.mark.parametrize("t", range(0, 8))
def test_distribution_normalization_market(market, t):
    assert abs(distribution(market, t).total() - 1.0) < 1e-9


@pytest.mark.parametrize("t", range(1, 6))
def test_distribution_normalization_gaussian(gaussian4, t):
    assert abs(distribution(gaussian4, t).total() - 1.0) < 1e-9


def test_distribution_t1_matches_marginal(market):
    d = distribution(market, 1)
    y = market.B @ market.x0
    for a in range(2):
        assert abs(d.prob((a,)) - y[a]) < 1e-12


def test_distribution_guard(market):
    with pytest.raises(ValueError):
        distribution(market, 13)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 5))
def test_subword_consistency(seed, t):
    rng = np.random.default_rng(seed)
    h = classical.market_model()
    prefix = tuple(rng.integers(0, 2, size=t))
    p = sequence_probability(h, prefix)
    extended = sum(sequence_probability(h, prefix + (a,)) for a in range(2))
    assert abs(p - extended) < 1e-12


def test_steady_state_identity_transition():
    h = ClassicalHmm(
        alphabet=["0"], A=np.eye(2), B=np.ones((1, 2)), x0=np.array([0.3, 0.7])
    )
    x = steady_state_classical(h)
    assert np.abs(h.A @ x - x).max() <= 1e-10


def test_steady_state_market_residual(market):
    x = steady_state_classical(market)
    assert np.abs(market.A @ x - x).max() <= 1e-10
    # the market transition table happens to be doubly stochastic
    assert np.allclose(x, 0.25)


def test_steady_state_gaussian_residual(gaussian4):
    x = steady_state_classical(gaussian4)
    assert np.abs(gaussian4.A @ x - x).max() <= 1e-10
    assert x.min() >= 0 and abs(x.sum() - 1) < 1e-12


def test_sample_deterministic_model():
    h = two_state_cycle()
    seqs = sample(h, 4, 10, seed=1)
    assert all(s == (0, 1, 0, 1) for s in seqs)


def test_sample_seed_repeatability(market):
    assert sample(market, 3, 50, seed=9) == sample(market, 3, 50, seed=9)
    assert sample(market, 3, 50, seed=9) != sample(market, 3, 50, seed=10)


def test_sample_converges_to_distribution(market):
    n = 30000
    seqs = sample(market, 3, n, seed=4)
    counts = {}
    for s in seqs:
        counts[s] = counts.get(s, 0) + 1
    exact = distribution(market, 3)
    emp = type(exact)(t=3, probs={s: c / n for s, c in counts.items()})
    # 3-sigma bound on total variation for 8 cells
    assert total_variation(exact, emp) < 8 * 3 * 0.5 / np.sqrt(n)


def test_market_hankel_rank(market):
    h = hankel(lambda s: sequence_probability(market, s), 3, 3, 2)
    assert numerical_rank(h.values.astype(complex)) == 4


def test_hmm_json_round_trip(market):
    back = hmm_from_json(hmm_to_json(market))
    assert np.abs(back.A - market.A).max() == 0
    assert np.abs(back.B - market.B).max() == 0
    assert back.alphabet == market.alphabet


@pytest.mark.parametrize("key", ["A", "B", "x0"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_entries_refused(market, key, value):
    # regression: every stochastic check compares false with NaN, so a market
    # model with A[0][0] = NaN loaded and its distribution totalled nan
    data = hmm_to_json(market)
    if key == "x0":
        data[key][0] = value
    else:
        data[key][0][0] = value
    with pytest.raises(ValueError, match=f"^{key} has non-finite entries$"):
        hmm_from_json(data)


def test_distribution_covers_all_sequences(market):
    d = distribution(market, 4)
    assert set(d.probs) == set(sequences_of_length(2, 4))


def random_hmm(n, m, rng):
    a = rng.random((n, n)) + 0.05
    b = rng.random((m, n)) + 0.05
    x0 = rng.random(n) + 0.05
    return ClassicalHmm(alphabet=[str(i) for i in range(m)], A=a / a.sum(axis=0),
                        B=b / b.sum(axis=0), x0=x0 / x0.sum())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 4), st.integers(2, 4),
       st.integers(1, 4))
def test_distribution_matches_sequence_probability_oracle(seed, n, m, t):
    h = random_hmm(n, m, np.random.default_rng(seed))
    d = distribution(h, t)
    assert set(d.probs) == set(sequences_of_length(m, t))
    for seq, p in d.items():
        assert abs(p - sequence_probability(h, seq)) < 1e-14


def test_distribution_tables_equal_per_length_tables(market, gaussian4):
    # forward_probs advances each level the same way whatever lengths are
    # asked for, so one pass gives exactly the per-length tables
    for h, lengths in ((market, range(1, 8)), (gaussian4, (4, 1, 3, 1))):
        tables = distribution_tables(h, lengths)
        assert list(tables) == sorted(set(lengths))
        assert all(tables[t] == distribution(h, t) for t in lengths)


def test_distribution_t0_is_certain(market, gaussian4):
    for h in (market, gaussian4, random_hmm(3, 2, np.random.default_rng(1))):
        assert distribution(h, 0).probs == {(): 1.0}
