import numpy as np
import pytest

from qhmm import experiments
from qhmm.circuits import real_amplitudes
from qhmm.experiments import (
    LandscapeSample,
    landscape_correlation,
    landscape_walk,
    pearson,
    reproduce,
    smoothness_violations,
    trained_market_hypothesis,
)


@pytest.fixture(scope="module")
def market_hypothesis():
    # a well-converged walk origin: an under-trained one sits on a tilted
    # patch of the landscape and washes out the distance-divergence relation
    return trained_market_hypothesis(seed=0)


def test_landscape_sample_invariant():
    LandscapeSample(op_distance=1.5, divergences={2: 0.1}, total=0.1)
    with pytest.raises(ValueError):
        LandscapeSample(op_distance=2.5, divergences={}, total=0.0)


def test_walk_zero_steps(market_hypothesis, rng):
    assert landscape_walk(market_hypothesis, 0, 0.1, rng) == []


def test_walk_zero_perturbation(market_hypothesis, rng):
    samples = landscape_walk(market_hypothesis, 5, 0.0, rng)
    for s in samples:
        assert s.op_distance < 1e-12
        assert s.total < 1e-12
        assert all(v < 1e-12 for v in s.divergences.values())


def test_walk_requires_parameters(rng):
    from qhmm.circuits import Circuit, GateSpec
    from qhmm.learning import Hypothesis

    hyp = Hypothesis(circuit=Circuit(2, (GateSpec("X", (0,)),)),
                     dim_s=2, dim_e=2, symbol_map=("0", "1"))
    with pytest.raises(ValueError):
        landscape_walk(hyp, 3, 0.1, rng)


def test_walk_records_lengths(market_hypothesis, rng):
    samples = landscape_walk(market_hypothesis, 10, 0.1, rng)
    assert len(samples) == 10
    for s in samples:
        assert set(s.divergences) == {2, 3, 4, 5}
        assert 0.0 <= s.op_distance <= 2.0 + 1e-9


def test_walk_smoothness_bound(market_hypothesis, rng):
    samples = landscape_walk(market_hypothesis, 300, 0.1, rng)
    assert smoothness_violations(samples, n=5) == 0


def test_walk_invariant_under_2pi_shifted_origin():
    # regression: the step scale came from the raw angle, so an origin with
    # an RY angle shifted by 2*pi (the same channel) walked with larger steps
    from qhmm.learning import Hypothesis

    template = real_amplitudes(2, reps=1, entanglement="linear")
    x_opt = np.array([0.455, 4.971])
    walks = []
    for x in (x_opt, x_opt + np.array([2 * np.pi, 0.0])):
        hyp = Hypothesis(circuit=template.with_parameters(x), dim_s=2,
                         dim_e=2, symbol_map=("0", "1"))
        walks.append(landscape_walk(hyp, 60, 0.1, np.random.default_rng(88)))
    for a, b in zip(*walks):
        assert abs(a.op_distance - b.op_distance) < 1e-12
        assert abs(a.total - b.total) < 1e-12
        for t in a.divergences:
            assert abs(a.divergences[t] - b.divergences[t]) < 1e-12


def test_pearson_perfect_line():
    x = np.arange(50, dtype=float)
    assert abs(pearson(x, 3 * x + 1) - 1.0) < 1e-12
    assert abs(pearson(x, -2 * x) + 1.0) < 1e-12


def test_pearson_independent_noise():
    rng = np.random.default_rng(0)
    x = rng.normal(size=1000)
    y = rng.normal(size=1000)
    assert abs(pearson(x, y)) < 0.2


def test_pearson_degenerate_flagged():
    assert np.isnan(pearson(np.ones(10), np.arange(10.0)))


def test_landscape_correlation_requires_samples(market_hypothesis, rng):
    samples = landscape_walk(market_hypothesis, 10, 0.1, rng)
    with pytest.raises(ValueError):
        landscape_correlation({0.1: samples})


def test_landscape_correlation_positive(market_hypothesis):
    rng = np.random.default_rng(3)
    samples = landscape_walk(market_hypothesis, 1000, 0.1, rng)
    corr = landscape_correlation({0.1: samples})
    assert corr[0.1] > 0.3


def test_reproduce_table2():
    report = reproduce("table2")
    assert report.passed
    assert report.achieved < 1e-12
    assert len(report.rows) == 49


def test_reproduce_unknown_name():
    with pytest.raises(KeyError):
        reproduce("nope")


def test_reproduce_sets_only_seed_and_restarts():
    # regression: partial let a call-time keyword override bound fixed data,
    # so reproduce('market_evo', threshold=1.0) passed a failing run
    for name, kwargs in [
        ("market_ansatz", {"budget": 1}),
        ("monras_ansatz", {"threshold": 1.0}),
        ("market_ansatz", {"reference_cost": 0.0}),
        ("market_evo", {"threshold": 1.0}),
        ("gaussian_evo", {"seeds": (5,)}),
        ("market_evo", {"restarts": 2}),
    ]:
        with pytest.raises(TypeError):
            reproduce(name, **kwargs)


def test_monras_target_support():
    items = experiments.monras_target()
    assert len(items) == 4 + 16
    total_len1 = sum(p for seq, p in items if len(seq) == 1)
    assert abs(total_len1 - 1.0) < 1e-9


def test_evo_seed_replaces_default_seeds(monkeypatch):
    # the evolution runner tries its seeds in turn until one reaches the
    # threshold; a given seed runs alone
    from functools import partial

    from qhmm import classical
    from qhmm.learning import HyperParams

    probe = partial(
        experiments._evo_report, "probe", classical.market_model,
        experiments.market_space(),
        HyperParams(mu=2, lam=1, g_max=1, c_q=0.0, c_e=0.0, n_max=2),
        -1.0, (1, 2),
    )
    monkeypatch.setitem(experiments.REPRODUCTIONS, "probe", probe)
    runs = reproduce("probe").details["runs"]
    assert [r["seed"] for r in runs] == [1, 2]
    assert [r["seed"] for r in reproduce("probe", seed=7).details["runs"]] == [7]
    assert reproduce("probe", seed=1).details["runs"] == runs[:1]

