import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhmm import circuits as qc
from qhmm import classical
from qhmm.circuits import Circuit, GateSpec, real_amplitudes
from qhmm.lang import DistributionTable
from qhmm.models import distribution_tables
from qhmm.learning import (
    AdaptiveDistribution,
    AnsatzSpec,
    ChannelEngine,
    FitnessEngine,
    HyperParams,
    Hypothesis,
    LearnSpace,
    acceptance_probability,
    ansatz_cost,
    ansatz_objective,
    bandit_update,
    default_distributions,
    evolve,
    fitness,
    fitness_reference,
    initial_state,
    modify_hypothesis,
    optimize_parameters,
    random_hypothesis,
    register_qubits,
    select_parents,
    select_survivors,
    target_levels,
    temperature,
    train_ansatz,
    train_ansatz_restarts,
)


@pytest.fixture(scope="module")
def market_target():
    h = classical.market_model()
    return [classical.distribution(h, t) for t in (1, 2, 3)]


@pytest.fixture
def space():
    return LearnSpace(alphabet=["0", "1"], dim_s=2, dim_e=2, opt_budget=40,
                      min_gates=2, max_gates=5)


def make_hyp(gates, fitness_value=None):
    return Hypothesis(
        circuit=Circuit(2, tuple(gates)),
        dim_s=2,
        dim_e=2,
        symbol_map=("0", "1"),
        fitness=fitness_value,
    )


def tables_of(hyp, lengths):
    """The object path's tables of a hypothesis at its bound angles."""
    by_len = distribution_tables(hyp.model(hyp.circuit.parameters()), lengths)
    return [by_len[t] for t in lengths]


# --- initial states -----------------------------------------------------------

def test_initial_states():
    assert np.array_equal(initial_state("ground", 2), np.diag([1.0, 0.0]))
    assert np.array_equal(initial_state("maximally_mixed", 2), np.eye(2) / 2)
    ent = initial_state("maximally_entangled", 4)
    v = np.zeros(4)
    v[0] = v[3] = 1 / math.sqrt(2)
    assert np.abs(ent - np.outer(v, v)).max() < 1e-12
    # no internal split on one qubit: degrades to maximally mixed
    assert np.array_equal(initial_state("maximally_entangled", 2), np.eye(2) / 2)


# --- fitness -------------------------------------------------------------------

def test_fitness_zero_divergence_zero_weights(market_target):
    # fitness can never exceed zero; equal distributions at zero weights hit it
    hyp = make_hyp([GateSpec("RY", (0,), (0.5,))])
    own_tables = tables_of(hyp, [1, 2, 3])
    assert abs(fitness(hyp, own_tables, c_q=0.0, c_e=0.0)) < 1e-12


def test_fitness_zero_divergence_only_emission_term():
    hyp = make_hyp([GateSpec("RY", (0,), (0.5,))])
    own_tables = tables_of(hyp, [1, 2])
    f = fitness(hyp, own_tables, c_q=0.0, c_e=0.01)
    assert abs(f + 0.01 * 2 / 4) < 1e-12  # -c_e * M / N^2


def test_fitness_nonpositive_random(space, market_target, rng):
    for _ in range(5):
        hyp = random_hypothesis(space, market_target, rng,
                                default_distributions(space), 0.01, 0.01)
        assert hyp.fitness <= 0.0
        assert fitness(hyp, market_target) < 0.0


def test_fitness_unbound_params_rejected(market_target):
    hyp = Hypothesis(
        circuit=real_amplitudes(2, 1, "linear"), dim_s=2, dim_e=2,
        symbol_map=("0", "1"),
    )
    with pytest.raises(ValueError):
        fitness(hyp, market_target)


def test_fitness_and_reference_refuse_an_empty_target():
    # the compiled fitness used to fail inside numpy's concatenate while the
    # object path returned the complexity term alone
    hyp = Hypothesis(circuit=real_amplitudes(2, 1, "linear").with_parameters(
        [0.3, 1.1]), dim_s=2, dim_e=2, symbol_map=("0", "1"))
    for fit in (fitness, fitness_reference):
        with pytest.raises(ValueError, match="at least one distribution table"):
            fit(hyp, [])
    with pytest.raises(ValueError, match="at least one distribution table"):
        FitnessEngine(hyp, [])


def test_learners_refuse_targets_past_the_table_budget(market_target):
    # both objectives hold all m**t sequences of each target length; a
    # length-20 target used to run at a 1.43 GB peak
    hyp = Hypothesis(circuit=real_amplitudes(2, 1, "linear").with_parameters(
        [0.3, 1.1]), dim_s=2, dim_e=2, symbol_map=("0", "1"))
    seq = (0, 1) * 6 + (0,)
    long = DistributionTable(t=13, probs={seq: 1.0})
    with pytest.raises(ValueError, match=r"2\^13 exceeds the supported budget"):
        FitnessEngine(hyp, market_target + [long])
    with pytest.raises(ValueError, match=r"2\^13 exceeds the supported budget"):
        ansatz_objective(hyp, [(seq, 1.0)])
    # a target prepared once for a search must match the hypothesis
    levels = target_levels(market_target, 2)
    x = np.array([0.3, 1.1])
    assert FitnessEngine(hyp, levels).objective().evaluate(x) == (
        FitnessEngine(hyp, market_target).objective().evaluate(x))
    with pytest.raises(ValueError, match="target over 3 symbols"):
        FitnessEngine(hyp, target_levels(market_target, 3))


def test_fitness_two_qubit_gate_term(market_target):
    hyp = make_hyp([GateSpec("CX", (0, 1))])
    f_without = fitness(hyp, market_target, c_q=0.0, c_e=0.0)
    f_with = fitness(hyp, market_target, c_q=0.5, c_e=0.0)
    assert abs((f_without - f_with) - 0.5) < 1e-12  # one CX over one qubit pair


def test_alphabet_keeps_caller_order():
    # regression: symbols used to be sorted, so an alphabet ["b", "a"] read
    # the target's "b" column as "a" and relabelled the learned model
    space = LearnSpace(alphabet=["b", "a"])
    hyp = Hypothesis(circuit=Circuit(2), dim_s=2, dim_e=2,
                     symbol_map=space.symbol_map)
    always_b = [DistributionTable(t=1, probs={(0,): 1.0}),
                DistributionTable(t=2, probs={(0, 0): 1.0})]
    assert fitness(hyp, always_b, c_q=0.0, c_e=0.0) == 0.0
    assert fitness_reference(hyp, always_b, c_q=0.0, c_e=0.0) == 0.0
    assert hyp.model([]).alphabet == ["b", "a"]


def test_engine_rejects_symbol_map_of_wrong_length():
    with pytest.raises(ValueError):
        ChannelEngine(Circuit(2), 2, 2, ("0", "1", "2"), np.eye(2) / 2)


def test_learn_space_rejects_symbol_map_out_of_alphabet_order():
    with pytest.raises(ValueError):
        LearnSpace(alphabet=["0", "1"], dim_e=2, symbol_map=("1", "0"))
    with pytest.raises(ValueError):
        LearnSpace(alphabet=["0", "1", "2"], dim_e=2, symbol_map=("0", "1"))
    assert LearnSpace(alphabet=["1", "0"], dim_e=4).symbol_map == (
        "1", "1", "0", "0")


def test_specs_reject_register_sizes():
    # each used to be accepted and fail later inside the engine
    for dim_s, dim_e in ((3, 2), (2, 3), (0, 2)):
        with pytest.raises(ValueError, match="power of two"):
            LearnSpace(alphabet=["0", "1"], dim_s=dim_s, dim_e=dim_e)
        with pytest.raises(ValueError, match="power of two"):
            AnsatzSpec(Circuit(2), dim_s, dim_e, ("0", "1"))
    with pytest.raises(ValueError, match="circuit has 3 qubits"):
        AnsatzSpec(Circuit(3), 2, 2, ("0", "1"))
    AnsatzSpec(Circuit(3), 2, 4, ("0", "1", "2", "3"))
    # a budget below 1 used to become the 40-evaluation floor of budget_for
    for budget in (0, -5):
        with pytest.raises(ValueError, match=f"opt_budget must be >= 1, got {budget}"):
            LearnSpace(alphabet=["0", "1"], opt_budget=budget)
    assert LearnSpace(alphabet=["0", "1"], opt_budget=1).budget_for(3) == 40


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_engine_matches_reference_path(seed):
    # compiled fast path against the independent object-based computation
    rng = np.random.default_rng(seed)
    space = LearnSpace(alphabet=["0", "1"], dim_s=2, dim_e=2, opt_budget=1,
                       min_gates=1, max_gates=6,
                       gate_set=("X", "Y", "H", "P", "RX", "RY", "RZ",
                                 "CX", "CRY", "CRZ"))
    h = classical.market_model()
    target = [classical.distribution(h, t) for t in (1, 2, 3)]
    hyp = random_hypothesis(space, target, rng, default_distributions(space))
    f_fast = fitness(hyp, target, 0.01, 0.02)
    f_ref = fitness_reference(hyp, target, 0.01, 0.02)
    assert abs(f_fast - f_ref) < 1e-12


def test_optimize_parameters_never_decreases(space, market_target, rng):
    gates = [GateSpec("RY", (0,), (1.0,)), GateSpec("CRY", (0, 1), (2.0,))]
    hyp = make_hyp(gates)
    start = fitness(hyp, market_target)
    tuned = optimize_parameters(hyp, market_target, "nm", budget=60)
    assert tuned.fitness >= start - 1e-12
    # Lamarckian write-back: the genotype carries the angles that reached
    # the recorded fitness
    assert tuned.circuit.parameters() != hyp.circuit.parameters()
    assert abs(fitness(tuned, market_target) - tuned.fitness) < 1e-12


def test_optimize_parameters_parameterless(market_target):
    hyp = make_hyp([GateSpec("X", (0,))])
    tuned = optimize_parameters(hyp, market_target, "nm", budget=10)
    assert tuned.fitness == fitness(hyp, market_target)
    assert tuned.circuit == hyp.circuit


def test_optimize_parameters_budget_one(space, market_target):
    hyp = make_hyp([GateSpec("RY", (0,), (1.0,))])
    tuned = optimize_parameters(hyp, market_target, "nm", budget=1)
    assert abs(tuned.fitness - fitness(hyp, market_target)) < 1e-12


def test_random_hypothesis_bounds_and_seeds(space, market_target):
    def draw(seed):
        return random_hypothesis(space, market_target,
                                 np.random.default_rng(seed),
                                 default_distributions(space))

    assert draw(3).circuit == draw(3).circuit
    for seed in range(10):
        h = draw(seed)
        assert space.min_gates <= len(h.circuit.gates) <= space.max_gates
        assert h.fitness is not None and h.fitness <= 0.0


def test_random_hypothesis_forced_gate_count(market_target):
    space = LearnSpace(alphabet=["0", "1"], min_gates=1, max_gates=1,
                       opt_budget=5)
    h = random_hypothesis(space, market_target, np.random.default_rng(0),
                          default_distributions(space))
    assert len(h.circuit.gates) == 1


# --- temperature and acceptance ---------------------------------------------------

def test_temperature_values():
    assert temperature(0) == 1.0
    assert abs(temperature(1) - 2 ** -0.25) < 1e-12
    assert abs(temperature(100) - (1000.0 + 1.0) ** -0.25) < 1e-12
    assert abs(temperature(100) - 0.1778) < 1e-3


def test_temperature_strictly_decreasing():
    taus = [temperature(t) for t in range(50)]
    assert all(a > b for a, b in zip(taus, taus[1:]))


def test_acceptance_probability_examples():
    assert acceptance_probability(-0.5, -0.5, 1.0) == 1.0
    assert abs(acceptance_probability(-0.2, -0.3, 1.0) - math.exp(-0.3)) < 1e-12
    assert acceptance_probability(-0.2, -0.3, 1e-9) < 1e-12
    assert acceptance_probability(-0.5, -0.1, 0.5) == 1.0  # improvement
    assert acceptance_probability(0.0, -0.1, 1.0) == 0.0  # perfect incumbent


def test_acceptance_monotone_in_gap_and_temperature():
    p_small_gap = acceptance_probability(-0.2, -0.25, 1.0)
    p_large_gap = acceptance_probability(-0.2, -0.4, 1.0)
    assert p_small_gap > p_large_gap
    p_hot = acceptance_probability(-0.2, -0.3, 1.0)
    p_cold = acceptance_probability(-0.2, -0.3, 0.2)
    assert p_hot > p_cold


# --- selection ---------------------------------------------------------------------

def _pop_with_fitness(values):
    return [make_hyp([GateSpec("X", (0,))], fitness_value=v) for v in values]


def test_select_parents_mu2_always_fittest(rng):
    pop = _pop_with_fitness([-0.5, -0.1])
    picks = select_parents(pop, 20, "rank", 1.0, rng)
    assert all(p.fitness == -0.1 for p in picks)


def test_select_parents_s0_uniform_over_nonlast():
    rng = np.random.default_rng(0)
    pop = _pop_with_fitness([-0.1, -0.2, -0.3])
    picks = select_parents(pop, 4000, "rank", 0.0, rng)
    counts = {}
    for p in picks:
        counts[p.fitness] = counts.get(p.fitness, 0) + 1
    assert counts.get(-0.3, 0) == 0  # last rank has weight zero
    assert abs(counts[-0.1] - counts[-0.2]) < 300


def test_select_parents_rank_distribution_chi2():
    rng = np.random.default_rng(1)
    mu, s, n = 10, 0.5, 20000
    pop = _pop_with_fitness([-0.01 * (i + 1) for i in range(mu)])
    weights = np.array([(mu - i) ** s for i in range(1, mu + 1)])
    probs = weights / weights.sum()
    picks = select_parents(pop, n, "rank", s, rng)
    counts = np.zeros(mu)
    fitness_to_rank = {-0.01 * (i + 1): i for i in range(mu)}
    for p in picks:
        counts[fitness_to_rank[p.fitness]] += 1
    expected = probs * n
    chi2 = ((counts[:-1] - expected[:-1]) ** 2 / expected[:-1]).sum()
    assert counts[-1] == 0
    assert chi2 < 21.67  # 0.99 quantile, 8 dof


def test_select_parents_tournament_prefers_best(rng):
    pop = _pop_with_fitness([-0.9, -0.5, -0.1])
    picks = select_parents(pop, 300, "tournament", 1.0, rng)
    best = sum(1 for p in picks if p.fitness == -0.1)
    assert best > 200


def test_select_parents_empty():
    with pytest.raises(ValueError):
        select_parents([], 1, "rank", 1.0, np.random.default_rng(0))


def test_select_survivors_uniform_weights_at_s0(rng):
    pool = _pop_with_fitness([-0.01 * i for i in range(6)])
    # d_r = 1 for all ranks: weights are equal, sampling without replacement
    out = select_survivors(pool, 4, "rank", 0.0, rng)
    assert len(out) == 4
    assert len({id(h) for h in out}) == 4


def test_select_survivors_elitism(rng):
    pool = _pop_with_fitness([-0.5, -0.4, -0.3, -0.2, -0.1])
    for _ in range(30):
        out = select_survivors(pool, 2, "rank", 0.1, rng)
        assert any(h.fitness == -0.1 for h in out)


def test_select_survivors_pool_too_small(rng):
    with pytest.raises(ValueError):
        select_survivors(_pop_with_fitness([-0.1]), 2, "rank", 0.5, rng)


def test_select_survivors_weight_curve_monotone():
    # survival weights decrease with rank for every strength level
    for s in (0.1, 0.2, 0.5, 0.7, 1.0):
        size = 30
        d = np.exp(s * (np.arange(1, size + 1, dtype=float) - size))
        w = 1.0 / (d + 1.0)
        assert all(a >= b for a, b in zip(w, w[1:]))


# --- bandit ------------------------------------------------------------------------

def test_bandit_update_formula():
    d = AdaptiveDistribution(domain=["a", "b"], rewards=np.array([3.0, 1.0]))
    out = bandit_update(d, gamma=0.0)
    assert np.allclose(out.probs, [0.75, 0.25])
    assert out.rewards.sum() == 0.0


def test_bandit_update_gamma_one_uniform():
    d = AdaptiveDistribution(domain=["a", "b"], rewards=np.array([10.0, 0.0]))
    out = bandit_update(d, gamma=1.0)
    assert np.allclose(out.probs, [0.5, 0.5])


def test_bandit_update_no_rewards_resets_uniform():
    d = AdaptiveDistribution(domain=list("abcd"), probs=np.array([0.7, 0.1, 0.1, 0.1]))
    out = bandit_update(d, gamma=0.3)
    assert np.allclose(out.probs, 0.25)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 6),
    st.floats(0.0, 1.0),
    st.integers(0, 2**31 - 1),
)
def test_bandit_probs_bounded_below(k, gamma, seed):
    rng = np.random.default_rng(seed)
    d = AdaptiveDistribution(domain=list(range(k)),
                             rewards=rng.integers(0, 5, size=k).astype(float))
    out = bandit_update(d, gamma)
    assert abs(out.probs.sum() - 1.0) < 1e-12
    if d.rewards.sum() > 0:
        assert out.probs.min() >= gamma / k - 1e-12


def test_bandit_negative_rewards_rejected():
    d = AdaptiveDistribution(domain=["a"], rewards=np.array([-1.0]))
    with pytest.raises(ValueError):
        bandit_update(d, 0.5)


@pytest.mark.parametrize("probs", [
    [1.0], [0.5, 0.5], [0.0, 1.0, 0.0], [0.2, 0.0, 0.8], [0.1] * 10,
    [1e-12, 1 - 1e-12], [0.3, 0.3, 0.4 + 1e-9], "random"])
def test_adaptive_distribution_draws_as_choice(probs):
    # each draw is the index Generator.choice gives for the same probs, from
    # the same one rng.random(), so the stream after it is the same too
    if probs == "random":
        probs = np.random.default_rng(1).dirichlet(np.ones(7))
    d = AdaptiveDistribution(domain=list(range(len(probs))), probs=probs)
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(2000):
        assert d.sample(ours) == int(theirs.choice(len(probs), p=d.probs))
    assert ours.random() == theirs.random()
    assert len(d.draws) == 2000


@pytest.mark.parametrize("probs,shown", [
    ([0.5, 0.7], r"\[0.5, 0.7\]"), ([1.2, -0.2], "non-negative"),
    ([np.nan, 1.0], "nan"), ([0.25] * 4, r"shape \(4,\)"),
    ([[0.5, 0.5]], r"shape \(1, 2\)")])
def test_adaptive_distribution_checks_probs_once(probs, shown):
    # each was accepted, and [0.5, 0.7] failed only at the first draw
    with pytest.raises(ValueError, match=shown):
        AdaptiveDistribution(domain=["a", "b"], probs=probs)
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(2, p=np.array(probs, dtype=float))


def test_adaptive_distribution_draw_log():
    d = AdaptiveDistribution(domain=["x", "y"])
    rng = np.random.default_rng(0)
    d.sample(rng)
    d.sample(rng)
    assert len(d.draws) == 2
    d.credit_draws()
    assert d.rewards.sum() == 2.0 and not d.draws


# --- modification -------------------------------------------------------------------

def _dists_with(space, **overrides):
    dists = default_distributions(space)
    for name, domain in overrides.items():
        dists[name] = AdaptiveDistribution(domain=list(domain))
    return dists


def test_modify_zero_rate_returns_parent(space, market_target, rng):
    dists = _dists_with(space, mutation_rate=[0.0])
    parent = optimize_parameters(
        make_hyp([GateSpec("RY", (0,), (1.0,))]), market_target, budget=20
    )
    child = modify_hypothesis(parent, 1.0, dists, space, market_target, rng)
    assert child.circuit == parent.circuit


def test_modify_insert_on_empty_parent(space, market_target):
    rng = np.random.default_rng(2)
    dists = _dists_with(space, mutation_rate=[0.5], mutation_type=["ins"])
    parent = optimize_parameters(make_hyp([]), market_target, budget=5)
    grew = False
    for _ in range(20):
        child = modify_hypothesis(parent, 1.0, dists, space, market_target, rng)
        if len(child.circuit.gates) > 0:
            grew = True
            break
    assert grew


def test_modify_returns_valid_hypothesis(space, market_target, rng):
    dists = default_distributions(space)
    parent = random_hypothesis(space, market_target, rng, dists)
    for _ in range(5):
        child = modify_hypothesis(parent, 0.8, dists, space, market_target, rng)
        assert child.fitness is not None and child.fitness <= 0.0
        assert child.circuit.n_qubits == 2


def test_gate_distributions_are_the_only_gate_source(space, market_target):
    # one-point gate and qubit-pair distributions: every random gate and
    # every mutation of the search lands on that gate and that pair
    dists = _dists_with(space, gates=["CRY"], qubit_pair=[(1, 0)],
                        mutation_rate=[1.0])
    rng = np.random.default_rng(4)
    parent = random_hypothesis(space, market_target, rng, dists)
    circuits = [parent.circuit]
    for _ in range(4):
        child = modify_hypothesis(parent, 1.0, dists, space, market_target, rng)
        circuits.append(child.circuit)
    for c in circuits:
        assert {(g.gate, g.qubits) for g in c.gates} <= {("CRY", (1, 0))}
    assert any(len(c.gates) != len(parent.circuit.gates) for c in circuits)


# --- evolve --------------------------------------------------------------------------

def test_evolve_gmax_zero_returns_best_random(space, market_target):
    hp = HyperParams(mu=4, lam=2, g_max=0, target_fitness=0.0,
                     c_q=0.0, c_e=0.0)
    rep = evolve(market_target, space, hp, seed=0)
    assert rep.generations == []
    assert rep.best.fitness is not None
    assert not rep.target_reached or rep.best.fitness >= 0.0


def test_evolve_best_trace_nondecreasing(space, market_target):
    hp = HyperParams(mu=5, lam=3, g_max=6, target_fitness=-1e-6,
                     c_q=0.0, c_e=0.0, prog_window=3)
    rep = evolve(market_target, space, hp, seed=1)
    assert all(a <= b + 1e-15 for a, b in zip(rep.best_trace, rep.best_trace[1:]))
    assert len(rep.generations) <= 6
    for name, trace in rep.bandit_traces.items():
        for probs in trace:
            assert abs(sum(probs) - 1.0) < 1e-9


@pytest.mark.parametrize("prog_window", [1, 2])
def test_evolve_temperature_resets_on_stagnation(space, market_target,
                                                 prog_window):
    # the temperature of each generation is tau(t) for the progress counter
    # t, which counts the generations since the start or the last reset and
    # resets to 0 once the best has not improved for prog_window
    # generations; a complexity cost keeps the target of 0 out of reach
    hp = HyperParams(mu=4, lam=2, g_max=6, target_fitness=0.0,
                     prog_window=prog_window)
    rep = evolve(market_target, space, hp, seed=2)
    assert len(rep.generations) == hp.g_max
    t, last, resets = 0, 0, 0
    for g, stats in enumerate(rep.generations, 1):
        assert stats.generation == g
        assert stats.temperature == temperature(t)
        if rep.best_trace[g] > rep.best_trace[g - 1] + 1e-15:
            last = g
        if g - last >= prog_window:
            t, resets = 0, resets + (t > 0)
        else:
            t += 1
    assert resets >= 1


def test_evolve_self_recovery_small():
    # plant a one-gate model and ask the search to find its language
    planted = make_hyp([GateSpec("RY", (0,), (1.2,))])
    target = tables_of(planted, [1, 2, 3])
    space = LearnSpace(alphabet=["0", "1"], min_gates=1, max_gates=4,
                       opt_budget=50)
    hp = HyperParams(mu=8, lam=4, g_max=25, target_fitness=-1e-4,
                     c_q=0.0, c_e=0.0, prog_window=8)
    rep = evolve(target, space, hp, seed=5)
    assert rep.best.fitness > -5e-3


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(mu=1)
    with pytest.raises(ValueError):
        HyperParams(gamma_bandit=1.5)


# --- ansatz training -----------------------------------------------------------------

def test_ansatz_cost_equal_tables():
    items = [((0,), 0.5), ((1,), 0.5)]
    assert ansatz_cost(items, items) == 0.0


def test_ansatz_cost_arithmetic():
    target = [((0, 1), 0.5)]
    current = [((0, 1), 0.4)]
    assert abs(ansatz_cost(target, current) - 2 * 0.01) < 1e-15


def test_ansatz_cost_misaligned():
    with pytest.raises(ValueError):
        ansatz_cost([((0,), 0.5)], [((1,), 0.5)])
    with pytest.raises(ValueError):
        ansatz_cost([((0,), 0.5)], [])


@pytest.mark.parametrize("target,bad", [
    ([((0,), 0.5), ((1,), 0.4), ((3,), 0.1)], 3),
    ([((-1,), 0.5), ((0,), 0.5)], -1),
    ([((2,), 0.5), ((0,), 0.5)], 2),
    ([((0, 1), 0.5), ((1, 2), 0.5)], 2),
], ids=["aliased-to-level-2", "negative", "one-past-the-end", "inside-a-pair"])
def test_ansatz_objective_refuses_out_of_range_symbols(target, bad):
    # on two symbols, a 3 landed on the level-2 entry (0, 1), a -1 read the
    # last entry of its level (cost 0.0), and a 2 raised a bare IndexError
    spec = AnsatzSpec(real_amplitudes(2, 1, "linear"), 2, 2, ("0", "1"))
    with pytest.raises(ValueError, match=f"symbol index {bad} .*out of range"):
        ansatz_objective(spec, target)


def test_train_ansatz_zero_parameter_template():
    spec = AnsatzSpec(
        circuit=Circuit(2, (GateSpec("X", (0,)),)),
        dim_s=2, dim_e=2, symbol_map=("0", "1"),
    )
    res = train_ansatz(spec, [((0,), 0.5), ((1,), 0.5)])
    assert res.evaluations == 1
    assert res.params.size == 0


def test_train_ansatz_trace_nonincreasing(market_target):
    h = classical.market_model()
    items = [(s, market_target[0].prob(s)) for s in [(0,), (1,)]]
    items += [(s, market_target[1].prob(s)) for s in market_target[1].probs]
    spec = AnsatzSpec(circuit=real_amplitudes(2, 1, "linear"),
                      dim_s=2, dim_e=2, symbol_map=("0", "1"))
    res = train_ansatz(spec, items, "nm", budget=300,
                       rng=np.random.default_rng(0))
    assert all(a >= b for a, b in zip(res.trace, res.trace[1:]))
    assert res.cost == res.trace[-1]


def test_train_ansatz_restart_improves(market_target):
    items = [(s, market_target[1].prob(s)) for s in market_target[1].probs]
    spec = AnsatzSpec(circuit=real_amplitudes(2, 1, "linear"),
                      dim_s=2, dim_e=2, symbol_map=("0", "1"))
    one = train_ansatz(spec, items, "nm", budget=150,
                       rng=np.random.default_rng(1))
    best = train_ansatz_restarts(spec, items, "nm", restarts=4, budget=150, seed=1)
    assert best.cost <= one.cost + 1e-12


def test_circuit_models_slice_kraus_in_emission_order():
    # AnsatzSpec.model goes through models.to_kraus, for a template and for
    # a hypothesis with bound angles; the operators must be U's (emission e,
    # e0 = 0) blocks grouped by symbol in emission order, with the alphabet
    # in order of first appearance
    from qhmm.circuits import compile_circuit, efficient_su2

    template = efficient_su2(3, reps=1, entanglement="linear",
                             rotation_pair="RY_RZ")
    x = np.random.default_rng(3).uniform(0.0, 2 * np.pi, template.num_parameters)
    u4 = compile_circuit(template.with_parameters(x)).reshape(2, 4, 2, 4)
    symbol_map = ("b", "a", "b", "a")
    want = {"b": [u4[:, 0, :, 0], u4[:, 2, :, 0]],
            "a": [u4[:, 1, :, 0], u4[:, 3, :, 0]]}
    rho0 = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=np.complex128)
    hyp = Hypothesis(circuit=template.with_parameters(x), dim_s=2, dim_e=4,
                     symbol_map=symbol_map, rho0=initial_state("ground", 2))
    spec = AnsatzSpec(circuit=template, dim_s=2, dim_e=4,
                      symbol_map=symbol_map, rho0=rho0)
    for q, start in ((hyp.model(x), initial_state("ground", 2)),
                     (spec.model(x), rho0)):
        assert q.alphabet == ["b", "a"]
        assert list(q.channel.groups) == ["b", "a"]
        for sym, ops in want.items():
            got = q.channel.groups[sym]
            assert len(got) == len(ops)
            for k, w in zip(got, ops):
                assert np.array_equal(k, w)
        assert np.array_equal(q.rho0, start)


def test_train_ansatz_cost_matches_object_path(market_target):
    # the vectorized per-length cost equals ansatz_cost on the fitted
    # model's tables, for a support with gaps, mixed lengths and any order
    from qhmm.models import distribution_tables

    items = [(s, market_target[2].prob(s)) for s in [(1, 0, 1), (0, 0, 0)]]
    items += [((1,), market_target[0].prob((1,)))]
    items += [(s, market_target[1].prob(s)) for s in market_target[1].probs]
    spec = AnsatzSpec(circuit=real_amplitudes(2, 1, "linear"),
                      dim_s=2, dim_e=2, symbol_map=("0", "1"))
    # a short budget keeps the fit far from the target
    res = train_ansatz(spec, items, "nm", budget=20,
                       rng=np.random.default_rng(4))
    tabs = distribution_tables(spec.model(res.params), [1, 2, 3])
    current = [(s, tabs[len(s)].prob(s)) for s, _ in items]
    assert res.cost > 1e-4
    assert abs(res.cost - ansatz_cost(items, current)) < 1e-12


# --- batch axis -------------------------------------------------------------

BATCH_SIZES = (1, 2, 7, 36)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([2, 4]), st.integers(0, 16))
def test_batch_rows_equal_points_alone(seed, dim_e, n_gates):
    # a point's level probabilities, -fitness and ansatz cost are the same
    # bits alone as at any position of a block, over random circuits of all
    # 11 gate types; the empty sequence is a level of the divergence
    from qhmm.models import block_symbol_map

    rng = np.random.default_rng(seed)
    n_qubits = 1 + int(math.log2(dim_e))
    gates = []
    for _ in range(n_gates):
        gate = sorted(qc.GATE_ARITY)[rng.integers(len(qc.GATE_ARITY))]
        if gate in qc.TWO_QUBIT_GATES:
            qubits = tuple(int(q) for q in rng.choice(n_qubits, 2, replace=False))
        else:
            qubits = (int(rng.integers(n_qubits)),)
        gates.append(GateSpec(gate, qubits, (None,) * qc.GATE_ARITY[gate]))
    template = Circuit(n_qubits, tuple(gates))
    model = classical.market_model() if dim_e == 2 else classical.gaussian4_model()
    symbol_map = block_symbol_map(model.alphabet, dim_e)
    lengths = [0, 1, 2, 3]
    tables = [classical.distribution(model, t) for t in lengths]
    items = [(s, tab.prob(s)) for tab in tables[1:] for s in sorted(tab.probs)]
    engine = ChannelEngine(template, 2, dim_e, symbol_map, initial_state(
        "maximally_mixed", 2))
    fit = FitnessEngine(Hypothesis(template, 2, dim_e, symbol_map),
                        tables).objective()
    cost = ansatz_objective(AnsatzSpec(template, 2, dim_e, symbol_map), items)
    points = rng.uniform(0.0, 8 * np.pi, size=(36, template.num_parameters))
    alone = [(engine.level_probs(x, lengths), cost.evaluate(x), fit.evaluate(x))
             for x in points]
    for size in BATCH_SIZES:
        for shift in (0, int(rng.integers(36))):
            rows = np.roll(points, -shift, axis=0)[:size]
            probs = engine.level_probs(rows, lengths)
            costs, negs = cost.evaluate(rows), fit.evaluate(rows)
            assert costs.shape == negs.shape == (size,)
            assert [p.shape for p in probs] == [
                (size, engine.n_symbols**t) for t in lengths]
            for i in range(size):
                want_probs, want_cost, want_neg = alone[(i + shift) % 36]
                assert all(np.array_equal(p[i], w)
                           for p, w in zip(probs, want_probs))
                assert costs[i] == want_cost
                assert negs[i] == want_neg


ANGLE_GATES = sorted(g for g, arity in qc.GATE_ARITY.items() if arity)


def _random_gates(rng, n_qubits, count):
    gates = []
    for _ in range(count):
        gate = sorted(qc.GATE_ARITY)[rng.integers(len(qc.GATE_ARITY))]
        gates.append(_placed(rng, n_qubits, gate))
    return gates


def _placed(rng, n_qubits, gate):
    if gate in qc.TWO_QUBIT_GATES:
        qubits = tuple(int(q) for q in rng.choice(n_qubits, 2, replace=False))
    else:
        qubits = (int(rng.integers(n_qubits)),)
    return GateSpec(gate, qubits, tuple(
        rng.uniform(-8 * np.pi, 8 * np.pi, size=qc.GATE_ARITY[gate])))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from(ANGLE_GATES),
       st.sampled_from([2, 4]), st.integers(0, 5))
def test_line_equals_points_along_each_angle(seed, gate, dim_e, top):
    # along one angle, every level probability is a trigonometric polynomial
    # that one block of samples fixes: the line equals direct evaluation at
    # any angle, for each angle gate between random gates of all 11 types,
    # and so do both objectives' lines
    from qhmm.models import block_symbol_map

    rng = np.random.default_rng(seed)
    n_qubits = 1 + int(math.log2(dim_e))
    before = _random_gates(rng, n_qubits, int(rng.integers(4)))
    after = _random_gates(rng, n_qubits, int(rng.integers(4)))
    circuit = Circuit(n_qubits, tuple(before + [_placed(rng, n_qubits, gate)]
                                      + after))
    axis = sum(len(g.params) for g in before)
    x = np.array(circuit.parameters())
    model = classical.market_model() if dim_e == 2 else classical.gaussian4_model()
    symbol_map = block_symbol_map(model.alphabet, dim_e)
    lengths = list(range(top + 1))
    tables = [classical.distribution(model, t) for t in lengths]
    items = [(s, tab.prob(s)) for tab in tables[1:] for s in sorted(tab.probs)]
    hyp = Hypothesis(circuit, 2, dim_e, symbol_map)
    engine = hyp.engine()
    fit = FitnessEngine(hyp, tables, 0.01, 0.01).objective()
    probs = engine.line_probs(x, axis, lengths)
    fitness_line = fit.line(x, axis)
    if items:
        cost = ansatz_objective(hyp, items)
        cost_line = cost.line(x, axis)
    for t in np.r_[x[axis], rng.uniform(-8 * np.pi, 8 * np.pi, size=6)]:
        xt = x.copy()
        xt[axis] = t
        want = np.concatenate(engine.level_probs(xt, lengths))
        assert np.abs(probs(t) - want).max() <= 1e-13
        assert abs(fitness_line(t) - fit.evaluate(xt)) <= 1e-13
        if items:
            assert abs(cost_line(t) - cost.evaluate(xt)) <= 1e-13


def test_line_block_size_follows_the_gate():
    # S = 2L + 1 samples for RX, RY, RZ and P, 4L + 1 for CRY and CRZ
    rows = []
    lengths = [1, 2, 3]

    class Counting(ChannelEngine):
        def level_probs(self, x, lengths):
            rows.append(len(x))
            return super().level_probs(x, lengths)

    for gate in ANGLE_GATES:
        qubits = (0, 1) if gate in qc.TWO_QUBIT_GATES else (1,)
        circuit = Circuit(2, (GateSpec(gate, qubits, (0.3,)),))
        engine = Counting(circuit, 2, 2, ("0", "1"),
                          initial_state("maximally_mixed", 2))
        engine.line_probs(np.array([0.3]), 0, lengths)
    assert rows == [4 * 3 + 1 if g in qc.TWO_QUBIT_GATES else 2 * 3 + 1
                    for g in ANGLE_GATES]


@pytest.mark.parametrize("symbol_map", [("0", "1", "2", "3"),
                                        ("a", "a", "a", "b")])
def test_empty_block_gives_empty_levels(symbol_map):
    # a (0, P) block used to fail with "cannot reshape array of size 0"
    from qhmm.circuits import efficient_su2

    engine = ChannelEngine(efficient_su2(3, 1), 2, 4, symbol_map,
                           initial_state("ground", 2))
    m = engine.n_symbols
    probs = engine.level_probs(np.zeros((0, 6)), [0, 1, 3])
    assert [p.shape for p in probs] == [(0, 1), (0, m), (0, m**3)]


def _counting_unitary(engine):
    """Record the rows of every unitary call the engine makes."""
    calls, unitary = [], engine.unitary
    engine.unitary = lambda x: calls.append(len(x)) or unitary(x)
    return calls


def test_large_block_runs_in_pieces():
    # a block whose intermediates exceed BLOCK_BYTES runs in near-equal
    # pieces and still gives each row's probabilities alone
    from qhmm.circuits import efficient_su2

    engine = ChannelEngine(efficient_su2(3, 3, "full", "RZ_RX"), 2, 4,
                           ("0", "1", "2", "3"), initial_state("ground", 2))
    x = np.random.default_rng(0).uniform(0.0, 2 * np.pi, size=(60, 18))
    alone = [engine.level_probs(row, [1, 2]) for row in x]
    calls = _counting_unitary(engine)
    probs = engine.level_probs(x, [1, 2])
    assert len(calls) > 1 and sum(calls) == 60 and max(calls) - min(calls) <= 1
    assert [p.shape for p in probs] == [(60, 4), (60, 16)]
    assert all(np.array_equal(p[i], want[t])
               for i, want in enumerate(alone) for t, p in enumerate(probs))


def test_row_larger_than_block_bytes_runs_alone():
    # six qubits: one row's factor stack alone is over BLOCK_BYTES, so a
    # two-row block runs as two single rows
    from qhmm.circuits import efficient_su2
    from qhmm.learning import BLOCK_BYTES

    labels = tuple("abcdefgh")
    engine = ChannelEngine(efficient_su2(6, 2), 8, 8, labels,
                           initial_state("maximally_mixed", 8))
    assert engine.gates.stack.nbytes > BLOCK_BYTES
    x = np.random.default_rng(1).uniform(0.0, 2 * np.pi, size=(2, 24))
    calls = _counting_unitary(engine)
    probs = engine.level_probs(x, [1, 2])
    assert calls == [1, 1]
    for i in range(2):
        assert all(np.array_equal(p[i], w)
                   for p, w in zip(probs, engine.level_probs(x[i], [1, 2])))


@pytest.mark.parametrize("dim_s,dim_e,symbol_map", [
    (2, 4, ("a", "a", "b", "b")), (2, 4, ("b", "a", "b", "a")),
    (2, 4, ("a", "a", "a", "b")), (2, 4, ("a", "b", "c", "d")),
    (4, 2, ("b", "a")), (4, 2, ("a", "a")),
    (4, 4, ("b", "a", "b", "a")), (4, 4, ("c", "a", "a", "b")),
], ids=["block", "interleaved", "uneven", "one-emission-each",
        "4x2-one-each", "4x2-one-symbol", "4x4-interleaved", "4x4-uneven"])
def test_engine_step_is_model_transfer_matrices(dim_s, dim_e, symbol_map):
    # the step the engine gathers straight from U holds, symbol by symbol,
    # the transfer matrix T = sum K (x) conj(K) of the model's Kraus group in
    # real coordinates: with Q the map from the coordinates of a Hermitian
    # rho to row-major vec(rho), built here from the basis operators, the
    # (N^2, m*(N^2 + 1)) step has step[j, a*(N^2 + 1) + i] = (Q^-1 T_a Q)[i, j]
    # and so advances the coordinates of rho to every symbol's sub-channel
    # output at once; each symbol's last column is its effect vec(I) T_a Q,
    # which gives the output's trace. At N = 4 the rows run over a 16 x m*17
    # step
    from qhmm.channels import apply_symbol
    from qhmm.circuits import efficient_su2
    from qhmm.channels import hermitian_coordinates
    from oracles import hermitian_basis_columns, kraus_transfer_matrix, random_density

    rng = np.random.default_rng(5)
    spec = AnsatzSpec(efficient_su2(register_qubits(dim_s, dim_e), 1), dim_s,
                      dim_e, symbol_map, rho0=random_density(dim_s, rng))
    x = rng.uniform(0.0, 2 * np.pi, size=spec.circuit.num_parameters)
    step = spec.engine().step(x)
    q = spec.model(x)
    basis = hermitian_basis_columns(dim_s)
    want = np.stack([np.linalg.solve(basis, kraus_transfer_matrix(q.channel.groups[a])
                                     @ basis) for a in q.alphabet])
    m, n2 = len(q.alphabet), dim_s**2
    assert step.dtype == np.float64 and step.shape == (n2, m * (n2 + 1))
    blocks = step.reshape(n2, m, n2 + 1)
    assert np.abs(blocks[..., :n2] - want.transpose(2, 0, 1)).max() < 1e-14
    effects = np.eye(dim_s).ravel() @ basis @ want
    assert np.abs(blocks[..., n2] - effects.T).max() < 1e-14
    post = (hermitian_coordinates(q.rho0) @ step).reshape(m, n2 + 1)
    for a, row in zip(q.alphabet, post):
        sub = apply_symbol(q.channel, q.rho0, a)
        assert np.abs((basis @ row[:n2]).reshape(dim_s, dim_s) - sub).max() < 1e-14
        assert abs(row[n2] - np.trace(sub)) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 4])
def test_hermitian_coordinates_round_trip(n):
    # rho's real coordinates rebuild rho through the basis operators, and
    # each is the diagonal entry, the real part above or the imaginary part
    # below the diagonal
    from qhmm.channels import hermitian_coordinates
    from oracles import hermitian_basis_columns, random_density

    rng = np.random.default_rng(n)
    for _ in range(5):
        rho = random_density(n, rng)
        coords = hermitian_coordinates(rho)
        assert coords.dtype == np.float64 and coords.shape == (n * n,)
        assert np.abs(hermitian_basis_columns(n) @ coords - rho.ravel()).max() < 1e-15
        for c in range(n):
            for c2 in range(n):
                part = rho[c, c2].real if c <= c2 else rho[c2, c].imag
                assert coords[c * n + c2] == part


@pytest.mark.parametrize("dim_s", [1, 2, 4])
def test_real_step_rows_equal_their_points(dim_s):
    # the step is real, and each row of a block, step or probabilities,
    # equals that point's alone bit for bit
    from qhmm.circuits import efficient_su2

    dim_e = 8 // dim_s
    engine = ChannelEngine(efficient_su2(3, 2), dim_s, dim_e,
                           tuple("abcabcab"[:dim_e]),
                           initial_state("maximally_mixed", dim_s))
    x = np.random.default_rng(dim_s).uniform(0.0, 2 * np.pi,
                                              size=(7, engine.gates.n_params))
    step, probs = engine.step(x), engine.level_probs(x, [0, 1, 3])
    assert step.dtype == np.float64 and step.shape[0] == 7
    for i, row in enumerate(x):
        assert np.array_equal(step[i], engine.step(row))
        assert all(np.array_equal(p[i], want)
                   for p, want in zip(probs, engine.level_probs(row, [0, 1, 3])))


def _market_items(market_target):
    return [(s, tab.prob(s)) for tab in market_target for s in sorted(tab.probs)]


@pytest.mark.parametrize("label", ["nm", "bfsg", "cbla"])
def test_lockstep_restarts_equal_sequential_fits(market_target, label):
    spec = AnsatzSpec(circuit=real_amplitudes(2, 1, "linear"),
                      dim_s=2, dim_e=2, symbol_map=("0", "1"))
    items = _market_items(market_target)
    fits = [train_ansatz(spec, items, label, budget=120,
                         rng=np.random.default_rng(np.random.SeedSequence([3, r])))
            for r in range(5)]
    best = train_ansatz_restarts(spec, items, label, restarts=5, budget=120,
                                 seed=3)
    first = min(fits, key=lambda res: res.cost)  # the first of equal costs
    assert np.array_equal(best.params, first.params)
    assert (best.cost, best.evaluations, best.trace) == (
        first.cost, first.evaluations, first.trace)


def test_restarts_pick_the_first_lowest_cost(monkeypatch, market_target):
    # with a constant cost every restart ties, and each keeps its start
    from qhmm import learning
    from qhmm.optimize import ObjectiveSpec

    monkeypatch.setattr(learning, "ansatz_objective", lambda spec, target, budget:
                        ObjectiveSpec(2, lambda x: np.ones(np.shape(x)[:-1]),
                                      budget))
    spec = AnsatzSpec(circuit=real_amplitudes(2, 1, "linear"),
                      dim_s=2, dim_e=2, symbol_map=("0", "1"))
    res = train_ansatz_restarts(spec, _market_items(market_target), restarts=3,
                                budget=30, seed=7)
    first = np.random.default_rng(np.random.SeedSequence([7, 0])).uniform(
        0.0, 2 * np.pi, size=2)
    assert np.array_equal(res.params, first)
    assert res.cost == 1.0 and res.evaluations == 30


def test_restarts_must_be_positive(market_target):
    spec = AnsatzSpec(circuit=real_amplitudes(2, 1, "linear"),
                      dim_s=2, dim_e=2, symbol_map=("0", "1"))
    with pytest.raises(ValueError, match="restarts"):
        train_ansatz_restarts(spec, _market_items(market_target), restarts=0)
