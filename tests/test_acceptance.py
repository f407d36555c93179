"""Acceptance suite: one test per release criterion, each printed as a
pass/fail line with its runtime so the whole gate reads off `pytest -s`."""

import json
import math
import sys
import time

import numpy as np
import pytest

from qhmm import classical, experiments, models
from qhmm.channels import (
    KrausChannel,
    apply,
    choi,
    kraus_from_unitary,
    random_channel,
    steady_state,
    stinespring_dilate,
    validate_cptp,
)
from qhmm.circuits import Circuit, random_gate
from qhmm.cli import main
from qhmm.lang import hankel, sequences_of_length
from qhmm.learning import (
    AdaptiveDistribution,
    HyperParams,
    Hypothesis,
    LearnSpace,
    acceptance_probability,
    bandit_update,
    evolve,
    temperature,
)
from qhmm.linalg import (
    density_basis,
    is_density,
    numerical_rank,
    operators_rank,
    random_density,
    spectral_norm,
)

from conftest import uniform_gate_dists


def _report(criterion: str, passed: bool, detail: str, elapsed: float):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {criterion}: {status} ({detail}; {elapsed:.2f}s)",
          file=sys.stderr)


def test_criterion_1_damping_table_exact():
    t0 = time.perf_counter()
    q = models.amplitude_damping_qhmm(math.pi / 2)
    h = hankel(lambda s: models.sequence_probability(q, s), 2, 2, 2)
    err = float(np.abs(h.values - experiments.DAMPING_REFERENCE_TABLE).max())
    elapsed = time.perf_counter() - t0
    passed = err < 1e-12 and elapsed < 1.0
    _report("1 damping table (49 entries, 1e-12)", passed,
            f"max err {err:.2e}", elapsed)
    assert err < 1e-12
    assert elapsed < 1.0


def test_criterion_2_quantization_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for h in (classical.market_model(), classical.gaussian4_model()):
        q = models.quantize_classical(h)
        for t in range(1, 6):
            dc = classical.distribution(h, t)
            dq = models.distribution(q, t)
            worst = max(worst, max(abs(dc.prob(s) - dq.prob(s))
                                   for s in dc.probs))
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-10 and elapsed < 10.0
    _report("2 quantization equivalence (len<=5, 1e-10)", passed,
            f"max diff {worst:.2e}", elapsed)
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_3_stinespring_round_trip():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(50_000 + trial)
        n_kraus = int(rng.integers(1, 5))
        chan = random_channel(2, n_kraus, rng, n_symbols=1)
        dim_e = max(n_kraus, 1)
        u = stinespring_dilate(chan, dim_e=dim_e)
        ks = kraus_from_unitary(u, 2, dim_e, 0)
        rebuilt = KrausChannel(dim=2, groups={"0": ks})
        worst = max(worst, float(np.abs(choi(rebuilt) - choi(chan)).max()))
    elapsed = time.perf_counter() - t0
    passed = worst < 1e-8 and elapsed < 30.0
    _report("3 Stinespring round trip (100 channels, 1e-8)", passed,
            f"max Choi diff {worst:.2e}", elapsed)
    assert worst < 1e-8
    assert elapsed < 30.0


def test_criterion_4_monras_advantage_and_rank_bound():
    t0 = time.perf_counter()
    monras = models.monras_qhmm()
    singles = [models.sequence_probability(monras, (a,)) for a in range(4)]
    uniform_err = max(abs(p - 0.25) for p in singles)
    h = hankel(lambda s: models.sequence_probability(monras, s), 3, 3, 4)
    monras_rank = numerical_rank(h.values.astype(complex))
    bound_ok = True
    max_rank = 0
    for trial in range(50):
        rng = np.random.default_rng(60_000 + trial)
        chan = random_channel(2, int(rng.integers(2, 5)), rng, n_symbols=2)
        q = models.QhmmKraus(alphabet=["0", "1"], channel=chan,
                             rho0=random_density(2, rng))
        hr = hankel(lambda s: models.sequence_probability(q, s), 2, 2, 2)
        r = numerical_rank(hr.values.astype(complex))
        max_rank = max(max_rank, r)
        bound_ok = bound_ok and r <= 4
    elapsed = time.perf_counter() - t0
    passed = uniform_err < 1e-12 and monras_rank == 3 and bound_ok
    _report("4 quantum advantage (uniform 1/4, rank 3, bound N^2)", passed,
            f"uniform err {uniform_err:.1e}, rank {monras_rank}, "
            f"max random rank {max_rank}", elapsed)
    assert uniform_err < 1e-12
    assert monras_rank == 3
    assert bound_ok


def test_criterion_4_quantized_gaussian4_hankel_rank(tmp_path):
    # `qhmm hankel --model` at prefix and suffix length 4 (341 x 341 cells)
    # on the quantized four-state gaussian4 model: rank <= N^2, and equal
    # to the classical order 4
    t0 = time.perf_counter()
    q = models.quantize_classical(classical.gaussian4_model())
    path = tmp_path / "gaussian4_quantized.json"
    path.write_text(json.dumps(models.qhmm_to_json(q)))
    out = tmp_path / "out"
    assert main(["hankel", "--model", str(path), "--max-len", "4",
                 "--out", str(out)]) == 0
    report = json.loads((out / "rank.json").read_text())
    elapsed = time.perf_counter() - t0
    passed = report["rank"] <= q.dim**2 and report["rank"] == 4
    _report("4 Hankel rank bound N^2 (quantized gaussian4, 4/4)", passed,
            f"rank {report['rank']}, N^2 {q.dim**2}, "
            f"{report['prefixes']} x {report['suffixes']}", elapsed)
    assert report["prefixes"] == report["suffixes"] == 341
    assert report["rank"] <= q.dim**2
    assert report["rank"] == 4


def test_criterion_5_sampling_consistency():
    t0 = time.perf_counter()
    model = models.amplitude_damping_model(math.pi / 2)
    shots = 100_000
    samples = models.simulate(model, 2, shots, seed=2024)
    emp = models.empirical_table(samples, 2)
    exact = models.distribution(models.to_kraus(model), 2)
    worst = max(abs(emp.prob(s) - exact.prob(s))
                for s in sequences_of_length(2, 2))
    # goodness of fit over the supported cells at alpha = 0.001
    chi2, dof = 0.0, 0
    for s in sequences_of_length(2, 2):
        p = exact.prob(s)
        if p < 1e-12:
            assert emp.prob(s) == 0.0
            continue
        chi2 += (emp.prob(s) * shots - p * shots) ** 2 / (p * shots)
        dof += 1
    chi2_ok = chi2 < {1: 10.83, 2: 13.82, 3: 16.27, 4: 18.47}[dof - 1]
    elapsed = time.perf_counter() - t0
    passed = worst < 0.01 and chi2_ok and elapsed < 30.0
    _report("5 sampling consistency (1e5 shots, <0.01)", passed,
            f"max dev {worst:.4f}, chi2 {chi2:.2f}", elapsed)
    assert worst < 0.01
    assert chi2_ok
    assert elapsed < 30.0


def test_criterion_6_ansatz_learning():
    t0 = time.perf_counter()
    monras_rep = experiments.reproduce("monras_ansatz", restarts=10)
    t_monras = time.perf_counter() - t0
    _report("6a ansatz: four-symbol target (<=1e-3)", monras_rep.passed,
            f"cost {monras_rep.achieved:.2e} vs ref 3.9e-5", t_monras)
    t1 = time.perf_counter()
    market_rep = experiments.reproduce("market_ansatz", restarts=10)
    t_market = time.perf_counter() - t1
    _report("6b ansatz: market target (<=1e-2)", market_rep.passed,
            f"cost {market_rep.achieved:.2e} vs ref 3.0e-4", t_market)
    assert monras_rep.passed and t_monras < 300.0
    assert market_rep.passed and t_market < 300.0


def _planted_target(seed: int, space: LearnSpace):
    rng = np.random.default_rng(seed)
    dists = uniform_gate_dists(space.gate_set, 2)
    n = int(rng.integers(1, 3))
    gates = tuple(random_gate(dists, rng) for _ in range(n))
    hyp = Hypothesis(circuit=Circuit(2, gates), dim_s=2, dim_e=2,
                     symbol_map=("0", "1"))
    tables = models.distribution_tables(hyp.model(hyp.circuit.parameters()),
                                        [1, 2, 3, 4])
    return list(tables.values())


def test_criterion_7_evolutionary_learning():
    # 7a: planted one/two-gate targets, mu=20, gMax=100, >=6/10 seeds
    t0 = time.perf_counter()
    space = LearnSpace(alphabet=["0", "1"], dim_s=2, dim_e=2,
                       min_gates=1, max_gates=5, opt_budget=60)
    hp = HyperParams(mu=20, lam=8, g_max=100, target_fitness=-5e-4,
                     c_q=0.0, c_e=0.0, prog_window=10, n_max=4)
    wins = 0
    for seed in range(10):
        target = _planted_target(7_000 + seed, space)
        rep = evolve(target, space, hp, seed=seed)
        if -rep.best.fitness < 1e-3:
            wins += 1
    t_recovery = time.perf_counter() - t0
    _report("7a planted recovery (>=6/10 seeds)", wins >= 6,
            f"{wins}/10 recovered", t_recovery)

    # 7b: relaxed market budget, mu=100, gMax=400, >=1/3 seeds
    t1 = time.perf_counter()
    h = classical.market_model()
    target = [classical.distribution(h, t) for t in range(1, 6)]
    mspace = experiments.market_space()
    best_div = math.inf
    for seed in (0, 1, 2):
        mhp = HyperParams(mu=100, lam=15, g_max=400, target_fitness=-0.01,
                          c_q=0.0, c_e=0.0, prog_window=25, n_max=5)
        rep = evolve(target, mspace, mhp, seed=seed)
        best_div = min(best_div, -rep.best.fitness)
        if best_div <= 0.01 or time.perf_counter() - t1 > 3000:
            break
    t_market = time.perf_counter() - t1
    _report("7b market learning (div<=0.01)", best_div <= 0.01,
            f"best divergence {best_div:.4f}", t_market)
    assert wins >= 6
    assert t_recovery < 600.0
    assert best_div <= 0.01
    assert t_market < 3600.0


def test_criterion_8_landscape_smoothness():
    t0 = time.perf_counter()
    hyp = experiments.trained_market_hypothesis(seed=0)
    rng = np.random.default_rng(88)
    samples = experiments.landscape_walk(hyp, 2000, 0.1, rng)
    violations = experiments.smoothness_violations(samples, n=5)
    corr = experiments.landscape_correlation({0.1: samples})[0.1]
    elapsed = time.perf_counter() - t0
    passed = violations == 0 and corr > 0.3 and elapsed < 600.0
    _report("8 landscape smoothness (bound + r>0.3)", passed,
            f"violations {violations}, r {corr:.3f}", elapsed)
    assert violations == 0
    assert corr > 0.3
    assert elapsed < 600.0


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)

    # CPTP validation and density preservation over 1000 random pairs
    for _ in range(1000):
        chan = random_channel(int(rng.integers(2, 5)), int(rng.integers(1, 5)), rng)
        assert validate_cptp(chan).complete
        rho = random_density(chan.dim, rng)
        assert is_density(apply(chan, rho))

    # steady-state residuals
    for _ in range(50):
        chan = random_channel(int(rng.integers(2, 5)), int(rng.integers(1, 5)), rng)
        fixed = steady_state(chan)
        assert spectral_norm(apply(chan, fixed) - fixed) <= 1e-8

    # 1000 random gate lists up to 12 gates on up to 4 qubits all compile
    # to unitaries
    from qhmm.circuits import compile_circuit
    from qhmm.linalg import is_unitary

    all_gates = ("X", "Y", "Z", "H", "P", "RX", "RY", "RZ", "CX", "CRY", "CRZ")
    for _ in range(1000):
        nq = int(rng.integers(2, 5))
        dists = uniform_gate_dists(all_gates, nq)
        c = Circuit(nq, tuple(random_gate(dists, rng)
                              for _ in range(int(rng.integers(0, 13)))))
        assert is_unitary(compile_circuit(c))

    # density bases span with full rank
    for n in (2, 3, 4):
        ops = density_basis(n)
        assert all(is_density(op) for op in ops)
        assert operators_rank(ops) == n * n

    # closed-form control laws
    assert temperature(0) == 1.0
    assert abs(temperature(1) - 2**-0.25) < 1e-12
    assert abs(temperature(100) - (1000.0 + 1.0) ** -0.25) < 1e-12
    assert acceptance_probability(-0.5, -0.5, 1.0) == 1.0
    assert abs(acceptance_probability(-0.2, -0.3, 1.0) - math.exp(-0.3)) < 1e-12
    assert acceptance_probability(-0.2, -0.3, 1e-9) < 1e-12
    d = AdaptiveDistribution(domain=["a", "b"], rewards=np.array([3.0, 1.0]))
    assert np.allclose(bandit_update(d, 0.0).probs, [0.75, 0.25])
    d = AdaptiveDistribution(domain=["a", "b"], rewards=np.array([5.0, 0.0]))
    assert np.allclose(bandit_update(d, 1.0).probs, [0.5, 0.5])

    elapsed = time.perf_counter() - t0
    passed = elapsed < 60.0
    _report("9 property suites", passed, "all invariants green", elapsed)
    assert elapsed < 60.0
