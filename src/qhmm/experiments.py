"""Scripted studies: reference-table checks, ansatz and evolutionary
benchmark reproductions, and the landscape smoothness/correlation study.

Each experiment returns a report with target-vs-achieved numbers and a
pass flag at the documented threshold; CSV/JSON emission is handled by
the CLI layer."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from . import classical, models
from .circuits import Circuit, GateSpec, efficient_su2, real_amplitudes
from .lang import forward_probs, hankel_blocks, table_items
from .learning import (
    AnsatzSpec,
    HyperParams,
    Hypothesis,
    LearnSpace,
    evolve,
    train_ansatz_restarts,
)
from .linalg import spectral_norm

# Exact sequence probabilities of the half-damping generator (gamma = 1/2)
# over prefixes/suffixes up to length 2: once a 0 is emitted the process
# stays at 0; from a 1 the next symbol is a fair coin; the first step sees
# the |+> system, giving P(0) = 3/4.
DAMPING_REFERENCE_SEQUENCES = ["", "0", "1", "00", "01", "10", "11"]
DAMPING_REFERENCE_TABLE = np.array(
    [
        [1.0, 0.75, 0.25, 0.75, 0.0, 0.125, 0.125],
        [0.75, 0.75, 0.0, 0.75, 0.0, 0.0, 0.0],
        [0.25, 0.125, 0.125, 0.125, 0.0, 0.0625, 0.0625],
        [0.75, 0.75, 0.0, 0.75, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.125, 0.125, 0.0, 0.125, 0.0, 0.0, 0.0],
        [0.125, 0.0625, 0.0625, 0.0625, 0.0, 0.03125, 0.03125],
    ]
)


# --- landscape study ----------------------------------------------------------

@dataclass
class LandscapeSample:
    op_distance: float
    divergences: dict[int, float]  # per-length max divergence, n = 2..5
    total: float  # average divergence over lengths 1..5

    def __post_init__(self):
        if self.op_distance < -1e-12 or self.op_distance > 2.0 + 1e-9:
            raise ValueError("operator distance must lie in [0, 2]")


# the walk compares lengths 1..5 and restarts at the optimum every 25 steps;
# a correlation needs at least 30 samples per rate
WALK_LENGTHS = (1, 2, 3, 4, 5)
WALK_RESTART_EVERY = 25
MIN_WALK_SAMPLES = 30


def landscape_walk(
    hyp: Hypothesis,
    steps: int,
    mutation_std_fraction: float,
    rng: np.random.Generator,
) -> list[LandscapeSample]:
    """Random walk from an optimized hypothesis: each step perturbs one
    uniformly chosen parameter with Gaussian noise relative to the angle
    wrapped into [-pi, pi) (absolute scale 2*pi times the fraction when that
    is ~0) and records the spectral distance to the start unitary plus the
    divergences against the start distributions.

    A single unbounded walk saturates at operator distance ~2 where the
    divergence decorrelates; restarting at the optimum every
    ``WALK_RESTART_EVERY`` steps keeps the sample inside the conditioning
    region (distance <~ 1).
    """
    if hyp.circuit.num_parameters < 1:
        raise ValueError("landscape walk needs a parametric hypothesis")
    engine = hyp.engine()
    x_opt = np.array([float(p) for p in hyp.circuit.parameters()])
    u_opt = engine.unitary(x_opt)
    ref = engine.level_probs(x_opt, WALK_LENGTHS)

    samples: list[LandscapeSample] = []
    x = x_opt.copy()
    for step in range(steps):
        if step and step % WALK_RESTART_EVERY == 0:
            x = x_opt.copy()
        i = int(rng.integers(len(x)))
        # scale by the angle wrapped into [-pi, pi), so that 2*pi-shifted or
        # mirrored copies of one optimum take the same steps
        wrapped = (x[i] + math.pi) % (2.0 * math.pi) - math.pi
        sigma = mutation_std_fraction * abs(wrapped)
        if sigma < 1e-12:
            sigma = mutation_std_fraction * 2.0 * math.pi
        x[i] += rng.normal(0.0, sigma)
        u = engine.unitary(x)
        probs = engine.level_probs(x, WALK_LENGTHS)
        divs = {
            t: float(np.abs(p - r).max())
            for t, p, r in zip(WALK_LENGTHS, probs, ref)
        }
        total = sum(divs.values()) / len(WALK_LENGTHS)
        samples.append(
            LandscapeSample(
                op_distance=spectral_norm(u_opt - u),
                divergences={t: divs[t] for t in WALK_LENGTHS if t >= 2},
                total=total,
            )
        )
    return samples


def pearson(x, y) -> float:
    """Sample Pearson correlation; NaN flags degenerate variance."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        return float("nan")
    sx, sy = x.std(ddof=1), y.std(ddof=1)
    if sx == 0.0 or sy == 0.0:
        return float("nan")
    cov = ((x - x.mean()) * (y - y.mean())).sum() / (x.size - 1)
    return float(cov / (sx * sy))


def landscape_correlation(
    samples_by_rate: dict[float, list[LandscapeSample]]
) -> dict[float, float]:
    """Pearson r between total divergence and operator distance, per rate."""
    out = {}
    for rate, samples in samples_by_rate.items():
        if len(samples) < MIN_WALK_SAMPLES:
            raise ValueError(
                f"need at least {MIN_WALK_SAMPLES} samples per mutation rate")
        out[rate] = pearson(
            [s.total for s in samples], [s.op_distance for s in samples]
        )
    return out


def smoothness_violations(samples: list[LandscapeSample], n: int = 5) -> int:
    """Count samples violating avg divergence / (2n) <= operator distance."""
    return sum(
        1 for s in samples if s.total / (2 * n) > s.op_distance + 1e-9
    )


# --- reproduction reports -------------------------------------------------------

@dataclass
class ReproduceReport:
    name: str
    passed: bool
    achieved: float
    threshold: float
    details: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)


def _damping_report(seed: Optional[int] = None) -> ReproduceReport:
    # exact: the seed is accepted like every reproduction's, and unused
    q = models.amplitude_damping_qhmm(math.pi / 2)
    h = hankel_blocks(partial(forward_probs, *models.forward_operators(q)),
                      2, 2, 2)
    err = float(np.abs(h.values - DAMPING_REFERENCE_TABLE).max())
    rows = [
        {
            "prefix": DAMPING_REFERENCE_SEQUENCES[i],
            "suffix": DAMPING_REFERENCE_SEQUENCES[j],
            "expected": float(DAMPING_REFERENCE_TABLE[i, j]),
            "computed": float(h.values[i, j]),
        }
        for i in range(7)
        for j in range(7)
    ]
    return ReproduceReport(
        name="table2",
        passed=err < 1e-12,
        achieved=err,
        threshold=1e-12,
        details={"entries": 49},
        rows=rows,
    )


def monras_target(max_len: int = 2) -> list[tuple[tuple[int, ...], float]]:
    q = models.monras_qhmm()
    return table_items(models.distribution_tables(q, range(1, max_len + 1)))


def market_target_items(max_len: int = 5) -> list[tuple[tuple[int, ...], float]]:
    h = classical.market_model()
    return table_items(classical.distribution_tables(h, range(1, max_len + 1)))


# the market template, fitted in market_ansatz and for the walk origin, in
# Qiskit's RealAmplitudes layout: an RY layer, then real_amplitudes' CX and
# RY layer
MARKET_ANSATZ = AnsatzSpec(
    circuit=Circuit(2, tuple(GateSpec("RY", (q,), (None,)) for q in range(2))
                    + real_amplitudes(2, reps=1, entanglement="linear").gates),
    dim_s=2, dim_e=2, symbol_map=("0", "1"),
)
MARKET_ANSATZ_BUDGET = 3000


def _ansatz_report(
    name: str, spec: AnsatzSpec, target, threshold: float, budget: int,
    reference_cost: float, /, seed: int = 0, restarts: int = 10,
) -> ReproduceReport:
    """Best of seeded nm restarts of a fixed template on ``target()``.
    The fixed data is positional-only, so a call can set only the seed and
    the restart count."""
    res = train_ansatz_restarts(
        spec, target(), "nm", restarts=restarts, budget=budget, seed=seed
    )
    return ReproduceReport(
        name=name,
        passed=res.cost <= threshold,
        achieved=res.cost,
        threshold=threshold,
        details={
            "restarts": restarts,
            "parameters": spec.circuit.num_parameters,
            "reference_cost": reference_cost,
        },
    )


def market_space() -> LearnSpace:
    return LearnSpace(
        alphabet=["0", "1"],
        dim_s=2,
        dim_e=2,
        gate_set=("X", "Y", "RX", "RY", "CX", "CRY"),
        min_gates=3,
        max_gates=14,
        opt_budget=80,
    )


def _evo_report(
    name: str, model, space: LearnSpace, hp: HyperParams, threshold: float,
    seeds: tuple[int, ...], /, seed: Optional[int] = None,
) -> ReproduceReport:
    """Evolve against the exact tables of ``model()`` up to length
    ``hp.n_max`` from each seed in turn (``seed`` alone when given) until a
    run reaches the threshold. The fixed data is positional-only, so a call
    can set only the seed."""
    h = model()
    tabs = classical.distribution_tables(h, range(1, hp.n_max + 1))
    target = list(tabs.values())
    best_div = math.inf
    runs = []
    for s in seeds if seed is None else (seed,):
        rep = evolve(target, space, hp, seed=s)
        div = -rep.best.fitness
        runs.append({"seed": s, "divergence": div,
                     "generations": len(rep.generations)})
        best_div = min(best_div, div)
        if div <= threshold:
            break
    return ReproduceReport(
        name=name,
        passed=best_div <= threshold,
        achieved=best_div,
        threshold=threshold,
        details={"runs": runs},
    )


# Each name binds a runner to its fixed data by position; only the seed
# and, for the ansatz fits, the restart count vary per call. The ansatz data
# is (template, target, threshold, budget, reference cost), the evolution
# data (model, space, hyperparameters, threshold, seeds).
REPRODUCTIONS = {
    "table2": _damping_report,
    "monras_ansatz": partial(
        _ansatz_report, "monras_ansatz",
        AnsatzSpec(
            circuit=efficient_su2(3, reps=3, entanglement="full",
                                  rotation_pair="RZ_RX"),
            dim_s=2, dim_e=4, symbol_map=("0", "1", "2", "3"),
        ),
        monras_target, 1e-3, 8000, 3.9e-5,
    ),
    "market_ansatz": partial(
        _ansatz_report, "market_ansatz", MARKET_ANSATZ, market_target_items,
        1e-2, MARKET_ANSATZ_BUDGET, 3.0e-4,
    ),
    "market_evo": partial(
        _evo_report, "market_evo", classical.market_model, market_space(),
        HyperParams(mu=100, lam=25, g_max=400, target_fitness=-0.01,
                    c_q=0.0, c_e=0.0, prog_window=25, n_max=5),
        0.01, (0, 1, 2),
    ),
    # desk-scale run of the four-symbol mixture example; the full-size run
    # used far larger populations, so the bar here is a loose 0.05
    "gaussian_evo": partial(
        _evo_report, "gaussian_evo", classical.gaussian4_model,
        LearnSpace(
            alphabet=["0", "1", "2", "3"], dim_s=2, dim_e=4,
            gate_set=("X", "Y", "RX", "RY", "P", "CX", "CRY"), min_gates=3,
            max_gates=12, opt_budget=60,
        ),
        HyperParams(mu=40, lam=12, g_max=40, target_fitness=-0.005,
                    c_q=0.0, c_e=0.0, prog_window=15, n_max=4),
        0.05, (0,),
    ),
}


def reproduce(name: str, seed: Optional[int] = None, **kwargs) -> ReproduceReport:
    """Run a named reproduction. A given ``seed`` replaces the default one:
    the ansatz fits take it as their restart seed, the evolution runs as
    their only seed, and the exact table2 check ignores it."""
    if name not in REPRODUCTIONS:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {sorted(REPRODUCTIONS)}"
        )
    if seed is not None:
        kwargs["seed"] = seed
    return REPRODUCTIONS[name](**kwargs)


def trained_market_hypothesis(seed: int = 0) -> Hypothesis:
    """A small optimized market model used as the landscape walk origin."""
    res = train_ansatz_restarts(MARKET_ANSATZ, market_target_items(), "nm",
                                restarts=6, budget=MARKET_ANSATZ_BUDGET,
                                seed=seed)
    return Hypothesis(
        circuit=MARKET_ANSATZ.circuit.with_parameters(res.params),
        dim_s=MARKET_ANSATZ.dim_s,
        dim_e=MARKET_ANSATZ.dim_e,
        symbol_map=MARKET_ANSATZ.symbol_map,
    )
