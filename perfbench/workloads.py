"""The benchmark's workloads: set-up, one round of fixed work, and the checks
on each round's outputs.

A workload is built from ``--seed`` alone. Round ``r`` draws its inputs from
``SeedSequence([seed, r])``, so the same seed gives the same inputs, and
every round of a run does the same kind of work (on ansatz and language
also the same amount). The program receives only the generated inputs:
start points, evolution seeds and sampler seeds.

Why each workload exists, and which layer metrics it should move, is
recorded in ``predictions.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np
from hostspeed import REF_NOMINAL_S, reference_s

from qhmm import classical, cli, experiments, lang, learning, models
from qhmm.circuits import amplitude_damping_circuit, efficient_su2, real_amplitudes
from qhmm.learning import AnsatzSpec, ChannelEngine, HyperParams, LearnSpace

# Tolerances are the acceptance suite's.
TABLE_TOL = 1e-10
MONRAS_COST_MAX = 1e-3
MARKET_COST_MAX = 1e-2
# chi-square critical values at alpha = 0.001 by degrees of freedom
CHI2_CRITICAL = {1: 10.83, 2: 13.82, 3: 16.27, 4: 18.47}

# ansatz: per round, the Monras template is fitted with nm from seeded starts
# until one fit reaches MONRAS_COST_MAX, at most MONRAS_NM_STARTS of them.
# That passes exactly when the acceptance suite's best of ten restarts would
# on the same starts; one start misses about one time in four (9 of 40
# measured), ten all miss about 3 times in 10^7. Then cbla and bfsg fit once
# each from the first start, and the market template gets seeded nm restarts
# (one restart misses 1e-2 about one time in twelve).
MONRAS_NM_BUDGET = 8000
MONRAS_NM_STARTS = 10
MONRAS_OTHER_BUDGETS = {"cbla": 2000, "bfsg": 2000}
MARKET_RESTARTS = 10
MARKET_BUDGET = 3000

# evolve: per round, one short evolution per target; target_fitness above 0
# is out of reach (fitness <= 0), so each runs exactly g_max generations
EVOLVE_SIZES = {
    "market": dict(mu=6, lam=2, g_max=1),
    "gaussian4": dict(mu=4, lam=2, g_max=1),
}
EVOLVE_TARGET_FITNESS = 1.0

# language sizes
# longest tables have 4096 entries, models.TABLE_BUDGET
TABLE_LENGTHS = {"market": range(1, 13), "gaussian4": range(1, 7)}
HANKEL_LENGTHS = {"gaussian4": 3, "market": 5}
SIM_T, SIM_SHOTS = 2, 100_000  # qhmm simulate on the damping model
DILATED_T, DILATED_SHOTS, DILATED_DIM_E = 3, 40, 64
SAMPLE_T, SAMPLE_SHOTS = 5, 4000


@dataclass
class Round:
    """What one round produced: deterministic outputs (compared across
    repetitions and between traced and untraced runs), the wall time, the
    wall time scaled to nominal host speed and the evaluations of each
    stage, and whatever the checks need."""

    evals: Callable[[], int]  # objective evaluations counted so far
    outputs: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)
    scaled: dict = field(default_factory=dict)
    work: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    reference: list = field(default_factory=list)  # reference_s() readings

    def timed(self, stage: str, fn, *args):
        """Call ``fn`` as part of ``stage``, adding its wall time and the
        objective evaluations it made. The host's speed is read right before
        and after the call (the reading after one call serves as the reading
        before the next), and the wall time divided by their mean over
        REF_NOMINAL_S is added to the stage's scaled time."""
        if not self.reference:
            reference_s()  # warm-up: the first reading in a process runs slow
            self.reference.append(reference_s())
        e0, t0 = self.evals(), perf_counter()
        out = fn(*args)
        dt = perf_counter() - t0
        self.work[stage] = self.work.get(stage, 0) + self.evals() - e0
        self.reference.append(reference_s())
        factor = (self.reference[-2] + self.reference[-1]) / (2 * REF_NOMINAL_S)
        self.stages[stage] = self.stages.get(stage, 0.0) + dt
        self.scaled[stage] = self.scaled.get(stage, 0.0) + dt / factor
        return out


class Checks:
    """Named pass/fail results; ``failed`` names the ones that did not hold."""

    def __init__(self):
        self.results: list[tuple[str, bool]] = []

    def add(self, name: str, ok) -> None:
        self.results.append((name, bool(ok)))

    @property
    def failed(self) -> list[str]:
        return [name for name, ok in self.results if not ok]


def _rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, r]))


def _seed_int(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# --- ansatz -------------------------------------------------------------------------

class Ansatz:
    """Fixed-template fitting through ``learning.train_ansatz``: one circuit
    structure, one engine per fit, tens of thousands of evaluations."""

    name = "ansatz"
    # evaluations per round of each stage: one nm start, the cbla and bfsg
    # budgets, and about what ten market restarts take. The nm starts have a
    # stage of their own, so that the number a round needs does not shift
    # the mix of optimizers in a stage.
    nominal = {"monras_nm": MONRAS_NM_BUDGET,
               "monras": sum(MONRAS_OTHER_BUDGETS.values()), "market": 1700}

    def __init__(self, seed: int, scratch: Path, evals: Callable[[], int]):
        self.seed = seed
        self.evals = evals
        self.monras = AnsatzSpec(
            circuit=efficient_su2(3, reps=3, entanglement="full",
                                  rotation_pair="RZ_RX"),
            dim_s=2, dim_e=4, symbol_map=("0", "1", "2", "3"),
        )
        self.monras_target = experiments.monras_target(max_len=2)
        self.market = AnsatzSpec(
            circuit=real_amplitudes(2, reps=1, entanglement="linear"),
            dim_s=2, dim_e=2, symbol_map=("0", "1"),
        )
        self.market_target = experiments.market_target_items(max_len=5)

    def run_round(self, r: int) -> Round:
        rng = _rng(self.seed, r)
        starts = rng.uniform(0.0, 2.0 * math.pi, size=(
            MONRAS_NM_STARTS, self.monras.circuit.num_parameters))
        market_seed = _seed_int(rng)
        out = Round(self.evals)
        fits = {}
        for n_starts, x0 in enumerate(starts, 1):
            res = out.timed("monras_nm", learning.train_ansatz, self.monras,
                            self.monras_target, "nm", x0, MONRAS_NM_BUDGET)
            if "nm" not in fits or res.cost < fits["nm"].cost:
                fits["nm"] = res
            if res.cost <= MONRAS_COST_MAX:
                break
        for label, budget in MONRAS_OTHER_BUDGETS.items():
            fits[label] = out.timed("monras", learning.train_ansatz, self.monras,
                                    self.monras_target, label, starts[0], budget)
        market = out.timed("market", learning.train_ansatz_restarts,
                           self.market, self.market_target, "nm",
                           MARKET_RESTARTS, MARKET_BUDGET, market_seed)
        best = min(fits.values(), key=lambda res: res.cost)
        out.outputs = {f"monras.{k}.cost": v.cost for k, v in fits.items()}
        out.outputs["monras_nm_starts"] = n_starts
        out.outputs["market.cost"] = market.cost
        out.outputs["params"] = _digest([best.params.tolist(),
                                         market.params.tolist()])
        out.detail = {"monras": best, "market": market}
        return out

    def check_round(self, rnd: Round, checks: Checks) -> None:
        best, market = rnd.detail["monras"], rnd.detail["market"]
        checks.add("monras.fit_matches_tables",
                   _fit_matches_tables(self.monras, self.monras_target, best))
        checks.add("monras.cost_under_threshold", best.cost <= MONRAS_COST_MAX)
        checks.add("market.fit_matches_tables",
                   _fit_matches_tables(self.market, self.market_target, market))
        checks.add("market.cost_under_threshold", market.cost <= MARKET_COST_MAX)
        checks.add("evaluations_counted", min(rnd.work.values()) > 0)

    @staticmethod
    def check_run(outputs: list[dict], checks: Checks) -> None:
        pass

    @staticmethod
    def quality(outputs: list[dict]) -> dict:
        return {
            "monras_ansatz_cost": min(v for out in outputs
                                      for k, v in out.items()
                                      if k.startswith("monras.")),
            "market_ansatz_cost": min(out["market.cost"] for out in outputs),
        }


def _fit_matches_tables(spec: AnsatzSpec, target, res) -> bool:
    """The engine's level probabilities and the fit's reported cost equal what
    the object path computes from ``AnsatzSpec.model(params)``."""
    lengths = sorted({len(seq) for seq, _ in target})
    engine = ChannelEngine(spec.circuit, spec.dim_s, spec.dim_e,
                           tuple(spec.symbol_map), spec.initial_density())
    fast = engine.level_probs(res.params, lengths)
    tables = models.distribution_tables(spec.model(res.params), lengths)
    m = engine.n_symbols
    worst = max(
        abs(vec[i] - tables[t].prob(seq))
        for vec, t in zip(fast, lengths)
        for i, seq in enumerate(lang.sequences_of_length(m, t))
    )
    current = [(seq, tables[len(seq)].prob(seq)) for seq, _ in target]
    cost = learning.ansatz_cost(target, current)
    return worst <= TABLE_TOL and abs(cost - res.cost) <= TABLE_TOL


# --- evolve -------------------------------------------------------------------------

class Evolve:
    """``learning.evolve`` on the market and gaussian4 targets: many distinct
    small circuits, each built once and fitted briefly."""

    name = "evolve"
    # evaluations per round of each stage, near their means; the actual
    # counts swing by tens of percent with the seed
    nominal = {"market": 5000, "gaussian4": 3500}

    def __init__(self, seed: int, scratch: Path, evals: Callable[[], int]):
        self.seed = seed
        self.evals = evals
        market = classical.market_model()
        gauss = classical.gaussian4_model()
        self.targets = {
            "market": [classical.distribution(market, t) for t in range(1, 6)],
            "gaussian4": [classical.distribution(gauss, t) for t in range(1, 5)],
        }
        # the gaussian4 space is the one of experiments._gaussian_evo_report
        self.spaces = {
            "market": experiments.market_space(),
            "gaussian4": LearnSpace(
                alphabet=["0", "1", "2", "3"], dim_s=2, dim_e=4,
                gate_set=("X", "Y", "RX", "RY", "P", "CX", "CRY"),
                min_gates=3, max_gates=12, opt_budget=60,
            ),
        }
        self.hyper = {
            name: HyperParams(**size, target_fitness=EVOLVE_TARGET_FITNESS,
                              c_q=0.0, c_e=0.0, n_max=len(self.targets[name]))
            for name, size in EVOLVE_SIZES.items()
        }

    def run_round(self, r: int) -> Round:
        rng = _rng(self.seed, r)
        out = Round(self.evals)
        reports = {}
        for name in EVOLVE_SIZES:
            reports[name] = out.timed(name, learning.evolve, self.targets[name],
                                      self.spaces[name], self.hyper[name],
                                      _seed_int(rng))
        for name, rep in reports.items():
            out.outputs[f"{name}.fitness"] = rep.best.fitness
            out.outputs[f"{name}.genotype"] = _digest(rep.best.circuit)
        out.detail = reports
        return out

    def check_round(self, rnd: Round, checks: Checks) -> None:
        for name, rep in rnd.detail.items():
            hp = self.hyper[name]
            ref = learning.fitness_reference(rep.best, self.targets[name],
                                             hp.c_q, hp.c_e)
            checks.add(f"{name}.fitness_matches_reference",
                       abs(rep.best.fitness - ref) <= TABLE_TOL)
            checks.add(f"{name}.ran_all_generations",
                       len(rep.generations) == hp.g_max)
        checks.add("evaluations_counted", min(rnd.work.values()) > 0)

    @staticmethod
    def check_run(outputs: list[dict], checks: Checks) -> None:
        pass

    @staticmethod
    def quality(outputs: list[dict]) -> dict:
        # c_q = c_e = 0, so the divergence is the negated fitness
        return {
            f"evo_divergence.{name}": min(-out[f"{name}.fitness"]
                                          for out in outputs)
            for name in EVOLVE_SIZES
        }


# --- language -----------------------------------------------------------------------

class Language:
    """Exact tables, Hankel ranks and sampled trajectories: every layer but
    ``learning`` and ``optimize``."""

    name = "language"
    shots = {"cli_simulate": SIM_SHOTS, "dilated_simulate": DILATED_SHOTS,
             "classical_sample": SAMPLE_SHOTS}

    def __init__(self, seed: int, scratch: Path, evals: Callable[[], int]):
        self.seed = seed
        self.evals = evals
        self.scratch = scratch
        self.classical = {"market": classical.market_model(),
                          "gaussian4": classical.gaussian4_model()}
        self.quantized = {name: models.quantize_classical(h)
                          for name, h in self.classical.items()}
        self.dilated = models.from_kraus(self.quantized["gaussian4"],
                                         DILATED_DIM_E)
        # the damping generator in its circuit form, as a CLI model file
        damping = replace(models.amplitude_damping_model(math.pi / 2),
                          u=amplitude_damping_circuit(math.pi / 2).step)
        self.damping_path = scratch / "damping.json"
        self.damping_path.write_text(json.dumps(models.qhmm_to_json(damping)))
        self.damping_exact = models.distribution(models.to_kraus(damping), SIM_T)
        self.cli_seed = _seed_int(np.random.default_rng(seed))
        # evaluations per round of each stage: exact probabilities (every
        # table entry, quantized and classical, and every Hankel cell), and
        # sampled shot-steps
        entries = sum(h.m**t for name, h in self.classical.items()
                      for t in TABLE_LENGTHS[name])
        sides = {name: sum(self.classical[name].m ** k for k in range(n + 1))
                 for name, n in HANKEL_LENGTHS.items()}
        self.nominal = {
            "tables": 2 * entries,
            "hankel": sum(side**2 for side in sides.values())
            + sides["gaussian4"] ** 2,
            "cli_simulate": SIM_T * SIM_SHOTS,
            "dilated_simulate": DILATED_T * DILATED_SHOTS,
            "classical_sample": SAMPLE_T * SAMPLE_SHOTS,
        }

    def run_round(self, r: int) -> Round:
        rng = _rng(self.seed, r)
        out = Round(self.evals)
        tables = out.timed("tables", self._tables)
        hankels = {}
        for name, n in HANKEL_LENGTHS.items():
            hankels[name] = out.timed("hankel", self._hankel, name, n)
        g4 = self.classical["gaussian4"]
        n = HANKEL_LENGTHS["gaussian4"]
        hankels["gaussian4.classical"] = out.timed(
            "hankel", lang.hankel,
            lambda s: classical.sequence_probability(g4, s), n, n, g4.m)

        sim_dir = self.scratch / f"simulate-{r}"
        code = out.timed("cli_simulate", cli.main, [
            "simulate", "--model", str(self.damping_path), "--t", str(SIM_T),
            "--shots", str(SIM_SHOTS), "--seed", str(self.cli_seed),
            "--out", str(sim_dir),
        ])
        files = {f: (sim_dir / f).read_bytes()
                 for f in ("sequences.csv", "empirical.csv")}
        dilated = out.timed("dilated_simulate", models.simulate, self.dilated,
                         DILATED_T, DILATED_SHOTS, _seed_int(rng))
        sampled = out.timed("classical_sample", classical.sample, g4,
                         SAMPLE_T, SAMPLE_SHOTS, _seed_int(rng))

        out.work = dict(self.nominal)
        out.outputs = {
            "ranks": [hankels[k][1].rank for k in HANKEL_LENGTHS],
            "hankel": _digest([hankels[k][0].values.tobytes()
                               for k in HANKEL_LENGTHS]),
            "files": {f: hashlib.sha256(b).hexdigest()[:16]
                      for f, b in files.items()},
            "dilated": _digest(dilated),
            "classical_sample": _digest(sampled),
        }
        out.detail = {"tables": tables, "hankels": hankels, "files": files,
                      "cli_exit": code}
        return out

    def _tables(self) -> dict:
        """Per model, the quantized tables and the classical ones, one call
        per stage so that the host's speed is read around it once."""
        return {
            name: (models.distribution_tables(q, TABLE_LENGTHS[name]),
                   {t: classical.distribution(self.classical[name], t)
                    for t in TABLE_LENGTHS[name]})
            for name, q in self.quantized.items()
        }

    def _hankel(self, name: str, n: int):
        q = self.quantized[name]
        hq = lang.hankel(lambda s: models.sequence_probability(q, s),
                         n, n, len(q.alphabet))
        return hq, lang.order_estimate(hq)

    def check_round(self, rnd: Round, checks: Checks) -> None:
        d = rnd.detail
        for name, (quantized, exact) in d["tables"].items():
            worst = max(abs(quantized[t].prob(s) - p)
                        for t, table in exact.items()
                        for s, p in table.items())
            checks.add(f"tables.{name}.quantized_equals_classical",
                       worst <= TABLE_TOL)
            totals = [quantized[t].total() for t in quantized]
            totals += [table.total() for table in exact.values()]
            checks.add(f"tables.{name}.sum_to_one",
                       max(abs(x - 1.0) for x in totals) <= TABLE_TOL)
        for name in HANKEL_LENGTHS:
            est = d["hankels"][name][1]
            checks.add(f"hankel.{name}.rank_at_most_N2",
                       est.rank <= self.quantized[name].dim ** 2)
        hq = d["hankels"]["gaussian4"][0].values
        hc = d["hankels"]["gaussian4.classical"].values
        checks.add("hankel.gaussian4.quantized_equals_classical",
                   np.abs(hq - hc).max() <= TABLE_TOL)
        checks.add("simulate.exit_code", d["cli_exit"] == 0)
        checks.add("simulate.chi_square", self._chi_square_ok(d["files"]))

    def _chi_square_ok(self, files: dict) -> bool:
        """Criterion 5 on the written empirical table: max deviation under
        0.01, no mass off the support, chi-square under the 0.001 critical
        value."""
        lines = files["empirical.csv"].decode().splitlines()[1:]
        emp = {}
        for line in lines:
            text, _, prob = line.rpartition(",")
            emp[lang.parse_sequence(text, ["0", "1"])] = float(prob)
        chi2, dof, worst = 0.0, 0, 0.0
        for s in lang.sequences_of_length(2, SIM_T):
            p, e = self.damping_exact.prob(s), emp.get(s, 0.0)
            worst = max(worst, abs(p - e))
            if p < 1e-12:
                if e != 0.0:
                    return False
                continue
            chi2 += (e * SIM_SHOTS - p * SIM_SHOTS) ** 2 / (p * SIM_SHOTS)
            dof += 1
        return worst < 0.01 and chi2 < CHI2_CRITICAL[dof - 1]

    @staticmethod
    def check_run(outputs: list[dict], checks: Checks) -> None:
        # every round runs qhmm simulate with the same seed
        for out in outputs[1:]:
            checks.add("simulate.byte_identical",
                       out["files"] == outputs[0]["files"])

    @staticmethod
    def quality(outputs: list[dict]) -> dict:
        return {}


WORKLOADS = {cls.name: cls for cls in (Ansatz, Evolve, Language)}
