#!/usr/bin/env python3
"""Time what one objective point, one block and one Nelder-Mead step cost
in two source trees, alternated in one process.

    python3 scripts/point_cost.py PARENT CHANGE [--rounds N] [--batch-s S]

PARENT and CHANGE are checkouts of qhmm (each with its own ``src/``); the
same tree may be given twice. Both trees' ``qhmm`` are imported into this
process, each under its own copy of the package's modules, so the two share
one interpreter, one numpy and one BLAS thread, and their timings alternate
batch by batch: round i times every case in PARENT, then CHANGE, and round
i + 1 the other way round. Each batch repeats a case for about ``--batch-s``
seconds. Per case and tree, the table gives the min, first quartile and
median over the rounds of the microseconds per unit, and the median over
the rounds of the ratio of each batch to the parent's batch of the same
round (``ratio``, 1 for the parent):

- ``monras_point``: one Monras ansatz cost evaluation,
  ``efficient_su2(3, 3, full, RZ_RX)`` on lengths 1-2, per point;
- ``market_evolve_point``: one -fitness evaluation of the market
  ``real_amplitudes(2, 1, linear)`` hypothesis on lengths 1-5, per point;
- ``monras_block36``: one 36-row Monras block, per block;
- ``monras_nm_fit``: one ``train_ansatz`` nm fit (budget 2000), per
  evaluation;
- ``nm_free``: ``optimize.nelder_mead`` on a near-free weighted quadratic
  of 18 parameters (budget 4000), per evaluation: the optimizer's own cost;
- ``gatestack_monras`` and ``gatestack_market``: one ``GateStack`` build of
  each template, per build;
- ``load_gaussian4_kraus`` and ``load_gaussian4_dilated``: one
  ``cli.load_model`` of the quantized gaussian4 Kraus file and of its
  64-emission dilation (a 256 x 256 unitary), per load. PARENT's code writes
  both files to a temporary directory, which both trees then read;
- ``apply_symbol_g4``: one ``channels.apply_symbol`` of symbol ``0`` on the
  quantized gaussian4 model from its rho0, per call;
- ``classical_sample_g4``: one ``classical.sample`` of 4000 gaussian4
  sequences of length 5, per shot-step;
- ``tables_quantized``: one ``models.distribution_tables`` of the quantized
  market model for lengths 1-12, per call;
- ``tables_g4``: one ``models.distribution_tables`` of the quantized
  gaussian4 model for lengths 1-6, per call;
- ``steady_state_g4``: one ``channels.steady_state_info`` of the quantized
  gaussian4 channel, per call;
- ``hankel_oracle_g4``: one ``lang.hankel`` over
  ``models.sequence_probability`` of the quantized gaussian4 model with
  prefixes and suffixes up to length 3, per call: the oracle Hankel matrix
  of the benchmark's language workload.

Every case's values (the objective's values, the fit's result, the built
arrays, the loaded model's arrays) must be equal bit for bit in the two
trees; the script prints each case that differs, with its largest absolute
and relative difference over every entry, and exits 1 if any does, 0
otherwise. Set one BLAS thread (``OPENBLAS_NUM_THREADS=1`` and the like)
when timing; the script sets it for itself when unset.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from time import perf_counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread count is set)

MODULES = ("circuits", "classical", "cli", "experiments", "learning", "models",
           "optimize")


def load(tree: Path) -> dict:
    """Import ``tree/src/qhmm`` and return its modules by name, leaving
    ``sys.modules`` without any ``qhmm`` module."""
    def unload():
        return {name: sys.modules.pop(name) for name in list(sys.modules)
                if name == "qhmm" or name.startswith("qhmm.")}

    unload()
    sys.path.insert(0, str(tree / "src"))
    try:
        importlib.invalidate_caches()
        for name in MODULES:
            importlib.import_module(f"qhmm.{name}")
    finally:
        sys.path.pop(0)
    return unload()


def installed(mods: dict) -> None:
    """Make ``mods`` the ``qhmm`` that late imports inside it resolve to."""
    for name in [n for n in sys.modules if n == "qhmm" or n.startswith("qhmm.")]:
        del sys.modules[name]
    sys.modules.update(mods)


def write_model_files(mods: dict, folder: Path) -> dict:
    """Write the quantized gaussian4 Kraus file and its 64-emission dilation
    into ``folder`` with one tree's modules; returns their paths by name."""
    classical, models = mods["qhmm.classical"], mods["qhmm.models"]
    kraus = models.quantize_classical(classical.gaussian4_model())
    paths = {}
    for name, model in (("kraus", kraus), ("dilated", models.from_kraus(kraus, 64))):
        paths[name] = str(folder / f"gaussian4_{name}.json")
        Path(paths[name]).write_text(json.dumps(models.qhmm_to_json(model)))
    return paths


def cases(mods: dict, files: dict) -> dict:
    """Case name -> (call, units per call, value of one call), built from
    one tree's modules; ``files`` are the model files of the load cases."""
    circuits, classical, cli, experiments, learning, models, optimize = (
        mods[f"qhmm.{name}"] for name in MODULES)
    rng = np.random.default_rng(0)
    monras = learning.AnsatzSpec(
        circuits.efficient_su2(3, 3, "full", "RZ_RX"), 2, 4, ("0", "1", "2", "3"))
    monras_target = experiments.monras_target(max_len=2)
    cost = learning.ansatz_objective(monras, monras_target, 8000)
    x = rng.uniform(0.0, 2 * math.pi, size=cost.arity)
    block = rng.uniform(0.0, 2 * math.pi, size=(36, cost.arity))
    market_circuit = circuits.real_amplitudes(2, 1, "linear")
    market = classical.market_model()
    fitness = learning.FitnessEngine(
        learning.Hypothesis(market_circuit, 2, 2, ("0", "1")),
        [classical.distribution(market, t) for t in range(1, 6)], 0.0, 0.0,
    ).objective()
    xm = rng.uniform(0.0, 2 * math.pi, size=fitness.arity)
    x0 = rng.uniform(0.0, 2 * math.pi, size=cost.arity)
    weights, center = rng.uniform(0.5, 2.0, size=18), rng.normal(size=18)

    def free(z):
        return np.add.reduce(weights * (z - center) ** 2, axis=-1)

    def nm_fit():
        return learning.train_ansatz(monras, monras_target, "nm", x0, 2000)

    def nm_free():
        return optimize.nelder_mead(optimize.ObjectiveSpec(18, free, 4000), x0)

    def built(circuit):  # the build's arrays and its unitary at x
        stack = circuits.GateStack(circuit)
        return [stack.stack, stack.tables, stack.phases, *stack.multipliers,
                stack(x[:stack.n_params])]

    def loaded(path):  # the loaded model's arrays
        q = cli.load_model(path)
        return [q.u, q.rho0] if hasattr(q, "u") else [*q.channel.groups.values(), q.rho0]

    channels = mods["qhmm.channels"]
    gauss = classical.gaussian4_model()
    g4 = models.quantize_classical(gauss)

    def symbol0():
        return channels.apply_symbol(g4.channel, g4.rho0, "0")

    def sample():
        return classical.sample(gauss, 5, 4000, 0)

    market_q = models.quantize_classical(market)

    def tables():
        return models.distribution_tables(market_q, range(1, 13))

    def tables_g4():
        return models.distribution_tables(g4, range(1, 7))

    def steady():
        return channels.steady_state_info(g4.channel)

    def hankel_oracle():
        return mods["qhmm.lang"].hankel(
            lambda s: models.sequence_probability(g4, s), 3, 3, len(g4.alphabet))

    def probs(tabs):  # every table's probabilities, in lex order
        return [list(tab.probs.values()) for tab in tabs.values()]

    def fixed(info):
        return [info.rho, info.residual, info.multiplicity]

    fit, free_fit = nm_fit(), nm_free()
    return {
        "monras_point": (lambda: cost.evaluate(x), 1, cost.evaluate(x)),
        "market_evolve_point": (lambda: fitness.evaluate(xm), 1,
                                fitness.evaluate(xm)),
        "monras_block36": (lambda: cost.evaluate(block), 1, cost.evaluate(block)),
        "monras_nm_fit": (nm_fit, fit.evaluations,
                          [fit.params, fit.cost, fit.evaluations]),
        "nm_free": (nm_free, free_fit.evaluations,
                    [free_fit.best_params, free_fit.best_value,
                     free_fit.evaluations]),
        "gatestack_monras": (lambda: circuits.GateStack(monras.circuit), 1,
                             built(monras.circuit)),
        "gatestack_market": (lambda: circuits.GateStack(market_circuit), 1,
                             built(market_circuit)),
        "load_gaussian4_kraus": (lambda: cli.load_model(files["kraus"]), 1,
                                 loaded(files["kraus"])),
        "load_gaussian4_dilated": (lambda: cli.load_model(files["dilated"]), 1,
                                   loaded(files["dilated"])),
        "apply_symbol_g4": (symbol0, 1, symbol0()),
        "classical_sample_g4": (sample, 4000 * 5, sample()),
        "tables_quantized": (tables, 1, probs(tables())),
        "tables_g4": (tables_g4, 1, probs(tables_g4())),
        "steady_state_g4": (steady, 1, fixed(steady())),
        "hankel_oracle_g4": (hankel_oracle, 1, hankel_oracle().values),
    }


def same(a, b) -> bool:
    """Equal bit for bit: the same bytes, shapes and dtypes throughout."""
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(p, q) for p, q in zip(a, b))
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def gaps(a, b) -> tuple[float, float]:
    """The largest absolute and relative difference over every entry of two
    values of one case; both inf when their shapes differ."""
    if isinstance(a, (list, tuple)):
        if len(a) != len(b):
            return math.inf, math.inf
        pairs = [gaps(p, q) for p, q in zip(a, b)] or [(0.0, 0.0)]
        return tuple(max(col) for col in zip(*pairs))
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return math.inf, math.inf
    diff, scale = np.abs(a - b), np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(diff, scale, out=np.zeros(diff.shape), where=scale > 0)
    return float(diff.max(initial=0.0)), float(rel.max(initial=0.0))


def timed_batch(call, count: int) -> float:
    start = perf_counter()
    for _ in range(count):
        call()
    return perf_counter() - start


def run(args, folder: Path) -> int:
    """Time every case in both trees, with the load cases' files written
    to ``folder``; print the table and return the exit code."""
    trees = {}
    for side in ("parent", "change"):
        mods = load(getattr(args, side).resolve())
        installed(mods)
        if side == "parent":
            files = write_model_files(mods, folder)
        trees[side] = (mods, cases(mods, files))
    names = list(trees["parent"][1])
    differ = [name for name in names
              if not same(trees["parent"][1][name][2], trees["change"][1][name][2])]
    # calls per batch, from one call of each case in the parent
    counts = {}
    for name in names:
        call = trees["parent"][1][name][0]
        installed(trees["parent"][0])
        once = timed_batch(call, 1)
        counts[name] = max(1, int(args.batch_s / max(once, 1e-7)))
    times = {side: {name: [] for name in names} for side in trees}
    for i in range(args.rounds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in names:
            for side in order:
                mods, built = trees[side]
                installed(mods)
                call, units, _ = built[name]
                elapsed = timed_batch(call, counts[name])
                times[side][name].append(1e6 * elapsed / (counts[name] * units))
    print(f"{'case':<24}{'side':<8}{'min_us':>10}{'q1_us':>10}{'median_us':>11}"
          f"{'ratio':>9}")
    for name in names:
        base = np.array(times["parent"][name])
        for side in trees:
            us = np.array(times[side][name])
            q = np.percentile(us, [0, 25, 50])
            ratio = float(np.median(us / base))
            print(f"{name:<24}{side:<8}{q[0]:>10.2f}{q[1]:>10.2f}{q[2]:>11.2f}"
                  f"{ratio:>9.3f}")
    for name in differ:
        gap, rel = gaps(trees["parent"][1][name][2], trees["change"][1][name][2])
        print(f"values differ: {name} (max abs {gap:.3g}, max rel {rel:.3g})")
    print(f"{len(names) - len(differ)} of {len(names)} cases equal bit for bit")
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--rounds", type=int, default=20,
                    help="batches per case and tree (default 20)")
    ap.add_argument("--batch-s", type=float, default=0.2,
                    help="seconds per batch (default 0.2)")
    args = ap.parse_args(argv)
    if args.rounds < 1 or not args.batch_s > 0:
        ap.error("--rounds must be >= 1 and --batch-s > 0")
    with tempfile.TemporaryDirectory() as folder:
        return run(args, Path(folder))


if __name__ == "__main__":
    sys.exit(main())
