"""Command-line entry point: batch operations over model/target files.

All primary outputs are CSV/JSON files under --out; diagnostics go to
stderr. Runs with the same seed and inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, classical, experiments, lang, models
from .circuits import Circuit, efficient_su2, real_amplitudes
from .lang import render_sequence
from .learning import (
    AnsatzSpec,
    HyperParams,
    LearnSpace,
    Hypothesis,
    evolve,
    register_qubits,
    train_ansatz_restarts,
)
from .linalg import check_json, next_power_of_two
from .models import block_symbol_map
from .optimize import OPTIMIZER_LABELS


_WRITE_CHUNK = 65536  # lines of sequences.csv rendered per write


def _fail(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


@contextmanager
def _refused(what: str, errors=ValueError):
    """Refuse an input: an exception of ``errors`` (ValueError by default)
    raised in the block exits 2 with ``error: WHAT: DETAIL``."""
    try:
        yield
    except errors as exc:
        _fail(f"{what}: {exc}")


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _rates(text: str) -> list[float]:
    rates = [_positive_float(r) for r in text.split(",")]
    for i, rate in enumerate(rates):
        if rate in rates[:i]:  # by value: 0.1 and 0.10 are one rate
            raise argparse.ArgumentTypeError(f"rate {rate} is repeated in {text}")
    return rates


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = int(np.random.SeedSequence().entropy % (2**31))
    print(f"seed not given; generated seed={seed}", file=sys.stderr)
    return seed


def load_model(path: str):
    """Dispatch on JSON content: classical HMM, Kraus QHMM or unitary QHMM."""
    with _refused(f"cannot read model file {path}",
                  (OSError, UnicodeDecodeError, json.JSONDecodeError)):
        with open(path) as fh:
            data = json.load(fh)
    with _refused(f"invalid model file {path}"):
        check_json(data, "object")
        if data.get("type") in ("kraus", "unitary"):
            return models.qhmm_from_json(data)
        if {"alphabet", "A", "B", "x0"} <= set(data):
            return classical.hmm_from_json(data)
    _fail(f"unrecognized model format in {path}")


def _model_operators(model):
    if isinstance(model, classical.ClassicalHmm):
        return classical.forward_operators(model)
    if isinstance(model, models.QhmmUnitary):
        if model.reset_mode != "reset":
            _fail("exact tables need a reset-mode model: design b (carry) "
                  "has no stationary Kraus family")
        model = models.to_kraus(model)
    return models.forward_operators(model)


def _load_target(path: str, max_len: int, check_alphabet=lambda alphabet: None,
                 exact: bool = False):
    """A target file is either a sequence,probability CSV or a raw corpus;
    ``check_alphabet`` sees the alphabet as soon as it is read, before a
    corpus is tabulated. With ``exact``, for the learners, which hold every
    sequence of each length, a corpus whose tables up to max_len would pass
    ``lang.TABLE_BUDGET`` is refused before it is tabulated."""
    with _refused(f"cannot read target file {path}",
                  (OSError, UnicodeDecodeError)):
        with open(path) as fh:
            first = fh.readline()
    with _refused(f"invalid target file {path}"):
        if "," in first or first.strip().lower().startswith("sequence"):
            alphabet, tables = lang.read_tables_csv(path)
            check_alphabet(alphabet)
            observed = tables
        else:
            alphabet, observed = lang.read_corpus(path)
            check_alphabet(alphabet)
            if exact:
                lang.check_table_budget(len(alphabet), max_len)
            tables = lang.tables_from_corpus(observed, max_len)
    if not observed:  # a corpus at max_len 0 has sequences but no tables
        _fail(f"target file {path} yields no distribution tables")
    return alphabet, tables


def _require_lengths(path: str, tables, top: int) -> None:
    missing = [t for t in range(1, top + 1) if t not in tables]
    if missing:
        _fail(f"invalid target file {path}: tables missing for lengths {missing}")


def _check_table_budget(path: str, alphabet, top: int) -> None:
    with _refused(f"invalid target file {path}"):
        lang.check_table_budget(len(alphabet), top)


def _check_hankel_sides(alphabet, max_len: int) -> None:
    with _refused(f"--max-len {max_len}"):
        lang.check_hankel_sides(len(alphabet), max_len, max_len)


def cmd_simulate(args):
    model = load_model(args.model)
    if not isinstance(model, (classical.ClassicalHmm, models.QhmmUnitary)):
        _fail("simulate expects a classical model or a unitary-form QHMM")
    seed = _resolve_seed(args)
    out = _outdir(args)
    if isinstance(model, classical.ClassicalHmm):
        samples = np.array(classical.sample(model, args.t, args.shots, seed),
                           dtype=np.intp).reshape(args.shots, args.t)
    else:
        samples = models.simulate(model, args.t, args.shots, seed)
    alphabet = model.alphabet
    table = models.empirical_table(samples, args.t)
    # the table lists the distinct rows by their sorted codes, so a row's
    # line sits at its code's index
    codes = lang.lex_codes(samples, table.m)
    lines = np.array([render_sequence(s, alphabet) + "\n"
                      for s in table.rows().tolist()], dtype=object)
    with open(out / "sequences.csv", "w") as fh:
        fh.write("sequence\n")
        for start in range(0, len(codes), _WRITE_CHUNK):
            chunk = codes[start:start + _WRITE_CHUNK]
            fh.write("".join(lines[np.searchsorted(table.codes, chunk)].tolist()))
    lang.write_tables_csv(out / "empirical.csv", [table], alphabet)
    print(f"wrote {len(samples)} sequences to {out}", file=sys.stderr)
    return 0


def cmd_distribution(args):
    model = load_model(args.model)
    ops = _model_operators(model)
    with _refused(f"--t {args.t}"):  # the table budget
        table = lang.exact_tables(*ops, [args.t])[args.t]
    out = _outdir(args)
    lang.write_tables_csv(out / f"distribution_t{args.t}.csv", [table],
                          model.alphabet)
    total = table.total()
    print(f"t={args.t}: {len(table)} sequences, total={total:.12g}",
          file=sys.stderr)
    return 0


def cmd_hankel(args):
    if args.model:
        model = load_model(args.model)
        alphabet = model.alphabet
        _check_hankel_sides(alphabet, args.max_len)
        levels = partial(lang.forward_probs, *_model_operators(model))
        h = lang.hankel_blocks(levels, args.max_len, args.max_len, len(alphabet))
    elif args.target:
        alphabet, tables = _load_target(
            args.target, 2 * args.max_len,
            partial(_check_hankel_sides, max_len=args.max_len))
        _require_lengths(args.target, tables, 2 * args.max_len)
        m = len(alphabet)
        h = lang.hankel_from_tables(tables, args.max_len, args.max_len, m)
    else:
        _fail("hankel needs --model or --target")
    est = lang.order_estimate(h, args.tol)
    out = _outdir(args)
    with open(out / "hankel.csv", "w") as fh:
        fh.write("prefix/suffix," + ",".join(
            render_sequence(s, alphabet) for s in h.suffixes) + "\n")
        for i, p in enumerate(h.prefixes):
            row = ",".join(f"{v:.12g}" for v in h.values[i])
            fh.write(f"{render_sequence(p, alphabet)},{row}\n")
    report = {
        "rank": est.rank,
        "classical_order": est.classical_order,
        "quantum_dim": est.quantum_dim,
        "rel_tol": args.tol,
        "prefixes": len(h.prefixes),
        "suffixes": len(h.suffixes),
    }
    (out / "rank.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"rank={est.rank} quantum_dim={est.quantum_dim}", file=sys.stderr)
    return 0


def cmd_quantize(args):
    model = load_model(args.model)
    if not isinstance(model, classical.ClassicalHmm):
        _fail("quantize expects a classical model file")
    out = _outdir(args)
    q = models.quantize_classical(model)
    (out / "qhmm.json").write_text(
        json.dumps(models.qhmm_to_json(q), indent=2) + "\n"
    )
    print(f"quantized {model.n}-state model -> {out/'qhmm.json'}", file=sys.stderr)
    return 0


# the learn-evo config keys, each with the kind of JSON value it takes; any
# other key, or a value of another kind, exits 2
_EVO_CONFIG = {
    **dict.fromkeys(("mu", "lambda", "prog_window", "g_max", "n_max", "min_gates",
                     "max_gates", "opt_budget", "dim_s", "dim_e", "seed"), "integer"),
    **dict.fromkeys(("gamma", "target_fitness", "c_q", "c_e"), "number"),
    **dict.fromkeys(("gate_set", "optimizers"), "list of strings"),
    "rho0_kind": "string",
}


def _check_config(cfg: dict, path: str) -> None:
    for key, value in cfg.items():
        if key not in _EVO_CONFIG:
            _fail(f"invalid config {path}: unknown key {key!r}; the keys are "
                  f"{', '.join(sorted(_EVO_CONFIG))}")
        with _refused(f"invalid config {path}"):
            check_json(value, _EVO_CONFIG[key], key)
    if cfg.get("seed", 0) < 0:
        _fail(f"invalid config {path}: seed must be >= 0, got {cfg['seed']}")


# config keys named otherwise than their LearnSpace or HyperParams field
_EVO_FIELDS = {"lambda": "lam", "gamma": "gamma_bandit"}


def _from_config(cls, cfg: dict, **given):
    """``cls`` from ``given`` and the config's keys for its other fields,
    numbers as floats and lists as tuples; a field that neither sets takes
    the library default."""
    names = {f.name for f in fields(cls)} - set(given)
    kinds = {"number": float, "list of strings": tuple}
    for key, value in cfg.items():
        name = _EVO_FIELDS.get(key, key)
        if name in names:
            given[name] = kinds.get(_EVO_CONFIG[key], lambda v: v)(value)
    return cls(**given)


def _space_from_config(alphabet, tables, cfg: dict) -> LearnSpace:
    m = len(alphabet)
    with _refused("invalid learning space"):
        if "dim_s" in cfg:
            dim_s = cfg["dim_s"]
        else:  # the Hankel estimate, which the side budget may refuse
            max_ps = max(t for t in tables) // 2 or 1
            h = lang.hankel_from_tables(tables, max_ps, max_ps, m)
            dim_s = max(lang.order_estimate(h).quantum_dim, 2)
        dim_e = cfg.get("dim_e", next_power_of_two(m))
        return _from_config(LearnSpace, cfg, alphabet=alphabet, dim_s=dim_s,
                            dim_e=dim_e)


def cmd_learn_evo(args):
    cfg = {}
    if args.config:
        with _refused(f"cannot read config {args.config}",
                      (OSError, UnicodeDecodeError, json.JSONDecodeError)):
            cfg = json.loads(Path(args.config).read_text())
        if not isinstance(cfg, dict):
            _fail(f"invalid config {args.config}: expected a JSON object")
        _check_config(cfg, args.config)
    with _refused(f"invalid config {args.config}"):
        hp = _from_config(HyperParams, cfg)
    alphabet, tables = _load_target(args.target, hp.n_max, exact=True)
    _require_lengths(args.target, tables, max(tables))
    target = [tables[t] for t in sorted(tables)]
    _check_table_budget(args.target, alphabet, target[:hp.n_max][-1].t)
    space = _space_from_config(alphabet, tables, cfg)
    if args.seed is None:
        args.seed = cfg.get("seed")
    seed = _resolve_seed(args)
    out = _outdir(args)
    report = evolve(target, space, hp, seed=seed)
    best_q = report.best.model(report.best.circuit.parameters())
    (out / "best_model.json").write_text(
        json.dumps(models.qhmm_to_json(best_q), indent=2) + "\n"
    )
    with open(out / "fitness_trace.csv", "w") as fh:
        fh.write("generation,best_fitness\n")
        for i, v in enumerate(report.best_trace):
            fh.write(f"{i},{v:.12g}\n")
    summary = {
        "seed": seed,
        "generations": len(report.generations),
        "best_fitness": report.best.fitness,
        "target_reached": report.target_reached,
        "per_generation": [asdict(g) for g in report.generations],
        "bandit_traces": report.bandit_traces,
    }
    (out / "report.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(
        f"best fitness {report.best.fitness:.6g} after "
        f"{len(report.generations)} generations", file=sys.stderr,
    )
    return 0


_TEMPLATES = {
    "real_amplitudes": lambda nq, reps, ent: real_amplitudes(nq, reps, ent),
    "efficient_su2_ry_rz": lambda nq, reps, ent: efficient_su2(nq, reps, ent, "RY_RZ"),
    "efficient_su2_rz_rx": lambda nq, reps, ent: efficient_su2(nq, reps, ent, "RZ_RX"),
}


def cmd_learn_ansatz(args):
    alphabet, tables = _load_target(args.target, args.t, exact=True)
    _check_table_budget(args.target, alphabet, max(tables))
    _require_lengths(args.target, tables, max(tables))
    m = len(alphabet)
    dim_s = args.dim_s
    dim_e = next_power_of_two(m) if args.dim_e is None else args.dim_e
    with _refused("invalid ansatz"):
        nq = register_qubits(dim_s, dim_e)
        spec = AnsatzSpec(
            circuit=_TEMPLATES[args.template](nq, args.reps, args.entanglement),
            dim_s=dim_s,
            dim_e=dim_e,
            symbol_map=block_symbol_map(alphabet, dim_e),
        )
    seed = _resolve_seed(args)
    res = train_ansatz_restarts(
        spec, lang.table_items(tables), args.optimizer, restarts=args.restarts,
        budget=args.budget, seed=seed,
    )
    out = _outdir(args)
    (out / "params.json").write_text(json.dumps({
        "template": args.template,
        "entanglement": args.entanglement,
        "reps": args.reps,
        "dim_s": dim_s,
        "dim_e": dim_e,
        "cost": res.cost,
        "params": [float(p) for p in res.params],
        "seed": seed,
    }, indent=2) + "\n")
    with open(out / "training_curve.csv", "w") as fh:
        fh.write("evaluation,best_cost\n")
        for i, v in enumerate(res.trace):
            fh.write(f"{i},{v:.12g}\n")
    print(f"final cost {res.cost:.6g}", file=sys.stderr)
    return 0


def _walk_origin(q, path: str) -> Hypothesis:
    """The walk's hypothesis for a model file. The walk engine steps a
    circuit in reset mode with the emission register measured and reset to
    |0>, from the file's start state; other models are refused."""
    if not (isinstance(q, models.QhmmUnitary) and isinstance(q.u, Circuit)
            and q.reset_mode == "reset" and q.measured == "emission"
            and q.e0 == 0):
        _fail(f"landscape needs a circuit-form, reset-mode, emission-measured "
              f"model with e0 = 0: {path}")
    if q.u.num_parameters == 0:
        _fail(f"landscape needs a circuit with parameters to walk: {path}")
    with _refused(f"invalid model file {path}"):
        return Hypothesis(circuit=q.u, dim_s=q.dim_s, dim_e=q.dim_e,
                          symbol_map=q.symbol_map, rho0=q.rho0)


def cmd_landscape(args):
    if args.steps < experiments.MIN_WALK_SAMPLES:
        _fail(f"--steps must be >= {experiments.MIN_WALK_SAMPLES} for a "
              f"correlation, got {args.steps}")
    if args.model:
        hyp = _walk_origin(load_model(args.model), args.model)
    else:
        # fixed training seed: --seed varies the walk, not the walk origin
        hyp = experiments.trained_market_hypothesis(seed=0)
    seed = _resolve_seed(args)
    out = _outdir(args)
    samples_by_rate = {}
    for i, rate in enumerate(args.rates):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        samples_by_rate[rate] = experiments.landscape_walk(
            hyp, args.steps, rate, rng
        )
    with open(out / "samples.csv", "w") as fh:
        lengths = sorted(next(iter(samples_by_rate.values()))[0].divergences)
        cols = ",".join(f"div_{t}" for t in lengths)
        fh.write(f"rate,op_distance,{cols},total\n")
        for rate, samples in samples_by_rate.items():
            for s in samples:
                divs = ",".join(f"{s.divergences[t]:.12g}" for t in lengths)
                fh.write(f"{rate},{s.op_distance:.12g},{divs},{s.total:.12g}\n")
    corr = experiments.landscape_correlation(samples_by_rate)
    summary = {
        str(rate): {
            "pearson_r": None if math.isnan(corr[rate]) else corr[rate],
            "bound_violations": experiments.smoothness_violations(samples, n=5),
            "samples": len(samples),
        }
        for rate, samples in samples_by_rate.items()
    }
    (out / "correlation.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"landscape: {summary}", file=sys.stderr)
    return 0


def cmd_reproduce(args):
    out = _outdir(args)
    names = sorted(experiments.REPRODUCTIONS) if args.name == "all" else [args.name]
    passed = []
    for name in names:
        t0 = time.perf_counter()
        report = experiments.reproduce(name, seed=args.seed)
        elapsed = time.perf_counter() - t0
        payload = {k: v for k, v in asdict(report).items() if k != "rows"}
        (out / f"{name}.json").write_text(json.dumps(payload, indent=2) + "\n")
        if report.rows:
            with open(out / f"{name}.csv", "w") as fh:
                cols = list(report.rows[0])
                fh.write(",".join(cols) + "\n")
                for row in report.rows:
                    fh.write(",".join(str(row[c]) for c in cols) + "\n")
        passed.append(report.passed)
        status = "PASS" if report.passed else "FAIL"
        print(f"{name}: {status} (achieved {report.achieved:.6g}, "
              f"threshold {report.threshold:.6g})")
        print(f"{name}: {elapsed:.1f} s", file=sys.stderr)
    return 0 if all(passed) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qhmm",
        description="Quantum hidden Markov models: simulate, analyze, learn.",
    )
    p.add_argument("--version", action="version", version=f"qhmm {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, model=False, target=False):
        sp.add_argument("--seed", type=_nonnegative, default=None)
        sp.add_argument("--out", default="out", help="output directory")
        if model:
            sp.add_argument("--model", required=True, help="model JSON file")
        if target:
            sp.add_argument("--target", required=True,
                            help="target CSV table or corpus file")

    sp = sub.add_parser("simulate", help="sample observation sequences")
    common(sp, model=True)
    sp.add_argument("--t", type=_nonnegative, required=True,
                    help="sequence length")
    sp.add_argument("--shots", type=_nonnegative, default=100000)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("distribution", help="exact sequence distribution")
    common(sp, model=True)
    sp.add_argument("--t", type=_nonnegative, required=True)
    sp.set_defaults(func=cmd_distribution)

    sp = sub.add_parser("hankel", help="Hankel matrix and rank estimate")
    common(sp)
    sp.add_argument("--model", default=None)
    sp.add_argument("--target", default=None)
    sp.add_argument("--max-len", type=_nonnegative, default=3, dest="max_len",
                    help="max prefix/suffix length")
    sp.add_argument("--tol", type=_positive_float, default=1e-7,
                    help="relative singular-value cut-off for the rank")
    sp.set_defaults(func=cmd_hankel)

    sp = sub.add_parser("quantize", help="classical model -> QHMM")
    common(sp, model=True)
    sp.set_defaults(func=cmd_quantize)

    sp = sub.add_parser("learn-evo", help="evolutionary circuit learning")
    common(sp, target=True)
    sp.add_argument("--config", default=None, help="hyperparameter JSON")
    sp.set_defaults(func=cmd_learn_evo)

    sp = sub.add_parser("learn-ansatz", help="fit a fixed ansatz template")
    common(sp, target=True)
    sp.add_argument("--template", default="real_amplitudes",
                    choices=sorted(_TEMPLATES))
    sp.add_argument("--entanglement", default="full",
                    choices=["full", "linear"])
    sp.add_argument("--reps", type=_nonnegative, default=1)
    sp.add_argument("--optimizer", default="nm", choices=OPTIMIZER_LABELS)
    sp.add_argument("--restarts", type=_positive, default=10)
    sp.add_argument("--budget", type=_positive, default=4000)
    sp.add_argument("--t", type=_positive, default=5,
                    help="max corpus window length")
    sp.add_argument("--dim-s", type=int, default=2, dest="dim_s")
    sp.add_argument("--dim-e", type=int, default=None, dest="dim_e")
    sp.set_defaults(func=cmd_learn_ansatz)

    sp = sub.add_parser("landscape", help="smoothness walk and correlation")
    common(sp)
    sp.add_argument("--model", default=None,
                    help="unitary-form model JSON (default: trained market)")
    sp.add_argument("--steps", type=_positive, default=500)
    sp.add_argument("--rates", type=_rates, default="0.1",
                    help="comma-separated fractions > 0")
    sp.set_defaults(func=cmd_landscape)

    sp = sub.add_parser(
        "reproduce",
        help="run a named benchmark or all (exits nonzero if one misses its threshold)",
    )
    common(sp)
    sp.add_argument("name", choices=sorted(experiments.REPRODUCTIONS) + ["all"])
    sp.set_defaults(func=cmd_reproduce)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except Exception as exc:  # surface library errors as diagnostics
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
