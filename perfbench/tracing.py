"""Span recording around qhmm's public functions, installed from outside the
package.

Every hook replaces the name a caller actually looks up: a module attribute
that is read at call time (``qhmm.channels.apply_symbol`` for ``models``), or
the copy a module bound at import (``qhmm.learning.get_optimizer`` rather
than the one in ``qhmm.optimize``). Nothing inside ``src/qhmm`` changes.

A span is ``[name, start, end, parent, round, attrs, outer]``; ``parent`` is
the index of the enclosing span (-1 at the top), ``round`` the workload-round
id, and ``outer`` is false when a span of the same name is already open, so
nested constructors count as one call. Spans stay in memory and are written
out once, when the round's process ends. A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
from collections import defaultdict
from time import perf_counter

# (module[:class], attribute, span name). Several hooks may share a name when
# one layer is reached through more than one public entry point.
HOOKS = [
    ("qhmm.learning:ChannelEngine", "unitary", "learning.unitary"),
    ("qhmm.learning:ChannelEngine", "level_probs", "learning.level_probs"),
    ("qhmm.learning:ChannelEngine", "__init__", "learning.engine_init"),
    ("qhmm.learning:FitnessEngine", "__init__", "learning.engine_init"),
    ("qhmm.learning", "optimize_parameters", "learning.fit"),
    ("qhmm.learning", "train_ansatz", "learning.fit"),
    ("qhmm.learning", "modify_hypothesis", "learning.modify"),
    ("qhmm.learning", "select_parents", "learning.select"),
    ("qhmm.learning", "select_survivors", "learning.select"),
    ("qhmm.learning", "bandit_update", "learning.select"),
    ("qhmm.learning", "evolve", "learning.evolve"),
    # evolve calls temperature() once at the top of every generation, so its
    # start times mark the generation boundaries
    ("qhmm.learning", "temperature", "learning.generation"),
    ("qhmm.learning", "compile_circuit", "circuits.compile"),
    ("qhmm.learning", "distribution_tables", "models.tables"),
    ("qhmm.circuits", "mutate", "circuits.mutate"),
    ("qhmm.circuits", "compile_circuit", "circuits.compile"),
    ("qhmm.models", "distribution_tables", "models.tables"),
    ("qhmm.models", "sequence_probability", "models.seqprob"),
    ("qhmm.models", "simulate", "models.simulate"),
    ("qhmm.models", "empirical_table", "models.empirical_table"),
    ("qhmm.channels", "apply_symbol", "channels.apply_symbol"),
    ("qhmm.classical", "distribution", "classical.distribution"),
    ("qhmm.classical", "sequence_probability", "classical.seqprob"),
    ("qhmm.classical", "sample", "classical.sample"),
    ("qhmm.lang", "hankel", "lang.hankel"),
    ("qhmm.lang", "order_estimate", "lang.order_estimate"),
    ("qhmm.lang", "numerical_rank", "linalg.numerical_rank"),
    ("qhmm.linalg", "numerical_rank", "linalg.numerical_rank"),
    ("qhmm.cli", "cmd_simulate", "cli.simulate"),
]

# optimizer implementation -> family label used in metric names
FAMILIES = {
    "nelder_mead": "nm",
    "coordinate_search": "coord",
    "fd_gradient_descent": "fd",
}

# joint dimension (dim_s * dim_e) -> sampled model, for per-model sampler cost
SIMULATE_DIMS = {4: "d4", 256: "d256"}


def _simulate_attrs(args, kwargs, result):
    q, t, shots = args[0], args[1], args[2]
    return {"dim": q.dim_s * q.dim_e, "shot_steps": t * shots}


def _optimizer_attrs(args, kwargs, result):
    return {"evals": result.evaluations, "converged": bool(result.converged)}


class Instrument:
    """Evaluation counter plus, when ``trace`` is set, the span hooks.

    The counter wraps each optimizer that ``qhmm.learning.get_optimizer``
    hands out and adds ``OptResult.evaluations`` once per fit, so it costs one
    call per fit rather than one per objective evaluation. Spans are recorded
    only while ``recording`` is true.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.evals = 0
        self.recording = False
        self.round_id = -1
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        learning = importlib.import_module("qhmm.learning")
        self._patch(learning, "get_optimizer",
                    self._counting_get_optimizer(learning.get_optimizer))
        if not self.trace:
            return
        for target, attr, name in HOOKS:
            owner = _resolve(target)
            fn = owner.__dict__[attr]
            attrs = _simulate_attrs if name == "models.simulate" else None
            self._patch(owner, attr, self.span(fn, name, attrs))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _counting_get_optimizer(self, original):
        inst = self

        @functools.wraps(original)
        def get_optimizer(label):
            opt = original(label)
            family = FAMILIES.get(opt.__name__, opt.__name__)
            traced = inst.span(opt, f"optimize.{family}", _optimizer_attrs)

            @functools.wraps(opt)
            def counted(*args, **kwargs):
                res = traced(*args, **kwargs)
                inst.evals += res.evaluations
                return res

            return counted

        return get_optimizer

    # --- recording ------------------------------------------------------------

    def span(self, fn, name: str, attrs=None):
        inst = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not inst.recording:
                return fn(*args, **kwargs)
            stack, opened = inst._stack, inst._open
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   inst.round_id, None, opened[name] == 0]
            stack.append(len(inst.spans))
            inst.spans.append(rec)
            opened[name] += 1
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                opened[name] -= 1
            if attrs is not None:
                rec[5] = attrs(args, kwargs, result)
            return result

        return traced

    def write(self, path, t0: float) -> None:
        """Spans as gzipped JSON lines, times relative to ``t0``."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, rid, attrs, _ in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9),
                                     round(end - t0, 9), parent, rid, attrs]))
                fh.write("\n")


def _resolve(target: str):
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


# --- per-layer metrics ------------------------------------------------------------

COUNTED = [
    "learning.unitary", "learning.level_probs", "learning.engine_init",
    "learning.fit", "circuits.mutate", "circuits.compile", "models.seqprob",
    "channels.apply_symbol", "classical.seqprob",
]
TIMED = [
    "learning.unitary", "learning.level_probs", "learning.engine_init",
    "learning.modify", "learning.select", "circuits.mutate",
    "circuits.compile", "models.tables", "models.seqprob",
    "models.empirical_table", "channels.apply_symbol",
    "classical.distribution", "classical.sample", "lang.hankel",
    "lang.order_estimate", "linalg.numerical_rank", "cli.simulate",
]


def round_layers(spans: list[list]) -> dict:
    """Layer totals of one traced round, in a form that merges across
    rounds run in different processes."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]

    sums: dict[str, float] = defaultdict(float)
    fit_evals: dict[int, int] = {}
    fit_times: list[float] = []
    gen_marks: dict[int, list[float]] = defaultdict(list)
    evolve_ends: dict[int, float] = {}
    conv = defaultdict(lambda: [0, 0])  # optimizer -> [converged, calls]
    sim = defaultdict(lambda: [0.0, 0])  # "dim" -> [seconds, shot-steps]

    for i, (name, start, end, parent, _, attrs, outer) in enumerate(spans):
        dur = end - start
        sums[name + ".self_s"] += dur - child[i]
        if outer:
            sums[name + ".calls"] += 1
        if name == "learning.fit" and outer:
            fit_evals[i] = 0
            fit_times.append(dur)
        elif name.startswith("optimize."):
            sums[name + ".evals"] += attrs["evals"]
            conv[name][0] += attrs["converged"]
            conv[name][1] += 1
            fit = _ancestor(spans, i, "learning.fit")
            if fit is not None:
                fit_evals[fit] = fit_evals.get(fit, 0) + attrs["evals"]
        elif name == "learning.generation":
            run = _ancestor(spans, i, "learning.evolve")
            if run is not None:
                gen_marks[run].append(start)
        elif name == "learning.evolve":
            evolve_ends[i] = end
        elif name == "models.simulate":
            sim[str(attrs["dim"])][0] += dur
            sim[str(attrs["dim"])][1] += attrs["shot_steps"]

    gens = []
    for run, marks in gen_marks.items():
        bounds = sorted(marks) + [evolve_ends[run]]
        gens.extend(b - a for a, b in zip(bounds, bounds[1:]))
    return {"sums": dict(sums), "conv": dict(conv), "sim": dict(sim),
            "fit_times": fit_times, "fit_evals": list(fit_evals.values()),
            "gens": gens}


def per_layer_metrics(layers: list[dict]) -> dict[str, float]:
    """Per-layer numbers of the traced rounds, from ``round_layers`` of each.

    Calls, evaluations and self times are per round (the median over rounds),
    so they do not grow with the number of rounds a run fits in. Fit and
    generation times are medians over all fits and generations; the sampler
    cost is total time over total shot-steps, per sampled model.
    """

    def per_round_median(key: str) -> float:
        return statistics.median(lay["sums"].get(key, 0.0) for lay in layers)

    def merged(field: str) -> list:
        return [x for lay in layers for x in lay[field]]

    def total(field: str, key) -> list:
        parts = [lay[field][key] for lay in layers if key in lay[field]]
        return [sum(p[0] for p in parts), sum(p[1] for p in parts)]

    out: dict[str, float] = {}
    for name in COUNTED:
        out[f"{name}.calls"] = per_round_median(f"{name}.calls")
    for name in TIMED:
        out[f"{name}.self_s"] = per_round_median(f"{name}.self_s")
    out["learning.fit.s_p50"] = _median(merged("fit_times"))
    out["learning.fit.evals_p50"] = _median(merged("fit_evals"))
    out["learning.generation_s.p50"] = _median(merged("gens"))
    for family in FAMILIES.values():
        name = f"optimize.{family}"
        out[f"{name}.calls"] = per_round_median(f"{name}.calls")
        out[f"{name}.evals"] = per_round_median(f"{name}.evals")
        done, calls = total("conv", name)
        out[f"{name}.converged_frac"] = done / calls if calls else 0.0
        out[f"{name}.self_s"] = per_round_median(f"{name}.self_s")
    for dim, label in SIMULATE_DIMS.items():
        seconds, steps = total("sim", str(dim))
        out[f"models.simulate.{label}.us_per_shot_step"] = (
            seconds / steps * 1e6 if steps else 0.0
        )
    return out


def _ancestor(spans, i: int, name: str):
    j = spans[i][3]
    while j >= 0 and spans[j][0] != name:
        j = spans[j][3]
    return j if j >= 0 else None


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0
