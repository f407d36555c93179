"""The benchmark (perfbench/) traces qhmm from outside the package by
replacing module and class attributes by name. A refactor that deletes,
renames or stops importing a hooked name breaks the traced benchmark run,
so every hooked name must resolve where the benchmark looks it up."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_hook_resolves():
    tracing = _load_tracing()
    # the evaluation counter wraps this name even when tracing is off
    hooks = tracing.HOOKS + [("qhmm.learning", "get_optimizer", "counter")]
    missing = [
        (target, attr)
        for target, attr, _ in hooks
        if not callable(tracing._resolve(target).__dict__.get(attr))
    ]
    assert not missing, f"hooked names no longer resolve: {missing}"


def test_every_optimizer_label_maps_to_a_benchmark_family():
    # the benchmark names its optimize.* metrics by the __name__ of what
    # get_optimizer returns; a wrapped or renamed family would read as zero
    from qhmm import optimize

    tracing = _load_tracing()
    names = {label: optimize.get_optimizer(label).__name__
             for label in optimize._REGISTRY}
    assert names and all(n in tracing.FAMILIES for n in names.values()), names


def test_counted_evaluations_equal_rows_evaluated(monkeypatch):
    # the benchmark counts OptResult.evaluations of what get_optimizer hands
    # out; a lockstep restart run and an fd fit that asks for probe blocks
    # must report exactly the objective rows the engine evaluated. With the
    # objective's line a fit may also evaluate points it prepared and did
    # not read: it then reports the same count, and every row of the run
    # without the line is evaluated among its rows
    from collections import Counter

    import numpy as np

    from qhmm import experiments, learning
    from qhmm.circuits import real_amplitudes

    sizes, rows = [], []
    level_probs = learning.ChannelEngine.level_probs

    def recording(self, x, lengths):
        sizes.append(1 if np.ndim(x) == 1 else len(x))
        rows.extend(row.tobytes() for row in np.array(x, ndmin=2))
        return level_probs(self, x, lengths)

    spec_type = learning.ObjectiveSpec

    def without_line(arity, evaluate, budget, line=None):
        return spec_type(arity, evaluate, budget)

    monkeypatch.setattr(learning.ChannelEngine, "level_probs", recording)
    inst = _load_tracing().Instrument(trace=False)
    inst.install()
    try:
        spec = learning.AnsatzSpec(real_amplitudes(2, 1, "linear"), 2, 2,
                                   ("0", "1"))
        target = experiments.market_target_items(max_len=3)
        fits = {
            "restarts": lambda: learning.train_ansatz_restarts(
                spec, target, "nm", restarts=4, budget=150, seed=2),
            "fd": lambda: learning.train_ansatz(spec, target, "bfsg", budget=57),
        }
        seen = {}
        for with_line in (False, True):
            monkeypatch.setattr(learning, "ObjectiveSpec",
                                spec_type if with_line else without_line)
            for name, fit in fits.items():
                before, sizes[:], rows[:] = inst.evals, [], []
                fit()
                seen[name, with_line] = (inst.evals - before, list(sizes),
                                         list(rows))
    finally:
        inst.uninstall()
    evals, block_sizes, evaluated = seen["restarts", False]
    assert max(block_sizes) > 1  # the restarts ran as blocks
    assert evals == len(evaluated)
    evals, block_sizes, evaluated = seen["fd", False]
    assert max(block_sizes) == 4  # central-difference probes, two angles
    assert evals == len(evaluated) == 57
    for name in fits:
        evals, _, evaluated = seen[name, True]
        assert evals == seen[name, False][0]
        assert not Counter(seen[name, False][2]) - Counter(evaluated), name


def test_benchmark_workloads_build_and_check_a_fit(monkeypatch, tmp_path):
    # the benchmark also calls qhmm's names to build its workloads and check
    # their outputs; a refactor that changes one of those signatures would
    # otherwise show only in a full benchmark run
    import numpy as np

    monkeypatch.syspath_prepend(str(TRACING.parent))
    import workloads

    from qhmm import learning

    built = {name: cls(0, tmp_path, lambda: 0)
             for name, cls in workloads.WORKLOADS.items()}
    ansatz = built["ansatz"]
    res = learning.train_ansatz(ansatz.market, ansatz.market_target, "nm",
                                budget=50, rng=np.random.default_rng(0))
    assert res.evaluations == 50
    assert workloads._fit_matches_tables(ansatz.market, ansatz.market_target,
                                         res)


@pytest.fixture
def apply_symbol_calls(monkeypatch):
    # one entry per call of channels.apply_symbol, hooked on the channels
    # module as the benchmark hooks it
    from qhmm import channels

    calls, apply_symbol = [], channels.apply_symbol

    def counting(*args):
        calls.append(1)
        return apply_symbol(*args)

    monkeypatch.setattr(channels, "apply_symbol", counting)
    return calls


def test_oracle_calls_apply_symbol_once_per_symbol(apply_symbol_calls):
    # the benchmark's selftest requires an exact count of apply_symbol calls
    # from the language workload's oracle Hankel matrices, hooked on the
    # channels module: one per symbol of every cell, 2·|S|·Σ|s| per matrix
    from qhmm import classical, lang, models

    calls = apply_symbol_calls
    q = models.quantize_classical(classical.market_model())
    for seq in [(), (0,), (1, 0, 1)]:
        calls.clear()
        models.sequence_probability(q, seq)
        assert len(calls) == len(seq)
    calls.clear()
    h = lang.hankel(lambda s: models.sequence_probability(q, s), 2, 2,
                    len(q.alphabet))
    side = [len(s) for s in h.suffixes]
    assert [len(p) for p in h.prefixes] == side
    assert len(calls) == 2 * len(side) * sum(side) == 140


def test_only_the_oracle_calls_apply_symbol(apply_symbol_calls):
    # the full channel, the steady state, the exact tables and both samplers
    # run the sandwich kernel directly, so the selftest's exact count of
    # apply_symbol calls reads the oracle Hankel matrices alone
    from dataclasses import replace

    from qhmm import channels, classical, models

    gauss = classical.gaussian4_model()
    q = models.quantize_classical(gauss)
    channels.apply(q.channel, q.rho0)
    channels.steady_state_info(q.channel)
    models.distribution_tables(q, [1, 2, 3])
    monras = models.from_kraus(models.monras_qhmm(), 4)
    for u in (models.from_kraus(q, 64), replace(monras, reset_mode="carry"),
              models.amplitude_damping_model(0.4)):
        models.simulate(u, 3, 50, 0)
    classical.sample(gauss, 3, 50, 0)
    assert not apply_symbol_calls
    models.sequence_probability(q, (0, 1))
    assert len(apply_symbol_calls) == 2


def test_benchmark_templates_keep_their_fused_factors(monkeypatch, tmp_path):
    # the gate kernel folds fixed gates and runs of angle gates into a few
    # factors; the ansatz workload's speed rests on it, so a change that
    # undoes the fusion fails here before any benchmark run: the Monras
    # template (21 gate factors unfused) stays at most 5, market at 1
    monkeypatch.syspath_prepend(str(TRACING.parent))
    import workloads

    ansatz = workloads.WORKLOADS["ansatz"](0, tmp_path, lambda: 0)
    assert len(ansatz.monras.engine().gates.stack) <= 5
    assert len(ansatz.market.engine().gates.stack) == 1


@pytest.mark.parametrize("fit,label", [
    ("train_ansatz", "bfsg"), ("optimize_parameters", "nm"),
    ("train_ansatz", "cbla"), ("optimize_parameters", "cbla"),
    ("optimize_parameters", "bfsg")],
    ids=["train_ansatz", "optimize_parameters", "train_ansatz-cbla",
         "optimize_parameters-cbla", "optimize_parameters-bfsg"])
def test_fits_run_the_hooked_kernel_once_per_objective_call(fit, label,
                                                            monkeypatch,
                                                            tmp_path):
    # the prediction table marks ChannelEngine.unitary and level_probs
    # active on ansatz and evolve, and compile_circuit and
    # distribution_tables idle there: a kernel that bypasses unitary, or a
    # fit that compiles or tabulates its circuit, fails here before any
    # benchmark run. Coordinate search reads its golden-section points from
    # one line per axis, and each line runs the hooked kernel once on its
    # block of samples; fd asks its prepared backtracking steps as one block
    import numpy as np

    monkeypatch.syspath_prepend(str(TRACING.parent))
    import workloads

    from qhmm import circuits, learning
    from qhmm.circuits import Circuit, GateSpec

    calls = {"objective": 0, "line": 0, "unitary": 0, "level_probs": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def idle(*args, **kwargs):
        raise AssertionError("an idle layer ran inside a fit")

    spec_type = learning.ObjectiveSpec

    def spec(arity, evaluate, budget, line=None):
        return spec_type(arity, counted("objective", evaluate), budget,
                         line and counted("line", line))

    monkeypatch.setattr(learning, "ObjectiveSpec", spec)
    for name in ("unitary", "level_probs"):
        monkeypatch.setattr(learning.ChannelEngine, name,
                            counted(name, getattr(learning.ChannelEngine, name)))
    for owner, name in ((learning, "compile_circuit"), (circuits, "compile_circuit"),
                        (learning, "distribution_tables")):
        monkeypatch.setattr(owner, name, idle)

    if fit == "train_ansatz":
        ansatz = workloads.WORKLOADS["ansatz"](0, tmp_path, lambda: 0)
        learning.train_ansatz(ansatz.monras, ansatz.monras_target, label,
                              budget=120, rng=np.random.default_rng(0))
    else:
        evolve = workloads.WORKLOADS["evolve"](0, tmp_path, lambda: 0)
        space = evolve.spaces["gaussian4"]
        gates = (GateSpec("P", (0,), (0.4,)), GateSpec("CRY", (0, 2), (1.1,)),
                 GateSpec("RX", (1,), (2.0,)), GateSpec("CX", (2, 1)))
        if label == "bfsg":  # fd backtracks deep here and prepares its steps
            gates = (GateSpec("Y", (1,)), GateSpec("RY", (2,), (0.3,)),
                     GateSpec("RX", (0,), (0.2,)), GateSpec("CRY", (1, 0), (5.3,)))
        hyp = learning.Hypothesis(Circuit(space.n_qubits, gates), space.dim_s,
                                  space.dim_e, space.symbol_map)
        learning.optimize_parameters(hyp, evolve.targets["gaussian4"], label,
                                     budget=60 if label == "nm" else 120)
    if label == "cbla":  # the start point, then a line per axis search
        assert calls["objective"] == 1 and calls["line"] > 1, calls
    else:
        assert calls["objective"] > 1 and calls["line"] == 0, calls
    assert (calls["unitary"] == calls["level_probs"]
            == calls["objective"] + calls["line"]), calls


def test_every_fit_hands_its_optimizer_a_line(monkeypatch):
    # coordinate search reads its golden-section points from one line per
    # axis, and nm and fd prepare points only on an objective with a line,
    # so the benchmark's evolve and ansatz rates rest on every fit's
    # objective having one. A fit whose objective lost its line keeps every
    # result bit for bit; here it fails, as it would otherwise only in the
    # benchmark's rates
    from qhmm import classical, experiments, learning
    from qhmm.circuits import real_amplitudes

    handed, calls = [], []
    get_optimizer = learning.get_optimizer
    level_probs = learning.ChannelEngine.level_probs

    def recording(label):
        run = get_optimizer(label)

        def fit(obj, x0):
            res = run(obj, x0)
            handed.append((label, obj, res.evaluations))
            return res
        return fit

    def counting(self, x, lengths):
        calls.append(x)
        return level_probs(self, x, lengths)

    monkeypatch.setattr(learning, "get_optimizer", recording)
    monkeypatch.setattr(learning.ChannelEngine, "level_probs", counting)
    market = classical.market_model()
    tables = [classical.distribution(market, t) for t in (1, 2, 3)]
    hyp = learning.Hypothesis(real_amplitudes(2, 1, "linear"), 2, 2, ("0", "1"))
    items = experiments.market_target_items(max_len=3)
    for label in ("nm", "cbla", "bfsg"):
        calls[:] = []
        learning.optimize_parameters(hyp, tables, label, budget=200)
        if label == "cbla":  # the start point, then one line per axis search
            assert len(calls) < handed[-1][2] / 2, (len(calls), handed[-1])
    learning.train_ansatz(hyp, items, "nm", budget=100)
    learning.train_ansatz_restarts(hyp, items, "cbla", restarts=2, budget=100)
    assert [label for label, *_ in handed] == ["nm", "cbla", "bfsg", "nm", "cbla"]
    assert all(isinstance(obj, learning.ObjectiveSpec) and obj.line is not None
               for _, obj, _ in handed), handed
