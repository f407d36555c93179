"""The benchmark (perfbench/) traces qhmm from outside the package by
replacing module and class attributes by name. A refactor that deletes,
renames or stops importing a hooked name breaks the traced benchmark run,
so every hooked name must resolve where the benchmark looks it up."""

import importlib.util
from pathlib import Path

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
