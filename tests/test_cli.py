import contextlib
import importlib.util
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qhmm
from qhmm import classical, experiments, models
from qhmm.cli import main


@pytest.fixture
def market_file(tmp_path):
    path = tmp_path / "market.json"
    path.write_text(json.dumps(classical.hmm_to_json(classical.market_model())))
    return str(path)


@pytest.fixture
def damping_file(tmp_path):
    path = tmp_path / "ad.json"
    m = models.amplitude_damping_model(math.pi / 2)
    path.write_text(json.dumps(models.qhmm_to_json(m)))
    return str(path)


def read_table(path):
    out = {}
    for line in open(path).read().splitlines()[1:]:
        seq, prob = line.rsplit(",", 1)
        out[seq] = float(prob)
    return out


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "qhmm" in capsys.readouterr().out


def test_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_distribution_damping_matches_reference(damping_file, tmp_path):
    out = tmp_path / "out"
    assert main(["distribution", "--model", damping_file, "--t", "2",
                 "--out", str(out)]) == 0
    table = read_table(out / "distribution_t2.csv")
    assert abs(table["00"] - 0.75) < 1e-12
    assert abs(table["01"]) < 1e-12
    assert abs(table["10"] - 0.125) < 1e-12
    assert abs(table["11"] - 0.125) < 1e-12


def test_distribution_market_normalized(market_file, tmp_path):
    out = tmp_path / "out"
    assert main(["distribution", "--model", market_file, "--t", "7",
                 "--out", str(out)]) == 0
    table = read_table(out / "distribution_t7.csv")
    assert abs(sum(table.values()) - 1.0) < 1e-9


def test_distribution_t0(market_file, tmp_path):
    out = tmp_path / "out"
    assert main(["distribution", "--model", market_file, "--t", "0",
                 "--out", str(out)]) == 0
    table = read_table(out / "distribution_t0.csv")
    assert table == {"": 1.0}


def test_hankel_market_rank(market_file, tmp_path):
    out = tmp_path / "out"
    assert main(["hankel", "--model", market_file, "--max-len", "3",
                 "--out", str(out)]) == 0
    report = json.loads((out / "rank.json").read_text())
    assert report["rank"] == 4
    assert report["quantum_dim"] == 2


def test_hankel_tolerance_flag(market_file, tmp_path):
    out = tmp_path / "out"
    # an absurdly loose tolerance collapses the rank to 1
    assert main(["hankel", "--model", market_file, "--max-len", "2",
                 "--tol", "0.99", "--out", str(out)]) == 0
    report = json.loads((out / "rank.json").read_text())
    assert report["rank"] == 1
    assert report["rel_tol"] == 0.99


def test_hankel_damping_rank_plateau(damping_file, tmp_path):
    # recomputed rank stays at 2 for window lengths 1..3
    for max_len in (1, 2, 3):
        out = tmp_path / f"o{max_len}"
        assert main(["hankel", "--model", damping_file,
                     "--max-len", str(max_len), "--out", str(out)]) == 0
        rank = json.loads((out / "rank.json").read_text())["rank"]
        assert rank == 2


def test_simulate_deterministic_outputs(damping_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["simulate", "--model", damping_file, "--t", "2",
                     "--shots", "500", "--seed", "42", "--out", str(out)]) == 0
    assert (out1 / "sequences.csv").read_bytes() == (out2 / "sequences.csv").read_bytes()
    assert (out1 / "empirical.csv").read_bytes() == (out2 / "empirical.csv").read_bytes()


def test_simulate_single_shot(damping_file, tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--model", damping_file, "--t", "3",
                 "--shots", "1", "--seed", "0", "--out", str(out)]) == 0
    lines = (out / "sequences.csv").read_text().splitlines()
    assert len(lines) == 2  # header + one sequence


@pytest.mark.parametrize("kind,t,shots", [
    ("damping", 3, 200), ("market", 4, 100), ("damping", 0, 4), ("market", 2, 0),
], ids=["damping", "market", "t0", "shots0"])
def test_simulate_files_list_the_sampled_rows(kind, t, shots, market_file,
                                              damping_file, tmp_path, monkeypatch):
    from qhmm import cli
    from qhmm.lang import render_sequence
    from oracles import DictTable, dict_write_tables_csv, empirical_estimate

    monkeypatch.setattr(cli, "_WRITE_CHUNK", 7)  # lines written 7 at a time
    path = {"damping": damping_file, "market": market_file}[kind]
    out = tmp_path / "out"
    assert main(["simulate", "--model", path, "--t", str(t), "--shots",
                 str(shots), "--seed", "4", "--out", str(out)]) == 0
    model = cli.load_model(path)
    if kind == "market":
        rows = classical.sample(model, t, shots, seed=4)
    else:
        rows = [tuple(r) for r in models.simulate(model, t, shots, 4).tolist()]
    lines = [render_sequence(r, model.alphabet) + "\n" for r in rows]
    assert (out / "sequences.csv").read_text() == "sequence\n" + "".join(lines)
    table = empirical_estimate(rows, t) if rows else DictTable(t=t)
    dict_write_tables_csv(tmp_path / "want.csv", [table], model.alphabet)
    assert (out / "empirical.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_simulate_empirical_close_to_exact(damping_file, tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--model", damping_file, "--t", "2",
                 "--shots", "20000", "--seed", "1", "--out", str(out)]) == 0
    emp = read_table(out / "empirical.csv")
    assert abs(emp.get("00", 0.0) - 0.75) < 0.02
    assert "01" not in emp  # impossible sequence never sampled


# the child prints its own peak RSS in KiB. With one Python tuple per shot,
# 400,000 shots at t = 4 peaked 59 MiB above one shot; with one array of
# symbol indices sampled in chunks, 9 to 11 MiB above
SIMULATE_RSS_GROWTH_MIB = 30
RSS_CHILD = ("import resource, sys\n"
             "from qhmm.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux only")
def test_simulate_memory_does_not_grow_with_shots(damping_file, tmp_path):
    src = str(Path(qhmm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    peak = {}
    for shots in (1, 400_000):
        run = subprocess.run(
            [sys.executable, "-c", RSS_CHILD, "simulate", "--model", damping_file,
             "--t", "4", "--shots", str(shots), "--seed", "0",
             "--out", str(tmp_path / str(shots))],
            env=env, capture_output=True, text=True, timeout=300, check=True)
        code, kib = run.stdout.split()
        assert code == "0"
        peak[shots] = int(kib) / 1024
    assert peak[400_000] - peak[1] < SIMULATE_RSS_GROWTH_MIB, peak


@pytest.mark.parametrize("command", [["distribution", "--t", "2"],
                                     ["simulate", "--t", "2", "--shots", "10"]])
def test_huge_unitary_entry_is_refused_in_one_line(damping_file, command, tmp_path):
    # regression: a unitary entry of 1e308 overflowed in the unitarity check,
    # and four numpy RuntimeWarning lines came before the error line
    data = json.loads(Path(damping_file).read_text())
    data["unitary"]["re"][0] = 1e308
    path, out = tmp_path / "huge.json", tmp_path / "out"
    path.write_text(json.dumps(data))
    src = str(Path(qhmm.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", "import sys\nfrom qhmm.cli import main\n"
         "sys.exit(main(sys.argv[1:]))", *command, "--model", str(path),
         "--seed", "0", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120)
    assert run.returncode == 2
    assert run.stderr == (f"error: invalid model file {path}: matrix is not "
                          "unitary within tolerance\n"), run.stderr
    assert not out.exists()


# the five model files of scripts/make_fixture_models.py
_FIXTURE_MODELS = {
    "market": lambda: classical.hmm_to_json(classical.market_model()),
    "gaussian4": lambda: classical.hmm_to_json(classical.gaussian4_model()),
    "damping": lambda: models.qhmm_to_json(models.amplitude_damping_model(math.pi / 2)),
    "monras": lambda: models.qhmm_to_json(models.monras_qhmm()),
    "market_quantized": lambda: models.qhmm_to_json(
        models.quantize_classical(classical.market_model())),
}


@pytest.mark.parametrize("command", [["distribution", "--t", "2"],
                                     ["hankel", "--max-len", "1"]])
def test_huge_kraus_entry_is_refused_in_one_line(command, tmp_path):
    # regression: a Kraus entry of 1e308 overflowed in the completeness
    # check, and two numpy RuntimeWarnings came before the error line
    data = _FIXTURE_MODELS["market_quantized"]()
    data["channel"]["groups"]["0"][0]["re"][0] = 1e308
    path, out = tmp_path / "huge.json", tmp_path / "out"
    path.write_text(json.dumps(data))
    src = str(Path(qhmm.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", "import sys\nfrom qhmm.cli import main\n"
         "sys.exit(main(sys.argv[1:]))", *command, "--model", str(path),
         "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120)
    assert run.returncode == 2
    assert run.stderr == (f"error: invalid model file {path}: channel is not "
                          "trace preserving (violation inf)\n"), run.stderr
    assert not out.exists()


def test_invalid_model_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        main(["distribution", "--model", str(bad), "--t", "1",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


def test_unrecognized_model_schema(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"hello": 1}))
    with pytest.raises(SystemExit) as exc:
        main(["distribution", "--model", str(bad), "--t", "1",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_quantize_round_trip(market_file, tmp_path):
    out = tmp_path / "out"
    assert main(["quantize", "--model", market_file, "--out", str(out)]) == 0
    q = models.qhmm_from_json(json.loads((out / "qhmm.json").read_text()))
    market = classical.market_model()
    for t in (1, 2, 3):
        dc = classical.distribution(market, t)
        dq = models.distribution(q, t)
        assert max(abs(dc.prob(s) - dq.prob(s)) for s, _ in dc.items()) < 1e-10


def test_quantize_rejects_qhmm_input(damping_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["quantize", "--model", damping_file, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_learn_ansatz_market(market_file, tmp_path):
    # target CSV produced from the classical tables
    market = classical.market_model()
    from qhmm.lang import write_tables_csv

    target = tmp_path / "target.csv"
    write_tables_csv(target, [classical.distribution(market, t) for t in (1, 2, 3)],
                     market.alphabet)
    out = tmp_path / "out"
    assert main(["learn-ansatz", "--target", str(target),
                 "--template", "real_amplitudes", "--entanglement", "linear",
                 "--reps", "1", "--optimizer", "nm", "--restarts", "2",
                 "--budget", "400", "--seed", "3", "--out", str(out)]) == 0
    payload = json.loads((out / "params.json").read_text())
    assert len(payload["params"]) == 2
    assert payload["cost"] < 0.05
    curve = (out / "training_curve.csv").read_text().splitlines()
    assert curve[0] == "evaluation,best_cost"
    costs = [float(r.split(",")[1]) for r in curve[1:]]
    assert all(a >= b for a, b in zip(costs, costs[1:]))


def quick_learn_evo_inputs(tmp_path):
    market = classical.market_model()
    from qhmm.lang import write_tables_csv

    target = tmp_path / "target.csv"
    write_tables_csv(target, [classical.distribution(market, t) for t in (1, 2)],
                     market.alphabet)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mu": 4, "lambda": 2, "g_max": 2, "target_fitness": -1e-4,
        "c_q": 0.0, "c_e": 0.0, "opt_budget": 25, "min_gates": 1,
        "max_gates": 3, "dim_s": 2, "dim_e": 2, "seed": 7,
    }))
    return target, cfg


def test_learn_evo_quick(market_file, tmp_path):
    target, cfg = quick_learn_evo_inputs(tmp_path)
    out = tmp_path / "out"
    assert main(["learn-evo", "--target", str(target), "--config", str(cfg),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 7
    assert report["generations"] <= 2
    best = models.qhmm_from_json(json.loads((out / "best_model.json").read_text()))
    assert isinstance(best, models.QhmmKraus)
    trace = (out / "fitness_trace.csv").read_text().splitlines()
    assert trace[0] == "generation,best_fitness"


def test_learn_evo_deterministic_outputs(tmp_path):
    target, cfg = quick_learn_evo_inputs(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["learn-evo", "--target", str(target), "--config", str(cfg),
                     "--out", str(out)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == ["best_model.json", "fitness_trace.csv", "report.json"]
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


COMPARE = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"


def test_compare_outputs_finds_a_tree_identical_to_itself(tmp_path):
    # the byte-identity contract across processes: every command of the
    # reduced matrix, run twice from the same tree, writes the same files
    root = COMPARE.parents[1]
    run = subprocess.run([sys.executable, str(COMPARE), str(root), str(root),
                          "--out", str(tmp_path), "--quick"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    rows = [line.split() for line in run.stdout.splitlines()]
    assert len(rows) > 20 and {row[0] for row in rows} == {"identical"}
    assert any(row[1] == "learn-ansatz-cbla/params.json" for row in rows)


POINT_COST = COMPARE.parent / "point_cost.py"


def test_point_cost_runs_a_tree_against_itself():
    # the in-process A/B of the objective's per-point cost: both copies of
    # one tree load side by side, every case is timed in each, and their
    # values agree bit for bit
    root = COMPARE.parents[1]
    run = subprocess.run([sys.executable, str(POINT_COST), str(root), str(root),
                          "--rounds", "1", "--batch-s", "0.001"],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    cases = {line.split()[0] for line in lines[1:-1]}
    assert {"monras_point", "market_evolve_point", "monras_block36",
            "monras_nm_fit", "nm_free", "gatestack_monras", "load_gaussian4_kraus",
            "load_gaussian4_dilated", "apply_symbol_g4", "classical_sample_g4",
            "tables_quantized", "tables_g4", "steady_state_g4",
            "hankel_oracle_g4", "hankel_blocks_g4", "write_tables_market12",
            "divergence_market12"} <= cases
    assert lines[-1] == "18 of 18 cases equal bit for bit"


def test_compare_outputs_verdicts():
    spec = importlib.util.spec_from_file_location("compare_outputs", COMPARE)
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)
    assert compare.verdict(b"a,1.5\n", b"a,1.5\n") == ("identical", "")
    assert compare.verdict(b"x 0.5 y 2e-3 0\n", b"x 0.25 y 2e-3 0.0\n") == (
        "numeric", "max abs 0.25, max rel 0.5")
    kind, detail = compare.verdict(b"fit 1\nok\n", b"fit 1\nfailed\n")
    assert kind == "different" and detail.startswith("line 2: 'ok'")
    assert compare.verdict(b"1,2\n", b"1,2,3\n")[0] == "different"


def test_landscape_outputs(tmp_path):
    out = tmp_path / "out"
    assert main(["landscape", "--steps", "40", "--rates", "0.1",
                 "--seed", "5", "--out", str(out)]) == 0
    lines = (out / "samples.csv").read_text().splitlines()
    assert lines[0].startswith("rate,op_distance,div_2")
    assert len(lines) == 41
    corr = json.loads((out / "correlation.json").read_text())
    assert list(corr) == ["0.1"]
    assert set(corr["0.1"]) == {"pearson_r", "bound_violations", "samples"}
    assert corr["0.1"]["samples"] == 40
    assert 0 <= corr["0.1"]["bound_violations"] <= 40


def test_reproduce_table2_cli(tmp_path):
    out = tmp_path / "out"
    assert main(["reproduce", "table2", "--out", str(out)]) == 0
    payload = json.loads((out / "table2.json").read_text())
    assert payload["passed"] is True
    rows = (out / "table2.csv").read_text().splitlines()
    assert len(rows) == 50  # header + 49 entries


def test_hankel_from_target_tables(market_file, tmp_path):
    market = classical.market_model()
    from qhmm.lang import write_tables_csv

    target = tmp_path / "target.csv"
    write_tables_csv(target, [classical.distribution(market, t) for t in range(1, 5)],
                     market.alphabet)
    out = tmp_path / "out"
    assert main(["hankel", "--target", str(target), "--max-len", "2",
                 "--out", str(out)]) == 0
    report = json.loads((out / "rank.json").read_text())
    assert report["rank"] == 4


def test_hankel_without_inputs_fails(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["hankel", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_hankel_corpus_at_max_len_zero(tmp_path, capsys):
    # a corpus at --max-len 0 exited 2 ("yields no distribution tables")
    # where the same data as a CSV gave the 1 x 1 matrix of the empty
    # sequence; an empty corpus file is still refused
    from qhmm.lang import read_corpus, tables_from_corpus, write_tables_csv

    corpus, table, empty = (tmp_path / name for name in
                            ("corpus.txt", "table.csv", "empty.txt"))
    corpus.write_text("0110\n10\n")
    alphabet, seqs = read_corpus(corpus)
    write_tables_csv(table, tables_from_corpus(seqs, 2).values(), alphabet)
    empty.write_text("\n")
    outs = [tmp_path / "out_corpus", tmp_path / "out_table"]
    for target, out in zip((corpus, table), outs):
        assert main(["hankel", "--target", str(target), "--max-len", "0",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == "rank=1 quantum_dim=1\n"
    for name in ("hankel.csv", "rank.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["hankel", "--target", str(empty), "--max-len", "0",
              "--out", str(tmp_path / "out_empty")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"error: target file {empty} yields no distribution tables\n")
    assert not (tmp_path / "out_empty").exists()


def test_learn_evo_from_corpus(tmp_path):
    market = classical.market_model()
    seqs = classical.sample(market, 12, 400, seed=5)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(
        "".join(market.alphabet[a] for a in s) for s in seqs) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mu": 3, "lambda": 2, "g_max": 1, "target_fitness": -1e-4,
        "c_q": 0.0, "c_e": 0.0, "opt_budget": 15, "min_gates": 1,
        "max_gates": 2, "dim_s": 2, "dim_e": 2, "n_max": 3,
    }))
    out = tmp_path / "out"
    assert main(["learn-evo", "--target", str(corpus), "--config", str(cfg),
                 "--seed", "2", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["best_fitness"] <= 0.0


def test_learn_evo_corpus_defaults(tmp_path, monkeypatch):
    # a corpus config without n_max or dim_s: the corpus is tabulated up to
    # the library's n_max, the one default of CSV and corpus targets, and
    # dim_s is the Hankel estimate of those tables (at least 2)
    from qhmm import cli, lang
    from qhmm.learning import HyperParams

    market = classical.market_model()
    seqs = classical.sample(market, 12, 400, seed=5)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(
        "".join(market.alphabet[a] for a in s) for s in seqs) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mu": 2, "lambda": 1, "g_max": 0,
                               "opt_budget": 5, "min_gates": 1,
                               "max_gates": 2, "dim_e": 2}))
    tabulated, fitted = [], []
    tabulate, evolve = lang.tables_from_corpus, cli.evolve

    def recording_tabulate(corpus, max_len):
        tabulated.append((max_len, tabulate(corpus, max_len)))
        return tabulated[-1][1]

    def recording_evolve(target, space, hp, seed):
        fitted.append((target, space))
        return evolve(target, space, hp, seed=seed)

    monkeypatch.setattr(lang, "tables_from_corpus", recording_tabulate)
    monkeypatch.setattr(cli, "evolve", recording_evolve)
    assert main(["learn-evo", "--target", str(corpus), "--config", str(cfg),
                 "--seed", "2", "--out", str(tmp_path / "out")]) == 0
    n_max = HyperParams().n_max
    [(max_len, tables)] = tabulated
    assert max_len == n_max and sorted(tables) == list(range(1, n_max + 1))
    [(target, space)] = fitted
    assert [tab.t for tab in target] == list(range(1, n_max + 1))
    h = lang.hankel_from_tables(tables, n_max // 2, n_max // 2, 2)
    assert space.dim_s == max(lang.order_estimate(h).quantum_dim, 2)


def test_reproduce_all(tmp_path, monkeypatch, capsys):
    table2 = experiments.REPRODUCTIONS["table2"]
    monkeypatch.setattr(experiments, "REPRODUCTIONS", {"table2": table2})
    out = tmp_path / "out"
    assert main(["reproduce", "all", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["table2.csv", "table2.json"]
    captured = capsys.readouterr()
    assert [line.split(" (")[0] for line in captured.out.splitlines()] == ["table2: PASS"]
    assert captured.err.startswith("table2: ") and captured.err.endswith(" s\n")

    failing = lambda: experiments.ReproduceReport(
        name="failing", passed=False, achieved=1.0, threshold=0.5)
    monkeypatch.setattr(experiments, "REPRODUCTIONS",
                        {"table2": table2, "failing": failing})
    assert main(["reproduce", "all", "--out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" (")[0] for line in lines] == ["failing: FAIL", "table2: PASS"]
    assert json.loads((out / "failing.json").read_text())["passed"] is False


def test_invalid_target_table_fails_cleanly(tmp_path, capsys):
    # nan and negative probabilities used to load and train to "cost": Infinity
    bad = tmp_path / "bad.csv"
    bad.write_text("sequence,probability\n0,nan\n1,-0.5\n")
    unnormalized = tmp_path / "unnormalized.csv"
    unnormalized.write_text("sequence,probability\n0,0.5\n1,0.4\n")
    # a repeated row used to overwrite the first and pass the sum check
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("sequence,probability\n0,0.5\n0,0.5\n1,0.5\n")
    for target in (bad, unnormalized, repeated):
        out = tmp_path / f"out-{target.stem}"
        with pytest.raises(SystemExit) as exc:
            main(["learn-ansatz", "--target", str(target), "--restarts", "1",
                  "--budget", "10", "--seed", "0", "--out", str(out)])
        assert exc.value.code == 2
        assert "invalid target file" in capsys.readouterr().err
        assert not out.exists()


# argv per command, with {market}, {damping} and {target} filled in per test
BYTE_COMMANDS = {
    "distribution": ["distribution", "--model", "{damping}", "--t", "3"],
    "hankel_model": ["hankel", "--model", "{market}", "--max-len", "2"],
    "hankel_target": ["hankel", "--target", "{target}", "--max-len", "2"],
    "quantize": ["quantize", "--model", "{market}"],
    "learn_ansatz": ["learn-ansatz", "--target", "{target}", "--entanglement",
                     "linear", "--restarts", "2", "--budget", "100", "--seed", "3"],
    "landscape": ["landscape", "--steps", "40", "--seed", "5"],
    "reproduce_table2": ["reproduce", "table2"],
    "simulate_classical": ["simulate", "--model", "{market}", "--t", "4",
                           "--shots", "300", "--seed", "9"],
}


@pytest.mark.parametrize("command", sorted(BYTE_COMMANDS))
def test_command_outputs_byte_identical(command, market_file, damping_file, tmp_path):
    target = tmp_path / "target.csv"
    from qhmm.lang import write_tables_csv

    market = classical.market_model()
    write_tables_csv(target, [classical.distribution(market, t) for t in range(1, 5)],
                     market.alphabet)
    paths = {"market": market_file, "damping": damping_file, "target": str(target)}
    argv = [arg.format(**paths) for arg in BYTE_COMMANDS[command]]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(argv + ["--out", str(out)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names and names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_non_unitary_model_file_fails_cleanly(damping_file, tmp_path, capsys):
    # regression: simulate sampled from this file and distribution exited 1
    from qhmm.linalg import matrix_to_json

    data = json.loads(open(damping_file).read())
    data["unitary"] = matrix_to_json(np.diag([1.0, 1.0, 0.5, 2.0]))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for argv in (["simulate", "--t", "2", "--shots", "10", "--seed", "1"],
                 ["distribution", "--t", "2"]):
        out = tmp_path / f"out-{argv[0]}"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--model", str(bad), "--out", str(out)])
        assert exc.value.code == 2
        assert "invalid model file" in capsys.readouterr().err
        assert not out.exists()


def test_invalid_circuit_model_file_fails_cleanly(bad_circuit_files, tmp_path,
                                                  capsys):
    # regression: a circuit of the wrong size or with a null angle exited 1
    # with a dimension error or a float() TypeError; an RY on qubit -1 of 2
    # compiled to 0.989 I, so simulate exited 0 and wrote its sequences while
    # distribution exited 1 on a channel that is not trace preserving
    for label, data in bad_circuit_files.items():
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "out"
        for argv in (["distribution", "--t", "2"],
                     ["simulate", "--t", "2", "--shots", "1000", "--seed", "1"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--model", str(bad), "--out", str(out)])
            assert exc.value.code == 2, (label, argv[0])
            assert "invalid model file" in capsys.readouterr().err
            assert not out.exists()


@pytest.mark.parametrize("group,message", [
    ([np.eye(3)], "Kraus operator for symbol '0' is (3, 3), expected (2, 2)"),
    ([np.eye(2), np.eye(3)],
     "Kraus operator for symbol '0' is (3, 3), expected (2, 2)"),
    ([np.array([[np.nan, 0.0], [0.0, 1.0]])],
     "Kraus operators for symbol '0' have non-finite entries"),
], ids=["wrong-size", "ragged", "nan"])
def test_invalid_kraus_model_file_exits_2(group, message, tmp_path, capsys):
    # a Kraus-form file is checked where its operators are stacked: the
    # message names the symbol and the bad shape, also for a ragged group
    data = models.qhmm_to_json(models.monras_qhmm())
    data["channel"]["groups"]["0"] = [
        {"rows": len(k), "cols": len(k), "re": k.ravel().tolist(),
         "im": [0.0] * k.size} for k in group]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["distribution", "--model", str(bad), "--t", "2",
              "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid model file" in err and message in err
    assert not out.exists()


# each exited only after --out was made: simulate on a Kraus-form file with
# 2, distribution on a carry-mode file with 1; hankel on it also exited 1
@pytest.mark.parametrize("kind,argv,message", [
    ("kraus", ["simulate", "--t", "2", "--shots", "10", "--seed", "1"],
     "simulate expects a classical model or a unitary-form QHMM"),
    ("carry", ["distribution", "--t", "2"], "has no stationary Kraus family"),
    ("carry", ["hankel", "--max-len", "2"], "has no stationary Kraus family"),
], ids=["simulate-kraus", "distribution-carry", "hankel-carry"])
def test_unsupported_model_kind_exits_2(kind, argv, message, damping_file,
                                        tmp_path, capsys):
    data = {"kraus": models.qhmm_to_json(models.monras_qhmm()),
            "carry": {**json.loads(open(damping_file).read()),
                      "reset_mode": "carry"}}[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--model", str(path), "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_model_file_not_an_object(tmp_path, capsys):
    # regression: a JSON list died with an AttributeError and exit 1
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(SystemExit) as exc:
        main(["distribution", "--model", str(bad), "--t", "1",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "invalid model file" in capsys.readouterr().err


def _walk_model(tmp_path, name, **changes):
    from qhmm.circuits import real_amplitudes

    fields = dict(
        alphabet=["0", "1"], dim_s=2, dim_e=2,
        u=real_amplitudes(2, reps=1, entanglement="linear").with_parameters(
            [0.455, 4.971]),
        symbol_map=("0", "1"), rho0=np.eye(2) / 2,
    )
    fields.update(changes)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(models.qhmm_to_json(models.QhmmUnitary(**fields))))
    return str(path)


def test_landscape_model_start_state_changes_walk(tmp_path):
    # regression: the walk rebuilt the model from its circuit alone, so a
    # |0><0| start wrote the same samples as the maximally mixed one; a start
    # state that is none of the learners' named kinds was refused
    starts = {"mixed": np.eye(2) / 2, "ground": np.diag([1.0, 0.0]),
              "skewed": np.diag([0.3, 0.7])}
    samples = {}
    for name, rho0 in starts.items():
        out = tmp_path / name
        model = _walk_model(tmp_path, name, rho0=rho0)
        assert main(["landscape", "--model", model, "--steps", "30",
                     "--seed", "5", "--out", str(out)]) == 0
        samples[name] = (out / "samples.csv").read_text()
    assert samples["mixed"] != samples["ground"]
    assert samples["mixed"] != samples["skewed"]


def test_landscape_rejects_unsupported_models(tmp_path, capsys):
    # regression: carry mode and a measured system register were dropped
    # silently; a missing file exited 1, and so did a circuit without
    # parameters, after --out was made
    from qhmm.circuits import Circuit, GateSpec

    unsupported = {
        "carry": _walk_model(tmp_path, "carry", reset_mode="carry"),
        "system": _walk_model(tmp_path, "system", measured="system"),
        "e0": _walk_model(tmp_path, "e0", e0=1),
        "missing": str(tmp_path / "missing.json"),
        "no-params": _walk_model(tmp_path, "no-params",
                                 u=Circuit(2, (GateSpec("X", (0,)),))),
    }
    for name, model in unsupported.items():
        out = tmp_path / f"out-{name}"
        with pytest.raises(SystemExit) as exc:
            main(["landscape", "--model", model, "--steps", "30",
                  "--out", str(out)])
        assert exc.value.code == 2, name
        assert "error" in capsys.readouterr().err
        assert not out.exists()


def test_reproduce_passes_seed_through(tmp_path, monkeypatch):
    calls = []

    def probe(**kwargs):
        calls.append(kwargs)
        return experiments.ReproduceReport(name="probe", passed=True,
                                           achieved=0.0, threshold=1.0)

    monkeypatch.setattr(experiments, "REPRODUCTIONS", {"probe": probe})
    out = str(tmp_path / "out")
    assert main(["reproduce", "probe", "--out", out]) == 0
    assert main(["reproduce", "probe", "--seed", "4", "--out", out]) == 0
    assert calls == [{}, {"seed": 4}]


@pytest.mark.parametrize("argv", [
    ["distribution", "--t", "-1"],  # used to write distribution_t-1.csv
    ["simulate", "--t", "-2"],
    ["simulate", "--t", "2", "--shots", "-5"],
], ids=["distribution-t", "simulate-t", "simulate-shots"])
def test_negative_length_or_shots_exits_2(argv, market_file, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--model", market_file, "--seed", "0", "--out", str(out)])
    assert exc.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err
    assert not out.exists()


# each used to fail inside the engine or the symbol map with exit 1; a
# dim_e of 1 is a power of two but too small for the two market symbols
# so did a config that is not an object, a population below 2, an n_max of
# 0, an unknown gate type or optimizer label in a config, an unknown
# --optimizer and a dim_s that is not an integer; n_max 0 and the unknown
# gate type and label also left --out behind. An unknown rho0_kind,
# min_gates above max_gates and an empty gate_set or optimizers list exited 1
# from inside the search after --out was made; a gate_set or optimizers string
# was read one character per entry and exited 0. A one-qubit register (dim_s
# 1 beside the market's dim_e 2) exited 1 after --out was made, even with only
# single-qubit gates; a NaN c_q did the same, a negative c_e gave a positive
# fitness and reached the target at once, and a NaN target_fitness exited 0
# without a generation, as did a negative g_max or prog_window. A config key
# outside the documented set was ignored ("lamda" ran with lambda 10); a
# config seed of -1, 1.5 or "7" exited 1 after --out was made, and true ran
# and wrote "seed": true; int() and float() turned "mu": 2.7 into 2, "mu":
# "30" into 30, a bool into 0 or 1 and "gamma": "0.3" into 0.3. An
# opt_budget of 0 ran every fit at the 40-evaluation floor
@pytest.mark.parametrize("flags,config,message", [
    (["--dim-s", "3"], None, "power of two"),
    (["--dim-e", "1"], None, "smaller than the alphabet"),
    (["--dim-e", "0"], None, "dim_e must be a power of two, got 0"),
    (None, {"dim_s": 3}, "power of two"),
    (None, {"dim_e": 1}, "smaller than the alphabet"),
    (None, [1, 2], "expected a JSON object"),
    (None, {"mu": 1}, "population size must be >= 2"),
    (None, {"n_max": 0}, "n_max must be >= 1"),
    (None, {"gate_set": ["X", "CX", "SWAP"]}, "unknown gate types ['SWAP']"),
    (None, {"optimizers": ["nm", "foo"]}, "unknown optimizer labels ['foo']"),
    (["--optimizer", "foo"], None, "invalid choice: 'foo'"),
    (None, {"dim_s": "two"}, "dim_s must be a JSON integer, got 'two'"),
    (None, {"rho0_kind": "bogus"}, "unknown initial-state kind 'bogus'"),
    (None, {"min_gates": 6, "max_gates": 3}, "0 <= min_gates <= max_gates"),
    (None, {"gate_set": []}, "no gate types given"),
    (None, {"optimizers": []}, "no optimizer labels given"),
    (None, {"gate_set": "XY"}, "gate_set must be a JSON list of strings"),
    (None, {"optimizers": "nm"}, "optimizers must be a JSON list of strings"),
    (None, {"gate_set": ["X", 1]}, "gate_set must be a JSON list of strings"),
    (None, {"dim_s": 1}, "needs at least two qubits"),
    (None, {"dim_s": 1, "gate_set": ["X", "RY"]}, "needs at least two qubits"),
    (None, {"c_q": math.nan}, "c_q must be finite and >= 0, got nan"),
    (None, {"c_e": -5}, "c_e must be finite and >= 0, got -5"),
    (None, {"target_fitness": math.nan}, "target_fitness must be finite"),
    (None, {"g_max": -3}, "g_max must be >= 0, got -3"),
    (None, {"prog_window": -2}, "prog_window must be >= 1, got -2"),
    (None, {"prog_window": 0}, "prog_window must be >= 1, got 0"),
    (None, {"lamda": 3}, "unknown key 'lamda'"),
    (None, {"seed": -1}, "seed must be >= 0, got -1"),
    (None, {"seed": 1.5}, "seed must be a JSON integer, got 1.5"),
    (None, {"seed": "7"}, "seed must be a JSON integer, got '7'"),
    (None, {"seed": True}, "seed must be a JSON integer, got True"),
    (None, {"mu": 2.7}, "mu must be a JSON integer, got 2.7"),
    (None, {"mu": "30"}, "mu must be a JSON integer, got '30'"),
    (None, {"g_max": True}, "g_max must be a JSON integer, got True"),
    (None, {"c_q": True}, "c_q must be a JSON number, got True"),
    (None, {"gamma": "0.3"}, "gamma must be a JSON number, got '0.3'"),
    (None, {"opt_budget": 0}, "opt_budget must be >= 1, got 0"),
], ids=["ansatz-dim-s", "ansatz-dim-e", "ansatz-dim-e-zero", "evo-dim-s", "evo-dim-e",
        "evo-config-list", "evo-mu", "evo-n-max", "evo-gate-type",
        "evo-optimizer", "ansatz-optimizer", "evo-dim-s-text", "evo-rho0-kind",
        "evo-gate-counts", "evo-empty-gate-set", "evo-empty-optimizers",
        "evo-gate-set-string", "evo-optimizers-string", "evo-gate-set-number",
        "evo-one-qubit", "evo-one-qubit-single-gates", "evo-c-q-nan",
        "evo-c-e-negative", "evo-target-fitness-nan", "evo-g-max-negative",
        "evo-prog-window-negative", "evo-prog-window-zero", "evo-unknown-key",
        "evo-seed-negative", "evo-seed-float", "evo-seed-string", "evo-seed-bool",
        "evo-mu-float", "evo-mu-string", "evo-g-max-bool", "evo-c-q-bool",
        "evo-gamma-string", "evo-opt-budget-zero"])
def test_bad_register_size_exits_2(flags, config, message, tmp_path, capsys):
    target, cfg = quick_learn_evo_inputs(tmp_path)
    if flags:
        argv = ["learn-ansatz", *flags, "--restarts", "1", "--budget", "10"]
    else:
        if isinstance(config, dict):
            config = {**json.loads(cfg.read_text()), **config}
        cfg.write_text(json.dumps(config))
        argv = ["learn-evo", "--config", str(cfg)]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--target", str(target), "--seed", "0", "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# each count used to be a plain int: hankel and learn-ansatz --reps exited 0
# on -1, learn-ansatz --restarts 0 and --budget 0 and landscape --steps -3
# exited 1 from inside the library. hankel --tol -1 exited 1 and --tol nan
# exited 0 with rank 0; landscape --steps 29 exited 1 after the walk had
# written samples.csv, and --rates abc and -0.5 exited 1; hankel --max-len 9
# and distribution --t 13 exited 1 from a budget inside the library. On a
# corpus target, hankel built every window table up to 2 * --max-len before
# the side budget refused --max-len, which on a large corpus took hundreds of
# MB; no case may tabulate a corpus. A --seed of -1 exited 1 from numpy's
# "expected non-negative integer", and reproduce table2 exited 0 on it.
# The learners held every sequence of each target length with no budget:
# learn-evo with n_max 20 on a binary corpus exited 0 at a 1.43 GB peak,
# learn-ansatz --t 24 died allocating its levels, and a table of length 13
# in a CSV target was fitted; learn-ansatz --t 0 was a plain int. landscape
# --rates 0.1,0.10 ran two walks and kept only the second
@pytest.mark.parametrize("argv,message", [
    (["hankel", "--target", "{target}", "--max-len", "-1"], "must be >= 0"),
    (["learn-ansatz", "--target", "{target}", "--reps", "-1"], "must be >= 0"),
    (["learn-ansatz", "--target", "{target}", "--restarts", "0"], "must be >= 1"),
    (["learn-ansatz", "--target", "{target}", "--budget", "0"], "must be >= 1"),
    (["landscape", "--steps", "-3"], "must be >= 1"),
    (["hankel", "--target", "{target}", "--max-len", "1", "--tol", "-1"],
     "must be finite and > 0"),
    (["hankel", "--target", "{target}", "--max-len", "1", "--tol", "nan"],
     "must be finite and > 0"),
    (["landscape", "--steps", "29"], "--steps must be >= 30"),
    (["landscape", "--steps", "30", "--rates", "abc"], "invalid _rates value"),
    (["landscape", "--steps", "30", "--rates", "0.1,-0.5"],
     "must be finite and > 0"),
    (["landscape", "--steps", "30", "--rates", "0.1,0.10"],
     "rate 0.1 is repeated in 0.1,0.10"),
    (["hankel", "--model", "{market}", "--max-len", "9"],
     "Hankel budget exceeded: 1023 x 1023"),
    (["hankel", "--target", "{target}", "--max-len", "9"],
     "Hankel budget exceeded: 1023 x 1023"),
    (["hankel", "--target", "{corpus}", "--max-len", "12"],
     "Hankel budget exceeded: 8191 x 8191"),
    (["distribution", "--model", "{market}", "--t", "13"],
     "table of size 2^13 exceeds the supported budget"),
    (["simulate", "--model", "{market}", "--t", "2", "--seed", "-1"],
     "must be >= 0, got -1"),
    (["learn-ansatz", "--target", "{target}", "--seed", "-1"],
     "must be >= 0, got -1"),
    (["learn-evo", "--target", "{target}", "--seed", "-1"],
     "must be >= 0, got -1"),
    (["landscape", "--seed", "-1"], "must be >= 0, got -1"),
    (["reproduce", "table2", "--seed", "-1"], "must be >= 0, got -1"),
    (["learn-evo", "--target", "{corpus}", "--config", "{config}"],
     "table of size 2^20 exceeds the supported budget"),
    (["learn-ansatz", "--target", "{corpus}", "--t", "24"],
     "table of size 2^24 exceeds the supported budget"),
    (["learn-ansatz", "--target", "{long}"],
     "table of size 2^13 exceeds the supported budget"),
    (["learn-ansatz", "--target", "{target}", "--t", "0"], "must be >= 1, got 0"),
], ids=["hankel-max-len", "ansatz-reps", "ansatz-restarts", "ansatz-budget",
        "landscape-steps", "hankel-tol-negative", "hankel-tol-nan",
        "landscape-steps-below-30", "landscape-rates-text",
        "landscape-rates-negative", "landscape-rates-repeated",
        "hankel-model-max-len-budget",
        "hankel-target-max-len-budget", "hankel-corpus-max-len-budget",
        "distribution-t-budget", "simulate-seed", "ansatz-seed", "evo-seed",
        "landscape-seed", "reproduce-seed", "evo-n-max-budget",
        "ansatz-t-budget", "ansatz-csv-budget", "ansatz-t-zero"])
def test_bad_count_exits_2(argv, message, market_file, tmp_path, capsys,
                           monkeypatch):
    def tabulate(corpus, max_len):
        raise AssertionError("corpus tabulated before the input checks")

    monkeypatch.setattr(qhmm.lang, "tables_from_corpus", tabulate)
    target, config = quick_learn_evo_inputs(tmp_path)
    config.write_text(json.dumps({"n_max": 20, "dim_s": 2, "dim_e": 2, "mu": 2,
                                  "lambda": 1, "g_max": 0}))
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("0110100110\n1001011001\n")
    long = tmp_path / "long.csv"
    long.write_text("sequence,probability\n0101010101010,1.0\n")
    out = tmp_path / "out"
    argv = [a.format(target=target, market=market_file, corpus=corpus,
                     config=config, long=long)
            for a in argv]
    if "--seed" not in argv:
        argv += ["--seed", "0"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_hankel_rejected_target_leaves_no_output(tmp_path, capsys):
    # the output directory used to be made before the target was loaded
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("sequence,probability\n0,0.5\n0,0.5\n1,0.5\n")
    # a table short of a needed length, and a gap in the lengths, exited 1;
    # learn-ansatz fitted a target with a gap
    from qhmm.lang import write_tables_csv

    market = classical.market_model()
    short, gap = tmp_path / "short.csv", tmp_path / "gap.csv"
    for path, lengths in ((short, (1, 2, 3)), (gap, (1, 3))):
        write_tables_csv(path, [classical.distribution(market, t)
                                for t in lengths], market.alphabet)
    _, cfg = quick_learn_evo_inputs(tmp_path)
    cases = [
        (["hankel", "--target", str(repeated)], "listed twice"),
        (["hankel", "--target", str(short), "--max-len", "2"],
         "tables missing for lengths [4]"),
        (["learn-evo", "--target", str(gap), "--config", str(cfg)],
         "tables missing for lengths [2]"),
        (["learn-ansatz", "--target", str(gap)], "tables missing for lengths [2]"),
    ]
    for i, (argv, message) in enumerate(cases):
        out = tmp_path / f"out{i}"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid target file" in err and message in err, err
        assert not out.exists()


@pytest.mark.parametrize("argv,path", [
    (["distribution", "--model", "{binary}", "--t", "1"], "model file"),
    (["simulate", "--model", "{binary}", "--t", "1", "--seed", "0"], "model file"),
    (["hankel", "--target", "{binary}"], "target file"),
    (["learn-ansatz", "--target", "{binary}", "--seed", "0"], "target file"),
    (["learn-evo", "--target", "{target}", "--config", "{binary}"], "config"),
], ids=["distribution", "simulate", "hankel", "learn-ansatz", "learn-evo"])
def test_non_utf8_input_is_refused_as_unreadable(argv, path, tmp_path, capsys):
    # regression: a file that is not UTF-8 exited 1 with the codec's message,
    # naming no file
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00bad")
    target, _ = quick_learn_evo_inputs(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([a.format(binary=binary, target=target) for a in argv]
             + ["--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot read {path} {binary}: 'utf-8' codec can't decode")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["learn-ansatz", "--target", "{half}"],
    ["learn-evo", "--target", "{half}", "--config", "{cfg}"],
    ["landscape", "--model", "{nameless}", "--steps", "30"],
], ids=["learn-ansatz", "learn-evo", "landscape"])
def test_refused_command_without_seed_prints_one_line(argv, tmp_path, capsys):
    # regression: learn-ansatz, learn-evo and landscape resolved a missing
    # --seed before their inputs were checked, so a refused input printed
    # the generated seed above its error
    half = tmp_path / "half.csv"
    half.write_text("sequence,probability\n0,0.25\n1,0.25\n")
    _, cfg = quick_learn_evo_inputs(tmp_path)
    config = json.loads(cfg.read_text())
    del config["seed"]  # a config seed would stand for --seed
    cfg.write_text(json.dumps(config))
    nameless = tmp_path / "nameless.json"
    model = json.loads(Path(_walk_model(tmp_path, "walk")).read_text())
    del model["alphabet"]
    nameless.write_text(json.dumps(model))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([a.format(half=half, cfg=cfg, nameless=nameless) for a in argv]
             + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def _set(key, value):
    return lambda data: data.__setitem__(key, value)


def _set_entry(key, value):  # the first entry of a classical matrix
    return lambda data: data[key][0].__setitem__(0, value)


def _set_groups(value):  # a Kraus file's symbol -> operators mapping
    return lambda data: data["channel"].__setitem__("groups", value)


def _set_at(path, value):  # the field at a path of keys and list indices
    def mutate(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return mutate


def _gaussian4_groups_list(data):  # the quantized gaussian4 file's 56 operators
    groups = models.qhmm_to_json(models.quantize_classical(
        classical.gaussian4_model()))["channel"]["groups"]
    data["channel"]["groups"] = [op for ops in groups.values() for op in ops]


def _gaussian4_entry_missing(data):  # the quantized gaussian4 file, one re short
    data.update(models.qhmm_to_json(models.quantize_classical(
        classical.gaussian4_model())))
    data["channel"]["groups"]["0"][3]["re"].pop()


def _circuit_damping():  # the damping file with its circuit for its matrix
    from qhmm.circuits import amplitude_damping_circuit, circuit_to_json

    data = _FIXTURE_MODELS["damping"]()
    del data["unitary"]
    data["circuit"] = circuit_to_json(amplitude_damping_circuit(math.pi / 2).step)
    return data


@pytest.mark.parametrize("model,mutate,detail", [
    ("unitary", _set("dim_e", {}), "dim_e must be a JSON integer, got {}"),
    ("unitary", _set("symbol_map", 1.0),
     "symbol_map must be a JSON list of strings, got 1.0"),
    ("kraus", _set("channel", 3), "channel must be a JSON object, got 3"),
    ("classical", _set("A", 1), "A must be a JSON list, got 1"),
    ("classical", _set_entry("A", float("nan")), "A has non-finite entries"),
    ("kraus", _set_groups([]), "channel.groups must be a JSON object, got []"),
    ("kraus", _set_groups(True), "channel.groups must be a JSON object, got True"),
    ("unitary", _set("dim_e", True), "dim_e must be a JSON integer, got True"),
    ("classical", lambda data: data["alphabet"].__setitem__(1, data["alphabet"][0]),
     "alphabet labels must be distinct"),
    ("unitary", _set("e0", True), "e0 must be a JSON integer, got True"),
    ("unitary", lambda data: data.update(dim_e=2.9, e0=0.7),
     "dim_e must be a JSON integer, got 2.9"),
    ("unitary", _set_at(("unitary", "rows"), 4.0),
     "unitary.rows must be a JSON integer, got 4.0"),
    ("classical", _set("alphabet", "01"),
     "alphabet must be a JSON list of strings, got '01'"),
    ("unitary", _set("alphabet", "01"),
     "alphabet must be a JSON list of strings, got '01'"),
    ("unitary", _set("symbol_map", "01"),
     "symbol_map must be a JSON list of strings, got '01'"),
    ("circuit", _set_at(("circuit", "n_qubits"), 2.5),
     "circuit.n_qubits must be a JSON integer, got 2.5"),
    ("circuit", _set_at(("circuit", "gates", 1, "q", 0), 1.7),
     "circuit.gates[1].q[0] must be a JSON integer, got 1.7"),
    ("circuit", _set_at(("circuit", "gates", 1, "q", 0), "1"),
     "circuit.gates[1].q[0] must be a JSON integer, got '1'"),
    ("circuit", _set_at(("circuit", "gates", 0, "p", 0), "0.3"),
     "circuit.gates[0].p[0] must be a JSON finite number, got '0.3'"),
    ("classical", _set_entry("A", "0.5"), "A[0][0] must be a JSON number, got '0.5'"),
    ("unitary", _set_at(("unitary", "re", 0), "1.0"),
     "unitary.re[0] must be a JSON number, got '1.0'"),
    ("unitary", lambda data: data.pop("unitary"),
     "a unitary model holds exactly one of unitary and circuit"),
    ("kraus", _gaussian4_groups_list, "channel.groups must be a JSON object, got "
     "[{...}, {...}, {...}, {...}, {...}, {...}, ...]"),
    ("kraus", _gaussian4_entry_missing,
     "channel.groups.0[3] JSON entry count does not match rows*cols"),
], ids=["unitary-dim_e-object", "unitary-symbol_map-number", "kraus-channel-number",
        "classical-A-number", "classical-A-nan", "kraus-groups-list", "kraus-groups-bool",
        "unitary-dim_e-bool", "classical-alphabet-repeated", "unitary-e0-bool",
        "unitary-dim_e-e0-float", "unitary-rows-float", "classical-alphabet-string",
        "unitary-alphabet-string", "unitary-symbol_map-string",
        "circuit-n_qubits-float", "circuit-qubit-float", "circuit-qubit-string",
        "circuit-angle-string", "classical-A-entry-string", "unitary-re-entry-string",
        "unitary-no-unitary-or-circuit", "kraus-groups-long-list",
        "kraus-entry-missing"])
def test_model_file_of_wrong_kind_or_not_finite_is_refused(model, mutate, detail,
                                                           tmp_path, capsys):
    # regression: a value of the wrong JSON kind reached the readers as a
    # TypeError or an IndexError and exited 1 with a bare Python message,
    # and a NaN in a classical model passed every check and wrote total=nan;
    # a Kraus file's groups that were not an object raised AttributeError, a
    # unitary of the wrong size for its registers and a classical alphabet
    # with a repeated label loaded and failed later with exit 1. The readers'
    # casts loaded a bool or float count as an int (e0 true as 1, dim_e 2.9
    # as 2), a string of labels as its characters and a numeric string as a
    # number, so each of those exited 0 on another model; a unitary file with
    # neither matrix nor circuit was refused with the bare message 'unitary';
    # a refusal printed the value's whole repr, 12 kB for a groups list of
    # 56 matrices, and a short entry list did not name which of 57 matrices
    data = (_circuit_damping() if model == "circuit" else _FIXTURE_MODELS[
        {"unitary": "damping", "kraus": "market_quantized",
         "classical": "market"}[model]]())
    mutate(data)
    path, out = tmp_path / "model.json", tmp_path / "out"
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        main(["distribution", "--model", str(path), "--t", "2", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == f"error: invalid model file {path}: {detail}\n"
    assert not out.exists()


def test_huge_density_entry_is_refused_without_warnings(tmp_path, capsys):
    # regression: a rho0 entry of 1e308 overflowed in the density check and
    # printed a numpy RuntimeWarning before the error line
    data = _FIXTURE_MODELS["market_quantized"]()
    data["rho0"]["im"][0] = 1e308  # the Hermitian defect 2e308i overflows
    path, out = tmp_path / "huge.json", tmp_path / "out"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings(record=True) as caught, \
            pytest.raises(SystemExit) as exc:
        warnings.simplefilter("always")
        main(["distribution", "--model", str(path), "--t", "2", "--out", str(out)])
    assert exc.value.code == 2 and not caught
    assert capsys.readouterr().err == (f"error: invalid model file {path}: density "
                                       "operator is not Hermitian within tolerance\n")
    assert not out.exists()


_MUTANT_VALUES = [None, True, {}, [], "q", 3, 0.5, 2.9, "0.5", math.nan, 1e308,
                  [[1.0]]]
_MODEL_COMMANDS = [["distribution", "--t", "2"],
                   ["simulate", "--t", "2", "--shots", "20", "--seed", "0"],
                   ["hankel", "--max-len", "1"], ["quantize"]]
_NONFINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def _mutate_one_field(data, rng):
    """Delete one key or list entry of a model file, set it to one of
    ``_MUTANT_VALUES``, or wrap its value in a list or in an object, so that
    a large value changes kind; the field is reached by descending from the
    root, into a non-empty object or list with probability 1/2 at each level.
    Returns whether the field was set to another JSON kind than it held: an
    int where a float was is the same kind, a bool is never a number."""
    node = data
    while True:
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = list(keys)[rng.integers(len(node))]
        child = node[key]
        if not (isinstance(child, (dict, list)) and child and rng.random() < 0.5):
            break
        node = child
    old = node[key]
    values = [*_MUTANT_VALUES, [old], {"x": old}]
    kind = rng.integers(len(values) + 1)
    if kind == len(values):
        del node[key]
        return False
    new = node[key] = values[kind]
    return type(old) is not type(new) and (type(old), type(new)) != (float, int)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mutated_model_file_is_refused_in_one_line_or_runs_finite(seed,
                                                                  tmp_path_factory):
    # the refusal contract on every model command: a one-field mutation of a
    # fixture model file either runs with finite outputs, or exits 2 with one
    # error line before --out exists; never exit 1, never a numpy warning.
    # A field set to another JSON kind always exits 2, and a refusal shows
    # at most 200 characters after the file's path
    rng = np.random.default_rng(seed)
    data = _FIXTURE_MODELS[list(_FIXTURE_MODELS)[rng.integers(len(_FIXTURE_MODELS))]]()
    wrong_kind = _mutate_one_field(data, rng)
    tmp = tmp_path_factory.mktemp("mutant")
    path, out = tmp / "model.json", tmp / "out"
    path.write_text(json.dumps(data))
    for command in _MODEL_COMMANDS:
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = main([*command, "--model", str(path), "--out", str(out)])
            except SystemExit as exc:
                code = exc.code
        err = err.getvalue()
        assert not caught, [str(w.message) for w in caught]
        assert code == 2 or not wrong_kind, (command, data)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert len(err.split(f"{path}: ")[-1].rstrip("\n")) <= 200, err
            assert not out.exists()
            continue
        assert code == 0, err
        texts = [err] + [f.read_text() for f in out.iterdir()]
        assert not any(_NONFINITE.search(t) for t in texts), (command, data)
        shutil.rmtree(out)
