#!/usr/bin/env python3
"""Run one fixed matrix of qhmm commands in two source trees and compare
every output file.

    python3 scripts/compare_outputs.py PARENT CHANGE --out DIR [--quick]

PARENT and CHANGE are checkouts of qhmm (each with its own ``src/``). Each
tree writes the fixtures with its ``scripts/make_fixture_models.py`` into
DIR/parent/fixtures and DIR/change/fixtures, which are compared like any
output; both trees then run every command of the matrix on PARENT's
fixtures, each command in its own process with that tree's ``src`` on
PYTHONPATH, the parent's run of a command right before the change's, and
write to DIR/parent/CASE and DIR/change/CASE. Two raw corpora (two and
four symbols), two circuit-form models (two and three qubits), an
unreadable model, a model with a NaN, a model with a value of the wrong
JSON kind, a Kraus model whose groups are a list, a Kraus model with an
entry of 1e308, a file that is not UTF-8, a target whose length-1 table
totals 0.5 and five learn-evo configs are written beside the fixtures by
this script, so that neither tree's code builds them. A command's stdout
is kept as CASE/stdout.txt; stderr, which carries timings, is not
compared. The refusal cases are inputs that must exit 2
before any output is written; their stderr holds only the ``error:`` line
and is kept as CASE/stderr.txt.

Every output file gets one line with one verdict:

- ``identical``: the same bytes;
- ``numeric``: the same text once every number is masked, and as many
  numbers, with the largest absolute and relative difference between them;
- ``different``: anything else (a file on one side only, a changed word, a
  different count of numbers, an exit code other than 0, or other than 2
  in a refusal case), with the first line that differs.

The exit code is 0 only when every file is ``identical``, so a declared
output change reads as a nonzero exit plus the table to report. Each
command's wall time in both trees goes to stderr, beside the count of each
verdict. ``--quick`` runs a reduced matrix of fast commands.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

# a circuit-form model with the gates whose phases differ most (P, CRY, CRZ)
# beside fixed gates, written here so that neither tree's code builds it
CIRCUIT_MODEL = {
    "type": "unitary", "alphabet": ["0", "1"], "dim_s": 2, "dim_e": 2,
    "symbol_map": ["0", "1"],
    "rho0": {"rows": 2, "cols": 2, "re": [0.5, 0.0, 0.0, 0.5],
             "im": [0.0, 0.0, 0.0, 0.0]},
    "e0": 0, "reset_mode": "reset", "measured": "emission",
    "circuit": {"n_qubits": 2, "gates": [
        {"t": "H", "q": [0], "p": []},
        {"t": "P", "q": [1], "p": [0.9]},
        {"t": "CRY", "q": [0, 1], "p": [1.1]},
        {"t": "CRZ", "q": [1, 0], "p": [0.7]},
        {"t": "RX", "q": [1], "p": [0.4]},
        {"t": "CX", "q": [0, 1], "p": []},
    ]},
}
# a three-qubit circuit-form model: a 2-dim system and a 4-dim emission
# register, one symbol per emission, angle gates on every qubit
CIRCUIT3_MODEL = {
    "type": "unitary", "alphabet": ["a", "b", "c", "d"], "dim_s": 2,
    "dim_e": 4, "symbol_map": ["a", "b", "c", "d"],
    "rho0": {"rows": 2, "cols": 2, "re": [0.7, 0.1, 0.1, 0.3],
             "im": [0.0, 0.2, -0.2, 0.0]},
    "e0": 0, "reset_mode": "reset", "measured": "emission",
    "circuit": {"n_qubits": 3, "gates": [
        {"t": "H", "q": [1], "p": []},
        {"t": "RY", "q": [0], "p": [0.8]},
        {"t": "CRY", "q": [0, 2], "p": [1.3]},
        {"t": "CX", "q": [1, 0], "p": []},
        {"t": "RZ", "q": [2], "p": [0.5]},
        {"t": "CRZ", "q": [2, 1], "p": [2.1]},
        {"t": "RX", "q": [1], "p": [0.3]},
        {"t": "P", "q": [0], "p": [1.7]},
        {"t": "CX", "q": [2, 0], "p": []},
    ]},
}
# refused model files: a classical two-state model with one NaN in A, which
# JSON can spell, and the circuit model with a JSON object for dim_e
NAN_MODEL = ('{"alphabet": ["0", "1"], "A": [[NaN, 0.5], [0.5, 0.5]], '
             '"B": [[0.5, 0.5], [0.5, 0.5]], "x0": [0.5, 0.5]}\n')
WRONG_KIND_MODEL = {**CIRCUIT_MODEL, "dim_e": {}}
# refused Kraus files: a one-state model whose groups are a JSON list, and
# one whose only operator entry is 1e308, so its completeness sum overflows
ONE_STATE = {"rows": 1, "cols": 1, "re": [1.0], "im": [0.0]}
GROUPS_LIST_MODEL = {"type": "kraus", "alphabet": ["0"], "rho0": ONE_STATE,
                     "channel": {"dim": 1, "groups": [[ONE_STATE]]}}
HUGE_KRAUS_MODEL = {"type": "kraus", "alphabet": ["0"], "rho0": ONE_STATE,
                    "channel": {"dim": 1, "groups": {"0": [
                        {**ONE_STATE, "re": [1e308]}]}}}
EVO_CONFIGS = {
    "market": {"mu": 4, "lambda": 2, "g_max": 2, "seed": 3},
    "gaussian4": {"mu": 4, "lambda": 2, "g_max": 2, "seed": 3, "n_max": 3,
                  "dim_s": 2, "dim_e": 4, "opt_budget": 30,
                  "gate_set": ["X", "Y", "RX", "RY", "P", "CX", "CRY"]},
    # no n_max: the default window of a four-symbol corpus must stay inside
    # the table budget
    "corpus4": {"mu": 4, "lambda": 2, "g_max": 2, "seed": 3, "dim_s": 2,
                "opt_budget": 20},
    # refused: a misspelt key, and the two-symbol corpus windowed past the
    # table budget
    "bad_key": {"mu": 4, "lamda": 2, "seed": 3},
    "corpus_budget": {"mu": 4, "lambda": 2, "seed": 3, "n_max": 13},
}
MODELS = ["market", "gaussian4", "damping", "monras", "market_quantized",
          "circuit", "circuit3"]
# simulate takes classical and unitary-form models only
SIMULATED = ["market", "gaussian4", "damping", "circuit", "circuit3"]


def corpus_lines(count: int = 60, length: int = 16,
                 symbols: str = "01") -> list[str]:
    """A raw corpus from a fixed linear congruential sequence: a symbol
    repeats the last one unless the generator's top bits say otherwise, and
    then moves on by 1 to m - 1 places, so the windows of each length are
    not uniform."""
    state, last, lines, m = 12345, 0, [], len(symbols)
    for _ in range(count):
        line = []
        for _ in range(length):
            state = (state * 1103515245 + 12345) % 2**31
            if state >> 29 == 0:  # one time in four
                last = (last + 1 + (state >> 16) % (m - 1)) % m
            line.append(symbols[last])
        lines.append("".join(line))
    return lines


def matrix(quick: bool) -> list[tuple[str, list[str]]]:
    """(case, arguments) of every command; paths are relative to the
    fixtures directory, written as {fx}."""
    model = "{fx}/%s.json"
    market, gauss = "{fx}/market_target.csv", "{fx}/gaussian4_target.csv"
    # the multi-factor, three-qubit kernel of the Monras fits
    su2 = ["learn-ansatz", "--target", gauss, "--template",
           "efficient_su2_rz_rx", "--reps", "3", "--restarts", "2", "--seed", "3"]
    corpus = "{fx}/corpus.txt"
    # the corpus window and the Hankel dim_s estimate of a config without
    # n_max or dim_s
    evo_corpus = ("learn-evo-corpus", ["learn-evo", "--target", corpus,
                                       "--config", "{fx}/evo_market.json"])
    if quick:
        return [
            ("distribution-market", ["distribution", "--model", model % "market",
                                     "--t", "3"]),
            ("hankel-circuit", ["hankel", "--model", model % "circuit",
                                "--max-len", "1"]),
            ("simulate-circuit", ["simulate", "--model", model % "circuit",
                                  "--t", "3", "--shots", "200", "--seed", "5"]),
            ("quantize-market", ["quantize", "--model", model % "market"]),
            ("learn-ansatz-cbla", ["learn-ansatz", "--target", market,
                                   "--optimizer", "cbla", "--restarts", "2",
                                   "--budget", "120", "--seed", "3"]),
            ("learn-evo-market", ["learn-evo", "--target", market, "--config",
                                  "{fx}/evo_market.json"]),
            ("learn-ansatz-su2-gaussian4", su2 + ["--budget", "40"]),
            evo_corpus,
        ]
    cases = []
    for name in MODELS:
        cases.append((f"distribution-{name}", ["distribution", "--model",
                                               model % name, "--t", "4"]))
        cases.append((f"hankel-{name}", ["hankel", "--model", model % name,
                                         "--max-len", "2"]))
    for name in SIMULATED:
        cases.append((f"simulate-{name}", ["simulate", "--model", model % name,
                                           "--t", "3", "--shots", "2000",
                                           "--seed", "5"]))
    for name in ("market", "gaussian4"):
        cases.append((f"quantize-{name}", ["quantize", "--model", model % name]))
    cases.append(("hankel-target", ["hankel", "--target", market,
                                    "--max-len", "2"]))
    cases.append(("hankel-corpus", ["hankel", "--target", corpus,
                                    "--max-len", "2"]))
    cases.append(evo_corpus)
    cases.append(("learn-evo-corpus4", ["learn-evo", "--target",
                                        "{fx}/corpus4.txt", "--config",
                                        "{fx}/evo_corpus4.json"]))
    cases.append(("learn-ansatz-corpus", [
        "learn-ansatz", "--target", corpus, "--t", "3", "--restarts", "2",
        "--budget", "300", "--seed", "3"]))
    for name, target in (("market", market), ("gaussian4", gauss)):
        cases.append((f"learn-evo-{name}", ["learn-evo", "--target", target,
                                            "--config", f"{{fx}}/evo_{name}.json"]))
    for label in ("nm", "cbla", "bfsg"):
        cases.append((f"learn-ansatz-{label}", [
            "learn-ansatz", "--target", market, "--optimizer", label,
            "--restarts", "2", "--budget", "300", "--seed", "3"]))
    cases.append(("learn-ansatz-su2-gaussian4", su2 + ["--budget", "300"]))
    cases.append(("landscape", ["landscape", "--steps", "40", "--seed", "0"]))
    cases.append(("reproduce-all", ["reproduce", "all", "--seed", "3"]))
    return cases


def refusals(quick: bool) -> list[tuple[str, list[str]]]:
    """(case, arguments) of every command that must exit 2, as in
    ``matrix``."""
    market = "{fx}/market.json"
    cases = [("refuse-distribution-t", ["distribution", "--model", market,
                                        "--t", "13"]),
             ("refuse-binary-model", ["distribution", "--model",
                                      "{fx}/binary.json", "--t", "2"]),
             ("refuse-huge-kraus-model", ["distribution", "--model",
                                          "{fx}/huge_kraus.json", "--t", "2"])]
    if quick:
        return cases
    return cases + [
        ("refuse-unreadable-model", ["distribution", "--model",
                                     "{fx}/unreadable.json", "--t", "2"]),
        ("refuse-nan-model", ["distribution", "--model", "{fx}/nan.json",
                              "--t", "2"]),
        ("refuse-wrong-kind-model", ["distribution", "--model",
                                     "{fx}/wrong_kind.json", "--t", "2"]),
        ("refuse-groups-list-model", ["distribution", "--model",
                                      "{fx}/groups_list.json", "--t", "2"]),
        ("refuse-config-key", ["learn-evo", "--target",
                               "{fx}/market_target.csv", "--config",
                               "{fx}/evo_bad_key.json"]),
        ("refuse-binary-config", ["learn-evo", "--target",
                                  "{fx}/market_target.csv", "--config",
                                  "{fx}/binary.json"]),
        # no --seed: the refusal comes before a seed would be generated
        ("refuse-seedless-target", ["learn-ansatz", "--target",
                                    "{fx}/half_target.csv"]),
        ("refuse-hankel-max-len", ["hankel", "--model", market,
                                   "--max-len", "9"]),
        ("refuse-evo-corpus-budget", ["learn-evo", "--target",
                                      "{fx}/corpus.txt", "--config",
                                      "{fx}/evo_corpus_budget.json"]),
        ("refuse-ansatz-dims", ["learn-ansatz", "--target",
                                "{fx}/market_target.csv", "--dim-e", "3",
                                "--seed", "3"]),
    ]


def write_fixtures(tree: Path, out: Path) -> None:
    run_in(tree, [str(tree / "scripts" / "make_fixture_models.py"), "--out",
                  str(out)], None, module=False)
    (out / "circuit.json").write_text(json.dumps(CIRCUIT_MODEL, indent=2) + "\n")
    (out / "circuit3.json").write_text(json.dumps(CIRCUIT3_MODEL, indent=2) + "\n")
    (out / "unreadable.json").write_text('{"type": "unitary",\n')
    (out / "nan.json").write_text(NAN_MODEL)
    (out / "wrong_kind.json").write_text(json.dumps(WRONG_KIND_MODEL) + "\n")
    (out / "groups_list.json").write_text(json.dumps(GROUPS_LIST_MODEL) + "\n")
    (out / "huge_kraus.json").write_text(json.dumps(HUGE_KRAUS_MODEL) + "\n")
    (out / "binary.json").write_bytes(b"\xff\xfe\x00{}\n")
    (out / "half_target.csv").write_text("sequence,probability\n0,0.25\n1,0.25\n")
    (out / "corpus.txt").write_text("\n".join(corpus_lines()) + "\n")
    (out / "corpus4.txt").write_text(
        "\n".join(corpus_lines(symbols="abcd")) + "\n")
    for name, cfg in EVO_CONFIGS.items():
        (out / f"evo_{name}.json").write_text(json.dumps(cfg) + "\n")


def run_in(tree: Path, args: list[str], log: Path | None, module=True,
           err: Path | None = None) -> int:
    """Run qhmm's CLI (or a script) with the tree's src first on the path,
    its stdout to ``log`` and its stderr to ``err`` (or nowhere); returns
    the exit code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tree / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    cmd = [sys.executable] + (["-m", "qhmm.cli"] if module else []) + args
    with open(log or os.devnull, "w") as fh, open(err or os.devnull, "w") as eh:
        return subprocess.run(cmd, env=env, stdout=fh, stderr=eh,
                              cwd=tree).returncode


def run_case(tree: Path, fixtures: Path, target: Path, args,
             refused: bool) -> tuple[int, float]:
    """Run one command in the tree, writing to ``target``, which a refused
    command leaves to its stdout and stderr; returns its exit code and wall
    time in seconds."""
    target.mkdir(parents=True, exist_ok=True)
    args = [a.format(fx=fixtures) for a in args] + [
        "--out", str(target / "out" if refused else target)]
    start = time.perf_counter()
    code = run_in(tree, args, target / "stdout.txt",
                  err=target / "stderr.txt" if refused else None)
    return code, time.perf_counter() - start


NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def verdict(a: bytes, b: bytes) -> tuple[str, str]:
    """(verdict, detail) of one file's two versions."""
    if a == b:
        return "identical", ""
    ta, tb = a.decode(errors="replace"), b.decode(errors="replace")
    na, nb = NUMBER.findall(ta), NUMBER.findall(tb)
    if NUMBER.sub("#", ta) == NUMBER.sub("#", tb) and len(na) == len(nb):
        pairs = [(float(x), float(y)) for x, y in zip(na, nb) if x != y]
        abs_diff = max(abs(x - y) for x, y in pairs)
        rel_diff = max(abs(x - y) / (max(abs(x), abs(y)) or 1) for x, y in pairs)
        return "numeric", f"max abs {abs_diff:.3g}, max rel {rel_diff:.3g}"
    la, lb = ta.splitlines(), tb.splitlines()
    line = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y),
                min(len(la), len(lb)))
    shown = [lines[line][:60] if line < len(lines) else "<end>"
             for lines in (la, lb)]
    return "different", f"line {line + 1}: {shown[0]!r} vs {shown[1]!r}"


def compare(parent: Path, change: Path) -> list[tuple[str, str, str]]:
    """(path, verdict, detail) of every file under either directory."""
    files = sorted({p.relative_to(root) for root in (parent, change)
                    for p in root.rglob("*") if p.is_file()})
    rows = []
    for rel in files:
        a, b = parent / rel, change / rel
        if not (a.exists() and b.exists()):
            rows.append((str(rel), "different",
                         f"only in {'parent' if a.exists() else 'change'}"))
        else:
            rows.append((str(rel), *verdict(a.read_bytes(), b.read_bytes())))
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="the parent tree")
    ap.add_argument("change", type=Path, help="the changed tree")
    ap.add_argument("--out", type=Path, required=True,
                    help="output directory, new or empty")
    ap.add_argument("--quick", action="store_true", help="the reduced matrix")
    args = ap.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    out = args.out.resolve()
    if out.exists() and any(out.iterdir()):
        ap.error(f"--out {out} is not empty: its old files would be compared")
    for side, tree in trees.items():
        (out / side / "fixtures").mkdir(parents=True)
        write_fixtures(tree, out / side / "fixtures")
    refused = dict(refusals(args.quick))
    cases = matrix(args.quick) + list(refused.items())
    runs = {case: {side: run_case(tree, out / "parent" / "fixtures",
                                  out / side / case, case_args, case in refused)
                   for side, tree in trees.items()}
            for case, case_args in cases}
    codes = {case: [runs[case][side][0] for side in trees] for case, _ in cases}
    rows = [(f"{case}/exit", "identical", "")
            if codes[case] == [2 if case in refused else 0] * 2 else
            (f"{case}/exit", "different",
             f"exit {codes[case][0]} vs {codes[case][1]}")
            for case, _ in cases]
    rows += compare(out / "parent", out / "change")
    width = max(len(path) for path, _, _ in rows)
    report = "\n".join(f"{v:<10} {path:<{width}} {detail}".rstrip()
                       for path, v, detail in rows)
    (out / "report.txt").write_text(report + "\n")
    print(report)
    counts = {v: sum(r[1] == v for r in rows)
              for v in ("identical", "numeric", "different")}
    name_width = max(len(case) for case, _ in cases)
    print(f"{'wall time (s)':<{name_width}} {'parent':>8} {'change':>8}",
          file=sys.stderr)
    for case, _ in cases:
        seconds = "".join(f" {runs[case][side][1]:8.2f}" for side in trees)
        print(f"{case:<{name_width}}{seconds}", file=sys.stderr)
    print(", ".join(f"{n} {v}" for v, n in counts.items()), file=sys.stderr)
    return 0 if counts["identical"] == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
