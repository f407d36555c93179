#!/usr/bin/env python3
"""Self-test of the benchmark; exits nonzero on the first failure.

    python3 perfbench/selftest.py [--seed N]

For each workload it runs one round untraced and one traced pair, each in
its own process, and checks that:
- both runs pass every output check (the traced run also checks that each
  layer the prediction table marks active reads nonzero and each idle layer
  reads zero, which catches a hook bound to the wrong name);
- the untraced and traced processes produce identical outputs: costs,
  divergences, Hankel values and digests of the sampled sequences;
- the metric names and units equal the lists in BENCHMARK.json;
- on language, channels.apply_symbol runs exactly once per symbol of every
  Hankel cell, 2·|S|·Σ|s| per Hankel: 38,760 for quantized gaussian4 at 3/3.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """The result line and the full record of one run with a single round."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n"
                 f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def hankel_apply_calls() -> int:
    from workloads import HANKEL_LENGTHS

    from qhmm import classical

    total = 0
    for name, n in HANKEL_LENGTHS.items():
        m = classical.fixtures()[name].m
        side = [k for k in range(n + 1) for _ in range(m**k)]  # lengths
        total += 2 * len(side) * sum(side)
    return total


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    seed = ap.parse_args().seed
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for w in (w["name"] for w in bench["workloads"]):
        plain, plain_rec = run(w, seed, 0)
        traced, traced_rec = run(w, seed, 1)
        for label, res, rec in (("untraced", plain, plain_rec),
                                ("traced", traced, traced_rec)):
            if not res["correct"] or res["failed"]:
                sys.exit(f"FAIL {w} {label}: checks failed "
                         f"{rec['failed_checks']}")
        for label, res, listed in (("end-to-end", plain, end_to_end),
                                   ("per-layer", traced, per_layer)):
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            if units != listed:
                sys.exit(f"FAIL {w}: {label} metrics differ from BENCHMARK.json:"
                         f" {sorted(set(units.items()) ^ set(listed.items()))}")
        if plain_rec["outputs"] != traced_rec["outputs"]:
            sys.exit(f"FAIL {w}: traced outputs differ from untraced")
        if w == "language":
            calls = traced["metrics"]["channels.apply_symbol.calls"]["value"]
            if calls != hankel_apply_calls():
                sys.exit(f"FAIL language: {calls} apply_symbol calls, "
                         f"expected {hankel_apply_calls()}")
        print(f"ok {w}: {plain['attempted']} + {traced['attempted']} checks, "
              f"outputs identical traced/untraced")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
