#!/usr/bin/env python3
"""qhmm benchmark: one seeded workload, one caller, one process at a time.

    python3 perfbench/run.py --workload {ansatz,evolve,language} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
The run repeats rounds of the workload's fixed work, each waiting for the
previous one (a closed loop with one client), until the rounds have taken
``--seconds``, and checks every round's outputs. Each round runs in a fresh
worker process, one after another: on a shared host the speed of a process
stays within a few percent over its life but differs by up to 20% from one
process to the next, so spreading a run over processes averages that out.
Set-up is timed separately, in fresh processes.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics. With ``--trace 1`` every round runs twice, once
without and once with span recording (alternating which goes first), and
the last line carries the per-layer metrics of the traced rounds plus the
tracing overhead. The lines before it print every reported number by name
and unit. The full record, with the environment, goes to ``perfbench/out/``.
"""

import os

# One BLAS thread per process, fixed before numpy loads: the thread count
# moves sampling and the Hankel build in opposite directions.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_RUNS = 7
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "scaled_evals_per_s": "1/s",
                    "peak_rss_mb": "MiB"}


def load_program() -> None:
    """Import qhmm from this checkout's sources, or exit without a result."""
    if not (SRC / "qhmm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qhmm sources under {SRC}; "
                 "run from the root of a repository checkout")
    sys.path.insert(0, str(SRC))
    import qhmm

    if Path(qhmm.__file__).resolve().parent != (SRC / "qhmm").resolve():
        sys.exit(f"perfbench: imported qhmm from {qhmm.__file__}, not {SRC}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="qhmm benchmark")
    ap.add_argument("--workload", required=True,
                    choices=["ansatz", "evolve", "language"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measure for this long (at least one round)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # child processes: set-up timing, and one measured round
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--round", type=int, default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def child(args, *extra: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--workload",
            args.workload, "--seed", str(args.seed), "--trace", str(args.trace),
            *extra]


def time_setups(args) -> tuple[list[float], list[float]]:
    """Wall time from process start to 'ready' (qhmm imported, targets,
    models and files built), in SETUP_RUNS fresh processes, one at a time;
    and the same times scaled to nominal host speed by the reference
    readings taken before and after each process (see hostspeed.py)."""
    from hostspeed import REF_NOMINAL_S, reference_s

    times, scaled = [], []
    reference_s()  # warm-up: the first reading in a process runs slow
    before = reference_s()
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        with subprocess.Popen(child(args, "--setup-only"), stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process exited with code {code}")
        after = reference_s()
        scaled.append(times[-1] * 2 * REF_NOMINAL_S / (before + after))
        before = after
    return times, scaled


def run_worker(args, r: int) -> dict:
    """Round ``r`` in a fresh process; returns the record it prints."""
    proc = subprocess.run(child(args, "--round", str(r)), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"round {r} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = "unknown (git failed)"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def timing(values: list[float]) -> dict:
    """Median plus the highest of p90/p99/p99.9 that has at least ten samples
    beyond it, with the sample count."""
    values = sorted(values)
    n = len(values)
    out = {"p50": statistics.median(values), "n": n}
    for p in (99.9, 99.0, 90.0):
        if n * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = values[min(n - 1, int(p / 100 * n))]
            break
    return out


def run_round(workload, inst, r: int, traced: bool):
    inst.recording, inst.round_id = traced, r
    t0 = perf_counter()
    rnd = workload.run_round(r)
    seconds = perf_counter() - t0
    inst.recording = False
    return rnd, seconds


def worker(args) -> int:
    """Set up, run round ``args.round`` (untraced, and traced too when
    tracing, alternating which goes first), check it, and print its record
    as one JSON line."""
    from tracing import Instrument, round_layers
    from workloads import WORKLOADS, Checks

    t_start = perf_counter()
    r = args.round
    checks = Checks()
    inst = Instrument(trace=bool(args.trace))
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
        workload = WORKLOADS[args.workload](args.seed, Path(tmp),
                                            lambda: inst.evals)
        inst.install()
        try:
            if args.trace:
                order = (False, True) if r % 2 == 0 else (True, False)
                pair = {traced: run_round(workload, inst, r, traced)
                        for traced in order}
                (rnd, dt), (traced_rnd, traced_s) = pair[False], pair[True]
                checks.add("traced_outputs_identical",
                           traced_rnd.outputs == rnd.outputs)
            else:
                (rnd, dt), traced_s = run_round(workload, inst, r, False), None
        finally:
            inst.uninstall()
        workload.check_round(rnd, checks)
    record = {
        "s": dt, "traced_s": traced_s, "stages": rnd.stages,
        "scaled": rnd.scaled, "reference_s": rnd.reference, "work": rnd.work,
        "nominal": workload.nominal, "outputs": rnd.outputs,
        "checks": checks.results,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        record["layers"] = round_layers(inst.spans)
        inst.write(OUT / f"{args.workload}-seed{args.seed}-round{r}-spans.jsonl.gz",
                   t_start)
    print(json.dumps(record))
    return 0


def evals_per_s(records: list[dict], nominal: dict, times: str) -> float:
    """Evaluations per second at the workload's nominal mix of stages, over
    the stage times in ``times``: "stages" (wall time) or "scaled" (wall
    time scaled to nominal host speed, see hostspeed.py).

    Each stage's rate is its evaluations over its seconds, summed over the
    run; the result is the nominal evaluations of a round over the time they
    take at those rates. On evolve the seed moves the amount of work by tens
    of percent and the share of each target with it, so a plain total or a
    round time would read seed luck as speed.
    """
    seconds = 0.0
    for stage, n in nominal.items():
        done = sum(rec["work"][stage] for rec in records)
        spent = sum(rec[times][stage] for rec in records)
        seconds += n * spent / done
    return sum(nominal.values()) / seconds


def stage_metrics(records: list[dict], shots: dict) -> dict:
    """Median wall time of each stage; sampler stages also as sequences per
    second."""
    out = {}
    for stage in records[0]["stages"]:
        out[f"{stage}_s"] = statistics.median(rec["stages"][stage]
                                              for rec in records)
    for stage, n in shots.items():
        out[f"shots_per_s.{stage}"] = statistics.median(
            n / rec["stages"][stage] for rec in records)
    return out


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("converged_frac") or name == "host_factor":
        return "ratio"
    if name.endswith("us_per_shot_step"):
        return "us"
    if name.endswith((".calls", ".evals", ".evals_p50")):
        return "count"
    if name.startswith("shots_per_s") or name == "evals_per_s":
        return "1/s"
    if name.endswith(("_s", ".s_p50", "_s.p50")):
        return "s"
    return "-"


def expectation_checks(per_layer: dict, workload: str, checks) -> None:
    """Layer metrics the prediction table marks active on this workload read
    nonzero; those it marks idle read zero."""
    table = json.loads((BENCH / "predictions.json").read_text())["per_layer"]
    for name, row in table.items():
        if workload in row["active_on"]:
            checks.add(f"active.{name}", per_layer[name] > 0)
        if workload in row["idle_on"]:
            checks.add(f"idle.{name}", per_layer[name] == 0)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    from tracing import per_layer_metrics
    from workloads import WORKLOADS, Checks

    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
            WORKLOADS[args.workload](args.seed, Path(tmp), lambda: 0)
            print("ready", flush=True)
        return 0
    if args.round is not None:
        return worker(args)

    setup_times, scaled_setup_times = time_setups(args)
    records, measured = [], 0.0
    while not records or measured < args.seconds:
        rec = run_worker(args, len(records))
        records.append(rec)
        measured += rec["s"] + (rec["traced_s"] or 0.0)

    cls = WORKLOADS[args.workload]
    checks = Checks()
    for rec in records:
        for name, ok in rec["checks"]:
            checks.add(name, ok)
    outputs = [rec["outputs"] for rec in records]
    cls.check_run(outputs, checks)
    times = [rec["s"] for rec in records]
    report = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "rounds": len(records),
        "round_s": timing(times),
        "setup_runs_s": setup_times,
        "scaled_setup_runs_s": scaled_setup_times,
        "run_s": statistics.median(times),
        "stages": stage_metrics(records, getattr(cls, "shots", {})),
        "quality": cls.quality(outputs),
        "per_round": [{k: rec[k] for k in ("s", "stages", "scaled", "reference_s",
                                           "work", "rss_mb")}
                      for rec in records],
        "outputs": outputs,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = per_layer_metrics([rec["layers"] for rec in records])
        # each pair of rounds ran back to back on the same inputs
        metrics["trace.overhead_s"] = statistics.median(
            rec["traced_s"] - rec["s"] for rec in records)
        expectation_checks(metrics, args.workload, checks)
        report["traced_round_s"] = timing([rec["traced_s"] for rec in records])
    else:
        metrics = {
            "setup_s": statistics.median(scaled_setup_times),
            "scaled_evals_per_s": evals_per_s(records, records[0]["nominal"],
                                              "scaled"),
            "peak_rss_mb": max(rec["rss_mb"] for rec in records),
        }
    report["metrics"] = metrics
    report["evals_per_s"] = evals_per_s(records, records[0]["nominal"], "stages")
    report["unscaled_setup_s"] = statistics.median(setup_times)
    # how much slower than nominal the host ran, median over rounds
    report["host_factor"] = statistics.median(
        sum(rec["stages"].values()) / sum(rec["scaled"].values())
        for rec in records)
    report["failed_frac"] = len(checks.failed) / len(checks.results)
    report["failed_checks"] = checks.failed
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str))

    shown = {**metrics, "unscaled_setup_s": report["unscaled_setup_s"],
             "evals_per_s": report["evals_per_s"],
             "host_factor": report["host_factor"],
             "run_s": report["run_s"], **report["stages"],
             **report["quality"], "failed_frac": report["failed_frac"]}
    for name, value in shown.items():
        print(f"{name:44s} {value:<14.6g} {unit_of(name)}")
    print(json.dumps({"environment": report["environment"],
                      "rounds": report["rounds"],
                      "round_s": report["round_s"],
                      "failed_checks": checks.failed}))
    print(json.dumps({
        "correct": not checks.failed,
        "attempted": len(checks.results),
        "failed": len(checks.failed),
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
