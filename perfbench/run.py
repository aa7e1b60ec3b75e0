"""Cold-process benchmark of qwave's three paper runs.

    python3 perfbench/run.py --workload noisy_sweep --seed 1 --seconds 60 --trace 0

A round runs each of the workload's commands in a fresh single-threaded
process that imports `qwave.cli`, as a command-line user would.  With
`--trace 0` the run reports the end-to-end metrics: the fastest round's wall
and CPU time, and medians of set-up time and peak memory.  With `--trace 1`
each cycle is an untraced and a traced round, and the run reports the
per-layer metrics of the traced rounds plus the tracing overhead.  Every round's
outputs are checked against `reference.py`.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  `--workload all` runs
every workload in turn.  See README.md for the workloads and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = HERE / "scratch"
RESULTS = HERE / "results"

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5  # set-up-only processes per run, besides each round's own set-up
RUN_LIMIT_S = 170.0  # a workload's run must end within 180 s, so no child may outlive this


@dataclass(frozen=True)
class Command:
    name: str  # output subdirectory
    args: tuple[str, ...]
    operations: int  # sweep points or training runs
    check: Callable  # (out_dir) -> (failed operations, problems)


NOISY_SWEEP = Command(
    "sweep_p", ("sweep", "--axis", "p", "--n-range", "2:9", "--p", "1e-4,1e-3"), 16, checks.check_noisy_sweep
)
TRAIN = Command(
    "train", ("train", "--n", str(checks.TRAIN_N), "--restarts", "1", "--seed", "0"), 1, checks.check_train_prep
)
NOISELESS_SWEEP = Command("sweep_N", ("sweep", "--axis", "N", "--n-range", "5:13"), 9, checks.check_noiseless_sweep)
WORKLOADS = {"noisy_sweep": (NOISY_SWEEP,), "prep_convergence": (TRAIN, NOISELESS_SWEEP)}
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "child_thread_env": THREAD_ENV,
    }


def spawn(child_args: list[str], deadline: float) -> dict | None:
    """Run child.py in a fresh process; its record plus `setup_s`, or None if it failed."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    command = [sys.executable, str(HERE / "child.py"), str(SRC), *child_args]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=max(deadline - spawned, 1.0)
        )
    except subprocess.TimeoutExpired:
        print(f"child killed at the run's deadline: {' '.join(child_args)}", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("PERFBENCH "):
        print(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    record = json.loads(lines[-1][len("PERFBENCH "):])
    record["setup_s"] = record.pop("ready") - spawned
    return record


def run_command(command: Command, trace: bool, deadline: float) -> tuple[dict | None, int, list[str]]:
    """One command in a fresh process; (record, failed operations, problems)."""
    out = SCRATCH / command.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cli_args = [*command.args, "--workers", "1", "--out", str(out)]
    record = spawn(["--trace" if trace else "--untraced", "--", *cli_args], deadline)
    if record is None:
        return None, command.operations, []
    try:
        failed, problems = command.check(out)
    except (ValueError, KeyError) as exc:  # malformed CSV or JSON
        return record, 0, [f"unreadable output in {out.name}: {exc!r}"]
    return record, failed, problems


def run_round(workload: tuple[Command, ...], trace: bool, deadline: float) -> tuple[dict | None, int, list[str]]:
    """Every command of the workload, one after the other; the record adds up their times."""
    records, failed, problems = [], 0, []
    for command in workload:
        record, command_failed, command_problems = run_command(command, trace, deadline)
        records.append(record)
        failed += command_failed
        problems += command_problems
    if None in records:
        return None, failed, problems
    record = {
        "setup_s": [r["setup_s"] for r in records],
        "command_wall_s": [r["wall_s"] for r in records],
        "wall_s": sum(r["wall_s"] for r in records),
        "cpu_s": sum(r["cpu_s"] for r in records),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
    }
    if trace:
        record["layers"] = {
            key: (max if key.endswith("max_s") else sum)(r["layers"][key] for r in records)
            for key in records[0]["layers"]
        }
    return record, failed, problems


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = WORKLOADS[name]
    machine = machine_record()
    print("machine " + json.dumps(machine))
    if spawn(["--setup-only"], deadline) is None:  # warm-up: bytecode compilation and file cache
        raise RuntimeError("qwave does not start")
    probes = [] if trace else [spawn(["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    setups = [r["setup_s"] for r in probes if r]

    rounds, traced, cycle_s, attempted, failed, problems = [], [], [], 0, 0, []
    start = time.monotonic()
    while True:
        cycle_start = time.monotonic()
        for is_traced in (False, True) if trace else (False,):
            record, round_failed, round_problems = run_round(workload, is_traced, deadline)
            attempted += sum(command.operations for command in workload)
            failed += round_failed
            problems += round_problems
            if record is not None:
                (traced if is_traced else rounds).append(record)
                print(f"round {'traced' if is_traced else 'untraced'}: " + json.dumps(record))
        cycle_s.append(time.monotonic() - cycle_start)
        # Start another cycle only if one as long as the longest so far still fits in the run.
        if len(rounds) + len(traced) == 0 or time.monotonic() - start + max(cycle_s) > seconds:
            break
    for problem in problems:
        print(f"WRONG {name}: {problem}")
    if not rounds or (trace and not traced):
        raise RuntimeError(f"{name}: no round completed")

    if trace:
        metrics = {
            key: statistics.median(r["layers"][key] for r in traced) for key in traced[0]["layers"]
        }
        metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(r["wall_s"] for r in rounds)
        units = {key: "count" if key.endswith(("calls", "misses", "iterations", "dm_gates")) else "s" for key in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setups + [s for r in rounds for s in r["setup_s"]]),
            # The fastest round: the time the commands take while the shared host runs them at full speed.
            **{key: min(r[key] for r in rounds) for key in ("wall_s", "cpu_s")},
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        units = END_TO_END
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "machine": machine,
              "setup_probes_s": setups, "rounds": rounds, "traced_rounds": traced, "problems": problems,
              "result": result}
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    for key, metric in result["metrics"].items():
        print(f"{name:16s} {key:36s} {metric['value']:14.6g} {metric['unit']}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0, help="recorded with the run; the inputs are fixed")
    parser.add_argument("--seconds", type=int, default=60, help="time budget for the measured rounds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qwave" / "cli.py").is_file():
        print(f"no qwave sources at {SRC}: run from the root of a qwave checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        for name, result in results.items():
            print(f"{name} " + json.dumps(result))
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
