"""Benchmark of groupdeconv: simulation throughput and a large estimate.

    python3 perfbench/run.py --workload sim-k5 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload drives the public CLI entry
point ``groupdeconv.cli.main`` inside a fresh worker process (worker.py);
this script makes the inputs from the seed, times set-up in fresh
interpreters, starts the worker, checks what the program wrote and prints
one JSON object as the last line of its output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separate traced run.  ``--workload all`` runs every workload in
turn.  See README.md in this directory for what each metric means.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from layertrace import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
RUN_LIMIT_S = 170.0  # the whole run, set-up included, ends well within 180 s
SETUP_REPEATS = 5
THREAD_VARS = ("GROUPDECONV_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

QUALITY = {
    "quality.risk_adaptive": "l2sq",
    "quality.risk_ratio": "ratio",
    "quality.estimate_l2": "l2sq",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": commit,
        "seed": seed,
        "blas_threads": int(child_env()["OPENBLAS_NUM_THREADS"]),
        "workers": int(child_env()["GROUPDECONV_THREADS"]),
    }


def _worker(mode: str, job_path: Path, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, str(job_path)],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, traced: bool, size: str, deadline: float):
    """One workload end to end; returns (correct, attempted, failed, metrics, details)."""
    workload = workloads.WORKLOADS[name]
    workdir = WORK / f"run-{name}-{os.getpid()}"
    results = WORK / "results"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        plan = workloads.prepare(workload, seed, size, workdir)
        job = {
            "src": str(SRC),
            "argv": plan.argv,
            "setup_argv": plan.setup_argv,
            "alloc_argv": plan.alloc_argv,
            "outputs": plan.outputs,
            "units_per_call": plan.units_per_call,
            "seconds": seconds,
            "trace": traced,
            "spans_path": str(results / f"{name}-seed{seed}-spans.jsonl"),
        }
        job_path = workdir / "job.json"
        job_path.write_text(json.dumps(job))

        problems = []
        setup_runs = []
        # set-up is an end-to-end metric only; the first probe fills the bytecode cache
        for i in range(0 if traced else SETUP_REPEATS + 1):
            probe = _worker("setup", job_path, deadline - time.monotonic())
            if probe["code"] != 0:
                problems.append(f"set-up call exited with {probe['code']}: {probe['error']}")
            if i:
                setup_runs.append(probe["setup_s"])
        out = _worker("run", job_path, deadline - time.monotonic())
        verdict = workloads.check_outputs(workload, plan, seed, size)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems += verdict.problems + out["errors"] + out["nesting_errors"]
    if out["mismatched_outputs"]:
        problems.append(f"{out['mismatched_outputs']} calls wrote outputs unlike the first call's")
    codes = out["codes"]
    attempted = plan.units_per_call * len(codes)
    failed = sum(plan.units_per_call if c != 0 else verdict.failed_units for c in codes)
    if any(codes):
        problems.append(f"CLI exit codes {sorted(set(codes))}")

    if traced:
        metrics = {k: (v, LAYER_METRICS[k]) for k, v in out["layers"].items()}
        for key, unit in QUALITY.items():
            metrics[key] = (verdict.quality.get(key.split(".", 1)[1], 0.0), unit)
    else:
        calls = out["call_s"]
        metrics = {
            "setup_s": (statistics.median(setup_runs), "s"),
            "call_s_p50": (statistics.median(calls), "s"),
            "reps_per_s": (plan.units_per_call * len(calls) / sum(calls), "1/s"),
            "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        }
    details = {
        "workload": name,
        "seed": seed,
        "size": size,
        "trace": int(traced),
        "samples": {
            "setup_s": len(setup_runs),
            "call_s": len(out["call_s"]),
            "traced_call_s": len(out["traced_call_s"]),
        },
        "setup_runs_s": setup_runs,
        "call_s": out["call_s"],
        "traced_call_s": out["traced_call_s"],
        "units_per_call": plan.units_per_call,
        "quality": verdict.quality,
        "problems": problems,
        "patched": out["patched"],
        "counter_errors": out["counter_errors"],
    }
    return not problems, attempted, failed, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "groupdeconv" / "cli.py").is_file():
        print(f"error: no groupdeconv sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    env = environment(args.seed)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            ok, att, fail, found, details = run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.size,
                deadline if len(names) == 1 else time.monotonic() + RUN_LIMIT_S,
            )
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        correct, attempted, failed = correct and ok, attempted + att, failed + fail
        prefix = f"{name}." if len(names) > 1 else ""
        for key, (value, unit) in found.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
            print(f"{name:12s} {key:42s} {value:14.6g} {unit}")
        for problem in details["problems"]:
            print(f"{name:12s} PROBLEM {problem}")
        record = {"environment": env, **details, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in found.items()}}
        tag = f"{name}-seed{args.seed}-trace{args.trace}-{args.size}"
        (WORK / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
