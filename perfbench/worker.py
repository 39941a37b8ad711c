"""The workload's own process: imports the package and runs the CLI in-process.

    python3 perfbench/worker.py setup <job.json>   # prints setup seconds
    python3 perfbench/worker.py run <job.json>     # prints one JSON line

``run.py`` writes the job file and starts this script with the package on
PYTHONPATH and every thread pool set to one thread.  ``setup`` times a fresh
interpreter's ``import groupdeconv.cli`` plus one tiny call of the workload's
subcommand, so imports deferred to first use are paid there and not in the
first timed call.  ``run`` makes that tiny call once more, untimed, then
timed calls until the time budget is spent; with tracing on it alternates
untraced and traced calls and ends with one call under tracemalloc.
"""
from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

MIN_CALLS = 3  # per kind of call, whatever the time budget


def _import_cli(src: str):
    import groupdeconv.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"groupdeconv was imported from {cli.__file__}, not from {src}")
    return cli


def _call(cli, argv, sink):
    """One CLI call: (exit code, wall seconds, error text or None)."""
    error = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception:  # a crash is a failed call, recorded and reported
            code, error = 1, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
    return code, elapsed, error


def _snapshot(paths):
    return [Path(p).read_bytes() if Path(p).exists() else None for p in paths]


def setup(job: dict) -> None:
    start = time.perf_counter()
    cli = _import_cli(job["src"])
    with open(os.devnull, "w") as sink:
        code, _, error = _call(cli, job["setup_argv"], sink)
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "code": code, "error": error}))


def run(job: dict) -> None:
    cli = _import_cli(job["src"])
    # imported only now: it imports NumPy, which set-up must time as part of
    # the package's own import
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import layertrace

    seconds = job["seconds"]
    traced = job["trace"]
    tracer = layertrace.Tracer()
    codes, errors, untraced_s, traced_s = [], [], [], []
    mismatched = 0
    with open(os.devnull, "w") as sink:
        code, _, error = _call(cli, job["setup_argv"], sink)  # warm-up, untimed
        if code != 0 or error:
            errors.append(f"warm-up call exited with {code}: {error}")
        first = None
        begin = time.perf_counter()
        while True:
            if traced and len(traced_s) < len(untraced_s):
                with tracer.installed(), tracer.span(layertrace.ROOT_SPAN):
                    code, elapsed, error = _call(cli, job["argv"], sink)
                traced_s.append(elapsed)
            else:
                code, elapsed, error = _call(cli, job["argv"], sink)
                untraced_s.append(elapsed)
            codes.append(code)
            if error:
                errors.append(error)
            outputs = _snapshot(job["outputs"])
            first = first or outputs
            mismatched += outputs != first
            spent = time.perf_counter() - begin
            done = min(len(untraced_s), len(traced_s)) if traced else len(untraced_s)
            if done >= MIN_CALLS and spent + elapsed > seconds:
                break
        layers = {}
        nesting = []
        if traced:
            units = job["units_per_call"] * len(traced_s)
            layers = layertrace.layer_metrics(tracer, units, traced_s, untraced_s)
            nesting = layertrace.nesting_errors(tracer.spans)
            with open(job["spans_path"], "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
            alloc = layertrace.Tracer(track_alloc=True)
            tracemalloc.start()
            try:
                with alloc.installed():
                    alloc_code, _, error = _call(cli, job["alloc_argv"], sink)
            finally:
                tracemalloc.stop()
            if alloc_code != 0:
                errors.append(f"tracemalloc pass exited with {alloc_code}")
            if error:
                errors.append(error)
            layers.update(layertrace.alloc_metrics(alloc))
    result = {
        "call_s": untraced_s,
        "traced_call_s": traced_s,
        "codes": codes,
        "errors": errors[:3],
        "mismatched_outputs": mismatched,
        "layers": layers,
        "nesting_errors": nesting[:5],
        "patched": tracer.patched,
        "counter_errors": dict(tracer.counter_errors),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    mode, job_path = sys.argv[1], sys.argv[2]
    job = json.loads(Path(job_path).read_text())
    {"setup": setup, "run": run}[mode](job)
