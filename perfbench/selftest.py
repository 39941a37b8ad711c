"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted for every workload
with its unit, that traced child spans nest inside their parents, that
``trace.coverage_frac`` is reported, and that the benchmark refuses to run,
without printing a result, in a directory that holds only BENCHMARK.json and
the benchmark's own files.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads
from layertrace import nesting_errors
from run import ROOT, WORK

HERE = Path(__file__).resolve().parent
SEED = 7


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)
            print(f"FAIL {message}")

    check(
        [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
        "BENCHMARK.json workloads differ from workloads.WORKLOADS",
    )
    for name in workloads.WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_bench(
                ROOT, "--workload", name, "--seed", str(SEED), "--seconds", "1",
                "--trace", str(trace), "--size", "tiny",
            )
            check(proc.returncode == 0, f"{name} trace={trace}: exit {proc.returncode} {proc.stderr[-500:]}")
            if proc.returncode != 0:
                continue
            result = last_json(proc)
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{name} trace={trace}: result keys {sorted(result)}")
            check(result["correct"] is True, f"{name} trace={trace}: not correct")
            check(result["attempted"] >= 1, f"{name} trace={trace}: nothing attempted")
            metrics = result["metrics"]
            check(sorted(metrics) == sorted(m["name"] for m in wanted),
                  f"{name} trace={trace}: metric names differ from BENCHMARK.json")
            for metric in wanted:
                got = metrics.get(metric["name"], {})
                check(got.get("unit") == metric["unit"],
                      f"{name} trace={trace}: {metric['name']} unit {got.get('unit')} != {metric['unit']}")
                check(isinstance(got.get("value"), (int, float)),
                      f"{name} trace={trace}: {metric['name']} has no numeric value")
            if trace == 0:
                check(all(m["value"] > 0 for m in metrics.values()),
                      f"{name}: an end-to-end metric reads 0")
                continue
            coverage = metrics.get("trace.coverage_frac", {}).get("value", 0.0)
            check(0.5 < coverage <= 1.0, f"{name}: trace.coverage_frac {coverage}")
            spans_file = WORK / "results" / f"{name}-seed{SEED}-spans.jsonl"
            spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
            check(any(parent >= 0 for *_, parent in spans), f"{name}: no span has a parent")
            check(not nesting_errors(spans), f"{name}: {nesting_errors(spans)[:3]}")

    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "--workload", "sim-k5", "--seconds", "1", "--trace", "0")
        check(proc.returncode != 0, "a directory without the sources exited 0")
        check('"correct"' not in proc.stdout, "a directory without the sources printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
