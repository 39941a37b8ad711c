"""Write the reference outputs that the benchmark's gate compares against.

    python3 perfbench/make_reference.py

Runs each workload's CLI call once at full size with the default seed and
stores what it wrote in perfbench/reference/: the risk CSV of each
``simulate`` workload and the estimate JSON of ``estimate-1m``.  Rerun it
only in a change that is meant to alter the program's outputs, and say so.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads
from run import ROOT, WORK, child_env


def main() -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS.values():
        workdir = WORK / f"reference-{workload.name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            plan = workloads.prepare(workload, workloads.DEFAULT_SEED, "full", workdir)
            subprocess.run(
                [sys.executable, "-m", "groupdeconv.cli", *plan.argv],
                env=child_env(), cwd=ROOT, check=True, capture_output=True, timeout=300,
            )
            if workload.kind == "simulate":
                target = workloads.REFERENCE_DIR / f"{workload.name}.csv"
                shutil.copyfile(plan.outputs[0], target)
            else:
                payload = json.loads(Path(plan.outputs[1]).read_text())
                payload["provenance"]["source"] = Path(payload["provenance"]["source"]).name
                target = workloads.REFERENCE_DIR / f"{workload.name}.json"
                target.write_text(json.dumps(payload, indent=2) + "\n")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"wrote {target.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
