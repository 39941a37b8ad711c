"""The benchmark's workloads: program inputs made from the seed, the CLI
calls that are timed, and the checks on what those calls write.

Every workload drives the public entry point ``groupdeconv.cli.main``.  The
benchmark makes the program's inputs itself (a master seed for ``simulate``,
a data file for ``estimate``) with its own NumPy generator, so a change to
the program's samplers cannot change what the program is given.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LAWS = ("normal", "gumbel", "gamma", "laplace")
DEFAULT_SEED = 1
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Problem sizes.  "full" is what the benchmark measures; "tiny" exists for
# the self-test and is never compared with the stored reference outputs.
SIZES = {
    "full": {"ns": (1000, 5000, 10000), "reps": 5, "estimate_n": 1_000_000},
    "tiny": {"ns": (200, 400), "reps": 1, "estimate_n": 20_000},
}

# Gate tolerances against the reference outputs of the default seed.
# Risks and standard errors are printed with 10 significant digits, so a
# change of ~1e-10 relative in the arithmetic can flip the last digit;
# 1e-8 relative leaves room for that and nothing more.
RISK_RTOL = 1e-8
# The adaptive cutoff is a bisection to 1e-6 (bandwidth.BISECTION_TOL); any
# other root finder inside the same bracket may land anywhere within it.
CUTOFF_ATOL = 1e-6
# The estimate's frequency step scales with its cutoff, so a cutoff moved
# by 1e-6 moves the estimate by about 3e-7 of its maximum (measured on the
# default seed); 1e-6 of the maximum admits that and nothing larger.
ESTIMATE_RTOL_OF_MAX = 1e-6

# Summand law of the estimate workload: Gumbel with mean 3 and scale 1.
GUMBEL_MEAN, GUMBEL_SCALE, GUMBEL_K = 3.0, 1.0, 5


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # simulate | estimate
    group_size: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim-k5", "simulate", 5,
            "simulate, K=5, 4 laws x n in {1e3,5e3,1e4}: 400-630 u-modes, "
            "oracle-risk inversion dominates a replication",
        ),
        Workload(
            "sim-k50", "simulate", 50,
            "simulate, K=50, same cells: ~120 u-modes, drawing n x 50 "
            "variates dominates, inversion is small",
        ),
        Workload(
            "estimate-1m", "estimate", GUMBEL_K,
            "estimate on a 1e6-line file of Gumbel(3,1) 5-fold sums: parsing, "
            "ECF and bisection dominate, working set far beyond cache",
        ),
    )
}


@dataclass(frozen=True)
class Plan:
    """What the worker process runs: the timed call, and two small calls."""

    argv: list  # the timed CLI call
    setup_argv: list  # tiny call that pays lazy imports inside setup_s
    alloc_argv: list  # call repeated once under tracemalloc
    units_per_call: int  # replications (simulate) or estimates (estimate)
    outputs: list  # files every call writes, compared call to call


def gumbel_location() -> float:
    return GUMBEL_MEAN - np.euler_gamma * GUMBEL_SCALE


def gumbel_pdf(x: np.ndarray) -> np.ndarray:
    z = (x - gumbel_location()) / GUMBEL_SCALE
    return np.exp(-z - np.exp(-z)) / GUMBEL_SCALE


def write_gumbel_sums(path: Path, n: int, seed: int) -> None:
    """n observations of a sum of GUMBEL_K Gumbel(3, 1) variates, one per line."""
    rng = np.random.Generator(np.random.PCG64([seed, n]))
    y = rng.gumbel(gumbel_location(), GUMBEL_SCALE, size=(n, GUMBEL_K)).sum(axis=1)
    path.write_text("\n".join(map(repr, y.tolist())) + "\n")


def _simulate_argv(k: int, ns, reps: int, seed: int, out: Path) -> list:
    argv = ["simulate", "--group-size", str(k), "--reps", str(reps), "--seed", str(seed)]
    for law in LAWS:
        argv += ["--law", law]
    for n in ns:
        argv += ["--n", str(n)]
    return argv + ["--out", str(out)]


def _estimate_argv(path: Path, out: Path) -> list:
    return ["estimate", "--input", str(path), "--group-size", str(GUMBEL_K), "--out", str(out)]


def prepare(workload: Workload, seed: int, size: str, workdir: Path) -> Plan:
    """Write the workload's inputs under ``workdir`` and return its plan.

    Everything here happens before any timed region starts.
    """
    dims = SIZES[size]
    if workload.kind == "simulate":
        out = workdir / "risks"
        k = workload.group_size
        return Plan(
            argv=_simulate_argv(k, dims["ns"], dims["reps"], seed, out),
            setup_argv=_simulate_argv(k, (200,), 1, seed, workdir / "setup"),
            alloc_argv=_simulate_argv(k, dims["ns"], 1, seed, workdir / "alloc"),
            units_per_call=len(LAWS) * len(dims["ns"]) * dims["reps"],
            outputs=[str(out.with_suffix(".csv")), str(out.with_suffix(".txt"))],
        )
    data = workdir / "gumbel_sums.txt"
    write_gumbel_sums(data, dims["estimate_n"], seed)
    tiny = workdir / "setup_sums.txt"
    write_gumbel_sums(tiny, 200, seed)
    out = workdir / "estimate"
    return Plan(
        argv=_estimate_argv(data, out),
        setup_argv=_estimate_argv(tiny, workdir / "setup"),
        alloc_argv=_estimate_argv(data, workdir / "alloc"),
        units_per_call=1,
        outputs=[str(out.with_suffix(".csv")), str(out.with_suffix(".json"))],
    )


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


@dataclass
class Verdict:
    problems: list  # empty when every check passed
    failed_units: int  # failed replications (simulate) in one call
    quality: dict  # estimator quality figures, fixed for a fixed seed


def _read_risk_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _num(text: str) -> float:
    return float(text) if text else math.nan


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= atol + rtol * abs(b)


def _compare_risk_rows(rows: list, ref: list) -> list:
    if len(rows) != len(ref):
        return [f"risk CSV has {len(rows)} rows, reference has {len(ref)}"]
    problems = []
    for row, want in zip(rows, ref):
        cell = f"{row['law']} n={row['n']} K={row['K']} {row['method']}"
        for key in ("law", "n", "K", "method", "reps"):
            if row[key] != want[key]:
                problems.append(f"{cell}: {key} {row[key]} != reference {want[key]}")
        for key in ("mean_risk", "std_error"):
            if not _close(_num(row[key]), _num(want[key]), RISK_RTOL):
                problems.append(f"{cell}: {key} {row[key]} != reference {want[key]}")
        if not _close(_num(row["mean_cutoff"]), _num(want["mean_cutoff"]), RISK_RTOL, CUTOFF_ATOL):
            problems.append(
                f"{cell}: mean_cutoff {row['mean_cutoff']} != reference {want['mean_cutoff']}"
            )
    return problems


def _check_simulate(workload, plan, dims, use_reference) -> Verdict:
    rows = _read_risk_csv(Path(plan.outputs[0]))
    problems = []
    cells = {}
    for row in rows:
        cells.setdefault((row["law"], row["n"], row["K"]), {})[row["method"]] = row
    expected_cells = len(LAWS) * len(dims["ns"])
    if len(cells) != expected_cells:
        problems.append(f"risk CSV has {len(cells)} cells, expected {expected_cells}")
    failed = 0
    adaptive, oracle = [], []
    for cell, by_method in cells.items():
        if set(by_method) != {"adaptive", "oracle"}:
            problems.append(f"cell {cell} lacks a method row")
            continue
        ra = _num(by_method["adaptive"]["mean_risk"])
        ro = _num(by_method["oracle"]["mean_risk"])
        failed += dims["reps"] - int(by_method["adaptive"]["reps"])
        if not ro <= ra:
            problems.append(f"cell {cell}: oracle risk {ro} exceeds adaptive risk {ra}")
        adaptive.append(ra)
        oracle.append(ro)
    if use_reference:
        ref = _read_risk_csv(REFERENCE_DIR / f"{workload.name}.csv")
        problems += _compare_risk_rows(rows, ref)
    quality = {}
    if adaptive and all(map(math.isfinite, adaptive + oracle)):
        quality["risk_adaptive"] = float(np.mean(adaptive))
        quality["risk_ratio"] = quality["risk_adaptive"] / float(np.mean(oracle))
    return Verdict(problems, failed, quality)


def _check_estimate(plan, use_reference) -> Verdict:
    payload = json.loads(Path(plan.outputs[1]).read_text())
    problems = []
    cutoff = payload["cutoff"]
    if cutoff.get("threshold_hit") is not True:
        problems.append(f"estimate cutoff record has threshold_hit={cutoff.get('threshold_hit')}")
    values = np.asarray(payload["values"], dtype=float)
    g = payload["xgrid"]
    x = np.linspace(g["x_min"], g["x_max"], g["count"])
    if values.shape != x.shape or not np.all(np.isfinite(values)):
        problems.append("estimate values are missing or not finite")
        return Verdict(problems, 0, {})
    if use_reference:
        ref = json.loads((REFERENCE_DIR / "estimate-1m.json").read_text())
        ref_values = np.asarray(ref["values"], dtype=float)
        same_grid = g["count"] == ref["xgrid"]["count"] and all(
            _close(g[key], ref["xgrid"][key], RISK_RTOL) for key in ("x_min", "x_max")
        )
        if not same_grid:
            problems.append(f"x-grid {g} != reference {ref['xgrid']}")
        else:
            scale = float(np.max(np.abs(ref_values)))
            worst = float(np.max(np.abs(values - ref_values)))
            if worst > ESTIMATE_RTOL_OF_MAX * scale:
                problems.append(
                    f"estimate differs from reference by {worst:.3g} "
                    f"(> {ESTIMATE_RTOL_OF_MAX:g} of max {scale:.3g})"
                )
        if not _close(cutoff["value"], ref["cutoff"]["value"], 0.0, CUTOFF_ATOL):
            problems.append(
                f"cutoff {cutoff['value']} != reference {ref['cutoff']['value']}"
            )
        for key in ("rule", "threshold_hit", "eta"):
            if cutoff.get(key) != ref["cutoff"].get(key):
                problems.append(f"cutoff {key} {cutoff.get(key)} != reference {ref['cutoff'].get(key)}")
        for key in ("threshold", "cap"):
            if not _close(cutoff.get(key, math.nan), ref["cutoff"][key], RISK_RTOL):
                problems.append(f"cutoff {key} {cutoff.get(key)} != reference {ref['cutoff'][key]}")
    diff = values - gumbel_pdf(x)
    quality = {"estimate_l2": float(np.trapezoid(diff * diff, x))}
    return Verdict(problems, 0, quality)


def check_outputs(workload: Workload, plan: Plan, seed: int, size: str) -> Verdict:
    """Invariants for every seed; the stored reference for the default seed."""
    use_reference = size == "full" and seed == DEFAULT_SEED
    if workload.kind == "simulate":
        return _check_simulate(workload, plan, SIZES[size], use_reference)
    return _check_estimate(plan, use_reference)
