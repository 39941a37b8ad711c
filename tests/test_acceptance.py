"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v``.  The Monte-Carlo criteria
use fixed master seeds, so every number below is reproducible bit for bit.
"""
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from groupdeconv.bandwidth import adaptive_cutoff, cap_spread, cutoff_cap
from groupdeconv.charfn import CfEvaluation, UGrid
from groupdeconv.experiments import ScenarioGrid, run_grid, run_replication
from groupdeconv.inversion import XGrid, invert
from groupdeconv.rootlog import distinguished_root, feasible_root
from groupdeconv.samples import Gamma, Normal, benchmark_laws, generate_grouped, make_rng
from reference import energy_u, energy_x, evaluate_grid, phi, root_from_values

LAWS = benchmark_laws()


def _report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {status} - {detail}")
    return passed


# ---------------------------------------------------------------------------
# 1. analytic-root oracle (closed-form gamma convolution identity)
# ---------------------------------------------------------------------------


def test_criterion_1_analytic_root_oracle():
    t0 = time.perf_counter()
    law = Gamma(6.0, 3.0)
    worst_modulus = 0.0
    ratios = {}
    for k in (2, 3, 6):
        grid = UGrid(5.0, 1e-3)
        cf = CfEvaluation.from_function(law.cf, law.cf_prime, grid, group_size=k)
        root = distinguished_root(cf, 5.0)
        target = Gamma(6.0 / k, 3.0).cf(root.grid.points)
        worst_modulus = max(
            worst_modulus, np.abs(root.modulus_pow - np.abs(target)).max()
        )

        # trapezoid is second order: halving the step cuts the phase error ~4x
        errs = {}
        for step in (1e-3, 5e-4):
            g = UGrid(5.0, step)
            c = CfEvaluation.from_function(law.cf, law.cf_prime, g, group_size=k)
            r = distinguished_root(c, 5.0)
            exact_phase = (6.0 / k) * np.arctan(r.grid.points / 3.0)
            errs[step] = np.abs(r.phase - exact_phase).max()
        ratios[k] = errs[1e-3] / errs[5e-4]

    elapsed = time.perf_counter() - t0
    ok = (
        worst_modulus < 1e-6
        and all(3.5 <= r <= 4.5 for r in ratios.values())
        and elapsed < 1.0
    )
    assert _report(
        1,
        ok,
        f"max modulus error {worst_modulus:.2e} (< 1e-6), phase-error "
        f"halving ratios {({k: round(v, 2) for k, v in ratios.items()})} "
        f"(in [3.5, 4.5]), runtime {elapsed:.2f}s (< 1s)",
    )


# ---------------------------------------------------------------------------
# 2. K=1 reduction to direct Fourier inversion
# ---------------------------------------------------------------------------


def test_criterion_2_k1_reduction():
    t0 = time.perf_counter()
    m = 1.5
    grid = UGrid(m, 2e-5)
    xg = XGrid(-2.0, 6.0, 257)
    worst = 0.0
    for rep in range(20):
        sample = generate_grouped(Normal(2.0, 1.0), 1000, 1, seed=(2001, rep))
        ev = evaluate_grid(sample, grid)
        pipeline = invert(distinguished_root(ev, m), m, xg)
        direct = invert(root_from_values(grid, phi(ev), 1.0), m, xg)
        worst = max(worst, np.abs(pipeline.values - direct.values).max())
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8
    assert _report(
        2,
        ok,
        f"20 samples, sup-norm gap pipeline vs direct inversion "
        f"{worst:.2e} (< 1e-8), runtime {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 3. Plancherel consistency across the table scenarios
# ---------------------------------------------------------------------------


def test_criterion_3_plancherel_consistency():
    """x-domain and u-domain energies of the cutoff estimate, per scenario.

    NOTE: this criterion fails, and the failure is structural rather than a
    quadrature bug.  A sharp spectral cutoff at m leaves the estimate with
    ringing tails ~ |phi_hat_X(m)| / (pi x), whose energy outside any fixed
    window of half-width R is about |phi_hat_X(m)|^2 / (pi^2 R).  At the
    data-driven cutoff, |phi_hat_X(m)| = threshold^{1/K} is in [0.45, 0.95]
    for the table scenarios, so a 12-sigma window misses 0.5% - 6% of the
    energy; no x-grid of this width can agree with the u-domain integral to
    1e-4.  The measured gaps below match that prediction to within a few
    percent (and the equality does hold to 1e-4 for smooth analytic inputs
    whose cutoff sits deep in the cf tail; see the inversion test suite).
    """
    t0 = time.perf_counter()
    gaps = {}
    predicted = {}
    for law in LAWS.values():
        for n in (1000, 5000, 10000):
            for k in (5, 10, 20, 50):
                sample = generate_grouped(law, n, k, seed=(3000, n, k))
                step = 0.01
                cap = cutoff_cap(n, float(k))
                ecf = cap_spread(sample)
                ev = ecf.read(UGrid(cap + step, step))
                rec = adaptive_cutoff(ecf)
                root, _ = feasible_root(ev)
                m = min(rec.value, root.u_limit)
                sigma = math.sqrt(sample.variance / k)
                center = sample.mean / k
                xg = XGrid(center - 12 * sigma, center + 12 * sigma, 1536)
                est = invert(root, m, xg)
                ex, eu = energy_x(est), energy_u(root, m)
                gaps[(law.name, n, k)] = abs(ex - eu) / eu
                amp = root.modulus_pow[root.grid.index_of(m)]
                predicted[(law.name, n, k)] = amp**2 / (
                    math.pi**2 * 12 * sigma
                ) / eu
    elapsed = time.perf_counter() - t0
    worst_key = max(gaps, key=gaps.get)
    worst = gaps[worst_key]
    median = float(np.median(list(gaps.values())))
    ok = worst <= 1e-4
    detail = (
        f"48 scenarios: median relative gap {median:.2e}, worst {worst:.2e} "
        f"at {worst_key} (structural ringing-leak prediction there: "
        f"{predicted[worst_key]:.2e}); tolerance 1e-4; runtime {elapsed:.0f}s"
    )
    _report(3, ok, detail)
    assert ok, (
        "x/u energy gap exceeds 1e-4 in every scenario; the gap equals the "
        "spectral-cutoff ringing energy outside the 12-sigma window "
        f"(measured {worst:.2e} vs predicted {predicted[worst_key]:.2e} at "
        f"{worst_key}), which no grid of this half-width can capture. "
        f"Full table: { {k: round(v, 5) for k, v in sorted(gaps.items())} }"
    )


# ---------------------------------------------------------------------------
# 4. table reproduction at desk scale (500 replications)
# ---------------------------------------------------------------------------


def test_criterion_4_table_reproduction():
    t0 = time.perf_counter()
    cells = [
        ("normal", 10000, 0.018, 0.007),
        ("gumbel", 1000, 0.037, 0.017),
        ("gamma", 1000, 0.050, 0.021),
        ("laplace", 1000, 0.152, 0.070),
    ]
    lines = []
    ok = True
    for name, n, target_adaptive, target_oracle in cells:
        grid = ScenarioGrid(
            laws=(LAWS[name],),
            ns=(n,),
            group_sizes=(5,),
            replications=500,
            eta=1.1,
            master_seed=4000,
        )
        report = run_grid(grid)
        by_method = {r.method: r for r in report.rows}
        ra = by_method["adaptive"].mean_risk
        ro = by_method["oracle"].mean_risk
        ok_a = 0.5 * target_adaptive <= ra <= 1.5 * target_adaptive
        ok_o = 0.5 * target_oracle <= ro <= 1.5 * target_oracle
        ok = ok and ok_a and ok_o
        lines.append(
            f"{name} n={n}: adaptive {ra:.4f} vs {target_adaptive} "
            f"[{'ok' if ok_a else 'OUT'}], oracle {ro:.4f} vs {target_oracle} "
            f"[{'ok' if ok_o else 'OUT'}]"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 15 * 60
    assert _report(
        4, ok, "; ".join(lines) + f"; runtime {elapsed:.0f}s (< 900s)"
    )


# ---------------------------------------------------------------------------
# 5. trend reproduction over the full grid (>= 200 replications)
# ---------------------------------------------------------------------------


def test_criterion_5_trend_reproduction():
    t0 = time.perf_counter()
    report = run_grid(ScenarioGrid(replications=200, master_seed=5000))
    assert len(report.rows) == 96  # 4 laws x 3 ns x 4 Ks x 2 methods
    risk = {
        (r.law, r.n, r.group_size, r.method): r.mean_risk for r in report.rows
    }
    laws = [law.name for law in LAWS.values()]
    ns = (1000, 5000, 10000)
    ks = (5, 10, 20, 50)
    inversions = []
    for law in laws:
        for n in ns:
            for method in ("oracle", "adaptive"):
                for k_lo, k_hi in zip(ks[:-1], ks[1:]):
                    if risk[(law, n, k_lo, method)] > risk[(law, n, k_hi, method)]:
                        inversions.append(("K", law, n, (k_lo, k_hi), method))
    for law in laws:
        for k in ks:
            for method in ("oracle", "adaptive"):
                if risk[(law, 10000, k, method)] > risk[(law, 1000, k, method)]:
                    inversions.append(("n", law, (1000, 10000), k, method))
    n_comparisons = len(laws) * len(ns) * 2 * 3 + len(laws) * len(ks) * 2
    elapsed = time.perf_counter() - t0
    ok = len(inversions) <= 2
    assert _report(
        5,
        ok,
        f"{len(inversions)} of {n_comparisons} monotonicity comparisons "
        f"inverted (allowed 2): {inversions}; runtime {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 6. oracle dominance with the adaptive cutoff injected
# ---------------------------------------------------------------------------


def test_criterion_6_oracle_dominance():
    t0 = time.perf_counter()
    scenarios = [
        ("normal", 1000, 5),
        ("normal", 1000, 20),
        ("normal", 10000, 5),
        ("gumbel", 1000, 10),
        ("gumbel", 1000, 50),
        ("gamma", 1000, 5),
        ("gamma", 1000, 20),
        ("laplace", 1000, 10),
        ("laplace", 10000, 10),
        ("gumbel", 10000, 20),
    ]
    violations = 0
    total = 0
    for name, n, k in scenarios:
        law = LAWS[name]
        for rep in range(100):
            r = run_replication(law, n, k, seed=(6000, n, k, rep))
            total += 1
            if r.risk_oracle > r.risk_adaptive + 1e-6:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and total == 1000
    assert _report(
        6,
        ok,
        f"{total - violations}/{total} replications satisfy "
        f"risk_oracle <= risk_adaptive + 1e-6; runtime {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. adaptive-cutoff invariants
# ---------------------------------------------------------------------------


def test_criterion_7_adaptive_cutoff_invariants():
    t0 = time.perf_counter()
    rng = make_rng(7000)
    law_list = list(LAWS.values())

    # (a) cap: m_hat <= n^{1/K} on 50 random samples
    cap_ok = True
    for i in range(50):
        law = law_list[i % 4]
        n = int(rng.integers(100, 3000))
        k = int(rng.integers(1, 12))
        s = generate_grouped(law, n, k, seed=(7100, i))
        rec = adaptive_cutoff(cap_spread(s))
        cap_ok = cap_ok and rec.value <= cutoff_cap(n, float(k)) + 1e-9

    # (b) nonincreasing in eta on 50 random samples (within scan resolution)
    etas = (1.05, 1.3, 1.8, 3.0)
    eta_ok = True
    for i in range(50):
        law = law_list[i % 4]
        s = generate_grouped(law, 500, 4, seed=(7200, i))
        values = [adaptive_cutoff(cap_spread(s), eta=e).value for e in etas]
        eta_ok = eta_ok and all(
            lo <= hi + 0.01 for hi, lo in zip(values[:-1], values[1:])
        )

    # (c) degenerate constant sample: |phi_hat| = 1 everywhere, so the scan
    # never crosses and the cap is returned
    from groupdeconv.samples import GroupedSample

    rec = adaptive_cutoff(cap_spread(GroupedSample(np.full(200, 11.1), 3.0)))
    const_ok = rec.value == pytest.approx(cutoff_cap(200, 3.0)) and not rec.threshold_hit

    elapsed = time.perf_counter() - t0
    ok = cap_ok and eta_ok and const_ok
    assert _report(
        7,
        ok,
        f"cap bound {'ok' if cap_ok else 'VIOLATED'}, eta monotone "
        f"{'ok' if eta_ok else 'VIOLATED'}, degenerate sample returns cap "
        f"{'ok' if const_ok else 'VIOLATED'}; runtime {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. simulate determinism across runs and thread counts
# ---------------------------------------------------------------------------


def test_criterion_8_simulate_determinism(tmp_path):
    t0 = time.perf_counter()
    base_args = [
        sys.executable,
        "-m",
        "groupdeconv.cli",
        "simulate",
        "--law",
        "gamma",
        "--n",
        "500",
        "--group-size",
        "2",
        "--group-size",
        "5",
        "--reps",
        "30",
        "--seed",
        "808",
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = {}
    for label, threads in (("t1a", "1"), ("t1b", "1"), ("t4", "4")):
        out = tmp_path / label
        env = os.environ | {"GROUPDECONV_THREADS": threads, "PYTHONPATH": path}
        proc = subprocess.run(
            base_args + ["--out", str(out)],
            capture_output=True,
            env=env,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs[label] = (out.with_suffix(".csv").read_bytes(),
                          out.with_suffix(".txt").read_bytes())
    elapsed = time.perf_counter() - t0
    same_run = outputs["t1a"] == outputs["t1b"]
    same_threads = outputs["t1a"] == outputs["t4"]
    ok = same_run and same_threads
    assert _report(
        8,
        ok,
        f"byte-identical across repeated runs: {same_run}; across "
        f"thread counts 1 vs 4: {same_threads}; runtime {elapsed:.0f}s",
    )
