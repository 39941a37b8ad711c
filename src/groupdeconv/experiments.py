"""Monte-Carlo risk study: mean L2 risks per (law, n, K, cutoff method).

Each replication draws one grouped sample, computes the adaptive-cutoff
estimate and the oracle-cutoff estimate on that same sample and the same
x-grid, and records both L2 risks against the exact density.  Replication
seeds are derived by hashing (master seed, cell index, replication index),
so results are bit-identical regardless of worker count or scheduling.
"""
from __future__ import annotations

import io
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bandwidth import (
    DEFAULT_ETA,
    adaptive_cutoff,
    cap_spread,
    check_eta,
    cutoff_cap,
    default_oracle_grid,
    oracle_risks,
    scan_grid,
)
from .errors import GroupDeconvError, ParameterError
from .inversion import XGrid, centred_xgrid
from .rootlog import feasible_root
from .samples import TestLaw, benchmark_laws, generate_grouped

__all__ = [
    "ScenarioGrid",
    "ReplicationResult",
    "RiskReport",
    "law_xgrid",
    "run_replication",
    "run_grid",
    "resolve_workers",
]

THREADS_ENV = "GROUPDECONV_THREADS"

# Replications per task: the unit of work a simulation worker receives.
BLOCK_SIZE = 25


@dataclass(frozen=True)
class ScenarioGrid:
    """The cells of a risk study plus replication count and seeding; the
    defaults are the full study."""

    laws: tuple = tuple(benchmark_laws().values())
    ns: tuple = (1000, 5000, 10000)
    group_sizes: tuple = (5, 10, 20, 50)
    replications: int = 500
    eta: float = DEFAULT_ETA
    master_seed: int = 20130528

    def __post_init__(self):
        if self.replications < 1:
            raise ParameterError(f"replications must be >= 1 (got {self.replications})")
        if any(n < 2 for n in self.ns):
            raise ParameterError(f"every n must be >= 2 (got {list(self.ns)})")
        if any(k < 1 for k in self.group_sizes):
            raise ParameterError(
                f"every group size must be >= 1 (got {list(self.group_sizes)})"
            )
        check_eta(self.eta)

    @property
    def cells(self) -> list:
        return [
            (law, n, k)
            for law in self.laws
            for n in self.ns
            for k in self.group_sizes
        ]


@dataclass(frozen=True)
class ReplicationResult:
    risk_adaptive: float
    risk_oracle: float
    m_adaptive: float
    m_oracle: float
    threshold_hit: bool


def law_xgrid(law: TestLaw) -> XGrid:
    """Shared per-cell x-grid from the law's exact moments, so risks are
    comparable across replications."""
    return centred_xgrid(law.mean, math.sqrt(law.variance))


def run_replication(
    law: TestLaw,
    n: int,
    group_size: int,
    eta: float = DEFAULT_ETA,
    seed=0,
) -> ReplicationResult:
    """One sample, both estimators, both risks (same sample, same x-grid
    ``law_xgrid(law)``).

    One spread of the sample serves the threshold scan and the root, which
    is read on the scan grid, so the root's step is MAX_STEP.
    """
    sample = generate_grouped(law, n, group_size, seed)
    ecf = cap_spread(sample)
    record = adaptive_cutoff(ecf, eta)
    m_hat = record.value
    ev = ecf.read(scan_grid(sample))
    step = ev.grid.step
    if m_hat < step:
        raise GroupDeconvError(
            f"adaptive cutoff {m_hat:.3g} is below one grid step; "
            f"the sample is too degenerate to invert"
        )

    root, _violation = feasible_root(ev)
    cap = cutoff_cap(n, sample.group_size)
    candidates = default_oracle_grid(min(cap, root.u_limit))
    ms, risks = oracle_risks(root, law.pdf, np.append(candidates, m_hat), law_xgrid(law))

    k_hat = max(1, root.grid.index_of(min(m_hat, root.u_limit)))
    pos = int(np.searchsorted(ms, k_hat * step))
    pos = min(pos, ms.size - 1)
    risk_adaptive = float(risks[pos])

    best = int(np.argmin(risks))
    return ReplicationResult(
        risk_adaptive=risk_adaptive,
        risk_oracle=float(risks[best]),
        m_adaptive=float(m_hat),
        m_oracle=float(ms[best]),
        threshold_hit=record.threshold_hit,
    )


# ---------------------------------------------------------------------------
# grid runner
# ---------------------------------------------------------------------------


def resolve_workers() -> int:
    """The worker count GROUPDECONV_THREADS asks for; 1 when it is unset."""
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ParameterError(
                f"{THREADS_ENV} must be an integer (got '{env}')"
            ) from None
    return 1


def _run_cell_block(args):
    """Worker entry: one block of replications for one cell."""
    law, n, k, eta, master_seed, cell_idx, rep_indices = args
    out = []
    for rep in rep_indices:
        try:
            out.append(run_replication(law, n, k, eta, seed=(master_seed, cell_idx, rep)))
        except GroupDeconvError as exc:
            out.append(f"{type(exc).__name__}: {exc} [law={law.label} n={n} K={k} rep={rep}]")
    return out


@dataclass(frozen=True)
class RiskRow:
    law: str
    n: int
    group_size: int
    method: str  # oracle | adaptive
    mean_risk: float  # NaN when every replication failed
    std_error: float
    replications: int  # successful replications
    mean_cutoff: float
    failures: int = 0


@dataclass
class RiskReport:
    rows: list
    eta: float
    master_seed: int
    requested_replications: int
    failures: list = field(default_factory=list)

    def to_csv(self, path=None) -> str:
        buf = io.StringIO()
        buf.write("law,n,K,method,mean_risk,std_error,reps,mean_cutoff\n")
        for r in self.rows:
            mean_risk = f"{r.mean_risk:.10g}" if not math.isnan(r.mean_risk) else ""
            std_err = f"{r.std_error:.10g}" if not math.isnan(r.std_error) else ""
            cutoff = f"{r.mean_cutoff:.10g}" if not math.isnan(r.mean_cutoff) else ""
            buf.write(
                f"{r.law},{r.n},{r.group_size},{r.method},"
                f"{mean_risk},{std_err},{r.replications},{cutoff}\n"
            )
        text = buf.getvalue()
        if path is not None:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        return text

    def to_text(self) -> str:
        """Aligned table: one block of rows per (n, K), law columns."""
        laws = []
        for r in self.rows:
            if r.law not in laws:
                laws.append(r.law)
        pairs = []
        for r in self.rows:
            key = (r.n, r.group_size)
            if key not in pairs:
                pairs.append(key)
        lines = []
        header = f"{'n':>6} {'K':>4}"
        for law in laws:
            header += f" | {law + ' r_or*':>18} {law + ' r':>18}"
        lines.append(header)
        lines.append("-" * len(header))
        cell = {}
        for r in self.rows:
            cell[(r.n, r.group_size, r.law, r.method)] = r
        for n, k in pairs:
            line = f"{n:>6} {k:>4}"
            for law in laws:
                parts = []
                for method in ("oracle", "adaptive"):
                    r = cell.get((n, k, law, method))
                    if r is None or math.isnan(r.mean_risk):
                        parts.append(f"{'failed':>18}")
                    else:
                        txt = f"{r.mean_risk:.3f}"
                        if r.failures:
                            txt += f"({r.failures}!)"
                        parts.append(f"{txt:>18}")
                line += " | " + " ".join(parts)
            lines.append(line)
        lines.append("")
        lines.append(
            f"eta={self.eta}  master_seed={self.master_seed}  "
            f"replications={self.requested_replications}"
        )
        return "\n".join(lines) + "\n"


def run_grid(grid: ScenarioGrid) -> RiskReport:
    """Every cell of the grid; deterministic for a fixed master seed.

    Replications are independent tasks with derived seeds; results reduce
    in (cell, replication) order, so the report is identical for any worker
    count.  Cells whose replications all fail become NaN rows rather than
    silent omissions.
    """
    cells = grid.cells
    tasks = []
    for cell_idx, (law, n, k) in enumerate(cells):
        reps = list(range(grid.replications))
        for start in range(0, len(reps), BLOCK_SIZE):
            tasks.append(
                (
                    law,
                    n,
                    k,
                    grid.eta,
                    grid.master_seed,
                    cell_idx,
                    reps[start : start + BLOCK_SIZE],
                )
            )

    # more processes than tasks or CPUs would only wait
    n_workers = min(resolve_workers(), len(tasks), os.cpu_count() or 1)
    if n_workers == 1:
        block_results = [_run_cell_block(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            block_results = list(pool.map(_run_cell_block, tasks, chunksize=1))

    per_cell: dict[int, list] = {i: [] for i in range(len(cells))}
    for task, block in zip(tasks, block_results):
        per_cell[task[5]].extend(block)

    rows = []
    all_failures = []
    for cell_idx, (law, n, k) in enumerate(cells):
        results = per_cell[cell_idx]
        ok = [r for r in results if isinstance(r, ReplicationResult)]
        failed = [r for r in results if not isinstance(r, ReplicationResult)]
        all_failures.extend(failed)
        for method in ("oracle", "adaptive"):
            if ok:
                risks = np.array(
                    [getattr(r, f"risk_{method}") for r in ok]
                )
                cuts = np.array([getattr(r, f"m_{method}") for r in ok])
                mean_risk = float(risks.mean())
                std_error = (
                    float(risks.std(ddof=1) / math.sqrt(risks.size))
                    if risks.size > 1
                    else 0.0
                )
                mean_cutoff = float(cuts.mean())
            else:
                mean_risk = std_error = mean_cutoff = float("nan")
            rows.append(
                RiskRow(
                    law=law.name,
                    n=n,
                    group_size=k,
                    method=method,
                    mean_risk=mean_risk,
                    std_error=std_error,
                    replications=len(ok),
                    mean_cutoff=mean_cutoff,
                    failures=len(failed),
                )
            )
    return RiskReport(
        rows=rows,
        eta=grid.eta,
        master_seed=grid.master_seed,
        requested_replications=grid.replications,
        failures=all_failures,
    )
