"""Monte-Carlo risk study: mean L2 risks per (law, n, K, cutoff method).

Each replication draws one grouped sample, computes the adaptive-cutoff
estimate and the oracle-cutoff estimate on that same sample and the same
x-grid, and records both L2 risks against the exact density.  Replication
seeds are derived by hashing (master seed, cell index, replication index),
so results are bit-identical regardless of worker count or scheduling.
"""
from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .bandwidth import DEFAULT_ETA, adaptive_cutoff, cap_spread, check_eta, oracle_cutoff
from .errors import GroupDeconvError, ParameterError
from .inversion import XGrid, centred_xgrid
from .rootlog import MAX_STEP
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
        for name in ("laws", "ns", "group_sizes"):
            if len(getattr(self, name)) == 0:
                raise ParameterError(f"{name} must not be empty")
        for name, values, least in (
            ("replications", [self.replications], 1),
            ("master_seed", [self.master_seed], 0),
            ("ns", self.ns, 2),
            ("group_sizes", self.group_sizes, 1),
        ):
            if not all(isinstance(v, numbers.Integral) and v >= least for v in values):
                raise ParameterError(f"{name} must hold integers >= {least} (got {list(values)})")
        # a row and a table column are keyed by the law's name
        names = [law.name for law in self.laws]
        for name in names:
            if names.count(name) > 1:
                raise ParameterError(f"laws must have distinct names (got {name!r} {names.count(name)} times)")
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
    law: TestLaw, n: int, group_size: int, eta: float = DEFAULT_ETA, seed=0
) -> ReplicationResult:
    """One sample, both estimators, both risks (same sample, same x-grid
    ``law_xgrid(law)``).

    One spread of the sample serves the threshold scan and ``oracle_cutoff``,
    whose record gives the oracle's cutoff and risk; m_hat is scored after
    the oracle's candidates, so the adaptive risk is the last of its risks.
    """
    sample = generate_grouped(law, n, group_size, seed)
    ecf = cap_spread(sample)
    record = adaptive_cutoff(ecf, eta)
    m_hat = record.value
    if m_hat < MAX_STEP:
        raise GroupDeconvError(
            f"adaptive cutoff {m_hat:.3g} is below one grid step; "
            f"the sample is too degenerate to invert"
        )

    oracle, _root, risks = oracle_cutoff(ecf, law, law_xgrid(law), (m_hat,))
    return ReplicationResult(
        risk_adaptive=float(risks[-1]),
        risk_oracle=oracle.params["risk"],
        m_adaptive=float(m_hat),
        m_oracle=oracle.value,
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


def _run_cell_block(task):
    """Worker entry: one block of replications of one cell of the grid."""
    grid, cell_idx, reps = task
    law, n, k = grid.cells[cell_idx]
    out = []
    for rep in reps:
        try:
            seed = (grid.master_seed, cell_idx, rep)
            out.append(run_replication(law, n, k, grid.eta, seed))
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
    grid: ScenarioGrid
    failures: list = field(default_factory=list)

    def to_csv(self) -> str:
        """One row per (law, n, K, method); a NaN figure is an empty field."""
        def figure(v):
            return "" if math.isnan(v) else f"{v:.10g}"

        rows = "".join(
            f"{r.law},{r.n},{r.group_size},{r.method},{figure(r.mean_risk)},"
            f"{figure(r.std_error)},{r.replications},{figure(r.mean_cutoff)}\n"
            for r in self.rows
        )
        return "law,n,K,method,mean_risk,std_error,reps,mean_cutoff\n" + rows

    def to_text(self) -> str:
        """Aligned table: one block of rows per (n, K), law columns."""
        laws = list(dict.fromkeys(r.law for r in self.rows))
        pairs = list(dict.fromkeys((r.n, r.group_size) for r in self.rows))
        lines = []
        header = f"{'n':>6} {'K':>4}"
        for law in laws:
            header += f" | {law + ' r_or*':>18} {law + ' r':>18}"
        lines.append(header)
        lines.append("-" * len(header))
        cell = {(r.n, r.group_size, r.law, r.method): r for r in self.rows}
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
            f"eta={self.grid.eta}  master_seed={self.grid.master_seed}  "
            f"replications={self.grid.replications}"
        )
        return "\n".join(lines) + "\n"


def run_grid(grid: ScenarioGrid) -> RiskReport:
    """Every cell of the grid; deterministic for a fixed master seed.

    Replications run in blocks of at most BLOCK_SIZE of one cell, with
    derived seeds; the blocks' results are flattened in (cell, replication)
    order, so each cell is one slice of ``grid.replications`` and the
    report is identical for any worker count.  Cells whose replications
    all fail become NaN rows rather than silent omissions.  No process
    pool, nor the multiprocessing stack behind it, is imported unless
    GROUPDECONV_THREADS asks for more than one worker and there is more
    than one task (and CPU that this process may use) to give them.
    """
    cells, reps = grid.cells, range(grid.replications)
    tasks = [
        (grid, cell_idx, reps[start : start + BLOCK_SIZE])
        for cell_idx in range(len(cells))
        for start in range(0, len(reps), BLOCK_SIZE)
    ]
    # more processes than tasks, or than the CPUs this process may run on,
    # would only wait; os.cpu_count counts every CPU of the host
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    n_workers = min(resolve_workers(), len(tasks), cpus)
    if n_workers == 1:
        blocks = map(_run_cell_block, tasks)
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            blocks = list(pool.map(_run_cell_block, tasks, chunksize=1))
    results = [r for block in blocks for r in block]

    rows, failures = [], []
    for cell_idx, (law, n, k) in enumerate(cells):
        cell = results[cell_idx * len(reps) : (cell_idx + 1) * len(reps)]
        ok = [r for r in cell if isinstance(r, ReplicationResult)]
        failures += [r for r in cell if not isinstance(r, ReplicationResult)]
        for method in ("oracle", "adaptive"):
            if ok:
                risks = np.array([getattr(r, f"risk_{method}") for r in ok])
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
                    failures=len(cell) - len(ok),
                )
            )
    return RiskReport(rows, grid, failures)
