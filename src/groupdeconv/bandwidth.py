"""Spectral-cutoff selection (adaptive threshold rule, oracle, diagnostics)
and ``estimate``, the one entry point from a sample to a density estimate.

The adaptive cutoff is the first frequency at which |phi_hat| drops to

    t(n, K, eta) = (K n)^{-1/2} + sqrt(eta * log(n) / K) * n^{-1/2},

capped at n^{1/K} and K1_CAP.  Past that level the empirical characteristic
function is noise-dominated and the K-th root cannot be estimated, so the
spectrum is cut there.  The oracle cutoff minimizes the exact L2 risk over
a cutoff grid and is computable only when the true density is known;
``oracle_cutoff`` picks it for ``estimate`` and the simulation.  The diagnostic
threshold locates where the *exact* |phi| crosses a theoretical level, for
comparing the data-driven cutoff against what the risk analysis predicts.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .charfn import SpreadEcf, UGrid, bisect_crossing
from .errors import LevelNotReached, ParameterError
from .inversion import DensityEstimate, XGrid, invert, oracle_risks, oracle_table
from .rootlog import MAX_STEP, distinguished_root, feasible_root, phase_gap, root_grid
from .samples import GroupedSample, TestLaw, check_group_size

__all__ = [
    "DEFAULT_ETA",
    "K1_CAP",
    "CutoffRecord",
    "check_eta",
    "threshold_value",
    "scan_grid",
    "cap_spread",
    "adaptive_cutoff",
    "estimate",
    "default_oracle_grid",
    "oracle_cutoff",
    "diagnostic_level",
    "diagnostic_threshold_u",
]

# The adaptive threshold constant eta wherever no caller sets one.
DEFAULT_ETA = 1.1

# The cap at every K: near K = 1, n^{1/K} is about n.
K1_CAP = 1000.0

# The diagnostic crossing is sought in [0, DIAGNOSTIC_U_MAX] and no further.
DIAGNOSTIC_U_MAX = 1e6


@dataclass(frozen=True)
class CutoffRecord:
    """A chosen cutoff plus how it was chosen.

    ``threshold_hit`` is False when the adaptive scan never crossed its
    threshold and the cap ``cutoff_cap`` was returned instead.
    """

    value: float
    rule: str  # adaptive | oracle
    threshold_hit: bool
    params: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "rule": self.rule,
            "threshold_hit": self.threshold_hit,
            "scan_resolution": MAX_STEP,
            **self.params,
        }


def check_eta(eta: float) -> None:
    """The one rule on the threshold constant: a finite number > 1."""
    if not (math.isfinite(eta) and eta > 1):
        raise ParameterError(f"eta must be a finite number > 1 (got {eta})")


def threshold_value(n: int, group_size: float, eta: float) -> float:
    """The adaptive rule's |phi_hat| threshold t(n, K, eta)."""
    if n < 2:
        raise ParameterError(f"need n >= 2 (got {n})")
    check_group_size(group_size)
    check_eta(eta)
    return (group_size * n) ** -0.5 + math.sqrt(
        eta * math.log(n) / group_size
    ) / math.sqrt(n)


def cutoff_cap(n: int, group_size: float) -> float:
    """n^{1/K}, at most K1_CAP."""
    check_group_size(group_size)
    return min(float(n) ** (1.0 / group_size), K1_CAP)


def scan_grid(n: int, group_size: float) -> UGrid:
    """The adaptive rule's scan grid for n sums of ``group_size``: step
    MAX_STEP, one step past the cap."""
    return UGrid(u_max=cutoff_cap(n, group_size) + MAX_STEP, step=MAX_STEP)


def cap_spread(sample: GroupedSample) -> SpreadEcf:
    """The sample spread once up to its ``scan_grid``'s u_max: the largest
    frequency the adaptive and oracle rules read."""
    return SpreadEcf(sample, scan_grid(sample.n, sample.group_size).u_max)


def adaptive_cutoff(ecf: SpreadEcf, eta: float = DEFAULT_ETA) -> CutoffRecord:
    """Data-driven cutoff: scan |phi_hat| on ``scan_grid``, refine the first
    threshold crossing by bisecting ``SpreadEcf.modulus``, cap at ``cutoff_cap``.

    ``ecf`` is the sample's spread, e.g. ``cap_spread(sample)``.  A
    threshold >= |phi_hat(0)| = 1 leaves no cutoff > 0: ParameterError.
    """
    t = threshold_value(ecf.n, ecf.group_size, eta)
    cap = cutoff_cap(ecf.n, ecf.group_size)
    ev = ecf.read(scan_grid(ecf.n, ecf.group_size))
    params = {"eta": eta, "threshold": t, "cap": cap}
    u = ev.grid.points
    below = np.flatnonzero(ev.abs_phi <= t)
    k = int(below[0]) if below.size else u.size
    if k == 0:
        raise ParameterError(
            f"the adaptive threshold {t:.4g} exceeds 1 at n={ecf.n}; no cutoff is > 0"
        )
    # the scan point past the crossing may lie beyond the cap when the
    # crossing itself does not, so refine whenever the bracket starts below it
    value = cap
    if k < u.size and u[k - 1] < cap:
        value = bisect_crossing(ecf.modulus, t, u[k - 1], u[k])
    if value >= cap:
        return CutoffRecord(cap, "adaptive", False, params)
    return CutoffRecord(value, "adaptive", True, params)


def default_oracle_grid(u_hi: float) -> np.ndarray:
    """60 log-spaced cutoff candidates from 0.25 to ``u_hi`` (just ``u_hi``
    when it is at most 0.25); the cutoff acts multiplicatively."""
    if u_hi <= 0.25:
        return np.asarray([u_hi])
    return np.geomspace(0.25, u_hi, 60)


@functools.lru_cache(maxsize=1)
def _law_table(pdf, xgrid: XGrid, grid: UGrid):
    """The last ``oracle_table`` built, shared by the replications of a cell:
    a bound ``pdf`` hashes and compares by the identity of its law."""
    return oracle_table(pdf, xgrid, grid)


def oracle_cutoff(ecf: SpreadEcf, law: TestLaw, xgrid: XGrid, extra=()):
    """(record, root, risks) of the oracle against ``law``'s density on
    ``xgrid``: the ``feasible_root`` on the ``scan_grid``, scored by ``oracle_risks``
    at ``default_oracle_grid`` up to ``cutoff_cap`` or the root's end, then at each
    of ``extra`` held to the root's end.  The record holds the first argmin's grid
    cutoff, its ``risk``, the count of distinct grid cutoffs (``candidates``) and
    ``truncated_at`` if |phi_hat| hit the integration floor."""
    grid = scan_grid(ecf.n, ecf.group_size)
    root, violation = feasible_root(ecf.read(grid))
    u_hi = root.u_limit
    candidates = default_oracle_grid(min(cutoff_cap(ecf.n, ecf.group_size), u_hi))
    table = _law_table(law.pdf, xgrid, grid)
    cutoffs, risks = oracle_risks(root, table, np.append(candidates, np.minimum(extra, u_hi)))
    best = int(np.argmin(risks))  # the grid candidates ascend: smallest m on ties
    # a set, not np.unique, which imports numpy.ma (1.7 MB) into every simulate
    params = {"risk": float(risks[best]), "candidates": len(set(cutoffs.tolist()))}
    if violation is not None:
        params["truncated_at"] = violation
    return CutoffRecord(float(cutoffs[best]), "oracle", True, params), root, risks


def estimate(
    sample: GroupedSample, xgrid: XGrid, cutoff="adaptive", eta=DEFAULT_ETA, law=None
) -> DensityEstimate:
    """The summand's density on ``xgrid`` from one spread of the sample: the
    distinguished-log K-th root on [0, m], inverted at the cutoff m.

    ``cutoff`` is "adaptive" (the threshold rule at ``eta``), a fixed m > 0,
    or "oracle": the ``oracle_cutoff`` record against ``law``'s density, as the
    simulation takes it.  The oracle inverts the scan-grid root it scored, so
    the recorded risk is that of the values returned; the other rules invert a
    root on ``root_grid(m)``.  The adaptive and oracle rules spread the sample
    up to the cap plus MAX_STEP, a fixed m as far as ``root_grid(m)``.
    """
    check_eta(eta)
    if cutoff == "oracle":
        if law is None:
            raise ParameterError("cutoff='oracle' needs the true law (law=)")
        ecf = cap_spread(sample)
        record, root, _risks = oracle_cutoff(ecf, law, xgrid)
        m = record.value
        grid = scan_grid(sample.n, sample.group_size)
    else:
        if cutoff == "adaptive":
            ecf = cap_spread(sample)
            record = adaptive_cutoff(ecf, eta)
            m = record.value
        else:
            try:
                record, m = None, float(cutoff)
            except (TypeError, ValueError):
                raise ParameterError(
                    "cutoff must be 'adaptive', 'oracle' or a number > 0 "
                    f"(got {cutoff!r})"
                ) from None
            if not (math.isfinite(m) and m > 0):
                raise ParameterError(f"fixed cutoff must be > 0 (got {m})")
            ecf = SpreadEcf(sample, root_grid(m).u_max)
        grid = root_grid(m)
        root = distinguished_root(ecf.read(grid), m)
    rule = record.as_dict() if record is not None else {"rule": "fixed"}
    gap = phase_gap(ecf.read(grid), m)
    return replace(invert(root, m, xgrid), cutoff_rule=rule, provenance={"n": sample.n}, phase_gap=gap)


def diagnostic_level(
    n: int,
    group_size: float,
    gamma: float | None = None,
    eps: float = 0.1,
    delta: float = 0.1,
) -> tuple[float, float]:
    """(gamma, level) of the diagnostic: level = (1+eps)*gamma*sqrt(log n/n).

    ``gamma`` defaults to sqrt(1 + 2/K + delta).  A level <= 0 is rejected:
    |phi_X|^K reaches it only where it underflows; so is one that overflows.
    """
    if n < 2:
        raise ParameterError(f"need n >= 2 (got {n})")
    check_group_size(group_size)
    if gamma is None:
        gamma = math.sqrt(max(1.0 + 2.0 / group_size + delta, 0.0))
    level = (1.0 + eps) * gamma * math.sqrt(math.log(n) / n)
    if not (gamma > 0 and eps > -1 and math.isfinite(level)):
        raise ParameterError(
            "the diagnostic level (1+eps)*gamma*sqrt(log n/n) must be > 0 and "
            f"finite, so eps > -1 and gamma > 0 (got eps={eps:g}, delta={delta:g}, "
            f"gamma={gamma:g}, level={level:g})"
        )
    return gamma, level


def diagnostic_threshold_u(law: TestLaw, group_size: float, level: float) -> float:
    """First u >= 0 where |phi_X(u)|^K falls to ``level``, e.g. the one
    ``diagnostic_level`` gives.

    A level <= 0 is rejected: |phi_X|^K reaches it only where it
    underflows.  Levels >= 1 are already met at u = 0.  One bisection on
    [0, DIAGNOSTIC_U_MAX] assumes the benchmark laws' monotonically decaying
    |phi_X|; LevelNotReached signals that the level is not met by
    DIAGNOSTIC_U_MAX.
    """
    check_group_size(group_size)
    if not (level > 0):
        raise ParameterError(f"the diagnostic level must be > 0 (got {level:g})")
    if level >= 1.0:
        return 0.0

    def modulus_pow_k(u):
        return np.abs(law.cf(u)) ** group_size

    if modulus_pow_k(DIAGNOSTIC_U_MAX) > level:
        raise LevelNotReached(
            f"|phi(u)|^{group_size:g} stays above {level:.3e} "
            f"up to u = {DIAGNOSTIC_U_MAX:g}"
        )
    return bisect_crossing(modulus_pow_k, level, 0.0, DIAGNOSTIC_U_MAX)
