"""Spectral-cutoff selection (adaptive threshold rule, oracle, diagnostics)
and ``estimate``, the one entry point from a sample to a density estimate.

The adaptive cutoff is the first frequency at which |phi_hat| drops to

    t(n, K, eta) = (K n)^{-1/2} + sqrt(eta * log(n) / K) * n^{-1/2},

capped at n^{1/K}.  Past that level the empirical characteristic function
is noise-dominated and the K-th root cannot be estimated, so the spectrum
is cut there.  The oracle cutoff minimizes the exact L2 risk over a cutoff
grid and is computable only when the true density is known (simulation
benchmarking).  The diagnostic threshold locates where the *exact* |phi|
crosses a theoretical level, for comparing the data-driven cutoff against
what the risk analysis predicts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .charfn import SpreadEcf, UGrid
from .errors import LevelNotReached, ParameterError
from .inversion import DensityEstimate, XGrid, invert, invert_prefixes, l2_distance
from .rootlog import MAX_STEP, RootEstimate, default_step, distinguished_root, feasible_root
from .samples import GroupedSample, TestLaw

__all__ = [
    "DEFAULT_ETA",
    "K1_CAP",
    "CutoffRecord",
    "check_eta",
    "threshold_value",
    "scan_grid",
    "cap_spread",
    "adaptive_cutoff",
    "oracle_risks",
    "estimate",
    "default_oracle_grid",
    "diagnostic_level",
    "diagnostic_threshold_u",
]

# The adaptive threshold constant eta wherever no caller sets one.
DEFAULT_ETA = 1.1

# For K == 1 the cap n^{1/K} = n would be impractically large.
K1_CAP = 1000.0

# The diagnostic bracketing scan gives up past this frequency.
DIAGNOSTIC_U_MAX = 1e6


@dataclass(frozen=True)
class CutoffRecord:
    """A chosen cutoff plus how it was chosen.

    ``threshold_hit`` is False when the adaptive scan never crossed its
    threshold and the cap n^{1/K} was returned instead.
    """

    value: float
    rule: str  # adaptive | oracle
    threshold_hit: bool
    scan_resolution: float
    params: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "rule": self.rule,
            "threshold_hit": self.threshold_hit,
            "scan_resolution": self.scan_resolution,
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
    check_eta(eta)
    return (group_size * n) ** -0.5 + math.sqrt(
        eta * math.log(n) / group_size
    ) / math.sqrt(n)


def cutoff_cap(n: int, group_size: float) -> float:
    """n^{1/K}, replaced by K1_CAP when K == 1."""
    if group_size == 1.0:
        return float(min(n, K1_CAP))
    return float(n) ** (1.0 / group_size)


def scan_grid(sample: GroupedSample | SpreadEcf) -> UGrid:
    """The adaptive rule's scan grid: step MAX_STEP, one step past the cap."""
    cap = cutoff_cap(sample.n, sample.group_size)
    return UGrid(u_max=cap + MAX_STEP, step=MAX_STEP)


def cap_spread(sample: GroupedSample) -> SpreadEcf:
    """The sample spread once up to ``scan_grid(sample).u_max``: the largest
    frequency the adaptive and oracle rules read."""
    return SpreadEcf(sample, scan_grid(sample).u_max)


def adaptive_cutoff(ecf: SpreadEcf, eta: float = DEFAULT_ETA) -> CutoffRecord:
    """Data-driven cutoff: scan |phi_hat| on ``scan_grid``, refine the first
    threshold crossing with ``SpreadEcf.crossing``, cap at n^{1/K}.

    ``ecf`` is the sample's spread, e.g. ``cap_spread(sample)``.  A
    threshold >= |phi_hat(0)| = 1 leaves no cutoff > 0: ParameterError.
    """
    t = threshold_value(ecf.n, ecf.group_size, eta)
    cap = cutoff_cap(ecf.n, ecf.group_size)
    ev = ecf.read(scan_grid(ecf))
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
        value = ecf.crossing(t, u[k - 1], u[k])
    if value >= cap:
        return CutoffRecord(cap, "adaptive", False, MAX_STEP, params)
    return CutoffRecord(value, "adaptive", True, MAX_STEP, params)


def default_oracle_grid(u_hi: float) -> np.ndarray:
    """60 log-spaced cutoff candidates from 0.25 to ``u_hi`` (just ``u_hi``
    when it is at most 0.25); the cutoff acts multiplicatively."""
    if u_hi <= 0.25:
        return np.asarray([u_hi])
    return np.geomspace(0.25, u_hi, 60)


def oracle_risks(
    root: RootEstimate, density, ms, xgrid: XGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Exact-density L2 risks at each cutoff, sharing one root estimate.

    Cutoffs snap down to the root's grid and are deduplicated; returns the
    (snapped cutoffs, risks) pair sorted ascending.
    """
    step = root.grid.step
    ks = sorted({root.grid.index_of(m) for m in ms})
    ks = [k for k in ks if k >= 1]
    if not ks:
        raise ParameterError("no usable cutoff candidates on the root grid")
    snapped = np.array([k * step for k in ks])
    return snapped, l2_distance(invert_prefixes(root, snapped, xgrid), density, xgrid)


def estimate(
    sample: GroupedSample, xgrid: XGrid, cutoff="adaptive", eta=DEFAULT_ETA, law=None
) -> DensityEstimate:
    """The summand's density on ``xgrid`` from one spread of the sample: the
    distinguished-log K-th root on [0, m], inverted at the cutoff m.

    ``cutoff`` is "adaptive" (the threshold rule at ``eta``), a fixed m > 0,
    or "oracle": the argmin of the ``oracle_risks`` against ``law``'s density
    over ``default_oracle_grid`` up to the cap n^{1/K} (the first minimum).
    The oracle scores and inverts one feasible root at ``default_step(cap)``,
    and records where |phi_hat| hit the integration floor (``truncated_at``);
    the other rules invert a root at ``default_step(m)``.  The adaptive and
    oracle rules spread the sample up to the cap plus MAX_STEP, a fixed m up
    to m + default_step(m).
    """
    check_eta(eta)
    if cutoff == "oracle":
        if law is None:
            raise ParameterError("cutoff='oracle' needs the true law (law=)")
        cap = cutoff_cap(sample.n, sample.group_size)
        step = default_step(cap)
        ecf = cap_spread(sample)
        root, violation = feasible_root(ecf.read(UGrid(cap + step, step)))
        candidates = default_oracle_grid(min(cap, root.u_limit))
        snapped, risks = oracle_risks(root, law.pdf, candidates, xgrid)
        best = int(np.argmin(risks))  # first minimum = smallest m on ties
        params = {"risk": float(risks[best]), "candidates": int(snapped.size)}
        if violation is not None:
            params["truncated_at"] = violation
        record = CutoffRecord(float(snapped[best]), "oracle", True, step, params)
        m = record.value
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
            ecf = SpreadEcf(sample, m + default_step(m))
        step = default_step(m)
        root = distinguished_root(ecf.read(UGrid(m + step, step)), m)
    rule = record.as_dict() if record is not None else {"rule": "fixed"}
    return replace(invert(root, m, xgrid), cutoff_rule=rule, provenance={"n": sample.n})


def diagnostic_level(
    n: int,
    group_size: float,
    gamma: float | None = None,
    eps: float = 0.1,
    delta: float = 0.1,
) -> tuple[float, float]:
    """(gamma, level) of the diagnostic: level = (1+eps)*gamma*sqrt(log n/n).

    ``gamma`` defaults to sqrt(1 + 2/K + delta).  A level <= 0 is rejected:
    |phi_X|^K reaches it only where it underflows.
    """
    if n < 2:
        raise ParameterError(f"need n >= 2 (got {n})")
    if gamma is None:
        gamma = math.sqrt(max(1.0 + 2.0 / group_size + delta, 0.0))
    if not (gamma > 0 and eps > -1):
        raise ParameterError(
            "the diagnostic level (1+eps)*gamma*sqrt(log n/n) must be > 0, "
            f"so eps > -1 and gamma > 0 (got eps={eps:g}, delta={delta:g}, "
            f"gamma={gamma:g})"
        )
    return gamma, (1.0 + eps) * gamma * math.sqrt(math.log(n) / n)


def diagnostic_threshold_u(
    law: TestLaw,
    n: int,
    group_size: float,
    gamma: float | None = None,
    eps: float = 0.1,
    delta: float = 0.1,
) -> float:
    """First u >= 0 where |phi_X(u)|^K falls to ``diagnostic_level``.

    Levels >= 1 are already met at u = 0.  The bracketing scan assumes the
    benchmark laws' monotonically decaying |phi_X|; LevelNotReached signals
    that the level is never met before DIAGNOSTIC_U_MAX.
    """
    _, level = diagnostic_level(n, group_size, gamma, eps, delta)
    if level >= 1.0:
        return 0.0

    def modulus_pow_k(u):
        return np.abs(law.cf(u)) ** group_size

    lo, hi = 0.0, 0.01
    while modulus_pow_k(hi) > level:
        lo = hi
        hi *= 1.3
        if hi > DIAGNOSTIC_U_MAX:
            raise LevelNotReached(
                f"|phi(u)|^{group_size:g} stays above {level:.3e} "
                f"up to u = {DIAGNOSTIC_U_MAX:g}"
            )
    from scipy.optimize import brentq  # only diagnose needs scipy's root finder

    return brentq(lambda u: modulus_pow_k(u) - level, lo, hi, xtol=1e-12)
