"""Empirical characteristic function of a grouped sample on points and grids.

phi_hat(u) = mean_j e^{iu Y_j} and its derivative phi_hat'(u) =
mean_j iY_j e^{iu Y_j}.  Grid evaluation recentres the observations at
their sample mean before transforming: phi_hat(u) = e^{iuc} * mean_j
e^{iu(Y_j - c)} is an exact identity, and downstream quadrature of the
log-derivative is much better conditioned on the centred factor (whose
derivatives scale with the spread of Y rather than with its location).
Between two grid points, ``ecf_crossing`` locates where |phi_hat| falls to
a level from one Taylor expansion of the centred factor.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._nufft import uniform_cf_sums
from .errors import ParameterError
from .samples import GroupedSample

__all__ = ["UGrid", "CfEvaluation", "ecf_at", "ecf_crossing", "evaluate_grid"]

# The crossing's Taylor series stops once its remainder bound is below this.
SERIES_TOL = 1e-17
# The crossing's bisection stops once its bracket is this narrow.
CROSSING_XTOL = 1e-13


@dataclass(frozen=True)
class UGrid:
    """Uniform symmetric frequency grid {-u_max, ..., -step, 0, step, ..., u_max}.

    Stored as its nonnegative half; the negative half is always obtained by
    conjugation.  0 is a grid point by construction and the symmetric point
    count is exactly 2*floor(u_max/step) + 1.
    """

    u_max: float
    step: float

    def __post_init__(self):
        if not (self.step > 0):
            raise ParameterError(f"grid step must be > 0 (got {self.step})")
        if self.u_max < self.step:
            raise ParameterError(
                f"u_max must be >= step (got u_max={self.u_max}, step={self.step})"
            )

    @property
    def n_half(self) -> int:
        # number of positive grid points; tolerant of float division edges
        return int(np.floor(self.u_max / self.step + 1e-9))

    @property
    def points(self) -> np.ndarray:
        """Nonnegative grid points, 0 first."""
        return np.arange(self.n_half + 1) * self.step

    def index_of(self, u: float) -> int:
        """Largest grid index k with k*step <= u (clipped to the grid)."""
        return max(0, min(self.n_half, int(np.floor(u / self.step + 1e-9))))


@dataclass(frozen=True)
class CfEvaluation:
    """phi_hat and phi_hat' on the nonnegative half of a UGrid.

    The arrays ``phi_centered``/``dphi_centered`` belong to the recentred
    observations Y - center: phi_hat(u) = e^{iu*center} phi_centered(u).
    ``n`` is None for evaluations built from an analytic characteristic
    function rather than data.  ``group_size`` is the K whose root the
    pipeline takes; any real value >= 1 is accepted.
    """

    grid: UGrid
    center: float
    phi_centered: np.ndarray
    dphi_centered: np.ndarray
    n: int | None
    group_size: float

    def __post_init__(self):
        if not (self.group_size >= 1):
            raise ParameterError(f"group size must be >= 1 (got {self.group_size})")

    @property
    def abs_phi(self) -> np.ndarray:
        """|phi_hat(u)|, unaffected by the recentring factor."""
        return np.abs(self.phi_centered)

    @staticmethod
    def from_function(cf, cf_prime, grid: UGrid, group_size: float) -> "CfEvaluation":
        """Wrap an analytic characteristic function for the root pipeline."""
        u = grid.points
        return CfEvaluation(
            grid=grid,
            center=0.0,
            phi_centered=np.asarray(cf(u), dtype=complex),
            dphi_centered=np.asarray(cf_prime(u), dtype=complex),
            n=None,
            group_size=float(group_size),
        )


def ecf_at(sample: GroupedSample, u) -> complex | np.ndarray:
    """phi_hat(u) = mean_j e^{iu Y_j}, evaluated directly."""
    u_arr = np.asarray(u, dtype=float)
    vals = np.exp(1j * np.multiply.outer(u_arr, sample.observations)).mean(axis=-1)
    return complex(vals) if np.isscalar(u) or u_arr.ndim == 0 else vals


def ecf_crossing(sample: GroupedSample, level: float, lo: float, hi: float) -> float:
    """A u in [lo, hi] where |phi_hat(u)| falls to ``level``, to CROSSING_XTOL.

    Needs |phi_hat(lo)| > level >= |phi_hat(hi)|.  With Y_c = Y - mean(Y)
    and h = hi - lo, the centred factor near lo is the Taylor series

        phi_c(lo + s*h) = sum_p (i*s)^p / p! * mean((h*Y_c)^p e^{i*lo*Y_c}),

    s in [0, 1], whose terms past order P add up to at most
    r^{P+1} / (P+1)! with r = h * max|Y_c| (the Taylor-series DFT of
    Anderson & Dahleh 1996).  The bracket is first bisected with direct
    ``ecf_at`` evaluations until r <= 1, or to CROSSING_XTOL if no float
    bracket is that narrow; one cos/sin pass and P real dot products then
    give the series, and the rest of the bisection runs on the polynomial
    alone.
    """
    lo, hi = float(lo), float(hi)
    yc = sample.observations - sample.mean
    spread = float(np.abs(yc).max())
    while (hi - lo) * spread > 1.0:
        mid = 0.5 * (lo + hi)
        if hi - lo <= CROSSING_XTOL or not lo < mid < hi:
            return mid  # so wide a sample is bisected on ecf_at alone
        if abs(ecf_at(sample, mid)) > level:
            lo = mid
        else:
            hi = mid
    h = hi - lo
    r = h * spread

    theta = lo * yc
    cos_t = np.cos(theta)
    sin_t = np.sin(theta, out=theta)
    yc *= h  # now h * Y_c, each |h * Y_c| <= r <= 1
    power = np.ones_like(yc)
    coefs = []  # coefs[p] multiplies s^p
    scale = 1.0 / sample.n  # i^p / (p! n)
    order, remainder = 0, r
    while True:
        coefs.append(scale * complex(power @ cos_t, power @ sin_t))
        if not remainder >= SERIES_TOL:
            break
        order += 1
        remainder *= r / (order + 1)
        scale *= 1j / order
        power *= yc
    coefs.reverse()

    a, b = lo, hi
    while True:
        mid = 0.5 * (a + b)
        if b - a <= CROSSING_XTOL or not a < mid < b:
            return mid
        s = (mid - lo) / h
        acc = 0j
        for c in coefs:  # Horner
            acc = acc * s + c
        if abs(acc) > level:
            a = mid
        else:
            b = mid


def evaluate_grid(
    sample: GroupedSample, grid: UGrid, with_derivative: bool = True
) -> CfEvaluation:
    """Evaluate phi_hat and phi_hat' on every nonnegative grid point.

    Pure function of (sample, grid): repeated calls are byte-identical, and
    the values agree with the direct sums (``ecf_at`` for phi_hat) to well
    below 1e-12.
    """
    y = sample.observations
    n = sample.n
    c = sample.mean
    yc = y - c
    ones = np.ones(n)
    if with_derivative:
        sums = uniform_cf_sums(yc, grid.step, grid.n_half, [ones, yc])
        phi_c = sums[0] / n
        dphi_c = 1j * sums[1] / n
    else:
        (s0,) = uniform_cf_sums(yc, grid.step, grid.n_half, [ones])
        phi_c = s0 / n
        dphi_c = np.zeros_like(phi_c)
    # mathematically exact endpoint values
    phi_c[0] = 1.0
    dphi_c[0] = 1j * float(yc.mean())
    return CfEvaluation(
        grid=grid,
        center=c,
        phi_centered=phi_c,
        dphi_centered=dphi_c,
        n=n,
        group_size=sample.group_size,
    )
