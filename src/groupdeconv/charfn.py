"""Empirical characteristic function of a grouped sample, spread once and
read on any grid or at any point.

phi_hat(u) = mean_j e^{iu Y_j} and its derivative phi_hat'(u) =
mean_j iY_j e^{iu Y_j}.  Evaluation recentres the observations at their
sample median c: phi_hat(u) = e^{iuc} * mean_j e^{iu(Y_j - c)} is an exact
identity, and downstream quadrature of the log-derivative is much better
conditioned on the centred factor (whose derivatives scale with the spread
of Y rather than with its location).  The median, unlike the mean, stays
inside the bulk of the sample whatever a few far values do.  ``SpreadEcf``
spreads the centred sample once and serves every read: the threshold scan,
the crossing between two of its points, and the root's grid.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._fourier import HALF_WIDTH, GaussianSpread, grid_spacing
from .errors import ParameterError
from .samples import GroupedSample, check_group_size

__all__ = ["GRID_SLACK", "UGrid", "CfEvaluation", "SpreadEcf", "bisect_crossing"]

# The fraction of a grid step (of u_max for a spread's reach) that absorbs float edges.
GRID_SLACK = 1e-9

# A level crossing's bisection stops once its bracket is this narrow.
CROSSING_XTOL = 1e-13
# The most y-grid points one spread may hold (see SpreadEcf).
GRID_BUDGET = 1 << 16


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
        return int(np.floor(self.u_max / self.step + GRID_SLACK))

    @property
    def points(self) -> np.ndarray:
        """Nonnegative grid points, 0 first."""
        return np.arange(self.n_half + 1) * self.step

    def index_of(self, u):
        """Largest grid index k with k*step <= u (clipped to the grid), for
        one u or elementwise for an array of them."""
        k = np.floor(np.asarray(u) / self.step + GRID_SLACK)
        return np.clip(k, 0, self.n_half).astype(np.intp)


@dataclass(frozen=True)
class CfEvaluation:
    """phi_hat and phi_hat' on the nonnegative half of a UGrid.

    The arrays ``phi_centered``/``dphi_centered`` belong to the recentred
    observations Y - center: phi_hat(u) = e^{iu*center} phi_centered(u).
    ``n`` is None for evaluations built from an analytic characteristic
    function rather than data.  ``group_size`` is the K whose root the
    pipeline takes; any finite real value >= 1 is accepted.
    """

    grid: UGrid
    center: float
    phi_centered: np.ndarray
    dphi_centered: np.ndarray
    n: int | None
    group_size: float

    def __post_init__(self):
        check_group_size(self.group_size)

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


class SpreadEcf:
    """phi_hat of one sample for 0 <= u <= ``u_max``, from one spread of it.

    The observations are centred at their median c and spread once, with
    weight 1, onto a uniform y-grid (``_fourier.GaussianSpread``) of at most
    GRID_BUDGET points.  ``read`` gives phi_hat and phi_hat' on a uniform
    grid from one chirp-z transform of it, and ``modulus`` |phi_hat| at one
    u from one dot product, which ``bisect_crossing`` bisects on.

    Observations farther from c than the grid reaches are summed directly
    at a single u, O(n_far).  A grid read repeats over Y -> Y + 2 pi / step,
    so for a grid they are wrapped into one such period and spread for that
    read: O(n_far), on a grid of 12 * modes points.
    """

    def __init__(self, sample: GroupedSample, u_max: float):
        self.u_max = float(u_max)
        # a read scales phi_hat' by 1 / u_max^2 (``GaussianSpread.grid``)
        if not (0 < self.u_max < math.inf and self.u_max * self.u_max >= sys.float_info.min):
            raise ParameterError(
                f"a spread needs a finite u_max > 0 whose square is a normal double (got {u_max:g})"
            )
        y = sample.observations
        self.n = sample.n
        self.group_size = sample.group_size
        # a sample median (the upper one for even n): one partition, no sort,
        # in the buffer that then holds the centred observations
        yc = y.copy()
        yc.partition(self.n // 2)
        self.center = float(yc[self.n // 2])
        self._mean_c = sample.mean - self.center
        np.subtract(y, self.center, out=yc)
        reach = (GRID_BUDGET // 2 - HALF_WIDTH - 1) * grid_spacing(u_max)
        self._far = y[:0]
        if max(-yc.min(), yc.max()) > reach:
            near = np.abs(yc) <= reach
            self._far, yc = y[~near], yc[near]
        self._spread = GaussianSpread(yc, u_max)
        self._reads = {}  # grid -> CfEvaluation: a grid read twice costs once

    def _far_sums(self, grid: UGrid):
        """sum_far e^{iu(Y - c)} and its u-derivative on the grid's points."""
        wrapped = np.fmod(self._far, 2.0 * math.pi / grid.step)  # exact
        count = grid.n_half + 1
        s, _ = GaussianSpread(wrapped, grid.u_max).grid(grid.step, count)
        centred = self._far - self.center
        s_y, _ = GaussianSpread(wrapped, grid.u_max, centred).grid(grid.step, count)
        back = np.exp(-1j * self.center * grid.points)
        return s * back, 1j * s_y * back

    def read(self, grid: UGrid) -> CfEvaluation:
        """phi_hat and phi_hat' on every nonnegative point of ``grid``."""
        if grid not in self._reads:
            self._reads[grid] = self._read(grid)
        return self._reads[grid]

    def _read(self, grid: UGrid) -> CfEvaluation:
        if grid.u_max > self.u_max * (1 + GRID_SLACK):
            raise ParameterError(
                f"grid reaches u={grid.u_max:g}, past the spread's u_max={self.u_max:g}"
            )
        count = grid.n_half + 1
        s, ds = self._spread.grid(grid.step, count)
        if self._far.size:
            far_s, far_ds = self._far_sums(grid)
            s, ds = s + far_s, ds + far_ds
        phi_c, dphi_c = s / self.n, ds / self.n
        # mathematically exact endpoint values
        phi_c[0] = 1.0
        dphi_c[0] = 1j * self._mean_c
        return CfEvaluation(grid, self.center, phi_c, dphi_c, self.n, self.group_size)

    def modulus(self, u: float) -> float:
        """|phi_hat(u)| at a single frequency."""
        total = self._spread.at(u)
        if self._far.size:
            total += np.exp(-1j * u * self.center) * np.exp(1j * u * self._far).sum()
        return abs(total) / self.n


def bisect_crossing(f, level: float, lo: float, hi: float) -> float:
    """A u in [lo, hi] where ``f`` falls to ``level``, to CROSSING_XTOL.

    Needs f(lo) > level >= f(hi); bisects until the bracket is within
    CROSSING_XTOL or its midpoint equals an end.
    """
    lo, hi = float(lo), float(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo <= CROSSING_XTOL or not lo < mid < hi:
            return mid
        if f(mid) > level:
            lo = mid
        else:
            hi = mid
