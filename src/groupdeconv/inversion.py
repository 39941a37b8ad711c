"""Truncated Fourier inversion of a root estimate, and L2 risk machinery.

The density estimate with spectral cutoff m is

    f_m(x) = (1/2pi) integral_{-m}^{m} e^{-iux} phi_hat_X(u) du
           = (1/pi) Re integral_0^m e^{-iux} phi_hat_X(u) du,

real-valued by conjugate symmetry.  The u-integral is a composite trapezoid
on the root's grid restricted to [0, m]: the cutoff snaps down to the last
grid point <= m, ``grid_cutoff``, the package's one cutoff-to-grid mapping.
On the uniform x-grid the quadrature sums for every x-point, and for a
batch of cutoffs, are one chirp-z transform evaluated by FFT; each
x-point's value is still the same u-quadrature.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._fourier import chirp_z
from .charfn import GRID_SLACK
from .errors import CutoffExceedsRange, ParameterError
from .rootlog import RootEstimate
from .samples import GroupedSample

__all__ = [
    "XGrid",
    "X_COUNT",
    "DensityEstimate",
    "centred_xgrid",
    "default_xgrid",
    "grid_cutoff",
    "invert",
    "invert_prefixes",
    "l2_distance",
]


# Points on the default x-grid.
X_COUNT = 1024


@dataclass(frozen=True)
class XGrid:
    """Uniform evaluation grid on [x_min, x_max] with ``count`` points."""

    x_min: float
    x_max: float
    count: int = X_COUNT

    def __post_init__(self):
        # finite exactly when both ends and the spacing are
        if not math.isfinite(self.x_max - self.x_min):
            raise ParameterError(
                "x-grid ends and their distance must be finite "
                f"(got {self.x_min}, {self.x_max})"
            )
        if not (self.x_min < self.x_max):
            raise ParameterError(
                f"x_min must be < x_max (got {self.x_min}, {self.x_max})"
            )
        if self.count < 16:
            raise ParameterError(f"x-grid needs at least 16 points (got {self.count})")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.count)

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.count - 1)


def centred_xgrid(center: float, sigma: float, count: int = X_COUNT) -> XGrid:
    """x-grid centred at the summand's mean with half-width 8 sd (``sigma``).

    Eight standard deviations cover the summand's mass for any of the
    benchmark-style laws.
    """
    return XGrid(center - 8.0 * sigma, center + 8.0 * sigma, count)


def default_xgrid(sample: GroupedSample, count: int = X_COUNT) -> XGrid:
    """Data-driven grid: E[X] = E[Y]/K and Var(X) = Var(Y)/K from the sample."""
    if sample.variance == 0:
        raise ParameterError(
            f"sd(Y) is 0 (all {sample.n} observations equal {sample.mean:g}), so the "
            "default x-grid has no width; give the x-grid (estimate --x-min, --x-max)"
        )
    sigma = math.sqrt(sample.variance / sample.group_size)
    return centred_xgrid(sample.mean / sample.group_size, sigma, count)


@dataclass(frozen=True)
class DensityEstimate:
    """f_m values on an x-grid together with how the cutoff was chosen.

    ``values`` is the raw inversion output: it may go negative.  An optional
    clipped-and-renormalized copy is available via ``nonnegative()``; the raw
    estimator is what all risks are computed from.
    """

    xgrid: XGrid
    values: np.ndarray
    cutoff_m: float
    cutoff_rule: dict
    group_size: float
    provenance: dict

    def nonnegative(self) -> np.ndarray:
        """Clip at zero and renormalize to unit mass (post-processing only)."""
        v = np.clip(self.values, 0.0, None)
        mass = np.trapezoid(v, self.xgrid.points)
        return v / mass if mass > 0 else v

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x", "fhat"])
            for x, v in zip(self.xgrid.points, self.values):
                writer.writerow([f"{x:.12g}", f"{v:.12g}"])

    def to_json(self, path) -> None:
        payload = {
            "xgrid": {
                "x_min": self.xgrid.x_min,
                "x_max": self.xgrid.x_max,
                "count": self.xgrid.count,
            },
            "values": [float(v) for v in self.values],
            "cutoff": self.cutoff_rule | {"value": self.cutoff_m},
            "group_size": self.group_size,
            "provenance": self.provenance,
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _cutoff_index(root: RootEstimate, m: float) -> int:
    if not (m > 0):
        raise ParameterError(f"cutoff m must be > 0 (got {m})")
    if m > root.u_limit + root.grid.step * (1 + GRID_SLACK):
        raise CutoffExceedsRange(
            f"cutoff m={m:.6g} exceeds the root estimate's range "
            f"[0, {root.u_limit:.6g}]"
        )
    return root.grid.index_of(m)


def grid_cutoff(root: RootEstimate, m: float) -> float:
    """The cutoff the inversion at m integrates to: the root's last grid point <= m."""
    return _cutoff_index(root, m) * root.grid.step


def invert(root: RootEstimate, m: float, xgrid: XGrid) -> DensityEstimate:
    """Spectral-cutoff inversion of the root estimate at cutoff m."""
    return DensityEstimate(
        xgrid=xgrid,
        values=invert_prefixes(root, [m], xgrid)[0],
        cutoff_m=m,
        cutoff_rule={"rule": "fixed"},
        group_size=root.group_size,
        provenance={},
    )


def invert_prefixes(root: RootEstimate, ms, xgrid: XGrid) -> np.ndarray:
    """f_m values for several cutoffs sharing one root, one row per cutoff.

    Each cutoff contributes one row of trapezoid weights over [0, m]
    (all zero when m is under one grid step); the weighted root values of
    every row go through one chirp-z transform.
    """
    ks = [_cutoff_index(root, m) for m in ms]
    step = root.grid.step
    weights = np.zeros((len(ks), max(ks) + 1))
    for row, k in zip(weights, ks):
        if k >= 1:
            row[: k + 1] = step
            row[0] = row[k] = step / 2.0
    values = weights * root.values()[: weights.shape[1]]
    return chirp_z(values, step, xgrid.x_min, xgrid.spacing, xgrid.count).real / math.pi


def l2_distance(values, density, xgrid: XGrid):
    """Trapezoid approximation of the squared L2 distance on the grid.

    ``values`` holds an estimate on the grid points, or a batch of them one
    per row; ``density`` is a callable or an array on the same points.
    Returns a float for one estimate and one distance per row for a batch.
    """
    target = density(xgrid.points) if callable(density) else np.asarray(density)
    return np.trapezoid((values - target) ** 2, dx=xgrid.spacing, axis=-1)
