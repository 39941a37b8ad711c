"""Truncated Fourier inversion of a root estimate, and L2 risk machinery.

The density estimate with spectral cutoff m is

    f_m(x) = (1/2pi) integral_{-m}^{m} e^{-iux} phi_hat_X(u) du
           = (1/pi) Re integral_0^m e^{-iux} phi_hat_X(u) du,

real-valued by conjugate symmetry.  The u-integral is a composite trapezoid
on the root's grid restricted to [0, m]: the cutoff snaps down to the last
grid point <= m, the package's one cutoff-to-grid mapping.  On the uniform
x-grid the quadrature sums for every x-point are one chirp-z transform
evaluated by FFT; each x-point's value is still the same u-quadrature.
``oracle_risks`` scores many cutoffs of one root without inverting any of
them: the inversions are nested prefixes of one spectrum, so their
trapezoid L2 risks on the x-grid are quadratic forms in the root values
(see its docstring).  What those forms need of the density and the x-grid
alone, ``oracle_table`` builds once per density, x-grid and root grid, so
a simulation cell builds it once and each of its samples pays only for its
own root.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._fourier import chirp_z
from .charfn import GRID_SLACK, UGrid
from .errors import ParameterError
from .rootlog import ROOT_MODES, RootEstimate
from .samples import GroupedSample

__all__ = [
    "XGrid",
    "X_COUNT",
    "X_HALF_WIDTH",
    "DensityEstimate",
    "centred_xgrid",
    "default_xgrid",
    "invert",
    "l2_distance",
    "oracle_risks",
    "oracle_table",
]


# Points on the default x-grid.
X_COUNT = 1024
# The default x-grid's half-width, in sd(X): eight standard deviations cover
# the summand's mass for any of the benchmark-style laws.
X_HALF_WIDTH = 8.0

# Rows per block of oracle_risks' lower-triangular Hankel sums: bounds its
# working set to a square of this many rows.
_HANKEL_BLOCK = 128
# The strict lower triangle of one block, which cuts each block from T.
_LOWER = np.tri(_HANKEL_BLOCK, k=-1)


@dataclass(frozen=True)
class XGrid:
    """Uniform evaluation grid on [x_min, x_max] with ``count`` points.

    ``count`` is at most ROOT_MODES, the budget of the root grid whose
    modes the inversion's chirp-z transform pairs with these points: both
    sides of the transform get the same bound, so its FFT stays within
    2^20 points and a count that no machine could hold is refused before
    anything is allocated.
    """

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
        if not isinstance(self.count, (int, np.integer)):
            raise ParameterError(f"x-grid point count must be an integer (got {self.count})")
        if self.count < 16:
            raise ParameterError(f"x-grid needs at least 16 points (got {self.count})")
        if self.count > ROOT_MODES:
            raise ParameterError(
                f"x-grid holds at most {ROOT_MODES} points, the root grid's budget (got {self.count})"
            )
        if not self.spacing > np.spacing(max(abs(self.x_min), abs(self.x_max))):
            raise ParameterError(
                f"x_min must be < x_max with room for {self.count} distinct doubles "
                f"(got {self.x_min}, {self.x_max})"
            )

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.count)

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.count - 1)


def centred_xgrid(center: float, sigma: float, count: int = X_COUNT) -> XGrid:
    """x-grid centred at the summand's mean with half-width X_HALF_WIDTH sd
    (``sigma``)."""
    return XGrid(center - X_HALF_WIDTH * sigma, center + X_HALF_WIDTH * sigma, count)


def default_xgrid(sample: GroupedSample, count: int = X_COUNT) -> XGrid:
    """Data-driven grid: E[X] = E[Y]/K and Var(X) = Var(Y)/K from the sample."""
    if sample.variance == 0:
        lo, hi = sample.observations.min(), sample.observations.max()
        why = (f"is 0 (all {sample.n} observations equal {lo:g})" if lo == hi
               else f"underflows to 0 (the {sample.n} observations span [{lo:g}, {hi:g}])")
        raise ParameterError(
            f"sd(Y) {why}, so the default x-grid has no width; give the x-grid "
            "(estimate --x-min, --x-max)"
        )
    sigma = math.sqrt(sample.variance / sample.group_size)
    return centred_xgrid(sample.mean / sample.group_size, sigma, count)


@dataclass(frozen=True)
class DensityEstimate:
    """f_m values on an x-grid together with how the cutoff was chosen.

    ``values`` is the raw inversion output: it may go negative.  An optional
    clipped-and-renormalized copy is available via ``nonnegative()``; the raw
    estimator is what all risks are computed from.  ``estimate`` sets
    ``phase_gap``, the ``rootlog.phase_gap`` of its root's read to the cutoff.
    """

    xgrid: XGrid
    values: np.ndarray
    cutoff_m: float
    cutoff_rule: dict
    group_size: float
    provenance: dict
    phase_gap: float | None = None

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
            "phase_gap": self.phase_gap,
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _cutoff_index(root: RootEstimate, ms):
    """The grid index the inversion at each m integrates to: the root's last
    grid point <= m, for one m or an array of them."""
    ms = np.asarray(ms)
    limit = root.u_limit + root.grid.step * (1 + GRID_SLACK)
    flat = ms.ravel()
    bad = np.flatnonzero(~((flat > 0) & (flat <= limit)))
    if bad.size:
        m = flat[bad[0]].item()
        raise ParameterError(
            f"cutoff m={m:.6g} exceeds the root estimate's range [0, {root.u_limit:.6g}]"
            if m > 0 else f"cutoff m must be > 0 (got {m})"
        )
    return root.grid.index_of(ms)


def invert(root: RootEstimate, m: float, xgrid: XGrid) -> DensityEstimate:
    """Spectral-cutoff inversion of the root estimate at cutoff m.

    The trapezoid weights over [0, m] (all zero when m is under one grid
    step) times the root values go through one chirp-z transform.
    """
    k = int(_cutoff_index(root, m))
    step = root.grid.step
    weights = np.zeros(k + 1)
    if k >= 1:
        weights[:] = step
        weights[0] = weights[k] = step / 2.0
    values = (weights * root.values()[: k + 1])[np.newaxis]
    return DensityEstimate(
        xgrid=xgrid,
        values=chirp_z(values, step, xgrid.x_min, xgrid.spacing, xgrid.count)[0].real / math.pi,
        cutoff_m=m,
        cutoff_rule={"rule": "fixed"},
        group_size=root.group_size,
        provenance={},
    )


def l2_distance(values, density, xgrid: XGrid):
    """Trapezoid approximation of the squared L2 distance on the grid.

    ``values`` holds an estimate on the grid points, or a batch of them one
    per row; ``density`` is a callable or an array on the same points.
    Returns a float for one estimate and one distance per row for a batch.
    """
    target = density(xgrid.points) if callable(density) else np.asarray(density)
    return np.trapezoid((values - target) ** 2, dx=xgrid.spacing, axis=-1)


@dataclass(frozen=True)
class OracleTable:
    """The sums of ``oracle_risks`` that depend on the density, the x-grid
    and the root's ``grid`` but not on the root, up to top = ``grid.n_half``.

    ``t`` holds T(d) for d = 0 .. 2 top, ``phi`` Phi_j for j = 0 .. top,
    ``weights`` the x-grid's trapezoid weights c_i and ``energy`` sum_i c_i
    f_i^2; the scorer cuts its Hankel blocks from ``t`` on each call.
    """

    xgrid: XGrid
    grid: UGrid
    energy: float
    weights: np.ndarray
    t: np.ndarray
    phi: np.ndarray


def oracle_table(density, xgrid: XGrid, grid: UGrid) -> OracleTable:
    """The x-side of ``oracle_risks`` for ``density`` (a callable or its
    values on the x-grid) and roots read on ``grid`` or a prefix of it:
    built once per density, x-grid and u-grid, and read by every root
    scored on it.

    T and Phi are one two-row chirp-z transform of the trapezoid weights,
    plain and times the density, with the phase taken back to the x-grid's
    midpoint.
    """
    step, top = grid.step, grid.n_half
    target = density(xgrid.points) if callable(density) else np.asarray(density)
    weights = np.full(xgrid.count, xgrid.spacing)
    weights[[0, -1]] /= 2.0
    half = 0.5 * (xgrid.x_max - xgrid.x_min)
    # sum_i row_i e^{-i (d s)(i dx)}, then the phase back to the midpoint
    sums = chirp_z(np.stack([weights, weights * target]), xgrid.spacing, 0.0, step, 2 * top + 1)
    sums *= np.exp(1j * half * step * np.arange(2 * top + 1))
    energy = l2_distance(0.0, target, xgrid)
    # copies, so the table does not keep the whole transform alive
    t, phi = sums[0].real.copy(), sums[1, : top + 1].copy()
    return OracleTable(xgrid, grid, energy, weights, t, phi)


def oracle_risks(root: RootEstimate, table: OracleTable, ms) -> tuple[np.ndarray, np.ndarray]:
    """Exact-density L2 risks at several cutoffs sharing one root.

    Returns (grid cutoffs, risks), one entry per entry of ``ms`` in the
    order given: the root's last grid point <= m and ``l2_distance(invert(
    root, m, table.xgrid).values, density, table.xgrid)``, computed from the
    root's spectrum without inverting any cutoff.  ``table`` is
    ``oracle_table(density, xgrid, grid)`` for a u-grid of the root's step
    that reaches the largest candidate's grid index; the table holds what
    does not depend on the root, and this call what does.  An empty ``ms``,
    or a table of another step or too short a grid, raises ParameterError.

    With c_i the x-grid's trapezoid weights, f_i the density, xi_i = x_i - mid
    about the grid's midpoint, s the root step and g_j = s phi_hat_X(u_j)
    e^{-i mid u_j} (g_0 halved), the inversion at grid index k >= 1 is
    Re h_k(xi) / pi, h_k = sum_{j <= k} a_j e^{-i xi u_j} with a = g but
    a_k = g_k / 2.  Its risk is Q(k) - 2 L(k) + sum_i c_i f_i^2, where

        2 pi^2 Q(k) = sum_{j, l <= k} a_j conj(a_l) T(j - l) + Re a_j a_l T(j + l)
             pi L(k) = Re sum_{j <= k} a_j Phi_j

    for T(d) = sum_i c_i e^{-i xi_i d s} (real: c is symmetric) and Phi_j =
    sum_i c_i f_i e^{-i xi_i j s}, both read from the table.
    Q and L are cumulative sums over k, the halved end weight a correction
    read at row k.  Q's terms need the Toeplitz and Hankel row sums of g
    against T up to k: within one x-grid's count of indices a causal
    convolution and lower-triangular blocks of the view T(k + l), each cut
    from T by one fixed mask, and through the partial inversion on the
    x-grid for the indices before that (T's matrices have rank <= the
    count), so the cost is linear in the largest index past it.
    Index 0 inverts to zero: risk sum_i c_i f_i^2.  The sums cancel by
    about that energy over the risk, and a risk is good to ~1e-15 of the
    energy.  Cutoffs sharing a grid point get bitwise-equal risks.
    """
    if len(ms) == 0:
        raise ParameterError("no cutoff candidates to score")
    ks = _cutoff_index(root, ms)
    step, top = root.grid.step, int(ks.max())
    if step != table.grid.step or top > table.grid.n_half:
        raise ParameterError(
            f"the oracle table (step {table.grid.step:g}, top index {table.grid.n_half}) "
            f"does not cover this root (step {step:g}) up to grid index {top}"
        )
    xgrid, t = table.xgrid, table.t
    risks = np.full(top + 1, table.energy)
    if top >= 1:
        u = np.arange(top + 1) * step
        mid = 0.5 * (xgrid.x_min + xgrid.x_max)
        half = 0.5 * (xgrid.x_max - xgrid.x_min)
        g = step * root.modulus_pow[: top + 1] * np.exp(1j * (root.phase[: top + 1] - mid * u))
        g[0] /= 2.0
        pairs = g.view(float).reshape(-1, 2)  # (Re g, Im g): a real block times g in one product

        # rows[k] = sum_{l <= k} conj(g_l) T(k - l) + sum_{l < k} g_l T(k + l)
        rows = np.zeros(top + 1, dtype=complex)
        partial = np.zeros(xgrid.count)  # Re sum_{l < lo} g_l e^{-i xi u_l}
        for lo in range(0, top + 1, xgrid.count):  # runs of one x-grid's count
            hi = min(lo + xgrid.count, top + 1)
            if lo:  # the columns l < lo, through the partial inversion
                back = chirp_z(
                    (2.0 * table.weights * partial)[np.newaxis], xgrid.spacing, lo * step, step, hi - lo
                )
                rows[lo:hi] = back[0] * np.exp(1j * half * u[lo:hi])
            rows[lo:hi] += np.convolve(np.conj(g[lo:hi]), t[: hi - lo])[: hi - lo]
            for r in range(lo, hi, _HANKEL_BLOCK):
                e = min(r + _HANKEL_BLOCK, hi)
                if r > lo:  # the columns lo <= l < r: a correlation
                    rows[r:e] += np.correlate(t[lo + r : r + e - 1], np.conj(g[lo:r]))
                block = sliding_window_view(t[2 * r : 2 * e - 1], e - r) * _LOWER[: e - r, : e - r]
                rows[r:e] += (block @ pairs[r:e]).view(complex)[:, 0]
            if hi < top + 1:
                partial += chirp_z(g[np.newaxis, lo:hi], step, -half, xgrid.spacing, xgrid.count, lo)[0].real

        cross = (g * rows).real
        diag = np.abs(g) ** 2 * t[0]
        anti = (g * g * t[: 2 * top + 1 : 2]).real
        quad = np.cumsum(2.0 * cross - diag + anti) - cross + diag / 4.0 - 0.75 * anti
        lin = (g * table.phi[: top + 1]).real
        lin = np.cumsum(lin) - lin / 2.0
        risks[1:] = (quad / (2.0 * math.pi**2) - 2.0 * lin / math.pi + table.energy)[1:]
    return ks * step, risks[ks]
