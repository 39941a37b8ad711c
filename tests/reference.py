"""Direct reference computations that tests compare the package against."""
import math
import tracemalloc

import numpy as np

from groupdeconv._fourier import HALF_WIDTH, grid_spacing
from groupdeconv.bandwidth import scan_grid
from groupdeconv.charfn import SpreadEcf
from groupdeconv.inversion import oracle_risks, oracle_table
from groupdeconv.rootlog import RootEstimate

# The spreading kernel's exponent beta = pi^2 / (36 s) with s = 2 pi / 5,
# from the _fourier docstring, in that module's order of operations.
_BETA = math.pi**2 / (36.0 * (2.0 * math.pi / 5.0))


def ecf_at(sample, u):
    """phi_hat(u) = mean_j e^{iu Y_j}, evaluated directly."""
    u_arr = np.asarray(u, dtype=float)
    vals = np.exp(1j * np.multiply.outer(u_arr, sample.observations)).mean(axis=-1)
    return complex(vals) if np.isscalar(u) or u_arr.ndim == 0 else vals


def evaluate_grid(sample, grid):
    """phi_hat and phi_hat' on a grid, from a spread of the sample up to the
    grid's u_max."""
    return SpreadEcf(sample, grid.u_max).read(grid)


def root_oracle_risks(root, density, ms, xgrid):
    """``oracle_risks`` of ``ms`` against a table built for this one root."""
    return oracle_risks(root, oracle_table(density, xgrid, root.grid), ms)


def ecf_derivative_at(sample, u):
    """phi_hat'(u) = mean_j iY_j e^{iu Y_j}, evaluated directly."""
    u_arr = np.asarray(u, dtype=float)
    y = sample.observations
    vals = 1j * (y * np.exp(1j * np.multiply.outer(u_arr, y))).mean(axis=-1)
    return complex(vals) if np.isscalar(u) or u_arr.ndim == 0 else vals


def bisect_crossing(sample, level, lo, hi, xtol=1e-13):
    """A u in [lo, hi] where |phi_hat(u)| falls to ``level``: bisection on
    abs(ecf_at(sample, u)) - level, every step a direct O(n) evaluation."""
    lo, hi = float(lo), float(hi)
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if abs(ecf_at(sample, mid)) > level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scan_bracket(sample, level):
    """The scan grid points around the first |phi_hat| <= ``level``."""
    ev = evaluate_grid(sample, scan_grid(sample.n, sample.group_size))
    k = int(np.flatnonzero(ev.abs_phi <= level)[0])
    return ev.grid.points[k - 1], ev.grid.points[k]


def phi(ev):
    """phi_hat(u) on a CfEvaluation's nonnegative grid points."""
    return np.exp(1j * ev.center * ev.grid.points) * ev.phi_centered


def dphi(ev):
    """phi_hat'(u) on a CfEvaluation's nonnegative grid points."""
    return np.exp(1j * ev.center * ev.grid.points) * (
        1j * ev.center * ev.phi_centered + ev.dphi_centered
    )


def root_from_values(grid, values, group_size=1.0):
    """Wrap characteristic-function values given directly on a grid.

    Meant for analytic inputs: the continuous phase is recovered by
    unwrapping the pointwise argument, which is reliable only when the
    phase moves by well under pi per grid step.
    """
    vals = np.asarray(values, dtype=complex)
    assert vals.shape == grid.points.shape
    phase = np.unwrap(np.angle(vals))
    phase -= phase[0]
    return RootEstimate(
        grid=grid,
        modulus_pow=np.abs(vals),
        phase=phase,
        group_size=float(group_size),
    )


def energy_x(est):
    """integral of f_m(x)^2 over the estimate's grid (trapezoid)."""
    return float(np.trapezoid(est.values**2, est.xgrid.points))


def energy_u(root, m):
    """(1/2pi) integral_{-m}^{m} |phi_hat_X|^2 du on the root's grid."""
    k_m = root.grid.index_of(m)
    if k_m < 1:
        return 0.0
    mod2 = root.modulus_pow[: k_m + 1] ** 2
    return float(np.trapezoid(mod2, dx=root.grid.step) / math.pi)


def peak_traced_bytes(fn):
    """The tracemalloc peak, in bytes, of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def one_pass_spread(y, u_max, mass=None):
    """``GaussianSpread(y, u_max, mass).values`` with every point in one
    block: the 24 passes of the same arithmetic over all of y at once."""
    frac = y / grid_spacing(u_max)
    m0 = np.floor(frac)
    frac -= m0
    m0 -= m0.min()
    idx = m0.astype(np.intp)
    span = int(idx.max()) + 1
    e1 = np.exp(-_BETA * np.square(frac))
    e2 = np.exp(2.0 * _BETA * frac)
    values = np.zeros(span + 2 * HALF_WIDTH - 1)
    for offsets in (range(HALF_WIDTH + 1), range(-1, -HALF_WIDTH, -1)):
        weights = e1 * (1.0 if mass is None else mass)
        if offsets.start < 0:
            e2 = 1.0 / e2
        for t in offsets:
            if t:
                weights *= e2
            base = t + HALF_WIDTH - 1
            values[base : base + span] += math.exp(-_BETA * t * t) * np.bincount(
                idx, weights, minlength=span
            )
    return values
