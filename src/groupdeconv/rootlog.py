"""Distinguished logarithm and K-th root of an empirical characteristic function.

For a zero-free characteristic function phi there is a unique continuous
logarithm psi with psi(0) = 0 and e^psi = phi, and it satisfies

    psi(u) = integral_0^u phi'(z) / phi(z) dz.

The K-th root of phi that recovers the summand's characteristic function is
exp(psi/K).  Numerically the root is assembled from two pieces: the modulus
|phi_hat(u)|^{1/K} is taken directly (exact, no quadrature), and only the
phase Im psi_hat(u)/K comes from cumulative trapezoid integration of the
log-derivative.  Integration runs on the recentred evaluation (see charfn):
phi_hat'/phi_hat = i*c + centred log-derivative, and the i*c*u part is
integrated exactly.

Integration aborts with DenominatorTooSmall when |phi_hat| falls below
max(1e-3/sqrt(n), 1e-12): past that point the integrand is statistically
meaningless and the continuous-logarithm construction loses its footing.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .charfn import GRID_SLACK, CfEvaluation, UGrid
from .errors import DenominatorTooSmall, ParameterError

__all__ = [
    "MAX_STEP",
    "ROOT_MODES",
    "RootEstimate",
    "default_step",
    "root_grid",
    "denominator_floor",
    "distinguished_root",
    "feasible_root",
    "phase_gap",
]

# The largest frequency step anywhere: the adaptive threshold scan, the
# oracle's root (read on the scan grid from the same spread) and the
# ceiling of default_step.  At 0.01 the centred log-derivative quadrature
# error stays orders of magnitude below the statistical error in every
# benchmark scenario while staying affordable.  Dips of |phi_hat| narrower
# than one step can be missed by the scan; |phi_hat| is Lipschitz with
# constant mean|Y|, so this is adequate for anything but extreme scales.
MAX_STEP = 0.01

# The most positive modes a root grid may hold.  The adaptive rule asks for
# root_grid(m) with m at most the cap, which bandwidth.K1_CAP = 1000 bounds
# at every K: 100001 modes at step 0.01.  Two doublings above that, the
# budget holds a fixed m up to 2621, and the read of such a grid peaks near
# 130 MB (about 400 bytes a mode, measured).
ROOT_MODES = 1 << 18


def default_step(u_range: float) -> float:
    """Default grid step for a requested frequency range."""
    return min(MAX_STEP, u_range / 4096.0)


def root_grid(m: float) -> UGrid:
    """The grid a root for cutoff m is read on: step default_step(m), to m + step.

    The ECF read on it scales phi_hat' by 1 / (m + step)^2 (see
    ``_fourier.GaussianSpread.grid``), so a cutoff whose reach squared is
    not a normal double is rejected, and so is one whose grid holds more
    than ROOT_MODES positive modes.
    """
    step = default_step(m)
    reach = m + step
    if not reach * reach >= sys.float_info.min:
        raise ParameterError(
            f"cutoff m={m:g} is too small: the square of its grid's reach "
            f"{reach:g} is below the smallest normal double"
        )
    if not reach / step + GRID_SLACK < ROOT_MODES + 1:
        raise ParameterError(
            f"cutoff m={m:g} is too large: its root grid would hold "
            f"{reach / step:.6g} modes at step {step:g}, past the budget of {ROOT_MODES}"
        )
    return UGrid(reach, step)


def denominator_floor(n: int | None) -> float:
    """Smallest |phi_hat| the log-derivative integration will divide by."""
    if n is None:
        return 1e-12
    return max(1e-3 / math.sqrt(n), 1e-12)


@dataclass(frozen=True)
class RootEstimate:
    """The estimated summand characteristic function on a nonnegative grid.

    Stored in polar form: ``modulus_pow[k]`` is |phi_hat(u_k)|^{1/group_size}
    and ``phase[k]`` is the continuous phase Im psi_hat(u_k)/group_size with
    phase[0] = 0.  The negative half of the grid is the conjugate mirror.
    """

    grid: UGrid
    modulus_pow: np.ndarray
    phase: np.ndarray
    group_size: float

    def values(self) -> np.ndarray:
        """phi_hat_X(u) on the nonnegative grid points."""
        return self.modulus_pow * np.exp(1j * self.phase)

    @property
    def u_limit(self) -> float:
        return self.grid.n_half * self.grid.step


def _floor_scan(cf: CfEvaluation, k_limit: int):
    """(k, DenominatorTooSmall naming it) for the first grid index k <= k_limit
    where |phi_hat| is below the denominator floor, or None."""
    floor = denominator_floor(cf.n)
    mod = np.abs(cf.phi_centered[: k_limit + 1])
    bad = np.flatnonzero(mod < floor)
    if not bad.size:
        return None
    k = int(bad[0])
    return k, DenominatorTooSmall(float(cf.grid.points[k]), float(mod[k]), floor)


def _centered_psi(cf: CfEvaluation, k_limit: int) -> np.ndarray:
    """Cumulative trapezoid of the centred log-derivative on [0, u_k]."""
    g = cf.dphi_centered[: k_limit + 1] / cf.phi_centered[: k_limit + 1]
    # scipy.integrate.cumulative_trapezoid(g, dx=step, initial=0.0), the same
    # expression without importing scipy
    return np.concatenate(([0.0], np.cumsum(cf.grid.step * (g[1:] + g[:-1]) / 2.0)))


def _assemble_root(cf: CfEvaluation, k_limit: int) -> RootEstimate:
    u = cf.grid.points[: k_limit + 1]
    modulus = np.abs(cf.phi_centered[: k_limit + 1])
    modulus_pow = modulus ** (1.0 / cf.group_size)
    psi_c = _centered_psi(cf, k_limit)
    phase = (cf.center * u + psi_c.imag) / cf.group_size
    return RootEstimate(
        UGrid(u_max=u[-1], step=cf.grid.step), modulus_pow, phase, cf.group_size
    )


def phase_gap(cf: CfEvaluation, u_limit: float) -> float:
    """The largest turn, in radians, over one grid step in [0, u_limit] between the
    integrated phase and the sampled argument of phi_hat: near 0 where phi_hat is
    smooth on the grid, near pi where it crosses zero between two grid points."""
    k_limit = cf.grid.index_of(u_limit)
    phi_c = cf.phi_centered[: k_limit + 1]
    turn = np.exp(1j * np.diff(_centered_psi(cf, k_limit).imag)) * phi_c[:-1] * phi_c[1:].conj()
    return float(np.abs(np.angle(turn)).max(initial=0.0))


def distinguished_root(cf: CfEvaluation, u_limit: float) -> RootEstimate:
    """phi_hat_X = |phi_hat|^{1/K} exp(i Im psi_hat / K) on [0, u_limit],
    with K the evaluation's group size.

    Raises DenominatorTooSmall if |phi_hat| dips below the floor inside the
    requested range.
    """
    if not 0 <= u_limit <= cf.grid.u_max + cf.grid.step * GRID_SLACK:
        raise ParameterError(
            f"u_limit must lie in the evaluated range [0, {cf.grid.u_max}] (got {u_limit})"
        )
    k_limit = cf.grid.index_of(u_limit)
    if k_limit < 1:
        raise ParameterError("a root estimate needs at least one grid step")
    hit = _floor_scan(cf, k_limit)
    if hit is not None:
        raise hit[1]
    return _assemble_root(cf, k_limit)


def feasible_root(cf: CfEvaluation):
    """Root on the largest feasible prefix [0, u_feasible] of the grid.

    Returns (root, violation) where violation is None when the whole grid
    passed the denominator floor, else the u at which integration stopped.
    The root then covers grid points strictly before the violation.  Raises
    DenominatorTooSmall when no grid step lies before it.
    """
    hit = _floor_scan(cf, cf.grid.n_half)
    if hit is None:
        return _assemble_root(cf, cf.grid.n_half), None
    k, error = hit
    if k <= 1:  # no grid step before the floor
        raise error
    return _assemble_root(cf, k - 1), error.u
