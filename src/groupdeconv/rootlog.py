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
from dataclasses import dataclass, field

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
]

PHASE_STEP_BOUND = math.pi / 4.0

# The largest frequency step anywhere: the adaptive threshold scan, the
# simulation's root (read on the scan grid from the same spread) and the
# ceiling of default_step.  At 0.01 the centred log-derivative quadrature
# error stays orders of magnitude below the statistical error in every
# benchmark scenario while staying affordable.  Dips of |phi_hat| narrower
# than one step can be missed by the scan; |phi_hat| is Lipschitz with
# constant mean|Y|, so this is adequate for anything but extreme scales.
MAX_STEP = 0.01

# The most positive modes a root grid may hold.  The rules of the package
# ask for root_grid(cap), 100 cap + 1 modes past cap = 40.96: at K = 1 the
# cap bandwidth.K1_CAP = 1000 gives 100001 modes, and at K = 2 the cap
# sqrt(n) passes that from n = 10^6.  Two doublings above 100001, the
# budget holds the K = 2 cap up to n = 6.9 * 10^6 and a fixed m up to
# 2621, and the read of such a grid peaks near 130 MB (about 400 bytes a
# mode, measured).
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
    ``warnings`` collects (u, condition) records such as suspiciously large
    per-step phase increments.
    """

    grid: UGrid
    modulus_pow: np.ndarray
    phase: np.ndarray
    group_size: float
    warnings: list = field(default_factory=list)

    def values(self) -> np.ndarray:
        """phi_hat_X(u) on the nonnegative grid points."""
        return self.modulus_pow * np.exp(1j * self.phase)

    @property
    def u_limit(self) -> float:
        return self.grid.n_half * self.grid.step


def _require_in_range(cf: CfEvaluation, u_limit: float) -> int:
    if u_limit < 0:
        raise ParameterError(f"u_limit must be >= 0 (got {u_limit})")
    if u_limit > cf.grid.u_max + cf.grid.step * GRID_SLACK:
        raise ParameterError(
            f"u_limit {u_limit} exceeds the evaluated range {cf.grid.u_max}"
        )
    return cf.grid.index_of(u_limit)


def _first_floor_violation(cf: CfEvaluation, k_limit: int):
    floor = denominator_floor(cf.n)
    mod = np.abs(cf.phi_centered[: k_limit + 1])
    bad = np.flatnonzero(mod < floor)
    if bad.size:
        k = int(bad[0])
        return k, float(cf.grid.points[k]), float(mod[k]), floor
    return None


def _centered_psi(cf: CfEvaluation, k_limit: int) -> np.ndarray:
    """Cumulative trapezoid of the centred log-derivative on [0, u_k]."""
    g = cf.dphi_centered[: k_limit + 1] / cf.phi_centered[: k_limit + 1]
    # scipy.integrate.cumulative_trapezoid(g, dx=step, initial=0.0), the same
    # expression without importing scipy
    return np.concatenate(([0.0], np.cumsum(cf.grid.step * (g[1:] + g[:-1]) / 2.0)))


def _assemble_root(cf: CfEvaluation, k_limit: int) -> RootEstimate:
    if k_limit < 1:
        raise ParameterError("a root estimate needs at least one grid step")
    step = cf.grid.step
    u = cf.grid.points[: k_limit + 1]
    modulus = np.abs(cf.phi_centered[: k_limit + 1])
    modulus_pow = modulus ** (1.0 / cf.group_size)
    psi_c = _centered_psi(cf, k_limit)
    phase = (cf.center * u + psi_c.imag) / cf.group_size

    warnings = []
    increments = np.abs(np.diff(phase))
    for k in np.flatnonzero(increments >= PHASE_STEP_BOUND):
        warnings.append(
            (
                float(u[k + 1]),
                f"phase increment {increments[k]:.3f} rad over one step of "
                f"{step:g}; unwrap may be unreliable here",
            )
        )
    return RootEstimate(
        UGrid(u_max=u[-1], step=step), modulus_pow, phase, cf.group_size, warnings
    )


def distinguished_root(cf: CfEvaluation, u_limit: float) -> RootEstimate:
    """phi_hat_X = |phi_hat|^{1/K} exp(i Im psi_hat / K) on [0, u_limit],
    with K the evaluation's group size.

    Raises DenominatorTooSmall if |phi_hat| dips below the floor inside the
    requested range.
    """
    k_limit = _require_in_range(cf, u_limit)
    hit = _first_floor_violation(cf, k_limit)
    if hit is not None:
        _, u, value, floor = hit
        raise DenominatorTooSmall(u, value, floor)
    return _assemble_root(cf, k_limit)


def feasible_root(cf: CfEvaluation):
    """Root on the largest feasible prefix [0, u_feasible] of the grid.

    Returns (root, violation) where violation is None when the whole grid
    passed the denominator floor, else the u at which integration stopped.
    The root then covers grid points strictly before the violation.
    """
    k_limit = cf.grid.n_half
    hit = _first_floor_violation(cf, k_limit)
    violation = None
    if hit is not None:
        k_bad, u_bad, value, floor = hit
        if k_bad == 0:
            raise DenominatorTooSmall(u_bad, value, floor)
        k_limit = k_bad - 1
        violation = u_bad
    root = _assemble_root(cf, k_limit)
    if violation is not None:
        root.warnings.append(
            (violation, "integration truncated at the denominator floor")
        )
    return root, violation
