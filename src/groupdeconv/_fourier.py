"""Fourier kernels: one Gaussian spread of points read at any frequency, and
the chirp-z transform.

``GaussianSpread`` evaluates S(u) = sum_j e^{iu y_j} and S'(u) for
0 <= u <= u_max from one O(n) pass over the points (the type-3 construction
of Lee & Greengard, J. Comput. Phys. 206, 2005).  Each point is spread onto
the grid y_l = l * delta, delta = pi / (3 u_max), with the Gaussian
exp(-beta (y/delta - l)^2) cut at 12 grid points, and

    S(u) ~ e^{s (u/u_max)^2} sqrt(beta/pi) sum_l H_l e^{iu y_l}

for the spread H, because the Gaussian's transform is known and the grid
samples H three times finer than the Nyquist rate of u_max.  Aliasing
costs about e^{-24 s} of n and the cut e^{s - 144 beta}; s = 2 pi / 5 and
beta = pi^2 / (36 s) balance them at ~1e-13 (measured: nearer 1e-15).  A
uniform u-grid is one chirp-z read of H, a single u one dot product, and
S' the exact derivative of the read.  That derivative also scales the two
errors by ~12 s / u_max: S'/n is good to 1e-12 times the points' spread,
or to ~1.6e-12 / u_max when they all sit within a small part of 1/u_max.
"""
from __future__ import annotations

import math
import sys

import numpy as np

# half-width of the spreading kernel in grid points
HALF_WIDTH = 12
# Values per block, in the spread's passes and in a grouped draw: 2^15
# doubles are 256 KB, so a block's few temporaries stay in L2 cache across
# the passes over it instead of streaming n of them from memory each pass.
BLOCK = 1 << 15
# tau * u_max^2, and the kernel's exponent in grid units (see the module
# docstring for the error balance they strike)
_S = 2.0 * math.pi / 5.0
_BETA = math.pi**2 / (36.0 * _S)
# delta / sqrt(4 pi tau): the grid spacing over the Gaussian's mass
_NORM = math.sqrt(_BETA / math.pi)


def grid_spacing(u_max: float) -> float:
    """The spread grid's spacing delta for frequencies up to ``u_max``."""
    return math.pi / (3.0 * u_max)


def chirp_z(
    a: np.ndarray, step: float, x0: float, dx: float, count: int, first: int = 0
) -> np.ndarray:
    """sum_k a[c, k - first] exp(-i x_j k step) for every row c and
    x_j = x0 + j dx, j = 0 .. count - 1, k = first .. first + K - 1.

    This is a chirp-z transform (Bluestein 1970): with theta = dx * step,
    the identity jk = (j^2 + k^2 - (j - k)^2) / 2 turns the sum into a
    convolution with the chirp exp(i theta n^2 / 2), done by FFT in
    O((J + K) log(J + K)) per row instead of O(J K).
    """
    n_modes = a.shape[1]
    theta = dx * step
    size = 1 << (count + n_modes - 2).bit_length()  # no wrap-around: >= J + K - 1
    k = np.arange(first, first + n_modes)
    pre = np.exp(-1j * (x0 * step * k + _half_square_phase(theta, k)))
    n = np.arange(-(n_modes - 1), count) - first
    chirp = np.fft.fft(np.exp(1j * _half_square_phase(theta, n)), size)
    conv = np.fft.fft(a * pre, size, axis=1)
    conv *= chirp
    np.fft.ifft(conv, axis=1, out=conv)  # in place: the rows x size arrays dominate
    post = np.exp(-1j * _half_square_phase(theta, np.arange(count)))
    return conv[:, n_modes - 1 : n_modes - 1 + count] * post


def _half_square_phase(theta: float, n: np.ndarray) -> np.ndarray:
    """theta n^2 / 2 for integers n, reduced to [-pi, pi].

    In an ECF read the phases reach pi/6 per u-mode and y-grid point, too
    large to round to a double without losing digits.  In turns,
    theta/(4 pi) n^2 splits into a high part with few enough bits that its
    product with n^2 and the fraction of that are exact, and a low part
    whose product is small: ~1e-16 from exact.  Every factor uses the same
    rounded theta, so the transform is exact for that theta.
    """
    n2 = np.square(n.astype(float))  # exact: |n| < 2^26
    rate = theta / (4.0 * math.pi)
    # capped at the largest power of two a double holds: a tinier rate's
    # high part has fewer bits, and its low part stays below 2^-1024 n^2
    bits = 53 - int(n2.max()).bit_length() - math.frexp(rate)[1]
    scale = 2.0 ** min(bits, sys.float_info.max_exp - 1)
    high = round(rate * scale) / scale  # high * n^2 <= 2^53 in magnitude
    turns = np.fmod(high * n2, 1.0) + (rate - high) * n2
    return (2.0 * math.pi) * (turns - np.round(turns))


class GaussianSpread:
    """Masses at the points ``y`` (``mass``, 1 each by default), spread once
    for frequencies up to ``u_max``.

    The grid holds M = (max - min)(y) / delta + 2 * HALF_WIDTH points;
    callers bound it by the points they pass.  The spread makes 24 passes
    over each block of max(BLOCK, M) points in turn, so its working set is
    a few arrays of one block, not of n; a grid read is one chirp-z
    transform of length M + count and a point read O(M).
    """

    def __init__(self, y: np.ndarray, u_max: float, mass: np.ndarray | None = None):
        self.u_max = float(u_max)
        self.delta = grid_spacing(u_max)
        # floor and division by delta > 0 are monotone: the extremes give
        # the grid's ends, before any block is spread
        lo = int(np.floor(y.min() / self.delta))
        span = int(np.floor(y.max() / self.delta)) - lo + 1
        # offsets t run from 1 - HALF_WIDTH to HALF_WIDTH around
        # floor(y / delta), so every grid point left out is at least
        # HALF_WIDTH from its mass
        values = np.zeros(span + 2 * HALF_WIDTH - 1)
        # each bincount also costs the grid's length, so no block is shorter
        size = max(BLOCK, span)
        for start in range(0, y.size, size):
            block = slice(start, start + size)
            weight = 1.0 if mass is None else mass[block]
            _spread_block(values, y[block] / self.delta, lo, span, weight)
        self.values = values
        self.first = lo - (HALF_WIDTH - 1)  # values[i] is at (first + i) * delta
        self.points = (self.first + np.arange(values.size)) * self.delta
        live = values != 0
        self._live_points, self._live_values = self.points[live], values[live]

    def at(self, u: float) -> complex:
        """S(u) at a single frequency: one dot product over the grid."""
        read = complex(self._live_values @ np.exp(1j * u * self._live_points))
        return _NORM * math.exp(_S * (u / self.u_max) ** 2) * read

    def grid(self, step: float, count: int) -> tuple[np.ndarray, np.ndarray]:
        """S(u) = sum_j mass_j e^{iu y_j} and S'(u) at u = k * step,
        k = 0 .. count - 1."""
        u = np.arange(count) * step
        # sum_l H_l e^{iu y_l} and sum_l H_l y_l e^{iu y_l}, with u y_l =
        # -(-u) (first + l) delta
        rows = np.stack([self.values, self.values * self.points])
        sums = chirp_z(rows, self.delta, 0.0, -step, count, self.first)
        corr = _NORM * np.exp(_S * (u / self.u_max) ** 2)
        s = corr * sums[0]
        return s, (2.0 * _S / self.u_max**2) * u * s + 1j * corr * sums[1]


def _spread_block(values: np.ndarray, frac: np.ndarray, lo: int, span: int, mass) -> None:
    """Add ``mass`` at the points ``frac`` (y / delta, overwritten) to
    ``values``, whose entry i is at grid index lo - (HALF_WIDTH - 1) + i."""
    # in place where it can be: the working set is four arrays of the block
    m0 = np.floor(frac)
    frac -= m0
    m0 -= lo
    idx = m0.astype(np.intp)
    del m0

    # e^{-beta (frac - t)^2} = e1 * e2^t * e^{-beta t^2} (Greengard & Lee,
    # SIAM Review 46(3), 2004): two exponentials per point, the powers of
    # e2 by running products, the last factor a scalar per offset t
    e1 = np.square(frac)
    e1 *= -_BETA
    np.exp(e1, out=e1)
    e2 = frac
    e2 *= 2.0 * _BETA
    np.exp(e2, out=e2)
    weights = np.empty_like(e1)
    for offsets in (range(HALF_WIDTH + 1), range(-1, -HALF_WIDTH, -1)):
        np.multiply(e1, mass, out=weights)
        if offsets.start < 0:
            np.reciprocal(e2, out=e2)  # the offsets below floor(y / delta)
        for t in offsets:
            if t:
                weights *= e2
            base = t + HALF_WIDTH - 1
            values[base : base + span] += math.exp(-_BETA * t * t) * np.bincount(
                idx, weights, minlength=span
            )
