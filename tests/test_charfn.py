import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupdeconv import charfn
from groupdeconv._fourier import BLOCK, HALF_WIDTH, GaussianSpread, grid_spacing
from groupdeconv.bandwidth import adaptive_cutoff, cap_spread, threshold_value
from groupdeconv.charfn import CROSSING_XTOL, GRID_SLACK, CfEvaluation, SpreadEcf, UGrid
from groupdeconv.errors import ParameterError
from groupdeconv.rootlog import MAX_STEP
from groupdeconv.samples import GroupedSample, Gumbel, Normal, generate_grouped, make_rng
from reference import (
    bisect_crossing,
    dphi,
    ecf_at,
    ecf_derivative_at,
    evaluate_grid,
    one_pass_spread,
    peak_traced_bytes,
    phi,
    scan_bracket,
)


def normal_sum_sample(n=2000, k=5, seed=11):
    return generate_grouped(Normal(2.0, 1.0), n, k, seed=seed)


# ---------------------------------------------------------------------------
# UGrid
# ---------------------------------------------------------------------------


def test_grid_points_symmetric_count():
    g = UGrid(u_max=1.0, step=0.5)
    np.testing.assert_allclose(g.points, [0.0, 0.5, 1.0])
    assert 2 * g.n_half + 1 == 5


def test_grid_count_exact_on_awkward_division():
    g = UGrid(u_max=5.0, step=1e-3)
    assert g.n_half == 5000
    assert g.points.size == 5001


def test_grid_validation():
    with pytest.raises(ParameterError):
        UGrid(1.0, 0.0)
    with pytest.raises(ParameterError):
        UGrid(0.1, 0.5)


def test_grid_index_of():
    g = UGrid(2.0, 0.01)
    assert g.index_of(0.0) == 0
    assert g.index_of(1.234) == 123
    assert g.index_of(99.0) == g.n_half
    # an array maps elementwise, as the scalar rule maps each point
    us = [1.234, 0.0, 99.0, -1.0, 0.5, 1.999999999999]
    scalar = [max(0, min(g.n_half, math.floor(u / g.step + GRID_SLACK))) for u in us]
    assert g.index_of(us).tolist() == scalar == [123, 0, 200, 0, 50, 200]


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------


def test_ecf_at_zero():
    s = normal_sum_sample()
    assert ecf_at(s, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-15)


def test_ecf_cancellation():
    s = GroupedSample(np.array([0.0, math.pi]), 1.0)
    assert abs(ecf_at(s, 1.0)) < 1e-15


def test_ecf_large_sample_near_true_cf():
    # Y ~ sum of 5 N(2,1): cf exp(10iu - 2.5u^2); Hoeffding-scale band
    s = generate_grouped(Normal(2.0, 1.0), 10**5, 5, seed=3)
    expected = np.exp(10 * 0.5j - 5 * 0.25 / 2)
    assert abs(ecf_at(s, 0.5) - expected) < 0.02


def test_ecf_derivative_at_zero_is_mean():
    s = normal_sum_sample()
    assert ecf_derivative_at(s, 0.0) == pytest.approx(1j * s.mean, abs=1e-14)


def test_ecf_derivative_single_atom():
    s = GroupedSample(np.array([1.0, 1.0]), 1.0)
    assert ecf_derivative_at(s, math.pi) == pytest.approx(
        1j * np.exp(1j * math.pi), abs=1e-15
    )


@pytest.mark.parametrize("u", [0.1, 1.0, 7.5, 19.0])
def test_ecf_derivative_matches_finite_difference(u):
    s = normal_sum_sample(n=500)
    h = 1e-5
    fd = (ecf_at(s, u + h) - ecf_at(s, u - h)) / (2 * h)
    tol = 1e-6 * (1 + np.abs(s.observations).max() ** 2)
    assert abs(fd - ecf_derivative_at(s, u)) < tol


@settings(max_examples=25, deadline=None)
@given(
    u=st.floats(-50, 50),
    seed=st.integers(0, 2**31),
)
def test_ecf_modulus_bounded(u, seed):
    s = generate_grouped(Normal(2.0, 1.0), 50, 3, seed=seed)
    assert abs(ecf_at(s, u)) <= 1 + 1e-12


# ---------------------------------------------------------------------------
# grid evaluation
# ---------------------------------------------------------------------------


def test_grid_eval_matches_pointwise():
    s = normal_sum_sample(n=1500, k=5, seed=21)
    grid = UGrid(u_max=4.0, step=0.01)
    ev = evaluate_grid(s, grid)
    u = grid.points
    np.testing.assert_allclose(phi(ev), ecf_at(s, u), atol=1e-12)
    np.testing.assert_allclose(dphi(ev), ecf_derivative_at(s, u), atol=1e-12)


def test_grid_eval_matches_pointwise_large():
    # heavy case: 1e5 observations on a 4097-point grid
    s = generate_grouped(Normal(2.0, 1.0), 10**5, 5, seed=8)
    grid = UGrid(u_max=4.096, step=1e-3)
    ev = evaluate_grid(s, grid)
    idx = np.array([0, 1, 17, 512, 1024, 2049, 4096])
    u = grid.points[idx]
    np.testing.assert_allclose(phi(ev)[idx], ecf_at(s, u), atol=1e-12)
    np.testing.assert_allclose(dphi(ev)[idx], ecf_derivative_at(s, u), atol=1e-12)


def test_grid_eval_endpoint_invariants():
    s = normal_sum_sample()
    ev = evaluate_grid(s, UGrid(1.0, 0.01))
    assert phi(ev)[0] == 1.0 + 0.0j
    assert dphi(ev)[0] == pytest.approx(1j * s.mean, abs=1e-13)
    assert np.all(ev.abs_phi <= 1 + 1e-12)


def test_grid_eval_is_pure():
    s = normal_sum_sample(n=400)
    g = UGrid(3.0, 0.02)
    a = evaluate_grid(s, g)
    b = evaluate_grid(s, g)
    np.testing.assert_array_equal(a.phi_centered, b.phi_centered)
    np.testing.assert_array_equal(a.dphi_centered, b.dphi_centered)


def test_from_function_wraps_analytic_cf():
    law = Normal(2.0, 1.0)
    grid = UGrid(3.0, 0.01)
    ev = CfEvaluation.from_function(law.cf, law.cf_prime, grid, group_size=1.0)
    np.testing.assert_allclose(phi(ev), law.cf(grid.points), atol=1e-15)
    assert ev.n is None


# ---------------------------------------------------------------------------
# the one spread against a direct O(n * M) reference
# ---------------------------------------------------------------------------


def direct_ecf(y, u):
    """Reference phi_hat and phi_hat' at every u, one direct sum per point."""
    phi_, dphi_ = np.empty(u.size, complex), np.empty(u.size, complex)
    for start in range(0, u.size, 256):
        terms = np.exp(1j * np.multiply.outer(u[start : start + 256], y))
        phi_[start : start + 256] = terms.mean(axis=1)
        dphi_[start : start + 256] = 1j * (terms @ y) / y.size
    return phi_, dphi_


def _spread_case(points, rng, n, u_max, n_modes, signed):
    """Observations for one kernel case; ``signed`` puts them on both sides of 0."""
    delta = grid_spacing(u_max)
    if points == "cells":  # n_modes y-grid cells wide, 0 cells: all equal
        y = rng.uniform(0.0, n_modes * delta, n)
    elif points == "edges":  # on y-grid nodes and one ulp either side
        nodes = rng.integers(-40, 40, n) * delta
        y = np.nextafter(nodes, nodes + rng.choice([-1.0, 0.0, 1.0], n))
    elif points == "wraps":  # |u y| up to ~7e4: about half past the reach
        y = rng.uniform(-1e4, 1e4, n)
    elif points == "outside":  # a bulk plus three values past the reach
        # (values where |u y| nears 1/eps, like 1e17, have rounding noise for
        # a phase in any sum; the crossing tests take those)
        y = np.concatenate([rng.normal(0.0, 3.0, n - 3), [-2e4, 1.5e4, 3e4]])
    else:
        y = rng.normal(0.0, 3.0, n)
    return y if signed else y + 50.0


@pytest.mark.parametrize(
    "points,n,n_modes,signed",
    [
        pytest.param("normal", 100, 64, False, id="100-64"),
        pytest.param("normal", 2000, 700, False, id="2000-700"),
        pytest.param("normal", 500, 4096, False, id="500-4096"),
        # the smallest spread grids: all observations within 0, 1 or 3 cells
        pytest.param("cells", 300, 0, True, id="small-grid-0"),
        pytest.param("cells", 300, 1, True, id="small-grid-1"),
        pytest.param("cells", 300, 3, True, id="small-grid-3"),
        # observations on the y-grid's nodes, where floor(y / delta) flips
        pytest.param("edges", 400, 3, True, id="edges-3"),
        pytest.param("edges", 400, 64, True, id="edges-64"),
        pytest.param("edges", 400, 700, True, id="edges-700"),
        # wider than the grid budget: the values past its reach are wrapped
        # into one period of the step and spread for the read
        pytest.param("wraps", 2000, 700, True, id="wraps-700"),
        pytest.param("outside", 500, 700, True, id="outside-700"),
    ],
)
def test_nufft_matches_direct_reference(points, n, n_modes, signed):
    grid = UGrid(max(n_modes, 1) * 0.01, 0.01)
    y = _spread_case(points, make_rng((1234, n, n_modes)), n, grid.u_max, n_modes, signed)
    ev = SpreadEcf(GroupedSample(y, 1.0), grid.u_max).read(grid)
    want_phi, want_dphi = direct_ecf(y, grid.points)
    # phi_hat' scales with the observations, or with 1/u_max for a sample
    # narrower than that (see _fourier)
    scale = max(1.0, 2.0 / grid.u_max, float(np.abs(y - ev.center).max()))
    np.testing.assert_allclose(phi(ev), want_phi, atol=1e-12, rtol=0)
    np.testing.assert_allclose(dphi(ev), want_dphi, atol=1e-12 * scale, rtol=0)


def test_nufft_memory_is_linear_in_points():
    # the working set is a few (n,) arrays, not an (n, 2*HALF_WIDTH) block
    n = 200_000
    s = GroupedSample(make_rng(77).normal(0.0, 3.0, n), 1.0)
    peak = peak_traced_bytes(lambda: SpreadEcf(s, 7.0).read(UGrid(7.0, 0.01)))
    assert peak / n < 128


@pytest.mark.parametrize("n", [2, 1000, BLOCK])
@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "mass"])
def test_spread_of_one_block_is_the_one_pass_spread_bit_for_bit(n, weighted):
    y = make_rng(n).normal(3.0, 4.0, n)
    mass = make_rng(n + 1).normal(size=n) if weighted else None
    spread = GaussianSpread(y, 7.0, mass)
    assert np.array_equal(spread.values, one_pass_spread(y, 7.0, mass))


@pytest.mark.parametrize(
    "n, scale, u_max",
    [
        (3 * BLOCK + 17, 4.0, 7.0),  # blocks of BLOCK points, a short last one
        (3 * BLOCK, 1.0, 8000.0),  # a grid longer than BLOCK sets the block
    ],
)
@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "mass"])
def test_spread_across_blocks_matches_the_one_pass_spread(n, scale, u_max, weighted):
    y = make_rng(n).normal(3.0, scale, n)
    mass = make_rng(n + 1).normal(size=n) if weighted else None
    spread = GaussianSpread(y, u_max, mass)
    reference = one_pass_spread(y, u_max, mass)
    assert spread.first == int(np.floor(y.min() / grid_spacing(u_max))) - (HALF_WIDTH - 1)
    assert spread.values.size == reference.size
    assert np.max(np.abs(spread.values - reference)) <= 1e-14 * np.max(np.abs(reference))


def test_spread_working_set_is_one_block_not_n():
    # a few arrays of one block (frac, idx, e1, weights and a bincount's),
    # 1.06 MB measured on 10^6 points; one of n alone would be 8 MB
    y = make_rng(78).normal(0.0, 2.0, 10**6)
    assert peak_traced_bytes(lambda: GaussianSpread(y, 15.8)) < 6 * 8 * BLOCK


def test_point_read_matches_the_grid_read():
    s = generate_grouped(Gumbel(3.0, 1.0), 5000, 5, seed=5)
    ecf = SpreadEcf(s, 5.5)
    ev = ecf.read(UGrid(5.5, 0.01))
    for k in (0, 1, 77, 300, 550):
        assert ecf.modulus(ev.grid.points[k]) == pytest.approx(ev.abs_phi[k], abs=1e-14)


@pytest.mark.parametrize("u_max", [1e-160, 1e-200, 0.0, -1.0, math.inf, math.nan])
def test_spread_refuses_a_reach_a_read_cannot_divide_by(u_max):
    # a read scales phi_hat' by 1 / u_max^2: 1e-200 divided by zero and
    # 1e-160 gave NaN before this was refused
    with pytest.raises(ParameterError, match="normal double"):
        SpreadEcf(normal_sum_sample(n=200), u_max)


def test_read_past_the_spread_is_refused():
    ecf = SpreadEcf(normal_sum_sample(n=200), 2.0)
    with pytest.raises(ParameterError, match="past the spread"):
        ecf.read(UGrid(2.5, 0.01))


# ---------------------------------------------------------------------------
# threshold crossing
# ---------------------------------------------------------------------------


def threshold_bracket(s):
    """(t, lo, hi): the adaptive threshold and the scan points around its
    first crossing."""
    t = threshold_value(s.n, s.group_size, 1.1)
    return (t, *scan_bracket(s, t))


def counting_point_reads(monkeypatch):
    calls = []
    modulus = SpreadEcf.modulus

    def counted(self, u):
        calls.append(u)
        assert len(calls) <= 100, "the crossing does not converge"
        return modulus(self, u)

    monkeypatch.setattr(SpreadEcf, "modulus", counted)
    return calls


# one point read per halving of a scan step down to CROSSING_XTOL
MAX_POINT_READS = math.ceil(math.log2(MAX_STEP / CROSSING_XTOL))


def test_crossing_matches_direct_bisection(monkeypatch):
    # shaped like the estimate benchmark: Gumbel(3, 1) 5-fold sums
    s = generate_grouped(Gumbel(3.0, 1.0), 10**4, 5, seed=41)
    t, lo, hi = threshold_bracket(s)
    ecf = cap_spread(s)
    calls = counting_point_reads(monkeypatch)
    u = charfn.bisect_crossing(ecf.modulus, t, lo, hi)
    assert len(calls) <= MAX_POINT_READS
    assert abs(u - bisect_crossing(s, t, lo, hi)) <= 1e-12
    assert lo < u < hi


def test_crossing_on_wide_sample_halves_first(monkeypatch):
    # one far outlier stretches the y-grid to ~2e4 points, read in blocks;
    # the bisection still halves the scan bracket one point read at a time
    y = generate_grouped(Normal(2.0, 1.0), 2000, 5, seed=42).observations
    s = GroupedSample(np.append(y, 5000.0), 5.0)
    t, lo, hi = threshold_bracket(s)
    calls = counting_point_reads(monkeypatch)
    u = charfn.bisect_crossing(cap_spread(s).modulus, t, lo, hi)
    assert len(calls) <= MAX_POINT_READS
    assert abs(u - bisect_crossing(s, t, lo, hi)) <= 1e-12


def test_crossing_ends_when_no_bracket_is_narrow_enough(monkeypatch):
    # a value ~1e17 (a sentinel in a data file, say) lies past the grid
    # budget and is summed directly; below ~1e-17 its phase makes |phi_hat|
    # jump at every ulp, and the bisection stops at the tolerance instead of
    # halving one ulp forever
    y = generate_grouped(Normal(), 1000, 5, seed=1).observations
    s = GroupedSample(np.append(y, 1e17), 5.0)
    t, lo, hi = threshold_bracket(s)
    calls = counting_point_reads(monkeypatch)
    rec = adaptive_cutoff(cap_spread(s))
    assert rec.threshold_hit
    assert abs(rec.value - bisect_crossing(s, t, lo, hi)) <= 1e-12
    assert len(calls) <= MAX_POINT_READS
