import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupdeconv.charfn as charfn
from groupdeconv._nufft import _MSP, uniform_cf_sums
from groupdeconv.bandwidth import adaptive_cutoff, scan_grid, threshold_value
from groupdeconv.charfn import CfEvaluation, UGrid, ecf_at, ecf_crossing, evaluate_grid
from groupdeconv.errors import ParameterError
from groupdeconv.samples import GroupedSample, Gumbel, Normal, generate_grouped, make_rng
from reference import bisect_crossing, dphi, ecf_derivative_at, phi


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
# gridded transform against the direct reference kernel
# ---------------------------------------------------------------------------


def direct_cf_sums(y, step, n_modes, weight_sets):
    """Reference O(n*M) evaluation of the sums ``uniform_cf_sums`` computes."""
    z = np.exp(1j * step * y)
    outputs = [np.empty(n_modes + 1, complex) for _ in weight_sets]
    w_pow = np.ones_like(z)
    for k in range(n_modes + 1):
        for out, w in zip(outputs, weight_sets):
            out[k] = np.dot(w, w_pow)
        w_pow = w_pow * z
        if (k + 1) % 512 == 0:
            w_pow /= np.abs(w_pow)  # keep the unit-modulus factor from drifting
    return outputs


def _edge_points(rng, n, n_modes, step):
    """Points whose phase step*y lies within one kernel width of 0 or 2*pi."""
    mr = 1 << max(4, int(np.ceil(np.log2(2.0 * (2 * n_modes + 1)))))
    width = _MSP * 2.0 * np.pi / mr
    turns = rng.integers(-3, 4, n)
    return (2.0 * np.pi * turns + rng.uniform(-width, width, n)) / step


@pytest.mark.parametrize(
    "points,n,n_modes,signed",
    [
        pytest.param("normal", 100, 64, False, id="100-64"),
        pytest.param("normal", 2000, 700, False, id="2000-700"),
        pytest.param("normal", 500, 4096, False, id="500-4096"),
        # the smallest fine grid (16 points, narrower than the 2*_MSP kernel)
        pytest.param("normal", 300, 0, True, id="small-grid-0"),
        pytest.param("normal", 300, 1, True, id="small-grid-1"),
        pytest.param("normal", 300, 3, True, id="small-grid-3"),
        # phases that spread across both ends of the fine grid
        pytest.param("edges", 400, 3, True, id="edges-3"),
        pytest.param("edges", 400, 64, True, id="edges-64"),
        pytest.param("edges", 400, 700, True, id="edges-700"),
        # |step*y| up to ~1e4: the phase wraps many times
        pytest.param("wraps", 2000, 700, True, id="wraps-700"),
    ],
)
def test_nufft_matches_direct_reference(points, n, n_modes, signed):
    rng = make_rng((1234, n, n_modes))
    step = 0.01
    if points == "edges":
        y = _edge_points(rng, n, n_modes, step)
    elif points == "wraps":
        y = rng.uniform(-1e4, 1e4, n) / step
    else:
        y = rng.normal(0.0, 3.0, n)
    w1 = np.ones(n)
    w2 = rng.normal(0.0, 1.0, n) if signed else y
    fast = uniform_cf_sums(y, step, n_modes, [w1, w2])
    slow = direct_cf_sums(y, step, n_modes, [w1, w2])
    np.testing.assert_allclose(fast[0], slow[0], atol=n * 1e-13)
    np.testing.assert_allclose(fast[1], slow[1], atol=np.abs(slow[1]).max() * 1e-11 + 1e-12)


def test_nufft_memory_is_linear_in_points():
    # the working set is a few (n,) arrays, not an (n, 2*_MSP) spreading block
    n = 200_000
    y = make_rng(77).normal(0.0, 3.0, n)
    w1 = np.ones(n)
    tracemalloc.start()
    try:
        uniform_cf_sums(y, 0.01, 700, [w1, y])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / n < 128


# ---------------------------------------------------------------------------
# threshold crossing
# ---------------------------------------------------------------------------


def scan_bracket(s, eta=1.1):
    """(level, lo, hi): the scan grid points around the first |phi_hat| <= t."""
    t = threshold_value(s.n, s.group_size, eta)
    ev = evaluate_grid(s, scan_grid(s), with_derivative=False)
    k = int(np.flatnonzero(ev.abs_phi <= t)[0])
    return t, ev.grid.points[k - 1], ev.grid.points[k]


def counting_ecf_at(monkeypatch):
    calls = []

    def counted(sample, u):
        calls.append(u)
        # a bisection to 1e-13 from a scan step of 2.5e-3 needs ~35 calls
        assert len(calls) <= 100, "ecf_crossing does not converge"
        return ecf_at(sample, u)

    monkeypatch.setattr(charfn, "ecf_at", counted)
    return calls


def test_crossing_matches_direct_bisection(monkeypatch):
    # shaped like the estimate benchmark: Gumbel(3, 1) 5-fold sums
    s = generate_grouped(Gumbel(3.0, 1.0), 10**4, 5, seed=41)
    t, lo, hi = scan_bracket(s)
    assert (hi - lo) * np.abs(s.observations - s.mean).max() <= 1.0
    calls = counting_ecf_at(monkeypatch)
    u = ecf_crossing(s, t, lo, hi)
    assert calls == []  # the narrow bracket is left to the series alone
    assert abs(u - bisect_crossing(s, t, lo, hi)) <= 1e-12
    assert lo < u < hi


def test_crossing_on_wide_sample_halves_first(monkeypatch):
    # one far outlier makes (hi - lo) * max|Y_c| ~ 50: the bracket is halved
    # with direct evaluations before the series takes over
    y = generate_grouped(Normal(2.0, 1.0), 2000, 5, seed=42).observations
    s = GroupedSample(np.append(y, 5000.0), 5.0)
    t, lo, hi = scan_bracket(s)
    assert (hi - lo) * np.abs(s.observations - s.mean).max() > 1.0
    calls = counting_ecf_at(monkeypatch)
    u = ecf_crossing(s, t, lo, hi)
    assert len(calls) >= 5
    assert abs(u - bisect_crossing(s, t, lo, hi)) <= 1e-12


def test_crossing_ends_when_no_bracket_is_narrow_enough(monkeypatch):
    # with max|Y_c| ~ 1e17 (a sentinel value in a data file, say) no float
    # bracket near u ~ 1 has (hi - lo) * max|Y_c| <= 1: the direct bisection
    # stops at the tolerance instead of halving one ulp forever
    y = generate_grouped(Normal(), 1000, 5, seed=1).observations
    s = GroupedSample(np.append(y, 1e17), 5.0)
    t, lo, hi = scan_bracket(s)
    calls = counting_ecf_at(monkeypatch)
    rec = adaptive_cutoff(s)
    assert rec.threshold_hit
    assert rec.value == bisect_crossing(s, t, lo, hi)
    assert len(calls) < 50

