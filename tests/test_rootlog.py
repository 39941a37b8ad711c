import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from groupdeconv.bandwidth import K1_CAP, cutoff_cap
from groupdeconv.charfn import CfEvaluation, UGrid
from groupdeconv.errors import DenominatorTooSmall, ParameterError
from groupdeconv.rootlog import (
    ROOT_MODES,
    _centered_psi,
    check_cutoff,
    default_step,
    denominator_floor,
    distinguished_root,
    feasible_root,
    phase_gap,
    root_grid,
)
from groupdeconv.samples import Gamma, GroupedSample, Laplace, Normal, generate_grouped
from reference import evaluate_grid, phi


def analytic_eval(law, u_max, step, group_size=1.0):
    grid = UGrid(u_max=u_max, step=step)
    return CfEvaluation.from_function(law.cf, law.cf_prime, grid, group_size)


# ---------------------------------------------------------------------------
# distinguished logarithm against closed forms: with K = 1 the root holds
# |phi_hat| = exp(Re psi_hat) and the phase Im psi_hat
# ---------------------------------------------------------------------------


def test_log_at_zero_is_zero():
    cf = analytic_eval(Normal(2.0, 1.0), 1.0, 0.01)
    root = distinguished_root(cf, 0.01)
    assert root.phase.shape == (2,)
    assert root.phase[0] == 0.0
    assert root.modulus_pow[0] == 1.0


def test_log_of_gamma_cf_matches_principal_branch():
    # Gamma(6,3): psi(u) = -6 log(1 - iu/3); the principal branch is
    # continuous here because Re(1 - iu/3) = 1 > 0
    cf = analytic_eval(Gamma(6.0, 3.0), 5.0, 1e-3)
    root = distinguished_root(cf, 5.0)
    u = cf.grid.points
    expected = -6.0 * np.log(1.0 - 1j * u / 3.0)
    assert np.abs(root.phase - expected.imag).max() < 1e-6
    assert np.abs(np.log(root.modulus_pow) - expected.real).max() < 1e-6


def test_log_of_normal_cf_is_quadratic():
    cf = analytic_eval(Normal(2.0, 1.0), 5.0, 1e-3)
    root = distinguished_root(cf, 5.0)
    u = cf.grid.points
    assert np.abs(root.phase - 2.0 * u).max() < 1e-6
    assert np.abs(np.log(root.modulus_pow) + u * u / 2.0).max() < 1e-6


def test_exp_reconstruction_and_quadrature_order():
    # halving the step should cut the worst reconstruction error ~4x
    law = Gamma(6.0, 3.0)
    errors = {}
    for step in (4e-3, 2e-3):
        cf = analytic_eval(law, 4.0, step)
        root = distinguished_root(cf, 4.0)
        errors[step] = np.abs(root.values() - phi(cf)).max()
    ratio = errors[4e-3] / errors[2e-3]
    assert 3.5 < ratio < 4.5


def test_log_respects_range_precondition():
    cf = analytic_eval(Normal(2.0, 1.0), 1.0, 0.01)
    with pytest.raises(ParameterError, match="evaluated range"):
        distinguished_root(cf, 2.0)
    for u_limit in (-0.01, np.nan):
        with pytest.raises(ParameterError, match="evaluated range"):
            distinguished_root(cf, u_limit)
    with pytest.raises(ParameterError, match="at least one grid step"):
        distinguished_root(cf, 0.005)


# ---------------------------------------------------------------------------
# distinguished root against convolution identities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 6])
def test_gamma_root_recovers_fractional_shape(k):
    # (1 - iu/3)^{-6/K} is the cf of Gamma(6/K, 3)
    cf = analytic_eval(Gamma(6.0, 3.0), 5.0, 1e-3, group_size=k)
    root = distinguished_root(cf, 5.0)
    target = Gamma(6.0 / k, 3.0).cf(root.grid.points)
    assert np.abs(np.abs(target) - root.modulus_pow).max() < 1e-6
    assert np.abs(root.values() - target).max() < 1e-6


def test_normal_root_recovers_summand():
    # N(10,5) is the 5-fold sum of N(2,1); |cf| hits the 1e-12 integration
    # floor near u = 3.3, so stay inside the feasible range
    cf = analytic_eval(Normal(10.0, 5.0), 3.0, 1e-3, group_size=5)
    root = distinguished_root(cf, 3.0)
    target = Normal(2.0, 1.0).cf(root.grid.points)
    assert np.abs(root.values() - target).max() < 1e-6


def test_k1_root_is_identity_on_sample():
    s = generate_grouped(Normal(2.0, 1.0), 1000, 1, seed=17)
    grid = UGrid(2.0, 1e-5)
    cf = evaluate_grid(s, grid)
    root = distinguished_root(cf, 2.0)
    assert np.abs(root.values() - phi(cf)).max() < 1e-8


def test_symmetric_laplace_root_is_real_kth_root():
    # centred Laplace has a positive cf, so the root must stay real-positive
    cf = analytic_eval(Laplace(0.0, 1.0 / 3.0), 3.0, 1e-3, group_size=4)
    root = distinguished_root(cf, 3.0)
    assert np.abs(root.phase).max() < 1e-10
    expected = (1.0 + (root.grid.points / 3.0) ** 2) ** -0.25
    np.testing.assert_allclose(root.modulus_pow, expected, atol=1e-12)


def test_root_endpoint_invariants():
    s = generate_grouped(Gamma(6.0, 3.0), 800, 3, seed=9)
    cf = evaluate_grid(s, UGrid(1.0, 1e-3))
    root = distinguished_root(cf, 1.0)
    assert root.phase[0] == 0.0
    assert root.modulus_pow[0] == 1.0
    assert root.group_size == 3.0


def test_non_integer_group_size_accepted():
    cf = analytic_eval(Normal(10.0, 5.0), 2.0, 1e-3, group_size=2.5)
    root = distinguished_root(cf, 2.0)
    target = Normal(4.0, 2.0).cf(root.grid.points)
    assert np.abs(root.values() - target).max() < 1e-6


def test_root_multiplicativity_on_sampled_data():
    # exp(group_size * log root) must reproduce phi_hat to quadrature accuracy
    s = generate_grouped(Gamma(6.0, 3.0), 400, 2, seed=31)
    cf = evaluate_grid(s, UGrid(1.0, 1e-4))
    root = distinguished_root(cf, 1.0)
    rebuilt = np.exp(2.0 * (np.log(root.modulus_pow) + 1j * root.phase))
    assert np.abs(rebuilt - phi(cf)).max() < 1e-7


def test_group_size_below_one_rejected():
    # the one K >= 1 check sits where an evaluation is built; an infinite K
    # would give a flat root (modulus 1, phase 0)
    for k in (0.5, np.inf):
        with pytest.raises(ParameterError, match=rf"group size must be >= 1 \(got {k}\)"):
            analytic_eval(Normal(2.0, 1.0), 1.0, 0.01, group_size=k)


# ---------------------------------------------------------------------------
# denominator floor
# ---------------------------------------------------------------------------


def test_floor_values():
    assert denominator_floor(None) == 1e-12
    assert denominator_floor(10**6) == 1e-6
    assert denominator_floor(2) == pytest.approx(1e-3 / np.sqrt(2))


def test_zero_crossing_raises_with_location():
    # phi_hat of {-1, +1} is cos(u), which vanishes at pi/2
    s = GroupedSample(np.array([-1.0, 1.0]), 1.0)
    cf = evaluate_grid(s, UGrid(2.0, 1e-4))
    with pytest.raises(DenominatorTooSmall) as exc:
        distinguished_root(cf, 2.0)
    assert abs(exc.value.u - np.pi / 2) < 1e-2
    # requesting only the safe range stays fine
    root = distinguished_root(cf, 1.0)
    assert np.isfinite(root.values()).all()


def test_feasible_root_truncates_instead_of_raising():
    s = GroupedSample(np.array([-1.0, 1.0]), 1.0)
    cf = evaluate_grid(s, UGrid(2.0, 1e-4))
    root, violation = feasible_root(cf)
    assert violation is not None
    assert abs(violation - np.pi / 2) < 1e-2
    assert root.u_limit < violation


def test_feasible_root_raises_when_the_floor_leaves_no_step():
    # |phi_hat(u)| = |cos(pi u / 0.02)| vanishes at the first step, 0.01
    s = GroupedSample(np.array([5.0, 5.0 + np.pi / 0.01]), 1.0)
    cf = evaluate_grid(s, UGrid(1.0, 0.01))
    with pytest.raises(DenominatorTooSmall, match=r"\|phi_hat\(0\.01\)\|") as exc:
        feasible_root(cf)
    assert exc.value.u == cf.grid.step
    assert exc.value.value < exc.value.floor == denominator_floor(2)


def test_feasible_root_full_range_when_clean():
    cf = analytic_eval(Normal(2.0, 1.0), 2.0, 0.01)
    root, violation = feasible_root(cf)
    assert violation is None
    assert root.u_limit == pytest.approx(2.0)


def test_phase_gap_is_rounding_on_a_smooth_root_and_pi_across_a_missed_zero():
    # Normal(20,1) turns its phase by 1 rad a step at step 0.05; the
    # trapezoid is exact on its linear log-derivative, so the integrated
    # phase and the sampled argument agree to rounding at any K
    for k in (1, 3):
        cf = analytic_eval(Normal(20.0, 1.0), 2.0, 0.05, group_size=k)
        distinguished_root(cf, 2.0)
        assert phase_gap(cf, 2.0) < 1e-12
    # |phi_hat(u)| = |cos(pi u / 0.02)| vanishes at u = 0.01 and 0.03, between
    # points of root_grid(0.045): the floor passes them, while the sampled
    # argument flips by pi and the integrated phase does not
    s = GroupedSample(np.array([5.0, 5.0 + np.pi / 0.01] * 1000), 2.0)
    cf = evaluate_grid(s, root_grid(0.045))
    distinguished_root(cf, 0.045)
    assert phase_gap(cf, 0.045) > 3.1


def test_root_grid_budget_holds_the_caps_the_rules_ask_for():
    # the adaptive rule's root grid at the largest cap of any K (K1_CAP:
    # at K = 2 the cap sqrt(n) reaches it at n = 10^6), and a fixed m to 2621
    assert root_grid(K1_CAP).n_half <= ROOT_MODES
    assert root_grid(cutoff_cap(6_800_000, 2.0)).n_half <= ROOT_MODES
    assert root_grid(2621.0).n_half <= ROOT_MODES


@pytest.mark.parametrize("m", [2622.0, 1e5, 1e7, 1e15, 1e300])
def test_root_grid_refuses_a_cutoff_past_the_budget(m):
    # no grid is built: 1e7 asked for 1e9 modes, 1e300 for more than an
    # array may hold
    with pytest.raises(ParameterError, match=re.escape(f"cutoff m={m:g} is too large") + ".* modes"):
        root_grid(m)


@pytest.mark.parametrize("m, value", [(1, 1.0), (2.5, 2.5), (np.float64(0.3), 0.3), (Fraction(1, 4), 0.25)])
def test_check_cutoff_returns_a_real_cutoff_as_a_float(m, value):
    got = check_cutoff(m)
    assert type(got) is float and got == value


@pytest.mark.parametrize(
    "m", [True, np.True_, "1_0", " 2 ", None, 1j, 0, -1.0, -0.0, math.nan, math.inf, -math.inf, 10**400]
)
def test_check_cutoff_names_what_is_not_a_cutoff(m):
    with pytest.raises(ParameterError, match=re.escape(f"cutoff must be a finite number > 0 (got {m!r})")):
        check_cutoff(m)


@pytest.mark.parametrize("m", [-1.0, math.nan])
def test_root_grid_takes_only_a_cutoff(m):
    # -1.0 was refused for the step it gave the grid, nan as too small
    with pytest.raises(ParameterError, match=re.escape(f"cutoff must be a finite number > 0 (got {m})")):
        root_grid(m)


def test_default_step():
    assert default_step(100.0) == 0.01
    assert default_step(4.096) == pytest.approx(0.001)


@pytest.mark.parametrize("size", [2, 3, 5000])
def test_centered_psi_is_scipys_cumulative_trapezoid(size):
    # the numpy expression that replaced scipy's, pinned bit for bit
    rng = np.random.default_rng(size)
    re, im = rng.normal(size=(2, 2, size))
    phi_c, dphi_c = re + 1j * im
    ev = CfEvaluation(UGrid((size - 1) * 0.01, 0.01), 0.0, phi_c, dphi_c, None, 1.0)
    got = _centered_psi(ev, size - 1)
    want = cumulative_trapezoid(dphi_c / phi_c, dx=0.01, initial=0.0)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
