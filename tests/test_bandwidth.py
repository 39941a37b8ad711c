import gc
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupdeconv.bandwidth import (
    K1_CAP,
    adaptive_cutoff,
    cap_spread,
    cutoff_cap,
    default_oracle_grid,
    diagnostic_level,
    diagnostic_threshold_u,
    estimate,
    scan_grid,
    threshold_value,
)
from groupdeconv.charfn import UGrid
from groupdeconv.errors import LevelNotReached, ParameterError
from groupdeconv.inversion import XGrid, default_xgrid, invert, l2_distance
from groupdeconv.rootlog import default_step, feasible_root
from groupdeconv.samples import (
    Gamma,
    GroupedSample,
    Gumbel,
    Laplace,
    Normal,
    benchmark_laws,
    generate_grouped,
    make_rng,
)
from reference import (
    bisect_crossing,
    evaluate_grid,
    root_from_values,
    root_oracle_risks,
    scan_bracket,
)


# ---------------------------------------------------------------------------
# threshold arithmetic
# ---------------------------------------------------------------------------


def test_threshold_plug_in_arithmetic():
    # (5000)^{-1/2} + sqrt(1.1 * ln(1000) / 5) / sqrt(1000)
    t = threshold_value(1000, 5.0, 1.1)
    expected = 5000**-0.5 + math.sqrt(1.1 * math.log(1000) / 5.0) / math.sqrt(1000)
    assert t == pytest.approx(expected, rel=1e-12)
    assert t == pytest.approx(0.0531274, abs=2e-6)


def test_threshold_validation():
    with pytest.raises(ParameterError):
        threshold_value(1, 5.0, 1.1)
    with pytest.raises(ParameterError):
        threshold_value(1000, 5.0, 1.0)


@pytest.mark.parametrize("eta", [math.nan, math.inf, "2", True, None])
def test_adaptive_cutoff_rejects_non_finite_eta(eta):
    s = generate_grouped(Normal(), 1000, 5, seed=1)
    with pytest.raises(ParameterError, match=re.escape(f"eta must be a finite number > 1 (got {eta!r})")):
        adaptive_cutoff(cap_spread(s), eta=eta)


def test_cutoff_cap():
    assert cutoff_cap(1000, 5.0) == pytest.approx(1000 ** 0.2)
    assert cutoff_cap(10**4, 1.0) == 1000.0  # K1_CAP bounds the cap at every K
    assert cutoff_cap(500, 1.0) == 500.0
    assert cutoff_cap(2 * 10**4, 1.05) == K1_CAP
    assert cutoff_cap(10**6, 1.001) == K1_CAP
    assert cutoff_cap(10**7, 2.0) == K1_CAP
    assert cutoff_cap(10**5, 2.0) == pytest.approx(10**2.5)
    assert cutoff_cap(10**4, 1.5) == pytest.approx(10 ** (4 / 1.5))
    # so the scan grid just above K = 1 is the K = 1 one; no read is built
    for k in (1.001, 1.05):
        assert scan_grid(10**6, k).n_half <= 100001


# ---------------------------------------------------------------------------
# adaptive cutoff
# ---------------------------------------------------------------------------


def test_degenerate_sample_returns_cap():
    s = GroupedSample(np.full(50, 3.7), 2.0)
    rec = adaptive_cutoff(cap_spread(s), eta=1.1)
    assert rec.value == pytest.approx(cutoff_cap(50, 2.0))
    assert rec.threshold_hit is False


def test_threshold_above_one_leaves_no_cutoff():
    s = GroupedSample(np.array([0.3, 1.9]), 1.0)  # n=2, K=1: t > 1 = |phi_hat(0)|
    with pytest.raises(ParameterError, match="exceeds 1 at n=2"):
        adaptive_cutoff(cap_spread(s), eta=1.1)


def test_adaptive_crossing_matches_brute_force_scan():
    # oracle: exhaustive scan at resolution 1e-4 for the first |phi_hat| <= t
    laws = [Normal(2.0, 1.0), Gamma(6.0, 3.0), Laplace(0.5, 1 / 3)]
    for seed in range(50):
        s = generate_grouped(laws[seed % 3], 1000, 5, seed=(77, seed))
        rec = adaptive_cutoff(cap_spread(s), eta=1.1)
        t = threshold_value(1000, 5.0, 1.1)
        fine = evaluate_grid(s, UGrid(rec.value + 0.05, 1e-4))
        below = np.flatnonzero(fine.abs_phi <= t)
        if rec.threshold_hit:
            assert abs(rec.value - fine.grid.points[below[0]]) < 2e-4
        else:
            # capped at n^{1/K}: the fine scan must agree nothing crossed
            in_range = below[fine.grid.points[below] <= rec.value] if below.size else below
            assert in_range.size == 0


def test_adaptive_nonincreasing_in_eta():
    etas = [1.05, 1.2, 1.5, 2.5, 4.0]
    for seed in range(50):
        s = generate_grouped(Gamma(6.0, 3.0), 400, 3, seed=(5150, seed))
        values = [adaptive_cutoff(cap_spread(s), eta=e).value for e in etas]
        for hi, lo in zip(values[:-1], values[1:]):
            assert lo <= hi + 0.01


def test_adaptive_capped_at_n_to_one_over_k():
    for seed in range(20):
        n = int(make_rng((88, seed)).integers(50, 2000))
        s = generate_grouped(Laplace(0.5, 1 / 3), n, 5, seed=(999, seed))
        rec = adaptive_cutoff(cap_spread(s))
        assert rec.value <= cutoff_cap(n, 5.0) + 1e-12


def test_adaptive_cutoff_grows_with_n():
    # threshold shrinks as n grows, so the crossing moves out
    med = {}
    for n in (1000, 10000):
        vals = [
            adaptive_cutoff(
                cap_spread(generate_grouped(Normal(2.0, 1.0), n, 5, seed=(4242, n, r)))
            ).value
            for r in range(50)
        ]
        med[n] = np.median(vals)
    assert med[10000] > med[1000]


def test_adaptive_cutoff_refines_a_crossing_just_below_the_cap():
    # rescale a sample so that |phi_hat| reaches t at cap - 5e-4: the scan
    # point past the crossing then lies beyond the cap, the crossing does not
    s = generate_grouped(Normal(), 1000, 5, seed=1)
    cap = cutoff_cap(1000, 5.0)
    m = adaptive_cutoff(cap_spread(s)).value
    wide = GroupedSample(s.observations * (m / (cap - 0.0005)), 5.0)
    grid = scan_grid(wide.n, wide.group_size)
    assert grid.points[grid.index_of(cap - 0.0005) + 1] > cap
    rec = adaptive_cutoff(cap_spread(wide))
    assert rec.threshold_hit
    assert rec.value == pytest.approx(cap - 0.0005, abs=1e-9)


def test_fill_value_leaves_the_crossing_of_the_rest():
    # one NetCDF fill value among 1000 normal 5-sums lies far past the
    # spread's reach; it moves |phi_hat| by at most 1/1001, so the cutoff
    # lies where the other 1000 cross (1001 t -+ 1) / 1000
    y = generate_grouped(Normal(), 1000, 5, seed=1).observations
    rec = adaptive_cutoff(cap_spread(GroupedSample(np.append(y, 9.97e36), 5.0)))
    assert rec.threshold_hit
    bulk, t = GroupedSample(y, 5.0), rec.params["threshold"]
    crossings = [
        bisect_crossing(bulk, level, *scan_bracket(bulk, level))
        for level in ((1001 * t + 1) / 1000, (1001 * t - 1) / 1000)
    ]
    assert crossings[0] <= rec.value <= crossings[1]


@settings(max_examples=30, deadline=None)
@given(
    ticks=st.lists(st.integers(-(2**25), 2**25), min_size=20, max_size=300),
    shift=st.integers(-(2**20), 2**20),
    group_size=st.integers(1, 8),
)
def test_adaptive_cutoff_is_blind_to_an_exact_translation(ticks, shift, group_size):
    # on a 2^-20 lattice Y + c is exact, and so are the median and Y minus it
    y = np.ldexp(np.array(ticks, dtype=float), -20)
    before = adaptive_cutoff(cap_spread(GroupedSample(y, group_size)))
    after = adaptive_cutoff(cap_spread(GroupedSample(y + shift, group_size)))
    assert after == before


@pytest.mark.parametrize("k", [5, 50])
@pytest.mark.parametrize("law", list(benchmark_laws().values()), ids=lambda law: law.label)
def test_estimate_is_blind_to_the_order_of_the_observations(law, k):
    # over these 24 samples a sorted and a shuffled copy differ in f_hat by at
    # most 7.7e-14 of its maximum, in m_hat not at all, and in no threshold hit
    for seed in range(3):
        y = generate_grouped(law, 20_000, k, seed=(seed, k)).observations
        xgrid = default_xgrid(GroupedSample(y, k))
        ordered, shuffled = (
            estimate(GroupedSample(order, k), xgrid)
            for order in (np.sort(y), make_rng(seed).permutation(y))
        )
        scale = np.abs(ordered.values).max()
        assert np.abs(shuffled.values - ordered.values).max() <= 1e-11 * scale
        assert abs(shuffled.cutoff_m - ordered.cutoff_m) <= 1e-11
        assert shuffled.cutoff_rule["threshold_hit"] == ordered.cutoff_rule["threshold_hit"]


def test_adaptive_cutoff_leaves_no_cycle_holding_the_sample():
    # a simulation draws a fresh sample per replication; one kept alive by a
    # reference cycle would linger until the cyclic collector runs
    s = generate_grouped(Normal(2.0, 1.0), 1000, 5, seed=12)
    gc.disable()
    try:
        assert adaptive_cutoff(cap_spread(s)).threshold_hit
        ref = weakref.ref(s)
        del s
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# oracle cutoff
# ---------------------------------------------------------------------------


def sample_root(s, u_max, step):
    """Root of a sample's ECF over [0, u_max], as the oracle builds it."""
    root, _violation = feasible_root(evaluate_grid(s, UGrid(u_max + step, step)))
    return root


def test_oracle_singleton_grid():
    law = Normal(2.0, 1.0)
    s = generate_grouped(law, 500, 2, seed=3)
    ms, risks = root_oracle_risks(sample_root(s, 1.3, 0.01), law.pdf, [1.3], default_xgrid(s))
    assert ms == pytest.approx([1.3], abs=0.01)
    assert risks.shape == (1,) and np.isfinite(risks[0])


def test_oracle_on_noiseless_root_picks_largest_m():
    # bias strictly decreasing with no variance: argmin is the largest cutoff
    law = Normal(2.0, 1.0)
    grid = UGrid(8.0, 0.002)
    root = root_from_values(grid, law.cf(grid.points), 1.0)
    xg = XGrid(-4.0, 8.0, 513)
    ms, risks = root_oracle_risks(root, law.pdf, [1.0, 2.0, 4.0, 8.0], xg)
    assert ms[np.argmin(risks)] == pytest.approx(8.0)
    assert np.all(np.diff(risks) <= 1e-8)


def test_oracle_ties_break_toward_smaller_m():
    law = Normal(2.0, 1.0)
    grid = UGrid(2.0, 0.01)
    root = root_from_values(grid, law.cf(grid.points), 1.0)
    xg = XGrid(-4.0, 8.0, 129)
    # 1.5 and 1.5005 share a grid point, where the noiseless risk is least
    ms, risks = root_oracle_risks(root, law.pdf, [1.0, 1.5, 1.5005], xg)
    assert ms[1] == ms[2] == pytest.approx(1.5)
    assert risks[1] == risks[2]
    assert np.argmin(risks) == 1


def test_oracle_risks_one_per_candidate_in_the_order_given():
    law = Laplace(0.5, 1.0 / 3.0)
    s = generate_grouped(law, 1000, 5, seed=17)
    root = sample_root(s, 3.0, 0.01)
    xg = default_xgrid(s)
    ms = [2.2, 0.4, 3.0, 1.234, 0.4, 0.9]
    cutoffs, risks = root_oracle_risks(root, law.pdf, ms, xg)
    assert cutoffs.tolist() == [root.grid.index_of(m) * root.grid.step for m in ms]
    assert cutoffs.tolist() == pytest.approx([2.2, 0.4, 3.0, 1.23, 0.4, 0.9])
    for m, risk in zip(ms, risks):
        alone = l2_distance(invert(root, m, xg).values, law.pdf, xg)
        assert risk == pytest.approx(alone, rel=1e-12, abs=1e-15)
    assert risks[1] == risks[4]


def test_oracle_beats_or_matches_adaptive_when_injected():
    law = Laplace(0.5, 1.0 / 3.0)
    cap = cutoff_cap(1000, 5.0)
    for seed in range(5):
        s = generate_grouped(law, 1000, 5, seed=(31337, seed))
        rec_a = adaptive_cutoff(cap_spread(s))
        root = sample_root(s, cap, default_step(cap))
        xg = default_xgrid(s)
        candidates = np.append(default_oracle_grid(min(cap, root.u_limit)), rec_a.value)
        _ms, risks = root_oracle_risks(root, law.pdf, candidates, xg)
        # by argmin dominance the oracle risk cannot exceed the adaptive one
        risk_a = l2_distance(invert(root, rec_a.value, xg).values, law.pdf, xg)
        assert risks.min() <= risk_a + 1e-6


def test_oracle_rejects_empty_grid():
    law = Normal(2.0, 1.0)
    s = generate_grouped(law, 200, 2, seed=1)
    with pytest.raises(ParameterError):
        root_oracle_risks(sample_root(s, 1.0, 0.01), law.pdf, [], default_xgrid(s))


def test_default_oracle_grid_shape():
    g = default_oracle_grid(4.0)
    assert g.size == 60
    assert g[0] == pytest.approx(0.25)
    assert g[-1] == pytest.approx(4.0)
    assert np.all(np.diff(np.log(g)) > 0)
    assert default_oracle_grid(0.2).tolist() == [0.2]


# ---------------------------------------------------------------------------
# diagnostic threshold
# ---------------------------------------------------------------------------


def test_diagnostic_level_already_met_at_zero():
    # eps large enough to push the level above 1
    _, level = diagnostic_level(2, 5.0, eps=1.0)
    assert level > 1.0
    assert diagnostic_threshold_u(Normal(2.0, 1.0), 5.0, level) == 0.0


def test_diagnostic_normal_closed_form():
    n, k, eps = 10**4, 5.0, 0.1
    gamma = math.sqrt(1 + 2 / k)
    level = (1 + eps) * gamma * math.sqrt(math.log(n) / n)
    u = diagnostic_threshold_u(Normal(2.0, 1.0), k, level)
    expected = math.sqrt(-2.0 * math.log(level) / k)
    assert abs(u - expected) < 1e-6


def test_diagnostic_laplace_closed_form():
    # |phi_X(u)|^K = (1 + u^2/9)^{-K} = level  =>  u = 3 sqrt(level^{-1/K} - 1)
    law = Laplace(0.5, 1.0 / 3.0)
    n, k, eps = 10**4, 5.0, 0.1
    gamma = math.sqrt(1 + 2 / k + 0.1)
    level = (1 + eps) * gamma * math.sqrt(math.log(n) / n)
    u = diagnostic_threshold_u(law, k, level)
    expected = 3.0 * math.sqrt(level ** (-1.0 / k) - 1.0)
    assert abs(u - expected) < 1e-6


@pytest.mark.parametrize("k", [1.0, 5.0, 50.0])
def test_diagnostic_gamma_closed_form(k):
    # |phi_X(u)|^K = (1 + u^2/9)^{-3K} = level  =>  u = 3 sqrt(level^{-1/(3K)} - 1)
    _, level = diagnostic_level(10**4, k)
    u = diagnostic_threshold_u(Gamma(6.0, 3.0), k, level)
    expected = 3.0 * math.sqrt(level ** (-1.0 / (3.0 * k)) - 1.0)
    assert abs(u - expected) < 1e-10 * expected


@pytest.mark.parametrize("k", [1.0, 5.0, 50.0])
def test_diagnostic_gumbel_meets_the_level(k):
    # |Gamma(1 - iu)|^2 = pi u / sinh(pi u), so |phi_X(u)|^K = (pi u / sinh(pi u))^{K/2}
    _, level = diagnostic_level(10**4, k)
    u = diagnostic_threshold_u(Gumbel(3.0, 1.0), k, level)
    reached = (math.pi * u / math.sinh(math.pi * u)) ** (k / 2.0)
    assert abs(reached - level) < 1e-9 * level


@pytest.mark.parametrize(
    "kw", [{"eps": -1.0}, {"eps": -3.0, "gamma": -1.0}, {"gamma": 0.0}, {"delta": -2.0}]
)
def test_diagnostic_level_must_be_positive(kw):
    # at eps = -1 the level is 0, met only where |phi_X|^K underflows
    with pytest.raises(ParameterError, match="must be > 0"):
        diagnostic_level(10**4, 5.0, **kw)


@pytest.mark.parametrize("level", [0.0, -0.5, math.nan])
def test_diagnostic_threshold_u_rejects_a_level_not_above_zero(level):
    with pytest.raises(ParameterError, match="level must be > 0"):
        diagnostic_threshold_u(Laplace(0.5, 1.0 / 3.0), 5.0, level)


def test_diagnostic_level_closed_form():
    gamma, level = diagnostic_level(10**4, 5.0, eps=0.2, delta=0.3)
    assert gamma == math.sqrt(1 + 2 / 5.0 + 0.3)
    assert level == pytest.approx(1.2 * gamma * math.sqrt(math.log(10**4) / 10**4))
    assert diagnostic_level(10**4, 5.0, gamma=2.0)[0] == 2.0
    with pytest.raises(ParameterError, match=r"need n >= 2 \(got 1\)"):
        diagnostic_level(1, 5.0)
    with pytest.raises(ParameterError, match=r"group size must be >= 1 \(got 0\)"):
        diagnostic_level(1000, 0)


def test_diagnostic_level_not_reached():
    with pytest.raises(LevelNotReached):
        diagnostic_threshold_u(
            Laplace(0.5, 1.0 / 3.0), 1.0, diagnostic_level(100, 1.0, gamma=1e-12)[1]
        )


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cutoff", ["adaptive", "oracle", 1.3])
def test_each_rule_spreads_the_sample_once(cutoff, spreads):
    law = Normal(2.0, 1.0)
    s = generate_grouped(law, 2000, 5, seed=8)
    est = estimate(s, default_xgrid(s), cutoff, law=law)
    assert len(spreads) == 1
    assert spreads[0] >= est.cutoff_m


def test_estimate_oracle_without_law_names_it():
    s = generate_grouped(Normal(), 500, 5, seed=2)
    with pytest.raises(ParameterError, match="law="):
        estimate(s, default_xgrid(s), "oracle")


# True, "1_0" and " 2 " are not cutoffs, though float() reads them as 1, 10 and 2
@pytest.mark.parametrize("cutoff", ["bogus", None, 0.0, True, "1_0", " 2 "])
def test_estimate_rejects_an_unknown_cutoff(cutoff):
    s = generate_grouped(Normal(), 500, 5, seed=2)
    with pytest.raises(ParameterError, match="cutoff must be"):
        estimate(s, default_xgrid(s), cutoff)


def test_estimate_oracle_counts_distinct_grid_cutoffs():
    # |phi_hat(u)| = |cos(pi u / 2)| vanishes at u = 1, so the root stops at
    # 0.99 and the 60 candidates below it share 54 points of its 0.01 grid
    s = GroupedSample(np.tile([0.0, math.pi], 1000), 2)
    est = estimate(s, XGrid(-3.0, 5.0, 256), "oracle", law=Normal(0.8, 1.0))
    rule = est.cutoff_rule
    assert (rule["value"], rule["candidates"], rule["truncated_at"]) == (0.99, 54, 1.0)
    assert est.cutoff_m == 0.99


def test_the_adaptive_root_follows_the_sampled_phase():
    # the adaptive cutoff stops where |phi_hat| reaches the noise level, so
    # its root grid sees phi_hat turn smoothly: the largest of these 24
    # gaps is 1.4e-8, against about pi across a zero between two points
    for law in benchmark_laws().values():
        for n in (1000, 10000):
            for k in (2, 5, 50):
                s = generate_grouped(law, n, k, seed=(n, k))
                gap = estimate(s, default_xgrid(s)).phase_gap
                assert gap < 1e-5, (law.label, n, k, gap)
