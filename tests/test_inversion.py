import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupdeconv.bandwidth import scan_grid
from groupdeconv.charfn import CfEvaluation, UGrid
from groupdeconv.errors import ParameterError
from groupdeconv.inversion import (
    XGrid,
    default_xgrid,
    invert,
    l2_distance,
    oracle_risks,
    oracle_table,
)
from groupdeconv.rootlog import ROOT_MODES, distinguished_root
from groupdeconv.samples import Gamma, Normal, generate_grouped
from reference import energy_u, energy_x, evaluate_grid, phi, root_from_values, root_oracle_risks


def analytic_root(law, u_max, step, k=1.0):
    """Root holding the exact cf of the summand law ``law`` on a grid."""
    grid = UGrid(u_max, step)
    return root_from_values(grid, law.cf(grid.points), k)


# ---------------------------------------------------------------------------
# XGrid / defaults
# ---------------------------------------------------------------------------


def test_xgrid_validation():
    with pytest.raises(ParameterError):
        XGrid(1.0, 1.0, 100)
    with pytest.raises(ParameterError):
        XGrid(0.0, 1.0, 8)
    # three distinct doubles, not 1024
    with pytest.raises(ParameterError, match="x_min must be < x_max.*1024 distinct"):
        XGrid(0.4, 0.4 + 1e-16, 1024)
    with pytest.raises(ParameterError, match="must be finite"):
        XGrid(-math.inf, 1.0, 64)
    with pytest.raises(ParameterError, match="must be finite"):
        XGrid(0.0, math.nan, 64)
    with pytest.raises(ParameterError, match="must be finite"):
        XGrid(-1.7e308, 1.7e308, 64)
    assert XGrid(0.0, 1.0, ROOT_MODES).count == ROOT_MODES
    for count in (ROOT_MODES + 1, 10**30):
        with pytest.raises(ParameterError, match=f"at most {ROOT_MODES} points.*got {count}"):
            XGrid(0.0, 1.0, count)
    for count in (16.5, 20.0):
        with pytest.raises(ParameterError, match=rf"count must be an integer \(got {count}\)"):
            XGrid(0.0, 1.0, count)
    assert XGrid(0.0, 1.0, np.int64(20)).points.shape == (20,)


def test_default_xgrid_covers_summand():
    s = generate_grouped(Normal(2.0, 1.0), 5000, 5, seed=2)
    g = default_xgrid(s)
    # E[X] = 2, sd(X) = 1: expect roughly [-6, 10]
    assert g.x_min < -4 and g.x_max > 8
    assert g.count == 1024


# ---------------------------------------------------------------------------
# inversion against closed-form densities
# ---------------------------------------------------------------------------


def test_invert_recovers_normal_pdf():
    # cf tail beyond u=8 is ~1e-14, so m=8 gives the pdf to high accuracy
    law = Normal(2.0, 1.0)
    root = analytic_root(law, 8.0, 0.002)
    est = invert(root, 8.0, XGrid(-3.0, 7.0, 513))
    assert np.abs(est.values - law.pdf(est.xgrid.points)).max() < 1e-4


def test_invert_recovers_gamma_summand_from_convolution():
    # the distinguished K=2 root of the Gamma(6,3) cf is the Gamma(3,3) cf;
    # feeding it through the inversion recovers the Gamma(3,3) pdf
    grid = UGrid(60.0, 0.01)
    cf = CfEvaluation.from_function(
        Gamma(6.0, 3.0).cf, Gamma(6.0, 3.0).cf_prime, grid, group_size=2.0
    )
    root = distinguished_root(cf, 60.0)
    est = invert(root, 60.0, XGrid(-1.0, 5.0, 601))
    target = Gamma(3.0, 3.0).pdf(est.xgrid.points)
    # the Gamma(3,3) pdf has a kink at 0, so its cf tail decays like u^-3;
    # truncation at 60 leaves ~1e-3 worst-case ringing near the kink
    assert np.abs(est.values - target).max() < 2e-3


def test_tiny_cutoff_bound():
    root = analytic_root(Normal(2.0, 1.0), 1.0, 0.01)
    m = 0.01  # single grid interval
    est = invert(root, m, XGrid(-3.0, 7.0, 64))
    assert np.abs(est.values).max() <= m / math.pi + 1e-12


def test_cutoff_below_one_step_gives_zero():
    root = analytic_root(Normal(2.0, 1.0), 1.0, 0.01)
    est = invert(root, 0.004, XGrid(-3.0, 7.0, 64))
    assert np.all(est.values == 0.0)


def test_cutoff_exceeding_range_raises():
    root = analytic_root(Normal(2.0, 1.0), 2.0, 0.01)
    with pytest.raises(ParameterError, match="m=3 exceeds the root estimate's range"):
        invert(root, 3.0, XGrid(-3.0, 7.0, 64))
    with pytest.raises(ParameterError):
        invert(root, -1.0, XGrid(-3.0, 7.0, 64))


def test_k1_pipeline_reduces_to_direct_inversion():
    # root step at K=1 only touches the phase via quadrature; with a fine
    # grid the pipeline agrees with directly inverting phi_hat itself
    s = generate_grouped(Normal(2.0, 1.0), 1000, 1, seed=5)
    grid = UGrid(2.0, 2e-5)
    cf = evaluate_grid(s, grid)
    root = distinguished_root(cf, 2.0)
    xg = XGrid(-2.0, 6.0, 257)
    est = invert(root, 2.0, xg)

    vals = phi(cf)
    weights = np.full(vals.size, grid.step)
    weights[0] = weights[-1] = grid.step / 2
    direct = (
        np.exp(-1j * np.outer(xg.points, grid.points)) @ (vals * weights)
    ).real / math.pi
    assert np.abs(est.values - direct).max() < 1e-8


def test_invert_unchanged_under_xgrid_refinement():
    # each x-point gets the same u-quadrature on any x-grid, so shared points
    # agree up to the rounding of the FFT-based evaluation
    root = analytic_root(Normal(2.0, 1.0), 4.0, 0.01)
    coarse = invert(root, 4.0, XGrid(-3.0, 7.0, 101))
    fine = invert(root, 4.0, XGrid(-3.0, 7.0, 201))
    np.testing.assert_allclose(coarse.values, fine.values[::2], atol=1e-12)


def dense_inversion(root, m, xgrid):
    """Reference f_m: the trapezoid u-sum at every x-point, O(J K)."""
    k = root.grid.index_of(m)
    if k < 1:
        return np.zeros(xgrid.count)
    weights = np.full(k + 1, root.grid.step)
    weights[0] = weights[-1] = root.grid.step / 2
    phases = np.exp(-1j * np.outer(xgrid.points, root.grid.points[: k + 1]))
    return (phases @ (root.values()[: k + 1] * weights)).real / math.pi


def gamma_sample_root(step):
    s = generate_grouped(Gamma(6.0, 3.0), 2000, 5, seed=12)
    return distinguished_root(evaluate_grid(s, UGrid(2.0, step)), 2.0)


PREFIX_CASES = {
    "more-u-modes-than-x": (
        lambda: gamma_sample_root(2.0 / 4096), XGrid(-1.0, 5.0, 128), [0.5, 1.0, 1.7, 2.0]
    ),
    "fewer-u-modes-than-x": (
        lambda: gamma_sample_root(0.01), XGrid(-1.0, 5.0, 1024), [0.5, 1.0, 1.7]
    ),
    "x-far-from-zero": (
        lambda: analytic_root(Normal(1000.0, 1.0), 4.0, 0.01),
        XGrid(995.0, 1005.0, 256),
        [1.0, 4.0],
    ),
    "cutoff-under-one-step": (
        lambda: gamma_sample_root(0.005), XGrid(-1.0, 5.0, 128), [0.004, 0.5, 1.0, 1.7]
    ),
}


@pytest.mark.parametrize("case", PREFIX_CASES)
def test_invert_matches_dense_inversion(case):
    make_root, xg, ms = PREFIX_CASES[case]
    root = make_root()
    for m in ms:
        reference = dense_inversion(root, m, xg)
        # zero tolerance for a cutoff under one step: the values must be exact zeros
        tol = 1e-12 * np.abs(reference).max()
        np.testing.assert_allclose(invert(root, m, xg).values, reference, rtol=0, atol=tol)


prefix_case_root = functools.cache(lambda case: PREFIX_CASES[case][0]())


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(sorted(PREFIX_CASES)),
    law=st.sampled_from([Normal(2.0, 1.0), Gamma(3.0, 3.0), Normal(1000.0, 1.0)]),
    fractions=st.lists(st.floats(1e-3, 1.0), max_size=4),
    data=st.data(),
)
def test_prefix_risks_match_single_inversions(case, law, fractions, data):
    # each risk is the L2 distance of that cutoff's own inversion, in the
    # order given, whatever the order and repeats of the candidates; one
    # case holds a cutoff under one step, whose risk is sum_i c_i f_i^2
    _make_root, xg, case_ms = PREFIX_CASES[case]
    root = prefix_case_root(case)
    ms = case_ms + [f * root.u_limit for f in fractions]
    ms = data.draw(st.permutations(ms + data.draw(st.lists(st.sampled_from(ms), max_size=3))))
    cutoffs, risks = root_oracle_risks(root, law.pdf, ms, xg)
    assert cutoffs.tolist() == [root.grid.index_of(m) * root.grid.step for m in ms]
    alone = [l2_distance(invert(root, m, xg).values, law.pdf, xg) for m in ms]
    np.testing.assert_allclose(risks, alone, rtol=1e-12, atol=1e-15)
    for m, risk in zip(ms, risks):
        assert risk == risks[ms.index(m)]


@pytest.mark.parametrize("case", PREFIX_CASES)
def test_oracle_table_for_a_larger_top_scores_like_a_fresh_one(case):
    # the scorer reads prefixes of T and Phi of a table built for a larger top
    _make_root, xg, ms = PREFIX_CASES[case]
    root = prefix_case_root(case)
    density = Normal(2.0, 1.0).pdf
    fresh = oracle_table(density, xg, root.grid)
    larger = oracle_table(density, xg, UGrid((3 * root.grid.n_half + 7) * root.grid.step, root.grid.step))
    cutoffs, want = oracle_risks(root, fresh, ms)
    got_cutoffs, got = oracle_risks(root, larger, ms)
    assert got_cutoffs.tolist() == cutoffs.tolist()
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_oracle_table_retains_no_hankel_blocks():
    # T, Phi and the weights of the K = 2, n = 10^4 scan grid are 0.31 MiB;
    # the scorer cuts its Hankel blocks from T on each call, and the table
    # owns T and Phi rather than views of the whole chirp-z output
    tracemalloc.start()
    try:
        table = oracle_table(Normal(2.0, 1.0).pdf, XGrid(-6.0, 10.0), scan_grid(10**4, 2))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert table.grid.n_half > 10**4
    assert table.t.base is None and table.phi.base is None
    assert retained < 0.5 * (1 << 20)


def test_oracle_table_of_another_step_or_too_small_a_top_is_refused():
    law = Normal(2.0, 1.0)
    root = analytic_root(law, 4.0, 0.01)
    xg = XGrid(-3.0, 7.0, 128)
    with pytest.raises(ParameterError, match="step 0.02"):
        oracle_risks(root, oracle_table(law.pdf, xg, UGrid(4.0, 0.02)), [1.0])
    table = oracle_table(law.pdf, xg, UGrid(1.5, 0.01))
    oracle_risks(root, table, [0.5, 1.5])  # grid index 150 is the table's top
    with pytest.raises(ParameterError, match="top index 150.* up to grid index 151"):
        oracle_risks(root, table, [0.5, 1.51])
    with pytest.raises(ParameterError, match="grid step must be > 0"):
        oracle_table(law.pdf, xg, UGrid(1.5, 0.0))


def test_candidates_sharing_a_grid_index_get_bitwise_equal_risks():
    root = prefix_case_root("fewer-u-modes-than-x")
    law = Gamma(6.0, 3.0)
    xg = XGrid(-1.0, 5.0, 1024)
    ms = [1.0, 1.004, 0.5, 1.0099, 0.501, 1.005, 0.509]
    cutoffs, risks = root_oracle_risks(root, law.pdf, ms, xg)
    assert cutoffs.tolist() == pytest.approx([1.0, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5])
    assert risks[0] == risks[1] == risks[3] == risks[5]
    assert risks[2] == risks[4] == risks[6] != risks[0]


def test_oracle_names_the_first_candidate_off_the_grid():
    law = Normal(2.0, 1.0)
    root = analytic_root(law, 2.0, 0.01)
    xg = XGrid(-3.0, 7.0, 128)
    with pytest.raises(ParameterError, match="m=9 exceeds"):
        root_oracle_risks(root, law.pdf, [1.0, 9.0, -1.0, 12.0], xg)
    with pytest.raises(ParameterError, match=r"m must be > 0 \(got -1.0\)"):
        root_oracle_risks(root, law.pdf, [1.0, -1.0, 9.0], xg)


def test_monotone_truncation_on_analytic_input():
    # with no noise, more spectrum means less bias: risk nonincreasing in m
    law = Normal(2.0, 1.0)
    root = analytic_root(law, 8.0, 0.002)
    xg = XGrid(-4.0, 8.0, 513)
    risks = [l2_distance(invert(root, m, xg).values, law.pdf, xg) for m in (1, 2, 4, 8)]
    for lo, hi in zip(risks[1:], risks[:-1]):
        assert lo <= hi + 1e-8


# ---------------------------------------------------------------------------
# L2 distances
# ---------------------------------------------------------------------------


def test_l2_distance_of_identical_is_zero():
    law = Normal(2.0, 1.0)
    xg = XGrid(-3.0, 7.0, 301)
    assert l2_distance(law.pdf(xg.points), law.pdf, xg) == 0.0


def test_l2_distance_zero_vs_gaussian():
    # int pdf^2 = 1/(2 sqrt(pi)) for unit-variance normal
    xg = XGrid(2.0 - 10.0, 2.0 + 10.0, 4001)
    law = Normal(2.0, 1.0)
    d = l2_distance(np.zeros(xg.count), law.pdf(xg.points), xg)
    assert abs(d - 1.0 / (2.0 * math.sqrt(math.pi))) < 1e-4


def test_l2_distance_shifted_gaussian_fine_grid_oracle():
    # small-shift distance ~ shift^2 * int (f')^2 = shift^2 / (4 sqrt(pi))
    shift = 1e-3
    xg = XGrid(-8.0, 8.0, 20001)
    law = Normal(0.0, 1.0)
    d = l2_distance(
        law.pdf(xg.points), law.pdf(xg.points - shift), xg
    )
    expected = shift**2 / (4.0 * math.sqrt(math.pi))
    assert abs(d - expected) < 1e-2 * expected


def test_l2_distance_batch_matches_rows():
    # a batch of estimates, one per row, scores like each row alone
    law = Normal(2.0, 1.0)
    root = analytic_root(law, 4.0, 0.01)
    xg = XGrid(-3.0, 7.0, 301)
    batch = np.stack([invert(root, m, xg).values for m in (0.5, 1.0, 2.0, 4.0)])
    risks = l2_distance(batch, law.pdf, xg)
    assert risks.shape == (4,)
    for row, risk in zip(batch, risks):
        assert risk == l2_distance(row, law.pdf, xg)


# ---------------------------------------------------------------------------
# energy bookkeeping (x-domain vs u-domain)
# ---------------------------------------------------------------------------


def test_plancherel_on_smooth_analytic_input():
    # with a cutoff deep in the Gaussian tail there is no truncation ringing,
    # and the two energies agree to high accuracy
    law = Normal(2.0, 1.0)
    root = analytic_root(law, 8.0, 0.002)
    est = invert(root, 8.0, XGrid(2.0 - 12.0, 2.0 + 12.0, 4097))
    ex = energy_x(est)
    eu = energy_u(root, 8.0)
    assert abs(ex - eu) / eu < 1e-4


def test_energy_u_matches_closed_form():
    law = Normal(0.0, 1.0)
    root = analytic_root(law, 6.0, 0.001)
    # (1/2pi) int_{-6}^{6} e^{-u^2} du = erf(6) / (2 sqrt(pi))
    expected = math.erf(6.0) / (2.0 * math.sqrt(math.pi))
    assert abs(energy_u(root, 6.0) - expected) < 1e-9


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    root = analytic_root(Normal(2.0, 1.0), 2.0, 0.01)
    est = invert(root, 2.0, XGrid(-1.0, 5.0, 32))
    p = tmp_path / "est.csv"
    est.to_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0] == "x,fhat"
    assert len(lines) == 33
    x0, f0 = lines[1].split(",")
    assert float(x0) == -1.0
    assert abs(float(f0) - est.values[0]) < 1e-12


def test_json_round_trip(tmp_path):
    root = analytic_root(Normal(2.0, 1.0), 2.0, 0.01)
    est = invert(root, 1.5, XGrid(-1.0, 5.0, 32))
    p = tmp_path / "est.json"
    est.to_json(p)
    back = json.loads(p.read_text())
    np.testing.assert_allclose(back["values"], est.values, atol=1e-15)
    assert back["cutoff"]["value"] == est.cutoff_m
    assert XGrid(**back["xgrid"]) == est.xgrid


def test_nonnegative_postprocessing():
    root = analytic_root(Normal(2.0, 1.0), 1.0, 0.01)
    est = invert(root, 1.0, XGrid(-6.0, 10.0, 512))
    assert est.values.min() < 0  # raw estimator rings
    v = est.nonnegative()
    assert v.min() >= 0
    assert abs(np.trapezoid(v, est.xgrid.points) - 1.0) < 1e-9
