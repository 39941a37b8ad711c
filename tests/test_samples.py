import io
import math
import os
import re
import threading
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import groupdeconv
from groupdeconv import samples
from groupdeconv._fourier import BLOCK
from groupdeconv.bandwidth import (
    cutoff_cap,
    diagnostic_level,
    diagnostic_threshold_u,
    threshold_value,
)
from groupdeconv.charfn import CfEvaluation, UGrid
from groupdeconv.errors import DataFormatError, ParameterError
from groupdeconv.samples import (
    Gamma,
    GroupedSample,
    Gumbel,
    Laplace,
    Normal,
    benchmark_laws,
    generate_grouped,
    law_from_name,
    load_sample,
    make_rng,
)
from reference import peak_traced_bytes

ALL_LAWS = list(benchmark_laws().values())


# ---------------------------------------------------------------------------
# GroupedSample container
# ---------------------------------------------------------------------------


def test_sample_requires_two_observations():
    with pytest.raises(ParameterError):
        GroupedSample(np.array([1.0]), 2.0)
    with pytest.raises(ParameterError, match="one-dimensional"):
        GroupedSample(np.ones((2, 2)), 2.0)


def test_sample_rejects_nan():
    with pytest.raises(ParameterError):
        GroupedSample(np.array([1.0, np.nan, 2.0]), 2.0)


def test_sample_rejects_group_size_below_one():
    with pytest.raises(ParameterError):
        GroupedSample(np.array([1.0, 2.0]), 0.5)


# every entry that takes a group size refuses a K that is not a finite number
# >= 1 with samples.check_group_size's one message
K_ENTRIES = {
    "GroupedSample": lambda k: GroupedSample(np.array([1.0, 2.0]), k),
    "CfEvaluation": lambda k: CfEvaluation.from_function(
        Normal().cf, Normal().cf_prime, UGrid(1.0, 0.01), k
    ),
    "load_sample": lambda k: load_sample("never-read.csv", k),
    "diagnostic_level": lambda k: diagnostic_level(1000, k),
    "threshold_value": lambda k: threshold_value(1000, k, 1.1),
    "cutoff_cap": lambda k: cutoff_cap(1000, k),
    "diagnostic_threshold_u": lambda k: diagnostic_threshold_u(Normal(), k, 0.0959),
}


# True, "5" and None are not group sizes, though True >= 1 and float("5") == 5
@pytest.mark.parametrize("k", [0.0, 0.5, math.inf, math.nan, True, "5", None])
@pytest.mark.parametrize("entry", list(K_ENTRIES))
def test_every_entry_refuses_a_group_size_not_finite_and_at_least_one(entry, k):
    with pytest.raises(ParameterError, match=re.escape(f"group size must be >= 1 (got {k!r})")):
        K_ENTRIES[entry](k)


def test_one_rule_on_the_group_size():
    package = Path(groupdeconv.__file__).parent
    texts = [p.read_text() for p in package.glob("*.py")]
    assert sum(t.count("group size must be >= 1") for t in texts) == 1


def test_sample_accepts_non_integer_group_size():
    s = GroupedSample(np.array([1.0, 2.0, 3.0]), 2.5)
    assert s.group_size == 2.5
    assert s.n == 3


# ---------------------------------------------------------------------------
# generate_grouped
# ---------------------------------------------------------------------------


def test_k1_is_plain_sampling():
    law = Normal(2.0, 1.0)
    s = generate_grouped(law, 3, 1, seed=7)
    direct = law.sample(make_rng(7), (3, 1)).sum(axis=1)
    np.testing.assert_array_equal(s.observations, direct)
    assert s.n == 3


def test_make_rng_passes_a_generator_through():
    g = make_rng(7)
    assert make_rng(g) is g


def test_make_rng_accepts_its_documented_seeds():
    draw = make_rng(7).random()
    assert make_rng(np.int64(7)).random() == draw
    assert make_rng(np.random.SeedSequence(7)).random() == draw
    assert make_rng((7, 1)).random() != draw


@pytest.mark.parametrize("seed", [-1, (1, -2), 1.5], ids=["negative", "negative-in-tuple", "float"])
def test_a_bad_seed_is_a_parameter_error_naming_it(seed):
    named = rf"seed must be an integer >= 0 or a tuple of them \(got {re.escape(repr(seed))}\)"
    with pytest.raises(ParameterError, match=named):
        make_rng(seed)
    with pytest.raises(ParameterError, match=named):
        generate_grouped(Normal(), 10, 5, seed=seed)


def test_same_seed_bit_reproducible():
    law = Gumbel(3.0, 1.0)
    a = generate_grouped(law, 100, 5, seed=(42, 3))
    b = generate_grouped(law, 100, 5, seed=(42, 3))
    np.testing.assert_array_equal(a.observations, b.observations)


def test_different_seeds_differ():
    law = Normal(2.0, 1.0)
    a = generate_grouped(law, 50, 2, seed=1)
    b = generate_grouped(law, 50, 2, seed=2)
    assert not np.array_equal(a.observations, b.observations)


def test_normal_sum_moments():
    # mean of Y is K*mu, variance K*sigma^2; law-of-large-numbers band
    n, k = 10**5, 5
    s = generate_grouped(Normal(2.0, 1.0), n, k, seed=123)
    assert abs(s.mean - 10.0) < 4.0 * math.sqrt(k / n)
    assert abs(s.variance - 5.0) < 5.0 * math.sqrt(2.0 / n) * 4.0


def test_gamma_convolution_identity():
    # sum of K=2 gamma(6,3) draws is gamma(12,3); KS oracle from scipy
    n = 10**5
    s = generate_grouped(Gamma(6.0, 3.0), n, 2, seed=99)
    ks = stats.kstest(s.observations, stats.gamma(a=12.0, scale=1.0 / 3.0).cdf)
    assert ks.statistic < 0.01


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.name)
@pytest.mark.parametrize(
    "n, k",
    [
        (3 * (BLOCK // 5) + 7, 5),  # three blocks of whole rows and a short one
        (BLOCK + 1, 1),  # K = 1: a block of BLOCK rows, then one row
        (2000, 50),
        (3, BLOCK + 3),  # K past the block: one row per block
    ],
)
def test_blocked_draw_is_one_draw_bit_for_bit(law, n, k):
    s = generate_grouped(law, n, k, seed=(5, n, k))
    direct = law.sample(make_rng((5, n, k)), (n, k)).sum(axis=1)
    np.testing.assert_array_equal(s.observations, direct)


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.name)
def test_grouped_draw_memory_is_linear_in_n_not_nk(law):
    # the sums and one temporary of n (the variance check), 1.60 MB measured,
    # plus a block's draw and its row sums (and Laplace's one block-sized
    # temporary); the (n, K) draw would be 40 MB
    n = 10**5
    peak = peak_traced_bytes(lambda: generate_grouped(law, n, 50, seed=1))
    assert peak < 2 * 8 * n + 2 * 8 * BLOCK


# numpy's own samplers, for the laws whose draws are numpy's inversion re-run
NUMPY_SAMPLERS = {
    "gumbel": lambda law, rng, size: rng.gumbel(law.location, law.scale, size),
    "laplace": lambda law, rng, size: rng.laplace(law.mean, law.scale, size),
}


@pytest.mark.parametrize("shape", [(BLOCK, 1), (BLOCK // 5, 5), (BLOCK // 50, 50)])
@pytest.mark.parametrize("seed", [0, 1, 2024])
@pytest.mark.parametrize("name", list(NUMPY_SAMPLERS))
def test_inverted_draws_are_numpys_to_a_few_ulp(name, seed, shape):
    law = benchmark_laws()[name]
    rng, ref = make_rng(seed), make_rng(seed)
    got = law.sample(rng, shape)
    want = NUMPY_SAMPLERS[name](law, ref, shape)
    # each draw is centre - scale * log(...), and only the log's last place
    # may differ (numpy's vectorised log against libm's), so a unit is one of
    # the larger of the draw and the centre: near 0 a draw is a difference
    # of two terms, and its own unit is far below theirs
    centre = law.location if name == "gumbel" else law.mean
    unit = np.spacing(np.maximum(np.abs(want), abs(centre)))
    assert got.shape == shape
    assert np.all(np.abs(got - want) <= 4 * unit)
    assert rng.random() == ref.random()  # the stream is where numpy's left it


class ScriptedUniforms:
    """A generator whose ``random`` hands out the given blocks in turn."""

    def __init__(self, *blocks):
        self.blocks = [np.array(b, dtype=float) for b in blocks]
        self.asked = []

    def random(self, size):
        self.asked.append(size)
        return self.blocks.pop(0).reshape(size)


@pytest.mark.parametrize("name", list(NUMPY_SAMPLERS))
def test_a_zero_uniform_is_dropped_and_drawn_again(name):
    # numpy redraws a uniform of exactly 0; no real generator gives one on
    # demand, so a scripted one holds three
    law = benchmark_laws()[name]
    rng = ScriptedUniforms([0.1, 0.0, 0.7, 0.0, 0.5, 0.9], [0.0, 0.3], [0.6])
    got = law.sample(rng, (2, 3))
    u = np.array([0.1, 0.7, 0.5, 0.9, 0.3, 0.6]).reshape(2, 3)
    if name == "gumbel":
        want = law.location - law.scale * np.log(-np.log(1.0 - u))
    else:
        want = np.where(
            u >= 0.5,
            law.mean - law.scale * np.log((2.0 - u) - u),
            law.mean + law.scale * np.log(u + u),
        )
    np.testing.assert_allclose(got, want, rtol=1e-15)
    assert rng.asked == [(2, 3), 2, 1]  # one more uniform per zero dropped
    assert rng.blocks == []


def test_generate_names_a_size_it_cannot_hold():
    # numpy refuses the sums of the first and the one row of the second as
    # "array is too big", a ValueError, before any draw
    for n, k in ((2**62, 5), (100, 2**62)):
        with pytest.raises(ParameterError, match=f"n = {n} sums of K = {k}"):
            generate_grouped(Normal(), n, k, seed=0)


def test_generate_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        generate_grouped(Normal(), 1, 5, seed=0)
    with pytest.raises(ParameterError):
        generate_grouped(Normal(), 10, 0, seed=0)
    with pytest.raises(ParameterError):
        generate_grouped(Normal(), 10, 2.5, seed=0)
    with pytest.raises(ParameterError, match=r"integer n >= 2 \(got 2.5\)"):
        generate_grouped(Normal(), 2.5, 5, seed=0)
    for k in (math.inf, math.nan, True, "5"):
        with pytest.raises(ParameterError, match=re.escape(f"group size must be >= 1 (got {k!r})")):
            generate_grouped(Normal(), 10, k, seed=0)
    assert generate_grouped(Normal(), np.int64(10), np.int64(5), seed=0).n == 10


# ---------------------------------------------------------------------------
# exact characteristic functions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.name)
def test_cf_at_zero_is_one(law):
    assert law.cf(0.0) == pytest.approx(1.0 + 0.0j, abs=1e-14)


def test_normal_cf_closed_form():
    assert Normal(2.0, 1.0).cf(1.0) == pytest.approx(
        np.exp(2.0j - 0.5), abs=1e-14
    )


def test_gamma_cf_closed_form():
    # (1 - i)^-6 = -1/8 i
    assert Gamma(6.0, 3.0).cf(3.0) == pytest.approx(-0.125j, abs=1e-14)


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.name)
def test_cf_conjugate_symmetry(law):
    u = np.array([0.3, 1.7, 6.0])
    np.testing.assert_allclose(law.cf(-u), np.conj(law.cf(u)), atol=1e-14)


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.name)
@pytest.mark.parametrize("u", [0.5, 2.0, 10.0])
def test_cf_matches_quadrature_of_density(law, u):
    # independent oracle: Fourier transform of the exact density with
    # oscillatory quadrature, int f(x) e^{iux} dx
    lo = law.mean - 60.0 * math.sqrt(law.variance)
    hi = law.mean + 60.0 * math.sqrt(law.variance)
    if isinstance(law, Gamma):
        lo = 0.0
    re, _ = integrate.quad(law.pdf, lo, hi, weight="cos", wvar=u, limit=400)
    im, _ = integrate.quad(law.pdf, lo, hi, weight="sin", wvar=u, limit=400)
    assert abs(complex(re, im) - complex(law.cf(u))) < 1e-6


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.name)
def test_cf_prime_matches_finite_difference(law):
    h = 1e-5
    for u in (0.0, 0.7, 3.0):
        fd = (law.cf(u + h) - law.cf(u - h)) / (2 * h)
        assert abs(fd - complex(law.cf_prime(u))) < 1e-7 * (1 + abs(fd))


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.name)
def test_cf_prime_at_zero_is_i_mean(law):
    assert complex(law.cf_prime(0.0)) == pytest.approx(1j * law.mean, abs=1e-12)


# ---------------------------------------------------------------------------
# law moments and densities against scipy
# ---------------------------------------------------------------------------


def test_gumbel_mean_convention():
    law = Gumbel(3.0, 1.0)
    assert law.location == pytest.approx(3.0 - np.euler_gamma, abs=1e-12)
    draws = law.sample(make_rng(2024), 10**6)
    assert abs(draws.mean() - 3.0) < 5e-3


@pytest.mark.parametrize(
    "law,dist",
    [
        (Normal(2.0, 1.0), stats.norm(2.0, 1.0)),
        (Gumbel(3.0, 1.0), stats.gumbel_r(3.0 - np.euler_gamma, 1.0)),
        (Gamma(6.0, 3.0), stats.gamma(a=6.0, scale=1.0 / 3.0)),
        (Laplace(0.5, 1.0 / 3.0), stats.laplace(0.5, 1.0 / 3.0)),
    ],
    ids=["normal", "gumbel", "gamma", "laplace"],
)
def test_pdf_matches_scipy(law, dist):
    x = np.linspace(law.mean - 5, law.mean + 5, 201)
    np.testing.assert_allclose(law.pdf(x), dist.pdf(x), atol=1e-12)
    assert law.mean == pytest.approx(dist.mean(), abs=1e-12)
    assert law.variance == pytest.approx(dist.var(), abs=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.name)
def test_pdf_is_zero_far_out_without_a_warning(law):
    big = np.finfo(float).max
    x = np.array([-big, -1e300, -1e5, 1e5, 1e300, big])
    assert np.array_equal(law.pdf(x), np.zeros_like(x))


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.name)
def test_sampler_matches_law(law):
    draws = law.sample(make_rng(5), 10**5)
    assert abs(draws.mean() - law.mean) < 5 * math.sqrt(law.variance / 10**5)


def test_law_from_name():
    assert law_from_name("Normal") == Normal(2.0, 1.0)
    with pytest.raises(ParameterError):
        law_from_name("cauchy")


def test_invalid_law_parameters():
    with pytest.raises(ParameterError):
        Normal(0.0, -1.0)
    with pytest.raises(ParameterError):
        Gamma(-6.0, 3.0)
    with pytest.raises(ParameterError):
        Laplace(0.0, 0.0)
    nan, inf = float("nan"), float("inf")
    for law, name, value in [
        (Normal, "variance", nan),
        (Normal, "mean", inf),
        (Gumbel, "scale", nan),
        (Gamma, "shape", nan),
        (Gamma, "rate", inf),
        (Laplace, "scale", nan),
    ]:
        with pytest.raises(ParameterError, match=f"^{name} must be finite"):
            law(**{name: value})


def test_law_labels():
    labels = [law.label for law in benchmark_laws().values()]
    assert labels == ["normal(2,1)", "gumbel(3,1)", "gamma(6,3)", "laplace(0.5,0.333333)"]
    assert [str(law) for law in benchmark_laws().values()] == labels


# ---------------------------------------------------------------------------
# load_sample
# ---------------------------------------------------------------------------


def test_load_plain_file(tmp_path):
    p = tmp_path / "y.csv"
    p.write_text("1.0\n2.0\n3.0\n")
    s = load_sample(p, 2.0)
    np.testing.assert_array_equal(s.observations, [1.0, 2.0, 3.0])
    assert s.group_size == 2.0


def test_load_detects_header(tmp_path):
    # a UTF-8 byte-order mark is not part of the first line
    p = tmp_path / "y.csv"
    for data, expected in [
        (b"y\n1.5\n2.5\n", [1.5, 2.5]),
        (b"\xef\xbb\xbf1.5\n2.5\n3.5\n4.5\n", [1.5, 2.5, 3.5, 4.5]),
        (b"\xef\xbb\xbfy\n1.5\n2.5\n", [1.5, 2.5]),
    ]:
        p.write_bytes(data)
        np.testing.assert_array_equal(load_sample(p, 5.0).observations, expected)
    # a header line longer than the block reader reads at once
    y = _gumbel_repr_column(p, b"y" * (samples._TEXT_BLOCK + 1) + b"\n")
    np.testing.assert_array_equal(load_sample(p, 5.0).observations, y)


def test_load_empty_file_errors(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(DataFormatError, match="fewer than 2"):
        load_sample(p, 2.0)


def test_load_reports_malformed_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0\nabc\n3.0\n")
    with pytest.raises(DataFormatError, match="line 2") as exc:
        load_sample(p, 2.0)
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "data,lineno,problem",
    [
        (b"1.0\n2.0\nnan\n4.0\n", 3, "non-finite"),
        (b"y\n1.0\nnan\n", 3, "non-finite"),
        (b"y\n1.0\n2.0\n-inf\n", 4, "non-finite"),
        (b"1.0\n\nnan\n", 3, "non-finite"),
        (b"y\n1.0\n\n2.0\nabc\n", 5, "could not parse"),
        (b"1.0\nnan\nabc\n", 2, "non-finite"),
        (b"\xef\xbb\xbf1.0\nnan\n", 2, "non-finite"),
        (b"1\xe9\n2.0\n3.0\n", 1, "byte 0xe9 is not UTF-8"),
        (b"1.0\n2.0\n3\xe9\n4.0\n", 3, "byte 0xe9 is not UTF-8"),
        (b"\xef\xbb\xbfy\n1.0\n\xe9\n", 3, "byte 0xe9 is not UTF-8"),
        # a control character is quoted as an escape, never sent raw
        (b"1.0\n\x00\n3.0\n", 2, r"could not parse '\\x00'"),
        (b"1.0\n2.0\n\x1b[2J\n", 3, r"could not parse '\\x1b\[2J'"),
        # signs, digits and points that Python's float refuses
        (b"1.5\n1.2.3\n", 2, "could not parse"),
        (b"1.5\n1-2\n", 2, "could not parse"),
        (b"1.5\n+.\n", 2, "could not parse"),
        (b"1.5\n+-1\n", 2, "could not parse"),
        (b"1.5\n1.+\n", 2, "could not parse"),
    ],
    ids=[
        "nan",
        "nan-after-header",
        "inf-after-header",
        "nan-after-blank",
        "bad-after-blank",
        "nan-before-bad",
        "nan-after-bom",
        "bad-byte-line-1",
        "bad-byte-line-3",
        "bad-byte-after-bom",
        "nul",
        "ansi-escape",
        "two-points",
        "inner-sign",
        "sign-and-point",
        "two-signs",
        "trailing-sign",
    ],
)
def test_load_names_first_bad_line(tmp_path, data, lineno, problem):
    p = tmp_path / "bad.csv"
    p.write_bytes(data)
    with pytest.raises(DataFormatError, match=f"line {lineno}: {problem}") as exc:
        load_sample(p, 2.0)
    assert exc.value.line == lineno


def test_load_skips_blank_lines_and_crlf(tmp_path):
    p = tmp_path / "y.csv"
    p.write_bytes(b"y\r\n1.5\r\n\r\n  \r\n2.5\r\n-3\r\n")
    s = load_sample(p, 5.0)
    np.testing.assert_array_equal(s.observations, [1.5, 2.5, -3.0])


def test_load_hash_line_is_an_error_not_a_comment(tmp_path):
    p = tmp_path / "y.csv"
    p.write_text("y\n1.0\n# a note\n2.0\n")
    with pytest.raises(DataFormatError, match="line 3: could not parse '# a note'") as exc:
        load_sample(p, 2.0)
    assert exc.value.line == 3


@pytest.mark.parametrize("text", ["1 2\n3 4\n5 6\n", "y\n1 2\n"], ids=["rows", "one-row"])
def test_load_rejects_two_columns(tmp_path, text):
    # the first line is a header (it is not one number); the next one fails
    p = tmp_path / "y.csv"
    p.write_text(text)
    bad = text.splitlines()[1]
    with pytest.raises(DataFormatError, match=f"line 2: could not parse '{bad}'") as exc:
        load_sample(p, 2.0)
    assert exc.value.line == 2


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
def test_load_splits_lines_as_str_splitlines(tmp_path, sep):
    # 'y<sep>1.0' is two lines, a header and a value, as str.splitlines has it
    p = tmp_path / "y.csv"
    p.write_text(f"y{sep}1.0\n2.0\n3.0\n")
    s = load_sample(p, 2.0)
    np.testing.assert_array_equal(s.observations, [1.0, 2.0, 3.0])


def test_load_reads_python_float_syntax(tmp_path):
    # tokens Python's float accepts and the C parser does not still load
    p = tmp_path / "y.csv"
    p.write_text("1_000\n2.5\n")
    np.testing.assert_array_equal(load_sample(p, 2.0).observations, [1000.0, 2.5])


def test_load_large_file_matches_python_float(tmp_path):
    y = generate_grouped(Gumbel(3.0, 1.0), 10**4, 5, seed=3).observations
    p = tmp_path / "y.csv"
    p.write_text("y\n" + "\n".join(map(repr, y.tolist())) + "\n")
    expected = [float(line) for line in p.read_text().splitlines()[1:]]
    got = load_sample(p, 5.0).observations
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(got, y)


def test_load_passes_a_too_long_last_line_to_the_next_reader(tmp_path):
    # a 20-digit last line with no line feed is refused by the block reader
    # as soon as it is seen, and read by the next reader
    p = tmp_path / "y.csv"
    p.write_text("1.5\n-0.12345678901234567890")
    with open(p, "rb") as fh:
        assert samples._read_decimals(fh) is None
    np.testing.assert_array_equal(
        load_sample(p, 2.0).observations, [1.5, float("-0.12345678901234567890")]
    )


def _gumbel_repr_column(path, header=b""):
    y = generate_grouped(Gumbel(3.0, 1.0), 10**4, 5, seed=3).observations
    path.write_bytes(header + "\n".join(map(repr, y.tolist())).encode() + b"\n")
    return y


def _refuse(*args, **kwargs):
    raise AssertionError("an earlier reader should have served this file")


# where long double is not x87 extended np.loadtxt reads what the block reader would
_needs_block_reader = pytest.mark.skipif(not samples._EXTENDED, reason="no x87 long double")


@_needs_block_reader
@pytest.mark.parametrize("header", [b"", b"y\n", b"\xef\xbb\xbfy\n"], ids=["bare", "header", "bom"])
def test_load_reads_a_repr_column_without_loadtxt(tmp_path, monkeypatch, header):
    # the benchmark's data file: 16-17 digit decimals, one per line
    p = tmp_path / "y.csv"
    y = _gumbel_repr_column(p, header)
    monkeypatch.setattr(np, "loadtxt", _refuse)
    monkeypatch.setattr(samples, "_parse_lines", _refuse)
    np.testing.assert_array_equal(load_sample(p, 5.0).observations, y)


def test_load_without_extended_long_double_gives_the_same_values(tmp_path, monkeypatch):
    # where long double is not x87 extended np.loadtxt reads the file
    p = tmp_path / "y.csv"
    y = _gumbel_repr_column(p)
    fast = load_sample(p, 5.0).observations
    monkeypatch.setattr(samples, "_EXTENDED", False)
    monkeypatch.setattr(samples, "_parse_lines", _refuse)
    np.testing.assert_array_equal(load_sample(p, 5.0).observations, fast)
    np.testing.assert_array_equal(fast, y)


@_needs_block_reader
@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_reads_a_pipe_of_plain_decimals_in_blocks(tmp_path, monkeypatch):
    fifo = tmp_path / "y.fifo"
    y = _gumbel_repr_column(tmp_path / "y.csv")
    os.mkfifo(fifo)
    data = (tmp_path / "y.csv").read_bytes()
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    monkeypatch.setattr(samples, "_parse_lines", _refuse)
    np.testing.assert_array_equal(load_sample(fifo, 5.0).observations, y)
    writer.join(timeout=10)
    assert not writer.is_alive()


class _Resized(io.BytesIO):
    """A file whose end, as a seek to it reports, is `by` bytes off, as if
    the file changed between that seek and the reads."""

    def __init__(self, data, by):
        super().__init__(data)
        self.by = by

    def seek(self, pos, whence=io.SEEK_SET):
        end = super().seek(pos, whence)
        return end + self.by if whence == io.SEEK_END else end


@_needs_block_reader
def test_read_decimals_takes_a_file_that_changes_as_it_is_read():
    data = b"1.5\n" * 100
    # a file that shrank gives the lines read, none left unset
    np.testing.assert_array_equal(samples._read_decimals(_Resized(data, 1000)), np.full(100, 1.5))
    # one that grew, or one too large to size an array by, goes to the other readers
    assert samples._read_decimals(_Resized(data, -300)) is None
    assert samples._read_decimals(_Resized(data, 2**59)) is None


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@_needs_block_reader
@pytest.mark.parametrize(
    "line",
    [
        # the long double lies on a midpoint of two doubles and the exact
        # value does not: a second rounding would go the wrong way
        "369955.796592912724",
        "-529628.098680765077",
        "86128.9216073380594",
        # 16 digits past 2^53: W is no exact double
        "90.39856167596325",
        "9.065583532520021",
        # exact midpoints: 2^53 + 1, 2^53 + 3, and 2^53 - 1/2 below a power of two
        "9007199254740993",
        "9007199254740995",
        "9007199254740991.5",
        "-0",
        "-.000",
        "+.5",
        "5.",
    ],
)
def test_load_reads_midpoints_and_signs_as_python_float(tmp_path, monkeypatch, line):
    p = tmp_path / "y.csv"
    p.write_text(f"{line}\n1\n{line}")  # the last line without a line feed
    monkeypatch.setattr(np, "loadtxt", _refuse)
    got = load_sample(p, 2.0).observations
    np.testing.assert_array_equal(_bits(got), _bits([float(line), 1.0, float(line)]))


@st.composite
def _decimal_lines(draw):
    """A plain decimal of 1-20 digits, or one of 17 or 18 significant digits
    next to the midpoint of two doubles, on either side of it."""
    if draw(st.booleans()):
        digits = draw(st.text("0123456789", min_size=1, max_size=20))
        point = draw(st.none() | st.integers(0, len(digits)))
        if point is not None:
            digits = f"{digits[:point]}.{digits[point:]}"
        return draw(st.sampled_from(["", "+", "-"])) + digits
    x = draw(st.floats(0.1, 1e6))
    exact = Context(prec=1000)
    mid = exact.divide(exact.add(Decimal(x), Decimal(math.nextafter(x, math.inf))), 2)
    context = Context(
        prec=draw(st.sampled_from([17, 18])),
        rounding=draw(st.sampled_from([ROUND_FLOOR, ROUND_CEILING])),
    )
    return draw(st.sampled_from(["", "-"])) + format(context.plus(mid), "f")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    lines=st.lists(_decimal_lines(), min_size=2, max_size=40),
    header=st.sampled_from(["", "y\n", "\ufeff", "\ufeffy\n"]),
    end=st.sampled_from(["", "\n"]),
)
# hypothesis draws on constants of every module imported before it, so each
# reader outcome is also an explicit example: the block reader takes the
# file, a 19-digit line leaves it to np.loadtxt, and so does a last line
# longer than any plain decimal
@example(lines=["-0", "12.5", "+.25"], header="\ufeffy\n", end="\n")
@example(lines=["1.5", "1234567890123456789"], header="", end="\n")
@example(lines=["1", "-1234567890123456789.0"], header="y\n", end="")
def test_load_of_plain_decimals_is_python_float_bit_for_bit(tmp_path_factory, lines, header, end):
    # 19 or 20 digits take np.loadtxt, 18 or fewer the block reader where
    # there is one; both must read each line, -0 included, as float does
    p = tmp_path_factory.mktemp("decimals") / "y.csv"
    p.write_text(header + "\n".join(lines) + end, encoding="utf-8")
    plain = all(len(line.lstrip("+-").replace(".", "")) <= 18 for line in lines)
    with open(p, "rb") as fh:
        assert (samples._read_decimals(fh) is not None) == (plain and samples._EXTENDED)
    got = load_sample(p, 2.0).observations
    np.testing.assert_array_equal(_bits(got), _bits([float(line) for line in lines]))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_reads_a_pipe_once(tmp_path):
    # a pipe (--input <(zcat y.gz), say) gives its data to one reader only,
    # with or without a byte-order mark; a byte that is not UTF-8 is named
    body = "\n".join(map(str, range(5000))).encode() + b"\n"
    for i, (head, bad_line) in enumerate(
        [(b"y\n", None), (b"\xef\xbb\xbf", None), (b"\xef\xbb\xbfy\n", None), (b"y\n\xe9\n", 2)]
    ):
        fifo = tmp_path / f"y{i}.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(head + body,), daemon=True)
        writer.start()
        if bad_line is None:
            s = load_sample(fifo, 2.0)
            np.testing.assert_array_equal(s.observations, np.arange(5000.0))
        else:
            with pytest.raises(DataFormatError, match=f"line {bad_line}: byte 0xe9") as exc:
                load_sample(fifo, 2.0)
            assert exc.value.line == bad_line
        writer.join(timeout=10)


def test_load_rejects_group_size(tmp_path):
    p = tmp_path / "y.csv"
    p.write_text("1.0\n2.0\n")
    with pytest.raises(ParameterError, match="group size"):
        load_sample(p, 0.5)


def test_load_missing_file():
    with pytest.raises(OSError):
        load_sample("/nonexistent/path.csv", 2.0)
