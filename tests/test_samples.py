import math
import os
import threading

import numpy as np
import pytest
from scipy import integrate, stats

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

ALL_LAWS = list(benchmark_laws().values())


# ---------------------------------------------------------------------------
# GroupedSample container
# ---------------------------------------------------------------------------


def test_sample_requires_two_observations():
    with pytest.raises(ParameterError):
        GroupedSample(np.array([1.0]), 2.0)


def test_sample_rejects_nan():
    with pytest.raises(ParameterError):
        GroupedSample(np.array([1.0, np.nan, 2.0]), 2.0)


def test_sample_rejects_group_size_below_one():
    with pytest.raises(ParameterError):
        GroupedSample(np.array([1.0, 2.0]), 0.5)


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


def test_generate_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        generate_grouped(Normal(), 1, 5, seed=0)
    with pytest.raises(ParameterError):
        generate_grouped(Normal(), 10, 0, seed=0)
    with pytest.raises(ParameterError):
        generate_grouped(Normal(), 10, 2.5, seed=0)


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
    p = tmp_path / "y.csv"
    p.write_text("y\n1.5\n2.5\n")
    s = load_sample(p, 5.0)
    np.testing.assert_array_equal(s.observations, [1.5, 2.5])


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
    "text,lineno,problem",
    [
        ("1.0\n2.0\nnan\n4.0\n", 3, "non-finite"),
        ("y\n1.0\nnan\n", 3, "non-finite"),
        ("y\n1.0\n2.0\n-inf\n", 4, "non-finite"),
        ("1.0\n\nnan\n", 3, "non-finite"),
        ("y\n1.0\n\n2.0\nabc\n", 5, "could not parse"),
        ("1.0\nnan\nabc\n", 2, "non-finite"),
    ],
    ids=[
        "nan",
        "nan-after-header",
        "inf-after-header",
        "nan-after-blank",
        "bad-after-blank",
        "nan-before-bad",
    ],
)
def test_load_names_first_bad_line(tmp_path, text, lineno, problem):
    p = tmp_path / "bad.csv"
    p.write_text(text)
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


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_reads_a_pipe_once(tmp_path):
    # a pipe (--input <(zcat y.gz), say) gives its data to one reader only
    fifo = tmp_path / "y.fifo"
    os.mkfifo(fifo)
    text = "y\n" + "\n".join(map(str, range(5000))) + "\n"

    def write():
        with open(fifo, "w") as fh:
            fh.write(text)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    s = load_sample(fifo, 2.0)
    writer.join(timeout=10)
    np.testing.assert_array_equal(s.observations, np.arange(5000.0))


def test_load_rejects_group_size(tmp_path):
    p = tmp_path / "y.csv"
    p.write_text("1.0\n2.0\n")
    with pytest.raises(ParameterError, match="group size"):
        load_sample(p, 0.5)


def test_load_missing_file():
    with pytest.raises(OSError):
        load_sample("/nonexistent/path.csv", 2.0)
