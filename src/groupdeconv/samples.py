"""Grouped observations and the benchmark sampling laws.

A grouped sample holds n observations of Y = X_1 + ... + X_K where the X's
are i.i.d. with unknown density.  This module provides the container, file
ingestion, and the four analytic test laws (normal, Gumbel, gamma, Laplace)
with exact densities and characteristic functions used as oracles by the
simulation study.
"""
from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ParameterError

__all__ = [
    "GroupedSample",
    "TestLaw",
    "Normal",
    "Gumbel",
    "Gamma",
    "Laplace",
    "benchmark_laws",
    "law_from_name",
    "make_rng",
    "generate_grouped",
    "load_sample",
]


def make_rng(seed):
    """Build a counter-based generator from ``seed``.

    ``seed`` may be an int, a tuple of ints (hashed together, which is how
    per-replication substreams are derived), a SeedSequence, or an existing
    Generator (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class GroupedSample:
    """Observations of K-fold sums, with the group size that produced them.

    ``group_size`` is the integer K in the grouped-data reading; any real
    value >= 1 is accepted because the estimator formulas are unchanged for
    non-integer group sizes (low-frequency increments of an infinitely
    divisible process, for instance).
    """

    observations: np.ndarray
    group_size: float

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=float)
        object.__setattr__(self, "observations", obs)
        if obs.ndim != 1:
            raise ParameterError("observations must be a one-dimensional array")
        if obs.size < 2:
            raise ParameterError(f"need at least 2 observations (got {obs.size})")
        if not np.all(np.isfinite(obs)):
            bad = int(np.flatnonzero(~np.isfinite(obs))[0])
            raise ParameterError(f"observation {bad} is not finite")
        if not (np.isfinite(self.group_size) and self.group_size >= 1):
            raise ParameterError(f"group size must be >= 1 (got {self.group_size})")
        # finite observations can still overflow the moments every estimate uses
        with np.errstate(over="ignore", invalid="ignore"):
            mean, sd = self.mean, math.sqrt(self.variance)
        if not (math.isfinite(mean) and math.isfinite(sd)):
            raise ParameterError(
                f"the moments of the {obs.size} observations overflow a float "
                f"(mean {mean:g}, sd(Y) {sd:g})"
            )

    @property
    def n(self) -> int:
        return self.observations.size

    @cached_property
    def mean(self) -> float:
        return float(self.observations.mean())

    @cached_property
    def variance(self) -> float:
        return float(self.observations.var(ddof=1))


class TestLaw:
    """Interface for an analytic law: sampler, density, characteristic function.

    Concrete laws are frozen dataclasses whose fields are the parameters:
    each must be finite, and each but ``mean`` (a scale, shape, rate or
    variance) must be > 0.  They expose ``mean`` and ``variance`` (exact
    moments), ``pdf``, ``cf`` and its derivative ``cf_prime``, and
    ``sample(rng, size)``.
    """

    name: str = "law"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            rule = "finite" if f.name == "mean" else "finite and > 0"
            if not (math.isfinite(value) and (f.name == "mean" or value > 0)):
                raise ParameterError(f"{f.name} must be {rule} (got {value})")

    def pdf(self, x):
        raise NotImplementedError

    def cf(self, u):
        raise NotImplementedError

    def cf_prime(self, u):
        raise NotImplementedError

    def sample(self, rng, size):
        raise NotImplementedError

    def __str__(self):
        return self.label

    @property
    def label(self) -> str:
        """``name(p1,p2)``: the parameters in field order, each ``:g``."""
        return f"{self.name}({','.join(f'{getattr(self, f.name):g}' for f in fields(self))})"


@dataclass(frozen=True)
class Normal(TestLaw):
    mean: float = 2.0
    variance: float = 1.0
    name = "normal"

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # far out the square is inf, the density 0
            return np.exp(-((x - self.mean) ** 2) / (2 * self.variance)) / math.sqrt(
                2 * math.pi * self.variance
            )

    def cf(self, u):
        u = np.asarray(u, dtype=float)
        return np.exp(1j * self.mean * u - 0.5 * self.variance * u * u)

    def cf_prime(self, u):
        u = np.asarray(u, dtype=float)
        return (1j * self.mean - self.variance * u) * self.cf(u)

    def sample(self, rng, size):
        return rng.normal(self.mean, math.sqrt(self.variance), size)


@dataclass(frozen=True)
class Gumbel(TestLaw):
    """Right-skewed Gumbel, parameterized by its mean.

    The location is mean - euler_gamma * scale, so a law built with mean 3
    and scale 1 really has expectation 3.
    """

    mean: float = 3.0
    scale: float = 1.0
    name = "gumbel"

    @property
    def location(self) -> float:
        return self.mean - np.euler_gamma * self.scale

    @property
    def variance(self) -> float:
        return math.pi**2 / 6.0 * self.scale**2

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.location) / self.scale
        with np.errstate(over="ignore"):  # far left e^{-z} is inf, the density 0
            return np.exp(-z - np.exp(-z)) / self.scale

    def cf(self, u):
        # E[e^{iuX}] = e^{iu*loc} * Gamma(1 - iu*scale)
        from scipy import special  # complex gamma; only the exact cf needs scipy

        u = np.asarray(u, dtype=float)
        return np.exp(1j * self.location * u) * special.gamma(1.0 - 1j * self.scale * u)

    def cf_prime(self, u):
        from scipy import special

        u = np.asarray(u, dtype=float)
        z = 1.0 - 1j * self.scale * u
        return self.cf(u) * 1j * (self.location - self.scale * special.digamma(z))

    def sample(self, rng, size):
        return rng.gumbel(self.location, self.scale, size)


@dataclass(frozen=True)
class Gamma(TestLaw):
    """Gamma law with shape/rate parameters (mean = shape/rate)."""

    shape: float = 6.0
    rate: float = 3.0
    name = "gamma"

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def variance(self) -> float:
        return self.shape / self.rate**2

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0
        xp = x[pos]
        with np.errstate(over="ignore"):  # far right rate * x is inf, the density 0
            log_pdf = (
                self.shape * math.log(self.rate)
                + (self.shape - 1) * np.log(xp)
                - self.rate * xp
                - math.lgamma(self.shape)
            )
        out[pos] = np.exp(log_pdf)
        return out

    def cf(self, u):
        # principal branch of (1 - iu/rate)^{-shape}; Re(1 - iu/rate) = 1 > 0
        # so the branch is continuous and equals the distinguished value
        u = np.asarray(u, dtype=float)
        return (1.0 - 1j * u / self.rate) ** (-self.shape)

    def cf_prime(self, u):
        u = np.asarray(u, dtype=float)
        return self.cf(u) * (1j * self.shape / self.rate) / (1.0 - 1j * u / self.rate)

    def sample(self, rng, size):
        return rng.gamma(self.shape, 1.0 / self.rate, size)


@dataclass(frozen=True)
class Laplace(TestLaw):
    """Double exponential with density exp(-|x-mean|/scale) / (2*scale)."""

    mean: float = 0.5
    scale: float = 1.0 / 3.0
    name = "laplace"

    @property
    def variance(self) -> float:
        return 2.0 * self.scale**2

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # far out |x - mean| / scale is inf, the density 0
            return np.exp(-np.abs(x - self.mean) / self.scale) / (2.0 * self.scale)

    def cf(self, u):
        u = np.asarray(u, dtype=float)
        return np.exp(1j * self.mean * u) / (1.0 + (self.scale * u) ** 2)

    def cf_prime(self, u):
        u = np.asarray(u, dtype=float)
        b2 = self.scale**2
        return self.cf(u) * (1j * self.mean - 2.0 * b2 * u / (1.0 + b2 * u * u))

    def sample(self, rng, size):
        return rng.laplace(self.mean, self.scale, size)


def benchmark_laws() -> dict[str, TestLaw]:
    """The four laws driving the simulation study.

    The Laplace entry uses scale 1/3 (equivalently: exponential rate 3 on
    each side), which is the parameterization whose risk magnitudes line up
    with the benchmark tables this harness reproduces.
    """
    return {
        "normal": Normal(2.0, 1.0),
        "gumbel": Gumbel(3.0, 1.0),
        "gamma": Gamma(6.0, 3.0),
        "laplace": Laplace(0.5, 1.0 / 3.0),
    }


def law_from_name(name: str) -> TestLaw:
    laws = benchmark_laws()
    key = name.strip().lower()
    if key not in laws:
        raise ParameterError(
            f"unknown law '{name}' (choose from {', '.join(sorted(laws))})"
        )
    return laws[key]


def generate_grouped(law: TestLaw, n: int, group_size: int, seed) -> GroupedSample:
    """Draw n observations of the sum of ``group_size`` i.i.d. copies of the law.

    Deterministic given ``seed``; the same seed yields bit-identical samples.
    The copies are drawn and summed a block of about ``_fourier.BLOCK``
    values (whole rows, at least one) at a time, in the generator's
    row-major order, so the samples do not depend on the block and memory
    is O(n), not O(nK).
    """
    from ._fourier import BLOCK  # the spread's block, one cache-sized unit for both

    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise ParameterError(f"need an integer n >= 2 (got {n})")
    if not (group_size >= 1 and float(group_size).is_integer()):
        raise ParameterError(
            f"group size must be a positive integer for sampling (got {group_size})"
        )
    k = int(group_size)
    rng = make_rng(seed)
    rows = max(1, BLOCK // k)
    try:
        sums = np.empty(n)
        for start in range(0, n, rows):
            part = sums[start : start + rows]
            law.sample(rng, (part.size, k)).sum(axis=1, out=part)
    except (MemoryError, ValueError) as exc:  # numpy: "array is too big" is a ValueError
        raise ParameterError(f"cannot draw n = {n} sums of K = {k}: {exc}") from None
    return GroupedSample(sums, float(k))


def load_sample(path, group_size: float) -> GroupedSample:
    """Read one observation per line; a non-numeric first line is a header.

    The text is UTF-8 after an optional byte-order mark.  The group size is
    never inferred from the data.  The first malformed entry, or a byte
    that is not UTF-8, is reported with its line number.

    Three readers give the same values: ``_read_decimals`` for a column of
    plain decimals, ``np.loadtxt`` for other numbers in a regular file, and
    Python's ``float`` line by line for the rest and for every error.
    """
    if not (np.isfinite(group_size) and group_size >= 1):
        raise ParameterError(f"group size must be >= 1 (got {group_size})")
    try:
        # a pipe gives its bytes once: keep them for the line-by-line pass
        data = None if Path(path).is_file() else Path(path).read_bytes()
        with open(path, "rb") if data is None else io.BytesIO(data) as fh:
            values = _read_decimals(fh)
        if values is None and data is None:
            values = _load_column(path)
        if values is None:
            # Python's float line by line: the exact value, message and line
            if data is None:
                data = Path(path).read_bytes()
            text = data.decode("utf-8-sig")
            values = np.array(_parse_lines(text.splitlines()), dtype=float)
    except UnicodeDecodeError as exc:
        raise DataFormatError.undecodable(path, exc) from None
    if values.size < 2:
        raise DataFormatError(
            f"fewer than 2 observations in {path} (got {values.size})"
        )
    return GroupedSample(values, float(group_size))


# Text is read a block of about this many bytes at a time, cut at a line feed.
_TEXT_BLOCK = 1 << 18
# A plain decimal: an optional sign, 1 to 18 digits and at most one point.
_PLAIN_DIGITS = 18
# W / 10^s in long double is the exact quotient rounded once only where
# long double is x87 extended: its 64-bit significand holds every W <
# 10^18 < 2^63 and every 10^s (5^18 < 2^64) exactly.
_EXTENDED = np.finfo(np.longdouble).nmant == 63
_POW10 = np.array([10**s for s in range(_PLAIN_DIGITS + 1)])  # int64


def _header_lines(first: str):
    """1 if the first line of a file, decoded and after any byte-order
    mark, is a header (no number to Python's ``float``), else 0; None if
    it holds a line break that ``str.splitlines`` sees and ``np.loadtxt``
    does not, which leaves the file to the line-by-line pass."""
    lines = first.splitlines() or [""]
    if len(lines) > 1:
        return None
    try:
        float(lines[0])
    except ValueError:
        return 1
    return 0


def _read_decimals(fh):
    """The values of a binary file of plain decimals, one per line after an
    optional header, bit for bit as Python's ``float`` reads them; None for
    any other text (an exponent, a space, a CR or a blank line, say) or
    where long double is not x87 extended.

    The file is read once, a block at a time, into an array of one double
    per two bytes left after the header (a plain line takes at least two),
    cut to the lines read at the end: only the pages written are backed.
    """
    if not _EXTENDED:
        return None
    first = fh.readline(_TEXT_BLOCK)
    if len(first) == _TEXT_BLOCK:
        return None  # leave a line this long to the other readers
    first = first.removeprefix(b"\xef\xbb\xbf")
    try:
        header = _header_lines(first.decode())
    except UnicodeDecodeError:
        return None
    if header is None:
        return None
    rest = b"" if header else first
    start = fh.tell()
    try:
        values = np.empty((fh.seek(0, io.SEEK_END) - start + len(rest)) // 2 + 1)
    except MemoryError:
        return None  # np.loadtxt grows its array as it reads
    fh.seek(start)
    done = 0
    while True:
        chunk = fh.read(_TEXT_BLOCK)
        if not chunk:
            if not rest:
                values.resize(done, refcheck=False)
                return values
            chunk = b"\n"  # the last line's missing line feed
        text = rest + chunk
        cut = text.rfind(b"\n") + 1
        text, rest = text[:cut], text[cut:]
        if len(rest) > _PLAIN_DIGITS + 2:
            return None  # longer than any plain decimal
        if text:
            part = _decimal_block(text)
            if part is None or done + part.size > values.size:
                return None  # not plain decimals, or a file that grew as it was read
            values[done : done + part.size] = part
            done += part.size


def _decimal_block(text: bytes):
    """The values of lines of plain decimals, each ended by a line feed;
    None if a line is not one.

    The digits of each line, its point dropped, are read as an int64 W by
    numpy's integer parser, and divided by 10^s in long double, s the
    digits after the point, then cast to float64.  That double rounding
    differs from Python's single one only where the long double lies on a
    midpoint of two doubles, and those lines are read again by ``float``.
    """
    buf = np.frombuffer(text, dtype=np.uint8)
    digits_text = text.translate(None, b".")
    ends = np.flatnonzero(buf == ord("\n"))
    # each line feed moves back by the points before it once they are dropped
    moved = ends - np.flatnonzero(np.frombuffer(digits_text, dtype=np.uint8) == ord("\n"))
    points = np.diff(moved, prepend=0)  # per line
    starts = np.concatenate(([0], ends[:-1] + 1))
    lead = buf[starts]
    signed = (lead == ord("+")) | (lead == ord("-"))
    digits = ends - starts - signed - points
    non_digits = np.count_nonzero(buf - ord("0") > 9)  # uint8 wraps below '0'
    if (
        non_digits != ends.size + moved[-1] + np.count_nonzero(signed)
        or points.max() > 1
        or digits.min() < 1
        or digits.max() > _PLAIN_DIGITS
    ):
        return None
    w = np.fromstring(digits_text, dtype=np.int64, sep="\n")
    rows = np.flatnonzero(points)  # the k-th point is on the k-th of these
    scale = np.zeros(ends.size, dtype=np.intp)
    scale[rows] = ends[rows] - np.flatnonzero(buf == ord(".")) - 1
    exact = w.astype(np.longdouble) / _POW10[scale]
    values = exact.astype(np.float64)
    # a midpoint is half a spacing from the double, or a quarter of one
    # below a power of two; the difference is exact as a double, and 0
    # where the quotient is a double (a zero's half spacing is 0 too)
    off = np.abs((exact - values).astype(np.float64))
    half = np.abs(np.spacing(values)) / 2
    for i in np.flatnonzero(((off == half) | (off == half / 2)) & (off > 0)):
        values[i] = float(text[starts[i] : ends[i]])
    np.copysign(values, -1.0, out=values, where=lead == ord("-"))  # "-0"
    return values


def _load_column(path):
    """A regular file of one finite number per line after an optional
    header, read by the C parser; None for anything else.

    The path is opened twice (first line, then ``np.loadtxt``), so it must
    not be a pipe.  A path, not an open file or a list of lines, is
    what keeps ``np.loadtxt`` on its chunked C reader.
    """
    with open(path, encoding="utf-8-sig") as fh:
        start = _header_lines(fh.readline())
    if start is None:
        return None
    try:
        # comments=None keeps '#' an error; ndmin=2 tells a one-line file
        # holding a row of numbers from a column of them
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            values = np.loadtxt(path, comments=None, skiprows=start, ndmin=2, encoding="utf-8-sig")
    except ValueError:
        return None
    if values.shape[1] != 1 or not np.all(np.isfinite(values)):
        return None
    return values[:, 0]


def _parse_lines(lines) -> list:
    """Line-by-line parse that skips blank lines and names the first bad one."""
    values = []
    for lineno, raw in enumerate(lines, start=1):
        token = raw.strip()
        if not token:
            continue
        try:
            v = float(token)
        except ValueError:
            if lineno == 1 and not values:
                continue  # header line
            raise DataFormatError(
                f"line {lineno}: could not parse {token!r} as a number", line=lineno
            ) from None
        if not math.isfinite(v):
            raise DataFormatError(
                f"line {lineno}: non-finite observation {token!r}", line=lineno
            )
        values.append(v)
    return values
