"""Command-line front end.

Three subcommands:

* ``estimate``  - density estimate from a file of grouped observations
* ``simulate``  - Monte-Carlo risk tables over scenario grids
* ``diagnose``  - theoretical threshold diagnostics for a named law

Exit codes: 0 success, 2 input/parameter error, 3 numerical failure
(denominator floor hit), 4 simulate produced no successful cell.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bandwidth import (
    DEFAULT_ETA,
    cutoff_cap,
    diagnostic_level,
    diagnostic_threshold_u,
    estimate,
    threshold_value,
)
from .errors import DataFormatError, GroupDeconvError, LevelNotReached, ParameterError
from .experiments import ScenarioGrid, run_grid
from .inversion import X_COUNT, X_HALF_WIDTH, XGrid, default_xgrid
from .samples import law_from_name, load_sample


def _finite_float(text: str) -> float:
    """The type of every float flag: a finite number, or argparse exits 2
    naming the flag and the value."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number (got '{text}')")
    return value


def _count(text: str) -> int:
    """The type of every size flag (n, K, replications): an integer that
    fits numpy's index type, a C ssize_t, or argparse exits 2 naming the
    flag.  Past that a size overflows a float or a length before any
    check on its value could run."""
    value = int(text)
    if abs(value) > sys.maxsize:
        digits = sum(c.isdigit() for c in text)
        raise argparse.ArgumentTypeError(
            f"expected an integer of magnitude at most {sys.maxsize} (got one of {digits} digits)"
        )
    return value


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _parse_cutoff_flag(text: str):
    """--cutoff as ``estimate``'s cutoff: a rule name or the fixed m."""
    if text == "adaptive" or text == "oracle":
        return text
    if text.startswith("fixed:"):
        try:
            return _finite_float(text.split(":", 1)[1])
        except argparse.ArgumentTypeError:
            raise ParameterError(
                f"--cutoff: fixed cutoff must be a finite number (got '{text}')"
            ) from None
    raise ParameterError(
        f"cutoff must be adaptive, oracle, or fixed:<m> (got '{text}')"
    )


def cmd_estimate(args) -> int:
    cutoff = _parse_cutoff_flag(args.cutoff)
    if cutoff == "oracle" and args.law is None:
        raise ParameterError("--cutoff oracle requires --law")
    law = law_from_name(args.law) if args.law is not None else None
    sample = load_sample(args.input, args.group_size)

    if args.x_min is not None or args.x_max is not None:
        if args.x_min is None or args.x_max is None:
            raise ParameterError("--x-min and --x-max must be given together")
        xgrid = XGrid(args.x_min, args.x_max, args.x_count)
    else:
        xgrid = default_xgrid(sample, args.x_count)

    est = estimate(sample, xgrid, cutoff, args.eta, law)
    # every tunable that shaped the estimate, and only those, goes into its JSON
    rule = est.cutoff_rule
    defaults = {k: rule[k] for k in ("eta", "scan_resolution")} if cutoff == "adaptive" else {}
    if args.x_min is None:
        defaults["x_grid_policy"] = (
            f"center mean(Y)/K, half-width {X_HALF_WIDTH:g}*sd(X), {args.x_count} points"
        )
    est = replace(
        est,
        cutoff_rule=rule | {"defaults": defaults},
        provenance=est.provenance | {"source": str(args.input)},
    )
    out = Path(args.out)
    est.to_csv(out.with_suffix(".csv"))
    est.to_json(out.with_suffix(".json"))
    print(
        f"estimate: n={sample.n} K={sample.group_size:g} cutoff={est.cutoff_m:.6g} "
        f"({est.cutoff_rule['rule']}) -> {out.with_suffix('.csv')}, {out.with_suffix('.json')}"
    )
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _count_list(text):
    return tuple(_count(tok) for tok in text.split(",") if tok.strip())


# config key, also the dest of simulate's flag -> (the ScenarioGrid field it sets, parser)
_CONFIG_KEYS = {
    "laws": ("laws", lambda text: text.split(",")),
    "ns": ("ns", _count_list),
    "group_sizes": ("group_sizes", _count_list),
    "reps": ("replications", _count),
    "eta": ("eta", float),
    "seed": ("master_seed", int),
}


def _parse_config_file(path) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment; lists are
    comma-separated; UTF-8 after an optional byte-order mark.  Returns the
    values by ScenarioGrid field."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataFormatError.undecodable(path, exc) from None
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(
                f"{path}:{lineno}: expected 'key = value' (got '{raw.strip()}')",
                line=lineno,
            )
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise DataFormatError(
                f"{path}:{lineno}: unknown key '{key}' = '{value}' "
                f"(known: {', '.join(_CONFIG_KEYS)})",
                line=lineno,
            )
        field, parse = _CONFIG_KEYS[key]
        try:
            out[field] = parse(value)
        except (ValueError, argparse.ArgumentTypeError):
            raise DataFormatError(
                f"{path}:{lineno}: bad value for '{key}' (got '{value}')", line=lineno
            ) from None
    return out


def cmd_simulate(args) -> int:
    # a flag overrides the config file; what neither sets keeps ScenarioGrid's default
    fields = _parse_config_file(args.config) if args.config else {}
    for key, (field, _parse) in _CONFIG_KEYS.items():
        if getattr(args, key) is not None:
            fields[field] = getattr(args, key)
    if "laws" in fields:
        fields["laws"] = tuple(law_from_name(name) for name in fields["laws"])
    grid = ScenarioGrid(**fields)
    if args.quick:
        grid = replace(grid, replications=min(grid.replications, 50))
    report = run_grid(grid)

    out = Path(args.out)
    report.to_csv(out.with_suffix(".csv"))
    out.with_suffix(".txt").write_text(report.to_text())
    succeeded = sum(1 for row in report.rows if row.replications > 0)
    print(
        f"simulate: {len(report.rows)} rows ({succeeded} with successes) "
        f"-> {out.with_suffix('.csv')}, {out.with_suffix('.txt')}"
    )
    for failure in report.failures[:5]:
        print(f"warning: {failure}", file=sys.stderr)
    if len(report.failures) > 5:
        print(f"warning: ... {len(report.failures) - 5} more", file=sys.stderr)
    return 0 if succeeded else 4


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def cmd_diagnose(args) -> int:
    law = law_from_name(args.law)
    n, k = args.n, args.group_size
    gamma, level = diagnostic_level(n, k, args.gamma, args.eps, args.delta)

    warning = None
    try:
        u_n = diagnostic_threshold_u(law, k, level)
    except LevelNotReached as exc:
        u_n = None
        warning = str(exc)

    t = threshold_value(n, k, args.eta)
    cap = cutoff_cap(n, k)
    summary = {
        "law": law.label,
        "n": n,
        "group_size": k,
        "gamma": gamma,
        "eps": args.eps,
        "delta": args.delta,
        "level": level,
        "u_gamma_eps": u_n,
        "adaptive_threshold": t,
        "cutoff_cap": cap,
        "warning": warning,
        "defaults": {"eta": args.eta},
    }

    u_hi = max(cap, (u_n or 0.0) * 1.5, 1.0)
    us = np.linspace(0.0, u_hi, 512)
    abs_phi_x = np.abs(law.cf(us))
    abs_phi = abs_phi_x**k

    out = Path(args.out)
    with open(out.with_suffix(".csv"), "w", newline="") as fh:
        fh.write("u,abs_phi_x,abs_phi\n")
        for u, a, b in zip(us, abs_phi_x, abs_phi):
            fh.write(f"{u:.10g},{a:.10g},{b:.10g}\n")
    out.with_suffix(".json").write_text(json.dumps(summary, indent=2) + "\n")
    shown = "not reached" if u_n is None else f"{u_n:.6g}"
    print(
        f"diagnose: {law.label} n={n} K={k:g}: u_(gamma,eps)={shown}, "
        f"threshold={t:.6g}, cap={cap:.6g} -> {out.with_suffix('.csv')}, "
        f"{out.with_suffix('.json')}"
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupdeconv",
        description=(
            "Estimate the density of a summand X from observations of K-fold "
            "sums, via the distinguished-logarithm root of the empirical "
            "characteristic function with spectral-cutoff inversion."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate a density from a data file")
    est.add_argument("--input", required=True, help="CSV/text file, one observation per line")
    est.add_argument("--group-size", type=_finite_float, required=True, help="K (or real >= 1)")
    est.add_argument("--eta", type=_finite_float, default=DEFAULT_ETA, help="adaptive threshold constant (> 1)")
    est.add_argument("--cutoff", default="adaptive", help="adaptive | oracle | fixed:<m>")
    est.add_argument("--law", default=None, help="law name (required for --cutoff oracle)")
    est.add_argument("--x-min", type=_finite_float, default=None)
    est.add_argument("--x-max", type=_finite_float, default=None)
    est.add_argument("--x-count", type=int, default=X_COUNT)
    est.add_argument("--out", default="estimate", help="output path prefix")
    est.set_defaults(func=cmd_estimate)

    sim = sub.add_parser("simulate", help="run Monte-Carlo risk tables")
    sim.add_argument("--law", action="append", dest="laws", metavar="LAW", help="law name; repeatable (default: all four)")
    sim.add_argument("--n", action="append", type=_count, dest="ns", metavar="N", help="sample size; repeatable")
    sim.add_argument("--group-size", action="append", type=_count, dest="group_sizes", metavar="GROUP_SIZE", help="K; repeatable")
    sim.add_argument("--reps", type=_count, default=None, help=f"replications per cell (default {ScenarioGrid.replications})")
    sim.add_argument("--eta", type=_finite_float, default=None)
    sim.add_argument("--seed", type=int, default=None, help="master seed")
    sim.add_argument("--quick", action="store_true", help="CI mode: at most 50 replications")
    sim.add_argument("--config", default=None, help="key = value file defining the grid")
    sim.add_argument("--out", default="risks", help="output path prefix")
    sim.set_defaults(func=cmd_simulate)

    dia = sub.add_parser("diagnose", help="theoretical threshold diagnostics")
    dia.add_argument("--law", required=True)
    dia.add_argument("--n", type=_count, required=True)
    dia.add_argument("--group-size", type=_finite_float, required=True)
    dia.add_argument("--eta", type=_finite_float, default=DEFAULT_ETA)
    dia.add_argument("--eps", type=_finite_float, default=0.1)
    dia.add_argument("--delta", type=_finite_float, default=0.1)
    dia.add_argument("--gamma", type=_finite_float, default=None, help="override sqrt(1 + 2/K + delta)")
    dia.add_argument("--out", default="diagnostics", help="output path prefix")
    dia.set_defaults(func=cmd_diagnose)
    return parser


def _attach_negative_values(argv: list) -> list:
    """``--flag -1e0`` as ``--flag=-1e0``: argparse reads a token that
    starts with '-' as an option unless it looks like -1 or -1.5, so a
    negative value in exponent form (or -inf) would not reach its flag."""
    out = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        out = Path(args.out)  # checked before any work, not after it
        if not (out.name and out.parent.is_dir()):
            raise ParameterError(f"--out must name a file in an existing directory (got '{args.out}')")
        return args.func(args)
    except (ParameterError, DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GroupDeconvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
