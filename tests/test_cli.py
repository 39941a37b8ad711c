import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupdeconv import cli, default_xgrid, errors, estimate
from groupdeconv.cli import main
from groupdeconv.experiments import RiskReport, ScenarioGrid
from groupdeconv.inversion import X_HALF_WIDTH, XGrid, l2_distance
from groupdeconv.rootlog import ROOT_MODES
from groupdeconv.samples import Normal, generate_grouped, load_sample


@pytest.fixture()
def normal_sum_file(tmp_path):
    s = generate_grouped(Normal(2.0, 1.0), 10**4, 5, seed=606)
    p = tmp_path / "y.csv"
    p.write_text("y\n" + "\n".join(f"{v:.12g}" for v in s.observations) + "\n")
    return p


def run_cli(args):
    return main([str(a) for a in args])


def exit_code(args):
    """main's return value, or the status argparse exits with."""
    try:
        return run_cli(args)
    except SystemExit as exc:
        return exc.code


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def test_estimate_writes_csv_and_json(tmp_path, normal_sum_file):
    out = tmp_path / "est"
    code = run_cli(
        ["estimate", "--input", normal_sum_file, "--group-size", 5, "--eta", 1.1,
         "--out", out]
    )
    assert code == 0
    lines = (tmp_path / "est.csv").read_text().splitlines()
    assert lines[0] == "x,fhat"
    payload = json.loads((tmp_path / "est.json").read_text())
    assert payload["cutoff"]["rule"] == "adaptive"
    assert payload["cutoff"]["eta"] == 1.1
    assert payload["cutoff"]["value"] > 0
    assert payload["provenance"]["n"] == 10**4
    assert payload["cutoff"]["defaults"]["scan_resolution"] == 0.01
    assert payload["phase_gap"] < 1e-6


def test_estimate_recovers_summand_density(tmp_path, normal_sum_file):
    out = tmp_path / "est"
    assert run_cli(
        ["estimate", "--input", normal_sum_file, "--group-size", 5, "--out", out]
    ) == 0
    rows = np.loadtxt(tmp_path / "est.csv", delimiter=",", skiprows=1)
    x, fhat = rows[:, 0], rows[:, 1]
    law = Normal(2.0, 1.0)
    xg = XGrid(x[0], x[-1], x.size)
    assert l2_distance(fhat, law.pdf, xg) < 0.05


@pytest.mark.parametrize(
    "flags, cutoff, law",
    [
        ([], "adaptive", None),
        (["--cutoff", "fixed:1.5"], 1.5, None),
        (["--cutoff", "oracle", "--law", "normal"], "oracle", Normal(2.0, 1.0)),
    ],
    ids=["adaptive", "fixed", "oracle"],
)
def test_library_route_reproduces_estimate(tmp_path, normal_sum_file, flags, cutoff, law):
    # the one call the README tour and demo 01 document
    argv = ["estimate", "--input", normal_sum_file, "--group-size", 5, *flags]
    assert run_cli([*argv, "--out", tmp_path / "e"]) == 0
    sample = load_sample(normal_sum_file, 5)
    est = estimate(sample, default_xgrid(sample), cutoff, law=law)
    payload = json.loads((tmp_path / "e.json").read_text())
    assert payload["values"] == est.values.tolist()


@pytest.mark.parametrize(
    "flags, keys",
    [
        ([], ["eta", "scan_resolution", "x_grid_policy"]),
        (["--x-min", -3, "--x-max", 7], ["eta", "scan_resolution"]),
        (["--cutoff", "fixed:1.5"], ["x_grid_policy"]),
        (["--cutoff", "oracle", "--law", "normal"], ["x_grid_policy"]),
    ],
    ids=["adaptive", "explicit-grid", "fixed", "oracle"],
)
def test_estimate_records_only_the_defaults_it_used(tmp_path, normal_sum_file, flags, keys):
    argv = ["estimate", "--input", normal_sum_file, "--group-size", 5, *flags]
    assert run_cli([*argv, "--out", tmp_path / "e"]) == 0
    payload = json.loads((tmp_path / "e.json").read_text())
    assert sorted(payload["cutoff"]["defaults"]) == keys


def test_estimate_rejects_small_group_size(tmp_path, normal_sum_file, capsys):
    code = run_cli(
        ["estimate", "--input", normal_sum_file, "--group-size", 0.5,
         "--out", tmp_path / "e"]
    )
    assert code == 2
    assert "group size must be >= 1 (got 0.5)" in capsys.readouterr().err


def test_estimate_reports_malformed_line(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("1.0\nnot-a-number\n2.0\n")
    code = run_cli(["estimate", "--input", p, "--group-size", 2, "--out", tmp_path / "e"])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_estimate_missing_file(tmp_path, capsys):
    code = run_cli(
        ["estimate", "--input", tmp_path / "nope.csv", "--group-size", 2,
         "--out", tmp_path / "e"]
    )
    assert code == 2


def test_estimate_fixed_cutoff_and_xgrid_override(tmp_path, normal_sum_file):
    out = tmp_path / "fixed"
    code = run_cli(
        ["estimate", "--input", normal_sum_file, "--group-size", 5,
         "--cutoff", "fixed:1.5", "--x-min", -3, "--x-max", 7, "--x-count", 301,
         "--out", out]
    )
    assert code == 0
    payload = json.loads((tmp_path / "fixed.json").read_text())
    assert payload["cutoff"]["value"] == 1.5
    assert payload["xgrid"] == {"x_min": -3.0, "x_max": 7.0, "count": 301}


def test_estimate_x_count_alone_keeps_default_grid(tmp_path, normal_sum_file):
    for count in (1024, 512):
        code = run_cli(
            ["estimate", "--input", normal_sum_file, "--group-size", 5,
             "--x-count", count, "--out", tmp_path / f"e{count}"]
        )
        assert code == 0
    wide, narrow = (
        json.loads((tmp_path / f"e{count}.json").read_text()) for count in (1024, 512)
    )
    assert narrow["xgrid"] == wide["xgrid"] | {"count": 512}
    assert "512 points" in narrow["cutoff"]["defaults"]["x_grid_policy"]


def test_default_xgrid_is_the_grid_its_policy_names(tmp_path, normal_sum_file):
    assert run_cli(
        ["estimate", "--input", normal_sum_file, "--group-size", 5, "--out", tmp_path / "e"]
    ) == 0
    payload = json.loads((tmp_path / "e.json").read_text())
    grid = payload["xgrid"]
    sd_x = math.sqrt(load_sample(normal_sum_file, 5).variance / 5)
    assert (grid["x_max"] - grid["x_min"]) / 2 == pytest.approx(X_HALF_WIDTH * sd_x, rel=1e-12)
    policy = payload["cutoff"]["defaults"]["x_grid_policy"]
    assert f"half-width {X_HALF_WIDTH:g}*sd(X)" in policy


def test_estimate_invalid_cutoff_flag(tmp_path, normal_sum_file, capsys):
    # both are refused as the flag is parsed
    for cutoff in ("fixed:zero", "fixed:-1"):
        code = run_cli(
            ["estimate", "--input", normal_sum_file, "--group-size", 5,
             "--cutoff", cutoff, "--out", tmp_path / "e"]
        )
        assert code == 2
        assert "fixed cutoff" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--cutoff", "fixed:-1"], ["--cutoff", "fixed:0"], ["--law", "normal"],
     ["--cutoff", "fixed:1.5", "--law", "normal"]],
)
def test_estimate_refuses_its_flags_before_reading_the_data(tmp_path, normal_sum_file, capsys, monkeypatch, flags):
    # a cutoff check_cutoff refuses, and a --law with a rule that does not
    # read it, each exit 2 before load_sample
    def unread(*args):
        raise AssertionError("the data was read")

    monkeypatch.setattr(cli, "load_sample", unread)
    code = run_cli(["estimate", "--input", normal_sum_file, "--group-size", 5, *flags, "--out", tmp_path / "e"])
    err = capsys.readouterr().err
    assert code == 2
    assert ("fixed cutoff must be" in err) != ("--law is read only by --cutoff oracle" in err)
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize(
    "values,flags,named",
    [
        # |phi_hat(u)| = |cos(pi u / 0.02)| vanishes at the oracle's first scan step
        ((5.0, 5.0 + math.pi / 0.01), ["--group-size", 2, "--cutoff", "oracle", "--law", "normal"],
         "|phi_hat(0.01)|"),
        # |phi_hat(u)| = |cos(u)| vanishes at pi/2, inside the root grid of m = 2
        ((-1.0, 1.0), ["--group-size", 1, "--cutoff", "fixed:2"], "|phi_hat(1.5708)|"),
    ],
    ids=["oracle-first-step", "fixed"],
)
def test_estimate_exits_3_naming_the_floor_frequency(tmp_path, capsys, values, flags, named):
    path = tmp_path / "y.txt"
    path.write_text("".join(f"{v!r}\n" for v in values * 1000))
    code = exit_code(["estimate", "--input", path, *flags, "--out", tmp_path / "e"])
    err = capsys.readouterr().err
    assert code == 3
    assert named in err and "integration floor" in err
    assert "Traceback" not in err
    assert not (tmp_path / "e.json").exists()


def test_estimate_reports_a_zero_between_grid_points_as_a_phase_gap(tmp_path):
    # |phi_hat(u)| = |cos(pi u / 0.02)| vanishes at u = 0.01 and 0.03, between
    # points of the root grid of m = 0.045, so no floor stops the estimate;
    # the JSON's phase_gap shows the sampled argument's flip by pi
    path = tmp_path / "y.txt"
    path.write_text("".join(f"{v!r}\n" for v in (5.0, 5.0 + math.pi / 0.01) * 1000))
    out = tmp_path / "e"
    argv = ["estimate", "--input", path, "--group-size", 2, "--cutoff", "fixed:0.045"]
    assert run_cli([*argv, "--out", out]) == 0
    assert json.loads(out.with_suffix(".json").read_text())["phase_gap"] > 3.1


@pytest.mark.parametrize("m", ["1e-200", "1e-300"])
def test_estimate_rejects_a_cutoff_too_small_to_read(tmp_path, normal_sum_file, capsys, m):
    # the ECF read on the root grid scales phi_hat' by 1 / reach^2, which
    # leaves the doubles here: the cutoff is named, not divided by
    code = run_cli(
        ["estimate", "--input", normal_sum_file, "--group-size", 5,
         "--cutoff", f"fixed:{m}", "--out", tmp_path / "e"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert f"cutoff m={m} is too small" in err
    assert "Traceback" not in err
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("m", ["1e+15", "1e+300"])
def test_estimate_rejects_a_cutoff_past_the_root_grid_budget(tmp_path, normal_sum_file, capsys, m):
    # 1e15 asked for 1e17 modes and 1e300 for more than an array may hold,
    # each ending in a traceback
    code = run_cli(
        ["estimate", "--input", normal_sum_file, "--group-size", 5,
         "--cutoff", f"fixed:{m}", "--out", tmp_path / "e"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert f"cutoff m={m} is too large" in err and "modes" in err
    assert "Traceback" not in err
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("x_min", ["-1e0", "-1E+0", "-10e-1"])
def test_estimate_takes_a_negative_x_grid_end_in_exponent_form(tmp_path, normal_sum_file, x_min):
    # argparse reads "-1e0" as an option unless it is attached to its flag
    out = tmp_path / "e"
    assert run_cli(
        ["estimate", "--input", normal_sum_file, "--group-size", 5,
         "--x-min", x_min, "--x-max", "2", "--out", out]
    ) == 0
    assert json.loads(out.with_suffix(".json").read_text())["xgrid"]["x_min"] == -1.0


def test_estimate_on_an_x_grid_of_tiny_spacing(tmp_path, normal_sum_file):
    # x-spacing times the root step is below 2^-1022: the chirp phases still
    # reduce exactly, and every value is f_m(0)
    values = {}
    for x_max in (1e-300, 1.0):
        out = tmp_path / f"e{x_max}"
        assert run_cli(
            ["estimate", "--input", normal_sum_file, "--group-size", 5, "--cutoff", "fixed:1",
             "--x-min", 0, "--x-max", x_max, "--out", out]
        ) == 0
        values[x_max] = json.loads(out.with_suffix(".json").read_text())["values"]
    np.testing.assert_allclose(values[1e-300], values[1.0][0], rtol=1e-12)


def test_estimate_oracle_requires_law(tmp_path, normal_sum_file, capsys):
    code = run_cli(
        ["estimate", "--input", normal_sum_file, "--group-size", 5,
         "--cutoff", "oracle", "--out", tmp_path / "e"]
    )
    assert code == 2
    assert "requires --law" in capsys.readouterr().err


def test_estimate_oracle_cutoff(tmp_path, normal_sum_file):
    code = run_cli(
        ["estimate", "--input", normal_sum_file, "--group-size", 5,
         "--cutoff", "oracle", "--law", "normal", "--out", tmp_path / "e"]
    )
    assert code == 0
    cutoff = json.loads((tmp_path / "e.json").read_text())["cutoff"]
    assert cutoff["rule"] == "oracle"
    assert math.isfinite(cutoff["risk"])
    assert cutoff["candidates"] >= 1
    assert 0 < cutoff["value"] <= (10**4) ** (1 / 5)


def test_estimate_oracle_record_describes_the_values_written(
    tmp_path, normal_sum_file, spreads
):
    code = run_cli(
        ["estimate", "--input", normal_sum_file, "--group-size", 5,
         "--cutoff", "oracle", "--law", "normal", "--out", tmp_path / "e"]
    )
    assert code == 0
    assert len(spreads) == 1
    payload = json.loads((tmp_path / "e.json").read_text())
    xgrid = XGrid(**payload["xgrid"])
    risk = l2_distance(np.array(payload["values"]), Normal(2.0, 1.0).pdf, xgrid)
    assert payload["cutoff"]["risk"] == pytest.approx(risk, rel=1e-12, abs=0)


@pytest.mark.parametrize("cutoff", ["adaptive", "fixed:1.5"])
def test_estimate_rejects_unknown_law_with_any_cutoff(tmp_path, normal_sum_file, capsys, cutoff):
    code = run_cli(
        ["estimate", "--input", normal_sum_file, "--group-size", 5,
         "--cutoff", cutoff, "--law", "cauchy", "--out", tmp_path / "e"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "cauchy" in err
    assert not (tmp_path / "e.json").exists()


def test_estimate_csv_round_trips_through_loader(tmp_path, normal_sum_file):
    out = tmp_path / "est"
    assert run_cli(
        ["estimate", "--input", normal_sum_file, "--group-size", 5, "--out", out]
    ) == 0
    rows = np.loadtxt(tmp_path / "est.csv", delimiter=",", skiprows=1)
    xcol = tmp_path / "xcol.csv"
    xcol.write_text("x\n" + "\n".join(f"{v:.12g}" for v in rows[:, 0]) + "\n")
    again = load_sample(xcol, 1.0)
    np.testing.assert_allclose(again.observations, rows[:, 0], atol=1e-9)


def _bad_sample(kind):
    sums = generate_grouped(Normal(2.0, 1.0), 1000, 5, seed=707).observations
    return {
        "one-1.7e308": np.append(sums, 1.7e308),
        "two-1e308": np.append(sums, [1e308, 1e308]),
        "constant": np.full(500, 2.0),
        "near-constant": np.append(np.full(499, 2.0), 2.0000000000000004),
        # distinct, but their variance underflows to 0
        "tiny": sums * 1e-300,
    }[kind]


@pytest.mark.parametrize(
    "kind, grid, named",
    [
        ("one-1.7e308", "default", "overflow a float (mean 1.6983e+305, sd(Y) inf)"),
        ("one-1.7e308", "explicit", "overflow a float (mean 1.6983e+305, sd(Y) inf)"),
        ("two-1e308", "default", "overflow a float (mean inf, sd(Y) inf)"),
        ("two-1e308", "explicit", "overflow a float (mean inf, sd(Y) inf)"),
        ("constant", "default", "sd(Y) is 0 (all 500 observations equal 2)"),
        ("constant", "explicit", None),
        (
            "near-constant",
            "default",
            "x_min must be < x_max with room for 1024 distinct doubles "
            "(got 0.39999999999999997, 0.4000000000000001)",
        ),
        ("near-constant", "explicit", None),
        (
            "tiny",
            "default",
            "sd(Y) underflows to 0 (the 1000 observations span [2.89173e-300, 1.74404e-299])",
        ),
        ("tiny", "explicit", None),
    ],
    ids=[
        "one-1.7e308-default",
        "one-1.7e308-explicit",
        "two-1e308-default",
        "two-1e308-explicit",
        "constant-default",
        "constant-explicit",
        "near-constant-default",
        "near-constant-explicit",
        "tiny-default",
        "tiny-explicit",
    ],
)
def test_estimate_names_overflowing_or_spreadless_sample(tmp_path, capsys, kind, grid, named):
    path = tmp_path / "y.txt"
    path.write_text("".join(f"{v!r}\n" for v in _bad_sample(kind).tolist()))
    flags = ["--x-min", -5, "--x-max", 5] if grid == "explicit" else []
    out = tmp_path / "est"
    code = exit_code(["estimate", "--input", path, "--group-size", 5, "--out", out] + flags)
    err = capsys.readouterr().err
    if named is None:  # a (near-)constant sample on a given grid is still an estimate
        assert code == 0
        assert np.all(np.isfinite(json.loads((tmp_path / "est.json").read_text())["values"]))
        return
    assert code == 2
    assert named in err
    assert "Traceback" not in err and "Warning" not in err
    assert not (tmp_path / "est.json").exists()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_quick_single_cell(tmp_path):
    out = tmp_path / "risks"
    code = run_cli(
        ["simulate", "--law", "normal", "--n", 1000, "--group-size", 5,
         "--reps", 5, "--seed", 99, "--out", out]
    )
    assert code == 0
    lines = (tmp_path / "risks.csv").read_text().splitlines()
    assert lines[0] == "law,n,K,method,mean_risk,std_error,reps,mean_cutoff"
    assert len(lines) == 3  # one oracle row, one adaptive row
    assert (tmp_path / "risks.txt").read_text().strip()


def test_simulate_deterministic_bytes(tmp_path):
    args = ["simulate", "--law", "gamma", "--n", 500, "--group-size", 5,
            "--reps", 4, "--seed", 123]
    assert run_cli(args + ["--out", tmp_path / "a"]) == 0
    assert run_cli(args + ["--out", tmp_path / "b"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_simulate_quick_flag_caps_reps(tmp_path):
    out = tmp_path / "r"
    code = run_cli(
        ["simulate", "--law", "normal", "--n", 400, "--group-size", 2,
         "--reps", 600, "--quick", "--seed", 5, "--out", out]
    )
    assert code == 0
    lines = (tmp_path / "r.csv").read_text().splitlines()
    assert lines[1].split(",")[6] == "50"


def test_simulate_config_file(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "# tiny grid\n"
        "laws = normal\n"
        "ns = 400\n"
        "group_sizes = 2,5\n"
        "reps = 2\n"
        "eta = 1.2\n"
        "seed = 77\n"
    )
    out = tmp_path / "cfg_risks"
    assert run_cli(["simulate", "--config", cfg, "--out", out]) == 0
    lines = (tmp_path / "cfg_risks.csv").read_text().splitlines()
    assert len(lines) == 5
    assert "eta=1.2" in (tmp_path / "cfg_risks.txt").read_text()


def test_simulate_config_rejects_non_finite_eta(tmp_path, capsys):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text("laws = normal\nns = 400\ngroup_sizes = 2\nreps = 2\neta = inf\n")
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert "eta must be a finite number > 1 (got inf)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("line, named", [("ns =", "ns"), ("group_sizes = ,", "group_sizes")])
def test_simulate_config_rejects_an_empty_axis(tmp_path, capsys, line, named):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(f"laws = normal\n{line}\n")
    assert run_cli(["simulate", "--config", cfg, "--reps", 1, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert f"{named} must not be empty" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("how", ["flags", "config"])
def test_simulate_rejects_a_repeated_law(tmp_path, capsys, how):
    # two laws of one name would write rows and columns no one can tell apart
    if how == "flags":
        args = ["--law", "normal", "--law", "normal"]
    else:
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("laws = normal,gumbel,normal\n")
        args = ["--config", cfg]
    assert run_cli(["simulate", *args, "--reps", 1, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert "laws must have distinct names (got 'normal' 2 times)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("how, got", [("flags", "[-1]"), ("config", "[-3]")], ids=["flags", "config"])
def test_simulate_rejects_a_negative_seed(tmp_path, capsys, how, got):
    if how == "flags":
        args = ["--seed", -1]
    else:
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed = -3\n")
        args = ["--config", cfg]
    argv = ["simulate", "--law", "normal", "--n", 400, "--group-size", 2, "--reps", 1]
    assert run_cli([*argv, *args, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert f"master_seed must hold integers >= 0 (got {got})" in err
    assert "Traceback" not in err


def test_simulate_all_failed_exit_code(tmp_path):
    code = run_cli(
        ["simulate", "--law", "normal", "--n", 2, "--group-size", 1,
         "--reps", 2, "--seed", 1, "--out", tmp_path / "f"]
    )
    assert code == 4


def test_simulate_names_five_failures_and_counts_the_rest(tmp_path, capsys):
    code = run_cli(
        ["simulate", "--law", "normal", "--n", 2, "--group-size", 1,
         "--reps", 7, "--seed", 1, "--out", tmp_path / "f"]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert err.count("warning: ") == 6
    assert err.endswith("warning: ... 2 more\n")


@pytest.mark.parametrize(
    "data, named",
    [
        (b"\xef\xbb\xbflaws = normal\nreps = ten\n", "bom.cfg:2: bad value for 'reps'"),
        (b"laws = normal\n# caf\xe9\nreps = 1\n", "bom.cfg: line 2: byte 0xe9 is not UTF-8"),
    ],
    ids=["bom", "bad-byte"],
)
def test_simulate_config_is_utf8_after_an_optional_bom(tmp_path, capsys, data, named):
    # the mark is not part of the first key; a byte that is not UTF-8 is
    # named by its line, even in a comment
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(data)
    argv = ["simulate", "--config", cfg, "--n", 400, "--group-size", 2, "--out", tmp_path / "x"]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--input", "y.csv", "--group-size", 5],
        ["simulate", "--law", "normal", "--n", 5000, "--group-size", 5, "--reps", 200],
        ["diagnose", "--law", "normal", "--n", 1000, "--group-size", 5],
    ],
    ids=["estimate", "simulate", "diagnose"],
)
@pytest.mark.parametrize("out", ["missing/r", "", "/"], ids=["missing-dir", "empty", "root"])
def test_out_is_checked_before_any_work(tmp_path, capsys, monkeypatch, argv, out):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("load_sample", "run_grid", "diagnostic_level"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.chdir(tmp_path)
    assert run_cli([*argv, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"--out must name a file in an existing directory (got '{out}')" in err
    assert "Traceback" not in err


def test_simulate_bad_config_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("laws: normal\n")
    code = run_cli(["simulate", "--config", cfg, "--out", tmp_path / "x"])
    assert code == 2
    assert "key = value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value", [("--n", 1), ("--reps", 0), ("--group-size", 0), ("--eta", 0.5)]
)
def test_simulate_bad_grid_value_is_parameter_error(tmp_path, capsys, flag, value):
    args = {"--n": 400, "--reps": 2, "--group-size": 2} | {flag: value}
    argv = ["simulate", "--law", "normal", "--out", tmp_path / "x"]
    for name, v in args.items():
        argv += [name, v]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(value) in err.split("(got", 1)[1]


@pytest.mark.parametrize(
    "line, named",
    [("reps = ten", ["bad value for 'reps'", "'ten'", ":2:"]),
     ("n = 100", ["unknown key 'n'", "'100'", ":2:"])],
)
def test_simulate_config_rejects_bad_entries(tmp_path, capsys, line, named):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"laws = normal\n{line}\n")
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    for text in named:
        assert text in err


@pytest.mark.parametrize(
    "flags, changes",
    [
        ([], {}),
        (["--quick"], {"replications": 50}),
        (["--eta", 1.5, "--seed", 3], {"eta": 1.5, "master_seed": 3}),
    ],
    ids=["no-flags", "quick", "eta-seed"],
)
def test_simulate_passes_only_the_values_set(tmp_path, monkeypatch, flags, changes):
    # what no flag sets keeps ScenarioGrid's default, the full study
    grids = []

    def record(grid):
        grids.append(grid)
        return RiskReport([], grid)

    monkeypatch.setattr(cli, "run_grid", record)
    assert run_cli(["simulate", *flags, "--out", tmp_path / "r"]) == 4
    assert grids == [replace(ScenarioGrid(), **changes)]


def test_simulate_bad_thread_count_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GROUPDECONV_THREADS", "abc")
    code = run_cli(
        ["simulate", "--law", "normal", "--n", 400, "--group-size", 2,
         "--reps", 2, "--out", tmp_path / "x"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "GROUPDECONV_THREADS" in err
    assert "'abc'" in err


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def test_diagnose_normal_matches_closed_form(tmp_path):
    out = tmp_path / "diag"
    code = run_cli(
        ["diagnose", "--law", "normal", "--n", 10000, "--group-size", 5,
         "--eps", 0.1, "--delta", 0.1, "--out", out]
    )
    assert code == 0
    payload = json.loads((tmp_path / "diag.json").read_text())
    gamma = math.sqrt(1 + 2 / 5 + 0.1)
    level = 1.1 * gamma * math.sqrt(math.log(10000) / 10000)
    expected = math.sqrt(-2.0 * math.log(level) / 5)
    assert abs(payload["u_gamma_eps"] - expected) < 1e-6
    assert payload["warning"] is None
    assert payload["defaults"] == {"eta": 1.1}  # no scan, no x-grid
    lines = (tmp_path / "diag.csv").read_text().splitlines()
    assert lines[0] == "u,abs_phi_x,abs_phi"
    u, ax, a = lines[1].split(",")
    assert float(u) == 0.0 and float(ax) == 1.0 and float(a) == 1.0


def test_diagnose_level_not_reached_is_warning(tmp_path):
    out = tmp_path / "diag2"
    code = run_cli(
        ["diagnose", "--law", "laplace", "--n", 100, "--group-size", 1,
         "--gamma", 1e-12, "--out", out]
    )
    assert code == 0
    payload = json.loads((tmp_path / "diag2.json").read_text())
    assert payload["u_gamma_eps"] is None
    assert "stays above" in payload["warning"]


def test_diagnose_validates_group_size(tmp_path, capsys):
    code = run_cli(
        ["diagnose", "--law", "normal", "--n", 100, "--group-size", 0.2,
         "--out", tmp_path / "d"]
    )
    assert code == 2
    assert "group size" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, named",
    [
        (["estimate", "--eta", "nan"], ["--eta", "'nan'"]),
        (["estimate", "--cutoff", "fixed:nan"], ["--cutoff", "'fixed:nan'"]),
        (["estimate", "--cutoff", "fixed:inf"], ["--cutoff", "'fixed:inf'"]),
        (["estimate", "--x-min", -3, "--x-max", "inf"], ["--x-max", "'inf'"]),
        (["simulate", "--eta", "inf"], ["--eta", "'inf'"]),
        (["diagnose", "--eps", "nan"], ["--eps", "'nan'"]),
        (["diagnose", "--delta", "nan"], ["--delta", "'nan'"]),
        (["diagnose", "--gamma", "nan"], ["--gamma", "'nan'"]),
        (["diagnose", "--eta", "nan"], ["--eta", "'nan'"]),
        (["diagnose", "--eps", -1], ["eps=-1", "must be > 0"]),
        (["diagnose", "--gamma", 1e308, "--eps", 1], ["eps=1", "gamma=1e+308", "level=inf", "finite"]),
        (["estimate", "--cutoff", "bogus"], ["adaptive, oracle, or fixed:<m>", "'bogus'"]),
        (["estimate", "--x-min", 0], ["--x-min and --x-max must be given together"]),
    ],
    ids=[
        "estimate-eta-nan",
        "estimate-fixed-nan",
        "estimate-fixed-inf",
        "estimate-x-max-inf",
        "simulate-eta-inf",
        "diagnose-eps-nan",
        "diagnose-delta-nan",
        "diagnose-gamma-nan",
        "diagnose-eta-nan",
        "diagnose-eps-minus-1",
        "diagnose-level-overflows",
        "estimate-cutoff-bogus",
        "estimate-x-min-alone",
    ],
)
def test_bad_float_flag_exits_2_naming_it(tmp_path, normal_sum_file, capsys, args, named):
    required = {
        "estimate": ["--input", normal_sum_file, "--group-size", 5],
        "simulate": ["--law", "normal", "--n", 400, "--group-size", 2, "--reps", 2],
        "diagnose": ["--law", "normal", "--n", 1000, "--group-size", 5],
    }
    assert exit_code(args + required[args[0]] + ["--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    for text in named:
        assert text in err


# ---------------------------------------------------------------------------
# imports: estimate, simulate and diagnose of a law with a numpy cf run on numpy
# alone, without numpy.ma, and a single-worker simulate without the
# process-pool stack
# ---------------------------------------------------------------------------

_NO_SCIPY_SCRIPT = """
import sys
from groupdeconv.cli import main
from groupdeconv.samples import Normal, generate_grouped

sums = generate_grouped(Normal(2.0, 1.0), 400, 5, seed=1).observations
with open("y.txt", "w") as fh:
    fh.write("".join(f"{v!r}\\n" for v in sums.tolist()))
codes = [
    main(["estimate", "--input", "y.txt", "--group-size", "5", "--out", "est"]),
    main(["simulate", "--law", "normal", "--law", "gumbel", "--law", "gamma",
          "--law", "laplace", "--n", "300", "--group-size", "3", "--reps", "2",
          "--seed", "3", "--out", "risks"]),
    main(["diagnose", "--law", "laplace", "--n", "1000", "--group-size", "5", "--out", "diag"]),
]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
unused = sorted(
    m for m in sys.modules
    if m.startswith("multiprocessing") or m in ("concurrent.futures.process", "numpy.ma")
)
print(codes, loaded, unused)
"""


def test_estimate_and_simulate_load_no_scipy(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "GROUPDECONV_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] [] []"
    # the exact Gumbel cf, which diagnose needs, still loads scipy on demand
    assert run_cli(
        ["diagnose", "--law", "gumbel", "--n", 1000, "--group-size", 5,
         "--out", tmp_path / "diag"]
    ) == 0


# ---------------------------------------------------------------------------
# exit-code contract: every estimate call ends in 0, 2 or 3, every diagnose
# and simulate call in 0, 2, 3 or 4, never a traceback
# ---------------------------------------------------------------------------

_RAISED = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.GroupDeconvError)]


@pytest.mark.parametrize("raised", [*_RAISED, OSError], ids=lambda c: c.__name__)
def test_exit_code_follows_the_error_class(tmp_path, capsys, monkeypatch, raised):
    # one root per code: a ParameterError (a DataFormatError among them) or
    # an OSError is exit 2, every other GroupDeconvError exit 3
    def fail(args):
        raise raised.__new__(raised, "raised by the subcommand")

    monkeypatch.setattr(cli, "cmd_diagnose", fail)
    argv = ["diagnose", "--law", "normal", "--n", 100, "--group-size", 5, "--out", tmp_path / "d"]
    expected = 2 if issubclass(raised, (errors.ParameterError, OSError)) else 3
    assert run_cli(argv) == expected
    assert capsys.readouterr().err == "error: raised by the subcommand\n"


def test_exit_code_classes_are_the_package_errors():
    assert {c.__name__ for c in _RAISED} == {
        "GroupDeconvError", "ParameterError", "DataFormatError", "DenominatorTooSmall", "LevelNotReached"
    }


def _wide(lo, hi, typical=None):
    """Finite floats in [lo, hi], half of them from ``typical`` when given."""
    wide = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    return wide if typical is None else st.one_of(_wide(*typical), wide)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_estimate_exits_0_2_or_3_without_a_traceback(tmp_path_factory, data):
    size = data.draw(st.integers(0, 60), label="n")
    scale = data.draw(st.sampled_from([10.0, 1e150, 1e300]), label="scale")
    values = data.draw(st.lists(_wide(-scale, scale), min_size=size, max_size=size))
    if values:  # repeats of the values drawn, so ties and two-value files occur
        values += data.draw(st.lists(st.sampled_from(values), max_size=20), label="repeats")
    path = tmp_path_factory.mktemp("contract") / "y.txt"
    raw = "".join(f"{v!r}\n" for v in values).encode()
    twist = data.draw(st.sampled_from([None, "bom", "bad-byte"]), label="encoding")
    if twist == "bom":
        raw = b"\xef\xbb\xbf" + raw
    elif twist == "bad-byte":  # a lone 0xe9 is never UTF-8
        at = data.draw(st.integers(0, len(raw)), label="bad byte at")
        raw = raw[:at] + b"\xe9" + raw[at:]
    path.write_bytes(raw)
    cutoff = data.draw(
        st.one_of(
            st.sampled_from(["adaptive", "oracle"]),
            _wide(5e-324, 1.7e308, (0.01, 50.0)).map(lambda m: f"fixed:{m!r}"),
        ),
        label="cutoff",
    )
    argv = ["estimate", "--input", str(path), "--cutoff", cutoff,
            "--group-size", repr(data.draw(_wide(1.0, 1e308, (1.0, 60.0)), label="K")),
            "--eta", repr(data.draw(_wide(1.0, 1e308, (1.0, 3.0)), label="eta")),
            "--out", str(path.with_name("e"))]
    law = data.draw(st.sampled_from([None, "normal", "gumbel", "gamma", "laplace"]), label="law")
    if law is not None:
        argv += ["--law", law]
    if data.draw(st.booleans(), label="x-grid given"):
        # or a count past the x-grid's budget, refused before any array is
        # made: just past it, or so far that numpy too refuses the array at
        # once, never a size a machine might grant (see _HUGE)
        x_count = st.one_of(
            st.integers(16, 4096),
            st.integers(ROOT_MODES + 1, 2 * ROOT_MODES),
            st.integers(10**13, 10**30),
        )
        argv += ["--x-min", repr(data.draw(_wide(-1e300, 1e300, (-20.0, 5.0)), label="x_min")),
                 "--x-max", repr(data.draw(_wide(-1e300, 1e300, (-5.0, 20.0)), label="x_max")),
                 "--x-count", str(data.draw(x_count, label="x_count"))]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = exit_code(argv)
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()


# Integers past a float (10**400), past ssize_t and at its end, and sizes
# whose arrays numpy refuses at once (10**13 doubles are 73 TiB; 2**62 are
# "too big").  Never a size a machine might grant: that would run, or hold
# its memory, for as long as the draw takes.
_HUGE = (10**13, 2**62, sys.maxsize, sys.maxsize + 1, 10**400)


def _integer(lo, hi, huge=_HUGE):
    """An integer flag's value: from [lo, hi], or huge of either sign."""
    return st.one_of(
        st.integers(lo, hi), st.sampled_from(huge), st.sampled_from(huge).map(lambda v: -v)
    )


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_diagnose_and_simulate_exit_0_2_3_or_4_without_a_traceback(tmp_path_factory, data):
    out = tmp_path_factory.mktemp("contract") / "out"
    law = data.draw(st.sampled_from(["normal", "gumbel", "gamma", "laplace"]), label="law")
    n = data.draw(_integer(-1, 60), label="n")
    k = data.draw(_integer(-1, 5), label="K")
    argv = ["--law", law, "--n", str(n), "--group-size", str(k), "--out", str(out)]
    if data.draw(st.booleans(), label="simulate"):
        # every replication drawn runs, so the only huge counts are those
        # past ssize_t, which the flag refuses
        reps = data.draw(_integer(-1, 2, huge=(sys.maxsize + 1, 10**400)), label="reps")
        seed = data.draw(_integer(-1, 9), label="seed")
        argv = ["simulate", *argv, "--reps", str(reps), "--seed", str(seed)]
    else:
        argv = ["diagnose", *argv]
        # a typical value, any finite one, or one whose product with
        # another overflows
        huge = st.sampled_from([1e154, 1e308, -1e308])
        for flag in ("--gamma", "--eps", "--delta"):
            value = data.draw(st.none() | _wide(-1.7e308, 1.7e308, (-2.0, 3.0)) | huge, label=flag)
            if value is not None:
                argv += [flag, repr(value)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = exit_code(argv)
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0 and argv[0] == "diagnose":  # strict JSON: no NaN or Infinity
        json.loads(out.with_suffix(".json").read_text(), parse_constant=_refuse)


def _refuse(name):
    raise ValueError(f"{name} is not JSON")


def test_a_failing_given_test_ends_its_session_normally(tmp_path):
    # under the repo's pytest config a @given test that raises must fail as
    # itself, and the tests after it still run
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None)\n@given(st.integers())\n"
        "def test_fails(x):\n    raise ValueError(x)\n\n\n"
        "def test_passes():\n    pass\n"
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "-q", "-p", "no:cacheprovider",
         str(tmp_path / "test_two.py")],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------


def test_module_invocation_help():
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "groupdeconv.cli", "--help"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "estimate" in proc.stdout
    assert "simulate" in proc.stdout
    assert "diagnose" in proc.stdout
