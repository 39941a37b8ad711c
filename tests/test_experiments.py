import ast
import concurrent.futures
import math
from dataclasses import replace
from pathlib import Path

import pytest

import groupdeconv

from groupdeconv import bandwidth, experiments, inversion
from groupdeconv.experiments import (
    ScenarioGrid,
    law_xgrid,
    resolve_workers,
    run_grid,
    run_replication,
)
from groupdeconv.bandwidth import adaptive_cutoff, cap_spread, estimate, oracle_cutoff, scan_grid
from groupdeconv.errors import GroupDeconvError, ParameterError
from groupdeconv.inversion import invert, l2_distance
from groupdeconv.rootlog import feasible_root
from groupdeconv.samples import Gamma, Laplace, Normal, benchmark_laws, generate_grouped


def tiny_grid(**kw):
    defaults = dict(
        laws=(Normal(2.0, 1.0),),
        ns=(400,),
        group_sizes=(2, 5),
        replications=3,
        eta=1.1,
        master_seed=7,
    )
    defaults.update(kw)
    return ScenarioGrid(**defaults)


# ---------------------------------------------------------------------------
# replication level
# ---------------------------------------------------------------------------


def test_replication_deterministic_given_seed():
    a = run_replication(Gamma(6.0, 3.0), 500, 5, seed=(0, 1, 2))
    b = run_replication(Gamma(6.0, 3.0), 500, 5, seed=(0, 1, 2))
    assert a == b


@pytest.mark.parametrize("k", [5, 50])
def test_the_oracle_table_memo_scores_like_a_cold_build(k):
    # two laws of one x-grid (mean 2, variance 1) whose cells share (n, K),
    # so also the scan grid: only their densities tell their tables apart
    laws, seeds = (Normal(2.0, 1.0), Gamma(4.0, 2.0)), range(3)
    assert law_xgrid(laws[0]) == law_xgrid(laws[1])
    cold = {}
    for law in laws:
        for seed in seeds:
            bandwidth._law_table.cache_clear()
            cold[law, seed] = run_replication(law, 1000, k, seed=(9, seed))
    for law in laws:  # warm: each law's replications in a row
        for seed in seeds:
            assert run_replication(law, 1000, k, seed=(9, seed)) == cold[law, seed]
    for seed in seeds:  # interleaved: each law follows the other's table
        for law in laws:
            assert run_replication(law, 1000, k, seed=(9, seed)) == cold[law, seed]


def test_a_serial_grid_builds_one_oracle_table_per_cell(monkeypatch):
    built, make = [], inversion.OracleTable

    def counted(xgrid, grid, *rest):
        built.append(grid)
        return make(xgrid, grid, *rest)

    monkeypatch.delenv(experiments.THREADS_ENV, raising=False)
    monkeypatch.setattr(inversion, "OracleTable", counted)
    bandwidth._law_table.cache_clear()
    grid = tiny_grid(replications=experiments.BLOCK_SIZE + 1)
    run_grid(grid)
    # two blocks per cell, whose replications all share the cell's table
    assert built == [scan_grid(n, k) for _law, n, k in grid.cells]


def test_replication_oracle_dominates_adaptive():
    # the adaptive cutoff is injected into the oracle grid, so the oracle
    # risk can never exceed the adaptive risk
    for seed in range(20):
        r = run_replication(Laplace(0.5, 1 / 3), 500, 5, seed=(3, seed))
        assert r.risk_oracle <= r.risk_adaptive + 1e-6


def test_replication_adaptive_risk_is_the_inversion_at_m_hat():
    law = Gamma(6.0, 3.0)
    for seed in range(3):
        r = run_replication(law, 1000, 5, seed=(5, seed))
        ecf = cap_spread(generate_grouped(law, 1000, 5, (5, seed)))
        root, _violation = feasible_root(ecf.read(scan_grid(ecf.n, ecf.group_size)))
        xg = law_xgrid(law)
        risk = l2_distance(invert(root, min(r.m_adaptive, root.u_limit), xg).values, law.pdf, xg)
        assert r.risk_adaptive == pytest.approx(risk, rel=1e-12)


def test_estimate_and_the_simulation_score_one_oracle():
    # estimate's oracle and run_replication both take oracle_cutoff's record
    # against the law on its x-grid; the simulation adds m_hat as its last
    # candidate
    n, k, seed = 2000, 5, (21, 4)
    for law in benchmark_laws().values():
        sample = generate_grouped(law, n, k, seed)
        est = estimate(sample, law_xgrid(law), "oracle", law=law)
        ecf, xgrid = cap_spread(sample), law_xgrid(law)
        record, _root, _risks = oracle_cutoff(ecf, law, xgrid)
        assert est.cutoff_rule == record.as_dict()
        assert est.cutoff_m == record.value
        record, _root, risks = oracle_cutoff(ecf, law, xgrid, extra=(adaptive_cutoff(ecf).value,))
        r = run_replication(law, n, k, seed=seed)
        assert (r.m_oracle, r.risk_oracle) == (record.value, record.params["risk"])
        assert r.risk_adaptive == risks[-1]


def test_replication_refuses_a_cutoff_below_one_grid_step():
    # sd 1e6 puts the threshold crossing near 1e-3, a tenth of the root step
    with pytest.raises(GroupDeconvError, match="is below one grid step"):
        run_replication(Normal(0.0, 1e6), 500, 5, seed=0)


def test_replication_risks_are_sane():
    r = run_replication(Normal(2.0, 1.0), 5000, 5, seed=11)
    assert 0 < r.risk_oracle < 0.3
    assert 0 < r.risk_adaptive < 0.3
    assert 0 < r.m_adaptive <= 5000 ** 0.2 + 1e-9
    assert r.threshold_hit


def test_law_xgrid_centred_on_summand():
    g = law_xgrid(Normal(2.0, 1.0))
    assert g.x_min == pytest.approx(2.0 - 8.0)
    assert g.x_max == pytest.approx(2.0 + 8.0)
    assert g.count == 1024


# ---------------------------------------------------------------------------
# grid level
# ---------------------------------------------------------------------------


def test_grid_shape_and_schema():
    report = run_grid(tiny_grid())
    assert len(report.rows) == 4  # 2 cells x 2 methods
    csv_text = report.to_csv()
    lines = csv_text.splitlines()
    assert lines[0] == "law,n,K,method,mean_risk,std_error,reps,mean_cutoff"
    assert len(lines) == 5
    assert lines[1].startswith("normal,400,2,oracle,")


def test_grid_deterministic_and_worker_independent(monkeypatch):
    g = tiny_grid()
    monkeypatch.setenv("GROUPDECONV_THREADS", "1")
    a = run_grid(g).to_csv()
    b = run_grid(g).to_csv()
    monkeypatch.setenv("GROUPDECONV_THREADS", "2")
    monkeypatch.setattr(experiments, "BLOCK_SIZE", 1)
    c = run_grid(g).to_csv()
    assert a == b
    assert a == c


def test_single_cell_single_rep():
    report = run_grid(tiny_grid(group_sizes=(2,), replications=1))
    assert len(report.rows) == 2
    for row in report.rows:
        assert row.replications == 1
        assert row.std_error == 0.0


def test_failed_cells_are_reported_not_omitted():
    # n=2 puts the adaptive threshold above 1, so every replication fails
    report = run_grid(tiny_grid(ns=(2,), group_sizes=(1,), replications=2))
    assert len(report.rows) == 2
    for row in report.rows:
        assert row.replications == 0
        assert row.failures == 2
        assert math.isnan(row.mean_risk)
    assert report.failures
    csv_text = report.to_csv()
    assert "normal,2,1,oracle,,,0," in csv_text


def test_scenario_grid_validation():
    with pytest.raises(GroupDeconvError):
        tiny_grid(replications=0)
    with pytest.raises(GroupDeconvError):
        tiny_grid(ns=(1,))
    with pytest.raises(GroupDeconvError):
        tiny_grid(group_sizes=(0,))
    for name in ("laws", "ns", "group_sizes"):
        with pytest.raises(ParameterError, match=f"{name} must not be empty"):
            tiny_grid(**{name: ()})
    for name, value in (
        ("replications", 2.5), ("ns", (1000.5,)), ("group_sizes", (2.5,)), ("master_seed", 1.5)
    ):
        with pytest.raises(ParameterError, match=f"{name} must hold integers"):
            tiny_grid(**{name: value})
    # a seed sequence takes no negative entropy
    with pytest.raises(ParameterError, match=r"master_seed must hold integers >= 0 \(got \[-1\]\)"):
        tiny_grid(master_seed=-1)
    # rows and table columns are keyed by the law's name
    with pytest.raises(ParameterError, match="distinct names \\(got 'normal' 2 times\\)"):
        tiny_grid(laws=(Normal(2.0, 1.0), Normal(0.0, 4.0)))


def test_benchmark_grid_is_full_study():
    # the benchmark grid is ScenarioGrid's defaults: 4 laws x 3 ns x 4 Ks
    g = ScenarioGrid()
    assert g.laws == tuple(benchmark_laws().values())
    assert g.ns == (1000, 5000, 10000)
    assert g.group_sizes == (5, 10, 20, 50)
    assert len(g.cells) == 48
    assert g.replications == 500
    assert g.master_seed == 20130528
    assert g.eta == 1.1


def test_text_table_alignment():
    report = run_grid(tiny_grid())
    text = report.to_text()
    assert "r_or*" in text
    assert "eta=1.1" in text
    assert "master_seed=7" in text
    # a cell where some replications failed carries their count
    report.rows[0] = replace(report.rows[0], mean_risk=0.25, failures=2)
    assert f"{'0.250(2!)':>18}" in report.to_text()


def test_resolve_workers_env(monkeypatch):
    monkeypatch.delenv("GROUPDECONV_THREADS", raising=False)
    assert resolve_workers() == 1
    monkeypatch.setenv("GROUPDECONV_THREADS", "3")
    assert resolve_workers() == 3
    monkeypatch.setenv("GROUPDECONV_THREADS", "abc")
    with pytest.raises(ParameterError, match="GROUPDECONV_THREADS.*'abc'"):
        resolve_workers()


@pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "no-affinity"])
@pytest.mark.parametrize(
    "cpus,block_size,expected",
    [(3, 1, 3), (64, 1, 6), (64, 3, 2), (64, 2, 4), (None, 1, None)],
)
def test_run_grid_clamps_workers_to_tasks_and_cpus(
    monkeypatch, cpus, block_size, expected, affinity
):
    # records the pool size asked for and runs the tasks in-process: no
    # worker process is started, however many are requested
    requested = []

    class RecordingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    # run_grid imports the pool when it starts one, so it reads this attribute then
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    if affinity:
        # the CPUs this process may use count; the host has 128
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 128)
        mask = set(range(cpus or 1))
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: mask, raising=False)
    else:
        # where the OS has no affinity mask, the host's count is the cap
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(experiments, "BLOCK_SIZE", block_size)
    monkeypatch.setenv("GROUPDECONV_THREADS", str(10**6))
    g = tiny_grid()  # 2 cells x 3 replications
    report = run_grid(g)
    assert requested == ([] if expected is None else [expected])
    monkeypatch.setenv("GROUPDECONV_THREADS", "1")
    assert report.to_csv() == run_grid(g).to_csv()


def test_mean_cutoff_decreases_with_group_size():
    # |phi| = |phi_X|^K decays faster for larger K, so the scan crosses earlier
    laws = benchmark_laws()
    report = run_grid(
        ScenarioGrid(
            laws=(laws["gumbel"],),
            ns=(1000,),
            group_sizes=(5, 20),
            replications=10,
            master_seed=3,
        )
    )
    cuts = {
        row.group_size: row.mean_cutoff
        for row in report.rows
        if row.method == "adaptive"
    }
    assert cuts[20] < cuts[5]


# ---------------------------------------------------------------------------
# package structure
# ---------------------------------------------------------------------------


def test_replication_spreads_the_sample_once(spreads):
    run_replication(Gamma(6.0, 3.0), 1000, 5, seed=4)
    assert len(spreads) == 1


def test_every_module_is_imported_by_another():
    # a module no other package module imports is dead code; cli,
    # __init__ and __main__ are the entry points, and the re-exports of
    # __init__ do not count as a use
    package = Path(groupdeconv.__file__).parent
    imported = {"cli", "__init__", "__main__"}
    for path in package.glob("*.py"):
        if path.stem == "__init__":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                if node.module:
                    imported.add(node.module.split(".")[0])
                else:  # from . import x
                    imported |= {alias.name for alias in node.names}
    orphans = [p.stem for p in sorted(package.glob("*.py")) if p.stem not in imported]
    assert orphans == []


def test_no_private_cross_module_imports():
    offenders = []
    for path in sorted(Path(groupdeconv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}: from .{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def test_every_module_level_def_is_used_or_exported():
    # a function or class that no other code in the package names and that
    # __init__ does not export is dead; a def naming itself does not count
    package = Path(groupdeconv.__file__).parent
    defs, used = {}, set()
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            names = {n.id for n in ast.walk(top) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(top) if isinstance(n, ast.Attribute)}
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{path.stem}.{top.name}"] = top.name
                names.discard(top.name)
            used |= names
    init = ast.parse((package / "__init__.py").read_text())
    exported = {
        alias.name
        for node in ast.walk(init)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    dead = [q for q, name in defs.items() if name not in used | exported]
    assert dead == []


def test_only_the_fourier_module_calls_an_fft():
    # one Fourier kernel: every transform in the package is _fourier's chirp-z
    callers = set()
    for path in Path(groupdeconv.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "fft":
                callers.add(path.stem)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                if any(name.split(".")[-1] == "fft" for name in names):
                    callers.add(path.stem)
    assert callers == {"_fourier"}


def test_only_inversion_maps_a_cutoff_to_the_grid():
    # charfn defines index_of, rootlog reads the root's own range with it,
    # and inversion._cutoff_index is the one cutoff-to-grid mapping
    package = Path(groupdeconv.__file__).parent
    callers = {p.stem for p in package.glob("*.py") if ".index_of(" in p.read_text()}
    assert callers == {"rootlog", "inversion"}


def test_only_bandwidth_reads_the_oracle_root():
    # bandwidth.oracle_cutoff reads the root, scores the candidates and picks
    # the oracle; estimate and run_replication both call it, and no other
    # caller scores candidates or takes an argmin of its own
    def callers(name):
        found = set()
        for path in Path(groupdeconv.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                func = getattr(node, "func", None)
                if name in (getattr(func, "id", None), getattr(func, "attr", None)):
                    found.add(path.stem)
        return found

    assert callers("default_oracle_grid") == callers("feasible_root") == {"bandwidth"}
    assert callers("oracle_cutoff") == {"bandwidth", "experiments"}
    assert callers("oracle_risks") == {"bandwidth"}
    # and only bandwidth knows which density and grids the oracle's table is on
    assert callers("oracle_table") == {"bandwidth"}


def _runs_on_import(node):
    """Every statement below ``node`` except those inside a function body."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _runs_on_import(child)


def _imported_names(node, roots=("scipy",)):
    """The modules under ``roots`` an import statement names; [] for any
    other node."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module]
    else:
        return []
    return [name for name in names if name.split(".")[0] in roots]


@pytest.mark.parametrize(
    "roots",
    [
        # scipy (≈0.5 s to import) is loaded inside the few functions that need it
        ("scipy",),
        # the process pool's stack only a run_grid with several workers loads
        ("concurrent", "multiprocessing"),
    ],
    ids=["scipy", "process-pool"],
)
def test_no_module_level_import(roots):
    # estimate and a single-worker simulate load neither on import
    offenders = []
    for path in sorted(Path(groupdeconv.__file__).parent.glob("*.py")):
        for node in _runs_on_import(ast.parse(path.read_text())):
            offenders += [f"{path.name}:{node.lineno}: {name}" for name in _imported_names(node, roots)]
    assert offenders == []


def _scipy_importers(node, scope):
    """The qualified name of the class or function around each scipy import."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}"
        if _imported_names(child):
            yield inner
        yield from _scipy_importers(child, inner)


def test_scipy_is_imported_only_by_the_exact_gumbel_cf():
    # the complex gamma and digamma of Gumbel's cf are the only scipy use
    importers = []
    for path in sorted(Path(groupdeconv.__file__).parent.glob("*.py")):
        importers += _scipy_importers(ast.parse(path.read_text()), path.stem)
    assert importers == ["samples.Gumbel.cf", "samples.Gumbel.cf_prime"]
