import csv
import math
import multiprocessing
import os
import re
import threading
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from alma.errors import DegenerateIterateError, EmptyClusterError, EstimationError
from alma import harness, linalg
from alma.harness import (
    CSV_COLUMNS,
    RunRecord,
    ScenarioConfig,
    aggregate,
    elbow_scan,
    emit_results,
    fit_method,
    run_scenario,
    run_single,
    scenario_config,
    write_runs_csv,
)
from alma.initialization import spectral_init
from alma.sampling import substream
from alma.solver import alma_fit
from alma.tensors import Tensor3, mode1_product
from alma.linalg import rank_project
from conftest import (
    SharedLog,
    at_one_and_two_blas_threads,
    blas_thread_count,
    make_noisy,
    make_truth,
    needs_blas_pin,
    one_cpu,
    scipy_blas_thread_count,
)


def tiny_cfg(**overrides):
    base = dict(
        n=16, L=10, replicates=1, master_seed=0, kmeans_restarts=5, max_iter=40
    )
    base.update(overrides)
    return scenario_config(1, grid_points=2, **base)


def test_stock_scenarios_match_published_setups():
    one = scenario_config(1)
    assert (one.n, one.L, one.M, one.K) == (100, 40, 3, 3)
    assert one.sweep_param == "p_max"
    assert one.grid[0] == pytest.approx(0.3)
    assert one.grid[-1] == pytest.approx(1.0)
    assert len(one.grid) == 8
    two = scenario_config(2)
    assert two.sweep_param == "n"
    assert two.grid[0] == 30.0 and two.grid[-1] == 300.0
    three = scenario_config(3)
    assert (three.n, three.L, three.p_max, three.alpha) == (40, 40, 0.5, 0.8)
    assert three.sweep_param == "L"
    four = scenario_config(4)
    assert (four.n, four.L, four.p_max, four.alpha) == (100, 50, 0.5, 0.9)
    assert four.grid[0] == 50.0 and four.grid[-1] == 100.0


def test_integer_sweeps_round_to_whole_values():
    cfg = scenario_config(3, grid_points=5)
    assert all(float(v).is_integer() for v in cfg.grid)


def test_scenario_config_rejects_bad_input():
    with pytest.raises(ValueError):
        scenario_config(9)
    with pytest.raises(ValueError):
        scenario_config(1, grid_points=0)
    with pytest.raises(ValueError):
        scenario_config(1, methods=("alma", "mystery"))
    with pytest.raises(ValueError):
        scenario_config(1, replicates=0)
    with pytest.raises(TypeError):
        scenario_config(1, nope=3)


@pytest.mark.parametrize("methods", [(), ("alma", "alma")], ids=["empty", "repeated"])
def test_scenario_config_rejects_an_empty_or_repeated_method_list(methods):
    with pytest.raises(ValueError, match="need distinct methods from alma, twist"):
        scenario_config(1, methods=methods)


def test_scenario_config_checks_every_grid_point():
    # scenario 2 sweeps n from 30 up, so K and twist_r are checked at n=30
    with pytest.raises(ValueError, match="at n=30: need K <= n"):
        scenario_config(2, K=31)
    with pytest.raises(ValueError, match="at n=30: twist needs M <= twist_r <= n"):
        scenario_config(2, twist_r=31)
    scenario_config(2, twist_r=31, methods=("alma",))  # twist_r only binds twist
    with pytest.raises(ValueError, match="alpha=1.5 must lie in"):
        scenario_config(1, alpha=1.5)


def test_run_single_is_deterministic():
    cfg = tiny_cfg()
    a = run_single(cfg, 0, 0)
    b = run_single(cfg, 0, 0)
    assert len(a) == len(b) == 2
    for x, y in zip(a, b):
        assert (x.method, x.r_bl, x.r_wl, x.iters, x.seed) == (
            y.method, y.r_bl, y.r_wl, y.iters, y.seed
        )


def test_run_single_honors_method_filter():
    cfg = tiny_cfg(methods=("alma",))
    recs = run_single(cfg, 1, 0)
    assert [r.method for r in recs] == ["alma"]


def test_twist_recovers_layers_at_the_dense_endpoint():
    # scenario 1 at p=1.0, where alma is exact (acceptance 02): twist started
    # from the HOSVD node factor recovers the layers too. Started from the
    # layer sum's eigenvectors it sat at chance here, mean R_BL 0.564.
    cfg = scenario_config(1, replicates=20, master_seed=0, methods=("twist",))
    assert cfg.grid[7] == pytest.approx(1.0)
    r_bl = [run_single(cfg, 7, rep)[0].r_bl for rep in range(cfg.replicates)]
    assert np.mean(r_bl) <= 0.02


def test_run_scenario_thread_count_is_invisible():
    k1 = run_scenario(tiny_cfg(replicates=2))
    k2 = run_scenario(tiny_cfg(replicates=2, threads=2))
    assert len(k1) == len(k2)
    for x, y in zip(k1, k2):
        assert (x.sweep_value, x.replicate, x.method, x.r_bl, x.r_wl, x.seed) == (
            y.sweep_value, y.replicate, y.method, y.r_bl, y.r_wl, y.seed
        )


def test_run_scenario_sorted_by_cell():
    recs = run_scenario(tiny_cfg(replicates=2))
    keys = [(r.sweep_value, r.replicate, r.method) for r in recs]
    assert keys == sorted(keys)


def _rec(value, method, bl, wl, rep=0):
    return RunRecord(
        scenario=1, sweep_param="p_max", sweep_value=value, replicate=rep,
        method=method, r_bl=bl, r_wl=wl, iters=3, converged=True,
        seconds=0.1, seed=7, stop_reason="converged",
    )


def test_aggregate_means_and_failures():
    recs = [
        _rec(0.5, "alma", 0.0, 0.0, rep=0),
        _rec(0.5, "alma", 0.1, 0.2, rep=1),
        _rec(0.5, "twist", float("nan"), float("nan"), rep=0),
        _rec(0.5, "twist", 0.3, 0.4, rep=1),
    ]
    rows = aggregate(recs)
    assert len(rows) == 2
    alma_row = next(r for r in rows if r["method"] == "alma")
    assert alma_row["mean_R_BL"] == pytest.approx(0.05)
    assert alma_row["mean_R_WL"] == pytest.approx(0.1)
    assert alma_row["n_failed"] == 0
    twist_row = next(r for r in rows if r["method"] == "twist")
    assert twist_row["n_failed"] == 1
    assert twist_row["mean_R_BL"] == pytest.approx(0.3)
    assert twist_row["std_R_BL"] == 0.0


def test_runs_csv_format(tmp_path):
    path = tmp_path / "runs.csv"
    write_runs_csv([_rec(0.5, "alma", 0.125, float("nan"))], path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "1"
    assert cells[2] == "0.5"
    assert cells[5] == "0.125"
    assert cells[6] == "nan"
    assert cells[8] == "true"
    assert CSV_COLUMNS[-2:] == ("seed", "stop_reason")  # appended after seed
    assert cells[10:] == ["7", "converged"]


def test_emit_results_csv_and_svg(tmp_path):
    recs = run_scenario(tiny_cfg())
    paths = emit_results(recs, tmp_path / "out", formats=("csv", "svg"))
    runs = (tmp_path / "out" / "runs.csv").read_text().splitlines()
    assert len(runs) == 1 + len(recs)
    with open(paths["summary"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["method"] for r in rows} == {"alma", "twist"}
    tree = ET.parse(paths["curves"])
    svg = tree.getroot()
    assert svg.tag.endswith("svg")
    polylines = [el for el in svg.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 4  # two methods x two panels


def test_emit_results_rejects_unknown_format(tmp_path):
    for formats in (("parquet",), ("csv", "parquet")):
        with pytest.raises(ValueError):
            emit_results([], tmp_path / "x", formats=formats)
    assert not (tmp_path / "x").exists()


def test_elbow_single_group_closed_form():
    # all layers share one group, so the best m=1 objective has an explicit
    # residual formula
    inst, gt = make_truth(80, n=18, L=9, m=1, k=2, p_max=0.8, alpha=0.4)
    a = gt.p_star
    rows = elbow_scan(a, [1], 2, master_seed=3)
    core = a.array.sum(axis=0) / math.sqrt(9.0)
    kept = rank_project((core + core.T) / 2.0, 2).values
    expect = math.sqrt(
        np.linalg.norm(a.array) ** 2 - np.linalg.norm(kept) ** 2
    )
    assert rows[0].m == 1
    assert rows[0].objective == pytest.approx(expect, rel=1e-10)


def test_elbow_drops_into_true_group_count():
    # even a perfect fit keeps the rank-truncation residual of the hollow
    # slices, so the signal is the drop pattern, not a zero objective
    inst, gt = make_truth(81, n=20, L=14, m=2, k=2, p_max=0.9, alpha=0.3)
    rows = elbow_scan(gt.p_star, [1, 2, 3], 2, master_seed=1)
    objs = [r.objective for r in rows]
    assert objs[1] < objs[0] - 1.0
    if math.isfinite(objs[2]):
        assert objs[1] - objs[2] < objs[0] - objs[1]


def test_elbow_marks_degenerate_candidates_nan(monkeypatch, pools):
    # in two worker processes, where a pin exists
    usable_cpus(monkeypatch, 2)
    _, gt = make_truth(82, n=20, L=14, m=2, k=2, p_max=0.9, alpha=0.3)
    rows = elbow_scan(gt.p_star, [2, 4], 2, master_seed=1)
    if linalg.pin_blas_threads is not None:
        assert submitted_candidates(pools) == [4, 2]
    assert np.isfinite(rows[0].objective)
    assert math.isnan(rows[1].objective)
    assert rows[1].m == 4
    assert not rows[1].converged
    assert rows[0].stop_reason == ("converged" if rows[0].converged else "budget")
    assert rows[1].stop_reason == "degenerate"


def test_elbow_accepts_rank_rules():
    _, gt = make_truth(83, n=16, L=10, m=2, k=2, p_max=0.9, alpha=0.3)
    with pytest.raises(ValueError):
        elbow_scan(gt.p_star, [0], 2)


def test_run_scenario_aborts_when_most_runs_fail(monkeypatch):
    import alma.harness as hz

    cfg = tiny_cfg(replicates=3, methods=("alma",))

    def all_failures(cfg_, gi, rep):
        return [
            RunRecord(
                scenario=cfg_.scenario, sweep_param=cfg_.sweep_param,
                sweep_value=float(cfg_.grid[gi]), replicate=rep, method="alma",
                r_bl=float("nan"), r_wl=float("nan"), iters=0, converged=False,
                seconds=0.0, seed=0, stop_reason="degenerate",
            )
        ]

    monkeypatch.setattr(hz, "run_single", all_failures)
    with pytest.raises(EstimationError):
        hz.run_scenario(cfg)


def test_run_scenario_forks_one_worker_per_cell_up_to_threads(pools):
    cfg = tiny_cfg(methods=("alma",), threads=4)
    records = run_scenario(cfg)
    assert [(pool.forked, pool.calls) for pool in pools] == [(2, [(0, 0), (1, 0)])]
    assert [(r.sweep_value, r.replicate) for r in records] == [(v, 0) for v in cfg.grid]


def test_run_scenario_runs_a_single_cell_in_process(monkeypatch, no_pool):
    cells = []

    def spy(cfg, grid_idx, replicate):
        cells.append((threading.current_thread(), grid_idx, replicate))
        return run_single(cfg, grid_idx, replicate)

    monkeypatch.setattr(harness, "run_single", spy)
    cfg = scenario_config(1, grid_points=1, n=16, L=10, replicates=1, kmeans_restarts=5,
                          max_iter=40, methods=("alma",), threads=4)
    assert len(run_scenario(cfg)) == 1
    assert cells == [(threading.main_thread(), 0, 0)]


def test_sweep_error_cancels_the_cells_not_yet_handed_to_a_worker(monkeypatch, tmp_path):
    # 12 cells on 2 workers: cell 1 fails at once while cell 0 is still busy,
    # and the error comes back before the later cells leave this process
    started = tmp_path / "started"

    def fail_second(cfg, grid_idx, replicate):
        cell = grid_idx * cfg.replicates + replicate
        with open(started, "a", encoding="utf-8") as fh:
            fh.write(f"{cell}\n")
        if cell == 1:
            raise RuntimeError("cell failed")
        time.sleep(1.0 if cell == 0 else 0.05)
        return []

    monkeypatch.setattr(harness, "run_single", fail_second)
    cfg = scenario_config(1, grid_points=4, n=16, L=10, replicates=3, threads=2)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="cell failed"):
        run_scenario(cfg)
    assert threading.active_count() == before
    assert multiprocessing.active_children() == []
    ran = {int(cell) for cell in started.read_text(encoding="utf-8").split()}
    assert {0, 1} <= ran and not ran & {9, 10, 11}


def test_rows_say_why_each_fit_stopped(monkeypatch):
    import alma.harness as hz

    recs = run_scenario(tiny_cfg(max_iter=2))
    reasons = {(r.method, r.stop_reason) for r in recs}
    assert reasons == {("alma", "budget"), ("twist", "budget")}
    for exc, reason in ((DegenerateIterateError(3), "degenerate"),
                        (EmptyClusterError("no layer in group 1"), "EmptyClusterError")):
        def failing_fit(*args, exc=exc, **kwargs):
            raise exc

        monkeypatch.setattr(hz, "fit_method", failing_fit)
        rec = hz.run_single(tiny_cfg(methods=("alma",)), 0, 0)[0]
        assert (rec.failed, rec.converged, rec.stop_reason) == (True, False, reason)
    # a row's converged flag and stop reason are the fit record's
    real_fit = fit_method

    def converged_fit(*args, **kwargs):
        return replace(real_fit(*args, **kwargs), iters=5, stop_reason="converged")

    monkeypatch.setattr(hz, "fit_method", converged_fit)
    rec = hz.run_single(tiny_cfg(methods=("twist",)), 0, 0)[0]
    assert (rec.failed, rec.iters, rec.converged, rec.stop_reason) == (False, 5, True, "converged")


# The elbow scan fits its candidates largest first, in forked worker
# processes, one per usable CPU, or one after another on the calling thread.


def elbow_input(seed=84, n=30):
    return make_noisy(seed, n=n, L=12, m=2, k=2, p_max=0.7, alpha=0.5)[2]


def elbow_table(rows):
    return [(r.m, repr(r.objective), r.iters, r.converged, r.stop_reason) for r in rows]


def scan(a, grid=(1, 2, 3, 4)):
    return elbow_scan(a, grid, 2, master_seed=5, eps_stop=0.0, max_iter=15)


def usable_cpus(monkeypatch, count):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: count)


@pytest.fixture
def fitting_threads(monkeypatch):
    """(thread, m) of every candidate fit run in this process, in the order the fits ran."""
    seen = []

    def spy(a, ranks, w_init, **kwargs):
        seen.append((threading.current_thread(), len(ranks)))
        return alma_fit(a, ranks, w_init, **kwargs)

    monkeypatch.setattr(harness, "alma_fit", spy)
    return seen


class RecordedEnd:
    """A fan-out worker's pipe end that lists every call sent through it."""

    def __init__(self, conn, calls):
        self._conn, self._calls = conn, calls

    def send(self, call):
        self._calls.append(call)
        self._conn.send(call)

    def __getattr__(self, name):
        return getattr(self._conn, name)


@pytest.fixture
def pools(monkeypatch):
    """Every set of fan-out workers the harness forks, in order. Each counts
    the workers forked in ``forked`` and lists the calls handed out to them
    in ``calls``, in the order they went out."""
    seen = []
    real = harness._forked

    @contextmanager
    def spy(target, child_args):
        with real(target, child_args) as conns:
            pool = SimpleNamespace(forked=len(conns), calls=[])
            seen.append(pool)
            yield [RecordedEnd(conn, pool.calls) for conn in conns]

    monkeypatch.setattr(harness, "_forked", spy)
    return seen


def submitted_candidates(pools) -> list:
    """The m of every elbow candidate handed to a worker, in that order."""
    return [call[0] for pool in pools for call in pool.calls]


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if the harness forks a worker."""
    def refuse(*args, **kwargs):
        raise AssertionError("a fan-out worker was forked")

    monkeypatch.setattr(harness, "_forked", refuse)


@needs_blas_pin
@pytest.mark.parametrize("n", [30, 450])
def test_elbow_rows_do_not_depend_on_the_blas_thread_count(n):
    # held to one CPU, so that the fits run in this process, neither in
    # workers nor split over helpers, on the thread count set here; at n=450
    # every candidate fit's warm Q-steps are on the Lanczos path
    a = elbow_input(n=n)
    with one_cpu():
        one, two = at_one_and_two_blas_threads(lambda: elbow_table(scan(a)))
    assert [row[0] for row in one] == [1, 2, 3, 4]
    assert two == one


@needs_blas_pin
@pytest.mark.parametrize("n", [30, 450])
def test_elbow_rows_are_the_same_at_one_and_two_workers(monkeypatch, pools, n):
    a = elbow_input(n=n)
    usable_cpus(monkeypatch, 1)
    serial = elbow_table(scan(a))
    assert pools == []
    usable_cpus(monkeypatch, 2)
    assert elbow_table(scan(a)) == serial
    assert sorted(submitted_candidates(pools)) == [1, 2, 3, 4]


@needs_blas_pin
def test_elbow_submits_the_largest_candidate_first(monkeypatch, pools, fitting_threads):
    usable_cpus(monkeypatch, 2)
    rows = scan(elbow_input(), grid=(2, 1, 4, 3))
    assert submitted_candidates(pools) == [4, 3, 2, 1]
    assert [r.m for r in rows] == [2, 1, 4, 3]
    assert fitting_threads == []  # every fit ran in a worker


@pytest.mark.parametrize("cpus, grid", [(1, (2, 1, 4, 3)), (2, (3,)), (1, (2, 1, 2))],
                         ids=["one-cpu", "one-candidate", "one-cpu-repeated-m"])
def test_elbow_with_one_cpu_or_one_candidate_runs_serially(monkeypatch, no_pool,
                                                           fitting_threads, cpus, grid):
    usable_cpus(monkeypatch, cpus)
    rows = scan(elbow_input(), grid=grid)
    # each distinct m once, largest first
    assert fitting_threads == [(threading.main_thread(), m)
                               for m in sorted(set(grid), reverse=True)]
    assert [r.m for r in rows] == list(grid)


def test_elbow_without_the_pin_runs_serially(monkeypatch, fitting_threads):
    monkeypatch.setattr(linalg, "pin_blas_threads", None)
    rows = scan(elbow_input(), grid=(2, 1, 4, 3))
    assert fitting_threads == [(threading.main_thread(), m) for m in (4, 3, 2, 1)]
    assert [r.m for r in rows] == [2, 1, 4, 3]


def test_elbow_checks_every_candidate_before_fitting(monkeypatch, fitting_threads):
    with pytest.raises(ValueError, match="candidate m=13 out of range for L=12"):
        scan(elbow_input(), grid=(1, 2, 13))
    assert fitting_threads == []


@pytest.mark.parametrize("change, message", [
    pytest.param(dict(k=31), "every rank must lie in [1, n]", id="k-above-n"),
    pytest.param(dict(k=0), "every rank must lie in [1, n]", id="k-zero"),
    pytest.param(dict(max_iter=0), "max_iter must be >= 1", id="max-iter-zero"),
    pytest.param(dict(eps_stop=-1.0), "eps_stop must be nonnegative", id="eps-negative"),
])
def test_elbow_checks_the_fit_arguments_before_any_fit(monkeypatch, no_pool, change, message):
    inits = []

    def spy(*args, **kwargs):
        inits.append(args[1])
        return spectral_init(*args, **kwargs)

    monkeypatch.setattr(harness, "spectral_init", spy)
    usable_cpus(monkeypatch, 2)
    kwargs = {**dict(k=2, eps_stop=0.0, max_iter=15), **change}
    k = kwargs.pop("k")
    with pytest.raises(ValueError, match=re.escape(message)):
        elbow_scan(elbow_input(), [1, 2], k, master_seed=5, **kwargs)
    assert inits == []


def test_elbow_rows_name_the_error_that_ended_a_fit(monkeypatch):
    def fail_at_3(a, ranks, w_init, **kwargs):
        if len(ranks) == 3:
            raise EmptyClusterError("no layer in group 2")
        return alma_fit(a, ranks, w_init, **kwargs)

    monkeypatch.setattr(harness, "alma_fit", fail_at_3)
    rows = scan(elbow_input())
    assert [r.stop_reason for r in rows] == ["budget", "budget", "EmptyClusterError", "budget"]
    assert math.isnan(rows[2].objective) and (rows[2].iters, rows[2].converged) == (0, False)


def test_elbow_worker_error_propagates_and_restores_the_count(monkeypatch, tmp_path):
    # a worker's error cancels the candidates not yet started, and the scan
    # leaves no thread or process behind and the caller's BLAS thread count
    # as it found it
    started = tmp_path / "started"

    def fail_at_8(a, ranks, w_init, **kwargs):
        with open(started, "a", encoding="utf-8") as fh:
            fh.write(f"{len(ranks)}\n")
        if len(ranks) == 8:
            raise RuntimeError("fit failed")
        # the scan reads the error while both workers are still busy
        time.sleep(0.3)
        return alma_fit(a, ranks, w_init, **kwargs)

    monkeypatch.setattr(harness, "alma_fit", fail_at_8)
    usable_cpus(monkeypatch, 2)
    a = elbow_input()
    before = threading.active_count()
    pin = linalg.pin_blas_threads
    found = pin(2) if pin is not None else None
    with pytest.raises(RuntimeError, match="fit failed"):
        scan(a, grid=range(1, 9))
    if pin is not None:
        assert pin(found) == 2
    assert threading.active_count() == before
    assert multiprocessing.active_children() == []
    ran = {int(m) for m in started.read_text(encoding="utf-8").split()}
    if pin is not None:
        # m=8 was submitted first; the last submitted were cancelled unstarted
        assert 8 in ran and not ran & {1, 2}


def fit_or_fail(fault):
    """alma_fit, except that candidate m=4 raises or ends its process, or
    every candidate first sleeps, as ``fault`` says."""
    def fit(a, ranks, w_init, **kwargs):
        if fault == "error" and len(ranks) == 4:
            raise RuntimeError("fit failed")
        if fault == "dies" and len(ranks) == 4:
            os._exit(3)
        if fault == "interrupt":
            time.sleep(1.0)
        return alma_fit(a, ranks, w_init, **kwargs)
    return fit


def interrupt_the_caller(monkeypatch):
    """The caller is interrupted as it first waits for a worker's reply,
    with every worker at work on a call."""
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "wait", interrupted)


@needs_blas_pin
@pytest.mark.parametrize("fault, raised", [
    (None, None),
    ("error", "fit failed"),
    ("dies", "a forked worker process ended unexpectedly"),
    ("interrupt", KeyboardInterrupt),
], ids=["normal", "worker-error", "worker-dies", "interrupt"])
def test_an_elbow_scan_leaves_no_process_thread_or_count_behind(monkeypatch, fault, raised):
    monkeypatch.setattr(harness, "alma_fit", fit_or_fail(fault))
    if fault == "interrupt":
        interrupt_the_caller(monkeypatch)
    usable_cpus(monkeypatch, 2)
    a = elbow_input()
    before = threading.active_count()
    found = linalg.pin_blas_threads(2)
    try:
        if raised is None:
            assert [r.stop_reason for r in scan(a)] == ["budget"] * 4
        elif raised is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                scan(a)
        else:
            with pytest.raises(RuntimeError, match=raised):
                scan(a)
        assert blas_thread_count() == 2
    finally:
        linalg.pin_blas_threads(found)
    assert multiprocessing.active_children() == []
    assert threading.active_count() == before


def masked_sweep(cfg):
    return [repr(replace(r, seconds=0.0)) for r in run_scenario(cfg)]


def in_a_pool_worker(fn, arg):
    with multiprocessing.get_context("fork").Pool(1) as pool:
        return pool.apply(fn, (arg,))


def in_a_fan_out_worker(fn, arg):
    # two calls on two workers, so that each runs in a forked worker
    return harness._fan_out(fn, arg, [(), ()], 2)[0]


@pytest.mark.parametrize("run_in", [in_a_pool_worker, in_a_fan_out_worker],
                         ids=["pool-worker", "fan-out-worker"])
def test_a_sweep_in_a_daemonic_process_runs_its_cells_there(run_in):
    # multiprocessing lets no daemonic process fork, so a sweep there runs
    # its cells in that process at any thread count
    cfg = tiny_cfg(threads=2)
    assert run_in(masked_sweep, cfg) == masked_sweep(replace(cfg, threads=1))


@needs_blas_pin
@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
@pytest.mark.parametrize("job", ["elbow", "sweep"])
def test_no_fan_out_worker_starts_a_blas_thread_pool(monkeypatch, job):
    # a fork shuts OpenBLAS's pools down and setting a count starts one
    # again, whose threads busy-wait on the CPUs the other workers need; so
    # the workers inherit their counts, set before the fork, and set none
    threads = SharedLog(width=2)  # (process, its threads) before and after every call

    def log():
        threads.append((os.getpid(), len(os.listdir("/proc/self/task"))))

    def logged(fn):
        def call(*args, **kwargs):
            log()
            out = fn(*args, **kwargs)
            log()
            return out
        return call

    if job == "elbow":
        monkeypatch.setattr(harness, "alma_fit", logged(alma_fit))
        usable_cpus(monkeypatch, 2)
        run = lambda: scan(elbow_input())
    else:
        monkeypatch.setattr(harness, "run_single", logged(run_single))
        run = lambda: run_scenario(tiny_cfg(threads=2))
    found = (blas_thread_count(), scipy_blas_thread_count())
    run()
    workers = {pid for pid, _ in threads}
    assert len(workers) == 2 and os.getpid() not in workers
    assert {count for _, count in threads} == {1}
    assert (blas_thread_count(), scipy_blas_thread_count()) == found
