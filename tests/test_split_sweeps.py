"""A fit from LANCZOS_MIN_N nodes up with M >= 2 groups shares its sweeps
with forked helper processes: the same bits as the fit in one process, each
group on its own process, no process or BLAS pin left behind, no helper for
a fit that stops early, and none inside a fan-out worker."""

import csv
import multiprocessing
import os

import numpy as np
import pytest

from alma import linalg, solver
from alma.cli import main
from alma.errors import DegenerateIterateError, RankDeficientError
from alma.initialization import spectral_init
from alma.linalg import LANCZOS_MIN_N
from alma.sampling import substream
from alma.solver import alma_fit
from conftest import SharedLog, blas_thread_count, make_noisy, one_cpu, scipy_blas_thread_count

pytestmark = pytest.mark.skipif(
    linalg.pin_blas_threads is None or len(os.sched_getaffinity(0)) < 2,
    reason="a fit splits its sweeps only with two usable CPUs and numpy's BLAS pin")


@pytest.fixture
def helpers(monkeypatch):
    """The pid of every sweep helper forked while the test runs, by any process."""
    pids = SharedLog()
    real = solver._helper

    def spy(*args):
        pids.append(os.getpid())
        return real(*args)

    monkeypatch.setattr(solver, "_helper", spy)
    return pids


@pytest.fixture
def split_early(monkeypatch):
    """A fit with its stop tests on splits from its second sweep."""
    monkeypatch.setattr(solver, "SPLIT_MIN_SWEEPS", 1)


def fit_input(m, seed=60):
    # n=250, the crossover; at eps_stop 1e-2 the step rule ends every M's
    # fit after sweep 1, so the returned pair is the previous sweep's
    _, _, a = make_noisy(seed, n=LANCZOS_MIN_N, L=4 * m, m=m, k=2, p_max=0.5, alpha=0.6)
    return a, spectral_init(a, m, substream(seed, 2))


def assert_same_fit(one, other):
    assert np.array_equal(one.w, other.w)
    for p, q in zip(one.q, other.q, strict=True):
        assert np.array_equal(p.values, q.values)
        assert np.array_equal(p.vectors, q.vectors)
    assert repr(one.objective) == repr(other.objective)
    assert one.objective_trace == other.objective_trace
    assert (one.iters_used, repr(one.final_step), one.stop_reason, one.converged) == (
        other.iters_used, repr(other.final_step), other.stop_reason, other.converged)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("eps_stop", [0.0, 1e-2])
def test_split_fit_gives_the_bits_of_the_fit_held_to_one_cpu(split_early, helpers, m, eps_stop):
    a, w1 = fit_input(m)
    ranks = (2,) * m

    def fit():
        return alma_fit(a, ranks, w1, eps_stop=eps_stop, max_iter=8)

    with one_cpu():
        alone = fit()
    assert len(helpers) == 0
    split = fit()
    assert len(helpers) == min(m, len(os.sched_getaffinity(0))) - 1
    if eps_stop > 0.0:
        # the step rule fired at sweep 2, the first split one, and returned
        # the previous pair
        assert alone.final_step <= eps_stop and alone.iters_used > 1
        assert alone.objective == alone.objective_trace[-3]
    else:
        assert alone.iters_used == 8
    assert_same_fit(alone, split)


def test_each_process_projects_its_own_groups(monkeypatch):
    # group j in process j mod P in every sweep, with the certificate it
    # keeps; the ranks differ, so each names its group
    a, w1 = fit_input(3)
    ranks = (2, 3, 4)
    projected = SharedLog(width=2)  # (process, rank) of every projection
    real = solver._project_slice

    def spy(sums_j, k, *args):
        projected.append((os.getpid(), k))
        return real(sums_j, k, *args)

    monkeypatch.setattr(solver, "_project_slice", spy)
    alma_fit(a, ranks, w1, eps_stop=0.0, max_iter=3)
    procs = min(3, len(os.sched_getaffinity(0)))
    owner = {k: {pid for pid, rank in projected if rank == k} for k in ranks}
    assert sorted(k for _, k in projected) == sorted(ranks * 3)
    assert all(len(pids) == 1 for pids in owner.values())
    assert len(set.union(*owner.values())) == procs
    for j, k in enumerate(ranks):
        assert (owner[k] == {os.getpid()}) == (j % procs == 0)
        assert owner[k] == owner[ranks[j % procs]]


def test_a_fit_that_stops_before_its_split_forks_and_pins_nothing(monkeypatch, helpers):
    # the stop rule ends this fit within SPLIT_MIN_SWEEPS sweeps, so it
    # runs in this process alone, as a fit held to one CPU does
    pins = []
    real_pin = linalg._openblas_threads_local

    def pin_spy(count):
        pins.append(count)
        return real_pin(count)

    monkeypatch.setattr(linalg, "_openblas_threads_local", pin_spy)
    a, w1 = fit_input(3)
    fit = alma_fit(a, (2, 2, 2), w1, eps_stop=1e-2)
    assert 1 < fit.iters_used <= solver.SPLIT_MIN_SWEEPS
    assert len(helpers) == 0 and pins == []


def fail_in_a_helper(monkeypatch):
    """Make every projection in a process other than this one raise."""
    caller, real = os.getpid(), solver.rank_project

    def project(*args, **kwargs):
        if os.getpid() != caller:
            raise ValueError("projection failed in a helper")
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "rank_project", project)


def fail_at_the_w_step(error):
    def fail(monkeypatch):
        def polar(g):
            raise error
        monkeypatch.setattr(solver, "polar_project", polar)
    return fail


@pytest.mark.parametrize("fault, raised", [
    (None, None),
    (fail_at_the_w_step(RankDeficientError(0.0, 1.0)), DegenerateIterateError),
    (fail_in_a_helper, ValueError),
    (fail_at_the_w_step(KeyboardInterrupt()), KeyboardInterrupt),
], ids=["normal", "estimation-error", "helper-error", "interrupt"])
def test_a_split_fit_leaves_no_process_and_the_thread_count_as_found(
        monkeypatch, helpers, fault, raised):
    a, w1 = fit_input(3)
    if fault is not None:
        fault(monkeypatch)
    found = blas_thread_count()
    if raised is None:
        alma_fit(a, (2, 2, 2), w1, eps_stop=0.0, max_iter=3)
    else:
        with pytest.raises(raised):
            alma_fit(a, (2, 2, 2), w1, eps_stop=0.0, max_iter=3)
    assert len(helpers) >= 1
    assert multiprocessing.active_children() == []
    assert blas_thread_count() == found


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_no_process_of_a_split_fit_starts_a_blas_thread_pool(monkeypatch, helpers):
    # a fork shuts OpenBLAS's pools down and setting a count starts one
    # again, whose threads busy-wait on the CPUs the fit needs; so the
    # counts are set once before the fork, and put back after
    a, w1 = fit_input(3)
    threads = SharedLog(width=2)  # (process, its threads) at every projection
    real = solver._Share.project

    def project(self, *args):
        threads.append((os.getpid(), len(os.listdir("/proc/self/task"))))
        return real(self, *args)

    monkeypatch.setattr(solver._Share, "project", project)
    found = (blas_thread_count(), scipy_blas_thread_count())
    before = len(os.listdir("/proc/self/task"))
    alma_fit(a, (2, 2, 2), w1, eps_stop=0.0, max_iter=4)
    mine = {count for pid, count in threads if pid == os.getpid()}
    theirs = {count for pid, count in threads if pid != os.getpid()}
    assert len(mine) == 1 and mine.pop() <= before
    assert theirs == {1}
    assert (blas_thread_count(), scipy_blas_thread_count()) == found
    assert not linalg._held_on_one_thread


def fit_objective(m):
    a, w1 = fit_input(m)
    return alma_fit(a, (2,) * m, w1, eps_stop=0.0, max_iter=3).objective


def test_a_fit_in_a_daemonic_worker_runs_in_that_process():
    # multiprocessing lets no daemonic process fork, so a pool worker's fit
    # keeps its sweeps to itself
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply(fit_objective, (3,)) == fit_objective(3)


def masked_runs(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("seconds")
    return [row[:col] + row[col + 1:] for row in rows]


def test_fan_out_workers_fork_no_helper_and_write_the_same_rows(
        split_early, tmp_path, capsys, helpers):
    # scenario 2's two grid points are cells at n=30 and n=300: at
    # --threads 1 the n=300 alma fit, made to split from its second sweep,
    # shares its sweeps with a helper; at --threads 2 each cell runs in a
    # fan-out worker, which forks no helper
    def scenario(threads):
        out = tmp_path / f"threads{threads}"
        main(["scenario", "--scenario", "2", "--grid-points", "2", "--replicates", "1",
              "--threads", str(threads), "--out", str(out)])
        capsys.readouterr()
        return masked_runs(out / "runs.csv")

    one = scenario(1)
    assert len(helpers) >= 1
    helpers.clear()
    two = scenario(2)
    assert len(helpers) == 0
    assert one == two
    assert multiprocessing.active_children() == []
