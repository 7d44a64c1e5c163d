import threading

import numpy as np
import pytest

from alma import linalg, solver
from alma.errors import DegenerateIterateError, NonFiniteObjectiveError
from alma.initialization import spectral_init
from alma.linalg import (
    LANCZOS_MIN_N,
    Certificate,
    polar_project,
    rank_project,
    sym_eig_topk,
)
from alma.metrics import score_result
from alma.model import assemble_ground_truth
from alma.clustering import cluster_factor_pair
from alma.sampling import sample_instance, substream
from alma.solver import (
    OBJECTIVE_RTOL,
    FactorPair,
    alma_fit,
    objective,
    q_update,
    w_update,
)
from alma.tensors import Tensor3, mode1_matricize, mode1_product
from conftest import (
    at_one_and_two_blas_threads,
    hollow_core,
    make_noisy,
    make_truth,
    needs_blas_pin,
    traced_peak,
)


def core_pairs(core: Tensor3, ranks) -> tuple:
    """The eigenpairs of each slice of a dense core, truncated to its rank."""
    return tuple(rank_project(core.slice(m), k) for m, k in enumerate(ranks))


def dense_core(q) -> Tensor3:
    """The M x n x n core whose slices the eigenpairs of ``q`` spell out."""
    return Tensor3(np.stack([linalg._from_pairs(pairs) for pairs in q]))


def test_config_validation():
    _, _, a = make_noisy(49, n=10, L=6, m=2, k=2)
    w0 = np.linalg.qr(np.random.default_rng(49).normal(size=(6, 2)))[0]
    with pytest.raises(ValueError):
        alma_fit(a, (2, 2), w0, eps_stop=-1.0)
    with pytest.raises(ValueError):
        alma_fit(a, (2, 2), w0, max_iter=0)


def test_objective_zero_on_exact_factorization():
    _, gt = make_truth(40, n=12, L=8, m=2, k=2)
    q = core_pairs(gt.q_star_full, (2, 2))
    w = gt.w_star
    assert objective(mode1_product(dense_core(q), w), q, w) <= 1e-12


def test_objective_matches_the_full_tensor_residual():
    # reference: the norm of the whole L x n x n residual, built at once
    _, _, a = make_noisy(54, n=20, L=9, m=2, k=2)
    w = np.linalg.qr(np.random.default_rng(54).normal(size=(9, 2)))[0]
    q = q_update(a, w, (2, 2))
    ref = np.linalg.norm(a.array - mode1_product(dense_core(q), w).array)
    assert abs(objective(a, q, w) - ref) <= 1e-12 * ref
    with pytest.raises(ValueError):
        objective(a, q, w[:, :1])


def test_q_update_fixed_point_on_exact_rank_core():
    # full-diagonal group slices are exactly rank k, so the projection
    # reproduces them
    inst, gt = make_truth(41, n=16, L=10, m=2, k=3, p_max=0.8, alpha=0.4)
    a = mode1_product(gt.q_star_full, gt.w_star)
    q = q_update(a, gt.w_star, inst.K)
    assert all(isinstance(pairs, linalg.EigPairs) for pairs in q)
    assert np.allclose(dense_core(q).array, gt.q_star_full.array, atol=1e-8)


def test_q_update_single_group_formula():
    # with one group and indicator weights the slice is the scaled mean
    # adjacency truncated to its top-k eigencomponents
    _, _, a = make_noisy(42, n=14, L=6, m=1, k=2)
    w = np.full((6, 1), 1.0 / np.sqrt(6.0))
    q = q_update(a, w, (2,))
    summed = a.array.sum(axis=0) / np.sqrt(6.0)
    pairs = sym_eig_topk(summed, 2, by_magnitude=True)
    manual = pairs.vectors @ np.diag(pairs.values) @ pairs.vectors.T
    assert np.allclose(linalg._from_pairs(q[0]), manual, atol=1e-10)
    assert np.allclose(q[0].values, pairs.values, rtol=1e-12)


def test_q_update_checks_orthonormality():
    _, _, a = make_noisy(43, n=10, L=5, m=1, k=2)
    with pytest.raises(ValueError):
        q_update(a, np.ones((5, 1)), (2,))
    w = np.full((5, 1), 1.0 / np.sqrt(5.0))
    with pytest.raises(ValueError):
        q_update(a, w, (2, 2))


def test_w_update_recovers_truth():
    inst, gt = make_truth(44, n=16, L=12, m=2, k=3, p_max=0.8, alpha=0.4)
    core = hollow_core(gt)
    a = mode1_product(core, gt.w_star)
    # hollow slices are not low rank: hand over every eigenpair
    w = w_update(a, core_pairs(core, (16, 16)))
    assert np.allclose(w.T @ w, np.eye(2), atol=1e-12)
    assert np.allclose(w, gt.w_star, atol=1e-8)


def test_half_steps_never_increase_objective():
    _, _, a = make_noisy(45, n=18, L=10, m=2, k=2)
    w = np.linalg.qr(np.random.default_rng(45).normal(size=(10, 2)))[0]
    obj = objective(a, q_update(a, w, (2, 2)), w)
    for _ in range(6):
        q = q_update(a, w, (2, 2))
        after_q = objective(a, q, w)
        assert after_q <= obj + 1e-9 * max(1.0, obj)
        w = w_update(a, q)
        after_w = objective(a, q, w)
        assert after_w <= after_q + 1e-9 * max(1.0, after_q)
        obj = after_w


def test_alma_fit_noiseless_exact():
    inst, gt = make_truth(46, n=24, L=16, m=3, k=2, p_max=0.8, alpha=0.4)
    a = mode1_product(hollow_core(gt), gt.w_star)
    w0 = np.linalg.qr(np.random.default_rng(46).normal(size=(16, 3)))[0]
    fit = alma_fit(a, inst.K, w0, max_iter=60)
    res = cluster_factor_pair(a, fit.w, inst.K, substream(46, 9))
    report = score_result(inst, res)
    assert report.r_bl == 0.0
    assert report.r_wl == 0.0


def test_alma_fit_trace_and_metadata():
    _, _, a = make_noisy(47, n=14, L=8, m=2, k=2)
    w0 = np.linalg.qr(np.random.default_rng(47).normal(size=(8, 2)))[0]
    fit = alma_fit(a, (2, 2), w0, max_iter=1)
    assert isinstance(fit, FactorPair)
    assert fit.iters_used == 1
    assert len(fit.objective_trace) == 2  # one sweep records both half-steps
    assert not fit.converged
    assert fit.stop_reason == "budget"
    assert fit.final_step == np.linalg.norm(fit.w - w0)
    long = alma_fit(a, (2, 2), w0, max_iter=50, eps_stop=1e-2)
    trace = np.array(long.objective_trace)
    assert np.all(np.diff(trace) <= 1e-9 * trace[0])
    assert long.converged
    assert long.stop_reason == "converged"
    assert len(trace) == 2 * long.iters_used


def test_alma_fit_keeps_w_orthonormal():
    _, _, a = make_noisy(48, n=14, L=10, m=2, k=2)
    w0 = np.linalg.qr(np.random.default_rng(48).normal(size=(10, 2)))[0]
    fit = alma_fit(a, (2, 2), w0, max_iter=20)
    assert np.linalg.norm(fit.w.T @ fit.w - np.eye(2)) <= 1e-10


def test_alma_fit_validates_input():
    _, _, a = make_noisy(49, n=10, L=6, m=2, k=2)
    good = np.linalg.qr(np.random.default_rng(49).normal(size=(6, 2)))[0]
    with pytest.raises(ValueError):
        alma_fit(a, (2, 2), np.ones((6, 2)))
    with pytest.raises(ValueError):
        alma_fit(a, (2,), good)
    with pytest.raises(ValueError):
        alma_fit(a, (0, 2), good)


def test_alma_fit_degenerate_rank_raises():
    # all-equal slices make the second core slice vanish, so the Procrustes
    # step sees a rank-deficient correlation
    sl = np.ones((6, 6)) - np.eye(6)
    a = Tensor3(np.stack([sl] * 4))
    w0 = np.linalg.qr(np.random.default_rng(50).normal(size=(4, 2)))[0]
    with pytest.raises(DegenerateIterateError):
        alma_fit(a, (2, 2), w0)


def test_alma_fit_nonfinite_objective_raises():
    # an enormous slice outside the initial column span overflows the
    # objective while both factors stay finite
    rng = np.random.default_rng(51)
    huge = 1e154 * (np.ones((6, 6)) - np.eye(6))
    rest = []
    for _ in range(3):
        sl = np.triu((rng.random((6, 6)) < 0.5).astype(float), k=1)
        rest.append(1e147 * (sl + sl.T))
    a = Tensor3(np.stack([huge] + rest))
    seed = rng.normal(size=(4, 2))
    seed[0] = 0.0
    w0 = np.linalg.qr(seed)[0]
    with pytest.raises(NonFiniteObjectiveError):
        alma_fit(a, (2, 2), w0)
    # with both stop tests off, the trace meets the same overflow
    with pytest.raises(NonFiniteObjectiveError):
        alma_fit(a, (2, 2), w0, eps_stop=0.0)


def test_alma_fit_on_the_lanczos_path(eigsh_calls):
    # n=300 is above LANCZOS_MIN_N, so every Q-step after the first is warm
    _, _, a = make_noisy(52, n=300, L=8, m=2, k=2, p_max=0.5, alpha=0.5)
    w0 = np.linalg.qr(np.random.default_rng(52).normal(size=(8, 2)))[0]
    fit = alma_fit(a, (2, 2), w0, eps_stop=0.0, max_iter=8)
    assert eigsh_calls == [2] * (2 * 7)
    trace = np.array(fit.objective_trace)
    assert np.all(np.diff(trace) <= 1e-9 * trace[:-1])
    assert np.linalg.norm(fit.w.T @ fit.w - np.eye(2)) <= 1e-10


@needs_blas_pin
def test_one_group_product_and_fit_do_not_depend_on_the_blas_thread_count():
    # numpy's product of a 1 x L factor with A moved its last bits between
    # one and two threads at this size
    _, _, a = make_noisy(84, n=450, L=12, m=2, k=2)
    w0 = spectral_init(a, 1, substream(84, 2))

    def run():
        fit = alma_fit(a, (2,), w0, eps_stop=0.0, max_iter=15)
        return mode1_product(a, w0.T).array, fit.w

    (sums1, w1), (sums2, w2) = at_one_and_two_blas_threads(run)
    assert np.array_equal(sums1, sums2)
    assert np.array_equal(w1, w2)


@needs_blas_pin
def test_lanczos_path_fit_does_not_depend_on_the_blas_thread_count(eigsh_calls):
    _, _, a = make_noisy(52, n=300, L=8, m=2, k=2, p_max=0.5, alpha=0.5)
    w0 = np.linalg.qr(np.random.default_rng(52).normal(size=(8, 2)))[0]
    one, two = at_one_and_two_blas_threads(
        lambda: alma_fit(a, (2, 2), w0, eps_stop=0.0, max_iter=10))
    assert eigsh_calls == [2] * (2 * 2 * 9)
    assert np.array_equal(one.w, two.w)
    for p, q in zip(one.q, two.q):
        assert np.array_equal(p.values, q.values)
        assert np.array_equal(p.vectors, q.vectors)


def test_warm_q_steps_run_no_dense_fallback_and_mostly_no_factorization(
        monkeypatch, eigsh_calls, cholesky_calls):
    # at alpha 0.8 the carried proof runs out on some warm slices, so the spy
    # must see factorizations (26 of the 54 an uncarried fit would run)
    _, _, a = make_noisy(55, n=300, L=12, m=3, k=3, p_max=0.5, alpha=0.8)
    w1 = spectral_init(a, 3, substream(55, 2))
    sweep = [0]
    dense_sweeps = []

    def count_sweeps(*args, **kwargs):
        sweep[0] += 1
        return q_update(*args, **kwargs)

    def spy(module, name, log):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            log.append(sweep[0])
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    monkeypatch.setattr(solver, "q_update", count_sweeps)
    spy(linalg, "_kept_pairs", dense_sweeps)
    fit = alma_fit(a, (3, 3, 3), w1, eps_stop=0.0, max_iter=10)
    assert fit.iters_used == sweep[0] == 10
    assert dense_sweeps == [1, 1, 1]
    warm_slices = 3 * 9
    assert eigsh_calls == [3] * warm_slices
    # without the carried certificate every warm slice takes two
    assert 0 < len(cholesky_calls) < 2 * warm_slices


def test_carried_drift_bounds_how_far_each_slice_moved():
    ranks = (2, 3)
    _, _, a = make_noisy(56, n=LANCZOS_MIN_N, L=6, m=2, k=2, p_max=0.5, alpha=0.5)
    rng = np.random.default_rng(56)
    w0 = np.linalg.qr(rng.normal(size=(6, 2)))[0]
    w1 = polar_project(w0 + 0.05 * rng.normal(size=(6, 2)))
    drift = solver._SliceDrift(a)
    certs = (Certificate(), Certificate())
    q_update(a, w0, ranks, start=solver._CarriedStart(certs, drift))
    assert all(np.array_equal(cert.ref, w0[:, j]) for j, cert in enumerate(certs))
    q_update(a, w1, ranks, start=solver._CarriedStart(certs, drift))
    s0, s1 = mode1_product(a, w0.T), mode1_product(a, w1.T)
    for j, cert in enumerate(certs):
        moved = np.linalg.norm(s1.slice(j) - s0.slice(j))
        assert moved <= cert.drift <= moved * (1.0 + 1e-9) + 1e-9


def test_q_update_rejects_mismatched_start():
    _, _, a = make_noisy(53, n=10, L=5, m=1, k=2)
    w = np.full((5, 1), 1.0 / np.sqrt(5.0))
    drift = solver._SliceDrift(a)
    # a Lanczos start carried from 20 nodes
    cert = Certificate()
    cert.v0 = np.ones(20) / np.sqrt(20.0)
    with pytest.raises(ValueError):
        q_update(a, w, (2,), start=solver._CarriedStart((cert,), drift))
    with pytest.raises(ValueError):
        q_update(a, w, (2,), start=solver._CarriedStart(
            (Certificate(), Certificate()), drift))


@pytest.mark.parametrize("n, ranks", [
    pytest.param(40, (2, 3), id="dense"),
    pytest.param(LANCZOS_MIN_N + 50, (2, 3), id="lanczos"),
    pytest.param(6, (2, 6), id="identity-slice"),
])
def test_step_rule_returns_the_previous_sweeps_q_bit_for_bit(eigsh_calls, n, ranks):
    # the fit keeps the previous sweep's eigenpairs, and a step-rule stop
    # returns them as they are
    _, _, a = make_noisy(58, n=n, L=8, m=2, k=2, p_max=0.6, alpha=0.5)
    w0 = np.linalg.qr(np.random.default_rng(58).normal(size=(8, 2)))[0]
    steps = [alma_fit(a, ranks, w0, eps_stop=0.0, max_iter=t).final_step
             for t in (1, 2, 3)]
    assert min(steps[:2]) > steps[2]
    fit = alma_fit(a, ranks, w0, eps_stop=steps[2])
    before = alma_fit(a, ranks, w0, eps_stop=0.0, max_iter=2)
    assert (fit.iters_used, fit.stop_reason) == (3, "converged")
    for got, want, k in zip(fit.q, before.q, ranks):
        assert got.vectors.shape == (n, k)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.vectors, want.vectors)
    assert np.array_equal(fit.w, before.w)
    # so is the objective: the previous sweep's, not the stop sweep's
    assert objective(a, fit.q, fit.w) == fit.objective == before.objective
    assert fit.objective == fit.objective_trace[-3]
    # the Q returned from the Lanczos path is one a warm Q-step found
    assert bool(eigsh_calls) == (n >= LANCZOS_MIN_N)


def test_zero_tolerance_runs_the_budget_when_w_repeats_exactly(monkeypatch):
    # noiseless single-group fits can reach a W that repeats bit for bit
    # within a few sweeps; that is still no stop at eps_stop = 0
    ws, repeated = [], []

    def spy(g):
        ws.append(polar_project(g))
        return ws[-1]

    monkeypatch.setattr(solver, "polar_project", spy)
    for seed in range(3):
        inst = sample_instance(60, 12, 2, 2, 0.6, 0.5, substream(seed, 0))
        a = assemble_ground_truth(inst).p_star
        w1 = spectral_init(a, 1, substream(seed, 2))
        ws.clear()
        fit = alma_fit(a, (2,), w1, eps_stop=0.0, max_iter=50)
        repeated.append(any(np.array_equal(u, v) for u, v in zip(ws, ws[1:])))
        assert (fit.iters_used, fit.converged, fit.stop_reason) == (50, False, "budget")
    assert any(repeated)


def test_dense_path_sweeps_never_densify_q(monkeypatch):
    # below LANCZOS_MIN_N nothing in a sweep builds an n x n Q slice: the
    # W-step, the objective and the step rule all read the eigenpairs, and
    # so does objective() after the fit
    calls = []
    real = linalg._from_pairs

    def spy(pairs):
        calls.append(len(pairs.values))
        return real(pairs)

    monkeypatch.setattr(linalg, "_from_pairs", spy)
    monkeypatch.setattr(solver, "_from_pairs", spy)
    a, w1 = scenario_one_fit_inputs()
    assert a.dims[1] < LANCZOS_MIN_N
    fit = alma_fit(a, (3, 3, 3), w1)
    assert fit.stop_reason == "converged" and fit.iters_used > 2
    assert [pairs.vectors.shape for pairs in fit.q] == [(100, 3)] * 3
    assert calls == []
    objective(a, fit.q, fit.w)
    assert calls == []


def test_rank_n_slices_hold_the_full_eigendecomposition():
    _, _, a = make_noisy(59, n=6, L=8, m=2, k=2, p_max=0.6, alpha=0.5)
    w = np.linalg.qr(np.random.default_rng(59).normal(size=(8, 2)))[0]
    q = q_update(a, w, (2, 6))
    full = mode1_product(a, w.T).slice(1)
    assert q[1].vectors.shape == (6, 6)
    assert np.allclose(linalg._from_pairs(q[1]), full, atol=1e-12)
    assert np.array_equal(q[1].values, sym_eig_topk(full, 6).values)


def test_a_fit_holds_one_q_stack_at_a_time():
    # Gate on the traced peak of a 5-sweep fit, in units of one n x n slice:
    # the M x n x n mode-1 product each Q-step projects, two n x n buffers
    # of the dense kernel or the certificate, and no more. This fit peaked at
    # 5.15 units; one that kept four kernel buffers at 7.07, and one that
    # also held the previous sweep's Q and a second output stack at 10.05.
    n, m = 300, 3
    _, _, a = make_noisy(57, n=n, L=12, m=m, k=3, p_max=0.5, alpha=0.5)
    w1 = spectral_init(a, m, substream(57, 2))
    ranks = (3,) * m
    alma_fit(a, ranks, w1, eps_stop=0.0, max_iter=2)  # first-call caches
    peak = traced_peak(lambda: alma_fit(a, ranks, w1, eps_stop=0.0, max_iter=5))
    assert peak <= (m + 2.5) * n * n * 8


def test_fit_projects_every_slice_on_the_calling_thread(monkeypatch):
    # n=450: every warm slice is on the Lanczos path, and the fit pins no BLAS
    pins, threads = [], []
    real_pin = linalg._openblas_threads_local
    if real_pin is not None:
        def pin_spy(count):
            pins.append(count)
            return real_pin(count)
        monkeypatch.setattr(linalg, "_openblas_threads_local", pin_spy)

    def project_spy(*args, **kwargs):
        threads.append(threading.current_thread())
        return rank_project(*args, **kwargs)

    monkeypatch.setattr(solver, "rank_project", project_spy)
    _, _, a = make_noisy(54, n=450, L=6, m=3, k=2, p_max=0.5, alpha=0.5)
    w0 = np.linalg.qr(np.random.default_rng(54).normal(size=(6, 3)))[0]
    fit = alma_fit(a, (2, 3, 2), w0, eps_stop=0.0, max_iter=3)
    assert fit.iters_used == 3
    assert threads == [threading.current_thread()] * 9
    assert pins == []


# The objective stop rule.


def scenario_one_fit_inputs(seed=61):
    """A noisy stock-scenario-1 draw at p_max 0.6 and its spectral start."""
    _, _, a = make_noisy(seed, n=100, L=40, m=3, k=3, p_max=0.6, alpha=0.9)
    return a, spectral_init(a, 3, substream(seed, 2))


def test_fit_stops_once_the_objective_stops_falling():
    a, w1 = scenario_one_fit_inputs()
    fit = alma_fit(a, (3, 3, 3), w1)
    assert fit.iters_used < 100
    assert fit.converged and fit.stop_reason == "converged"
    assert fit.final_step > 1e-4  # the step rule did not fire
    after_w = np.array(fit.objective_trace[1::2])
    fall = (after_w[:-1] - after_w[1:]) / after_w[:-1]
    assert fall[-1] <= OBJECTIVE_RTOL
    assert np.all(fall[:-1] > OBJECTIVE_RTOL)
    # the pair returned is the stop sweep's own, not the one before it
    assert objective(a, fit.q, fit.w) == fit.objective == fit.objective_trace[-1]


def test_zero_tolerance_runs_the_budget_and_never_takes_the_residual(monkeypatch):
    # at eps_stop = 0 the trace is still kept, all of it from the expansion
    calls = []
    real = solver._residual_objective

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "_residual_objective", spy)
    a, w1 = scenario_one_fit_inputs()
    fit = alma_fit(a, (3, 3, 3), w1, eps_stop=0.0, max_iter=30)
    assert (fit.iters_used, fit.converged, fit.stop_reason) == (30, False, "budget")
    assert len(fit.objective_trace) == 60
    assert calls == []
    assert objective(a, fit.q, fit.w) == fit.objective == fit.objective_trace[-1]


@pytest.mark.parametrize("n", [100, 450])
def test_objective_from_the_w_step_matches_the_residual(monkeypatch, n):
    # no fallback to the residual, so the expansion itself is checked
    monkeypatch.setattr(solver, "_CANCELLATION_FRAC", 0.0)
    _, _, a = make_noisy(62, n=n, L=8, m=2, k=2, p_max=0.5, alpha=0.5)
    w = np.linalg.qr(np.random.default_rng(62).normal(size=(8, 2)))[0]
    a_sq = solver._squared_norm(a)
    start = solver._CarriedStart((Certificate(), Certificate()), solver._SliceDrift(a))
    for _ in range(3):
        q = q_update(a, w, (2, 2), start=start)
        g = solver._slice_correlations(a, q)
        w = polar_project(g)
        ref = solver._residual_objective(a, q, w)
        assert abs(solver._expanded_objective(a, a_sq, q, w, g) - ref) <= 1e-12 * ref


def test_objective_near_zero_is_taken_from_the_residual():
    # an exactly low-rank tensor at its own factors: the expansion would
    # cancel down to rounding noise
    inst, gt = make_truth(63, n=24, L=12, m=2, k=2, p_max=0.8, alpha=0.4)
    a = mode1_product(gt.q_star_full, gt.w_star)
    q = q_update(a, gt.w_star, inst.K)
    g = solver._slice_correlations(a, q)
    w = polar_project(g)
    amat = mode1_matricize(a).reshape(-1)
    got = solver._expanded_objective(a, solver._squared_norm(a), q, w, g)
    assert got == solver._residual_objective(a, q, w) == objective(a, q, w)
    assert got <= 1e-10 * np.linalg.norm(amat)


def test_a_step_rule_stop_at_sweep_one_reports_that_sweeps_objective():
    # W moves by at most 2 sqrt(M) < 4, so the first sweep stops and its own
    # pair comes back
    a, w1 = scenario_one_fit_inputs()
    fit = alma_fit(a, (3, 3, 3), w1, eps_stop=4.0)
    assert (fit.iters_used, fit.stop_reason) == (1, "converged")
    assert objective(a, fit.q, fit.w) == fit.objective == fit.objective_trace[-1]


def test_objective_rejects_a_layer_factor_that_is_not_orthonormal():
    _, _, a = make_noisy(64, n=20, L=9, m=2, k=2)
    w = np.linalg.qr(np.random.default_rng(64).normal(size=(9, 2)))[0]
    q = q_update(a, w, (2, 2))
    with pytest.raises(ValueError, match="orthonormal"):
        objective(a, q, 2.0 * w)


@needs_blas_pin
def test_fit_objective_does_not_depend_on_the_blas_thread_count():
    # p_star is not 0/1, so ||A||^2 is no exact integer, and at 1.8e6 entries
    # numpy's threaded dot moved its last bits between one and two threads
    inst = sample_instance(300, 20, 3, 3, 0.6, 0.8, substream(65, 0))
    a = assemble_ground_truth(inst).p_star
    w1 = spectral_init(a, 3, substream(65, 2))
    one, two = at_one_and_two_blas_threads(
        lambda: alma_fit(a, inst.K, w1, eps_stop=0.0, max_iter=3))
    assert one.objective == two.objective
    assert one.objective_trace == two.objective_trace
