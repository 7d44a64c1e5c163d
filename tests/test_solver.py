import numpy as np
import pytest

from alma.errors import DegenerateIterateError, NonFiniteObjectiveError
from alma.linalg import sym_eig_topk
from alma.metrics import score_result
from alma.clustering import cluster_factor_pair
from alma.sampling import substream
from alma.solver import AlmaConfig, FactorPair, alma_fit, objective, q_update, w_update
from alma.tensors import Tensor3, mode1_product
from conftest import make_noisy, make_truth


def test_config_validation():
    with pytest.raises(ValueError):
        AlmaConfig(eps_stop=-1.0)
    with pytest.raises(ValueError):
        AlmaConfig(max_iter=0)
    with pytest.raises(ValueError):
        AlmaConfig(rank_tol=0.0)


def test_objective_zero_on_exact_factorization():
    _, gt = make_truth(40, n=12, L=8, m=2, k=2)
    q = gt.q_star
    w = gt.w_star
    assert objective(mode1_product(q, w), q, w) <= 1e-12


def test_q_update_fixed_point_on_exact_rank_core():
    # full-diagonal group slices are exactly rank k, so the projection
    # reproduces them
    inst, gt = make_truth(41, n=16, L=10, m=2, k=3, p_max=0.8, alpha=0.4)
    a = mode1_product(gt.q_star_full, gt.w_star)
    q = q_update(a, gt.w_star, inst.K)
    assert np.allclose(q.array, gt.q_star_full.array, atol=1e-8)


def test_q_update_single_group_formula():
    # with one group and indicator weights the slice is the scaled mean
    # adjacency truncated to its top-k eigencomponents
    _, _, a = make_noisy(42, n=14, L=6, m=1, k=2)
    w = np.full((6, 1), 1.0 / np.sqrt(6.0))
    q = q_update(a, w, (2,))
    summed = a.array.sum(axis=0) / np.sqrt(6.0)
    pairs = sym_eig_topk(summed, 2, by_magnitude=True)
    manual = pairs.vectors @ np.diag(pairs.values) @ pairs.vectors.T
    assert np.allclose(q.slice(0), manual, atol=1e-10)


def test_q_update_checks_orthonormality():
    _, _, a = make_noisy(43, n=10, L=5, m=1, k=2)
    with pytest.raises(ValueError):
        q_update(a, np.ones((5, 1)), (2,))
    w = np.full((5, 1), 1.0 / np.sqrt(5.0))
    with pytest.raises(ValueError):
        q_update(a, w, (2, 2))


def test_w_update_recovers_truth():
    inst, gt = make_truth(44, n=16, L=12, m=2, k=3, p_max=0.8, alpha=0.4)
    a = mode1_product(gt.q_star, gt.w_star)
    w = w_update(a, gt.q_star)
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
    a = mode1_product(gt.q_star, gt.w_star)
    w0 = np.linalg.qr(np.random.default_rng(46).normal(size=(16, 3)))[0]
    fit = alma_fit(a, inst.K, w0, AlmaConfig(max_iter=60))
    res = cluster_factor_pair(a, fit.w, inst.K, substream(46, 9))
    report = score_result(inst, res)
    assert report.r_bl == 0.0
    assert report.r_wl == 0.0


def test_alma_fit_trace_and_metadata():
    _, _, a = make_noisy(47, n=14, L=8, m=2, k=2)
    w0 = np.linalg.qr(np.random.default_rng(47).normal(size=(8, 2)))[0]
    fit = alma_fit(a, (2, 2), w0, AlmaConfig(max_iter=1, record_trace=True))
    assert isinstance(fit, FactorPair)
    assert fit.iters_used == 1
    assert len(fit.objective_trace) == 2  # one sweep records both half-steps
    assert not fit.converged
    long = alma_fit(
        a, (2, 2), w0, AlmaConfig(max_iter=50, eps_stop=1e-2, record_trace=True)
    )
    trace = np.array(long.objective_trace)
    assert np.all(np.diff(trace) <= 1e-9 * trace[0])
    assert long.converged
    assert len(trace) == 2 * long.iters_used


def test_alma_fit_keeps_w_orthonormal():
    _, _, a = make_noisy(48, n=14, L=10, m=2, k=2)
    w0 = np.linalg.qr(np.random.default_rng(48).normal(size=(10, 2)))[0]
    fit = alma_fit(a, (2, 2), w0, AlmaConfig(max_iter=20))
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
    # an enormous slice outside the initial column span overflows the recorded
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
    with pytest.raises(NonFiniteObjectiveError), \
            pytest.warns(RuntimeWarning, match="overflow"):
        alma_fit(a, (2, 2), w0, AlmaConfig(record_trace=True))
