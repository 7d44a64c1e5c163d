import numpy as np
import pytest

from alma.harness import fit_method
from alma.initialization import spectral_init
from alma.linalg import sym_eig_topk
from alma.metrics import score_result
from alma.sampling import substream
from alma.tensors import Tensor3
from alma.twist import regularize_rows, twist_fit
from conftest import make_noisy, make_truth


def default_inits(a, m, r, rng):
    # the warm starts fit_method uses: layer-sum eigenvectors for U, spectral init for W
    u0 = sym_eig_topk(a.array.sum(axis=0), r, by_magnitude=True).vectors
    return u0, spectral_init(a, m, rng)


def fit_twist(a, ranks, r, iter_max, seed):
    w0 = spectral_init(a, len(ranks), substream(seed, 2))
    res, _, _, _ = fit_method(
        a, "twist", ranks, w0, (seed,), eps_stop=1e-4, max_iter=100,
        restarts=20, twist_r=r, twist_iter_max=iter_max,
    )
    return res


def test_config_validation():
    # M and r are the init factors' column counts: 1 <= M <= r <= n, M <= L
    _, _, a = make_noisy(65, n=6, L=3, m=2, k=2)
    u, w = np.eye(6), np.eye(3)
    with pytest.raises(ValueError, match="M <= r"):
        twist_fit(a, u[:, :1], w[:, :2])
    with pytest.raises(ValueError, match="1 <= M"):
        twist_fit(a, u[:, :3], w[:, :0])
    with pytest.raises(ValueError, match="r <= n"):
        twist_fit(a, np.eye(6, 7), w[:, :2])
    with pytest.raises(ValueError, match="M <= L"):
        twist_fit(a, u[:, :5], np.eye(3, 4))
    with pytest.raises(ValueError, match="iter_max"):
        twist_fit(a, u[:, :3], w[:, :2], iter_max=-1)
    twist_fit(a, u[:, :3], w[:, :2], iter_max=0)  # fine


def test_regularize_rows_orthonormal_output(rng):
    v = rng.normal(size=(12, 3))
    out = regularize_rows(v, 10.0, 3)
    assert np.allclose(out.T @ out, np.eye(3), atol=1e-10)


def test_regularize_rows_idempotent_when_loose(rng):
    v = np.linalg.qr(rng.normal(size=(10, 3)))[0]
    out = regularize_rows(v, 5.0, 3)
    # loose delta leaves an orthonormal matrix's span alone (the basis itself
    # may rotate, so compare projectors)
    assert np.allclose(out @ out.T, v @ v.T, atol=1e-10)
    again = regularize_rows(out, 5.0, 3)
    assert np.allclose(again @ again.T, out @ out.T, atol=1e-10)


def test_regularize_rows_clips_heavy_rows(rng):
    v = np.linalg.qr(rng.normal(size=(8, 2)))[0]
    v[0] *= 50.0
    out = regularize_rows(v, 1.0, 2)
    assert np.allclose(out.T @ out, np.eye(2), atol=1e-10)
    # the spiked row no longer dominates its column
    assert np.abs(out[0]).max() < 0.9


def test_regularize_rows_validation(rng):
    with pytest.raises(ValueError):
        regularize_rows(rng.normal(size=(4, 2)), -1.0, 2)
    with pytest.raises(ValueError):
        regularize_rows(rng.normal(size=4), 1.0, 2)


def test_twist_fit_shapes_and_orthonormality():
    _, _, a = make_noisy(61, n=18, L=10, m=2, k=2)
    u0, w0 = default_inits(a, 2, 5, substream(61, 2))
    u, w = twist_fit(a, u0, w0, iter_max=10)
    assert u.shape == (18, 5)
    assert w.shape == (10, 2)
    assert np.allclose(u.T @ u, np.eye(5), atol=1e-10)
    assert np.allclose(w.T @ w, np.eye(2), atol=1e-10)


def test_twist_fit_zero_sweeps_returns_regularized_inits():
    _, _, a = make_noisy(62, n=12, L=8, m=2, k=2)
    u0, w0 = default_inits(a, 2, 4, substream(62, 2))
    u, w = twist_fit(a, u0, w0, iter_max=0)
    d1 = 2.0 * np.linalg.norm(u0, axis=1).mean()
    d2 = 2.0 * np.linalg.norm(w0, axis=1).mean()
    assert np.allclose(u, regularize_rows(u0, d1, 4))
    assert np.allclose(w, regularize_rows(w0, d2, 2))


def test_twist_fit_validates_shapes():
    _, _, a = make_noisy(63, n=10, L=6, m=2, k=2)
    u0, w0 = default_inits(a, 2, 4, substream(63, 2))
    with pytest.raises(ValueError, match="u_init"):
        twist_fit(a, u0[:5], w0, iter_max=2)
    with pytest.raises(ValueError, match="w_init"):
        twist_fit(a, u0, w0[:5], iter_max=2)
    with pytest.raises(ValueError, match="u_init"):
        twist_fit(a, u0[:, 0], w0, iter_max=2)


def test_twist_fit_rejects_non_symmetric_slices():
    _, _, a = make_noisy(63, n=10, L=6, m=2, k=2)
    u0, w0 = default_inits(a, 2, 4, substream(63, 2))
    arr = a.array.copy()
    arr[2, 0, 1] += 1e-12  # within the 1e-8 relative rule
    twist_fit(Tensor3(arr), u0, w0, iter_max=1)
    arr[2, 0, 1] = 1.0 - a.array[2, 0, 1]  # one edge in one direction only
    with pytest.raises(ValueError, match="not symmetric"):
        twist_fit(Tensor3(arr), u0, w0, iter_max=1)


def test_twist_pipeline_noiseless_exact():
    inst, gt = make_truth(60, n=24, L=16, m=2, k=3, p_max=0.8, alpha=0.4)
    res = fit_twist(gt.p_star, inst.K, 6, 30, 60)
    report = score_result(inst, res)
    assert report.r_bl == 0.0
    assert report.r_wl == 0.0


def test_twist_postprocess_deterministic():
    _, _, a = make_noisy(64, n=16, L=10, m=2, k=2)
    one = fit_twist(a, (2, 2), 5, 5, 64)
    two = fit_twist(a, (2, 2), 5, 5, 64)
    assert np.array_equal(one.layer_labels, two.layer_labels)
    for x, y in zip(one.node_labels, two.node_labels):
        assert np.array_equal(x, y)
