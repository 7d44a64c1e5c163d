import numpy as np
import pytest

from alma.clustering import (
    KmeansConfig,
    KmeansResult,
    cluster_factor_pair,
    kmeans,
    within_layer_labels,
)
from alma.metrics import best_permutation_error
from alma.model import assemble_ground_truth
from alma.sampling import substream
from alma.tensors import Tensor3
from conftest import make_truth


def test_kmeans_single_cluster_center_is_mean(rng):
    pts = rng.normal(size=(10, 3))
    res = kmeans(pts, KmeansConfig(k=1, restarts=1), rng)
    assert np.allclose(res.centers[0], pts.mean(axis=0))
    assert np.all(res.labels == 0)


def test_kmeans_k_equals_points(rng):
    pts = np.array([[0.0], [5.0], [10.0]])
    res = kmeans(pts, KmeansConfig(k=3, restarts=5), rng)
    assert sorted(res.labels.tolist()) == [0, 1, 2]
    assert res.objective <= 1e-12


def test_kmeans_trace_non_increasing(rng):
    pts = rng.normal(size=(40, 2))
    res = kmeans(pts, KmeansConfig(k=4, restarts=3), rng)
    trace = np.array(res.trace)
    assert np.all(np.diff(trace) <= 1e-12)


def test_kmeans_separated_blobs_exact(rng):
    pts = np.vstack([
        rng.normal(loc=0.0, scale=0.05, size=(12, 2)),
        rng.normal(loc=10.0, scale=0.05, size=(12, 2)),
    ])
    truth = np.repeat([0, 1], 12)
    res = kmeans(pts, KmeansConfig(k=2, restarts=10), rng)
    rate, _ = best_permutation_error(truth, res.labels, 2)
    assert rate == 0.0


def test_kmeans_restarts_never_hurt(rng):
    pts = np.random.default_rng(8).normal(size=(30, 2))
    one = kmeans(pts, KmeansConfig(k=5, restarts=1), np.random.default_rng(0))
    many = kmeans(pts, KmeansConfig(k=5, restarts=25), np.random.default_rng(0))
    assert many.objective <= one.objective + 1e-12


def test_kmeans_fills_empty_clusters(rng):
    # duplicate points force ties; every requested cluster still gets a member
    pts = np.zeros((6, 2))
    pts[5] = [9.0, 9.0]
    res = kmeans(pts, KmeansConfig(k=3, restarts=4), rng)
    assert np.bincount(res.labels, minlength=3).min() >= 1


def test_kmeans_rejects_too_few_points(rng):
    with pytest.raises(ValueError):
        kmeans(np.zeros((2, 2)), KmeansConfig(k=3), rng)


def test_between_layer_labels_exact_on_true_factor():
    inst, gt = make_truth(3, n=20, L=15, m=3, k=2)
    labels = kmeans(gt.w_star, KmeansConfig(k=3), substream(3, 5)).labels
    rate, _ = best_permutation_error(inst.layer_labels, labels, 3)
    assert rate == 0.0


def test_between_layer_labels_stable_under_small_noise():
    inst, gt = make_truth(4, n=20, L=15, m=3, k=2)
    w = gt.w_star + 1e-6 * np.random.default_rng(0).normal(size=gt.w_star.shape)
    labels = kmeans(w, KmeansConfig(k=3), substream(4, 5)).labels
    rate, _ = best_permutation_error(inst.layer_labels, labels, 3)
    assert rate == 0.0


def test_within_layer_labels_exact_noiseless_both_orderings():
    inst, gt = make_truth(6, n=24, L=10, m=1, k=3, p_max=0.8, alpha=0.5)
    affinity = np.array(gt.p_star.slice(0))
    for flag in (True, False):
        labels = within_layer_labels(affinity, 3, substream(6, 7), by_magnitude=flag)
        rate, _ = best_permutation_error(inst.memberships[0], labels, 3)
        assert rate == 0.0


def test_cluster_factor_pair_exact_on_truth():
    inst, gt = make_truth(8, n=24, L=16, m=2, k=3, p_max=0.8, alpha=0.5)
    res = cluster_factor_pair(gt.p_star, gt.w_star, inst.K, substream(8, 9))
    r_bl, perm = best_permutation_error(inst.layer_labels, res.layer_labels, 2)
    assert r_bl == 0.0
    for m in range(2):
        rate, _ = best_permutation_error(
            inst.memberships[m], res.node_labels[perm[m]], 3
        )
        assert rate == 0.0


def test_cluster_factor_pair_group_order_follows_columns():
    # column g of W carries group g; matching must preserve that indexing
    inst, gt = make_truth(10, n=20, L=12, m=2, k=2)
    res = cluster_factor_pair(gt.p_star, gt.w_star, inst.K, substream(10, 9))
    assert np.array_equal(res.layer_labels, inst.layer_labels)


def test_cluster_factor_pair_checks_shapes():
    inst, gt = make_truth(12, n=12, L=8, m=2, k=2)
    with pytest.raises(ValueError):
        cluster_factor_pair(gt.p_star, gt.w_star[:5], inst.K, substream(12, 9))
    with pytest.raises(ValueError):
        cluster_factor_pair(gt.p_star, gt.w_star, (2,), substream(12, 9))


def test_cluster_factor_pair_deterministic_given_stream():
    inst, gt = make_truth(14, n=16, L=10, m=2, k=2)
    a = cluster_factor_pair(gt.p_star, gt.w_star, inst.K, substream(14, 9))
    b = cluster_factor_pair(gt.p_star, gt.w_star, inst.K, substream(14, 9))
    assert np.array_equal(a.layer_labels, b.layer_labels)
    for x, y in zip(a.node_labels, b.node_labels):
        assert np.array_equal(x, y)
