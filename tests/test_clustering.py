import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alma.clustering import (
    KMEANS_MAX_ITER,
    KMEANS_TOL,
    KmeansResult,
    _group_mean,
    _plusplus_seed,
    _reseed_empty,
    cluster_factor_pair,
    kmeans,
    within_layer_labels,
)
from alma.metrics import best_permutation_error
from alma.model import assemble_ground_truth
from alma.sampling import as_generator, substream
from alma.tensors import Tensor3
from conftest import make_noisy, make_truth, traced_peak


def serial_lloyd(points, k, rng):
    """One restart's Lloyd loop, as k-means ran before its restarts were batched.

    Returns None once the reseed leaves a cluster empty, where this loop's
    next center would be the NaN mean of no points.
    """
    n = points.shape[0]
    centers = _plusplus_seed(points, k, rng)
    labels = np.zeros(n, dtype=np.int64)
    prev_obj = np.inf
    trace = []
    obj = np.inf
    for _ in range(KMEANS_MAX_ITER):
        dist2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = dist2.argmin(axis=1)
        mindist = dist2[np.arange(n), labels]
        for c in range(k):
            if not np.any(labels == c):
                far = int(mindist.argmax())
                labels[far] = c
                mindist[far] = 0.0
        if np.bincount(labels, minlength=k).min() == 0:
            return None
        obj = float(mindist.sum())
        trace.append(obj)
        if prev_obj - obj <= KMEANS_TOL * max(1.0, obj):
            break
        prev_obj = obj
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
    return KmeansResult(labels, centers, obj, trace)


def serial_restarts(points, k, restarts, rng):
    """Each restart's serial result in restart order, or None if one left a cluster empty."""
    points = np.asarray(points, dtype=np.float64)
    runs = [serial_lloyd(points, k, stream) for stream in as_generator(rng).spawn(restarts)]
    return None if any(run is None for run in runs) else runs


def serial_kmeans(points, k, restarts, rng):
    """The lowest objective over serial restarts, the lowest index winning a tie."""
    runs = serial_restarts(points, k, restarts, rng)
    if runs is None:
        return None
    best = runs[0]
    for run in runs[1:]:
        if run.objective < best.objective:
            best = run
    return best


def assert_same_bits(got, want):
    assert got.labels.dtype == want.labels.dtype
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.centers.tobytes() == want.centers.tobytes()
    assert got.objective == want.objective
    assert got.trace == want.trace


def test_kmeans_single_cluster_center_is_mean(rng):
    pts = rng.normal(size=(10, 3))
    res = kmeans(pts, 1, rng, restarts=1)
    assert np.allclose(res.centers[0], pts.mean(axis=0))
    assert np.all(res.labels == 0)


def test_kmeans_k_equals_points(rng):
    pts = np.array([[0.0], [5.0], [10.0]])
    res = kmeans(pts, 3, rng, restarts=5)
    assert sorted(res.labels.tolist()) == [0, 1, 2]
    assert res.objective <= 1e-12


def test_kmeans_trace_non_increasing(rng):
    pts = rng.normal(size=(40, 2))
    res = kmeans(pts, 4, rng, restarts=3)
    trace = np.array(res.trace)
    assert np.all(np.diff(trace) <= 1e-12)


def test_kmeans_separated_blobs_exact(rng):
    pts = np.vstack([
        rng.normal(loc=0.0, scale=0.05, size=(12, 2)),
        rng.normal(loc=10.0, scale=0.05, size=(12, 2)),
    ])
    truth = np.repeat([0, 1], 12)
    res = kmeans(pts, 2, rng, restarts=10)
    rate, _ = best_permutation_error(truth, res.labels, 2)
    assert rate == 0.0


def test_kmeans_restarts_never_hurt(rng):
    pts = np.random.default_rng(8).normal(size=(30, 2))
    one = kmeans(pts, 5, np.random.default_rng(0), restarts=1)
    many = kmeans(pts, 5, np.random.default_rng(0), restarts=25)
    assert many.objective <= one.objective + 1e-12


def test_kmeans_fills_empty_clusters(rng):
    # duplicate points force ties; every requested cluster still gets a member
    pts = np.zeros((6, 2))
    pts[5] = [9.0, 9.0]
    res = kmeans(pts, 3, rng, restarts=4)
    assert np.bincount(res.labels, minlength=3).min() >= 1


def test_kmeans_rejects_too_few_points(rng):
    with pytest.raises(ValueError):
        kmeans(np.zeros((2, 2)), 3, rng)


@pytest.mark.parametrize("k, restarts", [(0, 20), (2, 0)])
def test_kmeans_rejects_a_zero_count(rng, k, restarts):
    with pytest.raises(ValueError, match="k and restarts"):
        kmeans(np.zeros((4, 2)), k, rng, restarts)


def test_between_layer_labels_exact_on_true_factor():
    inst, gt = make_truth(3, n=20, L=15, m=3, k=2)
    labels = kmeans(gt.w_star, 3, substream(3, 5)).labels
    rate, _ = best_permutation_error(inst.layer_labels, labels, 3)
    assert rate == 0.0


def test_between_layer_labels_stable_under_small_noise():
    inst, gt = make_truth(4, n=20, L=15, m=3, k=2)
    w = gt.w_star + 1e-6 * np.random.default_rng(0).normal(size=gt.w_star.shape)
    labels = kmeans(w, 3, substream(4, 5)).labels
    rate, _ = best_permutation_error(inst.layer_labels, labels, 3)
    assert rate == 0.0


def test_within_layer_labels_exact_noiseless():
    inst, gt = make_truth(6, n=24, L=10, m=1, k=3, p_max=0.8, alpha=0.5)
    labels = within_layer_labels(np.array(gt.p_star.slice(0)), 3, substream(6, 7))
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


@st.composite
def kmeans_draws(draw):
    n = draw(st.integers(3, 150))
    d = draw(st.integers(1, 12))  # 8 and up: _sq_dist's pairwise-summed branch
    k = draw(st.integers(1, min(n, 6)))
    restarts = draw(st.integers(1, 25))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["normal", "grid", "duplicates"]))
    if kind == "normal":
        points = rng.normal(size=(n, d))
    elif kind == "grid":
        # three values per coordinate: many tied distances
        points = rng.integers(0, 3, size=(n, d)).astype(np.float64)
    else:
        pool = rng.normal(size=(draw(st.integers(1, n)), d))
        points = pool[rng.integers(0, pool.shape[0], size=n)]
    return points, k, restarts, seed


@settings(max_examples=150, deadline=None)
@given(kmeans_draws())
def test_batched_kmeans_matches_the_serial_restarts_bit_for_bit(draw):
    points, k, restarts, seed = draw
    want = serial_kmeans(points, k, restarts, seed)
    if want is None:
        return  # the serial loop left a cluster empty; see the reseed tests
    assert_same_bits(kmeans(points, k, seed, restarts), want)


@pytest.mark.parametrize("n, d, k", [
    pytest.param(2000, 3, 3, id="many-blocks"),
    pytest.param(60, 8, 4, id="pairwise-distance-sum"),
    pytest.param(60, 11, 3, id="pairwise-distance-sum-with-tail"),
    pytest.param(80, 1, 3, id="one-column"),
])
def test_batched_kmeans_matches_the_serial_restarts_off_the_drawn_sizes(n, d, k):
    rng = np.random.default_rng(n + d)
    points = 0.2 * np.eye(d)[rng.integers(0, d, size=n)] + 0.05 * rng.normal(size=(n, d))
    assert_same_bits(kmeans(points, k, 5), serial_kmeans(points, k, 20, 5))


def test_each_restart_stops_on_its_own_and_the_winner_keeps_its_trace():
    rng = np.random.default_rng(3)
    points = np.vstack([
        rng.normal(loc=c, scale=0.6, size=(15, 2)) for c in ((0, 0), (3, 0), (0, 3), (3, 3))
    ])
    runs = serial_restarts(points, 4, 6, 3)
    lengths = [len(run.trace) for run in runs]
    winner = int(np.argmin([run.objective for run in runs]))
    assert len(set(lengths)) > 1 and lengths[winner] < max(lengths)
    res = kmeans(points, 4, 3, restarts=6)
    assert len(res.trace) == lengths[winner]
    assert_same_bits(res, runs[winner])


def test_kmeans_on_identical_points_leaves_no_cluster_empty():
    # every distance is 0, so the farthest point is always index 0
    res = kmeans(np.zeros((6, 3)), 3, 0, restarts=2)
    assert res.objective == 0.0
    assert np.bincount(res.labels, minlength=3).min() == 1
    assert np.all(res.centers == 0.0)


def test_reseed_does_not_empty_a_cluster_it_already_visited():
    # the farthest point is the only member of cluster 1; cluster 2 must
    # take the farthest point of the two-member cluster 0 instead
    labels = np.array([0, 0, 1])
    mindist = np.array([0.1, 0.2, 5.0])
    counts = np.array([2, 1, 0])
    _reseed_empty(labels, mindist, counts)
    assert labels.tolist() == [0, 2, 1]
    assert counts.tolist() == [1, 1, 1]
    assert mindist.tolist() == [0.1, 0.0, 5.0]


def test_reseed_takes_the_last_member_of_a_cluster_it_has_not_visited():
    # cluster 0 takes the farthest point from the one-member cluster 1, which
    # then takes its own farthest point, as before the reseed fix
    labels = np.array([2, 2, 1, 2])
    mindist = np.array([0.1, 0.3, 4.0, 0.2])
    counts = np.array([0, 1, 3])
    _reseed_empty(labels, mindist, counts)
    assert labels.tolist() == [2, 1, 0, 2]
    assert counts.tolist() == [1, 1, 2]


def test_kmeans_rejects_points_without_coordinates(rng):
    with pytest.raises(ValueError, match="at least one column"):
        kmeans(np.zeros((4, 0)), 2, rng)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kmeans_rejects_non_finite_points(rng, bad):
    pts = rng.normal(size=(5, 2))
    pts[3, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        kmeans(pts, 2, rng)


def choice_plusplus_seed(points, k, rng):
    """k-means++ seeding that draws each later center with ``Generator.choice``."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        idx = int(rng.integers(n)) if total <= 0.0 else int(rng.choice(n, p=d2 / total))
        centers[j] = points[idx]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


@settings(max_examples=200, deadline=None)
@given(kmeans_draws())
def test_plusplus_draws_the_centers_generator_choice_draws(draw):
    points, k, _, seed = draw
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _plusplus_seed(points, k, ours)
    assert got.tobytes() == choice_plusplus_seed(points, k, theirs).tobytes()
    # both streams stand at the same place afterwards
    assert ours.random() == theirs.random()


# The group affinities of cluster_factor_pair.


@st.composite
def group_draws(draw):
    # float slices of spread magnitudes, not 0/1 adjacency; n >= 2, since at
    # n = 1 numpy's mean adds the layers pairwise along its contiguous axis
    n = draw(st.integers(2, 12))
    L = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(L, n, n)) * 10.0 ** rng.uniform(-6, 6, size=(L, 1, 1))
    if draw(st.booleans()):
        x = x + x.transpose(0, 2, 1)
    return Tensor3(x), rng.integers(0, 3, size=L)


@settings(max_examples=150, deadline=None)
@given(group_draws())
def test_group_mean_adds_in_place_to_numpys_mean_bit_for_bit(draw):
    a, labels = draw
    for j in np.unique(labels):
        want = a.array[labels == j].mean(axis=0)
        assert np.array_equal(_group_mean(a, np.flatnonzero(labels == j)), want)


def test_cluster_factor_pair_copies_no_group_of_layers():
    # Gate on the traced peak in units of one n x n slice: one affinity
    # buffer plus the eigensolver's. Averaging a copy of each group's layers
    # peaked at 7.02 units here, summing them in place at 2.13.
    n, m = 300, 3
    _, gt, a = make_noisy(57, n=n, L=12, m=m, k=3, p_max=0.5, alpha=0.5)
    cluster_factor_pair(a, gt.w_star, (3,) * m, substream(57, 3))  # first-call caches
    peak = traced_peak(lambda: cluster_factor_pair(a, gt.w_star, (3,) * m, substream(57, 3)))
    assert peak <= 4 * n * n * 8
