"""Seeded k-means and the label post-processors for fitted factors.

k-means is deliberately hand-rolled: restarts consume independent derived
streams, ties between restarts resolve to the lowest restart index, empty
clusters are reseeded from the farthest point that can move without emptying
another cluster, and assignment ties go to the lowest center index. Those
rules make the whole pipeline replayable from a master seed regardless of
scheduling. Points must be finite.

The Lloyd iterations of all restarts run as one array pass over a
(restarts, n, k) distance array, in blocks of restarts sized from n*k*d so
that temporaries do not grow with the restart count on large inputs. Each
restart stops on its own tolerance test and then leaves the active set. The
result is bit-identical to running the restarts one after another, because
every sum keeps the order numpy's per-restart expressions use: distances add
coordinates one after another (pairwise from eight on), centers add their
members in row order as a mean over several columns does, and a one-column
mean, which numpy sums pairwise, is taken cluster by cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyClusterError
from .linalg import sym_eig_topk
from .metrics import max_weight_assignment
from .sampling import as_generator
from .tensors import Tensor3

# a block of restarts holds at most this many n*k*d work items, so its
# (block, n, k) temporaries stay in cache
_BLOCK_ELEMENTS = 1 << 16
# Lloyd iterations per restart, and the relative fall of the objective in one
# iteration at or below which a restart stops
KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-9


@dataclass
class KmeansResult:
    labels: np.ndarray
    centers: np.ndarray
    objective: float
    trace: list = field(default_factory=list)


def _plusplus_seed(points, k, rng):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            # the draw rng.choice(n, p=d2 / total) makes, without its checks
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        centers[j] = points[idx]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def _reseed_empty(labels, mindist, counts):
    """Give each empty cluster, in index order, the farthest point it may take.

    A point may not leave a cluster already visited if it is that cluster's
    only member, so no cluster stays empty (n >= k leaves a cluster with two
    members to take from). Whenever the farthest point overall may move, it
    is the one taken. Updates all three arrays in place.
    """
    for c in range(counts.shape[0]):
        if counts[c] == 0:
            movable = (counts[labels] > 1) | (labels > c)
            far = int(np.where(movable, mindist, -1.0).argmax())
            counts[labels[far]] -= 1
            counts[c] = 1
            labels[far] = c
            mindist[far] = 0.0


def _sq_dist(points, centers):
    """Squared distances (R, n, k) from the points to each restart's centers.

    Coordinates are summed in the order numpy sums a short last axis: one
    after another below eight, pairwise from eight on.
    """
    n, d = points.shape
    if d >= 8:
        return ((points[None, :, None, :] - centers[:, None, :, :]) ** 2).sum(axis=3)
    dist2 = np.zeros((centers.shape[0], n, centers.shape[1]))
    for j in range(d):
        dist2 += (points[None, :, None, j] - centers[:, None, :, j]) ** 2
    return dist2


def _cluster_means(points, labels, counts):
    """Per-restart cluster means (R, k, d) of ``points`` under ``labels`` (R, n)."""
    rows, k = counts.shape
    d = points.shape[1]
    if d == 1:
        # numpy's mean sums one column pairwise; keep that order per cluster
        return np.array([[points[lab == c].mean(axis=0) for c in range(k)] for lab in labels])
    # bincount adds members in row order, as mean(axis=0) does over several columns
    cells = (labels + k * np.arange(rows)[:, None]).ravel()
    sums = [np.bincount(cells, np.tile(col, rows), rows * k) for col in points.T]
    return np.stack(sums, axis=1).reshape(rows, k, d) / counts[:, :, None]


def _batched_lloyd(points, centers):
    """Lloyd iterations of a block of restarts from their seeds ``centers`` (R, k, d).

    Updates ``centers`` in place and returns each restart's labels (R, n),
    objective (R,), trace (R, KMEANS_MAX_ITER) and iteration count (R,); the
    trace row holds the objective after each assignment step.
    """
    n = points.shape[0]
    restarts, k, _ = centers.shape
    labels = np.empty((restarts, n), dtype=np.int64)
    objective = np.empty(restarts)
    trace = np.empty((restarts, KMEANS_MAX_ITER))
    iters = np.zeros(restarts, dtype=np.int64)
    prev = np.full(restarts, np.inf)
    active = np.arange(restarts)
    for it in range(KMEANS_MAX_ITER):
        dist2 = _sq_dist(points, centers[active])
        lab = dist2.argmin(axis=2)
        mindist = np.take_along_axis(dist2, lab[:, :, None], axis=2)[:, :, 0]
        cells = lab + k * np.arange(active.size)[:, None]
        counts = np.bincount(cells.ravel(), minlength=active.size * k).reshape(-1, k)
        for row in np.flatnonzero((counts == 0).any(axis=1)):
            _reseed_empty(lab[row], mindist[row], counts[row])
        obj = mindist.sum(axis=1)
        labels[active] = lab
        objective[active] = obj
        trace[active, it] = obj
        iters[active] = it + 1
        going = prev[active] - obj > KMEANS_TOL * np.maximum(1.0, obj)
        prev[active] = obj
        active = active[going]
        if not active.size:
            break
        centers[active] = _cluster_means(points, lab[going], counts[going])
    return labels, objective, trace, iters


def kmeans(points: np.ndarray, k: int, rng, restarts: int = 20) -> KmeansResult:
    """Multi-restart Lloyd with k-means++ seeding, into k clusters.

    Each restart runs at most ``KMEANS_MAX_ITER`` iterations and stops once
    the objective falls by no more than ``KMEANS_TOL`` of itself. Returns
    the restart with the smallest objective; on ties the lowest restart
    index wins. ``trace`` holds the winning restart's objective after each
    assignment step (non-increasing).
    """
    if k < 1 or restarts < 1:
        raise ValueError("k and restarts must both be >= 1")
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] < 1:
        raise ValueError("points must be a 2-d array with at least one column")
    if points.shape[0] < k:
        raise ValueError(f"need at least k={k} points, got {points.shape[0]}")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    rng = as_generator(rng)
    centers = np.stack([_plusplus_seed(points, k, s) for s in rng.spawn(restarts)])
    n, d = points.shape
    block = max(1, _BLOCK_ELEMENTS // (n * k * d))
    starts = range(0, restarts, block)
    blocks = [_batched_lloyd(points, centers[i:i + block]) for i in starts]
    labels, objective, trace, iters = (np.concatenate(parts) for parts in zip(*blocks))
    best = int(objective.argmin())
    return KmeansResult(
        labels[best].copy(), centers[best].copy(), float(objective[best]),
        trace[best, :iters[best]].tolist(),
    )


def within_layer_labels(affinity: np.ndarray, k: int, rng, restarts: int = 20) -> np.ndarray:
    """Spectral clustering of one symmetric affinity slice into k communities.

    Embeds nodes with the eigenvectors of the k largest eigenvalues (by value,
    see :func:`cluster_factor_pair`), then k-means the rows.
    """
    pairs = sym_eig_topk(affinity, k, by_magnitude=False)
    return kmeans(pairs.vectors, k, rng, restarts).labels


@dataclass
class ClusteringResult:
    """Estimated layer groups plus per-group node communities.

    ``layer_labels[l]`` indexes into ``node_labels``; ``node_labels[g]`` is the
    community assignment estimated for group g.
    """

    layer_labels: np.ndarray
    node_labels: list


def _match_clusters_to_columns(centers: np.ndarray) -> np.ndarray:
    # bijection cluster -> factor column, maximizing the squared centroid mass;
    # the m x m matching is metrics' exact assignment, which breaks ties as
    # scipy's linear_sum_assignment does
    return np.array(max_weight_assignment(centers**2), dtype=np.int64)


def _group_mean(a: Tensor3, layers) -> np.ndarray:
    """Mean of the slices ``layers`` of ``a``, summed into one n x n buffer.

    The slices are added in layer order, as numpy's ``mean(axis=0)`` of the
    stacked slices adds them, so the two agree bit for bit without a copy of
    the stack.
    """
    total = a.array[layers[0]].copy()
    for l in layers[1:]:
        total += a.array[l]
    total /= len(layers)
    return total


def cluster_factor_pair(
    a: Tensor3, w_hat: np.ndarray, ranks, rng, restarts: int = 20
) -> ClusteringResult:
    """Labels from a fitted layer factor and the raw adjacency.

    Layers: k-means on the rows of W, with each cluster identified to the W
    column carrying its centroid's mass, so layer labels live in factor-column
    space. Nodes: the affinity for group j is the mean adjacency slice over
    the layers assigned to j (the unprojected group aggregate), clustered with
    value-ordered eigenvectors. The zero diagonal centers the aggregate's
    noise bulk at minus the edge density, so a structural eigenvalue near
    (p-q)n/K - p can lose a magnitude contest against the bulk while staying
    safely above it in value; value ordering keeps the structural directions
    for assortative models.
    """
    w_hat = np.asarray(w_hat, dtype=np.float64)
    m = w_hat.shape[1]
    if a.dims[0] != w_hat.shape[0]:
        raise ValueError("adjacency layers and W rows must agree")
    if len(ranks) != m:
        raise ValueError("ranks must match the number of layer groups")
    streams = as_generator(rng).spawn(1 + m)
    km = kmeans(w_hat, m, streams[0], restarts)
    col_of = _match_clusters_to_columns(km.centers)
    layer_labels = col_of[km.labels]
    if np.bincount(layer_labels, minlength=m).min() == 0:
        raise EmptyClusterError("a layer group came back empty after clustering")
    node_labels = []
    for j in range(m):
        node_labels.append(within_layer_labels(
            _group_mean(a, np.flatnonzero(layer_labels == j)), int(ranks[j]),
            streams[1 + j], restarts))
    return ClusteringResult(layer_labels, node_labels)
