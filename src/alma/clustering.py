"""Seeded k-means and the label post-processors for fitted factors.

k-means is deliberately hand-rolled: restarts consume independent derived
streams, ties between restarts resolve to the lowest restart index, empty
clusters are reseeded from the farthest point, and assignment ties go to the
lowest center index. Those rules make the whole pipeline replayable from a
master seed regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import EmptyClusterError
from .linalg import sym_eig_topk
from .sampling import as_generator
from .tensors import Tensor3


@dataclass(frozen=True)
class KmeansConfig:
    k: int
    restarts: int = 20
    max_iter: int = 100
    tol: float = 1e-9

    def __post_init__(self):
        if self.k < 1 or self.restarts < 1 or self.max_iter < 1:
            raise ValueError("k, restarts, max_iter must all be >= 1")
        if self.tol < 0.0:
            raise ValueError("tol must be nonnegative")


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
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = points[idx]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def _lloyd(points, cfg, rng):
    n, k = points.shape[0], cfg.k
    centers = _plusplus_seed(points, k, rng)
    labels = np.zeros(n, dtype=np.int64)
    prev_obj = np.inf
    trace = []
    obj = np.inf
    for _ in range(cfg.max_iter):
        dist2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = dist2.argmin(axis=1)
        mindist = dist2[np.arange(n), labels]
        for c in range(k):
            if not np.any(labels == c):
                far = int(mindist.argmax())
                labels[far] = c
                mindist[far] = 0.0
        obj = float(mindist.sum())
        trace.append(obj)
        if prev_obj - obj <= cfg.tol * max(1.0, obj):
            break
        prev_obj = obj
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
    return KmeansResult(labels, centers, obj, trace)


def kmeans(points: np.ndarray, cfg: KmeansConfig, rng) -> KmeansResult:
    """Multi-restart Lloyd with k-means++ seeding.

    Returns the restart with the smallest objective; on ties the lowest
    restart index wins. ``trace`` holds the winning restart's objective after
    each assignment step (non-increasing).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-d array")
    if points.shape[0] < cfg.k:
        raise ValueError(f"need at least k={cfg.k} points, got {points.shape[0]}")
    rng = as_generator(rng)
    best = None
    for stream in rng.spawn(cfg.restarts):
        res = _lloyd(points, cfg, stream)
        if best is None or res.objective < best.objective:
            best = res
    return best


def within_layer_labels(
    affinity: np.ndarray, k: int, rng, restarts: int = 20, by_magnitude: bool = True
) -> np.ndarray:
    """Spectral clustering of one symmetric affinity slice into k communities.

    Embeds nodes with the top-k eigenvectors (largest-magnitude eigenvalues by
    default, largest-value with ``by_magnitude=False``), then k-means the rows.
    """
    pairs = sym_eig_topk(affinity, k, by_magnitude=by_magnitude)
    return kmeans(pairs.vectors, KmeansConfig(k=k, restarts=restarts), rng).labels


@dataclass
class ClusteringResult:
    """Estimated layer groups plus per-group node communities.

    ``layer_labels[l]`` indexes into ``node_labels``; ``node_labels[g]`` is the
    community assignment estimated for group g.
    """

    layer_labels: np.ndarray
    node_labels: list


def _match_clusters_to_columns(centers: np.ndarray) -> np.ndarray:
    # bijection cluster -> factor column, maximizing the squared centroid mass
    rows, cols = linear_sum_assignment(-(centers**2))
    out = np.empty(centers.shape[0], dtype=np.int64)
    out[rows] = cols
    return out


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
    km = kmeans(w_hat, KmeansConfig(k=m, restarts=restarts), streams[0])
    col_of = _match_clusters_to_columns(km.centers)
    layer_labels = col_of[km.labels]
    if np.bincount(layer_labels, minlength=m).min() == 0:
        raise EmptyClusterError("a layer group came back empty after clustering")
    arr = a.array
    node_labels = []
    for j in range(m):
        affinity = arr[layer_labels == j].mean(axis=0)
        node_labels.append(
            within_layer_labels(
                affinity, int(ranks[j]), streams[1 + j], restarts, by_magnitude=False
            )
        )
    return ClusteringResult(layer_labels, node_labels)
