"""Spectral warm start for the layer factor.

The layer-mode unfolding of the adjacency tensor has one row per layer;
its top left singular subspace, the top eigenvectors of the layers' Gram
matrix, separates layer groups. Clustering those embedding rows and
orthonormalizing the resulting indicator matrix gives the starting factor
for the alternating solver.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidPartitionError
from .clustering import kmeans
from .linalg import sym_eig_topk
from .tensors import Tensor3, mode23_product


def clustering_to_w(labels, m: int) -> np.ndarray:
    """Orthonormal (L, m) factor Z (Z^T Z)^{-1/2} from layer labels.

    Column g carries 1/sqrt(L_g) on the rows of group g; every group must be
    nonempty.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise InvalidPartitionError("labels must be a nonempty 1-d vector")
    if labels.min() < 0 or labels.max() >= m:
        raise InvalidPartitionError(f"labels must lie in [0, {m})")
    counts = np.bincount(labels, minlength=m)
    if counts.min() == 0:
        raise InvalidPartitionError("every group must be nonempty")
    w = np.zeros((labels.shape[0], m))
    w[np.arange(labels.shape[0]), labels] = 1.0 / np.sqrt(counts[labels])
    return w


def spectral_init(a: Tensor3, m: int, rng, restarts: int = 20) -> np.ndarray:
    """Initial orthonormal layer factor from the unfolding's top-m subspace.

    The subspace comes from the L-by-L Gram matrix of the unfolding rows,
    which has the same span as the unfolding's top left singular vectors and
    any m up to L, whichever of L and n^2 is larger.
    """
    L, n, n2 = a.dims
    if n != n2:
        raise ValueError("adjacency slices must be square")
    if not 1 <= m <= L:
        raise ValueError(f"m={m} out of range for L={L}")
    embed = sym_eig_topk(mode23_product(a, a), m, by_magnitude=True).vectors
    labels = kmeans(embed, m, rng, restarts).labels
    return clustering_to_w(labels, m)
