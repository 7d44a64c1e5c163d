"""Tucker-style baseline: regularized alternating power iteration.

Alternates SVD updates of a shared node factor U (n, r) and a layer factor
W (L, M), with row-norm regularization between sweeps: rows of an iterate are
clipped to a radius delta, twice the iterate's mean row norm, then the
clipped matrix is re-orthonormalized by taking its top left singular
vectors. Both updates contract the adjacency tensor with the current
regularized factors and take leading left singular vectors of the resulting
unfolding (along the node mode for U, along the layer mode for W).
"""

from __future__ import annotations

import numpy as np

from .linalg import _symmetric_slices, svd_top_left
from .tensors import Tensor3


def regularize_rows(v: np.ndarray, delta: float, s: int) -> np.ndarray:
    """Clip row norms to delta, then re-orthonormalize to s columns.

    Idempotent whenever delta is at least the largest row norm (clipping is
    then a no-op and the SVD of an orthonormal matrix returns its own span).
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError("expected a matrix")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    norms = np.linalg.norm(v, axis=1)
    scale = np.ones_like(norms)
    over = norms > delta
    scale[over] = delta / norms[over]
    return svd_top_left(v * scale[:, None], s)


def _auto_delta(v: np.ndarray) -> float:
    return 2.0 * float(np.linalg.norm(v, axis=1).mean())


def twist_fit(a: Tensor3, u_init: np.ndarray, w_init: np.ndarray, iter_max: int = 50):
    """Run ``iter_max`` regularized power sweeps; returns (u_hat, w_hat).

    The node rank r is the column count of ``u_init`` (n, r) and the group
    count M that of ``w_init`` (L, M); they need 1 <= M <= r <= n and
    M <= L. ``iter_max=0`` returns the regularized inits. Returned factors
    are the regularized iterates, orthonormal by construction. The slices of
    ``a`` must be symmetric to relative tolerance 1e-8.
    """
    L, n, n2 = a.dims
    if n != n2:
        raise ValueError("adjacency slices must be square")
    if not _symmetric_slices(a.array):
        raise ValueError("adjacency slices are not symmetric to relative tolerance 1e-8")
    u = np.asarray(u_init, dtype=np.float64)
    w = np.asarray(w_init, dtype=np.float64)
    if u.ndim != 2 or u.shape[0] != n:
        raise ValueError(f"u_init must be (n, r) with n={n}, got {u.shape}")
    if w.ndim != 2 or w.shape[0] != L:
        raise ValueError(f"w_init must be (L, M) with L={L}, got {w.shape}")
    r, m = u.shape[1], w.shape[1]
    if not 1 <= m <= r <= n:
        raise ValueError(f"need 1 <= M <= r <= n, got M={m}, r={r}, n={n}")
    if m > L:
        raise ValueError(f"need M <= L={L}, got M={m}")
    if iter_max < 0:
        raise ValueError("iter_max must be nonnegative")
    # each slice read column by column, which for symmetric slices is the
    # slice itself; einsum runs faster on these strides than on C order
    arr = a.array.transpose(0, 2, 1)
    u_t = regularize_rows(u, _auto_delta(u), r)
    w_t = regularize_rows(w, _auto_delta(w), m)
    # the shapes are fixed for the fit, so search each contraction order once
    node_path = np.einsum_path("lij,lm,ir->jmr", arr, w_t, u_t, optimize="greedy")[0]
    layer_path = np.einsum_path("lij,ir,js->lrs", arr, u_t, u_t, optimize="greedy")[0]
    for _ in range(iter_max):
        # node update: contract the layer mode with W and one node mode with U,
        # unfold along the remaining node mode, take top-r left vectors
        mixed = np.einsum("lij,lm,ir->jmr", arr, w_t, u_t, optimize=node_path)
        u_new = svd_top_left(mixed.reshape(n, m * r), r)
        # layer update: contract both node modes with U, unfold along layers
        cores = np.einsum("lij,ir,js->lrs", arr, u_t, u_t, optimize=layer_path)
        w_new = svd_top_left(cores.reshape(L, r * r), m)
        u_t = regularize_rows(u_new, _auto_delta(u_new), r)
        w_t = regularize_rows(w_new, _auto_delta(w_new), m)
    return u_t, w_t
