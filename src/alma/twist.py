"""Tucker-style baseline: regularized alternating power iteration.

Alternates SVD updates of a shared node factor U (n, r) and a layer factor
W (L, M), with row-norm regularization between sweeps: rows of an iterate are
clipped to a radius delta, then the clipped matrix is re-orthonormalized by
taking its top left singular vectors. Both updates contract the adjacency
tensor with the current regularized factors and take leading left singular
vectors of the resulting unfolding (along the node mode for U, along the
layer mode for W).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import svd_top_left
from .tensors import Tensor3


@dataclass(frozen=True)
class TwistConfig:
    """Baseline settings; deltas may be numeric or "auto".

    Auto mode sets the clip radius to twice the mean row norm of the iterate
    being regularized. ``iter_max=0`` is allowed and returns the regularized
    inits unchanged.
    """

    M: int
    r: int
    delta1: float | str = "auto"
    delta2: float | str = "auto"
    iter_max: int = 50

    def __post_init__(self):
        if self.M < 1 or self.r < self.M:
            raise ValueError("need r >= M >= 1")
        if self.iter_max < 0:
            raise ValueError("iter_max must be nonnegative")
        for name, d in (("delta1", self.delta1), ("delta2", self.delta2)):
            if d != "auto" and (not isinstance(d, (int, float)) or d <= 0.0):
                raise ValueError(f"{name} must be positive or 'auto'")


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


def _delta(setting, v):
    return _auto_delta(v) if setting == "auto" else float(setting)


def twist_fit(a: Tensor3, cfg: TwistConfig, u_init: np.ndarray, w_init: np.ndarray):
    """Run ``iter_max`` regularized power sweeps; returns (u_hat, w_hat).

    Returned factors are the regularized iterates, orthonormal by
    construction.
    """
    L, n, n2 = a.dims
    if n != n2:
        raise ValueError("adjacency slices must be square")
    if cfg.r > n or cfg.M > L:
        raise ValueError(f"need r <= n={n} and M <= L={L}")
    u = np.asarray(u_init, dtype=np.float64)
    w = np.asarray(w_init, dtype=np.float64)
    if u.shape != (n, cfg.r):
        raise ValueError(f"u_init must be (n, r)=({n}, {cfg.r}), got {u.shape}")
    if w.shape != (L, cfg.M):
        raise ValueError(f"w_init must be (L, M)=({L}, {cfg.M}), got {w.shape}")
    arr = a.array
    u_t = regularize_rows(u, _delta(cfg.delta1, u), cfg.r)
    w_t = regularize_rows(w, _delta(cfg.delta2, w), cfg.M)
    # the shapes are fixed for the fit, so search each contraction order once
    node_path = np.einsum_path("lij,lm,ir->jmr", arr, w_t, u_t, optimize="greedy")[0]
    layer_path = np.einsum_path("lij,ir,js->lrs", arr, u_t, u_t, optimize="greedy")[0]
    for _ in range(cfg.iter_max):
        # node update: contract the layer mode with W and one node mode with U,
        # unfold along the remaining node mode, take top-r left vectors
        mixed = np.einsum("lij,lm,ir->jmr", arr, w_t, u_t, optimize=node_path)
        u_new = svd_top_left(mixed.reshape(n, cfg.M * cfg.r), cfg.r)
        # layer update: contract both node modes with U, unfold along layers
        cores = np.einsum("lij,ir,js->lrs", arr, u_t, u_t, optimize=layer_path)
        w_new = svd_top_left(cores.reshape(L, cfg.r * cfg.r), cfg.M)
        u_t = regularize_rows(u_new, _delta(cfg.delta1, u_new), cfg.r)
        w_t = regularize_rows(w_new, _delta(cfg.delta2, w_new), cfg.M)
    return u_t, w_t
