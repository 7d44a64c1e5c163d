"""Alternating minimization of ||A - Q x1 W^T||_F.

Each sweep solves both subproblems exactly: with W fixed, the optimal Q
collects W-weighted slice sums and truncates each to its community rank (the
closest symmetric low-rank matrix); with Q fixed, the optimal orthonormal W
is the polar factor of the slice correlations. The objective therefore never
increases within a sweep, up to float rounding.

The sweep loop stops when consecutive layer factors differ by at most
``eps_stop`` in Frobenius norm, or when the sweep budget runs out. On the
small-step stop the returned pair is the earlier member of the stop test
(the iterate whose distance to a fixed point the step-size criterion
certifies); on a budget stop it is the last pair, flagged unconverged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateIterateError, NonFiniteObjectiveError, RankDeficientError
from .linalg import polar_project, rank_project
from .tensors import Tensor3, frobenius_norm, mode1_matricize, mode1_product, mode23_product


@dataclass(frozen=True)
class AlmaConfig:
    eps_stop: float = 1e-4
    max_iter: int = 100
    rank_tol: float = 1e-10
    record_trace: bool = False

    def __post_init__(self):
        if self.eps_stop < 0.0:
            raise ValueError("eps_stop must be nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.rank_tol <= 0.0:
            raise ValueError("rank_tol must be positive")


@dataclass
class FactorPair:
    """A fitted (W, Q) pair plus fit metadata.

    ``objective_trace`` (when recorded) holds the objective after every
    half-step, so two entries per executed sweep.
    """

    w: np.ndarray
    q: Tensor3
    objective_trace: list = field(default_factory=list)
    iters_used: int = 0
    converged: bool = False


def objective(a: Tensor3, q: Tensor3, w: np.ndarray) -> float:
    """Frobenius norm of A - Q x1 W^T."""
    rebuilt = mode1_product(q, np.asarray(w, dtype=np.float64))
    return frobenius_norm(a.array - rebuilt.array)


def _check_w(w: np.ndarray, L: int, tol: float = 1e-8) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != L or w.shape[1] > L:
        raise ValueError(f"layer factor must be (L, M) with M <= L={L}, got {w.shape}")
    gram = w.T @ w
    if np.linalg.norm(gram - np.eye(w.shape[1])) > tol:
        raise ValueError("layer factor columns are not orthonormal")
    return w


def q_update(a: Tensor3, w: np.ndarray, ranks) -> Tensor3:
    """Optimal rank-constrained Q for fixed orthonormal W.

    Slice m is the W(:, m)-weighted sum of adjacency slices, symmetrized and
    truncated to its ``ranks[m]`` largest-magnitude eigencomponents.
    """
    L, n, n2 = a.dims
    if n != n2:
        raise ValueError("adjacency slices must be square")
    w = _check_w(w, L)
    m = w.shape[1]
    if len(ranks) != m:
        raise ValueError(f"expected {m} ranks, got {len(ranks)}")
    core = mode1_product(a, w.T)
    out = np.empty((m, n, n))
    for j in range(m):
        sl = core.slice(j)
        out[j] = rank_project((sl + sl.T) / 2.0, int(ranks[j]))
    return Tensor3(out)


def w_update(a: Tensor3, q: Tensor3, rank_tol: float = 1e-10) -> np.ndarray:
    """Optimal orthonormal W for fixed Q: polar factor of the slice correlations."""
    if a.dims[1:] != q.dims[1:]:
        raise ValueError("adjacency and core slices must share node dims")
    return polar_project(mode23_product(a, q), rank_tol=rank_tol)


def alma_fit(a: Tensor3, ranks, w_init: np.ndarray, config: AlmaConfig = AlmaConfig()) -> FactorPair:
    """Run the alternating sweeps from an orthonormal warm start."""
    L, n, n2 = a.dims
    if n != n2:
        raise ValueError("adjacency slices must be square")
    ranks = tuple(int(k) for k in ranks)
    if any(k < 1 or k > n for k in ranks):
        raise ValueError("every rank must lie in [1, n]")
    w_prev = _check_w(w_init, L).copy()
    if w_prev.shape[1] != len(ranks):
        raise ValueError("w_init columns must match the number of ranks")

    trace: list = []
    q_prev = None
    q = None
    w = w_prev
    converged = False
    iters = 0
    for sweep in range(1, config.max_iter + 1):
        q = q_update(a, w_prev, ranks)
        if config.record_trace:
            trace.append(objective(a, q, w_prev))
        try:
            w = w_update(a, q, rank_tol=config.rank_tol)
        except RankDeficientError as exc:
            raise DegenerateIterateError(sweep, exc) from exc
        if config.record_trace:
            trace.append(objective(a, q, w))
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(mode1_matricize(q)))):
            raise NonFiniteObjectiveError(f"non-finite iterate at sweep {sweep}")
        if trace and not np.isfinite(trace[-1]):
            raise NonFiniteObjectiveError(f"non-finite objective at sweep {sweep}")
        iters = sweep
        if float(np.linalg.norm(w - w_prev)) <= config.eps_stop:
            converged = True
            if sweep > 1:
                q, w = q_prev, w_prev
            break
        q_prev, w_prev = q, w

    return FactorPair(w=w, q=q, objective_trace=trace, iters_used=iters, converged=converged)
