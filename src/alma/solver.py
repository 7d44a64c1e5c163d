"""Alternating minimization of ||A - Q x1 W^T||_F.

Each sweep solves both subproblems exactly: with W fixed, the optimal Q
collects W-weighted slice sums and truncates each to its community rank (the
closest symmetric low-rank matrix); with Q fixed, the optimal orthonormal W
is the polar factor of the slice correlations. The objective therefore never
increases within a sweep, up to float rounding.

The sweep loop has two stop tests, both switched off by ``eps_stop = 0``:

* the step rule: consecutive layer factors differ by at most ``eps_stop`` in
  Frobenius norm. The returned pair is then the earlier member of the stop
  test (the iterate whose distance to a fixed point the step-size criterion
  certifies).
* the objective rule: from sweep 2 on, the objective after the W-step fell by
  no more than ``OBJECTIVE_RTOL`` of its previous value. W can drift at a
  steady speed along a direction where the objective is nearly flat, so the
  step rule alone seldom fires on noisy data. The returned pair is the
  current one, which has the lowest objective.

Either stop flags the fit converged; when the sweep budget runs out first,
the last pair comes back flagged unconverged.

The objective costs no pass over the tensor: with W orthonormal,
||A - Q x1 W||^2 = ||A||^2 - 2 <W, G> + ||Q||^2, where G is the W-step's own
slice correlation matrix, ||Q||^2 is the sum of the kept eigenvalues' squares
and ||A||^2 is taken once per fit. Both half-steps of a sweep read the same
G (the Q-step's objective with the W it started from), so a fit keeps the
objective after every half-step at O(LM) each, and reports the one of the
pair it returns. :func:`objective` is the same expansion for any pair.

Each group's core Q_m is held as its K_m kept eigenpairs
(:class:`alma.linalg.EigPairs`), never as an n x n slice. A Q-step projects
the group slices of one mode-1 product one after another on the calling
thread, each on one thread of scipy's OpenBLAS (see :mod:`alma.linalg`), and
the product goes when the step returns. The W-step reads
G[l, m] = sum_i lambda_i v_i^T A_l v_i off the products of A's slices with
the kept vectors, and a step-rule stop returns the previous sweep's pairs as
they are.

On the Lanczos path (``linalg.LANCZOS_MIN_N`` nodes up) a fit carries one
:class:`alma.linalg.Certificate` per group slice from Q-step to Q-step: the
first sweep's dense eigensolve seeds it, and a warm projection then skips
its two Cholesky factorizations for as long as the slice has moved less than
its spectral gap allows. How far a slice has moved is bounded from the
layer Gram matrix of A, taken once per fit. It changes no result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegenerateIterateError, NonFiniteObjectiveError, RankDeficientError
from .linalg import (
    Certificate,
    _from_pairs,
    _lanczos_applies,
    _quadratic_forms,
    polar_project,
    rank_project,
)
from .tensors import Tensor3, mode1_matricize, mode1_product

# Largest relative fall of the objective in one sweep that ends a fit. At
# 1e-5 scenario-1 fits stop at sweeps 3-32 and lose accuracy; at 1e-7 about
# half of them still run the 100-sweep budget.
OBJECTIVE_RTOL = 1e-6
# Below this fraction of ||A||^2 the expanded square loses too many digits to
# cancellation, and the objective is taken from the residual itself.
_CANCELLATION_FRAC = 1e-6


@dataclass
class FactorPair:
    """A fitted (W, Q) pair plus fit metadata.

    ``q`` holds one :class:`alma.linalg.EigPairs` per group, so that
    Q_m = V diag(values) V^T. ``objective_trace`` holds the objective after
    every half-step, two entries per executed sweep, and ``objective`` that
    of the returned pair: the last entry, or on a step-rule stop after sweep
    1 the previous sweep's last.
    """

    w: np.ndarray
    q: tuple
    objective: float = float("nan")
    objective_trace: list = field(default_factory=list)
    iters_used: int = 0
    converged: bool = False
    # "converged" (either stop test fired) or "budget"
    stop_reason: str = "budget"
    # ||W_t - W_{t-1}||_F of the last sweep run
    final_step: float = float("nan")


def objective(a: Tensor3, q, w: np.ndarray) -> float:
    """Frobenius norm of A - Q x1 W^T for a layer factor with orthonormal
    columns, from ||A||^2, G and ||Q||^2 as the module docstring sets out.

    ``q`` holds each group's eigenpairs. This is the value :func:`alma_fit`
    reports for its own pair, bit for bit.
    """
    w = _check_w(w, a.dims[0])
    if w.shape[1] != len(q):
        raise ValueError(f"layer factor shape {w.shape} does not match (L, M)")
    return _expanded_objective(a, _squared_norm(a), q, w, _slice_correlations(a, q))


def _squared_norm(a: Tensor3) -> float:
    """||A||^2, summed without BLAS's dot, whose sum over a long vector
    splits by thread count."""
    flat = a.array.reshape(-1)
    return float(np.einsum("i,i->", flat, flat))


def _expanded_objective(a: Tensor3, a_sq: float, q, w: np.ndarray,
                        g: np.ndarray) -> float:
    """:func:`objective` from ``a_sq`` = ||A||^2 and G = <A_l, Q_m>.

    ``w`` has orthonormal columns, so ||Q x1 W||^2 = ||Q||^2, the sum of the
    kept eigenvalues' squares, and no pass over A is needed, unless the
    objective is so small next to ||A|| that the expansion cancels.
    """
    q_sq = sum(float(values @ values) for values, _ in q)
    f_sq = a_sq - 2.0 * float(np.vdot(w, g)) + q_sq
    if f_sq < _CANCELLATION_FRAC * a_sq:
        return _residual_objective(a, q, w)
    return float(np.sqrt(f_sq))


def _residual_objective(a: Tensor3, q, w: np.ndarray) -> float:
    """:func:`objective` accumulated from the residual one layer at a time,
    with every Q slice densified."""
    qmat = np.stack([_from_pairs(pairs) for pairs in q]).reshape(len(q), -1)
    sq = np.empty(len(w))
    for l, row in enumerate(mode1_matricize(a)):
        resid = row - w[l] @ qmat
        sq[l] = np.einsum("i,i->", resid, resid)
    return float(np.sqrt(sq.sum()))


def _check_w(w: np.ndarray, L: int, tol: float = 1e-8) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != L or w.shape[1] > L:
        raise ValueError(f"layer factor must be (L, M) with M <= L={L}, got {w.shape}")
    gram = w.T @ w
    if np.linalg.norm(gram - np.eye(w.shape[1])) > tol:
        raise ValueError("layer factor columns are not orthonormal")
    return w


class _SliceDrift:
    """Bounds ||S(u) - S(v)||_F from u - v, for the W-weighted slice sums
    S(w) = sum_l w_l A_l as :func:`mode1_product` computes them.

    In exact arithmetic the square is d^T G d, with d = u - v and G the
    layer Gram matrix G[l, l'] = <A_l, A_l'>. The bound adds the float error
    of G and of the form, at most (n^2 + L + 1) eps ||d||^2 ||A||_F^2, and
    that of the two computed slices, at most L eps ||A||_F each (columns of
    W have unit norm); each is taken twice over.
    """

    def __init__(self, a: Tensor3):
        L, n, _ = a.dims
        mat = mode1_matricize(a)
        self.gram = mat @ mat.T
        a_sq = float(np.trace(self.gram))
        eps = np.finfo(np.float64).eps
        self.form_err = 2.0 * (n * n + L + 1) * eps * a_sq
        self.slice_err = 4.0 * L * eps * np.sqrt(a_sq)

    def __call__(self, d: np.ndarray) -> float:
        sq = float(d @ self.gram @ d) + self.form_err * float(d @ d)
        return float(np.sqrt(max(sq, 0.0))) + self.slice_err


class _CarriedStart(NamedTuple):
    """A Q-step's start as :func:`alma_fit` carries it from sweep to sweep."""

    # per slice, a Certificate keyed by its W column, or None; each holds the
    # slice's next Lanczos start
    certs: tuple
    drift: _SliceDrift | None  # None when no slice is on the Lanczos path


def q_update(a: Tensor3, w: np.ndarray, ranks,
             start: _CarriedStart | None = None) -> tuple:
    """Optimal rank-constrained Q for fixed orthonormal W, as one
    :class:`alma.linalg.EigPairs` per group.

    Slice m is the W(:, m)-weighted sum of adjacency slices, truncated to its
    ``ranks[m]`` largest-magnitude eigencomponents. ``start`` is what
    :func:`alma_fit` carries from sweep to sweep: each slice's certificate,
    which the projections refresh in place, down to the Lanczos start of the
    next call. It changes only how the eigenpairs are found, not the result.
    """
    L, n, n2 = a.dims
    if n != n2:
        raise ValueError("adjacency slices must be square")
    w = _check_w(w, L)
    m = w.shape[1]
    if len(ranks) != m:
        raise ValueError(f"expected {m} ranks, got {len(ranks)}")
    certs, drift = ((None,) * m, None) if start is None else start
    if len(certs) != m or any(cert is not None and cert.v0 is not None
                              and np.shape(cert.v0) != (n,) for cert in certs):
        raise ValueError(f"start does not match {m} slices of {n} x {n}")
    sums = mode1_product(a, w.T)
    q = []
    for j, (k, cert) in enumerate(zip(ranks, certs)):
        if cert is not None:
            cert.key = w[:, j].copy()
            if cert.ref is not None:
                cert.drift = drift(cert.key - cert.ref)
        q.append(rank_project(sums.array[j], int(k), start=cert))
    return tuple(q)


def _slice_correlations(a: Tensor3, q) -> np.ndarray:
    """G[l, m] = <A_l, Q_m> = sum_i lambda_i v_i^T A_l v_i over Q_m's eigenpairs.

    One product of every slice of A with all groups' kept vectors.
    """
    if any(vectors.shape[0] != a.dims[1] for _, vectors in q):
        raise ValueError("adjacency and core slices must share node dims")
    vectors = np.concatenate([v for _, v in q], axis=1)
    values = np.concatenate([lam for lam, _ in q])
    # terms[l, i] = lambda_i v_i^T A_l v_i, then summed over each group's columns
    terms = _quadratic_forms(a.array, vectors) * values
    return np.add.reduceat(terms, np.cumsum([0] + [len(lam) for lam, _ in q[:-1]]), axis=1)


def w_update(a: Tensor3, q) -> np.ndarray:
    """Optimal orthonormal W for fixed Q (one eigenpair set per group): polar
    factor of the slice correlations."""
    return polar_project(_slice_correlations(a, q))


def _check_fit_args(n: int, ranks, eps_stop: float, max_iter: int) -> tuple:
    """``ranks`` as ints, once they and the stop settings pass :func:`alma_fit`'s checks."""
    if eps_stop < 0.0:
        raise ValueError("eps_stop must be nonnegative")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    ranks = tuple(int(k) for k in ranks)
    if any(k < 1 or k > n for k in ranks):
        raise ValueError("every rank must lie in [1, n]")
    return ranks


def alma_fit(a: Tensor3, ranks, w_init: np.ndarray, *, eps_stop: float = 1e-4,
             max_iter: int = 100) -> FactorPair:
    """Run the alternating sweeps from an orthonormal warm start.

    ``eps_stop`` is the step rule's tolerance on ||W_t - W_{t-1}||_F; any
    positive value also turns on the objective rule (see the module
    docstring), and 0 runs the full ``max_iter`` budget with neither test,
    even where W repeats exactly.
    """
    L, n, n2 = a.dims
    if n != n2:
        raise ValueError("adjacency slices must be square")
    ranks = _check_fit_args(n, ranks, eps_stop, max_iter)
    w_prev = _check_w(w_init, L).copy()
    if w_prev.shape[1] != len(ranks):
        raise ValueError("w_init columns must match the number of ranks")

    # max_iter >= 1, so the loop below sets every name the return reads
    trace: list = []
    converged = False
    a_sq = _squared_norm(a)
    certs = tuple(Certificate() for _ in ranks)
    drift = _SliceDrift(a) if any(_lanczos_applies(n, k) for k in ranks) else None
    start = _CarriedStart(certs, drift)
    for sweep in range(1, max_iter + 1):
        q = q_update(a, w_prev, ranks, start=start)
        # the W-step, with G kept for both half-steps' objectives
        g = _slice_correlations(a, q)
        try:
            w = polar_project(g)
        except RankDeficientError as exc:
            raise DegenerateIterateError(sweep, exc) from exc
        if not (np.all(np.isfinite(w))
                and all(np.all(np.isfinite(v)) and np.all(np.isfinite(lam)) for lam, v in q)):
            raise NonFiniteObjectiveError(f"non-finite iterate at sweep {sweep}")
        f = _expanded_objective(a, a_sq, q, w, g)
        trace += [_expanded_objective(a, a_sq, q, w_prev, g), f]
        if not np.all(np.isfinite(trace[-2:])):
            raise NonFiniteObjectiveError(f"non-finite objective at sweep {sweep}")
        step = float(np.linalg.norm(w - w_prev))
        if eps_stop > 0.0 and step <= eps_stop:
            converged = True
            if sweep > 1:
                q, w, f = q_prev, w_prev, f_prev
            break
        if eps_stop > 0.0 and sweep > 1 and f_prev - f <= OBJECTIVE_RTOL * f_prev:
            converged = True
            break
        q_prev, w_prev, f_prev = q, w, f

    return FactorPair(
        w=w, q=q, objective=f, objective_trace=trace, iters_used=sweep,
        converged=converged, stop_reason="converged" if converged else "budget",
        final_step=step,
    )
