"""Identifiability and difficulty diagnostics for an assembled ground truth.

All quantities are computed from the structural (full-diagonal) group slices
``q_star_full``, whose ranks are exactly the community counts; the zeroed
diagonal used by the estimator is a modeling convenience that would blur the
subspace geometry these checks measure.

``kappa_h`` measures how far rotations of the group slices can hide inside
the low-rank tangent space: it is the largest norm that the tangent projector
retains over unit tensors of the form Q x1 X with X skew-symmetric. Zero
means rotations are fully visible (strong identifiability); one means some
rotation is invisible, which happens exactly when groups share eigenspaces
(the checker-board configuration).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSliceError, RankDeficientError
from .linalg import sym_eig_topk
from .model import GroundTruth
from .tensors import mode23_product

_DROP_FACTOR = 1e-10
# check_a1's bound on a relative singular value or span residual
_A1_TOL = 1e-8


def _structural_projectors(gt: GroundTruth, ranks):
    m_groups, n, _ = gt.q_star_full.dims
    if len(ranks) != m_groups:
        raise ValueError(f"expected {m_groups} ranks, got {len(ranks)}")
    slices = list(gt.q_star_full.array)
    bases = []
    perps = []
    eye = np.eye(n)
    for m, sl in enumerate(slices):
        u = sym_eig_topk(sl, int(ranks[m]), by_magnitude=True).vectors
        bases.append(u)
        perps.append(eye - u @ u.T)
    return slices, bases, perps


def kappa_h(gt: GroundTruth, ranks) -> float:
    """Largest retained norm of a tangent-projected unit skew rotation.

    Orthonormalizes the M(M-1)/2 generator tensors (Q x1 E_ij for the skew
    basis E_ij), applies the tangent projector slice by slice, and returns the
    top singular value of the restricted map via its Gram matrix. Lies in
    [0, 1]; returns 0 for a single group.
    """
    m_groups, n, _ = gt.q_star_full.dims
    if m_groups == 1:
        return 0.0
    slices, _, perps = _structural_projectors(gt, ranks)
    gens = []
    for i in range(m_groups):
        for j in range(i + 1, m_groups):
            t = np.zeros((m_groups, n, n))
            t[i] = slices[j]
            t[j] = -slices[i]
            gens.append(t.reshape(-1))
    drop = _DROP_FACTOR * float(np.linalg.norm(gt.q_star_full.array))
    basis = []
    dropped = 0
    for g in gens:
        v = g.copy()
        for _ in range(2):  # re-orthogonalize for stability
            for b in basis:
                v -= (b @ v) * b
        nv = float(np.linalg.norm(v))
        if nv > drop:
            basis.append(v / nv)
        else:
            dropped += 1
    if dropped:
        warnings.warn(
            f"{dropped} degenerate rotation generator(s) dropped", RuntimeWarning
        )
    if not basis:
        return 0.0
    projected = []
    for b in basis:
        t = b.reshape(m_groups, n, n)
        out = np.empty_like(t)
        for m in range(m_groups):
            out[m] = t[m] - perps[m] @ t[m] @ perps[m]
        projected.append(out.reshape(-1))
    gram = np.array([[float(p @ q) for q in projected] for p in projected])
    top = float(np.linalg.eigvalsh(gram)[-1])
    return float(np.sqrt(max(top, 0.0)))


class ConditionNumbers(NamedTuple):
    kappa0: float
    kappa1: float
    kappa2: float


def condition_numbers(gt: GroundTruth, ranks, p_max: float) -> ConditionNumbers:
    """Spectral difficulty constants of the ground truth; each is >= 1.

    kappa0: condition number of the M-by-M slice Gram matrix.
    kappa1: p_max^2 n^2 L over the squared Frobenius mass of the group slices.
    kappa2: sqrt(sum(K) * p_max * L) * n over the smallest nominal-rank
    singular value among the group slices.
    """
    m_groups, n, _ = gt.q_star_full.dims
    L = gt.w_star.shape[0]
    gram = mode23_product(gt.q_star_full, gt.q_star_full)
    ev = np.linalg.eigvalsh((gram + gram.T) / 2.0)
    if ev[-1] <= 0.0 or ev[0] <= 1e-12 * ev[-1]:
        raise RankDeficientError(max(ev[0], 0.0), max(ev[-1], 0.0), "slice Gram is singular")
    kappa0 = float(ev[-1] / ev[0])
    kappa1 = float(p_max**2 * n * n * L / np.linalg.norm(gt.q_star_full.array) ** 2)
    sig_min = np.inf
    for m in range(m_groups):
        vals = sym_eig_topk(gt.q_star_full.array[m], int(ranks[m])).values
        sig = float(np.abs(vals[-1]))
        top = float(np.abs(vals[0]))
        if sig < 1e-10 * max(top, 1e-300):
            raise DegenerateSliceError(
                f"slice {m}: singular value {sig:.3e} below nominal rank {ranks[m]}"
            )
        sig_min = min(sig_min, sig)
    k_dot = int(sum(int(k) for k in ranks))
    kappa2 = float(np.sqrt(k_dot * p_max * L) * n / sig_min)
    return ConditionNumbers(kappa0, kappa1, kappa2)


def beta_nl(n: int, L: int, m_groups: int, k_dot: int, kappa0: float, p_max: float) -> float:
    """Deterministic error-rate proxy; smaller means an easier regime."""
    if min(n, L, m_groups, k_dot) < 1 or not 0.0 < p_max <= 1.0 or kappa0 < 1.0:
        raise ValueError("need n, L, M, k_dot >= 1, p_max in (0, 1], kappa0 >= 1")
    lead = np.log(n + L) ** 2 * np.sqrt(m_groups**3 * kappa0**5)
    return float(lead * (np.sqrt(1.0 / (p_max * n * n)) + k_dot**2 / (p_max * n * min(n, L))))


@dataclass
class A1Report:
    """Per-group identifiability checks.

    ``a1a[m]``: the tangent-compressed other-group slices stay linearly
    independent (checked via the (M-1)-th relative singular value of their
    stacked vectorizations). ``a1b[m]``: group m's membership span is not
    contained in the direct sum of the others' (checked via the projection
    residual of its slice eigenbasis). ``min_singular_values`` and
    ``span_residuals`` carry the underlying relative magnitudes.
    """

    a1a: tuple
    a1b: tuple
    min_singular_values: tuple
    span_residuals: tuple

    @property
    def holds(self) -> bool:
        return all(self.a1a) and all(self.a1b)


def check_a1(gt: GroundTruth, ranks) -> A1Report:
    """Rank and span identifiability checks for every group."""
    m_groups, n, _ = gt.q_star_full.dims
    slices, bases, perps = _structural_projectors(gt, ranks)
    a1a, a1b, mins, resids = [], [], [], []
    for m in range(m_groups):
        others = [mp for mp in range(m_groups) if mp != m]
        if not others:
            a1a.append(True)
            mins.append(float("nan"))
        else:
            stacked = np.column_stack(
                [(perps[m] @ slices[mp] @ perps[m]).reshape(-1) for mp in others]
            )
            sv = np.linalg.svd(stacked, compute_uv=False)
            rel = float(sv[-1] / sv[0]) if sv[0] > 0.0 else 0.0
            a1a.append(bool(sv[0] > 0.0 and rel > _A1_TOL))
            mins.append(rel)
        if not others:
            a1b.append(True)
            resids.append(1.0)
        else:
            nearby = np.column_stack([bases[mp] for mp in others])
            u, sv, _ = np.linalg.svd(nearby, full_matrices=False)
            keep = sv > 1e-10 * sv[0] if sv[0] > 0.0 else sv > 0.0
            span = u[:, keep]
            resid_mat = bases[m] - span @ (span.T @ bases[m])
            rel = float(np.linalg.norm(resid_mat) / np.sqrt(bases[m].shape[1]))
            a1b.append(bool(rel > _A1_TOL))
            resids.append(rel)
    return A1Report(tuple(a1a), tuple(a1b), tuple(mins), tuple(resids))
