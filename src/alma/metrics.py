"""Misclassification rates up to label permutation.

The between-layer rate is the fraction of layers assigned outside their
matched group, minimized over group relabelings; the within-layer rate is the
same for one group's nodes; the average within rate is the unweighted mean
across groups. Alignment searches all permutations for small label counts and
solves an optimal assignment on the confusion matrix otherwise (the two agree
wherever both run).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InvalidPartitionError

EXHAUSTIVE_MAX = 6


def confusion_matrix(truth, est, k: int) -> np.ndarray:
    """Counts[t, e] = number of items with truth label t and estimated label e."""
    truth = np.asarray(truth)
    est = np.asarray(est)
    if truth.shape != est.shape or truth.ndim != 1:
        raise InvalidPartitionError("label vectors must be 1-d and equal length")
    if truth.size == 0:
        raise InvalidPartitionError("label vectors must be nonempty")
    for name, v in (("truth", truth), ("estimate", est)):
        if v.min() < 0 or v.max() >= k:
            raise InvalidPartitionError(f"{name} labels must lie in [0, {k})")
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (truth, est), 1)
    return counts


def _align_exhaustive(counts: np.ndarray):
    best_perm, best_hits = None, -1
    for perm in permutations(range(counts.shape[0])):
        hits = int(counts[np.arange(counts.shape[0]), perm].sum())
        if hits > best_hits:
            best_hits, best_perm = hits, perm
    return best_perm, best_hits


def _align_assignment(counts: np.ndarray):
    rows, cols = linear_sum_assignment(-counts)
    perm = np.empty(counts.shape[0], dtype=np.int64)
    perm[rows] = cols
    return tuple(int(c) for c in perm), int(counts[rows, cols].sum())


def best_permutation_error(truth, est, k: int):
    """Minimal mismatch rate over label permutations.

    Returns ``(rate, perm)`` where ``perm[t]`` is the estimated label matched
    to truth label t. Exhaustive search for k <= 6, optimal assignment above.
    """
    counts = confusion_matrix(truth, est, k)
    if k <= EXHAUSTIVE_MAX:
        perm, hits = _align_exhaustive(counts)
    else:
        perm, hits = _align_assignment(counts)
    rate = 1.0 - hits / counts.sum()
    return float(rate), tuple(perm)


def within_layer_error(truth_g, est_g, k: int) -> float:
    """Fraction of nodes miscommunitied in one group, minimized over relabelings."""
    return best_permutation_error(truth_g, est_g, k)[0]


def avg_within_error(rates) -> float:
    """Unweighted mean of per-group within-layer rates."""
    rates = [float(r) for r in rates]
    if not rates:
        raise ValueError("need at least one group rate")
    return float(np.mean(rates))


@dataclass
class ScoreReport:
    r_bl: float
    r_wl_per_group: tuple
    r_wl: float
    group_perm: tuple


def score_result(inst, result) -> ScoreReport:
    """Rates for a ClusteringResult against its instance.

    The between-layer alignment permutation pairs true group m with estimated
    group perm[m]; each within-layer rate then compares true memberships of
    group m against the node labels estimated for that matched group.
    """
    r_bl, perm = best_permutation_error(inst.layer_labels, result.layer_labels, inst.M)
    per_group = []
    for m in range(inst.M):
        est = np.asarray(result.node_labels[perm[m]])
        # square label space even if the matched group used a different rank
        k_eff = max(inst.K[m], int(est.max()) + 1)
        per_group.append(within_layer_error(inst.memberships[m], est, k_eff))
    per_group = tuple(per_group)
    return ScoreReport(r_bl, per_group, avg_within_error(per_group), perm)
