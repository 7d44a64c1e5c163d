"""Misclassification rates up to label permutation.

The between-layer rate is the fraction of layers assigned outside their
matched group, minimized over group relabelings; the within-layer rate is the
same for one group's nodes; the average within rate is the unweighted mean
across groups. Alignment searches all permutations for small label counts and
solves an optimal assignment on the confusion matrix otherwise (the two agree
wherever both run). The assignment solver is this module's own
:func:`max_weight_assignment`, which clustering also uses to match k-means
clusters to factor columns, so importing alma does not load scipy's
optimization package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

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


def max_weight_assignment(scores) -> list:
    """Column matched to each row by a bijection of largest total score.

    ``scores`` is a finite square k x k array; entry [r, c] is the gain of
    pairing row r with column c, and the result's entry r is row r's column.
    Exact in O(k^3): rows join one at a time, each along a shortest
    augmenting path in reduced costs kept nonnegative by row and column
    potentials (Kuhn 1955, in the shortest-path form of Jonker & Volgenant
    1987). Ties resolve as in scipy's ``linear_sum_assignment``, whose steps
    this follows: each search scans the columns from the last one down,
    dropping each column it reaches by swapping in the last one left, and
    of the columns at the lowest path cost it takes the last free one
    scanned, else the first scanned. So a constant matrix gives the
    identity.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] != scores.shape[1]:
        raise ValueError(f"scores must be a square matrix, got shape {scores.shape}")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    cost = (-scores).tolist()
    k = len(cost)
    u, v = [0.0] * k, [0.0] * k
    col_of, row_of = [-1] * k, [-1] * k
    for start in range(k):
        dist, via = [math.inf] * k, [-1] * k
        rows_seen, cols_seen = [], []
        todo = list(range(k - 1, -1, -1))
        i, reach, sink = start, 0.0, -1
        # Dijkstra over the columns from row `start` until a free column
        while sink < 0:
            rows_seen.append(i)
            lowest, at = math.inf, -1
            for pos, j in enumerate(todo):
                r = reach + cost[i][j] - u[i] - v[j]
                if r < dist[j]:
                    dist[j], via[j] = r, i
                if dist[j] < lowest or (dist[j] == lowest and row_of[j] < 0):
                    lowest, at = dist[j], pos
            reach = lowest
            j = todo[at]
            cols_seen.append(j)
            todo[at] = todo[-1]
            todo.pop()
            if row_of[j] < 0:
                sink = j
            else:
                i = row_of[j]
        # move the potentials so every reduced cost stays nonnegative
        u[start] += reach
        for i in rows_seen[1:]:
            u[i] += reach - dist[col_of[i]]
        for j in cols_seen:
            v[j] -= reach - dist[j]
        # flip the path: each column on it takes the row that reached it
        j = sink
        while True:
            i = via[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    return col_of


def _align_assignment(counts: np.ndarray):
    perm = max_weight_assignment(counts)
    return tuple(perm), int(counts[np.arange(counts.shape[0]), perm].sum())


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
