"""Problem instances: layer groups, block memberships, and planted probabilities.

An instance describes L networks on a shared node set [n]. Layers split into
M groups; all layers in group m share one stochastic block model with K_m
communities, membership matrix Theta_m, and connectivity B_m. Labels are
0-based throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPartitionError
from .tensors import Tensor3


def _as_labels(x, length, upper, what):
    arr = np.asarray(x)
    if arr.shape != (length,):
        raise InvalidPartitionError(f"{what}: expected shape ({length},), got {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(arr == arr.astype(np.int64)):
            raise InvalidPartitionError(f"{what}: labels must be integers")
    arr = arr.astype(np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= upper):
        raise InvalidPartitionError(f"{what}: labels must lie in [0, {upper})")
    return arr


@dataclass(eq=False)
class MmlsbmInstance:
    """A mixture multilayer SBM instance (parameters, not sampled edges)."""

    n: int
    L: int
    M: int
    K: tuple[int, ...]
    layer_labels: np.ndarray
    memberships: tuple[np.ndarray, ...]
    B: tuple[np.ndarray, ...]
    p_max: float

    def __post_init__(self):
        if min(self.n, self.L, self.M) < 1:
            raise ValueError("n, L, M must all be >= 1")
        if self.M > self.L:
            raise ValueError(f"M={self.M} groups cannot exceed L={self.L} layers")
        self.K = tuple(int(k) for k in self.K)
        if len(self.K) != self.M or any(k < 1 or k > self.n for k in self.K):
            raise ValueError(f"K must list {self.M} community counts in [1, n]")
        if not 0.0 < self.p_max <= 1.0:
            raise ValueError(f"p_max={self.p_max} must lie in (0, 1]")
        self.layer_labels = _as_labels(self.layer_labels, self.L, self.M, "layer labels")
        counts = np.bincount(self.layer_labels, minlength=self.M)
        if counts.min() == 0:
            raise InvalidPartitionError("every layer group must be nonempty")
        mems = []
        for m, g in enumerate(self.memberships):
            g = _as_labels(g, self.n, self.K[m], f"memberships[{m}]")
            if np.bincount(g, minlength=self.K[m]).min() == 0:
                raise InvalidPartitionError(f"group {m}: every community must be nonempty")
            mems.append(g)
        if len(mems) != self.M:
            raise InvalidPartitionError(f"expected {self.M} membership vectors")
        self.memberships = tuple(mems)
        bs = []
        for m, b in enumerate(self.B):
            b = np.asarray(b, dtype=np.float64)
            if b.shape != (self.K[m], self.K[m]):
                raise ValueError(f"B[{m}] must have shape ({self.K[m]}, {self.K[m]})")
            if not np.allclose(b, b.T, atol=1e-12):
                raise ValueError(f"B[{m}] must be symmetric")
            if b.min() < 0.0 or b.max() > self.p_max + 1e-12:
                raise ValueError(f"B[{m}] entries must lie in [0, p_max]")
            bs.append(b)
        if len(bs) != self.M:
            raise ValueError(f"expected {self.M} connectivity matrices")
        self.B = tuple(bs)

    @property
    def group_sizes(self) -> np.ndarray:
        return np.bincount(self.layer_labels, minlength=self.M)


@dataclass(eq=False)
class GroundTruth:
    """Assembled tensors for one instance.

    ``p_star`` (L, n, n) holds the per-layer edge-probability slices and
    ``q_star`` (M, n, n) the sqrt(L_m)-scaled per-group slices, both with
    zeroed diagonals (no self loops; this is what the estimator consumes).
    ``q_star_full`` keeps the diagonals, so each slice is exactly
    sqrt(L_m) * Theta_m B_m Theta_m^T with rank K_m; the theory diagnostics
    operate on that form. ``w_star`` is the (L, M) orthonormal layer-group
    factor with entries 1/sqrt(L_m) on the member rows.
    """

    p_star: Tensor3
    q_star: Tensor3
    w_star: np.ndarray
    q_star_full: Tensor3


def build_membership_matrix(labels, k: int) -> np.ndarray:
    """One-hot (n, k) membership matrix from a 0-based label vector."""
    labels = np.asarray(labels)
    labels = _as_labels(labels, labels.shape[0] if labels.ndim == 1 else -1, k, "labels")
    theta = np.zeros((labels.shape[0], k))
    theta[np.arange(labels.shape[0]), labels] = 1.0
    return theta


def planted_connectivity(k: int, p_max: float, alpha: float) -> np.ndarray:
    """Connectivity with p_max on the diagonal and alpha*p_max off it."""
    if not 0.0 < p_max <= 1.0:
        raise ValueError(f"p_max={p_max} must lie in (0, 1]")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha={alpha} must lie in [0, 1]")
    q = alpha * p_max
    return q * np.ones((k, k)) + (p_max - q) * np.eye(k)


def assemble_ground_truth(inst: MmlsbmInstance) -> GroundTruth:
    """Build (P*, Q*, W*) from an instance.

    Satisfies ``p_star == mode1_product(q_star, w_star)`` and
    ``w_star.T @ w_star == I`` exactly up to float rounding.
    """
    n, L, M = inst.n, inst.L, inst.M
    sizes = inst.group_sizes
    group_zero = []
    q_full = np.empty((M, n, n))
    q_zero = np.empty((M, n, n))
    for m in range(M):
        theta = build_membership_matrix(inst.memberships[m], inst.K[m])
        block = theta @ inst.B[m] @ theta.T
        zeroed = block.copy()
        np.fill_diagonal(zeroed, 0.0)
        group_zero.append(zeroed)
        scale = np.sqrt(sizes[m])
        q_full[m] = scale * block
        q_zero[m] = scale * zeroed
    p = np.empty((L, n, n))
    for l in range(L):
        p[l] = group_zero[inst.layer_labels[l]]
    w = np.zeros((L, M))
    w[np.arange(L), inst.layer_labels] = 1.0 / np.sqrt(sizes[inst.layer_labels])
    return GroundTruth(Tensor3(p), Tensor3(q_zero), w, Tensor3(q_full))


def instance_to_json(inst: MmlsbmInstance) -> dict:
    return {
        "n": inst.n,
        "L": inst.L,
        "M": inst.M,
        "K": list(inst.K),
        "z": inst.layer_labels.tolist(),
        "memberships": [g.tolist() for g in inst.memberships],
        "B": [b.tolist() for b in inst.B],
        "p_max": inst.p_max,
    }


def instance_from_json(obj: dict) -> MmlsbmInstance:
    try:
        return MmlsbmInstance(
            n=int(obj["n"]),
            L=int(obj["L"]),
            M=int(obj["M"]),
            K=tuple(int(k) for k in obj["K"]),
            layer_labels=np.asarray(obj["z"]),
            memberships=tuple(np.asarray(g) for g in obj["memberships"]),
            B=tuple(np.asarray(b) for b in obj["B"]),
            p_max=float(obj["p_max"]),
        )
    except KeyError as exc:
        raise ValueError(f"instance JSON missing field {exc}") from exc


def save_instance(inst: MmlsbmInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_json(inst), fh, indent=1)
        fh.write("\n")


def load_instance(path) -> MmlsbmInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(json.load(fh))
