"""Synthetic instance and adjacency sampling with splittable random streams.

Every sampler takes an explicit stream. Streams are Philox counter-based
generators keyed by ``SeedSequence(master_seed, spawn_key=path)``, so any
worker can rebuild its own stream from the master seed and an integer path
without coordination, and results cannot depend on scheduling order.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import RetryExhaustedError
from .model import MmlsbmInstance, GroundTruth, assemble_ground_truth, planted_connectivity
from .tensors import Tensor3

__all__ = [
    "substream",
    "as_generator",
    "sample_instance",
    "sample_adjacency",
    "sample_dataset",
    "write_edge_list",
    "read_edge_list",
]

# label draws per vector before sample_instance gives up on an empty class
MAX_RETRIES = 100
# edges formatted per write by write_edge_list
_EDGES_PER_WRITE = 1 << 16


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for an integer path under one master seed."""
    ss = np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def as_generator(rng) -> np.random.Generator:
    """Accept a Generator or an int master seed."""
    if isinstance(rng, np.random.Generator):
        return rng
    return substream(int(rng))


def _draw_partition(rng, length, classes, what):
    # uniform labels, resampled until every class is hit
    for _ in range(MAX_RETRIES):
        labels = rng.integers(0, classes, size=length)
        if np.bincount(labels, minlength=classes).min() > 0:
            return labels.astype(np.int64)
    raise RetryExhaustedError(
        f"{what}: no draw with all {classes} classes nonempty in {MAX_RETRIES} tries"
    )


def sample_instance(
    n: int,
    L: int,
    M: int,
    K: int,
    p_max: float,
    alpha: float,
    rng,
) -> MmlsbmInstance:
    """Sample uniform layer groups and memberships with a planted connectivity.

    All M groups use K communities and the same B (p_max on the diagonal,
    alpha*p_max off it). Draws with an empty group or community are rejected,
    up to ``MAX_RETRIES`` per label vector.
    """
    if M > L:
        raise ValueError(f"M={M} groups cannot exceed L={L} layers")
    if K > n:
        raise ValueError(f"K={K} communities cannot exceed n={n} nodes")
    rng = as_generator(rng)
    z = _draw_partition(rng, L, M, "layer labels")
    memberships = tuple(
        _draw_partition(rng, n, K, f"memberships[{m}]") for m in range(M)
    )
    b = planted_connectivity(K, p_max, alpha)
    return MmlsbmInstance(
        n=n,
        L=L,
        M=M,
        K=(K,) * M,
        layer_labels=z,
        memberships=memberships,
        B=(b,) * M,
        p_max=p_max,
    )


def sample_adjacency(gt: GroundTruth, rng) -> Tensor3:
    """Bernoulli adjacency tensor from p_star: symmetric 0/1 slices, zero diagonal."""
    rng = as_generator(rng)
    L, n, _ = gt.p_star.dims
    iu = np.triu_indices(n, k=1)
    out = np.zeros((L, n, n))
    for l in range(L):
        probs = gt.p_star.array[l][iu]
        edges = (rng.random(probs.shape[0]) < probs).astype(np.float64)
        sl = np.zeros((n, n))
        sl[iu] = edges
        out[l] = sl + sl.T
    return Tensor3._wrap(out)


def sample_dataset(n, L, M, K, p_max, alpha, rng):
    """Convenience: one instance, its ground truth, and one adjacency draw."""
    rng = as_generator(rng)
    inst = sample_instance(n, L, M, K, p_max, alpha, rng)
    gt = assemble_ground_truth(inst)
    a = sample_adjacency(gt, rng)
    return inst, gt, a


def write_edge_list(x: Tensor3, path) -> None:
    """Write a 0/1 adjacency tensor as text lines ``l i j``.

    Indices are 0-based; each undirected edge appears once with i < j, in
    (l, i, j) order. Only what the file can hold is accepted: a tensor whose
    slices are 0/1, symmetric and zero on the diagonal. Any other raises
    ``ValueError`` naming the first layer at fault, since an entry below the
    diagonal alone or a self-loop would not survive the round trip.
    """
    arr = x.array
    faults = (
        ("an entry other than 0 or 1 (edge-list export requires a 0/1 tensor)",
         ((arr != 0.0) & (arr != 1.0)).any(axis=(1, 2))),
        ("a self-loop", np.diagonal(arr, axis1=1, axis2=2).any(axis=1)),
        ("an edge stored one way only", (arr != arr.transpose(0, 2, 1)).any(axis=(1, 2))),
    )
    for what, layers in faults:
        if layers.any():
            raise ValueError(f"layer {int(layers.argmax())} has {what}")
    n = x.dims[1]
    edges = np.argwhere((arr != 0.0) & np.triu(np.ones((n, n), dtype=bool), k=1))
    with open(path, "w", encoding="utf-8") as fh:
        # one formatted write per block; blocks bound the Python ints alive
        for block in np.split(edges, range(_EDGES_PER_WRITE, len(edges), _EDGES_PER_WRITE)):
            fh.write(("%d %d %d\n" * len(block)) % tuple(block.ravel().tolist()))


def _scan_edge_lines(path, layers: int | None, nodes: int | None) -> np.ndarray:
    """The (E, 3) edges of a file parsed line by line; a bad line raises naming it."""
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'l i j', got {line!r}")
            try:
                l, i, j = (int(p) for p in parts)
            except ValueError:
                raise ValueError(f"line {lineno}: expected integers 'l i j', got {line!r}") from None
            if min(l, i, j) < 0 or i == j:
                raise ValueError(f"line {lineno}: bad edge ({l}, {i}, {j})")
            if (layers is not None and l >= layers) or (nodes is not None and max(i, j) >= nodes):
                raise ValueError(
                    f"line {lineno}: edge ({l}, {i}, {j}) outside dims ({layers}, {nodes})"
                )
            edges.append((l, i, j))
    return np.array(edges, dtype=np.int64).reshape(-1, 3)


def _edges_ok(edges: np.ndarray, layers: int | None, nodes: int | None) -> bool:
    """Whether every row is an ``l i j`` edge: no negative index, no self-loop, inside the dims."""
    if edges.shape[1] != 3:
        return False
    l, i, j = edges.T
    return bool(
        edges.min(initial=0) >= 0 and np.all(i != j)
        and (layers is None or l.max(initial=-1) < layers)
        and (nodes is None or edges[:, 1:].max(initial=-1) < nodes)
    )


def read_edge_list(path, layers: int | None = None, nodes: int | None = None) -> Tensor3:
    """Read ``l i j`` lines back into a symmetric 0/1 tensor.

    Dims are inferred from the maxima when not given. Blank lines are
    skipped, and a ``#`` starts a comment, on a line of its own or after the
    three fields. The file is parsed in one ``np.loadtxt`` call and checked
    with array operations; only a file that fails a check is read again line
    by line, and the ``ValueError`` names its first bad line: a field count
    other than 3, a non-integer token, a negative index, a self-loop
    (``i == j``) or an edge outside the given dims.
    """
    for name, value in (("layers", layers), ("nodes", nodes)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    try:
        with warnings.catch_warnings():
            # an empty or comment-only file is valid; it fails the field count
            # check and the line scan returns no edges
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            edges = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2, encoding="utf-8")
        ok = _edges_ok(edges, layers, nodes)
    except ValueError:
        ok = False
    if not ok:
        edges = _scan_edge_lines(path, layers, nodes)
    l, i, j = edges.T
    if layers is None:
        layers = int(l.max(initial=-1)) + 1
    if nodes is None:
        nodes = int(edges[:, 1:].max(initial=-1)) + 1
    if layers < 1 or nodes < 1:
        raise ValueError("cannot infer dims from an empty edge list; pass layers and nodes")
    out = np.zeros((layers, nodes, nodes))
    out[l, i, j] = 1.0
    out[l, j, i] = 1.0
    return Tensor3._wrap(out)
