import tracemalloc

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

from alma import linalg
from alma.model import MmlsbmInstance, assemble_ground_truth, planted_connectivity
from alma.sampling import sample_adjacency, sample_instance, substream
from alma.tensors import Tensor3


def make_truth(seed, n=30, L=12, m=2, k=2, p_max=0.7, alpha=0.5):
    inst = sample_instance(n, L, m, k, p_max, alpha, substream(seed, 0))
    return inst, assemble_ground_truth(inst)


def checkerboard_truth():
    """Two groups over the same community partition, different rates.

    The group slices then share their eigenspaces exactly, so a rotation
    mixing the groups is invisible to the tangent projector.
    """
    n, L = 30, 12
    shared = np.arange(n) % 3
    inst = MmlsbmInstance(
        n=n,
        L=L,
        M=2,
        K=(3, 3),
        layer_labels=np.array([0] * 6 + [1] * 6),
        memberships=(shared.copy(), shared.copy()),
        B=(planted_connectivity(3, 0.8, 0.5), planted_connectivity(3, 0.6, 0.3)),
        p_max=0.8,
    )
    return inst, assemble_ground_truth(inst)


def hollow_core(gt):
    """The group slices of ``gt.q_star_full`` with zeroed diagonals, whose
    mode-1 product with ``gt.w_star`` is ``gt.p_star``."""
    q = gt.q_star_full.array.copy()
    for sl in q:
        np.fill_diagonal(sl, 0.0)
    return Tensor3(q)


def make_noisy(seed, **kw):
    inst, gt = make_truth(seed, **kw)
    adj = sample_adjacency(gt, substream(seed, 1))
    return inst, gt, adj


needs_blas_pin = pytest.mark.skipif(linalg.pin_blas_threads is None,
                                    reason="numpy's OpenBLAS thread count cannot be set")


def at_one_and_two_blas_threads(fn) -> tuple:
    """``fn()`` run with numpy's OpenBLAS on one thread, then on two.

    Puts back the thread count it found.
    """
    found = linalg.pin_blas_threads(1)
    try:
        one = fn()
        linalg.pin_blas_threads(2)
        return one, fn()
    finally:
        linalg.pin_blas_threads(found)


def traced_peak(fn) -> int:
    """Bytes that ``fn()`` holds at its peak beyond what was allocated before it.

    Counts what tracemalloc sees, which includes numpy's array buffers.
    """
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def eigsh_calls(monkeypatch):
    """The k of every Lanczos call rank_project makes while the test runs."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(linalg, "eigsh", spy)
    return calls


@pytest.fixture
def cholesky_calls(monkeypatch):
    """The shape of every Cholesky factorization a certificate runs while the test runs."""
    calls = []
    real = linalg._positive_definite

    def spy(f, lower):
        calls.append(f.shape)
        return real(f, lower)

    monkeypatch.setattr(linalg, "_positive_definite", spy)
    return calls
