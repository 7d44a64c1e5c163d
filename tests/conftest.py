import multiprocessing
import os
import tracemalloc
from contextlib import contextmanager

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


def blas_thread_count() -> int:
    """numpy's OpenBLAS thread count, read by setting it and putting it back."""
    found = linalg.pin_blas_threads(1)
    linalg.pin_blas_threads(found)
    return found


def scipy_blas_thread_count() -> int:
    """scipy's OpenBLAS thread count, read the same way."""
    found = linalg._scipy_openblas_threads_local(1)
    linalg._scipy_openblas_threads_local(found)
    return found


@contextmanager
def one_cpu():
    """Holds this process to one CPU inside the block, then puts its CPUs back.

    A fit from ``LANCZOS_MIN_N`` nodes up then runs its sweeps in this
    process alone, on numpy's thread count as it finds it.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


class SharedLog:
    """An append-only list of ints, or of ``width``-tuples of ints, that the
    processes this one forks append to as well.

    Its slots and its length live in shared memory made before any fork, so
    a spy that logs here sees the calls a fit's sweep helpers make too. The
    order of entries from different processes is the order they came in.
    """

    def __init__(self, width=1, size=4096):
        ctx = multiprocessing.get_context("fork")
        self.width = width
        self._slots = ctx.RawArray("q", width * size)
        self._len = ctx.Value("q", 0)

    def append(self, item) -> None:
        row = tuple(item) if self.width > 1 else (item,)
        with self._len.get_lock():
            i = self._len.value * self.width
            self._slots[i:i + self.width] = row
            self._len.value += 1

    def clear(self) -> None:
        with self._len.get_lock():
            self._len.value = 0

    def __len__(self) -> int:
        return self._len.value

    def __iter__(self):
        flat = self._slots[:len(self) * self.width]
        if self.width == 1:
            return iter(flat)
        return iter([tuple(flat[i:i + self.width]) for i in range(0, len(flat), self.width)])

    def __eq__(self, other):
        return list(self) == list(other)

    def __repr__(self):
        return f"SharedLog({list(self)!r})"


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


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail every test that leaves a child process of this one running."""
    yield
    assert multiprocessing.active_children() == [], "the test left a child process"


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def eigsh_calls(monkeypatch):
    """The k of every Lanczos call rank_project makes while the test runs,
    in this process or a sweep helper it forks."""
    calls = SharedLog()

    def spy(*args, **kwargs):
        calls.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(linalg, "eigsh", spy)
    return calls


@pytest.fixture
def cholesky_calls(monkeypatch):
    """The shape of every Cholesky factorization a certificate runs while the
    test runs, in this process or a sweep helper it forks."""
    calls = SharedLog(width=2)
    real = linalg._positive_definite

    def spy(f, lower):
        calls.append(f.shape)
        return real(f, lower)

    monkeypatch.setattr(linalg, "_positive_definite", spy)
    return calls
