"""Deterministic eigen/SVD kernels shared across the pipeline.

Eigenpairs come back sorted by the requested key in a stable tie order.
:func:`sym_eig_topk` and :func:`svd_top_left` sign each vector so that its
largest-magnitude coordinate is positive (lowest index wins a tie);
:func:`rank_project` below full rank does not, as its pairs only enter
V diag(w) V^T and the forms v^T A v, which no sign changes. Given equal
inputs the outputs are bit-identical, which is what the reproducibility
contract of the harness leans on.

One dense kernel serves every eigenproblem: :func:`sym_eig_topk` and
:func:`rank_project` return only the eigenpairs they keep, as
:class:`EigPairs`, which only ``_from_pairs`` densifies. The kernel
tridiagonalizes once (LAPACK ``dsytrd``), takes by MRRR (``dstemr``) the k
highest eigenpairs of the tridiagonal, or by magnitude the k lowest and k
highest (k+1 at each end from ``LANCZOS_MIN_N`` nodes up, where the
certificate needs |lambda_{k+1}|), keeps k by a stable sort and
back-transforms only those (``dormqr``), all on one thread of the OpenBLAS
that scipy bundles apart from numpy's; its LAPACK wrappers hold the GIL, so
threads cannot overlap the kernel. The W-step's quadratic forms v^T A_l v
(``_quadratic_forms``) run on that one thread too, so that no result depends
on numpy's thread count.

:func:`rank_project` can also take a warm start, a :class:`Certificate`. From
``LANCZOS_MIN_N`` nodes up every call leaves in it the next call's Lanczos
start, taken from the pairs it returns; a call that finds one asks ARPACK's
Lanczos for the top-k pairs and keeps them only after an exact certificate
(two Cholesky factorizations) proves no other eigenvalue is as large in
magnitude; otherwise, and below the crossover, it runs the dense kernel. The
:class:`Certificate` carries the last proof to the next, nearby slice, so
that most warm calls keep their Lanczos pairs with no factorization at all.
The Lanczos path runs on one thread of scipy's OpenBLAS too: its
matrix-vector product is ``dsymv`` on one triangle of the slice, which at
n=600 stays in a core's L2 cache where a general product does not, and
``dpotrf`` factors the certificate's one n x n buffer in place. On scipy's
default two threads its calls contend with numpy's pool, and fits ran
slower than with numpy's general product.

:func:`pin_blas_threads` sets the thread count of numpy's bundled OpenBLAS,
so concurrent processes can each run single-threaded BLAS instead of
oversubscribing the cores; it is None when numpy does not bundle an OpenBLAS
that has it. The count is process-wide. Every process alma forks, a fit's
sweep helper (:mod:`alma.solver`) or a fan-out worker of the harness, comes
from one primitive, :func:`_forked`: it sets numpy's and scipy's counts to
one before the first fork (:func:`_blas_on_one_thread_across_forks`), its
children inherit them and set none, and it puts back the counts it found
once every child is joined.
"""

from __future__ import annotations

import ctypes
import glob
import multiprocessing
import os
import signal
import threading
import warnings
from contextlib import contextmanager
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np
import scipy
from scipy.linalg import blas, lapack
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .errors import RankDeficientError

SYMMETRY_RTOL = 1e-8
# Smallest n at which warm Lanczos plus its certificate beats the dense kernel.
LANCZOS_MIN_N = 250
# Where a re-certification puts its t between the estimate of |lambda_{k+1}|
# and |theta_k|, as a fraction of that gap up from the estimate. Cholesky
# factorizations per fit-large fit (n=600, 100 sweeps) on seeds 1-4, against
# 594 each without the carry: 0.02 -> 215/48/34/205, 0.1 -> 196/50/34/199,
# 0.25 -> 211/52/38/220, 0.5 -> 255/68/48/237, 0.75 -> 380/106/72/348. Lower
# leaves more margin to carry; too low fails and falls back more often.
RECERTIFY_FRAC = 0.1
# polar_project calls a matrix rank-deficient when its smallest singular value
# is below this fraction of its largest
RANK_TOL = 1e-10
_EPS = np.finfo(np.float64).eps


def _bind_openblas_threads_local(package):
    # from OpenBLAS 0.3.27 on; numpy's and scipy's wheels each bundle their
    # own, as <package>.libs/libscipy_openblas*
    site = os.path.dirname(os.path.dirname(package.__file__))
    libs = os.path.join(site, package.__name__ + ".libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
        return setter
    return None


_openblas_threads_local = _bind_openblas_threads_local(np)
# scipy's LAPACK wrappers run on scipy's OpenBLAS, which has a thread pool of its own
_scipy_openblas_threads_local = _bind_openblas_threads_local(scipy)
_scipy_blas_lock = threading.Lock()


def _pin_blas_threads(count: int = 1) -> int:
    """Run numpy's BLAS calls on ``count`` OpenBLAS threads; returns the previous count.

    Despite the setter's name, the pthreads build of OpenBLAS that numpy's
    wheels bundle changes the count for the whole process, not only for the
    calling thread, so a caller puts back the count it found when done.
    """
    return _openblas_threads_local(count)


# None when numpy's BLAS is not an OpenBLAS with the thread-count setter
pin_blas_threads = _pin_blas_threads if _openblas_threads_local is not None else None


def _usable_cpus() -> int:
    """The CPUs this process may run on; one where numpy's BLAS cannot be
    pinned, and in a daemonic process, which multiprocessing does not let
    fork children (every process :func:`_forked` starts is one)."""
    if pin_blas_threads is None or multiprocessing.current_process().daemon:
        return 1
    return len(os.sched_getaffinity(0))


class EigPairs(NamedTuple):
    values: np.ndarray
    vectors: np.ndarray


def canonical_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's largest |entry| is positive."""
    vectors = np.array(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ValueError("expected a matrix of column vectors")
    idx = np.abs(vectors).argmax(axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0.0] = 1.0
    return vectors * signs


def _symmetric_slices(stack: np.ndarray) -> bool:
    """Whether every slice ``stack[l]`` is square and no further from its
    transpose than ``SYMMETRY_RTOL`` of its Frobenius norm, the rule every
    symmetric eigen step applies. A non-finite slice passes, to fail later
    as non-finite."""
    return stack.shape[1] == stack.shape[2] and all(
        np.array_equal(s, s.T)
        or not np.linalg.norm(s - s.T) > SYMMETRY_RTOL * np.linalg.norm(s) for s in stack)


def _require_symmetric(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if np.array_equal(a, a.T):
        # already exact; C-contiguous, so that a.T is the same matrix in
        # Fortran order for scipy's BLAS and LAPACK, with no copy
        return np.ascontiguousarray(a)
    if not _symmetric_slices(a[None]):
        raise ValueError("matrix is not symmetric to relative tolerance 1e-8")
    return (a + a.T) / 2.0


def sym_eig_topk(a: np.ndarray, k: int, by_magnitude: bool = True) -> EigPairs:
    """Top-k eigenpairs of a symmetric matrix.

    Ordered by decreasing |eigenvalue| when ``by_magnitude`` (ties keep
    ascending-value order, so the order is deterministic), else by decreasing
    eigenvalue, equal ones in ascending order. Vectors are sign-canonicalized.
    The pairs come from ``_kept_pairs``, the one dense kernel here.
    """
    a = _require_symmetric(a)
    n = a.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    w, v, _ = _kept_pairs(a, k, by_magnitude=by_magnitude)
    return EigPairs(w, canonical_signs(v))


def _lanczos_applies(n: int, k: int) -> bool:
    return n >= LANCZOS_MIN_N and 2 * k + 1 < n


@lru_cache(maxsize=64)
def _fixed_unit(n: int) -> np.ndarray:
    # drawn once per n and shared by every caller, so read-only
    r = np.random.default_rng(0).standard_normal(n)
    r /= np.linalg.norm(r)
    r.setflags(write=False)
    return r


class Certificate:
    """The eigen-certificate one slice carries from projection to projection.

    Pass it as :func:`rank_project`'s ``start``. Before each call the caller
    sets ``key``, whatever names the slice to the caller, and ``drift``, a
    bound on the Frobenius distance from the slice to the one proved under
    ``ref``. A call that proves its slice sets ``ref = key``. After every
    call, at most k eigenvalues of the slice proved under ``ref`` lie
    outside (-tau, tau); ``ref_norm`` is that slice's Frobenius norm and
    ``below`` estimates its |lambda_{k+1}|. ``v0`` is the next call's
    Lanczos start, which every call above the crossover sets from the pairs
    it returned (V (lambda * V^T r), normalized, plus ``1e-3 * r`` for a
    fixed unit r, so no direction is missed); None runs the dense kernel.
    """

    __slots__ = ("v0", "key", "drift", "ref", "ref_norm", "tau", "below")

    def __init__(self):
        self.v0 = self.key = None
        self.drift = np.inf
        self.ref = None  # no proof yet
        self.ref_norm = self.tau = np.inf
        self.below = np.inf  # no estimate yet

    def _prove(self, a: np.ndarray, tau: float) -> None:
        self.ref = self.key
        self.ref_norm = float(np.linalg.norm(a))
        self.tau = tau + _round_off(a.shape[0], self.ref_norm)


def _round_off(n: int, scale: float) -> float:
    # a generous bound on the float error of an n x n product, eigh or
    # Cholesky of matrices of Frobenius norm at most `scale`
    return n * n * _EPS * scale


def _ritz_radius(a: np.ndarray, w: np.ndarray, v: np.ndarray) -> float:
    """Each Ritz value lies this close to its own eigenvalue of ``a``.

    Kahan's bound ||AQ - Q diag(w)||_2 for an orthonormal Q (Parlett 1998,
    thm 11.5.1: the k Ritz values match k distinct eigenvalues). ARPACK's V
    is orthonormal to rounding only: with eta >= ||V^T V - I||_2 and
    Q = V (V^T V)^{-1/2}, the residual of Q is at most
    ||AV - V diag(w)||_2 / sqrt(1 - eta) + 2 sqrt(1 + eta) max|w| eta / (1 - eta).
    """
    n, k = v.shape
    eta = np.linalg.norm(v.T @ v - np.eye(k)) + n * _EPS
    if eta >= 0.5:
        return np.inf
    # a is symmetric, so its transpose is the same matrix in Fortran order
    resid = np.linalg.norm(blas.dsymm(1.0, a.T, v, lower=1) - v * w)
    return (resid / np.sqrt(1.0 - eta)
            + 2.0 * np.sqrt(1.0 + eta) * float(np.abs(w).max()) * eta / (1.0 - eta))


def _from_pairs(pairs) -> np.ndarray:
    """The matrix ``V diag(w) V^T`` of the eigenpairs ``(w, V)``."""
    w, v = pairs
    return (v * w) @ v.T


def _positive_definite(f: np.ndarray, lower: bool) -> bool:
    """Whether the symmetric matrix in one triangle of ``f`` is positive definite.

    ``f`` is Fortran-ordered; ``dpotrf`` reads the ``lower`` (else upper)
    triangle, overwrites it with its Cholesky factor, or part of one, and
    leaves the other triangle alone. Raises ``LinAlgError`` on a bad argument.
    """
    _, info = lapack.dpotrf(f, lower=lower, clean=0, overwrite_a=1)
    if info < 0:
        raise np.linalg.LinAlgError(f"dpotrf failed with info={info}")
    return info == 0


def _residual_within(a: np.ndarray, w: np.ndarray, v: np.ndarray, t: float) -> bool:
    """Whether every eigenvalue of R = A - V diag(w) V^T lies in (-t, t).

    True exactly when tI - R and tI + R are both positive definite, which
    two Cholesky factorizations decide. Both use one n x n buffer: the first
    factors one triangle of tI - R, the second the other triangle, negated,
    with the diagonal of tI + R put back from a saved copy.
    """
    n = a.shape[0]
    buf = _from_pairs((w, v))
    buf -= a
    diag = buf.reshape(-1)[:: n + 1]
    diag += t
    saved = diag.copy()
    # the transpose of C-ordered buf is Fortran-ordered; its upper triangle
    # is buf's lower one
    if not _positive_definite(buf.T, lower=False):
        return False
    # tI + R = 2tI - (tI - R); the factored triangle is read no more
    np.negative(buf, out=buf)
    np.subtract(2.0 * t, saved, out=diag)
    return _positive_definite(buf.T, lower=True)


def _certified_topk(a: np.ndarray, k: int, cert: Certificate):
    """Top-k Lanczos pairs (values, vectors) started at ``cert.v0``, or None when uncertified.

    If ||R||_2 < t for R = A - V diag(w) V^T, Weyl's inequality puts every
    eigenvalue of A but k inside (-t, t); with t just below |w_k| no
    discarded eigenvalue then outranks a kept one. The ``cert`` first tries
    to carry its last proof to ``a``: the slice proved under ``ref`` has at
    most k eigenvalues outside (-tau, tau), so by Weyl ``a`` has at most k
    outside (-tau - d, tau + d), where d = ``cert.drift`` bounds the
    Frobenius, and so the spectral, norm of the difference. The pairs are
    kept with no factorization when every Ritz value, less its distance to
    its own eigenvalue, still lies beyond tau + d. When the margin runs out,
    ``a`` is proved again at a t inside the gap below |w_k|
    (``RECERTIFY_FRAC``), which proves more than t just below |w_k| and
    leaves margin to carry; failing that, at t just below |w_k|.

    Its BLAS and LAPACK calls go to scipy's OpenBLAS; :func:`rank_project`
    runs it on one thread of that pool.
    """
    n = a.shape[0]
    # x -> A x by dsymv on one triangle: half the reads of a general product,
    # so that at n=600 the slice stays in a core's L2 cache. a is symmetric,
    # so its transpose is the same matrix in Fortran order.
    matvec = LinearOperator(a.shape, matvec=partial(blas.dsymv, 1.0, a.T, lower=1),
                            dtype=np.float64)
    try:
        w, v = eigsh(matvec, k=k, which="LM", v0=cert.v0, ncv=max(2 * k + 1, 10), tol=0)
    except ArpackError:
        return None
    order = np.argsort(-np.abs(w), kind="stable")
    w, v = w[order], v[:, order]
    trials = [abs(w[-1]) * (1.0 - 1e-9)]
    if cert.ref is not None:
        # every kept Ritz value's own eigenvalue lies at least this far out
        floor = (abs(w[-1]) - _ritz_radius(a, w, v)
                 - _round_off(n, cert.ref_norm + cert.drift))
        if floor > cert.tau + cert.drift:
            return w, v
        if np.isfinite(cert.below):
            t = cert.below + RECERTIFY_FRAC * (abs(w[-1]) - cert.below)
            if t < floor:
                trials.insert(0, t)
    for t in trials:
        if _residual_within(a, w, v, t):
            cert._prove(a, t)
            return w, v
        # ||R||_2, about |lambda_{k+1}|, is at least t: aim higher next time
        cert.below = t
    return None


# True inside _blas_on_one_thread_across_forks, in the caller and in every
# child it forks there
_held_on_one_thread = False


@contextmanager
def _scipy_blas_on_one_thread():
    """Run scipy's OpenBLAS on one thread inside the block, then put its count back.

    Its pool contends with numpy's: right after a numpy BLAS call, a blocked
    ``dsytrd`` at n=100 took 3.0 ms on scipy's default two threads and 0.17
    ms on one. The lock keeps concurrent callers from restoring each other's
    counts. Inside :func:`_blas_on_one_thread_across_forks` the count is one
    already and is left alone.
    """
    if _scipy_openblas_threads_local is None or _held_on_one_thread:
        yield
        return
    with _scipy_blas_lock:
        found = _scipy_openblas_threads_local(1)
        try:
            yield
        finally:
            _scipy_openblas_threads_local(found)


@contextmanager
def _blas_on_one_thread_across_forks():
    """numpy's and scipy's OpenBLAS on one thread inside the block, in this
    process and in every child forked there, which inherits the counts.

    A fork shuts both libraries' thread pools down, and setting a count
    after it starts a pool again, whose new threads busy-wait for about
    0.1 s on the CPUs the processes need. So both counts are set here once,
    before any fork, and no process sets them again inside the block
    (:func:`_scipy_blas_on_one_thread` leaves scipy's alone); on exit the
    counts found are put back. A count that cannot be set is left alone.
    """
    global _held_on_one_thread
    numpy_found = pin_blas_threads(1) if pin_blas_threads is not None else None
    with _scipy_blas_lock:
        scipy_found = (_scipy_openblas_threads_local(1)
                       if _scipy_openblas_threads_local is not None else None)
        _held_on_one_thread = True
    try:
        yield
    finally:
        with _scipy_blas_lock:
            _held_on_one_thread = False
            if scipy_found is not None:
                _scipy_openblas_threads_local(scipy_found)
        if numpy_found is not None:
            pin_blas_threads(numpy_found)


def _child(target, conn, parents_ends, args) -> None:
    """A forked child: ``target(conn, *args)`` until EOF on ``conn``, and
    the first error it meets sent back. It ignores SIGINT, which a terminal
    sends to the whole process group: the parent stops it. Its copies of
    the parent's ends would keep its own pipe open, so it closes them."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in parents_ends:
        end.close()
    try:
        target(conn, *args)
    except EOFError:
        return
    except Exception as exc:
        conn.send(exc)


@contextmanager
def _forked(target, child_args):
    """Fork one daemonic child per entry of ``child_args``, each running
    ``target(conn, *args)`` on its end of a pipe; yields this process's ends,
    in that order.

    The children share this process's pages as they were at the fork, and
    run inside :func:`_blas_on_one_thread_across_forks`. On exit every end
    is closed, so that a child waiting for work reads EOF and returns; after
    an error or an interrupt a child still at work is terminated, since its
    work is void. Every child is joined before the counts are put back.
    """
    ctx = multiprocessing.get_context("fork")
    conns, children = [], []
    finished = False
    with _blas_on_one_thread_across_forks():
        try:
            for args in child_args:
                conn, theirs = ctx.Pipe()
                conns.append(conn)
                child = ctx.Process(target=_child, args=(target, theirs, conns, args),
                                    daemon=True)
                child.start()
                children.append(child)
                theirs.close()
            yield conns
            finished = True
        finally:
            if not finished:
                for child in children:
                    child.terminate()
            for conn in conns:
                conn.close()
            for child in children:
                child.join()


def _reply(conn):
    """The next reply of the child at the other end of ``conn``: raises the
    error it sent, or ``RuntimeError`` when it ended without a reply."""
    try:
        reply = conn.recv()
    except EOFError:
        raise RuntimeError("a forked worker process ended unexpectedly") from None
    if isinstance(reply, Exception):
        raise reply
    return reply


@lru_cache(maxsize=64)
def _sytrd_lwork(n: int) -> int:
    work, info = lapack.dsytrd_lwork(n, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsytrd_lwork failed with info={info}")
    return max(int(work), n)


def _quadratic_forms(mats, vectors: np.ndarray) -> np.ndarray:
    """``out[l, i] = v_i^T M_l v_i`` over the matrices ``M_l`` of ``mats`` and
    the columns ``v_i`` of ``vectors``.

    The products run on one thread of scipy's OpenBLAS: numpy's, at n=450
    and up, splits a product of this shape by its thread count and moves
    its last bits, and with them a fit's. Each takes ``M_l^T``, since
    v^T M v = v^T M^T v for any M: the transpose of a C-ordered matrix is
    Fortran-ordered, which BLAS reads without a copy.
    """
    vectors = np.asfortranarray(vectors)
    with _scipy_blas_on_one_thread():
        prods = np.stack([blas.dgemm(1.0, m.T, vectors) for m in mats])
    return np.einsum("lri,ri->li", prods, vectors)


def _kept_pairs(a: np.ndarray, k: int, with_below: bool = False, by_magnitude: bool = True):
    """The k largest-magnitude (else largest) eigenpairs of ``a``, for 1 <= k <= n.

    Returns ``(values, vectors, below)``, in the order a stable sort of a full
    ``eigh``'s ascending spectrum gives: by decreasing |eigenvalue|, -lambda
    before lambda, when ``by_magnitude``, else by decreasing eigenvalue.
    ``below`` is |lambda_{k+1}| when ``with_below`` (by magnitude, k < n),
    else None. ``a`` is tridiagonalized once, T = Q^T A Q; MRRR finds T's k
    highest eigenpairs by value, or else its j lowest and j highest (all n
    when those overlap), among which are the j largest in magnitude, for
    j = k, or k+1 with ``below``; and only the k kept vectors are multiplied
    by Q. Raises ``LinAlgError`` when a LAPACK routine fails or finds fewer
    pairs than asked for, as on a non-finite ``a``.
    """
    n = a.shape[0]
    j = k + 1 if with_below else k
    if not by_magnitude:
        ends = ((n - k + 1, n),)
    else:
        ends = ((1, j), (n - j + 1, n)) if 2 * j < n else ((1, n),)
    with _scipy_blas_on_one_thread():
        # a is symmetric, so its transpose is the same matrix in Fortran order
        c, d, e, tau, info = lapack.dsytrd(a.T, lower=1, lwork=_sytrd_lwork(n))
        if info != 0:
            raise np.linalg.LinAlgError(f"dsytrd failed with info={info}")
        values, vectors = [], []
        for lo, hi in ends:  # pairs lo..hi of T, counted from 1 in ascending order
            off = np.empty(n)  # dstemr wants n entries and overwrites them
            off[:-1] = e
            found, w, z, info = lapack.dstemr(d, off, 2, 0.0, 0.0, lo, hi)
            if info != 0 or found != hi - lo + 1:
                raise np.linalg.LinAlgError(
                    f"dstemr found {found} of eigenpairs {lo}..{hi} with info={info}")
            values.append(w[:found])
            # z is n x n; drop it before the next call, keeping its found columns
            vectors.append(z[:, :found].copy())
            del z
        w = np.concatenate(values)
        order = np.argsort(-np.abs(w) if by_magnitude else -w, kind="stable")
        keep = order[:k]
        z = np.asfortranarray(np.concatenate(vectors, axis=1)[:, keep])
        # Q = H(1)...H(n-1) leaves the first coordinate alone; its reflectors
        # sit below the subdiagonal, laid out as a QR factor of the trailing
        # block. At n = 1 there are none, and Q = I.
        if n > 1:
            qz, _, info = lapack.dormqr("L", "N", c[1:, :-1], tau, z[1:], 64 * k, overwrite_c=1)
            if info != 0:
                raise np.linalg.LinAlgError(f"dormqr failed with info={info}")
            z[1:] = qz
    return w[keep], z, float(abs(w[order[k]])) if with_below else None


def rank_project(a: np.ndarray, k: int, start: Certificate | None = None) -> EigPairs:
    """The eigenpairs of the Frobenius-nearest symmetric matrix of rank <= k.

    Returns the k largest-magnitude eigenpairs, in decreasing |eigenvalue|;
    of -lambda and lambda tied at the cut it keeps -lambda, as
    :func:`sym_eig_topk` does. ``k >= n`` returns the full eigendecomposition
    (:func:`sym_eig_topk` with k = n), whose matrix is ``a`` itself; ``k > n``
    additionally emits a warning. ``start`` is an optional
    :class:`Certificate`: it carries the Lanczos start and the proof from the
    previous call on a nearby matrix, and is refreshed in place, down to the
    next call's start. It changes only how the eigenpairs are found.
    """
    a = _require_symmetric(a)
    n = a.shape[0]
    if k < 1:
        raise ValueError(f"k={k} must be positive")
    if k >= n:
        if k > n:
            warnings.warn(f"rank {k} exceeds dimension {n}, clamping", RuntimeWarning)
        return sym_eig_topk(a, n)
    lanczos = start is not None and _lanczos_applies(n, k)
    pairs = None
    if lanczos and start.v0 is not None:
        with _scipy_blas_on_one_thread():
            pairs = _certified_topk(a, k, start)
    if pairs is None:
        # from the crossover up every dense call finds |lambda_{k+1}|, so that a
        # Lanczos fallback returns the same bits as a call without a start
        w, v, below = _kept_pairs(a, k, with_below=_lanczos_applies(n, k))
        if lanczos:
            # |lambda_{k+1}| itself proves the tightest tau there is
            start.below = below
            start._prove(a, below)
        pairs = w, v
    w, v = pairs
    if lanczos:
        r = _fixed_unit(n)
        v0 = v @ (w * (v.T @ r))
        norm = np.linalg.norm(v0)
        if norm > 0.0:
            v0 /= norm
        start.v0 = v0 + 1e-3 * r
    return EigPairs(w, v)


def polar_project(x: np.ndarray) -> np.ndarray:
    """Closest matrix with orthonormal columns, the polar factor U V^T.

    Raises :class:`RankDeficientError` when the smallest singular value is
    below ``RANK_TOL`` times the largest (the projection is then not unique).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < x.shape[1]:
        raise ValueError(f"expected a tall matrix, got shape {x.shape}")
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    if s[0] == 0.0 or s[-1] < RANK_TOL * s[0]:
        raise RankDeficientError(s[-1], s[0])
    return u @ vt


def svd_top_left(x: np.ndarray, s: int) -> np.ndarray:
    """Top-s left singular vectors, sign-canonicalized."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a matrix")
    if not 1 <= s <= min(x.shape):
        raise ValueError(f"s={s} out of range for shape {x.shape}")
    u, _, _ = np.linalg.svd(x, full_matrices=False)
    return canonical_signs(u[:, :s])
