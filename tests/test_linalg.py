import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

from alma import linalg
from alma.errors import RankDeficientError
from alma.tensors import mode1_product
from alma.linalg import (
    LANCZOS_MIN_N,
    canonical_signs,
    polar_project,
    rank_project,
    svd_top_left,
    sym_eig_topk,
)
from conftest import (
    at_one_and_two_blas_threads,
    make_noisy,
    make_truth,
    needs_blas_pin,
    traced_peak,
)


def random_symmetric(n, seed):
    a = np.random.default_rng(seed).normal(size=(n, n))
    return (a + a.T) / 2.0


def projection(a, k, **kwargs):
    """The matrix of the eigenpairs :func:`rank_project` keeps."""
    return linalg._from_pairs(rank_project(a, k, **kwargs))


def same_pairs(p, q):
    return np.array_equal(p.values, q.values) and np.array_equal(p.vectors, q.vectors)


def test_topk_magnitude_ordering():
    pairs = sym_eig_topk(np.diag([3.0, 1.0, -2.0]), 2, by_magnitude=True)
    assert pairs.values.tolist() == [3.0, -2.0]


def test_topk_value_ordering():
    pairs = sym_eig_topk(np.diag([3.0, 1.0, -2.0]), 2, by_magnitude=False)
    assert pairs.values.tolist() == [3.0, 1.0]


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(0, 100))
def test_topk_eigenpair_invariants(n, seed):
    a = random_symmetric(n, seed)
    k = max(1, n // 2)
    pairs = sym_eig_topk(a, k, by_magnitude=True)
    assert np.allclose(pairs.vectors.T @ pairs.vectors, np.eye(k), atol=1e-10)
    resid = a @ pairs.vectors - pairs.vectors * pairs.values
    assert np.linalg.norm(resid) <= 1e-8 * max(np.linalg.norm(a), 1e-12)


def test_topk_rejects_asymmetric():
    with pytest.raises(ValueError):
        sym_eig_topk(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


def eigh_topk_values(a, k, by_magnitude):
    """The oracle: the top k of a full ``np.linalg.eigh``, by a stable sort of its
    ascending spectrum."""
    w = np.linalg.eigh(a)[0]
    order = np.argsort(-np.abs(w) if by_magnitude else -w, kind="stable")
    return w[order[:k]]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 39), st.integers(0, 10**6))
def test_topk_matches_eigh_for_every_k_and_order(n, seed):
    a = random_symmetric(n, seed)
    scale = np.abs(np.linalg.eigvalsh(a)).max()
    for by_magnitude in (True, False):
        for k in range(1, n + 1):
            pairs = sym_eig_topk(a, k, by_magnitude)
            want = eigh_topk_values(a, k, by_magnitude)
            assert np.allclose(pairs.values, want, rtol=0, atol=1e-12 * scale)
            v = pairs.vectors
            assert np.allclose(v.T @ v, np.eye(k), atol=1e-12)
            assert np.linalg.norm(a @ v - v * pairs.values) <= 1e-12 * n * scale


@pytest.mark.parametrize("a", [np.diag([1.0, -1.0, 1.0, -1.0]), np.zeros((3, 3))])
def test_topk_keeps_the_eigh_tie_rule_on_tied_spectra(a):
    # by magnitude -lambda comes before lambda; by value equal ones stay ascending
    for by_magnitude in (True, False):
        for k in range(1, a.shape[0] + 1):
            pairs = sym_eig_topk(a, k, by_magnitude)
            assert np.array_equal(pairs.values, eigh_topk_values(a, k, by_magnitude))
            assert np.array_equal(pairs.vectors.T @ pairs.vectors, np.eye(k))


def test_topk_of_a_one_by_one_matrix():
    for pairs in (sym_eig_topk(np.array([[2.0]]), 1), rank_project(np.array([[2.0]]), 1)):
        assert pairs.values.tolist() == [2.0] and pairs.vectors.tolist() == [[1.0]]


@needs_blas_pin
@pytest.mark.parametrize("n", [300, 600])
@pytest.mark.parametrize("by_magnitude", [True, False])
def test_topk_does_not_depend_on_the_blas_thread_count(n, by_magnitude):
    a = random_symmetric(n, n)
    one, two = at_one_and_two_blas_threads(lambda: sym_eig_topk(a, 3, by_magnitude))
    assert same_pairs(one, two)


def test_canonical_signs_largest_entry_positive():
    v = np.array([[0.1, -0.9], [-0.9, 0.1]])
    out = canonical_signs(v.copy())
    for j in range(out.shape[1]):
        assert out[np.argmax(np.abs(out[:, j])), j] > 0


def test_rank_project_keeps_largest_magnitude():
    out = projection(np.diag([1.0, -5.0]), 1)
    assert np.allclose(out, np.diag([0.0, -5.0]))
    out = projection(np.diag([3.0, 1.0]), 1)
    assert np.allclose(out, np.diag([3.0, 0.0]))


def test_rank_project_full_rank_is_identity_map():
    a = random_symmetric(4, 8)
    assert np.allclose(projection(a, 4), a, atol=1e-12)
    with pytest.warns(RuntimeWarning):
        out = projection(a, 9)
    assert np.allclose(out, a, atol=1e-12)


def test_full_rank_projection_never_returns_the_input_buffer():
    # rank n keeps the full eigendecomposition, in sym_eig_topk's order
    a = random_symmetric(4, 8)
    for x in (a, np.asfortranarray(a)):
        out = rank_project(x, 4)
        assert same_pairs(out, sym_eig_topk(a, 4))
        assert not np.shares_memory(out.vectors, x)


def test_nearly_symmetric_input_is_symmetrised():
    a = random_symmetric(4, 9)
    a[0, 1] += 1e-12
    for k in (2, 4):
        assert same_pairs(rank_project(a, k), rank_project((a + a.T) / 2.0, k))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 7), st.integers(0, 100))
def test_rank_project_idempotent(n, seed):
    a = random_symmetric(n, seed)
    k = max(1, n - 2)
    once = projection(a, k)
    assert np.allclose(projection(once, k), once, atol=1e-9)


def brute_force_best_subset(a, k):
    from itertools import combinations

    w, v = np.linalg.eigh(a)
    best, best_err = None, np.inf
    for keep in combinations(range(len(w)), k):
        keep = list(keep)
        approx = (v[:, keep] * w[keep]) @ v[:, keep].T
        err = np.linalg.norm(a - approx)
        if err < best_err:
            best, best_err = approx, err
    return best


def test_rank_project_is_frobenius_optimal():
    for seed in range(20):
        a = random_symmetric(5, seed)
        for k in (1, 2, 3):
            assert np.allclose(projection(a, k), brute_force_best_subset(a, k), atol=1e-9)


# Below LANCZOS_MIN_N, rank_project finds only the kept eigenpairs (dsytrd,
# then dstemr at both ends of the spectrum, then dormqr). The oracle is the
# full eigh it replaced.


def eigh_projection(a, k):
    """The rank-k projection and |lambda_{k+1}| from a full ``np.linalg.eigh``."""
    w, v = np.linalg.eigh(a)
    order = np.argsort(-np.abs(w), kind="stable")
    keep = order[:k]
    return (v[:, keep] * w[keep]) @ v[:, keep].T, float(abs(w[order[k]]))


def assert_matches_eigh(a, k):
    """Kernel against oracle, wherever the k-th and (k+1)-th magnitudes differ."""
    want, below = eigh_projection(a, k)
    mags = np.sort(np.abs(np.linalg.eigvalsh(a)))[::-1]
    values, vectors, got_below = linalg._kept_pairs(a, k, with_below=True)
    assert got_below == pytest.approx(below, rel=1e-12, abs=1e-12 * mags[0])
    # without below, MRRR runs on narrower index ranges, which may move the last bits
    assert np.allclose(linalg._kept_pairs(a, k)[0], values, rtol=1e-12, atol=1e-12 * mags[0])
    assert np.allclose(np.sort(np.abs(values))[::-1], mags[:k], rtol=1e-12,
                       atol=1e-12 * mags[0])
    if mags[k - 1] - mags[k] > 1e-9 * mags[0]:
        got = projection(a, k)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert np.allclose(vectors.T @ vectors, np.eye(k), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 60), st.integers(0, 10**6), st.data())
def test_rank_project_matches_eigh_on_random_symmetric_matrices(n, seed, data):
    k = data.draw(st.integers(1, n - 1))
    assert_matches_eigh(random_symmetric(n, seed), k)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_rank_project_matches_eigh_on_negative_dominated_spectra(k):
    rng = np.random.default_rng(70 + k)
    b = rng.normal(size=(80, 6))
    # six large negative eigenvalues over a small symmetric bulk
    a = -(b @ b.T) + 0.1 * random_symmetric(80, 70 + k)
    assert np.sum(np.linalg.eigvalsh(a) < -5.0) == 6 and np.linalg.eigvalsh(a).max() < 5.0
    assert_matches_eigh(a, k)


@pytest.mark.parametrize("seed, n, m, k", [(90, 30, 2, 2), (91, 60, 3, 3), (92, 40, 1, 4)])
def test_rank_project_matches_eigh_on_noiseless_slices(seed, n, m, k):
    # p_star slices are block-constant: their tridiagonal splits, and their
    # spectra repeat eigenvalues
    _, gt = make_truth(seed, n=n, L=8, m=m, k=k, p_max=0.9, alpha=0.3)
    slices = gt.p_star.array
    w = np.linalg.qr(np.random.default_rng(seed).normal(size=(8, m)))[0]
    for a in [slices[0], slices.sum(axis=0)] + list(np.tensordot(w.T, slices, axes=1)):
        for rank in range(1, k + 2):
            assert_matches_eigh(a, rank)


def test_rank_project_matches_eigh_on_a_disconnected_adjacency():
    # two blocks of unequal size and two isolated nodes
    rng = np.random.default_rng(93)
    blocks = []
    for size in (20, 12):
        upper = np.triu((rng.random((size, size)) < 0.4).astype(float), k=1)
        blocks.append(upper + upper.T)
    a = np.zeros((34, 34))
    a[:20, :20], a[20:32, 20:32] = blocks
    for k in (1, 2, 3, 6):
        assert_matches_eigh(a, k)


@pytest.mark.parametrize("n", [2, 3, 6, 9])
def test_rank_project_matches_eigh_when_both_ends_cover_the_spectrum(n):
    a = random_symmetric(n, 94 + n)
    for k in range(1, n):  # from 2(k+1) >= n up to k = n - 1
        if 2 * (k + 1) >= n:
            assert_matches_eigh(a, k)


@pytest.mark.parametrize("lam, k, kept", [
    ([5.0, -5.0, 3.0, 1.0, -1.0, 0.5, 0.25, 0.0], 1, [-5.0]),
    ([5.0, -5.0, 3.0, 1.0, -1.0, 0.5, 0.25, 0.0], 2, [5.0, -5.0]),
    ([1.0, 4.0, -2.0, 2.0, -4.0, 0.0, 3.0, -3.0, 0.5, 0.1], 3, [4.0, -4.0, -3.0]),
    ([2.0, -2.0, 2.0, -2.0, 1.0, 0.0], 3, [2.0, -2.0, -2.0]),
])
def test_rank_project_keeps_the_dense_tie_rule_on_diagonal_ties(lam, k, kept):
    a = np.diag(lam)
    out = projection(a, k)
    assert np.array_equal(out, eigh_projection(a, k)[0])
    assert sorted(np.diag(out)[np.diag(out) != 0.0]) == sorted(kept)


@pytest.mark.parametrize("result", [(2, 2), (0, 1)])
def test_rank_project_raises_when_mrrr_fails_or_finds_too_few(monkeypatch, result):
    real = linalg.lapack.dstemr
    info, short = result

    def failing(*args, **kwargs):
        found, w, z, _ = real(*args, **kwargs)
        return found - short, w, z, info

    monkeypatch.setattr(linalg.lapack, "dstemr", failing)
    with pytest.raises(np.linalg.LinAlgError, match="dstemr"):
        rank_project(random_symmetric(12, 95), 2)


def test_rank_project_raises_on_a_non_finite_matrix():
    a = random_symmetric(8, 96)
    a[2, 5] = a[5, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        rank_project(a, 2)


@pytest.mark.skipif(linalg._scipy_openblas_threads_local is None,
                    reason="scipy's OpenBLAS thread count cannot be set")
def test_dense_kernel_runs_scipy_blas_on_one_thread_and_puts_the_count_back(monkeypatch):
    setter = linalg._scipy_openblas_threads_local
    real = linalg.lapack.dsytrd
    seen = []

    def spy(*args, **kwargs):
        seen.append(setter(1))  # the count in force; setting 1 again changes nothing
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg.lapack, "dsytrd", spy)
    bad = random_symmetric(8, 98)
    bad[0, 0] = np.nan
    found = setter(2)
    try:
        rank_project(random_symmetric(40, 97), 3)
        with pytest.raises(np.linalg.LinAlgError):
            rank_project(bad, 2)
        after = setter(2)
    finally:
        setter(found)
    assert seen == [1, 1] and after == 2


def test_polar_rotation_hand_value():
    out = polar_project(np.array([[0.0, -2.0], [2.0, 0.0]]))
    assert np.allclose(out, np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 100))
def test_polar_orthonormal_and_recovers_frame(m, seed):
    rng = np.random.default_rng(seed)
    L = m + 3
    w0 = np.linalg.qr(rng.normal(size=(L, m)))[0]
    g = rng.normal(size=(m, m))
    g = g @ g.T + m * np.eye(m)  # positive definite
    out = polar_project(w0 @ g)
    assert np.allclose(out.T @ out, np.eye(m), atol=1e-10)
    assert np.allclose(out, w0, atol=1e-8)


def test_polar_rejects_wide_input():
    with pytest.raises(ValueError):
        polar_project(np.ones((2, 3)))


def test_polar_rank_deficient_raises():
    x = np.outer(np.ones(4), [1.0, 0.0])  # second singular value 0
    with pytest.raises(RankDeficientError) as info:
        polar_project(x)
    assert info.value.sigma_min == pytest.approx(0.0, abs=1e-12)
    assert info.value.sigma_max > 0


def test_rank_deficient_error_stores_non_negative_values():
    # numpy's SVD can return -0.0, and a rounded eigenvalue can dip below 0
    err = RankDeficientError(-0.0, 2.5)
    assert math.copysign(1.0, err.sigma_min) == 1.0
    assert str(err) == "rank deficient input: sigma_min=0.000e+00 vs sigma_max=2.500e+00"
    clipped = RankDeficientError(-3e-17, -0.0, "slice Gram is singular")
    assert (clipped.sigma_min, clipped.sigma_max) == (0.0, 0.0)
    assert math.copysign(1.0, clipped.sigma_max) == 1.0


def test_svd_top_left_frozen():
    out = svd_top_left(np.diag([5.0, 1.0]), 1)
    assert np.allclose(out, np.array([[1.0], [0.0]]), atol=1e-12)


def test_svd_top_left_spans_dominant_subspace():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 4))
    u = svd_top_left(x, 2)
    assert np.allclose(u.T @ u, np.eye(2), atol=1e-10)
    u_ref = np.linalg.svd(x, full_matrices=False)[0][:, :2]
    # same subspace regardless of sign conventions
    assert np.linalg.norm(u @ u.T - u_ref @ u_ref.T) < 1e-9


# The warm-started Lanczos path of rank_project runs only from LANCZOS_MIN_N
# nodes up, above every other test's size.


def sbm_aggregate(seed, layers):
    _, _, a = make_noisy(seed, n=LANCZOS_MIN_N + 10, L=8, m=1, k=3, p_max=0.6, alpha=0.5)
    return a.array[:layers].sum(axis=0)


def fresh_certificate(v0):
    """A certificate that holds a Lanczos start and no proof yet."""
    cert = linalg.Certificate()
    cert.v0 = v0
    return cert


def start_after(prev, k):
    """A certificate that holds the Lanczos start a projection of ``prev`` leaves, and no proof."""
    cert = linalg.Certificate()
    rank_project(prev, k, start=cert)
    return fresh_certificate(cert.v0)


def rotated_spectrum(values, seed):
    n = LANCZOS_MIN_N
    lam = np.concatenate([values, np.linspace(-1.0, 1.0, n - len(values))])
    u = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))[0]
    return (u * lam) @ u.T, u, lam


@pytest.mark.parametrize("k", [1, 2, 3])
def test_warm_rank_project_matches_dense(k, eigsh_calls):
    s = sbm_aggregate(60, 8)
    start = start_after(sbm_aggregate(60, 6), k)
    dense = projection(s, k)
    warm = projection(s, k, start=start)
    assert eigsh_calls == [k]
    assert not np.array_equal(warm, dense)  # certified Lanczos pairs, not the fallback
    assert np.linalg.norm(warm - dense) <= 1e-10 * np.linalg.norm(dense)


def test_column_major_slice_projects_to_the_same_bits(eigsh_calls):
    # a column-major copy of a W-weighted slice sum must get, on the Lanczos
    # path, the bits of the row-major slice the Q-step passes
    _, _, a = make_noisy(63, n=LANCZOS_MIN_N + 10, L=8, m=1, k=3, p_max=0.6, alpha=0.5)
    w = np.linalg.qr(np.random.default_rng(63).normal(size=(8, 2)))[0]
    core = mode1_product(a, w.T)
    s = np.asfortranarray(core.slice(0))
    assert s.flags.f_contiguous and not s.flags.c_contiguous
    v0 = start_after(core.slice(1), 3).v0
    warm = rank_project(core.slice(0), 3, start=fresh_certificate(v0))
    assert same_pairs(rank_project(s, 3, start=fresh_certificate(v0)), warm)
    assert eigsh_calls == [3, 3]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_warm_start_in_the_wrong_subspace_still_matches_dense(k, eigsh_calls):
    # |lambda_k| / |lambda_k+1| = 1.001, and the start lies in the span of the
    # eigenvectors ranked k+1..2k
    top = 10.0 - np.arange(k, dtype=float)
    s, u, lam = rotated_spectrum(np.concatenate([top, -top / 1.001]), 61)
    wrong = (u[:, k:2 * k] * lam[k:2 * k]) @ u[:, k:2 * k].T
    dense = projection(s, k)
    warm = projection(s, k, start=start_after(wrong, k))
    assert eigsh_calls == [k]
    assert np.linalg.norm(warm - dense) <= 1e-10 * np.linalg.norm(dense)


def test_magnitude_tie_at_rank_k_keeps_the_dense_tie_rule(eigsh_calls):
    lam = np.concatenate([[9.0, 7.0, 5.0, -5.0], np.linspace(-1.0, 1.0, LANCZOS_MIN_N - 4)])
    s = np.diag(lam)
    out = projection(s, 3, start=start_after(s, 3))
    assert eigsh_calls == [3]
    assert np.array_equal(out, projection(s, 3))
    assert np.array_equal(np.diag(out)[:4], [9.0, 7.0, 0.0, -5.0])


@needs_blas_pin
def test_warm_rank_project_does_not_depend_on_the_blas_thread_count(eigsh_calls):
    _, _, a = make_noisy(67, n=600, L=8, m=1, k=3, p_max=0.6, alpha=0.5)
    s = a.array.sum(axis=0)
    v0 = start_after(a.array[:6].sum(axis=0), 3).v0
    one, two = at_one_and_two_blas_threads(
        lambda: rank_project(s, 3, start=fresh_certificate(v0)))
    assert eigsh_calls == [3, 3]
    assert same_pairs(one, two)
    assert not same_pairs(one, rank_project(s, 3))  # the Lanczos pairs, not the fallback


def test_lanczos_no_convergence_falls_back_to_dense(monkeypatch):
    def fail(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(linalg, "eigsh", fail)
    s = sbm_aggregate(62, 8)
    start = start_after(s, 2)
    assert same_pairs(rank_project(s, 2, start=start), rank_project(s, 2))


def test_warm_start_only_above_the_crossover():
    # a projection leaves a Lanczos start only where the next call can use it
    for n, k in ((LANCZOS_MIN_N - 1, 1), (LANCZOS_MIN_N, LANCZOS_MIN_N // 2)):
        assert start_after(random_symmetric(n, 99), k).v0 is None
    # the start is the kept part's image of a fixed unit r, normalized, plus 1e-3 r
    s = random_symmetric(LANCZOS_MIN_N, 99)
    r = linalg._fixed_unit(LANCZOS_MIN_N)
    image = projection(s, 2) @ r
    v0 = start_after(s, 2).v0
    assert np.allclose(v0, image / np.linalg.norm(image) + 1e-3 * r, rtol=0, atol=1e-12)


def test_fixed_unit_is_drawn_once_per_n_and_read_only():
    r = linalg._fixed_unit(LANCZOS_MIN_N)
    fresh = np.random.default_rng(0).standard_normal(LANCZOS_MIN_N)
    assert r.tobytes() == (fresh / np.linalg.norm(fresh)).tobytes()
    assert linalg._fixed_unit(LANCZOS_MIN_N) is r
    assert not r.flags.writeable


# A Certificate carries the proof of one projection to the next, nearby slice.


def scaled_bulk(u, lam, k, c):
    """``u diag(lam) u^T`` with every eigenvalue past the k-th scaled by (1 - 2c).

    The top-k pairs stay exactly as they were, and the change has Frobenius
    norm 2c ||lam[k:]||.
    """
    lam = lam.copy()
    lam[k:] *= 1.0 - 2.0 * c
    s = (u * lam) @ u.T
    return (s + s.T) / 2.0


def seeded_certificate(s, k):
    """A certificate seeded from the dense eigensolve of ``s``, as a fit's first sweep does."""
    cert = linalg.Certificate()
    cert.key = s
    rank_project(s, k, start=cert)  # leaves its Lanczos start in cert
    return cert


def move_to(cert, s, moved):
    # the caller's part: name the next slice and bound how far it moved
    cert.key, cert.drift = moved, np.linalg.norm(moved - s)


def test_carried_certificate_recertifies_once_the_slice_moves_past_its_margin(
        cholesky_calls, eigsh_calls):
    # |lambda_3| = 8 and every other eigenvalue lies in [-1, 1]: the dense
    # seed proves tau just above 1, so a slice can move by about 7 before the
    # proof stops covering it
    k = 3
    s, u, lam = rotated_spectrum(np.array([10.0, 9.0, 8.0]), 64)
    bulk = np.linalg.norm(lam[k:])
    for drift, factorizations in ((6.0, 0), (8.0, 2)):
        cert = seeded_certificate(s, k)
        assert cert.ref is s and cert.tau == pytest.approx(1.0, abs=1e-9)
        moved = scaled_bulk(u, lam, k, drift / (2.0 * bulk))
        move_to(cert, s, moved)
        cholesky_calls.clear()
        out = projection(moved, k, start=cert)
        assert len(cholesky_calls) == factorizations
        dense = projection(moved, k)
        assert np.linalg.norm(out - dense) <= 1e-10 * np.linalg.norm(dense)
        # the proof now covers the moved slice, with margin left to carry
        assert (cert.ref is moved) == (factorizations > 0)
        assert cert.tau < 8.0
    assert eigsh_calls == [k, k]


def test_carried_certificate_rejects_pairs_that_miss_an_eigenvalue_that_moved_in(
        monkeypatch, cholesky_calls):
    # an eigenvalue at 0 moves out to 8.5, past the kept 8, while Lanczos
    # returns the old top 3: only the dense fallback gets the new top 3
    k = 3
    s, u, lam = rotated_spectrum(np.array([10.0, 9.0, 8.0]), 65)
    cert = seeded_certificate(s, k)
    zero = k + int(np.argmin(np.abs(lam[k:])))
    moved = s + (8.5 - lam[zero]) * np.outer(u[:, zero], u[:, zero])
    move_to(cert, s, moved)
    monkeypatch.setattr(linalg, "eigsh", lambda *args, **kwargs: (lam[:k], u[:, :k]))
    out = rank_project(moved, k, start=cert)
    assert cholesky_calls  # the margin ran out, so the pairs were tested
    assert np.allclose(np.sort(out.values), [8.5, 9.0, 10.0], atol=1e-9)
    assert same_pairs(out, rank_project(moved, k))


def test_carried_certificate_checks_each_ritz_value_against_its_vector(
        monkeypatch, cholesky_calls):
    # Lanczos hands back 8 as the third value but a bulk eigenvector with it:
    # the values alone would pass the carried margin, the residual does not
    k = 3
    s, u, lam = rotated_spectrum(np.array([10.0, 9.0, 8.0]), 66)
    cert = seeded_certificate(s, k)
    move_to(cert, s, s)
    wrong = u[:, [0, 1, k]]
    monkeypatch.setattr(linalg, "eigsh", lambda *args, **kwargs: (lam[:k], wrong))
    out = rank_project(s, k, start=cert)
    assert cholesky_calls
    assert same_pairs(out, rank_project(s, k))


# The certificate's Cholesky factorizations


def residual_case(seed):
    """A slice A, Ritz-like pairs (w, V) and R = A - V diag(w) V^T."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 80))
    k = int(rng.integers(1, 4))
    a = random_symmetric(n, seed)
    v = np.linalg.qr(rng.normal(size=(n, k)))[0]
    w = rng.normal(scale=3.0, size=k)
    return a, w, v, a - linalg._from_pairs((w, v))


def test_residual_test_agrees_with_the_spectrum_of_r():
    for seed in range(300):
        a, w, v, r = residual_case(seed)
        norm = np.abs(np.linalg.eigvalsh(r)).max()
        assert linalg._residual_within(a, w, v, norm * (1.0 + 1e-6))
        assert not linalg._residual_within(a, w, v, norm * (1.0 - 1e-6))


def test_residual_test_factors_in_place():
    n = 300
    a = random_symmetric(n, 3)
    v = np.linalg.qr(np.random.default_rng(3).normal(size=(n, 3)))[0]
    w = np.array([9.0, -8.0, 7.0])
    t = np.abs(np.linalg.eigvalsh(a - linalg._from_pairs((w, v)))).max() * 1.01
    peak = traced_peak(lambda: linalg._residual_within(a, w, v, t))
    # the one n x n buffer tI - R, then tI + R, and no copy for the factorizations
    assert peak <= 1.1 * n * n * 8


def test_positive_definite_reads_one_triangle_and_leaves_the_other():
    lower = np.array([[4.0, 9.0], [1.0, 4.0]])  # PD below the diagonal, not above
    f = np.asfortranarray(lower)
    upper = f[0, 1]
    assert linalg._positive_definite(f, lower=True)
    assert f[0, 1] == upper
    assert not linalg._positive_definite(np.asfortranarray(lower), lower=False)


def test_positive_definite_raises_on_a_bad_argument(monkeypatch):
    class BadLapack:
        @staticmethod
        def dpotrf(f, **kwargs):
            return f, -4

    monkeypatch.setattr(linalg, "lapack", BadLapack)
    with pytest.raises(np.linalg.LinAlgError, match="info=-4"):
        linalg._positive_definite(np.eye(3, order="F"), lower=True)
