import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alma.tensors import (
    Tensor3,
    frobenius_norm,
    mode1_dematricize,
    mode1_matricize,
    mode1_product,
    mode23_product,
    read_tensor,
    write_tensor,
)


def small_tensors(max_dim=4):
    dims = st.tuples(
        st.integers(1, max_dim), st.integers(1, max_dim), st.integers(1, max_dim)
    )
    return dims.flatmap(
        lambda d: st.builds(
            lambda flat: Tensor3(np.array(flat, dtype=float).reshape(d)),
            st.lists(
                st.floats(-5, 5, allow_nan=False),
                min_size=d[0] * d[1] * d[2],
                max_size=d[0] * d[1] * d[2],
            ),
        )
    )


def test_matricization_column_major_within_slice():
    # one 2x2 slice [[1,2],[3,4]] unfolds to the row (1,3,2,4): columns stacked
    t = Tensor3(np.stack([np.array([[1.0, 2.0], [3.0, 4.0]])]))
    row = mode1_matricize(t)
    assert row.shape == (1, 4)
    assert row.tolist() == [[1.0, 3.0, 2.0, 4.0]]


def test_matricize_dematricize_round_trip():
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(3, 4, 5))
    t = Tensor3(arr)
    back = mode1_dematricize(mode1_matricize(t), t.dims)
    assert back == t


def test_dims_array_slice_agree():
    rng = np.random.default_rng(1)
    arr = rng.normal(size=(2, 3, 4))
    t = Tensor3(arr)
    assert t.dims == (2, 3, 4)
    assert np.array_equal(t.array, arr)
    for i in range(2):
        assert np.array_equal(t.slice(i), arr[i])


def test_slice_view_is_read_only():
    t = Tensor3(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        t.slice(0)[0, 0] = 1.0


def test_from_slices_matches_constructor():
    rng = np.random.default_rng(2)
    arr = rng.normal(size=(3, 2, 2))
    assert Tensor3(np.stack(list(arr))) == Tensor3(arr)


def test_zeros_and_equality():
    z = Tensor3(np.zeros((2, 3, 3)))
    assert z.dims == (2, 3, 3)
    assert frobenius_norm(z) == 0.0
    assert z == Tensor3(np.zeros((2, 3, 3)))
    assert z != Tensor3(np.zeros((3, 2, 3)))


def test_tensor_not_hashable():
    with pytest.raises(TypeError):
        hash(Tensor3(np.zeros((1, 1, 1))))


@settings(max_examples=40, deadline=None)
@given(small_tensors(), st.integers(1, 3), st.integers(0, 6))
def test_mode1_product_matches_matrix_unfolding(t, rows, seed):
    a = np.random.default_rng(seed).normal(size=(rows, t.dims[0]))
    out = mode1_product(t, a)
    assert out.dims == (rows, t.dims[1], t.dims[2])
    assert np.allclose(mode1_matricize(out), a @ mode1_matricize(t), atol=1e-12)


def test_mode23_product_hand_value():
    x = Tensor3(np.stack([np.array([[1.0, 2.0], [3.0, 4.0]])]))
    y = Tensor3(np.stack([np.array([[5.0, 6.0], [7.0, 8.0]])]))
    # single entry: the slice inner product 5 + 12 + 21 + 32
    assert mode23_product(x, y).tolist() == [[70.0]]


@settings(max_examples=25, deadline=None)
@given(small_tensors(), st.integers(1, 3), st.integers(0, 6))
def test_mode23_commutes_with_mode1(t, rows, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, t.dims[0]))
    y = Tensor3(rng.normal(size=(2, t.dims[1], t.dims[2])))
    lhs = mode23_product(mode1_product(t, a), y)
    rhs = a @ mode23_product(t, y)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_frobenius_matches_numpy():
    rng = np.random.default_rng(3)
    arr = rng.normal(size=(2, 3, 4))
    assert frobenius_norm(Tensor3(arr)) == pytest.approx(np.linalg.norm(arr))


def test_write_read_float_round_trip(tmp_path):
    t = Tensor3(np.random.default_rng(6).normal(size=(2, 3, 4)))
    path = tmp_path / "t.bin"
    write_tensor(t, path)
    assert read_tensor(path) == t


def test_write_read_binary_round_trip(tmp_path):
    arr = np.random.default_rng(7).integers(0, 2, size=(3, 4, 4)).astype(float)
    t = Tensor3(arr)
    path = tmp_path / "t.bin"
    write_tensor(t, path, flavor="u1")
    assert read_tensor(path) == t
    # binary payload is one byte per entry plus the 16 byte header
    assert path.stat().st_size == 16 + arr.size


def test_write_binary_rejects_nonbinary(tmp_path):
    t = Tensor3(np.full((1, 2, 2), 0.5))
    with pytest.raises(ValueError):
        write_tensor(t, tmp_path / "t.bin", flavor="u1")


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "t.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(ValueError):
        read_tensor(path)


def test_read_rejects_truncation(tmp_path):
    t = Tensor3(np.ones((2, 3, 3)))
    path = tmp_path / "t.bin"
    write_tensor(t, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        read_tensor(path)
