"""Dense 3-way tensors and the mode products used by the alternating solver.

A :class:`Tensor3` holds a read-only C-ordered float64 array indexed as
``x[i1, i2, i3]`` with dims ``(d1, d2, d3)``. For multilayer networks the
first index is the layer and the remaining two are nodes, so ``slice(l)`` is
one adjacency matrix. Row ``l`` of the mode-1 matricization is slice l read
row by row, so :func:`mode1_matricize` returns a view of the array, not a
copy, and :func:`mode1_dematricize` inverts it by reshaping. The layers of a
network are undirected, so their slices are symmetric and read the same by
rows as by columns.

Only the binary file of :func:`write_tensor` and :func:`read_tensor` stores
each slice column by column; that order is part of the format.
"""

from __future__ import annotations

import struct

import numpy as np
from scipy.linalg import blas

from .linalg import _scipy_blas_on_one_thread

_MAGIC_F64 = b"MLT3"
_MAGIC_U8 = b"MLT" + bytes([ord("3") | 0x80])
_HEADER = struct.Struct("<III")


class Tensor3:
    """Immutable dense order-3 tensor.

    Parameters
    ----------
    array : array_like
        Anything numpy can coerce to a 3-d float array, indexed (i1, i2, i3).
        It is copied into :attr:`array`, a read-only C-ordered float64 array.
    """

    __slots__ = ("array",)

    def __init__(self, array):
        arr = np.array(array, dtype=np.float64, order="C")
        if arr.ndim != 3:
            raise ValueError(f"expected a 3-d array, got ndim={arr.ndim}")
        if min(arr.shape) < 1:
            raise ValueError(f"all dims must be >= 1, got {arr.shape}")
        arr.setflags(write=False)
        self.array = arr

    @classmethod
    def _wrap(cls, array: np.ndarray) -> "Tensor3":
        # trusted constructor for a fresh 3-d float64 array; a C-ordered one
        # is taken without a copy
        obj = cls.__new__(cls)
        array = np.ascontiguousarray(array)
        array.setflags(write=False)
        obj.array = array
        return obj

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.array.shape

    def slice(self, i: int) -> np.ndarray:
        """Read-only (d2, d3) view of slice i along the first mode."""
        return self.array[i]

    def __eq__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        return self.dims == other.dims and bool(np.array_equal(self.array, other.array))

    __hash__ = None  # unhashable, like ndarray

    def __repr__(self):
        return f"Tensor3(dims={self.dims})"


def mode1_matricize(x: Tensor3) -> np.ndarray:
    """Unfold along mode 1: row ``l`` is slice l, its rows laid end to end.

    Returns a read-only view of the tensor's array.
    """
    d1, d2, d3 = x.dims
    return x.array.reshape(d1, d2 * d3)


def mode1_dematricize(mat: np.ndarray, dims) -> Tensor3:
    """Inverse of :func:`mode1_matricize` for the given (d1, d2, d3)."""
    d1, d2, d3 = (int(d) for d in dims)
    mat = np.array(mat, dtype=np.float64, order="C")
    if mat.shape != (d1, d2 * d3):
        raise ValueError(f"matrix shape {mat.shape} does not match dims {(d1, d2, d3)}")
    return Tensor3._wrap(mat.reshape(d1, d2, d3))


def mode1_product(x: Tensor3, a: np.ndarray) -> Tensor3:
    """Multiply along mode 1: result slice j = sum_i a[j, i] * x slice i.

    ``a`` has shape (m, d1); the result has dims (m, d2, d3) and satisfies
    ``mode1_matricize(result) == a @ mode1_matricize(x)``. A one-row ``a``
    runs on one thread of scipy's OpenBLAS: numpy's matrix-vector product
    of this shape moves its last bits with numpy's thread count.
    """
    a = np.asarray(a, dtype=np.float64)
    d1, d2, d3 = x.dims
    if a.ndim != 2 or a.shape[1] != d1:
        raise ValueError(f"left factor shape {a.shape} does not match mode-1 dim {d1}")
    if len(a) == 1:
        with _scipy_blas_on_one_thread():
            # the unfolding's .T is Fortran-ordered: no copy
            row = blas.dgemv(1.0, mode1_matricize(x).T, a[0])
        return Tensor3._wrap(row.reshape(1, d2, d3))
    return Tensor3._wrap(np.tensordot(a, x.array, axes=(1, 0)))


def mode23_product(x: Tensor3, y: Tensor3) -> np.ndarray:
    """Contract both trailing modes: out[i, j] = <x slice i, y slice j>.

    Equals ``mode1_matricize(x) @ mode1_matricize(y).T``.
    """
    if x.dims[1:] != y.dims[1:]:
        raise ValueError(f"trailing dims differ: {x.dims[1:]} vs {y.dims[1:]}")
    return mode1_matricize(x) @ mode1_matricize(y).T


def write_tensor(x: Tensor3, path, flavor: str = "f8") -> None:
    """Write a tensor to the binary format.

    Layout: 4-byte magic, three little-endian u32 dims (d1, d2, d3), then the
    entries layer by layer, each slice column by column.
    ``flavor`` is ``"f8"`` for float64 payloads or ``"u1"`` for 0/1 adjacency
    payloads stored one byte per entry; the u1 flavor sets the high bit of the
    final magic byte.
    """
    d1, d2, d3 = x.dims
    if flavor == "f8":
        magic = _MAGIC_F64
        payload = x.array.transpose(0, 2, 1).tobytes()
    elif flavor == "u1":
        magic = _MAGIC_U8
        if not np.all((x.array == 0.0) | (x.array == 1.0)):
            raise ValueError("u1 flavor requires all entries in {0, 1}")
        payload = x.array.transpose(0, 2, 1).astype(np.uint8).tobytes()
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(_HEADER.pack(d1, d2, d3))
        fh.write(payload)


def read_tensor(path) -> Tensor3:
    """Read a tensor written by :func:`write_tensor` (either flavor)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16:
        raise ValueError("truncated header")
    magic, dims_raw = blob[:4], blob[4:16]
    if magic == _MAGIC_F64:
        dtype, itemsize = np.float64, 8
    elif magic == _MAGIC_U8:
        dtype, itemsize = np.uint8, 1
    else:
        raise ValueError(f"bad magic {magic!r}")
    d1, d2, d3 = _HEADER.unpack(dims_raw)
    if min(d1, d2, d3) < 1:
        raise ValueError(f"bad dims {(d1, d2, d3)}")
    count = d1 * d2 * d3
    if len(blob) - 16 != count * itemsize:
        raise ValueError(
            f"truncated payload: expected {count * itemsize} bytes, got {len(blob) - 16}"
        )
    # read in place past the header; astype makes the one copy, in C order
    cols = np.frombuffer(blob, dtype=dtype, offset=16).reshape(d1, d3, d2)
    return Tensor3._wrap(cols.transpose(0, 2, 1).astype(np.float64, order="C"))
