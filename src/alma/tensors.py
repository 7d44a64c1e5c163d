"""Dense 3-way tensors and the mode products used by the alternating solver.

A :class:`Tensor3` holds a float64 array indexed as ``x[i1, i2, i3]`` with
dims ``(d1, d2, d3)``. For multilayer networks the first index is the layer
and the remaining two are nodes, so ``slice(l)`` is one adjacency matrix.

Storage is layer-major with each slice stored column by column. Under that
layout row ``l`` of the mode-1 matricization is exactly ``vec(slice(l))``
(columns stacked), so :func:`mode1_matricize` returns a view of the buffer,
not a copy, and :func:`mode1_dematricize` inverts it by reshaping.
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
    """

    __slots__ = ("_store",)

    def __init__(self, array):
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError(f"expected a 3-d array, got ndim={arr.ndim}")
        if min(arr.shape) < 1:
            raise ValueError(f"all dims must be >= 1, got {arr.shape}")
        # internal buffer shape (d1, d3, d2), C order == layer-major,
        # column-major within slice
        store = np.array(arr.transpose(0, 2, 1), dtype=np.float64, order="C")
        store.setflags(write=False)
        self._store = store

    @classmethod
    def _wrap(cls, store: np.ndarray) -> "Tensor3":
        # trusted constructor: store already C-contiguous (d1, d3, d2) float64
        obj = cls.__new__(cls)
        if not store.flags.c_contiguous:
            store = np.ascontiguousarray(store)
        store.setflags(write=False)
        obj._store = store
        return obj

    @property
    def dims(self) -> tuple[int, int, int]:
        d1, d3, d2 = self._store.shape
        return (d1, d2, d3)

    @property
    def array(self) -> np.ndarray:
        """Read-only (d1, d2, d3) view of the tensor."""
        return self._store.transpose(0, 2, 1)

    def slice(self, i: int) -> np.ndarray:
        """Read-only (d2, d3) view of slice i along the first mode."""
        return self._store[i].T

    def __eq__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        return self.dims == other.dims and bool(np.array_equal(self._store, other._store))

    __hash__ = None  # unhashable, like ndarray

    def __repr__(self):
        return f"Tensor3(dims={self.dims})"


def mode1_matricize(x: Tensor3) -> np.ndarray:
    """Unfold along mode 1: row ``l`` is vec(slice l), columns stacked.

    Returns a read-only view of the tensor's buffer.
    """
    d1, d2, d3 = x.dims
    return x._store.reshape(d1, d2 * d3)


def mode1_dematricize(mat: np.ndarray, dims) -> Tensor3:
    """Inverse of :func:`mode1_matricize` for the given (d1, d2, d3)."""
    d1, d2, d3 = (int(d) for d in dims)
    mat = np.asarray(mat, dtype=np.float64)
    if mat.shape != (d1, d2 * d3):
        raise ValueError(f"matrix shape {mat.shape} does not match dims {(d1, d2, d3)}")
    store = np.array(mat, dtype=np.float64, order="C").reshape(d1, d3, d2)
    return Tensor3._wrap(store)


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
            # the transpose of the C-ordered unfolding is Fortran-ordered: no copy
            row = blas.dgemv(1.0, mode1_matricize(x).T, a[0])
        return Tensor3._wrap(row.reshape(1, d3, d2))
    store = np.tensordot(a, x._store, axes=(1, 0))
    return Tensor3._wrap(store)


def mode23_product(x: Tensor3, y: Tensor3) -> np.ndarray:
    """Contract both trailing modes: out[i, j] = <x slice i, y slice j>.

    Equals ``mode1_matricize(x) @ mode1_matricize(y).T``.
    """
    if x.dims[1:] != y.dims[1:]:
        raise ValueError(f"trailing dims differ: {x.dims[1:]} vs {y.dims[1:]}")
    return mode1_matricize(x) @ mode1_matricize(y).T


def frobenius_norm(x) -> float:
    """Frobenius norm of a Tensor3 or ndarray."""
    if isinstance(x, Tensor3):
        return float(np.linalg.norm(x._store))
    return float(np.linalg.norm(np.asarray(x, dtype=np.float64)))


def write_tensor(x: Tensor3, path, flavor: str = "f8") -> None:
    """Write a tensor to the binary format.

    Layout: 4-byte magic, three little-endian u32 dims (d1, d2, d3), then the
    entries in buffer order (layer-major, column-major within each slice).
    ``flavor`` is ``"f8"`` for float64 payloads or ``"u1"`` for 0/1 adjacency
    payloads stored one byte per entry; the u1 flavor sets the high bit of the
    final magic byte.
    """
    d1, d2, d3 = x.dims
    if flavor == "f8":
        magic = _MAGIC_F64
        payload = x._store.tobytes()
    elif flavor == "u1":
        magic = _MAGIC_U8
        store = x._store
        if not np.all((store == 0.0) | (store == 1.0)):
            raise ValueError("u1 flavor requires all entries in {0, 1}")
        payload = store.astype(np.uint8).tobytes()
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
    # read in place past the header; astype makes the one copy the store needs
    flat = np.frombuffer(blob, dtype=dtype, offset=16).astype(np.float64)
    store = flat.reshape(d1, d3, d2)
    return Tensor3._wrap(store)
