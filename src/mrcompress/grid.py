"""Dense scalar volumes, the block partition used by the ROI selector, and
the grid kernels.

Conventions used throughout the package:

* A volume with dims (nx, ny, nz) is stored as a C-contiguous array of
  shape (nz, ny, nx), so the flattened order is x-fastest:
  flat index = x + nx * (y + ny * z). Its scalar type is float32 or float64
  (see :func:`scalar_array`), kept from the raw file to the decoded output.
* :class:`Volume` wraps such an array only where a field enters or leaves
  the library; the grid kernels take and return plain arrays.
* Raw volume files are headerless little-endian arrays in that same order;
  dims and scalar width travel out of band.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, ShapeError

Dims = tuple[int, int, int]


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def scalar_array(a, copy: bool | None = None) -> np.ndarray:
    """``a`` as a C-contiguous array of one of the library's two scalar
    types: float32 when ``a`` holds 4-byte floats, else float64. ``copy``
    as for ``np.array``: None copies only when the type or order changes."""
    a = np.asarray(a)
    dtype = np.float32 if a.dtype.kind == "f" and a.dtype.itemsize == 4 else np.float64
    return np.array(a, dtype=dtype, order="C", copy=copy)


def all_finite(a: np.ndarray) -> bool:
    """Whether every value of the float array ``a`` is finite. Its min and
    max are NaN or infinite exactly when some value is, so this takes two
    reductions and no array-sized mask."""
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


class Volume:
    """An immutable dense 3D scalar field, the type a field enters and
    leaves the library as; inside, the library works on ``data``.

    ``Volume(data)`` copies ``data`` as :func:`scalar_array` does, so the
    caller's array stays its own and writeable. ``Volume._adopt(arr)`` takes
    a C-contiguous float32 or float64 array
    the library has just allocated and holds no other reference to: it runs
    the same checks and freezes ``arr`` in place, without a copy.
    ``finite=True`` skips the finiteness pass for a caller that has just
    made it."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        self._own(scalar_array(data, copy=True))

    @classmethod
    def _adopt(cls, arr: np.ndarray, finite: bool = False) -> "Volume":
        if not arr.flags.c_contiguous:
            raise ShapeError("a Volume adopts only C-contiguous arrays")
        v = cls.__new__(cls)
        v._own(arr, finite)
        return v

    def _own(self, arr: np.ndarray, finite: bool = False) -> None:
        if arr.ndim != 3:
            raise ShapeError(f"expected a 3D array, got ndim={arr.ndim}")
        if min(arr.shape) < 1:
            raise ShapeError(f"all dims must be positive, got shape {arr.shape}")
        if not (finite or all_finite(arr)):
            raise DataError("volume contains non-finite values")
        arr.flags.writeable = False
        self.data = arr

    @property
    def dims(self) -> Dims:
        return self.data.shape[::-1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Volume):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.data, other.data)

    def __repr__(self) -> str:
        return f"Volume(dims={self.dims})"


def block_grid(dims: Dims, b: int) -> Dims:
    """Block-grid dims (gx, gy, gz) of a volume partitioned into b-cubes."""
    nx, ny, nz = dims
    if b < 1:
        raise ShapeError(f"block edge must be positive, got {b}")
    if nx % b or ny % b or nz % b:
        raise ShapeError(f"dims {dims} not divisible by block edge {b}")
    return (nx // b, ny // b, nz // b)


def block_view(arr: np.ndarray, b: int) -> np.ndarray:
    """The (gz, gy, gx, b, b, b) view of a (z, y, x) array's b-cubes; its
    (gz, gy, gx) C-order ravel is block-index order, bx fastest. Splitting
    axes never copies, so writes through it land in ``arr``."""
    gx, gy, gz = block_grid(arr.shape[::-1], b)
    return arr.reshape(gz, b, gy, b, gx, b).transpose(0, 2, 4, 1, 3, 5)


def block_ranges(arr: np.ndarray, b: int) -> np.ndarray:
    """Value range of every b-block of the (z, y, x) array ``arr``, flat in
    block-index order.

    Each extreme is folded over contiguous memory, largest stride first:
    the b z-planes of a block row elementwise over whole (ny, nx) planes,
    then the b y-rows of each block over whole x-rows, and the x-runs of b
    last, on the 1/b^2 of the values that remain. Max and min do not depend
    on order, so the ranges equal those of the 6-D ``block_view``. They are
    exact in the array's type, and each range is their float64 difference,
    so a float32 array ranks its blocks as its float64 widening does."""
    gx, gy, gz = block_grid(arr.shape[::-1], b)
    planes = arr.reshape(gz, b, gy * b, gx * b)

    def fold(reduce):
        rows = reduce(planes, axis=1).reshape(gz, gy, b, gx * b)
        return reduce(reduce(rows, axis=2).reshape(gz, gy, gx, b), axis=3)

    return np.subtract(fold(np.maximum.reduce), fold(np.minimum.reduce), dtype=np.float64).reshape(-1)


def downsample2x(a: np.ndarray) -> np.ndarray:
    """Halve every axis of the (z, y, x) array ``a`` by averaging disjoint
    2x2x2 cells.

    Each cell is ((((0 + s00) + s01) + s10) + s11) / 8, where sij is the
    x-pair a[2z+i, 2y+j, 2x] + a[2z+i, 2y+j, 2x+1]. That is the order of
    numpy's ``mean`` over the (1, 3, 5) axes of the (nz/2, 2, ny/2, 2,
    nx/2, 2) reshape, whose inner loop sums each contiguous x-pair into the
    zeroed output, cell pairs in (z, y) index order; writing it out pins the
    bytes against a change in numpy. The sums run in float64 whatever the
    type of ``a``, and each cell is rounded to that type once, at the end,
    so a float32 array pools as its float64 widening does, rounded. Each
    sij is formed in one reused output-sized scratch, so the peak is about
    twice the float64 output. Sums of huge finite float64 values may
    overflow (float32 ones cannot): a non-finite cell is a DataError."""
    nz, ny, nx = a.shape
    if nx % 2 or ny % 2 or nz % 2:
        raise ShapeError(f"dims {(nx, ny, nz)} not divisible by 2")
    out = np.zeros((nz // 2, ny // 2, nx // 2))
    pair = np.empty_like(out)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
            out += np.add(a[i::2, j::2, 0::2], a[i::2, j::2, 1::2], out=pair, dtype=np.float64)
        out /= 8.0
        out = out.astype(a.dtype, copy=False)
    if not all_finite(out):
        raise DataError("the coarse level overflows: a 2x2x2 cell sum exceeds the float64 range")
    return out


def upsample2x(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Double every axis of the (z, y, x) array ``a`` by nearest-neighbor
    replication, out[2z+i, 2y+j, 2x+k] = a[z, y, x], into ``out`` if given
    (of the doubled shape) or a new array, and return it. The output is
    filled one input z-plane at a time, repeated along x and broadcast over
    its output rows and planes, so the scratch is one x-doubled plane."""
    nz, ny, nx = a.shape
    if out is None:
        out = np.empty((2 * nz, 2 * ny, 2 * nx), dtype=a.dtype)
    pairs = out.reshape(nz, 2, ny, 2, 2 * nx)  # splits axes only: always a view
    for z in range(nz):
        pairs[z] = a[z].repeat(2, axis=1)[:, None, :]
    return out


def _np_dtype(dtype: str) -> np.dtype:
    table = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
    if dtype not in table:
        raise ShapeError(f"unsupported scalar type {dtype!r}, expected f32 or f64")
    return table[dtype]


def read_raw_volume(path, dims: Dims, dtype: str = "f32") -> Volume:
    """Read a headerless little-endian raw volume file into a Volume of
    the file's scalar type, bit for bit."""
    nx, ny, nz = dims
    dt = _np_dtype(dtype)
    flat = np.fromfile(path, dtype=dt)
    if flat.size != nx * ny * nz:
        raise ShapeError(
            f"file holds {flat.size} scalars, dims {dims} require {nx * ny * nz}"
        )
    if not all_finite(flat):
        raise DataError("volume contains non-finite values")
    return Volume._adopt(scalar_array(flat).reshape(nz, ny, nx), finite=True)


def write_raw_volume(v: Volume, path, dtype: str = "f32") -> None:
    """Write the volume as a headerless little-endian raw file of
    ``dtype``: as it is when that is its type, else rounded or widened
    (widening float32 to float64 is exact)."""
    v.data.astype(_np_dtype(dtype), copy=False).tofile(path)
