"""Dense tensor plumbing: dtypes, finiteness checks, image resizing,
token/grid layout conversion, and the ``.brxt`` binary serialization format.

Arrays are plain contiguous row-major ``numpy.ndarray`` values in float32
(training) or float64 (gradient-check builds). An ``ImageTensor`` or
``FeatureMap`` holding NaN/Inf raises ``NumericError``; a malformed ``.brxt``
file raises ``DataIOError``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import DataIOError, NumericError

F32 = np.float32

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}

_MAGIC = b"BRXT"
_FORMAT_VERSION = 1


def require_finite(arr: np.ndarray, what: str) -> np.ndarray:
    """Return ``arr`` unchanged, raising if it contains NaN or Inf."""
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {what}")
    return arr


@dataclass(frozen=True)
class ImageTensor:
    """An RGB image: (3, h, w) float array with pixel values in [0, 1]."""

    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 3 or self.data.shape[0] != 3:
            raise ValueError(f"image must have shape (3, h, w), got {self.data.shape}")
        require_finite(self.data, "image")
        lo, hi = float(self.data.min()), float(self.data.max())
        if lo < -1e-6 or hi > 1.0 + 1e-6:
            raise ValueError(f"pixel values outside [0, 1]: min={lo}, max={hi}")

    @property
    def h(self) -> int:
        return self.data.shape[1]

    @property
    def w(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class FeatureMap:
    """A per-patch descriptor grid: (C, H, W) float array."""

    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 3:
            raise ValueError(f"feature map must have shape (C, H, W), got {self.data.shape}")
        require_finite(self.data, "feature map")

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def grid(self) -> tuple[int, int]:
        return self.data.shape[1], self.data.shape[2]

    def tokens(self) -> np.ndarray:
        """Flatten to (H*W, C) tokens in row-major grid order."""
        return grid_to_tokens(self.data)


# ---------------------------------------------------------------------------
# Resizing
# ---------------------------------------------------------------------------

def _bilinear_weights(n_in: int, n_out: int, dtype) -> np.ndarray:
    """Plain bilinear resampling matrix (n_out, n_in).

    Half-pixel centers with clamp-to-edge: output center j maps to input
    coordinate (j + 0.5) * n_in / n_out - 0.5.
    """
    w = np.zeros((n_out, n_in), dtype=dtype)
    scale = n_in / n_out
    for j in range(n_out):
        x = (j + 0.5) * scale - 0.5
        x0 = int(np.floor(x))
        frac = x - x0
        i0 = min(max(x0, 0), n_in - 1)
        i1 = min(max(x0 + 1, 0), n_in - 1)
        w[j, i0] += 1.0 - frac
        w[j, i1] += frac
    return w


def _area_weights(n_in: int, n_out: int, dtype) -> np.ndarray:
    """Area (box-filter) resampling matrix (n_out, n_in).

    Output pixel j averages the input interval [j*s, (j+1)*s), s = n_in/n_out,
    weighting partially covered input pixels by their overlap. Acts as the
    antialiasing low-pass for downsampling; exact on constants and on linear
    ramps (the average over an interval of a linear function is its midpoint
    value).
    """
    w = np.zeros((n_out, n_in), dtype=dtype)
    scale = n_in / n_out
    for j in range(n_out):
        left = j * scale
        right = (j + 1) * scale
        i0 = int(np.floor(left))
        i1 = min(int(np.ceil(right)), n_in)
        for i in range(i0, i1):
            overlap = min(right, i + 1) - max(left, i)
            if overlap > 0:
                w[j, i] = overlap / scale
    return w


@lru_cache(maxsize=256)
def _resize_matrix_cached(n_in: int, n_out: int, antialias: bool, dtype_name: str) -> np.ndarray:
    """1D resampling matrix behind every image and feature-map resize.

    Antialiased downsampling uses area weights; everything else plain
    bilinear. Rows always sum to 1, so constants are preserved exactly.
    Cached per size; callers must treat the result as read-only.
    """
    if n_in <= 0 or n_out <= 0:
        raise ValueError("resize sizes must be >= 1")
    dtype = np.dtype(dtype_name)
    if antialias and n_out < n_in:
        return _area_weights(n_in, n_out, dtype)
    return _bilinear_weights(n_in, n_out, dtype)


def resize_plane(planes: np.ndarray, out_h: int, out_w: int, antialias: bool) -> np.ndarray:
    """Resize the last two axes of an (..., H, W) stack of planes; separable
    row/column resampling, broadcast over the leading axes."""
    wy = _resize_matrix_cached(planes.shape[-2], out_h, antialias, planes.dtype.name)
    wx = _resize_matrix_cached(planes.shape[-1], out_w, antialias, planes.dtype.name)
    return wy @ planes @ wx.T


def resize_bilinear(img: ImageTensor, out_h: int, out_w: int, antialias: bool = True) -> ImageTensor:
    """Resize an image with half-pixel-center bilinear sampling.

    When downsampling with ``antialias`` on, an area-weighted box filter is
    applied so the result is free of spectral aliasing.
    """
    out = resize_plane(img.data, out_h, out_w, antialias)
    np.clip(out, 0.0, 1.0, out=out)
    return ImageTensor(out)


# ---------------------------------------------------------------------------
# Token/grid layout
# ---------------------------------------------------------------------------

def tokens_to_grid(tokens: np.ndarray, h: int, w: int) -> np.ndarray:
    """(N, C) tokens -> (C, H, W) grid; token i lands at (i // W, i % W)."""
    if tokens.ndim != 2:
        raise ValueError(f"tokens must be 2-d (N, C), got shape {tokens.shape}")
    n, c = tokens.shape
    if n != h * w:
        raise ValueError(f"token count {n} != H*W = {h}*{w}")
    return np.ascontiguousarray(tokens.reshape(h, w, c).transpose(2, 0, 1))


def grid_to_tokens(grid: np.ndarray) -> np.ndarray:
    """(C, H, W) grid -> (N, C) tokens; exact inverse of tokens_to_grid."""
    if grid.ndim != 3:
        raise ValueError(f"grid must be 3-d (C, H, W), got shape {grid.shape}")
    c, h, w = grid.shape
    return np.ascontiguousarray(grid.transpose(1, 2, 0).reshape(h * w, c))


# ---------------------------------------------------------------------------
# Binary serialization (.brxt)
# ---------------------------------------------------------------------------
# Layout: magic "BRXT" | format version u32 LE (=1) | dtype code u8
# (0=f32, 1=f64) | ndim u8 | dims u64 LE x ndim | raw little-endian scalars.
# No compression, no alignment padding.

def save_tensor(t: np.ndarray, path) -> None:
    """Write an array to a .brxt file; round trip is bit-exact."""
    t = np.ascontiguousarray(t)
    if t.dtype not in _DTYPE_CODES:
        raise TypeError(f"unsupported dtype {t.dtype}; expected float32 or float64")
    if t.ndim < 1:
        t = t.reshape(1)
    header = _MAGIC + struct.pack("<IBB", _FORMAT_VERSION, _DTYPE_CODES[t.dtype], t.ndim)
    header += struct.pack(f"<{t.ndim}Q", *t.shape)
    payload = t.astype(t.dtype.newbyteorder("<"), copy=False).tobytes()
    Path(path).write_bytes(header + payload)


def load_tensor(path) -> np.ndarray:
    """Read a .brxt file back into a contiguous, writable array."""
    raw = Path(path).read_bytes()
    if len(raw) < 10:
        raise DataIOError(f"{path}: truncated header")
    if raw[:4] != _MAGIC:
        raise DataIOError(f"{path}: bad magic {raw[:4]!r}")
    version, dtype_code, ndim = struct.unpack_from("<IBB", raw, 4)
    if version != _FORMAT_VERSION:
        raise DataIOError(f"{path}: unsupported format version {version}")
    if dtype_code not in _CODE_DTYPES:
        raise DataIOError(f"{path}: unknown dtype code {dtype_code}")
    if ndim < 1:
        raise DataIOError(f"{path}: ndim must be >= 1")
    dims_end = 10 + 8 * ndim
    if len(raw) < dims_end:
        raise DataIOError(f"{path}: truncated dimension list")
    dims = struct.unpack_from(f"<{ndim}Q", raw, 10)
    dtype = _CODE_DTYPES[dtype_code]
    count = 1
    for d in dims:
        if d == 0:
            raise DataIOError(f"{path}: zero-sized dimension")
        count *= d
    payload = memoryview(raw)[dims_end:]
    expected = count * dtype.itemsize
    if len(payload) < expected:
        raise DataIOError(
            f"{path}: truncated payload ({len(payload)} bytes for {count} elements)"
        )
    if len(payload) > expected:
        raise DataIOError(f"{path}: payload length mismatch ({len(payload)} > {expected})")
    arr = np.frombuffer(payload, dtype=dtype).reshape(dims)
    return arr.astype(arr.dtype.newbyteorder("="))
