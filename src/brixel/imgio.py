"""Minimal image IO: binary PPM (P6) natively, PNG written via zlib.

PPM keeps the pipeline dependency-free and byte-reproducible; PNG output is
available for viewers that want it. Other input formats are out of scope.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import DataIOError
from .tensors import F32, ImageTensor


def image_to_rgb8(img: ImageTensor) -> np.ndarray:
    """(3, h, w) floats in [0,1] -> (h, w, 3) uint8."""
    return np.clip(np.round(img.data * 255.0), 0, 255).astype(np.uint8).transpose(1, 2, 0)


def rgb8_to_image(rgb: np.ndarray) -> ImageTensor:
    return ImageTensor((rgb.astype(F32) / 255.0).transpose(2, 0, 1))


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write (H, W, 3) uint8 as binary PPM (P6), maxval 255."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ValueError("write_ppm expects (H, W, 3) uint8")
    h, w = rgb.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(rgb.tobytes())


def read_ppm(path) -> ImageTensor:
    """Read a binary PPM (P6) with maxval 255; comments allowed in the header."""
    raw = Path(path).read_bytes()
    if raw[:2] != b"P6":
        raise DataIOError(f"{path}: not a binary PPM (P6) file")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataIOError(f"{path}: truncated PPM header")
        fields.append(raw[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        w, h, maxval = (int(x) for x in fields)
    except ValueError as exc:
        raise DataIOError(f"{path}: malformed PPM header") from exc
    if w < 1 or h < 1:
        raise DataIOError(f"{path}: PPM size {w}x{h} has no pixels")
    if maxval != 255:
        raise DataIOError(f"{path}: only maxval 255 is supported, got {maxval}")
    expected = w * h * 3
    data = raw[pos:pos + expected]
    if len(data) != expected:
        raise DataIOError(f"{path}: PPM payload truncated")
    rgb = np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3)
    return rgb8_to_image(rgb)


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))


def write_png(path, rgb: np.ndarray) -> None:
    """Write (H, W, 3) uint8 as an 8-bit RGB PNG (filter type 0 per row)."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ValueError("write_png expects (H, W, 3) uint8")
    h, w = rgb.shape[:2]
    header = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    raw = b"".join(b"\x00" + rgb[y].tobytes() for y in range(h))
    png = (b"\x89PNG\r\n\x1a\n"
           + _png_chunk(b"IHDR", header)
           + _png_chunk(b"IDAT", zlib.compress(raw, 9))
           + _png_chunk(b"IEND", b""))
    Path(path).write_bytes(png)
