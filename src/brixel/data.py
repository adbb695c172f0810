"""Training data: a directory-of-PPM loader and seeded synthetic generators.

The synthetic images (gradient backgrounds with hard-edged random convex
polygons) are label-free but edge-rich, which is exactly what the edge and
spectral losses need; the two-region variant also returns a per-pixel mask
for the toy segmentation probe. The generators work on broadcast (h, 1) and
(1, w) coordinate vectors, and a polygon's edges are tested, and its colour
filled, only on the integer bounding box of its vertices; every expression
keeps the operand order of the full-grid form, so the pixels are the same
bits.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import DataIOError
from .imgio import read_ppm
from .tensors import F32, ImageTensor, resize_bilinear


def _span(lo: float, hi: float) -> slice:
    """Indices floor(lo)..ceil(hi); slicing clips them to the image."""
    return slice(max(math.floor(lo), 0), max(math.ceil(hi) + 1, 0))


def _polygon_mask(rng, h: int, w: int) -> tuple[tuple[slice, slice], np.ndarray]:
    """Filled random convex polygon as its integer bounding box (clipped to
    the image) and a boolean mask on that box. Every pixel outside the box
    lies at least one pixel from the vertices' box, so it is outside."""
    cx, cy = rng.uniform(0.15, 0.85) * w, rng.uniform(0.15, 0.85) * h
    radius = rng.uniform(0.12, 0.35) * min(h, w)
    k = int(rng.integers(3, 7))
    angles = np.sort(rng.uniform(0, 2 * np.pi, size=k))
    radii = radius * rng.uniform(0.6, 1.0, size=k)
    vx = cx + radii * np.cos(angles)
    vy = cy + radii * np.sin(angles)
    box = _span(vy.min(), vy.max()), _span(vx.min(), vx.max())
    yy = np.arange(h)[box[0], None]
    xx = np.arange(w)[None, box[1]]
    inside = np.ones((yy.shape[0], xx.shape[1]), dtype=bool)
    for i in range(k):
        x1, y1 = vx[i], vy[i]
        x2, y2 = vx[(i + 1) % k], vy[(i + 1) % k]
        cross = (x2 - x1) * (yy - y1) - (y2 - y1) * (xx - x1)
        inside &= cross >= 0  # vertices are angle-sorted, so edges wind CCW
    return box, inside


def _gradient_background(rng, h: int, w: int) -> np.ndarray:
    c0, c1 = rng.random(3), rng.random(3)
    direction = rng.standard_normal(2)
    direction /= np.linalg.norm(direction) + 1e-9
    yy, xx = np.arange(h)[:, None], np.arange(w)[None, :]
    t = direction[0] * yy / max(h - 1, 1) + direction[1] * xx / max(w - 1, 1)
    t = (t - t.min()) / (t.max() - t.min() + 1e-9)
    return c0[:, None, None] * (1 - t) + c1[:, None, None] * t


def synthetic_image(rng, resolution: int) -> ImageTensor:
    """One gradient background overlaid with hard-edged random polygons."""
    img = _gradient_background(rng, resolution, resolution)
    for _ in range(int(rng.integers(3, 7))):
        box, inside = _polygon_mask(rng, resolution, resolution)
        img[:, box[0], box[1]][:, inside] = rng.random(3)[:, None]
    return ImageTensor(np.clip(img, 0.0, 1.0).astype(F32))


def synthetic_dataset(count: int, resolution: int, seed: int) -> list[tuple[str, ImageTensor]]:
    out = []
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        out.append((f"synthetic_{i:04d}", synthetic_image(rng, resolution)))
    return out


def _half_plane_mask(rng, h: int, w: int) -> np.ndarray:
    """Split by a random oriented line through a random interior point."""
    theta = rng.uniform(0, 2 * np.pi)
    cy, cx = rng.uniform(0.3, 0.7) * h, rng.uniform(0.3, 0.7) * w
    yy, xx = np.arange(h)[:, None], np.arange(w)[None, :]
    return ((yy - cy) * np.cos(theta) + (xx - cx) * np.sin(theta)) >= 0


def _big_polygon_mask(rng, h: int, w: int) -> np.ndarray:
    while True:
        box, inside = _polygon_mask(rng, h, w)
        mask = np.zeros((h, w), dtype=bool)
        mask[box] = inside
        if 0.15 < mask.mean() < 0.85:
            return mask


def two_region_sample(rng, resolution: int, colors: np.ndarray
                      ) -> tuple[ImageTensor, np.ndarray]:
    """One two-region image (half-plane or large polygon) plus its class mask.

    The two class colors are fixed across a dataset (small per-image jitter
    only), so the classes stay linearly color-separable for the toy probe.
    """
    h = w = resolution
    mask = _half_plane_mask(rng, h, w) if rng.random() < 0.5 else _big_polygon_mask(rng, h, w)
    jitter = 0.03 * rng.standard_normal((2, 3))
    shade = np.clip(colors + jitter, 0.0, 1.0)
    img = np.where(mask[None], shade[1][:, None, None], shade[0][:, None, None])
    img = img + 0.02 * rng.standard_normal(img.shape)
    return ImageTensor(np.clip(img, 0.0, 1.0).astype(F32)), mask.astype(np.int64)


def two_region_colors(seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 7919])
    colors = rng.random((2, 3))
    while np.linalg.norm(colors[0] - colors[1]) < 0.5:
        colors = rng.random((2, 3))
    return colors


def two_region_dataset(count: int, resolution: int, seed: int
                       ) -> list[tuple[str, ImageTensor, np.ndarray]]:
    colors = two_region_colors(seed)
    out = []
    for i in range(count):
        rng = np.random.default_rng([seed, 7919, i])
        img, mask = two_region_sample(rng, resolution, colors)
        out.append((f"tworegion_{i:04d}", img, mask))
    return out


def load_image(path, resolution: int) -> ImageTensor:
    """One PPM, center-cropped to a square and resized to ``resolution``. A crop
    already at ``resolution`` is not resampled: both resampling matrices would
    be identities, so it is the resized image bit for bit."""
    img = read_ppm(path)
    side = min(img.h, img.w)
    y0 = (img.h - side) // 2
    x0 = (img.w - side) // 2
    img = ImageTensor(np.ascontiguousarray(img.data[:, y0:y0 + side, x0:x0 + side]))
    if side == resolution:
        return img
    return resize_bilinear(img, resolution, resolution, antialias=True)


def load_directory(path, resolution: int) -> list[tuple[str, ImageTensor]]:
    """All *.ppm files under ``path`` in filename order, each loaded by
    :func:`load_image`."""
    root = Path(path)
    if not root.is_dir():
        raise DataIOError(f"data directory not found: {root}")
    files = sorted(root.glob("*.ppm"))
    if not files:
        raise DataIOError(f"no .ppm images in {root}")
    return [(p.stem, load_image(p, resolution)) for p in files]
