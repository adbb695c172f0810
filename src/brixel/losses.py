"""The three distillation loss terms and their weighted total.

* plain L1 between student and teacher maps,
* an edge loss comparing Sobel responses of both maps after a token-wise
  projection onto the top-K principal components of the batch teacher
  tokens (from the eigendecomposition of their C×C Gram matrix, never
  receiving gradients). Projection and Sobel are both linear, so the loss
  runs them once, on the gap T - S, where the PCA mean cancels; the
  separable Sobel kernel, replicate padding included, runs as products with
  fixed (n, n) matrices along each axis, and
* a spectral loss comparing log radial amplitude spectra above a cutoff
  radius, so the student is pushed to reproduce the teacher's
  high-frequency content. The 2-d amplitude spectrum is numpy's real FFT
  (the half-plane ``np.fft.rfft2`` keeps) behind one autodiff op
  (``ad.fft_amplitude``) with an analytic gradient; the cutoff is a row
  range of the fixed matrix that averages it into radius bins.

Every function takes one (C, H, W) map or a stack (N, C, H, W) of them and
reduces over the last three axes: a stack gives per-sample values of shape
(N,), bit-equal to calling the function once per map. All reductions are
means over elements, which keeps the loss weights resolution-independent.
Teacher inputs enter as constants; gradients flow into the student map
only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .tensors import FeatureMap

# guards sqrt(0) inside amplitude computation; far below every tolerance in use
_AMP_EPS = 1e-24


@dataclass(frozen=True)
class LossWeights:
    edge: float
    spectral: float


@dataclass(frozen=True)
class SpectralConfig:
    """Radial-spectrum comparison above cutoff radius r0 (integer bins)."""

    r0: int
    eps_log: float


def r_max_for_grid(h: int, w: int) -> int:
    return min(h, w) // 2


def default_r0(h: int, w: int) -> int:
    """Half-Nyquist split: everything above half the maximum radius is
    treated as high-frequency."""
    return max(1, r_max_for_grid(h, w) // 2)


@dataclass(frozen=True)
class PcaProjection:
    """Token-wise projection onto the K highest-variance directions of a
    token population. Built from teacher tokens only; carries no gradient."""

    mean: np.ndarray   # (C,)
    basis: np.ndarray  # (C, K), orthonormal columns
    k: int
    degenerate: bool = False


def _as_student_node(fm) -> ad.Node:
    if isinstance(fm, ad.Node):
        return fm
    if isinstance(fm, FeatureMap):
        return ad.constant(fm.data)
    return ad.constant(np.asarray(fm))


def _as_teacher_node(fm) -> ad.Node:
    """Teacher maps never carry gradients, whatever the caller hands us."""
    return ad.constant(_as_student_node(fm).value)


def _check_same_shape(student: ad.Node, teacher: ad.Node):
    if student.value.shape != teacher.value.shape:
        raise ValueError(
            f"student/teacher shape mismatch: {student.value.shape} vs {teacher.value.shape}")


def _check_maps(x: ad.Node):
    if x.value.ndim not in (3, 4):
        raise ValueError(f"feature map must be (C, H, W) or (N, C, H, W), got {x.value.shape}")


# the per-map reduction: every element of each (C, H, W) map
_MAP_AXES = (-3, -2, -1)


# ---------------------------------------------------------------------------
# L1
# ---------------------------------------------------------------------------

def l1_loss(student, teacher) -> ad.Node:
    """Mean absolute difference over all C*H*W elements of each map."""
    s = _as_student_node(student)
    t = _as_teacher_node(teacher)
    _check_same_shape(s, t)
    _check_maps(s)
    return ad.reduce_mean(ad.absolute(ad.sub(t, s)), axis=_MAP_AXES)


# ---------------------------------------------------------------------------
# PCA projection
# ---------------------------------------------------------------------------

def fit_pca(tokens, k: int) -> PcaProjection:
    """Top-K principal directions of a pooled token set (N, C).

    Eigendecomposition of the C×C Gram matrix ``XcᵀXc`` of the mean-centred
    tokens in float64; columns ordered by eigenvalue descending, each
    sign-fixed so its largest-magnitude component is positive. The rank is
    the count of eigenvalues above ``λ_max · max(N, C) · eps``; a rank below
    K is completed with the orthonormal eigenvectors of the remaining
    eigenvalues and flagged with a warning.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ValueError(f"tokens must be (N, C), got {tokens.shape}")
    n, c = tokens.shape
    if not 1 <= k <= min(n, c):
        raise ValueError(f"K={k} must satisfy 1 <= K <= min(N={n}, C={c})")
    dtype = tokens.dtype
    mean = tokens.mean(axis=0)
    centered = (tokens - mean).astype(np.float64)
    evals, evecs = np.linalg.eigh(centered.T @ centered)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    rank = int(np.sum(evals > evals[0] * max(n, c) * np.finfo(np.float64).eps))
    degenerate = rank < k
    if degenerate:
        warnings.warn(
            f"token set has rank {rank} < K={k}; completing the basis with "
            "arbitrary orthonormal directions", RuntimeWarning, stacklevel=2)
    basis = evecs[:, :k].copy()
    for j in range(k):
        col = basis[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            basis[:, j] = -col
    return PcaProjection(mean.astype(dtype), basis.astype(dtype), k, degenerate)


def _check_channels(x: ad.Node, p: PcaProjection):
    _check_maps(x)
    if x.value.shape[-3] != len(p.mean):
        raise ValueError(f"map has {x.value.shape[-3]} channels, projection expects {len(p.mean)}")


def _basis_coordinates(x: ad.Node, p: PcaProjection) -> ad.Node:
    """Token-wise map x -> V_K^T x, (..., C, H, W) -> (..., K, H, W)."""
    *lead, c, h, w = x.value.shape
    # a stack runs as one (K, C) @ (C, H*W) product per map, as a single map does
    coords = ad.matmul(ad.constant(p.basis.T, dtype=x.value.dtype),
                       ad.reshape(x, (*lead, c, h * w)))
    return ad.reshape(coords, (*lead, p.k, h, w))


# ---------------------------------------------------------------------------
# Sobel / edge loss
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _sobel_matrices(n: int, dtype_name: str) -> tuple[np.ndarray, np.ndarray]:
    """(n, n) matrices applying the Sobel factors along one axis of length n:
    S smooths with [1, 2, 1] and D differences with [-1, 0, 1]. Replicate
    padding is folded into the first and last rows (an index past an edge
    reads the edge sample)."""
    s = np.zeros((n, n))
    d = np.zeros((n, n))
    rows = np.arange(n)
    for offset, smooth, diff in ((-1, 1.0, -1.0), (0, 2.0, 0.0), (1, 1.0, 1.0)):
        cols = np.clip(rows + offset, 0, n - 1)
        s[rows, cols] += smooth
        d[rows, cols] += diff
    dtype = np.dtype(dtype_name)
    return s.astype(dtype), d.astype(dtype)


def sobel(fm) -> tuple[ad.Node, ad.Node]:
    """Channel-wise 3x3 Sobel responses with replicate padding (same size).

    The kernel is separable, so each response of an (H, W) plane X is two
    products with fixed matrices: gx = S_H @ X @ D_W^T and
    gy = D_H @ X @ S_W^T (see ``_sobel_matrices``).
    """
    x = _as_student_node(fm)
    _check_maps(x)
    h, w = x.value.shape[-2:]
    if h < 3 or w < 3:
        raise ValueError(f"grid {(h, w)} too small for a 3x3 Sobel window")
    dtype = x.value.dtype.name
    s_h, d_h = (ad.constant(m) for m in _sobel_matrices(h, dtype))
    s_w_t, d_w_t = (ad.constant(m.T) for m in _sobel_matrices(w, dtype))
    gx = ad.matmul(ad.matmul(s_h, x), d_w_t)
    gy = ad.matmul(ad.matmul(d_h, x), s_w_t)
    return gx, gy


def edge_loss(student, teacher, p: PcaProjection) -> ad.Node:
    """Mean |sobel_x(P(T)) - sobel_x(P(S))| + mean |sobel_y(...)| per map.

    P and Sobel are linear, so each response gap is the response of the
    projected gap V_K^T (T - S): one projection and one Sobel pair, with no
    centring, because the PCA mean cancels in the difference.
    """
    s = _as_student_node(student)
    t = _as_teacher_node(teacher)
    _check_same_shape(s, t)
    gap = ad.sub(t, s)
    _check_channels(gap, p)
    gx, gy = sobel(_basis_coordinates(gap, p))
    return ad.add(ad.reduce_mean(ad.absolute(gx), axis=_MAP_AXES),
                  ad.reduce_mean(ad.absolute(gy), axis=_MAP_AXES))


# ---------------------------------------------------------------------------
# Radial spectrum / spectral loss
# ---------------------------------------------------------------------------

def _radial_bins(h: int, w: int):
    """Integer bin per (u, v) frequency, -1 beyond r_max.

    Frequencies are centered (signed indices); each axis is scaled so its
    Nyquist frequency lands on r_max = floor(min(h, w)/2), which keeps the
    binning circles circular for non-square grids.
    """
    r_max = r_max_for_grid(h, w)
    uu = np.where(np.arange(h) > h // 2, np.arange(h) - h, np.arange(h))
    vv = np.where(np.arange(w) > w // 2, np.arange(w) - w, np.arange(w))
    ru = uu * (2.0 * r_max / h)
    rv = vv * (2.0 * r_max / w)
    r = np.round(np.sqrt(ru[:, None] ** 2 + rv[None, :] ** 2)).astype(np.int64)
    r[r > r_max] = -1
    return r, r_max


@lru_cache(maxsize=32)
def _bin_average_matrix(h: int, w: int, dtype_name: str) -> np.ndarray:
    """(r_max+1, H*(W//2+1)) matrix averaging a flattened half-plane
    amplitude map per radius.

    The annulus averages run over the full (H, W) plane. A real map's
    amplitude is point-symmetric, so each interior half-plane column stands
    for itself and its mirror and is weighted twice; column 0 and, for even
    W, the Nyquist column are their own mirrors and count once.
    """
    bins, r_max = _radial_bins(h, w)
    wh = w // 2 + 1
    mult = np.ones(wh)
    mult[1:(w + 1) // 2] = 2.0
    half = bins[:, :wh]
    mat = np.zeros((r_max + 1, h, wh), dtype=np.float64)
    for r in range(r_max + 1):
        count = int((bins == r).sum())
        if count:
            mat[r] = np.where(half == r, mult / count, 0.0)
    return mat.reshape(r_max + 1, h * wh).astype(np.dtype(dtype_name))


def radial_spectrum(fm, r0: int = 0) -> ad.Node:
    """One-dimensional amplitude spectrum over radii r0..r_max, shape
    (..., r_max + 1 - r0); the default r0=0 is the full spectrum.

    Per channel, the amplitude of the unitary 2-d DFT (normalized by
    sqrt(H*W)) comes from one ``ad.fft_amplitude`` op on the real-FFT
    half-plane with an analytic gradient; amplitudes are averaged over
    channels, then averaged within integer-radius annuli of centered
    frequencies by rows r0: of the cached bin matrix, bit-equal to those radii
    of the full spectrum.
    """
    x = _as_student_node(fm)
    _check_maps(x)
    *lead, _, h, w = x.value.shape
    r_max = r_max_for_grid(h, w)
    if not 0 <= r0 <= r_max:
        raise ValueError(f"r0={r0} must lie in 0..r_max={r_max}")
    amp = ad.fft_amplitude(x, _AMP_EPS)
    mean_amp = ad.reduce_mean(amp, axis=-3)
    hw = mean_amp.value.shape[-2] * mean_amp.value.shape[-1]
    # one weighted sum per radius, so no radius depends on the rows dropped or the
    # stack size, as it would in a BLAS matrix-vector product that groups rows
    weights = ad.constant(_bin_average_matrix(h, w, x.value.dtype.name)[r0:])
    return ad.reduce_sum(ad.mul(weights, ad.reshape(mean_amp, (*lead, 1, hw))), axis=-1)


def spectral_loss(student, teacher, cfg: SpectralConfig) -> ad.Node:
    """Mean over r >= r0 of the squared log-spectrum gap."""
    s = _as_student_node(student)
    t = _as_teacher_node(teacher)
    _check_same_shape(s, t)
    hi_s = radial_spectrum(s, cfg.r0)
    hi_t = radial_spectrum(t, cfg.r0)
    diff = ad.sub(ad.log(ad.add(hi_t, cfg.eps_log)), ad.log(ad.add(hi_s, cfg.eps_log)))
    return ad.reduce_mean(ad.square(diff), axis=-1)


# ---------------------------------------------------------------------------
# Total
# ---------------------------------------------------------------------------

def loss_breakdown(student, teacher, p: PcaProjection, weights: LossWeights,
                   cfg: SpectralConfig) -> tuple[ad.Node, dict[str, ad.Node]]:
    """Weighted total plus its three components (for logging); each is a
    scalar for one map and (N,) per-sample values for a stack."""
    parts = {
        "l1": l1_loss(student, teacher),
        "edge": edge_loss(student, teacher, p),
        "spectral": spectral_loss(student, teacher, cfg),
    }
    total = ad.add(parts["l1"],
                   ad.add(ad.mul(parts["edge"], weights.edge),
                          ad.mul(parts["spectral"], weights.spectral)))
    return total, parts


def total_loss(student, teacher, p: PcaProjection, weights: LossWeights,
               cfg: SpectralConfig) -> ad.Node:
    """L1 + lambda_edge * edge + lambda_spectral * spectral."""
    total, _ = loss_breakdown(student, teacher, p, weights, cfg)
    return total
