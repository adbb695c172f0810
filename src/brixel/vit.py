"""A small frozen vision transformer serving as both teacher and student
backbone (shared weights), plus a file-backed teacher that serves
precomputed feature maps from disk.

The backbone uses standard pre-norm blocks over patch tokens only (no
CLS/register tokens) with learned position embeddings that are bilinearly
interpolated to the input's token grid, so the same weights run at both the
high (teacher) and low (student) resolution. ``depth=0`` is the pure
patch-embedding configuration used by diagnostics: no position embedding,
no blocks, no final normalization.

Distillation targets the post-final-normalization patch tokens.

The forward is tape-free numpy in the ``autodiff`` ops' order and scalar casts
(so bits match); attention softmaxes one head's (N, N) scores at a time, in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataIOError
from .params import ModelParams
from .tensors import F32, FeatureMap, ImageTensor, load_tensor, resize_plane, tokens_to_grid

# grid at which learned position embeddings are stored; interpolated elsewhere
POS_BASE_GRID = 16


@dataclass(frozen=True)
class ViTConfig:
    patch_size: int = 8
    embed_dim: int = 32
    depth: int = 2
    heads: int = 4
    mlp_ratio: float = 4.0

    def __post_init__(self):
        if self.heads < 1 or self.embed_dim % self.heads:
            raise ValueError(
                f"heads {self.heads} must be >= 1 and divide embed_dim {self.embed_dim}")
        if self.patch_size < 1 or self.depth < 0:
            raise ValueError("patch_size must be >= 1 and depth >= 0")
        if not math.isfinite(self.mlp_ratio * self.embed_dim) or self.mlp_hidden < 1:
            raise ValueError(f"mlp_ratio {self.mlp_ratio} at embed_dim {self.embed_dim} must "
                             "give a finite MLP width >= 1")

    @property
    def mlp_hidden(self) -> int:
        return int(round(self.mlp_ratio * self.embed_dim))


def init_backbone(cfg: ViTConfig, seed: int, dtype=F32) -> ModelParams:
    """Seeded random frozen backbone weights (stand-in for a pretrained model).

    Plain fan-in init makes a random ViT emit nearly identical tokens: at
    random weights the attention pattern is near-uniform, so every residual
    branch adds one shared vector and the patch signal drowns in a common
    component. Three adjustments keep the dense features spatially diverse,
    which any useful teacher must be: residual-branch projections are damped
    by 1/sqrt(2*depth), query/key weights are scaled up so attention stays
    selective, and position embeddings get an appreciable amplitude.
    """
    rng = np.random.default_rng(seed)
    c = cfg.embed_dim
    hid = cfg.mlp_hidden
    residual_scale = 1.0 / np.sqrt(2.0 * max(cfg.depth, 1))
    w: dict[str, np.ndarray] = {}

    def normal(shape, fan_in, scale=1.0):
        return (scale * rng.standard_normal(shape) / np.sqrt(fan_in)).astype(dtype)

    w["patch_embed.w"] = normal((c, 3, cfg.patch_size, cfg.patch_size),
                                3 * cfg.patch_size ** 2)
    w["patch_embed.b"] = np.zeros(c, dtype=dtype)
    w["pos_embed"] = (0.3 * rng.standard_normal((POS_BASE_GRID, POS_BASE_GRID, c))
                      ).astype(dtype)
    for i in range(cfg.depth):
        pre = f"blocks.{i}."
        w[pre + "ln1.g"] = np.ones(c, dtype=dtype)
        w[pre + "ln1.b"] = np.zeros(c, dtype=dtype)
        w[pre + "attn.wq"] = normal((c, c), c, scale=3.0)
        w[pre + "attn.wk"] = normal((c, c), c, scale=3.0)
        w[pre + "attn.wv"] = normal((c, c), c)
        w[pre + "attn.wo"] = normal((c, c), c, scale=residual_scale)
        for name in ("bq", "bk", "bv", "bo"):
            w[pre + "attn." + name] = np.zeros(c, dtype=dtype)
        w[pre + "ln2.g"] = np.ones(c, dtype=dtype)
        w[pre + "ln2.b"] = np.zeros(c, dtype=dtype)
        w[pre + "mlp.w1"] = normal((c, hid), c)
        w[pre + "mlp.b1"] = np.zeros(hid, dtype=dtype)
        w[pre + "mlp.w2"] = normal((hid, c), hid, scale=residual_scale)
        w[pre + "mlp.b2"] = np.zeros(c, dtype=dtype)
    if cfg.depth > 0:
        w["final_norm.g"] = np.ones(c, dtype=dtype)
        w["final_norm.b"] = np.zeros(c, dtype=dtype)
    return ModelParams(w, trainable=False)


def interpolate_pos_embed(pos: np.ndarray, gh: int, gw: int) -> np.ndarray:
    """Resample (base, base, C) learned positions to the (gh*gw, C) token list."""
    base_h, base_w, c = pos.shape
    if (base_h, base_w) != (gh, gw):
        pos = resize_plane(pos.transpose(2, 0, 1), gh, gw, antialias=False).transpose(1, 2, 0)
    return np.ascontiguousarray(pos.reshape(gh * gw, c))


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    xc = x - x.mean(axis=-1, keepdims=True)
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc / np.sqrt(var + x.dtype.type(eps)) * g + b


def _attention(x: np.ndarray, w: ModelParams, pre: str, heads: int) -> np.ndarray:
    n, c = x.shape
    dh = c // heads
    q, k, v = (np.ascontiguousarray((x @ w[pre + "attn.w" + s] + w[pre + "attn.b" + s])
                                    .reshape(n, heads, dh).transpose(1, 0, 2)) for s in "qkv")
    scores = np.empty((n, n), dtype=x.dtype)
    out = np.empty((n, heads, dh), dtype=x.dtype)
    for h in range(heads):
        np.matmul(q[h], k[h].T, out=scores)
        scores *= x.dtype.type(1.0 / np.sqrt(dh))
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        out[:, h] = scores @ v[h]
    return out.reshape(n, c) @ w[pre + "attn.wo"] + w[pre + "attn.bo"]


def vit_tokens(img: ImageTensor, cfg: ViTConfig, weights: ModelParams) -> ad.Node:
    """Forward pass returning the (N, C) tokens as a constant node."""
    p = cfg.patch_size
    if img.h % p or img.w % p:
        raise ValueError(f"image sides {(img.h, img.w)} not divisible by patch size {p}")
    if weights["patch_embed.w"].shape != (cfg.embed_dim, 3, p, p):
        raise ValueError("backbone weights do not match the configuration")
    gh, gw = img.h // p, img.w // p
    w = weights
    patches = img.data.astype(w["patch_embed.w"].dtype).reshape(3, gh, p, gw, p)
    cols = patches.transpose(0, 2, 4, 1, 3).reshape(3 * p * p, gh * gw)
    x = w["patch_embed.w"].reshape(cfg.embed_dim, -1) @ cols + w["patch_embed.b"][:, None]
    tokens = np.ascontiguousarray(x.T)
    if cfg.depth > 0:
        tokens = tokens + interpolate_pos_embed(w["pos_embed"], gh, gw)
        for i in range(cfg.depth):
            pre = f"blocks.{i}."
            h = _layer_norm(tokens, w[pre + "ln1.g"], w[pre + "ln1.b"])
            tokens = tokens + _attention(h, w, pre, cfg.heads)
            h = _layer_norm(tokens, w[pre + "ln2.g"], w[pre + "ln2.b"])
            h = ad._gelu_parts(h @ w[pre + "mlp.w1"] + w[pre + "mlp.b1"])[0]
            tokens = tokens + (h @ w[pre + "mlp.w2"] + w[pre + "mlp.b2"])
        tokens = _layer_norm(tokens, w["final_norm.g"], w["final_norm.b"])
    return ad.constant(tokens)


def vit_forward(img: ImageTensor, cfg: ViTConfig, weights: ModelParams) -> FeatureMap:
    """Dense features (C, h/p, w/p) for one image. Deterministic; no gradients
    are ever tracked into the frozen weights."""
    p = cfg.patch_size
    gh, gw = img.h // p, img.w // p
    tokens = vit_tokens(img, cfg, weights).value
    return FeatureMap(tokens_to_grid(tokens, gh, gw))


# ---------------------------------------------------------------------------
# Teacher sources
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiveTeacher:
    """Teacher = the frozen backbone itself, run at high resolution."""

    cfg: ViTConfig
    weights: ModelParams


@dataclass(frozen=True)
class FileTeacher:
    """Teacher features served from ``<dir>/<sample_id>.brxt`` dumps."""

    directory: Path
    expected_shape: tuple[int, int, int]  # (C, H_t, W_t)
    expected_dtype: np.dtype = np.dtype(F32)  # the run's dtype


def teacher_features(src, sample_id: str, img: ImageTensor | None) -> FeatureMap:
    """Target map for one sample from a :class:`LiveTeacher` (run on ``img``) or
    a :class:`FileTeacher` (``img`` unused); always detached from any graph."""
    if isinstance(src, LiveTeacher):
        return vit_forward(img, src.cfg, src.weights)
    path = Path(src.directory) / f"{sample_id}.brxt"
    if not path.exists():
        raise DataIOError(f"missing teacher feature file: {path}")
    data = load_tensor(path)
    if tuple(data.shape) != tuple(src.expected_shape):
        raise ConfigError(
            f"teacher file {path} has shape {data.shape}, run config expects "
            f"{tuple(src.expected_shape)}")
    if data.dtype != src.expected_dtype:
        raise ConfigError(f"teacher file {path} has dtype {data.dtype}, run config "
                          f"expects {src.expected_dtype}")
    return FeatureMap(data)
