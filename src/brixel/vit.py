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

The forward runs on plain arrays, so no tape records it: layer norm and GELU
are the ``autodiff`` ops on constant operands. Attention runs each head over
blocks of 256 query rows, the last block taking the remainder (256 to 511
rows; below 512 tokens one block holds them all), so one reused (rows, N)
score buffer stays in L2 while it is exponentiated in place. The softmax is
a base-2 softmax, with the divide deferred past the AV product: one GEMM
against ``[v | 1]`` yields each row's outputs and, last, its denominator. No
block is smaller because a smaller ``[v | 1]`` product makes OpenBLAS pick
another kernel, whose last bits differ from the unblocked product's; with
the 256-row floor the tokens equal the autodiff op graph's bit for bit.
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
# query rows per attention block: a (256, N) float32 score block stays in L2 up
# to about 1k tokens. No block holds fewer rows (see the module docstring).
_ATTN_BLOCK_ROWS = 256


@dataclass(frozen=True)
class ViTConfig:
    """Backbone shape; each check that reads only these fields raises ConfigError."""

    patch_size: int = 8
    embed_dim: int = 32
    depth: int = 2
    heads: int = 4
    mlp_ratio: float = 4.0

    def __post_init__(self):
        if self.heads < 1 or self.embed_dim % self.heads:
            raise ConfigError(
                f"heads {self.heads} must be >= 1 and divide embed_dim {self.embed_dim}")
        if self.patch_size < 1 or self.depth < 0:
            raise ConfigError("patch_size must be >= 1 and depth >= 0")
        if not math.isfinite(self.mlp_ratio * self.embed_dim) or self.mlp_hidden < 1:
            raise ConfigError(f"mlp_ratio {self.mlp_ratio} at embed_dim {self.embed_dim} must "
                              "give a finite MLP width >= 1")

    @property
    def mlp_hidden(self) -> int:
        return int(round(self.mlp_ratio * self.embed_dim))


def init_backbone(cfg: ViTConfig, seed: int) -> ModelParams:
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
        return (scale * rng.standard_normal(shape) / np.sqrt(fan_in)).astype(F32)

    w["patch_embed.w"] = normal((c, 3, cfg.patch_size, cfg.patch_size),
                                3 * cfg.patch_size ** 2)
    w["patch_embed.b"] = np.zeros(c, dtype=F32)
    w["pos_embed"] = (0.3 * rng.standard_normal((POS_BASE_GRID, POS_BASE_GRID, c))
                      ).astype(F32)
    for i in range(cfg.depth):
        pre = f"blocks.{i}."
        w[pre + "ln1.g"] = np.ones(c, dtype=F32)
        w[pre + "ln1.b"] = np.zeros(c, dtype=F32)
        w[pre + "attn.wq"] = normal((c, c), c, scale=3.0)
        w[pre + "attn.wk"] = normal((c, c), c, scale=3.0)
        w[pre + "attn.wv"] = normal((c, c), c)
        w[pre + "attn.wo"] = normal((c, c), c, scale=residual_scale)
        for name in ("bq", "bk", "bv", "bo"):
            w[pre + "attn." + name] = np.zeros(c, dtype=F32)
        w[pre + "ln2.g"] = np.ones(c, dtype=F32)
        w[pre + "ln2.b"] = np.zeros(c, dtype=F32)
        w[pre + "mlp.w1"] = normal((c, hid), c)
        w[pre + "mlp.b1"] = np.zeros(hid, dtype=F32)
        w[pre + "mlp.w2"] = normal((hid, c), hid, scale=residual_scale)
        w[pre + "mlp.b2"] = np.zeros(c, dtype=F32)
    if cfg.depth > 0:
        w["final_norm.g"] = np.ones(c, dtype=F32)
        w["final_norm.b"] = np.zeros(c, dtype=F32)
    return ModelParams(w, trainable=False)


def interpolate_pos_embed(pos: np.ndarray, gh: int, gw: int) -> np.ndarray:
    """Resample (base, base, C) learned positions to the (gh*gw, C) token list."""
    base_h, base_w, c = pos.shape
    if (base_h, base_w) != (gh, gw):
        pos = resize_plane(pos.transpose(2, 0, 1), gh, gw, antialias=False).transpose(1, 2, 0)
    return np.ascontiguousarray(pos.reshape(gh * gw, c))


def _attention(x: np.ndarray, w: ModelParams, pre: str, heads: int) -> np.ndarray:
    n, c = x.shape
    dh = c // heads
    q, k, v = (np.ascontiguousarray((x @ w[pre + "attn.w" + s] + w[pre + "attn.b" + s])
                                    .reshape(n, heads, dh).transpose(1, 0, 2)) for s in "qkv")
    # exp(s / sqrt(dh)) == exp2(s * log2(e) / sqrt(dh)): fold both factors into q once
    q *= x.dtype.type(math.log2(math.e) / math.sqrt(dh))
    # [v | 1]: the AV product's last column is each row's softmax denominator
    v1 = np.concatenate([v, np.ones((heads, n, 1), dtype=x.dtype)], axis=-1)
    # row blocks of _ATTN_BLOCK_ROWS; the last takes the remainder, so it is the largest
    starts = [i * _ATTN_BLOCK_ROWS for i in range(max(n // _ATTN_BLOCK_ROWS, 1))]
    bounds = list(zip(starts, starts[1:] + [n]))
    block = np.empty((n - starts[-1], n), dtype=x.dtype)
    out = np.empty((n, heads, dh), dtype=x.dtype)
    for h in range(heads):
        for r0, r1 in bounds:
            scores = block[:r1 - r0]
            np.matmul(q[h, r0:r1], k[h].T, out=scores)
            scores -= scores.max(axis=-1, keepdims=True)
            np.exp2(scores, out=scores)  # each row's max gives exp2(0) = 1, so a sum >= 1
            av = scores @ v1[h]
            np.divide(av[:, :dh], av[:, dh:], out=out[r0:r1, h])
    return out.reshape(n, c) @ w[pre + "attn.wo"] + w[pre + "attn.bo"]


def vit_forward(img: ImageTensor, cfg: ViTConfig, weights: ModelParams) -> FeatureMap:
    """Dense features (C, h/p, w/p) for one image, the post-final-norm patch
    tokens; plain arrays throughout, so no tape records it."""
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
            h = ad.layer_norm(tokens, w[pre + "ln1.g"], w[pre + "ln1.b"]).value
            tokens = tokens + _attention(h, w, pre, cfg.heads)
            h = ad.layer_norm(tokens, w[pre + "ln2.g"], w[pre + "ln2.b"]).value
            h = ad.gelu(h @ w[pre + "mlp.w1"] + w[pre + "mlp.b1"]).value
            tokens = tokens + (h @ w[pre + "mlp.w2"] + w[pre + "mlp.b2"])
        tokens = ad.layer_norm(tokens, w["final_norm.g"], w["final_norm.b"]).value
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


def teacher_features(src, sample_id: str, img: ImageTensor | None) -> FeatureMap:
    """Target map for one sample from a :class:`LiveTeacher` (run on ``img``) or
    a :class:`FileTeacher` (``img`` unused; the file must hold a float32 map of
    ``expected_shape``); always a plain array."""
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
    if data.dtype != F32:
        raise ConfigError(f"teacher file {path} has dtype {data.dtype}, run config "
                          f"expects {np.dtype(F32)}")
    return FeatureMap(data)
