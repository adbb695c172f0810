"""The trainable student-side network.

Two pieces operate on the low-resolution image next to the frozen backbone:

* a convolutional stem pyramid over the image at strides 4/8/16 (the
  "refiner"; it never feeds back into the backbone), and
* a convolutional head that fuses backbone tokens with the pyramid at the
  backbone grid, runs a few residual blocks, upsamples by sub-pixel
  (pixel-shuffle) stages and adds the result onto nearest-upsampled backbone
  features.

The global residual means a zero final projection reproduces the
nearest-upsampled backbone map exactly; initialization scales the final
projection by 0.01 so training starts near that baseline.

``adapter_forward`` and ``head_forward`` take an (N, ...) stack of images
and backbone maps with a dict of parameter nodes; training runs the whole
batch as one graph. ``student_forward`` lifts one image to the N=1 stack
and drops the batch axis again. Each sample of a stack matches its
single-image output bit for bit wherever BLAS treats each sample's GEMM
columns alike (every layer of the desk configuration); layers of a few
pixels may use other small-size kernels and differ in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .params import ModelParams
from .tensors import F32, FeatureMap, ImageTensor
from .vit import ViTConfig, vit_forward

PYRAMID_STRIDES = (4, 8, 16)


@dataclass(frozen=True)
class AdapterConfig:
    pyramid_channels: tuple[int, int, int] = (16, 32, 32)
    fusion_channels: int = 64
    head_blocks: int = 3
    upsample_factor: int = 4

    def __post_init__(self):
        if len(self.pyramid_channels) != len(PYRAMID_STRIDES):
            raise ValueError("pyramid_channels must list one count per stride (4, 8, 16)")
        if min(self.pyramid_channels) < 1 or self.fusion_channels < 1:
            raise ValueError("pyramid_channels and fusion_channels must be >= 1")
        if self.head_blocks < 1:
            raise ValueError("head_blocks must be >= 1")
        f = self.upsample_factor
        if f < 1 or (f & (f - 1)):
            raise ValueError("upsample_factor must be a positive power of two")

    @property
    def upsample_stages(self) -> int:
        return self.upsample_factor.bit_length() - 1


def init_student(vit_cfg: ViTConfig, cfg: AdapterConfig, seed: int, dtype=F32) -> ModelParams:
    """Fan-in-scaled random init; the final projection gets scale 0.01."""
    rng = np.random.default_rng(seed)
    c = vit_cfg.embed_dim
    p0, p1, p2 = cfg.pyramid_channels
    f = cfg.fusion_channels
    w: dict[str, np.ndarray] = {}

    def conv(name, cout, cin, k, scale=1.0):
        w[name + ".w"] = (scale * rng.standard_normal((cout, cin, k, k))
                          / np.sqrt(cin * k * k)).astype(dtype)
        w[name + ".b"] = np.zeros(cout, dtype=dtype)

    conv("adapter.conv1", p0, 3, 3)
    conv("adapter.conv2", p0, p0, 3)
    conv("adapter.conv3", p1, p0, 3)
    conv("adapter.conv4", p2, p1, 3)

    conv("head.fuse", f, c + p0 + p1 + p2, 1)
    for i in range(cfg.head_blocks):
        conv(f"head.block{i}.conv1", f, f, 3)
        conv(f"head.block{i}.conv2", f, f, 3)
        w[f"head.block{i}.n.g"] = np.ones(f, dtype=dtype)
        w[f"head.block{i}.n.b"] = np.zeros(f, dtype=dtype)
    for j in range(cfg.upsample_stages):
        conv(f"head.up{j}", 4 * f, f, 3)
    conv("head.out", c, f, 1, scale=0.01)
    return ModelParams(w, trainable=True)


def adapter_forward(images: np.ndarray, cfg: AdapterConfig,
                    w: dict[str, ad.Node]) -> list[ad.Node]:
    """Image-branch pyramid over an (N, 3, h, w) stack of low-resolution
    images. Level l has shape (N, C_l, h/s_l, w/s_l) for strides 4/8/16; the
    backbone output plays no role here."""
    h, wd = images.shape[-2:]
    if h % 16 or wd % 16:
        raise ValueError(f"adapter input sides {(h, wd)} must be divisible by 16")
    x = ad.constant(images, dtype=w["adapter.conv1.w"].value.dtype)
    levels = []
    for i in range(1, 5):
        x = ad.gelu(ad.conv2d(x, w[f"adapter.conv{i}.w"], w[f"adapter.conv{i}.b"],
                              stride=2, padding=1))
        levels.append(x)
    return levels[1:]


def _to_grid(x: ad.Node, grid: tuple[int, int]) -> ad.Node:
    """Bring one (N, C, H, W) pyramid level to the fusion grid by integer
    average-pooling or nearest upsampling."""
    h, w = x.value.shape[-2:]
    gh, gw = grid
    if h == gh and w == gw:
        return x
    if h > gh:
        if h % gh or w % gw or h // gh != w // gw:
            raise ValueError(f"level size {(h, w)} not an integer multiple of grid {grid}")
        return ad.avg_pool2d(x, h // gh)
    if gh % h or gw % w or gh // h != gw // w:
        raise ValueError(f"grid {grid} not an integer multiple of level size {(h, w)}")
    return ad.upsample_nearest(x, gh // h)


def head_forward(backbone_maps: np.ndarray, pyramid: list[ad.Node], cfg: AdapterConfig,
                 w: dict[str, ad.Node]) -> ad.Node:
    """Fuse frozen backbone tokens with the pyramid and emit the upscaled map.

    An (N, C, H, W) stack of backbone maps and (N, C_l, ...) pyramid levels
    give (N, C, f*H, f*W) for upsample factor f; a constructed zero final
    projection bypasses the head entirely, leaving nearest-upsampled
    backbone features.
    """
    bb = ad.constant(backbone_maps, dtype=w["head.fuse.w"].value.dtype)
    c, gh, gw = bb.value.shape[-3:]
    if w["head.out.w"].value.shape[0] != c:
        raise ValueError(
            f"head emits {w['head.out.w'].value.shape[0]} channels, backbone has {c}")

    base = ad.upsample_nearest(bb, cfg.upsample_factor)
    feats = ad.concat([bb] + [_to_grid(l, (gh, gw)) for l in pyramid], axis=1)
    h = ad.gelu(ad.conv2d(feats, w["head.fuse.w"], w["head.fuse.b"]))
    for i in range(cfg.head_blocks):
        r = ad.conv2d(h, w[f"head.block{i}.conv1.w"], w[f"head.block{i}.conv1.b"], padding=1)
        r = ad.gelu(ad.layer_norm(r, w[f"head.block{i}.n.g"], w[f"head.block{i}.n.b"]))
        r = ad.conv2d(r, w[f"head.block{i}.conv2.w"], w[f"head.block{i}.conv2.b"], padding=1)
        h = h + r
    for j in range(cfg.upsample_stages):
        h = ad.gelu(ad.pixel_shuffle(
            ad.conv2d(h, w[f"head.up{j}.w"], w[f"head.up{j}.b"], padding=1), 2))
    return base + ad.conv2d(h, w["head.out.w"], w["head.out.b"])


def student_forward(img_low: ImageTensor, vit_cfg: ViTConfig, adapter_cfg: AdapterConfig,
                    frozen_w: ModelParams, params: dict[str, ad.Node]) -> ad.Node:
    """Full student on one image: frozen backbone on the low-res image +
    refiner + head, a (C, f*H, f*W) node.

    ``params`` are the graph nodes of ``ModelParams.as_nodes``. The backbone
    branch is computed without gradient tracking (its weights are frozen and
    the image is not trainable), so gradients only ever reach the
    refiner/head parameters.
    """
    bb = vit_forward(img_low, vit_cfg, frozen_w)
    pyramid = adapter_forward(img_low.data[None], adapter_cfg, params)
    out = head_forward(bb.data[None], pyramid, adapter_cfg, params)
    return ad.reshape(out, out.value.shape[1:])


def student_feature_map(img_low: ImageTensor, vit_cfg: ViTConfig,
                        adapter_cfg: AdapterConfig, frozen_w: ModelParams,
                        params: ModelParams) -> FeatureMap:
    """Inference-mode student output as a plain FeatureMap."""
    out = student_forward(img_low, vit_cfg, adapter_cfg, frozen_w, params.as_nodes())
    return FeatureMap(out.value)
