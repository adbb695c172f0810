"""Quantitative evaluation and the analytic compute-cost model.

Fidelity metrics stand in for visual side-by-sides (no pretrained weights at
desk scale): mean L1, mean per-token cosine similarity, and the
log-amplitude gap of the high-frequency radial spectra. PCA-RGB export
follows the shared-basis convention: one ``losses.fit_pca`` on the reference
map's tokens, every map projected onto the first three directions and
colored with the reference map's min/max.

The cost model is closed-form in MACs and activations; parameter counts are
the sizes of the initialised tensors. Compute counts are kept internally as
multiply-accumulate pairs (MACs); reported FLOPs use the convention
1 MAC = 2 FLOPs, stated in every report header.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .losses import SpectralConfig, fit_pca, radial_spectrum
from .params import ModelParams
from .refiner import AdapterConfig, init_student
from .tensors import FeatureMap, resize_plane
from .training import adam_step, init_adam
from .vit import ViTConfig, init_backbone

FLOPS_PER_MAC = 2
FLOP_NOTE = "FLOP convention: 1 multiply-accumulate = 2 FLOPs"


# ---------------------------------------------------------------------------
# Fidelity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FidelityReport:
    l1: float
    cosine: float        # mean per-token cosine similarity, in [-1, 1]
    spectrum_gap: float  # mean |log p_T - log p_S| over the high-frequency radii

    def __post_init__(self):
        if not (-1.0 - 1e-6 <= self.cosine <= 1.0 + 1e-6):
            raise ValueError(f"cosine {self.cosine} outside [-1, 1]")
        if not all(np.isfinite(v) for v in (self.l1, self.cosine, self.spectrum_gap)):
            raise ValueError("non-finite fidelity metrics")


def fidelity(student_fm: FeatureMap, teacher_fm: FeatureMap,
             cfg: SpectralConfig) -> FidelityReport:
    """Metrics of one map pair; the spectrum gap starts at the caller's cutoff
    ``cfg.r0`` (a run passes its ``DistillConfig.spectral_config``)."""
    if student_fm.data.shape != teacher_fm.data.shape:
        raise ValueError(f"shape mismatch {student_fm.data.shape} vs {teacher_fm.data.shape}")
    s, t = student_fm.data, teacher_fm.data
    l1 = float(np.mean(np.abs(t - s)))

    st = student_fm.tokens().astype(np.float64)
    tt = teacher_fm.tokens().astype(np.float64)
    dots = np.sum(st * tt, axis=1)
    norms = np.linalg.norm(st, axis=1) * np.linalg.norm(tt, axis=1)
    cosine = float(np.mean(dots / (norms + 1e-12)))

    p_s = radial_spectrum(s.astype(np.float64), cfg.r0).value
    p_t = radial_spectrum(t.astype(np.float64), cfg.r0).value
    gap = float(np.mean(np.abs(np.log(p_t + cfg.eps_log) - np.log(p_s + cfg.eps_log))))
    return FidelityReport(l1=l1, cosine=cosine, spectrum_gap=gap)


def upsample_baseline(fm: FeatureMap, factor: int) -> FeatureMap:
    """Plain bilinear upsampling of a feature map; the no-refiner baseline."""
    _, h, w = fm.data.shape
    return FeatureMap(resize_plane(fm.data, h * factor, w * factor, antialias=False))


# ---------------------------------------------------------------------------
# PCA -> RGB visualization
# ---------------------------------------------------------------------------

def pca_rgb(maps: list[FeatureMap], reference: FeatureMap) -> list[np.ndarray]:
    """Project maps onto the reference's first three principal directions.

    The basis is fit on the reference tokens only; channels are min-max
    scaled to [0, 255] using the reference's projected range so all outputs
    share one color scale. Returns one (H, W, 3) uint8 array per map.
    """
    if reference.channels < 3:
        raise ValueError("need at least 3 channels for an RGB projection")
    for m in maps:
        if m.channels != reference.channels:
            raise ValueError(
                f"map has {m.channels} channels, reference has {reference.channels}")
    p = fit_pca(reference.tokens(), 3)
    ref_proj = (reference.tokens() - p.mean) @ p.basis
    lo = ref_proj.min(axis=0)
    hi = ref_proj.max(axis=0)
    span = np.where(hi - lo > 1e-12, hi - lo, 1.0)

    out = []
    for m in maps:
        proj = (m.tokens() - p.mean) @ p.basis
        scaled = np.clip((proj - lo) / span, 0.0, 1.0)
        h, w = m.grid
        out.append(np.round(scaled.reshape(h, w, 3) * 255.0).astype(np.uint8))
    return out


# ---------------------------------------------------------------------------
# Analytic cost model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostReport:
    """Closed-form cost of producing one dense feature map of a given grid."""

    output_grid: int
    macs_teacher: int
    macs_student_backbone: int
    macs_student_adapter: int
    macs_student_head: int
    peak_act_teacher: int   # activation element counts
    peak_act_student: int
    params_teacher: int
    params_student: int

    @property
    def macs_student_total(self) -> int:
        return self.macs_student_backbone + self.macs_student_adapter + self.macs_student_head

    @property
    def flops_teacher(self) -> int:
        return FLOPS_PER_MAC * self.macs_teacher

    @property
    def flops_student_total(self) -> int:
        return FLOPS_PER_MAC * self.macs_student_total


def attention_scores_macs(n_tokens: int, embed_dim: int) -> int:
    """The quadratic term: QK^T plus attention-times-values."""
    return 2 * n_tokens * n_tokens * embed_dim


def _vit_macs(cfg: ViTConfig, side: int) -> tuple[int, int]:
    """(total MACs, peak activation elements) at one input size."""
    g = side // cfg.patch_size
    n = g * g
    c = cfg.embed_dim
    embed = cfg.patch_size ** 2 * 3 * c * n
    proj = 4 * n * c * c
    scores = attention_scores_macs(n, c)
    mlp = 2 * n * c * cfg.mlp_hidden
    total = embed + cfg.depth * (proj + scores + mlp)
    peak = max(3 * side * side, n * c, cfg.heads * n * n, n * cfg.mlp_hidden)
    return total, peak


def _conv_macs(k: int, cin: int, cout: int, out_hw: int) -> int:
    return k * k * cin * cout * out_hw * out_hw


def flop_model(vit_cfg: ViTConfig, adapter_cfg: AdapterConfig, input_size: int) -> CostReport:
    """Cost of one dense map at grid input_size/patch_size.

    Teacher: the backbone at ``input_size``. Student: the backbone plus
    adapter and head on the input downsampled by ``upsample_factor``,
    emitting the same grid.
    """
    p, f = vit_cfg.patch_size, adapter_cfg.upsample_factor
    if input_size % (f * p):
        raise ValueError(f"input_size {input_size} must be divisible by "
                         f"upsample_factor*patch_size={f * p}")
    grid = input_size // p
    student_side = input_size // f

    t_total, t_peak = _vit_macs(vit_cfg, input_size)
    s_backbone, s_peak_vit = _vit_macs(vit_cfg, student_side)

    p0, p1, p2 = adapter_cfg.pyramid_channels
    s = student_side
    adapter = (_conv_macs(3, 3, p0, s // 2) + _conv_macs(3, p0, p0, s // 4)
               + _conv_macs(3, p0, p1, s // 8) + _conv_macs(3, p1, p2, s // 16))

    c = vit_cfg.embed_dim
    fc = adapter_cfg.fusion_channels
    g = student_side // p  # fusion grid
    head = _conv_macs(1, c + p0 + p1 + p2, fc, g)
    head += adapter_cfg.head_blocks * 2 * _conv_macs(3, fc, fc, g)
    for j in range(adapter_cfg.upsample_stages):
        head += _conv_macs(3, fc, 4 * fc, g * 2 ** j)
    head += _conv_macs(1, fc, c, grid)

    peak_student = max(
        s_peak_vit,
        3 * s * s,
        p0 * (s // 2) ** 2,
        (c + p0 + p1 + p2) * g * g,
        4 * fc * (g * 2 ** max(0, adapter_cfg.upsample_stages - 1)) ** 2,
        c * grid * grid,
    )
    return CostReport(
        output_grid=grid,
        macs_teacher=t_total,
        macs_student_backbone=s_backbone,
        macs_student_adapter=adapter,
        macs_student_head=head,
        peak_act_teacher=t_peak,
        peak_act_student=peak_student,
        params_teacher=sum(t.size for _, t in init_backbone(vit_cfg, seed=0).items()),
        params_student=sum(t.size for _, t in init_student(vit_cfg, adapter_cfg, 0).items()),
    )


def cost_table(reports: list[CostReport], timings: dict[int, tuple[float, float]]) -> str:
    """Tab-separated cost table; wall-clock columns show '-' for grids not in ``timings``."""
    lines = [f"# {FLOP_NOTE}",
             "grid\tflops_teacher\tflops_student\tratio\tpeak_act_teacher"
             "\tpeak_act_student\tparams_teacher\tparams_student"
             "\tsec_teacher\tsec_student"]
    for r in reports:
        ratio = r.flops_teacher / r.flops_student_total
        tt, ts = ("-", "-")
        if r.output_grid in timings:
            tt = f"{timings[r.output_grid][0]:.4f}"
            ts = f"{timings[r.output_grid][1]:.4f}"
        lines.append(f"{r.output_grid}\t{r.flops_teacher}\t{r.flops_student_total}"
                     f"\t{ratio:.3f}\t{r.peak_act_teacher}\t{r.peak_act_student}"
                     f"\t{r.params_teacher}\t{r.params_student}\t{tt}\t{ts}")
    return "\n".join(lines) + "\n"


def cost_svg(reports: list[CostReport]) -> str:
    """A small log-scale line chart of teacher vs student FLOPs per grid size."""
    width, height, margin = 480, 320, 48
    xs = [r.output_grid for r in reports]
    series = {"teacher": [r.flops_teacher for r in reports],
              "student": [r.flops_student_total for r in reports]}
    all_vals = [v for vals in series.values() for v in vals]
    lo = np.floor(np.log10(min(all_vals)))
    hi = np.ceil(np.log10(max(all_vals)))
    hi = max(hi, lo + 1)

    def sx(x):
        t = (np.log2(x) - np.log2(xs[0])) / max(np.log2(xs[-1]) - np.log2(xs[0]), 1e-9)
        return margin + t * (width - 2 * margin)

    def sy(v):
        t = (np.log10(v) - lo) / (hi - lo)
        return height - margin - t * (height - 2 * margin)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
             f'y2="{height - margin}" stroke="black"/>',
             f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
             f'y2="{height - margin}" stroke="black"/>',
             f'<text x="{width // 2}" y="{height - 10}" font-size="12" '
             f'text-anchor="middle">output grid (tokens per side)</text>',
             f'<text x="14" y="{height // 2}" font-size="12" text-anchor="middle" '
             f'transform="rotate(-90 14 {height // 2})">FLOPs (log10)</text>']
    for x in xs:
        parts.append(f'<text x="{sx(x):.1f}" y="{height - margin + 16}" font-size="11" '
                     f'text-anchor="middle">{x}</text>')
    for d in range(int(lo), int(hi) + 1):
        parts.append(f'<text x="{margin - 6}" y="{sy(10 ** d):.1f}" font-size="11" '
                     f'text-anchor="end">1e{d}</text>')
    for (name, vals), color in zip(series.items(), ("crimson", "steelblue")):
        pts = " ".join(f"{sx(x):.1f},{sy(v):.1f}" for x, v in zip(xs, vals))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{sx(xs[-1]) + 4:.1f}" y="{sy(vals[-1]):.1f}" '
                     f'font-size="12" fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Toy linear probe
# ---------------------------------------------------------------------------

@dataclass
class LinearProbe:
    weight: np.ndarray  # (C, classes)
    bias: np.ndarray    # (classes,)
    classes: int


def _token_labels(mask: np.ndarray, grid: tuple[int, int]) -> np.ndarray:
    """Nearest-sampled per-token labels at half-pixel token centers."""
    h, w = mask.shape
    gh, gw = grid
    ys = np.clip(np.round((np.arange(gh) + 0.5) * h / gh - 0.5).astype(int), 0, h - 1)
    xs = np.clip(np.round((np.arange(gw) + 0.5) * w / gw - 0.5).astype(int), 0, w - 1)
    return mask[np.ix_(ys, xs)]


def linear_probe_train(features: list[FeatureMap], masks: list[np.ndarray], classes: int,
                       lr: float = 1e-2, iters: int = 500, seed: int = 0) -> LinearProbe:
    """Per-token softmax classifier trained with ``training.adam_step``
    (artifact hyperparameters)."""
    xs, ys = [], []
    for fm, mask in zip(features, masks):
        xs.append(fm.tokens().astype(np.float64))
        ys.append(_token_labels(mask, fm.grid).reshape(-1))
    x = np.concatenate(xs, axis=0)
    y = np.concatenate(ys, axis=0)
    n, c = x.shape
    rng = np.random.default_rng(seed)
    params = ModelParams({"w": 0.01 * rng.standard_normal((c, classes)),
                          "b": np.zeros(classes)}, trainable=True)
    adam = init_adam(params)
    onehot = np.eye(classes)[y]
    for _ in range(iters):
        logits = x @ params["w"] + params["b"]
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        glogits = (p - onehot) / n
        adam_step(params, {"w": x.T @ glogits, "b": glogits.sum(axis=0)}, adam, lr)
    return LinearProbe(weight=params["w"], bias=params["b"], classes=classes)


def probe_predict(fm: FeatureMap, probe: LinearProbe, out_hw: tuple[int, int]) -> np.ndarray:
    """Per-token logits, bilinearly upsampled to label resolution, argmaxed."""
    gh, gw = fm.grid
    logits = (fm.tokens().astype(np.float64) @ probe.weight + probe.bias)
    planes = logits.reshape(gh, gw, probe.classes).transpose(2, 0, 1)
    return np.argmax(resize_plane(planes, out_hw[0], out_hw[1], antialias=False), axis=0)


def miou_pixacc(preds: list[np.ndarray], truths: list[np.ndarray], classes: int
                ) -> tuple[float, float]:
    """mIoU (absent classes excluded, flagged) and pixel accuracy."""
    tp = np.zeros(classes, dtype=np.int64)
    fp = np.zeros(classes, dtype=np.int64)
    fn = np.zeros(classes, dtype=np.int64)
    correct = total = 0
    for pred, truth in zip(preds, truths):
        if pred.shape != truth.shape:
            raise ValueError(f"prediction {pred.shape} vs labels {truth.shape}")
        correct += int(np.sum(pred == truth))
        total += truth.size
        for k in range(classes):
            p = pred == k
            t = truth == k
            tp[k] += int(np.sum(p & t))
            fp[k] += int(np.sum(p & ~t))
            fn[k] += int(np.sum(~p & t))
    present = tp + fp + fn > 0
    absent = [k for k in range(classes) if not present[k]]
    if absent:
        warnings.warn(f"classes absent from predictions and labels: {absent}",
                      RuntimeWarning, stacklevel=2)
    ious = tp[present] / (tp[present] + fp[present] + fn[present])
    return float(np.mean(ious)), correct / total


def linear_probe_eval(features: list[FeatureMap], masks: list[np.ndarray],
                      probe: LinearProbe) -> tuple[float, float]:
    preds = [probe_predict(fm, probe, mask.shape) for fm, mask in zip(features, masks)]
    return miou_pixacc(preds, masks, probe.classes)
