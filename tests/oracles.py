"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately written as slow, obvious loops (or closed
forms) that do not touch the library's own computational paths. The
exceptions are references built from the library's own pieces in a simpler
arrangement: ``autodiff_vit_tokens`` builds the frozen ViT forward from
``brixel.autodiff`` ops, one graph node per op (the attention softmax and the
head and token transposes, which no training path needs, are numpy lines on
the values in the same op order: ``q`` scaled by ``log2(e)/sqrt(dh)``, the
box bound ``b`` from two GEMVs, ``exp2`` of ``[q | -b] @ [k | 1]ᵀ``, a
product with ``[v | 1]`` and the divide by its last column after it), which
the tape-free numpy forward in ``brixel.vit`` must match bit for bit where
no block trips its exact-max guard; ``float64_vit_tokens`` is the same
ViT in float64 with textbook attention (natural ``exp``, normalised before
the AV product), which checks the forward's values where the bit oracle
shares its op order; ``per_sample_step`` runs a training
step's forward and backward one image at a time, which the batched
``brixel.training.train_step`` must match; ``backward_keeping_nodes`` is the
backward walk that frees nothing. ``as_float64`` lifts a model to float64 for
gradient checks, which the library's float32-only builders do not offer.
"""

import cmath
import math

import numpy as np

from brixel import autodiff as ad
from brixel.losses import fit_pca, loss_breakdown
from brixel.params import ModelParams
from brixel.refiner import student_forward
from brixel.tensors import resize_bilinear
from brixel.vit import LiveTeacher, interpolate_pos_embed, teacher_features, vit_forward


def finite_difference_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f at x, element by element (f64)."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


def loop_conv2d_same_replicate(plane: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Naive same-size 2-d convolution with replicate (clamp) padding."""
    h, w = plane.shape
    kh, kw = kernel.shape
    oh, ow = kh // 2, kw // 2
    out = np.zeros_like(plane, dtype=np.float64)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for i in range(kh):
                for j in range(kw):
                    yy = min(max(y + i - oh, 0), h - 1)
                    xx = min(max(x + j - ow, 0), w - 1)
                    acc += float(plane[yy, xx]) * float(kernel[i, j])
            out[y, x] = acc
    return out


def naive_dft2_amplitude(plane: np.ndarray) -> np.ndarray:
    """O(N^4) 2-d DFT amplitude, unitary normalization (divided by sqrt(H*W))."""
    h, w = plane.shape
    amp = np.zeros((h, w), dtype=np.float64)
    for u in range(h):
        for v in range(w):
            acc = 0j
            for y in range(h):
                for x in range(w):
                    acc += plane[y, x] * cmath.exp(-2j * cmath.pi * (u * y / h + v * x / w))
            amp[u, v] = abs(acc) / np.sqrt(h * w)
    return amp


def centered_radius_bins(h: int, w: int) -> tuple[np.ndarray, int]:
    """Integer radial bin of each (u, v) frequency, or -1 when beyond r_max.

    Frequencies are centered; for non-square grids each axis is normalized
    so its Nyquist frequency lands on r_max = floor(min(h, w) / 2).
    """
    r_max = min(h, w) // 2
    bins = np.full((h, w), -1, dtype=np.int64)
    for u in range(h):
        for v in range(w):
            uu = u - h if u > h // 2 else u  # signed frequency index
            vv = v - w if v > w // 2 else v
            ru = uu * (2.0 * r_max / h)
            rv = vv * (2.0 * r_max / w)
            r = int(round(np.sqrt(ru * ru + rv * rv)))
            if r <= r_max:
                bins[u, v] = r
    return bins, r_max


def loop_radial_spectrum(fm: np.ndarray) -> np.ndarray:
    """Brute-force radial spectrum: naive DFT per channel + loop binning."""
    c, h, w = fm.shape
    bins, r_max = centered_radius_bins(h, w)
    amps = np.stack([naive_dft2_amplitude(fm[ch]) for ch in range(c)])
    spectrum = np.zeros(r_max + 1, dtype=np.float64)
    for r in range(r_max + 1):
        mask = bins == r
        total, count = 0.0, 0
        for ch in range(c):
            for u in range(h):
                for v in range(w):
                    if mask[u, v]:
                        total += amps[ch, u, v]
                        count += 1
        spectrum[r] = total / count if count else 0.0
    return spectrum


def loop_radial_spectrum_channels_first(fm: np.ndarray) -> np.ndarray:
    """Same binning, but averaging over channels before binning over radii."""
    c, h, w = fm.shape
    bins, r_max = centered_radius_bins(h, w)
    mean_amp = np.mean([naive_dft2_amplitude(fm[ch]) for ch in range(c)], axis=0)
    spectrum = np.zeros(r_max + 1, dtype=np.float64)
    for r in range(r_max + 1):
        vals = [mean_amp[u, v] for u in range(h) for v in range(w) if bins[u, v] == r]
        spectrum[r] = float(np.mean(vals)) if vals else 0.0
    return spectrum


def loop_miou_pixacc(pred: np.ndarray, truth: np.ndarray, classes: int):
    """Per-pixel loop mIoU / pixel accuracy; absent classes are skipped."""
    h, w = truth.shape
    correct = 0
    tp = np.zeros(classes)
    fp = np.zeros(classes)
    fn = np.zeros(classes)
    for y in range(h):
        for x in range(w):
            p, t = int(pred[y, x]), int(truth[y, x])
            if p == t:
                correct += 1
                tp[t] += 1
            else:
                fp[p] += 1
                fn[t] += 1
    ious = []
    for k in range(classes):
        if tp[k] + fp[k] + fn[k] == 0:
            continue
        ious.append(tp[k] / (tp[k] + fp[k] + fn[k]))
    return float(np.mean(ious)), correct / (h * w)


def autodiff_vit_tokens(img, cfg, weights) -> np.ndarray:
    """(N, C) backbone tokens of ``img`` from the autodiff op graph."""
    def attention(x, w, pre, heads):
        n, c = x.value.shape
        dh = c // heads
        q = ad.matmul(x, w[pre + "attn.wq"]) + w[pre + "attn.bq"]
        k = ad.matmul(x, w[pre + "attn.wk"]) + w[pre + "attn.bk"]
        v = ad.matmul(x, w[pre + "attn.wv"]) + w[pre + "attn.bv"]
        def split_heads(t, axes):
            return ad.constant(np.ascontiguousarray(t.value.reshape(n, heads, dh).transpose(axes)))

        kmax, kmin = (t.reshape(heads, dh, 1) for t in (k.value.max(0), k.value.min(0)))
        q = split_heads(q, (1, 0, 2))
        k = split_heads(k, (1, 2, 0))
        v = split_heads(v, (1, 0, 2))
        q = (q * (math.log2(math.e) / math.sqrt(dh))).value
        neg_bound = q @ ((kmax + kmin) / -2) + np.abs(q) @ ((kmax - kmin) / -2)
        ones = np.ones((heads, 1, n), q.dtype)
        q1 = ad.constant(np.concatenate([q, neg_bound], -1))
        k1 = ad.constant(np.concatenate([k.value, ones], -2))
        v1 = ad.constant(np.concatenate([v.value, ones.transpose(0, 2, 1)], -1))
        e = ad.constant(np.exp2(ad.matmul(q1, k1).value))
        av = ad.matmul(e, v1).value
        # the bound path only: a case whose denominators would trip vit's
        # exact-max guard is checked against float64_vit_tokens instead
        assert av[..., dh:].min() >= 2.0 ** -100, "case trips the exact-max guard"
        out = ad.constant(np.ascontiguousarray((av[..., :dh] / av[..., dh:]).transpose(1, 0, 2))
                          .reshape(n, c))
        return ad.matmul(out, w[pre + "attn.wo"]) + w[pre + "attn.bo"]

    p = cfg.patch_size
    gh, gw = img.h // p, img.w // p
    w = {k: ad.constant(v) for k, v in weights.items()}
    x = ad.conv2d(ad.constant(img.data[None].astype(weights["patch_embed.w"].dtype)),
                  w["patch_embed.w"], w["patch_embed.b"], stride=p)
    tokens = ad.constant(np.ascontiguousarray(x.value.reshape(cfg.embed_dim, gh * gw).T))
    if cfg.depth == 0:
        return tokens.value
    tokens = tokens + ad.constant(interpolate_pos_embed(weights["pos_embed"], gh, gw))
    for i in range(cfg.depth):
        pre = f"blocks.{i}."
        h = ad.layer_norm(tokens, w[pre + "ln1.g"], w[pre + "ln1.b"])
        tokens = tokens + attention(h, w, pre, cfg.heads)
        h = ad.layer_norm(tokens, w[pre + "ln2.g"], w[pre + "ln2.b"])
        h = ad.gelu(ad.matmul(h, w[pre + "mlp.w1"]) + w[pre + "mlp.b1"])
        tokens = tokens + (ad.matmul(h, w[pre + "mlp.w2"]) + w[pre + "mlp.b2"])
    return ad.layer_norm(tokens, w["final_norm.g"], w["final_norm.b"]).value


def float64_vit_tokens(img, cfg, weights) -> np.ndarray:
    """(N, C) backbone tokens in float64 with textbook attention: each head's
    row softmax of ``exp(qk / sqrt(dh))``, normalised before the AV product.
    It shares no op order with ``brixel.vit``, so it checks values, not bits."""
    w = {k: v.astype(np.float64) for k, v in weights.items()}
    p, c = cfg.patch_size, cfg.embed_dim
    gh, gw = img.h // p, img.w // p
    patches = img.data.astype(np.float64).reshape(3, gh, p, gw, p).transpose(1, 3, 0, 2, 4)
    tokens = patches.reshape(gh * gw, -1) @ w["patch_embed.w"].reshape(c, -1).T
    tokens = tokens + w["patch_embed.b"]
    if cfg.depth == 0:
        return tokens

    def norm(t, g, b):
        centred = t - t.mean(axis=1, keepdims=True)
        return centred / np.sqrt((centred ** 2).mean(axis=1, keepdims=True) + 1e-5) * g + b

    dh = c // cfg.heads
    tokens = tokens + interpolate_pos_embed(w["pos_embed"], gh, gw)
    for i in range(cfg.depth):
        pre = f"blocks.{i}."
        h = norm(tokens, w[pre + "ln1.g"], w[pre + "ln1.b"])
        q, k, v = (h @ w[pre + "attn.w" + s] + w[pre + "attn.b" + s] for s in "qkv")
        heads = []
        for j in range(cfg.heads):
            cols = slice(j * dh, (j + 1) * dh)
            scores = q[:, cols] @ k[:, cols].T / math.sqrt(dh)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            heads.append((e / e.sum(axis=1, keepdims=True)) @ v[:, cols])
        tokens = tokens + np.concatenate(heads, axis=1) @ w[pre + "attn.wo"] + w[pre + "attn.bo"]
        h = norm(tokens, w[pre + "ln2.g"], w[pre + "ln2.b"]) @ w[pre + "mlp.w1"] + w[pre + "mlp.b1"]
        h = 0.5 * h * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (h + 0.044715 * h ** 3)))
        tokens = tokens + h @ w[pre + "mlp.w2"] + w[pre + "mlp.b2"]
    return norm(tokens, w["final_norm.g"], w["final_norm.b"])


def per_sample_step(batch, student, backbone, vit_cfg, adapter_cfg, cfg):
    """Per-sample losses and parameter gradients of one training step, one
    student graph per image: the batch total is a chain of adds scaled by
    1/n, the way a per-sample loop builds it. Returns (rows, grads) with one
    {"l1", "edge", "spectral", "total"} dict of 0-d arrays per sample."""
    src = LiveTeacher(vit_cfg, backbone)
    teachers = [teacher_features(src, sid, img) for sid, img in batch]
    f = cfg.downsample_factor
    lows = [resize_bilinear(img, img.h // f, img.w // f, antialias=True) for _, img in batch]
    pca = fit_pca(np.concatenate([t.tokens() for t in teachers], axis=0), cfg.pca_k)
    spectral_cfg = cfg.spectral_config(*teachers[0].grid)
    rows = []
    with ad.Tape() as tape:
        nodes = student.as_nodes()
        batch_total = None
        for low, t_fm in zip(lows, teachers):
            s_out = student_forward(low, vit_forward(low, vit_cfg, backbone), adapter_cfg, nodes)
            total, parts = loss_breakdown(s_out, t_fm, pca, cfg.loss_weights(), spectral_cfg)
            rows.append({**{k: v.value for k, v in parts.items()}, "total": total.value})
            batch_total = total if batch_total is None else ad.add(batch_total, total)
        tape.backward(ad.mul(batch_total, 1.0 / len(batch)))
    return rows, {name: node.grad for name, node in nodes.items()}


def backward_keeping_nodes(tape, root) -> None:
    """Reverse-creation-order gradient walk over ``tape.nodes`` that keeps
    every node, its ``.grad`` and its parent links."""
    root.grad = np.ones_like(root.value)
    for node in reversed(tape.nodes):
        if node.grad is None:
            continue
        for parent, vjp in node.parents:
            if parent.requires_grad:
                g = vjp(node.grad)
                parent.grad = g if parent.grad is None else parent.grad + g


def as_float64(params: ModelParams) -> ModelParams:
    """``params`` with every tensor cast to float64, same names and flag."""
    return ModelParams({k: v.astype(np.float64) for k, v in params.items()}, params.trainable)
