import xml.etree.ElementTree as ET

import numpy as np
import pytest

from brixel import autodiff as ad
from brixel.evalbench import (
    attention_scores_macs,
    cost_svg,
    cost_table,
    fidelity,
    flop_model,
    linear_probe_eval,
    linear_probe_train,
    miou_pixacc,
    pca_rgb,
    probe_predict,
    upsample_baseline,
)
from brixel.losses import SpectralConfig, default_r0
from brixel.params import ModelParams
from brixel.refiner import AdapterConfig, init_student, student_forward
from brixel.tensors import F32, FeatureMap, ImageTensor
from brixel.vit import ViTConfig
from oracles import loop_miou_pixacc, loop_radial_spectrum

RNG = np.random.default_rng(77)


def fm(arr) -> FeatureMap:
    return FeatureMap(np.ascontiguousarray(arr, dtype=np.float64))


def half_nyquist(f: FeatureMap) -> SpectralConfig:
    return SpectralConfig(r0=default_r0(*f.grid), eps_log=1e-8)


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------

def test_fidelity_identical():
    t = fm(RNG.standard_normal((4, 8, 8)))
    rep = fidelity(t, t, half_nyquist(t))
    assert rep.l1 == 0.0
    assert rep.cosine == pytest.approx(1.0, abs=1e-9)
    assert rep.spectrum_gap == pytest.approx(0.0, abs=1e-9)


def test_fidelity_negated_student():
    t = fm(RNG.standard_normal((4, 8, 8)))
    rep = fidelity(fm(-t.data), t, half_nyquist(t))
    assert rep.cosine == pytest.approx(-1.0, abs=1e-9)


def test_fidelity_matches_loop_oracle():
    s = fm(RNG.standard_normal((3, 8, 8)))
    t = fm(RNG.standard_normal((3, 8, 8)))
    rep = fidelity(s, t, half_nyquist(t))

    n = 64
    l1 = cos = 0.0
    for y in range(8):
        for x in range(8):
            sv, tv = s.data[:, y, x], t.data[:, y, x]
            l1 += np.abs(tv - sv).sum()
            cos += float(sv @ tv / (np.linalg.norm(sv) * np.linalg.norm(tv) + 1e-12))
    assert rep.l1 == pytest.approx(l1 / (3 * n), abs=1e-6)
    assert rep.cosine == pytest.approx(cos / n, abs=1e-6)

    ps = loop_radial_spectrum(s.data)
    pt = loop_radial_spectrum(t.data)
    gap = np.mean(np.abs(np.log(pt[2:] + 1e-8) - np.log(ps[2:] + 1e-8)))
    assert rep.spectrum_gap == pytest.approx(gap, abs=1e-6)


def test_fidelity_shape_mismatch():
    with pytest.raises(ValueError):
        fidelity(fm(np.zeros((2, 4, 4))), fm(np.zeros((2, 8, 8))),
                 SpectralConfig(r0=1, eps_log=1e-8))


def test_upsample_baseline_shape_and_constants():
    base = fm(np.full((3, 4, 4), 0.6))
    up = upsample_baseline(base, 4)
    assert up.data.shape == (3, 16, 16)
    assert np.allclose(up.data, 0.6, atol=1e-9)


# ---------------------------------------------------------------------------
# pca_rgb
# ---------------------------------------------------------------------------

def test_pca_rgb_reference_spans_full_range():
    ref = fm(RNG.standard_normal((6, 8, 8)))
    (rgb,) = pca_rgb([ref], reference=ref)
    assert rgb.shape == (8, 8, 3)
    assert rgb.min(axis=(0, 1)).tolist() == [0, 0, 0]
    assert rgb.max(axis=(0, 1)).tolist() == [255, 255, 255]


def test_pca_rgb_identical_maps_identical_bytes():
    ref = fm(RNG.standard_normal((5, 6, 6)))
    a, b = pca_rgb([ref, fm(ref.data.copy())], reference=ref)
    assert a.tobytes() == b.tobytes()


def test_pca_rgb_rank3_nullspace_invisible():
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((6, 4)))
    signal, null_dir = q[:, :3], q[:, 3]
    coeffs = rng.standard_normal((64, 3))
    tokens = coeffs @ signal.T
    ref = fm(tokens.T.reshape(6, 8, 8))

    p_tokens = ref.tokens()
    from brixel.losses import fit_pca

    p = fit_pca(p_tokens, 3)
    recon = (p_tokens - p.mean) @ p.basis @ p.basis.T + p.mean
    assert np.max(np.abs(recon - p_tokens)) <= 1e-6  # rank-3 => 100% variance

    shifted = fm((p_tokens + 0.8 * null_dir).T.reshape(6, 8, 8))
    a, b = pca_rgb([ref, shifted], reference=ref)
    assert a.tobytes() == b.tobytes()


def test_pca_rgb_basis_ignores_non_reference_maps():
    ref = fm(RNG.standard_normal((4, 6, 6)))
    other1 = fm(RNG.standard_normal((4, 6, 6)))
    other2 = fm(RNG.standard_normal((4, 6, 6)))
    out_a = pca_rgb([ref, other1], reference=ref)
    out_b = pca_rgb([ref, other2], reference=ref)
    assert out_a[0].tobytes() == out_b[0].tobytes()


def test_pca_rgb_needs_three_channels():
    with pytest.raises(ValueError):
        pca_rgb([fm(np.zeros((2, 4, 4)))], reference=fm(np.zeros((2, 4, 4))))


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------

VIT = ViTConfig(patch_size=8, embed_dim=32, depth=2, heads=4)
ADA = AdapterConfig()


def test_scores_term_reference_count():
    # n=16 tokens, C=8: QK^T + AV = 2*16^2*8 = 4096 mul-add pairs
    assert attention_scores_macs(16, 8) == 4096
    n, c = 16, 8
    acc = 0
    for _ in range(n):      # queries
        for _ in range(n):  # keys
            acc += c        # one dot product
    assert attention_scores_macs(n, c) == 2 * acc


def test_teacher_dominates_student_and_ratio_grows():
    ratios = []
    for grid in (16, 32, 64, 128):
        r = flop_model(VIT, ADA, grid * VIT.patch_size)
        ratios.append(r.flops_teacher / r.flops_student_total)
    r64 = flop_model(VIT, ADA, 64 * VIT.patch_size)
    assert r64.flops_teacher > r64.flops_student_total
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_attention_term_loglog_slope_is_two():
    ns = [64, 256, 1024, 4096]
    ys = [attention_scores_macs(n, VIT.embed_dim) for n in ns]
    slope = np.polyfit(np.log(ns), np.log(ys), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.01)


def test_refiner_macs_match_the_convolutions_of_a_forward(monkeypatch):
    macs = []
    conv2d = ad.conv2d

    def counted(x, w, b, **kwargs):
        out = conv2d(x, w, b, **kwargs)
        _, cin, kh, kw = w.value.shape
        macs.append(out.value.size * cin * kh * kw)
        return out

    monkeypatch.setattr(ad, "conv2d", counted)
    student = init_student(VIT, ADA, 0).as_nodes()
    for side in (256, 512):
        low = side // ADA.upsample_factor
        grid = low // VIT.patch_size
        macs.clear()
        student_forward(ImageTensor(np.zeros((3, low, low), F32)),
                        FeatureMap(np.zeros((VIT.embed_dim, grid, grid), F32)), ADA, student)
        r = flop_model(VIT, ADA, side)
        assert r.macs_student_adapter + r.macs_student_head == sum(macs)


def test_flop_model_student_runs_on_the_configured_factor():
    # both students see a 128x128 input: 256 / 2 and 512 / 4
    half = flop_model(VIT, AdapterConfig(upsample_factor=2), 256)
    assert half.macs_student_backbone == flop_model(VIT, ADA, 512).macs_student_backbone


def test_flop_model_rejects_bad_size():
    with pytest.raises(ValueError):
        flop_model(VIT, ADA, 100)


def test_cost_table_and_svg():
    reports = [flop_model(VIT, ADA, g * 8) for g in (16, 32, 64)]
    table = cost_table(reports, (39840, 543344), {16: ((287569, 0.1), (101285, 0.02))})
    lines = table.strip().splitlines()
    assert lines[0].startswith("# FLOP convention")
    assert len(lines) == 2 + 3  # note + header + one row per size
    assert [line.split("\t")[6:8] for line in lines[2:]] == [["39840", "543344"]] * 3
    svg = cost_svg(reports)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert sum(1 for el in root.iter() if el.tag.endswith("polyline")) == 2


# ---------------------------------------------------------------------------
# linear probe
# ---------------------------------------------------------------------------

def test_probe_metrics_perfect_and_constant():
    truth = np.array([[0, 0, 1], [1, 1, 0], [2, 2, 2]])
    miou, acc = miou_pixacc([truth.copy()], [truth], classes=3)
    assert miou == 1.0 and acc == 1.0
    ones = np.ones((4, 4), dtype=int)
    with pytest.warns(RuntimeWarning, match="absent"):
        miou, acc = miou_pixacc([ones.copy()], [ones], classes=3)
    assert acc == 1.0


def test_miou_matches_loop_oracle_on_random_grids():
    rng = np.random.default_rng(12)
    for _ in range(10):
        classes = int(rng.integers(2, 5))
        pred = rng.integers(0, classes, size=(9, 7))
        truth = rng.integers(0, classes, size=(9, 7))
        mine = miou_pixacc([pred], [truth], classes)
        ref = loop_miou_pixacc(pred, truth, classes)
        assert mine[0] == pytest.approx(ref[0], abs=1e-9)
        assert mine[1] == pytest.approx(ref[1], abs=1e-9)


def test_miou_rejects_labels_outside_the_classes():
    ok = np.array([[0, 1]])
    for pred, truth in ((np.array([[2, 1]]), ok), (ok, np.array([[0, -1]]))):
        with pytest.raises(ValueError):
            miou_pixacc([pred], [truth], classes=2)


def test_probe_learns_linearly_separable_tokens():
    rng = np.random.default_rng(13)
    maps, masks = [], []
    for _ in range(4):
        mask = (np.arange(16 * 16).reshape(16, 16) % 16 >= 8).astype(int)
        feat = np.where(mask[None] == 1,
                        np.array([1.0, 0.0, 0.2, 0.4])[:, None, None],
                        np.array([0.0, 1.0, 0.4, 0.2])[:, None, None])
        feat = feat + 0.05 * rng.standard_normal(feat.shape)
        maps.append(fm(feat))
        masks.append(np.repeat(np.repeat(mask, 4, 0), 4, 1))  # pixel-level labels
    probe = linear_probe_train(maps[:2], masks[:2], classes=2)
    miou, acc = linear_probe_eval(maps[2:], masks[2:], probe)
    assert miou >= 0.9
    assert acc >= 0.9


def test_bypass_student_cosine_close_to_upsample_baseline():
    # with the head bypassed (zero final projection) the student emits
    # nearest-upsampled backbone tokens, whose teacher-cosine should sit next
    # to the bilinear-upsample baseline's
    from brixel.refiner import AdapterConfig, head_forward, adapter_forward, init_student
    from brixel.tensors import ImageTensor, resize_bilinear
    from brixel.vit import ViTConfig, init_backbone, vit_forward

    vit_cfg = ViTConfig(patch_size=8, embed_dim=16, depth=1, heads=2)
    ada_cfg = AdapterConfig(pyramid_channels=(4, 4, 4), fusion_channels=8, head_blocks=1)
    backbone = init_backbone(vit_cfg, seed=2)
    params = init_student(vit_cfg, ada_cfg, seed=3)
    for nm in ("head.out.w", "head.out.b"):
        params.tensors[nm] = np.zeros_like(params.tensors[nm])

    rng = np.random.default_rng(4)
    img = ImageTensor(rng.random((3, 128, 128)).astype(np.float32))
    teacher = vit_forward(img, vit_cfg, backbone)
    low = resize_bilinear(img, 32, 32, antialias=True)
    low_fm = vit_forward(low, vit_cfg, backbone)
    nodes = params.as_nodes()
    pyramid = adapter_forward(low.data[None], ada_cfg, nodes)
    bypass = FeatureMap(head_forward(low_fm.data[None], pyramid, ada_cfg, nodes).value[0])
    cos_bypass = fidelity(bypass, teacher, half_nyquist(teacher)).cosine
    cos_baseline = fidelity(upsample_baseline(low_fm, 4), teacher, half_nyquist(teacher)).cosine
    assert abs(cos_bypass - cos_baseline) <= 0.05


def test_probe_predict_upsamples_to_label_grid():
    probe = ModelParams({"w": np.eye(3, 2), "b": np.zeros(2)}, trainable=False)
    f = fm(RNG.standard_normal((3, 4, 4)))
    pred = probe_predict(f, probe, (16, 16))
    assert pred.shape == (16, 16)
    assert set(np.unique(pred)) <= {0, 1}
