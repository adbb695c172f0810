"""Acceptance suite: one test per criterion, each at its stated tolerance.

A summary table with one PASS/FAIL line per criterion is printed at the end
of the run (see conftest.py). The expensive overfit run (criteria 5 and 6)
executes once as a session fixture; expect the full module to take roughly
fifteen minutes on a laptop CPU.
"""

import numpy as np
import pytest

from brixel import autodiff as ad
from brixel.cli import main
from brixel.data import synthetic_dataset, two_region_dataset
from brixel.evalbench import (
    attention_scores_macs,
    fidelity,
    flop_model,
    linear_probe_eval,
    linear_probe_train,
    upsample_baseline,
)
from brixel.imgio import read_ppm, write_ppm
from brixel.losses import (
    LossWeights,
    SpectralConfig,
    edge_loss,
    fit_pca,
    l1_loss,
    radial_spectrum,
    spectral_loss,
    total_loss,
)
from brixel.refiner import AdapterConfig, init_student, student_feature_map, student_forward
from brixel.tensors import ImageTensor, grid_to_tokens, resize_bilinear
from brixel.training import DistillConfig, init_run, run_training
from brixel.vit import ViTConfig, init_backbone, vit_forward
from oracles import as_float64, finite_difference_grad, loop_radial_spectrum, max_rel_err

RESULTS: dict[int, tuple[str, bool, str]] = {}

DESK_VIT = ViTConfig(patch_size=8, embed_dim=32, depth=2, heads=4)
DESK_ADA = AdapterConfig()
DESK_CFG = DistillConfig(student_resolution=64, downsample_factor=4, lambda_edge=1.0,
                         lambda_spectral=0.1, pca_k=8, lr=1e-3, total_iters=2000,
                         batch_size=8, dataset_size=8, seed=0)
WEIGHTS = LossWeights(edge=1.0, spectral=0.1)


def record(num: int, desc: str, failures: list[str], detail: str = ""):
    ok = not failures
    RESULTS[num] = (desc, ok, detail)
    assert ok, f"criterion {num} ({desc}): " + "; ".join(failures)


# ---------------------------------------------------------------------------
# 1. loss identities
# ---------------------------------------------------------------------------

def test_criterion_01_loss_identities():
    failures = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        t = rng.standard_normal((8, 16, 16)).astype(np.float32)
        p = fit_pca(grid_to_tokens(t), 4)
        cfg = SpectralConfig(r0=4, eps_log=1e-8)
        at_equal = {
            "l1": float(l1_loss(t.copy(), t).value),
            "edge": float(edge_loss(t.copy(), t, p).value),
            "spectral": float(spectral_loss(t.copy(), t, cfg).value),
            "total": float(total_loss(t.copy(), t, p, WEIGHTS, cfg).value),
        }
        for name, v in at_equal.items():
            if not v <= 1e-6:
                failures.append(f"{name} at student=teacher is {v:.2e} > 1e-6 (seed {seed})")

        # positivity under a 1e-2 perturbation; small-amplitude maps keep the
        # relative spectral deviation visible after annulus averaging
        t2 = (0.02 * rng.standard_normal((8, 16, 16))).astype(np.float32)
        s2 = t2 + (1e-2 * rng.standard_normal(t2.shape)).astype(np.float32)
        p2 = fit_pca(grid_to_tokens(t2), 4)
        perturbed = {
            "l1": float(l1_loss(s2, t2).value),
            "edge": float(edge_loss(s2, t2, p2).value),
            "spectral": float(spectral_loss(s2, t2, cfg).value),
            "total": float(total_loss(s2, t2, p2, WEIGHTS, cfg).value),
        }
        for name, v in perturbed.items():
            if not v >= 1e-4:
                failures.append(f"{name} under perturbation is {v:.2e} < 1e-4 (seed {seed})")
    record(1, "loss identities (zero at equal, positive when perturbed)", failures)


# ---------------------------------------------------------------------------
# 2. gradient oracle
# ---------------------------------------------------------------------------

def _total_loss_value(s_arr, t, p, cfg):
    return float(total_loss(ad.constant(s_arr), t, p, WEIGHTS, cfg).value)


def test_criterion_02_gradient_oracle():
    failures = []
    for case in range(20):
        rng = np.random.default_rng(3000 + case)
        c = int(rng.integers(2, 9))       # C <= 8
        h = int(rng.integers(6, 13))      # grids <= 12x12
        w = int(rng.integers(6, 13))
        k = int(rng.integers(1, min(4, c) + 1))  # K <= 4
        t = rng.standard_normal((c, h, w))
        s0 = t + 0.4 * rng.standard_normal((c, h, w))
        p = fit_pca(grid_to_tokens(t), k)
        cfg = SpectralConfig(r0=max(1, min(h, w) // 4), eps_log=1e-8)

        with ad.Tape() as tape:
            s = ad.parameter(s0.copy())
            tape.backward(total_loss(s, t, p, WEIGHTS, cfg))
        numeric = finite_difference_grad(lambda v: _total_loss_value(v, t, p, cfg), s0)
        err = max_rel_err(s.grad, numeric)
        if err > 1e-4:
            failures.append(f"case {case}: map gradient rel err {err:.2e}")

    # parameter gradients through the full student pipeline (f64)
    for case in range(20):
        rng = np.random.default_rng(4000 + case)
        c = int(rng.choice([4, 8]))
        vit_cfg = ViTConfig(patch_size=8, embed_dim=c, depth=1, heads=2)
        ada_cfg = AdapterConfig(pyramid_channels=(3, 3, 3), fusion_channels=6, head_blocks=1)
        frozen = as_float64(init_backbone(vit_cfg, seed=case))
        params = as_float64(init_student(vit_cfg, ada_cfg, seed=100 + case))
        img = ImageTensor(rng.random((3, 16, 16)))  # output grid 8x8 <= 12x12
        t = rng.standard_normal((c, 8, 8))
        k = int(rng.integers(1, min(4, c) + 1))
        p = fit_pca(grid_to_tokens(t), k)
        cfg = SpectralConfig(r0=2, eps_log=1e-8)
        low_map = vit_forward(img, vit_cfg, frozen)

        def loss_at(theta: dict[str, np.ndarray]) -> float:
            mp = params.copy()
            mp.tensors.update(theta)
            out = student_forward(img, low_map, ada_cfg, mp.as_nodes())
            return float(total_loss(out, t, p, WEIGHTS, cfg).value)

        with ad.Tape() as tape:
            nodes = params.as_nodes()
            out = student_forward(img, low_map, ada_cfg, nodes)
            tape.backward(total_loss(out, t, p, WEIGHTS, cfg))

        hstep = 1e-5
        for name, node in nodes.items():
            g = node.grad if node.grad is not None else np.zeros_like(node.value)
            v = rng.standard_normal(g.shape)
            v /= np.linalg.norm(v) + 1e-12
            theta_p = {name: params[name] + hstep * v}
            theta_m = {name: params[name] - hstep * v}
            numeric_dir = (loss_at(theta_p) - loss_at(theta_m)) / (2 * hstep)
            analytic_dir = float(np.sum(g * v))
            err = max_rel_err(np.array([analytic_dir]), np.array([numeric_dir]))
            if err > 1e-4:
                failures.append(f"case {case}: {name} directional rel err {err:.2e}")
                continue
            flat = params[name].reshape(-1)
            for idx in rng.choice(flat.size, size=min(2, flat.size), replace=False):
                e = np.zeros_like(flat)
                e[idx] = 1.0
                e = e.reshape(params[name].shape)
                num = (loss_at({name: params[name] + hstep * e})
                       - loss_at({name: params[name] - hstep * e})) / (2 * hstep)
                ana = float(g.reshape(-1)[idx])
                if abs(ana - num) > 1e-4 * max(abs(ana), abs(num), 1e-3):
                    failures.append(
                        f"case {case}: {name}[{idx}] grad {ana:.3e} vs fd {num:.3e}")
    record(2, "analytic gradients vs central finite differences (1e-4)", failures)


# ---------------------------------------------------------------------------
# 3. DFT / spectrum oracle
# ---------------------------------------------------------------------------

def test_criterion_03_spectrum_oracle():
    failures = []
    for shape in [(1, 8, 8), (3, 8, 8), (2, 8, 12)]:
        for seed in range(3):
            fm = np.random.default_rng(seed).standard_normal(shape)
            diff = np.max(np.abs(radial_spectrum(fm).value - loop_radial_spectrum(fm)))
            if diff > 1e-6:
                failures.append(f"{shape} seed {seed}: oracle gap {diff:.2e}")
    for h, w in [(8, 8), (8, 12)]:
        delta = np.zeros((1, h, w))
        delta[0, h // 2, w // 3] = np.sqrt(h * w)  # unit l2-energy per bin
        spec = radial_spectrum(delta).value
        if not np.allclose(spec, 1.0, atol=1e-6):
            failures.append(f"delta {h}x{w}: bins {spec} != 1.0")
    record(3, "radial spectrum vs O(N^4) DFT oracle (1e-6), flat delta spectrum", failures)


# ---------------------------------------------------------------------------
# 4. PCA oracle
# ---------------------------------------------------------------------------

def test_criterion_04_pca_oracle():
    failures = []
    for case in range(10):
        rng = np.random.default_rng(500 + case)
        n = int(rng.integers(16, 65))   # N <= 64
        c = int(rng.integers(3, 9))     # C <= 8
        k = int(rng.integers(1, c + 1))
        tokens = rng.standard_normal((n, c)) * rng.uniform(0.5, 2.0, size=c)
        p = fit_pca(tokens, k)

        centered = tokens - tokens.mean(axis=0)
        cov = centered.T @ centered / (n - 1)
        evals, evecs = np.linalg.eigh(cov)
        evals = evals[::-1][:k]
        basis_oracle = evecs[:, ::-1][:, :k]

        fitted_evals = np.array([p.basis[:, j] @ cov @ p.basis[:, j] for j in range(k)])
        if np.max(np.abs(fitted_evals - evals)) > 1e-6:
            failures.append(f"case {case}: eigenvalue gap "
                            f"{np.max(np.abs(fitted_evals - evals)):.2e}")
        sv = np.linalg.svd(p.basis.T @ basis_oracle, compute_uv=False)
        angles = np.arccos(np.clip(sv, -1.0, 1.0))
        if np.max(angles) > 1e-4:
            failures.append(f"case {case}: principal angle {np.max(angles):.2e} rad")
    record(4, "fit_pca vs covariance eigendecomposition oracle", failures)


# ---------------------------------------------------------------------------
# 5 & 6. the overfit run
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def overfit_run():
    dataset = synthetic_dataset(DESK_CFG.dataset_size, DESK_CFG.teacher_resolution,
                                DESK_CFG.seed)
    run, rows = init_run(DESK_VIT, DESK_ADA, DESK_CFG), []
    backbone_hash_before = run.backbone.content_hash()
    run_training(run, dataset, DESK_VIT, DESK_ADA, DESK_CFG, rows.append)
    return run, dataset, backbone_hash_before, rows


def test_criterion_05_overfit_convergence(overfit_run):
    run, dataset, _, rows = overfit_run
    failures = []
    first = rows[0]["total"]
    final = rows[-1]["total"]
    if not final < 0.1 * first:
        failures.append(f"final L_total {final:.4f} >= 0.1 * first {first:.4f}")

    cos_student, cos_baseline = [], []
    for _, img in dataset:
        teacher = vit_forward(img, DESK_VIT, run.backbone)
        low = resize_bilinear(img, DESK_CFG.student_resolution,
                              DESK_CFG.student_resolution, antialias=True)
        s_fm = student_feature_map(low, DESK_VIT, DESK_ADA, run.backbone, run.student)
        b_fm = upsample_baseline(vit_forward(low, DESK_VIT, run.backbone),
                                 DESK_ADA.upsample_factor)
        scfg = DESK_CFG.spectral_config(*teacher.grid)
        cos_student.append(fidelity(s_fm, teacher, scfg).cosine)
        cos_baseline.append(fidelity(b_fm, teacher, scfg).cosine)
    margin = float(np.mean(cos_student) - np.mean(cos_baseline))
    if not margin >= 0.05:
        failures.append(f"cosine margin over bilinear baseline {margin:.4f} < 0.05")

    # stochasticity-tolerant monotonicity: median of last 10% < median of first 10%
    totals = [m["total"] for m in rows]
    tenth = max(1, len(totals) // 10)
    if not np.median(totals[-tenth:]) < np.median(totals[:tenth]):
        failures.append("loss trend not decreasing (median last 10% >= first 10%)")
    record(5, "overfit convergence (10x loss drop, cosine beats baseline by 0.05)",
           failures, detail=f"loss {first:.3f}->{final:.3f}, cosine margin {margin:.3f}")


def test_criterion_06_frozen_backbone(overfit_run):
    run, _, hash_before, _ = overfit_run
    failures = []
    if run.backbone.content_hash() != hash_before:
        failures.append("backbone weight hash changed during training")
    if run.backbone.trainable:
        failures.append("backbone marked trainable")

    # structural check: even inside an active tape, backbone weights enter the
    # graph as constants and the forward records no node, so no gradient
    # tensor can ever be allocated for them
    img = ImageTensor(np.random.default_rng(0).random((3, 64, 64)).astype(np.float32))
    with ad.Tape() as tape:
        frozen_nodes = run.backbone.as_nodes()
        if any(node.requires_grad for node in frozen_nodes.values()):
            failures.append("frozen params lifted as gradient-requiring nodes")
        fm = vit_forward(img, DESK_VIT, run.backbone)
        if tape.nodes:
            failures.append(f"backbone forward recorded {len(tape.nodes)} tape nodes")
        tape.backward(ad.reduce_mean(ad.square(ad.constant(fm.data))))
    if any(node.grad is not None for node in frozen_nodes.values()):
        failures.append("gradient tensor allocated for a backbone parameter")
    record(6, "frozen-backbone contract (hash constant, no grads allocated)", failures)


# ---------------------------------------------------------------------------
# 7. cost model
# ---------------------------------------------------------------------------

def test_criterion_07_cost_model():
    failures = []
    r64 = flop_model(DESK_VIT, DESK_ADA, 64 * DESK_VIT.patch_size)
    if not r64.flops_teacher > r64.flops_student_total:
        failures.append("teacher FLOPs do not exceed student FLOPs at 64x64 grid")
    ratios = []
    for grid in (16, 32, 64, 128):
        r = flop_model(DESK_VIT, DESK_ADA, grid * DESK_VIT.patch_size)
        ratios.append(r.flops_teacher / r.flops_student_total)
    if not all(b > a for a, b in zip(ratios, ratios[1:])):
        failures.append(f"teacher/student ratio not strictly increasing: {ratios}")
    ns = np.array([64, 256, 1024, 4096])
    ys = np.array([attention_scores_macs(n, DESK_VIT.embed_dim) for n in ns])
    slope = float(np.polyfit(np.log(ns), np.log(ys), 1)[0])
    if abs(slope - 2.0) > 0.01:
        failures.append(f"attention log-log slope {slope:.4f} != 2.00 +- 0.01")
    record(7, "cost model (teacher > student at 64x64, growing ratio, slope 2.00)",
           failures, detail=f"ratios {['%.1f' % r for r in ratios]}, slope {slope:.3f}")


# ---------------------------------------------------------------------------
# 8. reproducibility via the CLI
# ---------------------------------------------------------------------------

MINI_CONFIG = """\
patch_size=8
embed_dim=8
depth=1
heads=2
pyramid_channels=4,4,4
fusion_channels=8
head_blocks=1
student_resolution=32
total_iters={iters}
batch_size=2
dataset_size=2
pca_k=2
seed=11
"""


def test_criterion_08_reproducibility(tmp_path):
    failures = []
    cfg12 = tmp_path / "mini12.cfg"
    cfg12.write_text(MINI_CONFIG.format(iters=12))

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        if main(["distill", "--config", str(cfg12), "--data", "synthetic",
                 "--out", str(out)]) != 0:
            failures.append("distill run failed")
    if (out_a / "metrics.tsv").read_bytes() != (out_b / "metrics.tsv").read_bytes():
        failures.append("identical seeds produced different metrics logs")

    cfg2 = tmp_path / "mini2.cfg"
    cfg2.write_text(MINI_CONFIG.format(iters=2))
    paused = tmp_path / "paused"
    if main(["distill", "--config", str(cfg2), "--data", "synthetic",
             "--out", str(paused)]) != 0:
        failures.append("paused run failed")
    if main(["distill", "--config", str(cfg12), "--data", "synthetic",
             "--out", str(paused), "--resume"]) != 0:
        failures.append("resumed run failed")
    full_lines = (out_a / "metrics.tsv").read_text().strip().splitlines()
    resumed_lines = (paused / "metrics.tsv").read_text().strip().splitlines()
    if len(resumed_lines) != 12:
        failures.append(f"resumed log has {len(resumed_lines)} lines, expected 12")
    else:
        for a, b in zip(full_lines[2:], resumed_lines[2:]):  # 10 post-resume steps
            ta, tb = float(a.split("\t")[5]), float(b.split("\t")[5])
            if abs(ta - tb) > 1e-6:
                failures.append(f"resumed trace diverges: {ta} vs {tb}")
                break
    record(8, "bit-identical reruns; pause/resume matches within 1e-6", failures)


# ---------------------------------------------------------------------------
# 9. end-to-end CLI
# ---------------------------------------------------------------------------

def test_criterion_09_end_to_end_cli(tmp_path):
    failures = []
    cfg = tmp_path / "e2e.cfg"
    cfg.write_text(MINI_CONFIG.format(iters=6))
    run_dir = tmp_path / "run"
    if main(["distill", "--config", str(cfg), "--data", "synthetic",
             "--out", str(run_dir)]) != 0:
        failures.append("distill exited nonzero")
    ckpt = run_dir / "checkpoints" / "latest"
    if main(["eval", "--checkpoint", str(ckpt), "--data", "synthetic",
             "--out", str(tmp_path / "eval")]) != 0:
        failures.append("eval exited nonzero")
    img = tmp_path / "probe.ppm"
    write_ppm(img, np.random.default_rng(2).integers(0, 256, size=(96, 96, 3),
                                                     dtype=np.uint8))
    if main(["viz", "--checkpoint", str(ckpt), "--image", str(img),
             "--out", str(tmp_path / "viz")]) != 0:
        failures.append("viz exited nonzero")
    panels = tmp_path / "viz" / "panels"
    if not failures:
        teacher = read_ppm(panels / "probe_teacher.ppm").data.shape
        student = read_ppm(panels / "probe_student.ppm").data.shape
        baseline = read_ppm(panels / "probe_baseline.ppm").data.shape
        if student != teacher:
            failures.append(f"student grid {student} != teacher grid {teacher}")
        if (teacher[1], teacher[2]) != (4 * baseline[1], 4 * baseline[2]):
            failures.append(f"teacher grid {teacher} != 4x baseline grid {baseline}")
    record(9, "distill -> eval -> viz end to end; 4x panel protocol", failures)


# ---------------------------------------------------------------------------
# 10. toy probe
# ---------------------------------------------------------------------------

C10_VIT = ViTConfig(patch_size=8, embed_dim=16, depth=1, heads=2)
C10_ADA = AdapterConfig(pyramid_channels=(8, 16, 16), fusion_channels=32, head_blocks=3)
C10_CFG = DistillConfig(student_resolution=64, total_iters=1200, batch_size=4,
                        dataset_size=12, pca_k=8, seed=77)


def test_criterion_10_toy_probe():
    # Distillation is label-free, so the student may adapt on the probe image
    # pool itself (desk-scale transductive setup); the probe still trains on
    # one labeled half and is evaluated on the other.
    failures = []
    samples = two_region_dataset(C10_CFG.dataset_size, C10_CFG.teacher_resolution,
                                 seed=C10_CFG.seed)
    run = init_run(C10_VIT, C10_ADA, C10_CFG)
    run_training(run, [(sid, img) for sid, img, _ in samples],
                 C10_VIT, C10_ADA, C10_CFG, lambda metrics: None)

    feats_s, feats_b, masks = [], [], []
    for _, img, mask in samples:
        low = resize_bilinear(img, C10_CFG.student_resolution,
                              C10_CFG.student_resolution, antialias=True)
        feats_s.append(student_feature_map(low, C10_VIT, C10_ADA,
                                           run.backbone, run.student))
        feats_b.append(upsample_baseline(vit_forward(low, C10_VIT, run.backbone),
                                         C10_ADA.upsample_factor))
        masks.append(mask)

    half = len(samples) // 2
    probe_s = linear_probe_train(feats_s[:half], masks[:half], classes=2)
    probe_b = linear_probe_train(feats_b[:half], masks[:half], classes=2)
    miou_s, _ = linear_probe_eval(feats_s[half:], masks[half:], probe_s)
    miou_b, _ = linear_probe_eval(feats_b[half:], masks[half:], probe_b)

    if not miou_s >= 0.9:
        failures.append(f"student probe mIoU {miou_s:.3f} < 0.9")
    if not miou_s >= miou_b:
        failures.append(f"student probe mIoU {miou_s:.3f} below baseline {miou_b:.3f}")
    record(10, "toy probe: student mIoU >= 0.9 and >= bilinear baseline",
           failures, detail=f"student {miou_s:.3f} vs baseline {miou_b:.3f}")
