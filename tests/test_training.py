import ctypes
import dataclasses
import inspect
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from brixel import autodiff as ad
from brixel.errors import ConfigError, DataIOError, NumericError
from brixel.params import ModelParams
from brixel.evalbench import fidelity
from brixel.refiner import AdapterConfig, init_student, student_feature_map
from brixel.training import (
    AdamState,
    DistillConfig,
    TrainRun,
    adam_step,
    format_metrics_line,
    init_adam,
    init_run,
    load_checkpoint,
    make_teacher_source,
    run_training,
    save_checkpoint,
    select_batch,
    train_step,
    warmup_lr,
)
from brixel import training
from brixel.data import synthetic_dataset
from brixel.tensors import resize_bilinear
from brixel.vit import LiveTeacher, ViTConfig, init_backbone, teacher_features
from oracles import as_float64, per_sample_step

VIT = ViTConfig(patch_size=8, embed_dim=8, depth=1, heads=2)
ADA = AdapterConfig(pyramid_channels=(4, 4, 4), fusion_channels=8, head_blocks=1)
CFG = DistillConfig(student_resolution=32, total_iters=4, batch_size=2,
                    dataset_size=2, pca_k=2, seed=5)


def make_dataset(cfg=CFG):
    return synthetic_dataset(cfg.dataset_size, cfg.teacher_resolution, cfg.seed)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def scalar_params(value: float) -> ModelParams:
    return ModelParams({"p": np.array([value], dtype=np.float64)}, trainable=True)


def test_adam_zero_gradient_leaves_params():
    params = scalar_params(1.5)
    st = init_adam(params)
    adam_step(params, {"p": np.zeros(1)}, st, lr=1e-3)
    assert params["p"][0] == 1.5
    assert st.t == 1


def test_adam_first_step_magnitude():
    # one-step recurrence by hand: m_hat = g, v_hat = g^2, delta = -lr*g/(|g|+eps)
    params = scalar_params(0.0)
    st = init_adam(params)
    adam_step(params, {"p": np.array([0.5])}, st, lr=1e-3)
    assert params["p"][0] == pytest.approx(-1e-3, rel=1e-6)


def test_adam_converges_on_quadratic():
    # independent scalar reference recurrence, run side by side
    params = scalar_params(1.0)
    st = init_adam(params)
    p_ref, m_ref, v_ref = 1.0, 0.0, 0.0
    for t in range(1, 101):
        g = 2.0 * params["p"][0]
        adam_step(params, {"p": np.array([g])}, st, lr=0.1)
        g_ref = 2.0 * p_ref
        m_ref = 0.9 * m_ref + 0.1 * g_ref
        v_ref = 0.999 * v_ref + 0.001 * g_ref * g_ref
        p_ref -= 0.1 * (m_ref / (1 - 0.9 ** t)) / (np.sqrt(v_ref / (1 - 0.999 ** t)) + 1e-8)
        assert params["p"][0] == pytest.approx(p_ref, abs=1e-12)
    assert abs(params["p"][0]) < 0.5


def test_adam_rejects_frozen_and_nan():
    frozen = ModelParams({"p": np.zeros(1)}, trainable=False)
    with pytest.raises(ValueError):
        adam_step(frozen, {"p": np.zeros(1)}, AdamState(m={}, v={}), lr=1e-3)
    params = scalar_params(0.0)
    with pytest.raises(NumericError):
        adam_step(params, {"p": np.array([np.nan])}, init_adam(params), lr=1e-3)


# ---------------------------------------------------------------------------
# warmup schedule
# ---------------------------------------------------------------------------

def test_warmup_endpoints_and_midpoint():
    cfg = DistillConfig(dataset_size=80, batch_size=8, lr=1e-3)
    assert cfg.warmup_iters == 10
    assert warmup_lr(0, cfg) == 0.0
    assert warmup_lr(10, cfg) == pytest.approx(1e-3)
    assert warmup_lr(5, cfg) == pytest.approx(5e-4)
    assert warmup_lr(500, cfg) == pytest.approx(1e-3)  # constant after warmup


def test_warmup_rejects_negative_iteration():
    with pytest.raises(ValueError):
        warmup_lr(-1, CFG)


# ---------------------------------------------------------------------------
# train_step / run_training
# ---------------------------------------------------------------------------

def run_short(iters=4, cfg=CFG):
    run, rows = init_run(VIT, ADA, cfg), []
    run_training(run, make_dataset(cfg), VIT, ADA,
                 dataclasses.replace(cfg, total_iters=iters), rows.append)
    return run, rows


def test_identical_seeds_give_bit_identical_traces():
    lines_a = [format_metrics_line(m) for m in run_short()[1]]
    lines_b = [format_metrics_line(m) for m in run_short()[1]]
    assert lines_a == lines_b
    assert len(lines_a) == 4


def test_backbone_hash_constant_over_training():
    run = init_run(VIT, ADA, CFG)
    before = run.backbone.content_hash()
    student_before = run.student.content_hash()
    run_training(run, make_dataset(), VIT, ADA, dataclasses.replace(CFG, total_iters=4),
                 lambda metrics: None)
    assert run.backbone.content_hash() == before
    assert run.student.content_hash() != student_before


# A fresh interpreter, so no earlier test has shaped its heap: 13 desk steps
# after init_run, printing the mean minor faults of steps 3-12.
_FAULTS_PER_STEP = """
import resource
from brixel import training
from brixel.data import synthetic_dataset
from brixel.refiner import AdapterConfig
from brixel.vit import ViTConfig

vit, ada, cfg = ViTConfig(), AdapterConfig(), training.DistillConfig()
run = training.init_run(vit, ada, cfg)
src = training.make_teacher_source(cfg, vit, run.backbone)
dataset, cache, faults = synthetic_dataset(8, 256, cfg.seed), {}, []
for it in range(13):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    training.train_step(training.select_batch(dataset, cfg, it), run.student, run.backbone,
                        vit, ada, cfg, run.adam, it, teacher_src=src, sample_cache=cache)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(sum(faults[3:]) / len(faults[3:]))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap is held on glibc only")
def test_desk_training_steps_fault_in_no_fresh_pages():
    src_dir = str(Path(training.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _FAULTS_PER_STEP], env=env,
                          capture_output=True, text=True, check=True)
    # with glibc's dynamic thresholds each step re-faults its arrays: thousands per step
    assert float(done.stdout) < 100


def test_init_run_off_glibc_never_loads_libc(monkeypatch):
    def no_libc(*args, **kwargs):
        raise AssertionError("init_run loaded a C library off glibc")

    monkeypatch.setattr(platform, "libc_ver", lambda *args, **kwargs: ("", ""))
    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    run = init_run(VIT, ADA, CFG)
    assert isinstance(run, TrainRun) and run.start_iter == 0


def test_lr_column_matches_closed_form_schedule():
    _, rows = run_short(iters=4)
    for m in rows:
        assert m["lr"] == pytest.approx(warmup_lr(int(m["iter"]), CFG))


def test_metrics_line_format():
    _, rows = run_short(iters=1)
    line = format_metrics_line(rows[0])
    fields = line.split("\t")
    assert len(fields) == 7
    assert fields[0] == "0"
    for f in fields[1:]:
        float(f)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_step_rejects_nonfinite_student():
    run = init_run(VIT, ADA, CFG)
    run.student.tensors["head.out.w"][:] = np.inf
    with pytest.raises(NumericError):
        train_step(make_dataset()[:2], run.student, run.backbone, VIT, ADA, CFG,
                   run.adam, iteration=0,
                   teacher_src=make_teacher_source(CFG, VIT, run.backbone), sample_cache={})


def test_select_batch_is_stateless_in_iteration():
    ds = make_dataset()
    a = [sid for sid, _ in select_batch(ds, CFG, 3)]
    b = [sid for sid, _ in select_batch(ds, CFG, 3)]
    c = [sid for sid, _ in select_batch(ds, CFG, 4)]
    assert a == b
    assert len(c) == CFG.batch_size


def test_batched_step_matches_per_sample_oracle(monkeypatch):
    """One N=batch graph against one graph per image, f64, desk sizes: the
    per-sample losses must be bit-equal and the gradients agree to 1e-12."""
    vit_cfg, ada_cfg = ViTConfig(), AdapterConfig()
    cfg = DistillConfig(batch_size=3, dataset_size=3, seed=2)
    backbone = as_float64(init_backbone(vit_cfg, seed=cfg.seed))
    student = as_float64(init_student(vit_cfg, ada_cfg, seed=cfg.seed + 1))
    batch = select_batch(make_dataset(cfg), cfg, 0)
    rows, want = per_sample_step(batch, student.copy(), backbone, vit_cfg, ada_cfg, cfg)

    seen = {}
    loss_breakdown, clip_gradients = training.loss_breakdown, training.clip_gradients

    def spy_losses(*args):
        total, parts = loss_breakdown(*args)
        seen.update({k: v.value for k, v in parts.items()}, total=total.value)
        return total, parts

    def spy_clip(grads, max_norm):
        seen["grads"] = {k: g.copy() for k, g in grads.items()}
        return clip_gradients(grads, max_norm)

    monkeypatch.setattr(training, "loss_breakdown", spy_losses)
    monkeypatch.setattr(training, "clip_gradients", spy_clip)
    train_step(batch, student, backbone, vit_cfg, ada_cfg, cfg, init_adam(student), 0,
               teacher_src=make_teacher_source(cfg, vit_cfg, backbone), sample_cache={})

    for key in ("l1", "edge", "spectral", "total"):
        assert seen[key].shape == (3,)
        for i, row in enumerate(rows):
            assert seen[key][i].tobytes() == row[key].tobytes(), (key, i)
    for name, g in want.items():
        got = seen["grads"][name]
        assert np.max(np.abs(got - g)) <= 1e-12 * np.max(np.abs(g)), name


def test_every_public_autodiff_op_is_reached(monkeypatch):
    """Each public ``brixel.autodiff`` op has a caller on the training or
    evaluation path: one step, one student map and one fidelity report."""
    leaves = {"constant", "parameter"}
    ops = [name for name, fn in vars(ad).items()
           if inspect.isfunction(fn) and fn.__module__ == ad.__name__
           and not name.startswith("_") and name not in leaves]
    called = set()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ops:
        monkeypatch.setattr(ad, name, counting(name, getattr(ad, name)))
    run = init_run(VIT, ADA, CFG)
    batch = select_batch(make_dataset(), CFG, 0)
    train_step(batch, run.student, run.backbone, VIT, ADA, CFG, run.adam, iteration=0,
               teacher_src=make_teacher_source(CFG, VIT, run.backbone), sample_cache={})
    sid, img = batch[0]
    f = CFG.downsample_factor
    low = resize_bilinear(img, img.h // f, img.w // f, antialias=True)
    teacher = teacher_features(LiveTeacher(VIT, run.backbone), sid, img)
    fidelity(student_feature_map(low, VIT, ADA, run.backbone, run.student), teacher,
             CFG.spectral_config(*teacher.grid))
    assert sorted(set(ops) - called) == []


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    run, _ = run_short(iters=2)
    save_checkpoint(tmp_path / "ck", run.student, run.adam, iteration=2)
    student, adam, it = load_checkpoint(tmp_path / "ck", init_student(VIT, ADA, seed=0))
    assert it == 2
    assert adam.t == run.adam.t
    assert student.content_hash() == run.student.content_hash()
    for name in run.adam.m:
        assert adam.m[name].tobytes() == run.adam.m[name].tobytes()
        assert adam.v[name].tobytes() == run.adam.v[name].tobytes()


def test_resume_reproduces_unpaused_trace(tmp_path):
    cfg = DistillConfig(student_resolution=32, total_iters=14, batch_size=2,
                        dataset_size=2, pca_k=2, seed=9)
    ds = synthetic_dataset(cfg.dataset_size, cfg.teacher_resolution, cfg.seed)

    full, full_rows = init_run(VIT, ADA, cfg), []
    run_training(full, ds, VIT, ADA, cfg, full_rows.append)

    part = init_run(VIT, ADA, cfg)
    run_training(part, ds, VIT, ADA, dataclasses.replace(cfg, total_iters=4),
                 lambda metrics: None)
    save_checkpoint(tmp_path / "ck", part.student, part.adam, iteration=part.start_iter)

    student, adam, it = load_checkpoint(tmp_path / "ck", init_student(VIT, ADA, seed=0))
    resumed = TrainRun(student=student, backbone=init_run(VIT, ADA, cfg).backbone,
                       adam=adam, start_iter=it)
    resumed_rows = []
    run_training(resumed, ds, VIT, ADA, cfg, resumed_rows.append)

    tail = full_rows[4:]
    assert len(resumed_rows) == 10
    for a, b in zip(tail, resumed_rows):
        assert a["total"] == pytest.approx(b["total"], abs=1e-6)


def test_checkpoint_shape_mismatch_names_parameter(tmp_path):
    run, _ = run_short(iters=1)
    save_checkpoint(tmp_path / "ck", run.student, run.adam, iteration=1)
    bigger = AdapterConfig(pyramid_channels=(4, 4, 4), fusion_channels=16, head_blocks=1)
    with pytest.raises(ConfigError, match="head.fuse.w"):
        load_checkpoint(tmp_path / "ck", init_student(VIT, bigger, seed=0))
    other = AdapterConfig(pyramid_channels=(4, 4, 4), fusion_channels=8, head_blocks=2)
    with pytest.raises(ConfigError, match="block1"):
        load_checkpoint(tmp_path / "ck", init_student(VIT, other, seed=0))


def test_load_checkpoint_missing_dir(tmp_path):
    with pytest.raises(DataIOError):
        load_checkpoint(tmp_path / "nothing", init_student(VIT, ADA, seed=0))


# ---------------------------------------------------------------------------
# teacher source wiring
# ---------------------------------------------------------------------------

def test_unknown_teacher_source_rejected():
    with pytest.raises(ConfigError, match="carrier-pigeon"):
        DistillConfig(teacher_source="carrier-pigeon")


def test_config_invariants():
    cfg = DistillConfig(student_resolution=64, downsample_factor=4)
    assert cfg.teacher_resolution == 256
    with pytest.raises(ConfigError):
        DistillConfig(batch_size=0)
    with pytest.raises(ConfigError):
        DistillConfig(lr=0.0)
