"""The three workloads: what each runs, what it checks, and how it is timed.

All three use one model configuration (the desk config, or a toy one for the
smoke test) whose weights come from the fixed ``DistillConfig.seed``. The
workload seed only generates the input images, so the program receives
generated inputs and nothing else changes with the seed.

Each workload sets up from scratch several times (5 for training, 9 for
eval, whose set-up is short; the last set-up is the one that runs) and
reports the median set-up time. Then it runs a closed loop with one caller:
the next unit (a ``train_step``, or one evaluated image) starts when the
previous one returns. The loop runs for ``seconds`` and for at least ``min_units`` units,
so the quality figures and the loss-trace hash, which are taken over the
first ``min_units`` units, do not depend on how fast the machine is. With
tracing on, odd units run traced and even units untraced, which gives the
tracing overhead from one run.

Set-up and unit times are CPU seconds of the process (``process_time``), not
wall seconds. The package computes on one thread (BLAS pinned to one), so
the two agree whenever the process has a core to itself. Wall time also
counts the time other processes hold the core: on a shared 2-core host,
single steps took twice their CPU time. The loop length is wall time, and
so are the spans (``tracer.py``).
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import shutil
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from brixel import data, evalbench, imgio, losses, refiner, tensors, training, vit
from brixel.errors import ConfigError, DataIOError, NumericError
from brixel.refiner import AdapterConfig
from brixel.training import DistillConfig
from brixel.vit import ViTConfig

# A failed operation: brixel's own errors plus the numpy/shape errors its
# validators raise. Anything else is a benchmark defect and ends the run.
OP_ERRORS = (ConfigError, DataIOError, NumericError, FloatingPointError, ValueError)

# rng stream tags, so the three input sets of one seed never coincide
STREAM_TAG, PROBE_TAG, EVAL_TAG = 11, 13, 17


@dataclass(frozen=True)
class Sizes:
    vit: ViTConfig
    adapter: AdapterConfig
    distill: DistillConfig
    eval_images: int
    cached_min_steps: int
    stream_min_steps: int

    def config_sha256(self) -> str:
        return hashlib.sha256(repr((self.vit, self.adapter, self.distill)).encode()).hexdigest()


# p=8, C=32, depth 2, student 64, teacher 256, batch 8, lambda 1 / 0.1, K=8
DESK = Sizes(vit=ViTConfig(), adapter=AdapterConfig(), distill=DistillConfig(),
             eval_images=12, cached_min_steps=24, stream_min_steps=8)
TOY = Sizes(vit=ViTConfig(embed_dim=16, depth=1, heads=2),
            adapter=AdapterConfig(pyramid_channels=(8, 8, 8), fusion_channels=16,
                                  head_blocks=1),
            distill=DistillConfig(student_resolution=32, batch_size=2, dataset_size=2,
                                  pca_k=4),
            eval_images=3, cached_min_steps=4, stream_min_steps=4)


@dataclass
class Outcome:
    """What one workload run measured; ``run.py`` turns it into metrics."""

    # CPU seconds of the process, see the module docstring
    setup_s: list[float] = field(default_factory=list)
    unit_s: list[float] = field(default_factory=list)         # untraced units
    traced_unit_s: list[float] = field(default_factory=list)  # traced units
    loop_cpu_s: float = 0.0
    images: int = 0
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    train_loss: float | None = None  # mean total over the last half of the first min_units
    loss_vs_baseline: float = math.nan
    cosine_mean: float = math.nan
    loss_trace_sha256: str = ""
    backbone_sha256: str = ""
    cache_hits: int = 0
    cache_lookups: int = 0
    pca_degenerate: int = 0
    clipped_steps: int = 0
    other_warnings: list[str] = field(default_factory=list)
    setup_stats: dict | None = None
    loop_stats: dict | None = None


@dataclass
class Context:
    sizes: Sizes
    seed: int
    seconds: float
    trace: bool
    tracer: object
    out_dir: Path


def _setup_reps(ctx: Context, setup, reps: int, out: Outcome):
    """Set up ``reps`` times (traced as a whole when tracing); keep the last."""
    tr = ctx.tracer
    state = None
    with tr.installed() if ctx.trace else contextlib.nullcontext():
        for rep in range(reps):
            tr.step = -1 - rep
            state = None  # let the previous set-up go before building the next
            start = process_time()
            state = tr.call("bench.setup", setup)
            out.setup_s.append(process_time() - start)
    if ctx.trace:
        out.setup_stats = tr.take_stats()
    return state


def _timed_loop(ctx: Context, unit, min_units: int, out: Outcome) -> None:
    """Closed loop over ``unit(i)``; it returns the unit's own timed seconds
    (``None`` when the unit failed)."""
    tr = ctx.tracer
    i = 0
    start, cpu_start = perf_counter(), process_time()
    while i < min_units or perf_counter() - start < ctx.seconds:
        traced = ctx.trace and i % 2 == 1
        with tr.installed() if traced else contextlib.nullcontext():
            tr.step = i
            dt = tr.call("bench.step", unit, i)
        out.attempted += 1
        if dt is None:
            out.failed += 1
        else:
            (out.traced_unit_s if traced else out.unit_s).append(dt)
        i += 1
    out.loop_cpu_s = process_time() - cpu_start
    if ctx.trace:
        out.loop_stats = tr.take_stats()


def _finish_checks(out: Outcome) -> None:
    """Each run-level check counts as one more operation."""
    out.attempted += len(out.checks)
    out.failed += sum(not ok for ok in out.checks.values())


# ---------------------------------------------------------------------------
# train_cached / train_stream
# ---------------------------------------------------------------------------

def run_train(ctx: Context, stream: bool) -> Outcome:
    sz, tr, out = ctx.sizes, ctx.tracer, Outcome()
    cfg = sz.distill
    res = cfg.teacher_resolution
    min_steps = sz.stream_min_steps if stream else sz.cached_min_steps

    def fresh_batch(step: int):
        rng = np.random.default_rng([ctx.seed, STREAM_TAG, step])
        return [(f"stream_{step}_{j}", tr.call("data.synthetic_image", data.synthetic_image,
                                               rng, res))
                for j in range(cfg.batch_size)]

    def setup():
        run = training.init_run(sz.vit, sz.adapter, cfg)
        src = training.make_teacher_source(cfg, sz.vit, run.backbone)
        dataset = None if stream else data.synthetic_dataset(cfg.dataset_size, res, ctx.seed)
        cache: dict = {}
        batch = fresh_batch(0) if stream else training.select_batch(dataset, cfg, 0)
        warm = tr.call("training.train_step", training.train_step, batch, run.student,
                       run.backbone, sz.vit, sz.adapter, cfg, run.adam, 0,
                       teacher_src=src, sample_cache=cache)
        return run, src, dataset, cache, warm

    out.backbone_sha256 = vit.init_backbone(sz.vit, seed=cfg.seed).content_hash()
    run, src, dataset, cache, warm = _setup_reps(ctx, setup, 5, out)
    trace_rows = [warm]
    snapshot = None

    def unit(i: int):
        nonlocal cache, snapshot
        it = i + 1
        if stream:
            batch = fresh_batch(it)
            # a fresh cache per step: every lookup misses, and memory does not
            # grow with the number of steps a run happens to reach
            cache = {}
        else:
            batch = training.select_batch(dataset, cfg, it)
        known = len(cache)
        start = process_time()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                m = tr.call("training.train_step", training.train_step, batch, run.student,
                            run.backbone, sz.vit, sz.adapter, cfg, run.adam, it,
                            teacher_src=src, sample_cache=cache)
        except OP_ERRORS:
            return None
        dt = process_time() - start
        for w in caught:
            if issubclass(w.category, RuntimeWarning) and "rank" in str(w.message):
                out.pca_degenerate += 1
            else:
                out.other_warnings.append(str(w.message))
        lookups = len({sid for sid, _ in batch})
        out.cache_lookups += lookups
        out.cache_hits += lookups - (len(cache) - known)
        out.clipped_steps += m["gradnorm"] > cfg.grad_clip
        out.images += len(batch)
        if it <= min_steps:
            trace_rows.append(m)
            if it == min_steps:
                snapshot = run.student.copy()
        if not all(math.isfinite(v) for v in m.values()):
            return None
        return dt

    _timed_loop(ctx, unit, min_steps, out)

    cols = training.METRICS_COLUMNS
    table = np.array([[row[c] for c in cols] for row in trace_rows], dtype=np.float64)
    out.loss_trace_sha256 = hashlib.sha256(table.tobytes()).hexdigest()
    totals = table[:, cols.index("total")]
    out.train_loss = float(np.mean(totals[1 + min_steps // 2:]))

    # quality of the student as it stood after ``min_steps`` timed steps
    if stream:
        rng = np.random.default_rng([ctx.seed, PROBE_TAG])
        probe = [(f"probe_{j}", data.synthetic_image(rng, res)) for j in range(cfg.batch_size)]
    else:
        probe = dataset
    student = snapshot if snapshot is not None else run.student
    cosines = _quality(sz, out, *zip(*(_maps(sz, tr, run.backbone, student, sid, img)
                                       for sid, img in probe)))

    out.checks = {
        "losses_finite": bool(np.all(np.isfinite(table))),
        "backbone_unchanged": run.backbone.content_hash() == out.backbone_sha256,
        "cosine_in_range": all(-1.0 <= c <= 1.0 for c in cosines),
    }
    if not stream:
        out.checks["loss_decreased"] = out.train_loss < float(totals[0])
    _finish_checks(out)
    return out


def _maps(sz: Sizes, tr, backbone, student, sid: str, img):
    """Teacher, student and bilinear-baseline maps of one image, made the way
    ``brixel eval`` makes them."""
    f = sz.distill.downsample_factor
    teacher = tr.call("vit.teacher_features", vit.teacher_features,
                      vit.LiveTeacher(sz.vit, backbone), sid, img)
    low = tr.call("tensors.resize_bilinear", tensors.resize_bilinear, img,
                  img.h // f, img.w // f, antialias=True)
    s_fm = tr.call("refiner.student_feature_map", refiner.student_feature_map, low,
                   sz.vit, sz.adapter, backbone, student)
    low_fm = tr.call("vit.vit_forward", vit.vit_forward, low, sz.vit, backbone)
    base = tr.call("evalbench.upsample_baseline", evalbench.upsample_baseline, low_fm,
                   sz.adapter.upsample_factor)
    return teacher, s_fm, base


def _quality(sz: Sizes, out: Outcome, teachers, students, baselines) -> list[float]:
    """Set the mean student cosine and the student's total distillation loss
    as a share of the bilinear baseline's, over one image set (PCA basis fit
    on its teacher tokens). The share, unlike the loss itself, hardly moves
    with how hard the seed's images are. Returns the per-image cosines."""
    cfg = sz.distill
    pca = losses.fit_pca(np.concatenate([t.tokens() for t in teachers]), cfg.pca_k)
    scfg = cfg.spectral_config(*teachers[0].grid)

    def loss(maps):
        return sum(float(losses.total_loss(m, t, pca, cfg.loss_weights(), scfg).value)
                   for m, t in zip(maps, teachers))

    cosines = [evalbench.fidelity(s, t, scfg).cosine for s, t in zip(students, teachers)]
    out.cosine_mean = float(np.mean(cosines))
    out.loss_vs_baseline = loss(students) / loss(baselines)
    return cosines


# ---------------------------------------------------------------------------
# eval_dir
# ---------------------------------------------------------------------------

def run_eval(ctx: Context) -> Outcome:
    sz, tr, out = ctx.sizes, ctx.tracer, Outcome()
    cfg = sz.distill
    res = cfg.teacher_resolution
    n = sz.eval_images
    ppm_dir = ctx.out_dir / "ppm"
    ckpt_dir = ctx.out_dir / "checkpoint"
    rgbs = [imgio.image_to_rgb8(data.synthetic_image(
        np.random.default_rng([ctx.seed, EVAL_TAG, j]), res)) for j in range(n)]

    def setup():
        shutil.rmtree(ppm_dir, ignore_errors=True)
        shutil.rmtree(ckpt_dir, ignore_errors=True)
        ppm_dir.mkdir(parents=True)
        for j, rgb in enumerate(rgbs):
            tr.call("imgio.write_ppm", imgio.write_ppm, ppm_dir / f"img_{j:03d}.ppm", rgb)
        trained = refiner.init_student(sz.vit, sz.adapter, seed=cfg.seed + 1)
        tr.call("training.save_checkpoint", training.save_checkpoint, ckpt_dir, trained,
                training.init_adam(trained), 0)
        dataset = tr.call("data.load_directory", data.load_directory, ppm_dir, res)
        backbone = vit.init_backbone(sz.vit, seed=cfg.seed)
        template = refiner.init_student(sz.vit, sz.adapter, seed=cfg.seed + 1)
        student, _, _ = tr.call("training.load_checkpoint", training.load_checkpoint,
                                ckpt_dir, template)
        return dataset, backbone, student

    out.backbone_sha256 = vit.init_backbone(sz.vit, seed=cfg.seed).content_hash()
    dataset, backbone, student = _setup_reps(ctx, setup, 9, out)
    first_pass = []

    def unit(i: int):
        sid, img = dataset[i % len(dataset)]
        start = process_time()
        try:
            t_fm, s_fm, base = _maps(sz, tr, backbone, student, sid, img)
            scfg = cfg.spectral_config(*t_fm.grid)
            fs = tr.call("evalbench.fidelity", evalbench.fidelity, s_fm, t_fm, scfg)
            fb = tr.call("evalbench.fidelity", evalbench.fidelity, base, t_fm, scfg)
        except OP_ERRORS:
            return None
        dt = process_time() - start
        out.images += 1
        if i < n:
            first_pass.append((t_fm, s_fm, base))
        ok = (s_fm.grid == t_fm.grid == base.grid
              and all(-1.0 <= r.cosine <= 1.0 for r in (fs, fb)))
        return dt if ok else None

    _timed_loop(ctx, unit, n, out)

    cosines = _quality(sz, out, *zip(*first_pass))
    out.checks = {
        "cosine_in_range": all(-1.0 <= c <= 1.0 for c in cosines),
        "backbone_unchanged": backbone.content_hash() == out.backbone_sha256,
        "all_images_read": len(dataset) == n,
    }
    _finish_checks(out)
    shutil.rmtree(ppm_dir, ignore_errors=True)
    shutil.rmtree(ckpt_dir, ignore_errors=True)
    return out


WORKLOADS = {
    "train_cached": lambda ctx: run_train(ctx, stream=False),
    "train_stream": lambda ctx: run_train(ctx, stream=True),
    "eval_dir": run_eval,
}
