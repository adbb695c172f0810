"""The distillation driver.

Per step: the frozen per-sample inputs (teacher features at high
resolution, the image downsampled 4x per side, and the frozen backbone's map
of that low-res image), computed once per sample id and cached; a
batch-pooled PCA of the teacher tokens; one student graph over the whole
batch, stacked along a leading axis, giving per-sample L1 + edge + spectral
losses; one backward pass over their mean and an Adam update of the
refiner/head parameters only. Backbone weights are never touched; a hash
check pins that down in the tests.

Batches and synthetic data are derived statelessly from (seed, iteration),
so a paused-and-resumed run walks the same trajectory as an unpaused one.

A step allocates and frees about 50 MB of arrays; under glibc's dynamic
thresholds the heap gives them back after each step, and the next step faults
them in again (about 13k minor faults per desk step). :func:`init_run`, which
every run goes through, first fixes glibc's trim and mmap thresholds so the
process keeps that memory. It is a no-op off glibc and changes no float bit.
"""

from __future__ import annotations

import ctypes
import functools
import math
import operator
import platform
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataIOError, NumericError
from .losses import LossWeights, SpectralConfig, default_r0, fit_pca, loss_breakdown
from .params import ModelParams
from .refiner import AdapterConfig, adapter_forward, head_forward, init_student
from .tensors import ImageTensor, load_tensor, resize_bilinear, save_tensor
from .vit import FileTeacher, LiveTeacher, ViTConfig, init_backbone, teacher_features, vit_forward

METRICS_COLUMNS = ("iter", "lr", "l1", "edge", "spectral", "total", "gradnorm")


@dataclass(frozen=True)
class DistillConfig:
    """Hyperparameters of one training run (desk-scale defaults). Each check
    that reads only these fields lives here and raises :class:`ConfigError`."""

    student_resolution: int = 64
    downsample_factor: int = 4
    lambda_edge: float = 1.0
    lambda_spectral: float = 0.1
    pca_k: int = 8
    lr: float = 1e-3
    warmup_epochs: float = 1.0
    total_iters: int = 2000
    batch_size: int = 8
    dataset_size: int = 8
    seed: int = 0
    teacher_source: str = "live"  # or "file:<dir>"
    r0: int = 0                   # 0 -> half-Nyquist default for the grid
    eps_log: float = 1e-8
    grad_clip: float = 1.0

    def __post_init__(self):
        if self.student_resolution < 16:
            raise ConfigError("student_resolution must be >= 16")
        if self.downsample_factor < 1:
            raise ConfigError("downsample_factor must be >= 1")
        if self.batch_size < 1 or self.total_iters < 0 or self.dataset_size < 1:
            raise ConfigError("batch_size/dataset_size must be >= 1, total_iters >= 0")
        if self.pca_k < 1 or self.lr <= 0:
            raise ConfigError("pca_k must be >= 1 and lr positive")
        if self.seed < 0 or not 0 <= self.warmup_epochs * self.epoch_iters < math.inf:
            raise ConfigError("seed must be >= 0, and warmup_epochs >= 0 with a finite "
                              "warmup_epochs * iterations per epoch")
        if self.grad_clip < 0:
            raise ConfigError(f"grad_clip={self.grad_clip} must be >= 0 (0 turns clipping off)")
        if self.r0 < 0:
            raise ConfigError(f"r0={self.r0} must be >= 0 (0 picks the half-Nyquist default)")
        if self.lambda_edge < 0 or self.lambda_spectral < 0 or self.eps_log <= 0:
            raise ConfigError("lambda_edge and lambda_spectral must be >= 0 and eps_log > 0")
        if self.teacher_source != "live" and not (isinstance(self.teacher_source, str)
                                                   and self.teacher_source.startswith("file:")):
            raise ConfigError(f"unknown teacher_source {self.teacher_source!r} "
                              "(expected 'live' or 'file:<dir>')")

    @property
    def teacher_resolution(self) -> int:
        return self.student_resolution * self.downsample_factor

    @property
    def epoch_iters(self) -> int:
        return max(1, math.ceil(self.dataset_size / self.batch_size))

    @property
    def warmup_iters(self) -> int:
        return int(round(self.warmup_epochs * self.epoch_iters))

    def loss_weights(self) -> LossWeights:
        return LossWeights(edge=self.lambda_edge, spectral=self.lambda_spectral)

    def spectral_config(self, grid_h: int, grid_w: int) -> SpectralConfig:
        return SpectralConfig(r0=self.r0 or default_r0(grid_h, grid_w), eps_log=self.eps_log)


# ---------------------------------------------------------------------------
# Adam with warmup
# ---------------------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


def init_adam(params: ModelParams) -> AdamState:
    return AdamState(m={k: np.zeros_like(p) for k, p in params.items()},
                     v={k: np.zeros_like(p) for k, p in params.items()})


def adam_step(params: ModelParams, grads: dict[str, np.ndarray], state: AdamState,
              lr: float) -> None:
    """Standard bias-corrected Adam update, in place on the parameter and moment arrays."""
    if not params.trainable:
        raise ValueError("refusing to update frozen parameters")
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"NaN/Inf gradient for parameter {name}; step aborted")
        if g.shape != params[name].shape:
            raise ValueError(f"gradient shape {g.shape} != parameter {name} "
                             f"shape {params[name].shape}")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for name, g in grads.items():
        p, m, v = params[name], state.m[name], state.v[name]
        g = g.astype(p.dtype, copy=False)
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def warmup_lr(iteration: int, cfg: DistillConfig) -> float:
    """Linear 0 -> lr over the first epoch's iterations, constant afterwards."""
    if iteration < 0:
        raise ValueError("iteration must be >= 0")
    if cfg.warmup_iters <= 0:
        return cfg.lr
    return cfg.lr * min(1.0, iteration / cfg.warmup_iters)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale gradients to a global-norm cap; returns the pre-clip norm."""
    sq = 0.0
    for g in grads.values():
        sq += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
    norm = math.sqrt(sq)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for name in grads:
            grads[name] = grads[name] * scale
    return norm


# ---------------------------------------------------------------------------
# One training step
# ---------------------------------------------------------------------------

def make_teacher_source(cfg: DistillConfig, vit_cfg: ViTConfig, backbone: ModelParams):
    if cfg.teacher_source == "live":
        return LiveTeacher(vit_cfg, backbone)
    grid = cfg.teacher_resolution // vit_cfg.patch_size
    return FileTeacher(Path(cfg.teacher_source.removeprefix("file:")),
                       (vit_cfg.embed_dim, grid, grid))


def student_input(img: ImageTensor, cfg: DistillConfig) -> ImageTensor:
    """The image the student sees: ``img`` area-downsampled by
    ``downsample_factor`` per side. Training, eval, viz and bench all call this."""
    f = cfg.downsample_factor
    return resize_bilinear(img, img.h // f, img.w // f, antialias=True)


def train_step(batch: list[tuple[str, ImageTensor]], student: ModelParams,
               backbone: ModelParams, vit_cfg: ViTConfig, adapter_cfg: AdapterConfig,
               cfg: DistillConfig, adam: AdamState, iteration: int, *,
               teacher_src, sample_cache: dict) -> dict[str, float]:
    """One optimization step over a batch of teacher-resolution images.

    ``teacher_src`` comes from :func:`make_teacher_source`. ``sample_cache``
    maps each sample id to its frozen arrays (teacher map, downsampled image,
    low-res backbone map), computed on the id's first step and reused after.
    """
    lr = warmup_lr(iteration, cfg)

    for sid, img in batch:
        if sid not in sample_cache:
            low = student_input(img, cfg)
            sample_cache[sid] = (teacher_features(teacher_src, sid, img).data, low.data,
                                 vit_forward(low, vit_cfg, backbone).data)
    teachers, lows, low_maps = (np.stack(arrays)
                                for arrays in zip(*(sample_cache[sid] for sid, _ in batch)))

    # tokens sample by sample, each in row-major grid order
    pca = fit_pca(teachers.transpose(0, 2, 3, 1).reshape(-1, teachers.shape[1]), cfg.pca_k)
    spectral_cfg = cfg.spectral_config(*teachers.shape[-2:])

    with ad.Tape() as tape:
        nodes = student.as_nodes()
        pyramid = adapter_forward(lows, adapter_cfg, nodes)
        s_out = head_forward(low_maps, pyramid, adapter_cfg, nodes)
        total, parts = loss_breakdown(s_out, teachers, pca, cfg.loss_weights(), spectral_cfg)
        bad = ~np.isfinite(total.value)
        if bad.any():
            sid = batch[int(np.argmax(bad))][0]
            raise NumericError(f"non-finite loss for sample {sid!r} at iteration {iteration}")
        tape.backward(ad.reduce_mean(total))

    grads = {name: (node.grad if node.grad is not None else np.zeros_like(node.value))
             for name, node in nodes.items()}
    gradnorm = clip_gradients(grads, cfg.grad_clip)
    adam_step(student, grads, adam, lr)

    means = {key: _batch_mean(node.value) for key, node in parts.items()}
    return {"iter": float(iteration), "lr": lr, **means, "total": _batch_mean(total.value),
            "gradnorm": gradnorm}


def _batch_mean(values: np.ndarray) -> float:
    """Per-sample values as python floats added left to right, over n (``sum``
    compensates from Python 3.12 on, which would change the logged bits)."""
    return functools.reduce(operator.add, map(float, values)) / len(values)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(ckpt_dir, student: ModelParams, adam: AdamState, iteration: int) -> None:
    """One .brxt per named parameter plus a text manifest and optimizer state."""
    root = Path(ckpt_dir)
    (root / "params").mkdir(parents=True, exist_ok=True)
    (root / "adam" / "m").mkdir(parents=True, exist_ok=True)
    (root / "adam" / "v").mkdir(parents=True, exist_ok=True)
    for name, tensor in student.items():
        save_tensor(tensor, root / "params" / f"{name}.brxt")
        save_tensor(adam.m[name], root / "adam" / "m" / f"{name}.brxt")
        save_tensor(adam.v[name], root / "adam" / "v" / f"{name}.brxt")
    (root / "manifest.txt").write_text("".join(f"{name}\n" for name in student.names()))
    (root / "state.txt").write_text(f"iter\t{iteration}\nadam_t\t{adam.t}\n")


def load_checkpoint(ckpt_dir, template: ModelParams) -> tuple[ModelParams, AdamState, int]:
    """Restore parameters + Adam state. A parameter of another shape than the
    template's is a configuration mismatch; any other tensor whose shape or
    dtype differs from the template's is a damaged checkpoint."""
    root = Path(ckpt_dir)
    manifest = root / "manifest.txt"
    if not manifest.exists():
        raise DataIOError(f"no checkpoint manifest at {manifest}")
    try:
        names = [line.split("\t")[0] for line in manifest.read_text(encoding="utf-8").splitlines()
                 if line.strip()]
    except UnicodeDecodeError as exc:
        raise DataIOError(f"damaged checkpoint manifest {manifest}: {exc}") from exc
    if set(names) != set(template.names()):
        missing = set(template.names()) - set(names)
        extra = set(names) - set(template.names())
        raise ConfigError(
            f"checkpoint parameters do not match the configuration "
            f"(missing: {sorted(missing)}, unexpected: {sorted(extra)})")
    tensors, m, v = {}, {}, {}
    for name in names:
        want = template[name]
        paths = [root / sub / f"{name}.brxt" for sub in ("params", "adam/m", "adam/v")]
        tensors[name] = load_tensor(paths[0])
        if tensors[name].shape != want.shape:
            raise ConfigError(
                f"checkpoint parameter {name!r} has shape {tuple(tensors[name].shape)}, "
                f"configuration expects {tuple(want.shape)}")
        m[name], v[name] = load_tensor(paths[1]), load_tensor(paths[2])
        for path, tensor in zip(paths, (tensors[name], m[name], v[name])):
            if tensor.shape != want.shape or tensor.dtype != want.dtype:
                raise DataIOError(
                    f"damaged checkpoint tensor {path}: {tensor.dtype} {tuple(tensor.shape)}, "
                    f"expected {want.dtype} {tuple(want.shape)}")
    state_path = root / "state.txt"
    try:
        state = dict(line.split("\t") for line in state_path.read_text().splitlines()
                     if line.strip())
        iteration, adam_t = int(state["iter"]), int(state["adam_t"])
    except (KeyError, ValueError) as exc:
        raise DataIOError(f"damaged checkpoint state {state_path}: {exc!r}") from exc
    if iteration < 0 or adam_t < 0:
        raise DataIOError(f"damaged checkpoint state {state_path}: iter {iteration} "
                          f"and adam_t {adam_t} must be >= 0")
    adam = AdamState(m=m, v=v, t=adam_t)
    return ModelParams(tensors, trainable=True), adam, iteration


# ---------------------------------------------------------------------------
# The run driver
# ---------------------------------------------------------------------------

def format_metrics_line(metrics: dict[str, float]) -> str:
    return "\t".join([str(int(metrics["iter"]))]
                     + [f"{metrics[k]:.10g}" for k in METRICS_COLUMNS[1:]])


def select_batch(dataset, cfg: DistillConfig, iteration: int):
    """Stateless batch choice: derived from (seed, iteration) only."""
    rng = np.random.default_rng([cfg.seed, 1000003, iteration])
    n = len(dataset)
    idx = rng.choice(n, size=cfg.batch_size, replace=cfg.batch_size > n)
    return [dataset[i] for i in idx]


@dataclass
class TrainRun:
    student: ModelParams
    backbone: ModelParams
    adam: AdamState
    start_iter: int


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


def _hold_heap() -> None:
    """On glibc, keep up to 256 MiB of freed memory at the heap top and serve
    arrays up to 64 MiB (every desk array) from the heap, so a step reuses what
    the previous one freed. Setting either threshold turns off glibc's dynamic
    ones, so both are set: one alone still faults thousands of pages a step."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt  # the C library the interpreter already runs on
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    mallopt(_M_MMAP_THRESHOLD, 64 << 20)


def init_run(vit_cfg: ViTConfig, adapter_cfg: AdapterConfig, cfg: DistillConfig) -> TrainRun:
    """A run at iteration 0. The one home of the seed rule: the frozen backbone
    is seeded with ``cfg.seed`` and the student with ``cfg.seed + 1``, so a
    checkpoint's template and backbone also come from here.

    Every command and the benchmark's training set-up start here, so this is
    also where the heap is held (:func:`_hold_heap`, glibc only), before the
    first step allocates."""
    _hold_heap()
    try:
        backbone = init_backbone(vit_cfg, seed=cfg.seed)
        student = init_student(vit_cfg, adapter_cfg, seed=cfg.seed + 1)
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"cannot allocate the configured model: {exc}") from exc
    return TrainRun(student=student, backbone=backbone, adam=init_adam(student), start_iter=0)


def run_training(run: TrainRun, dataset, vit_cfg: ViTConfig, adapter_cfg: AdapterConfig,
                 cfg: DistillConfig, on_step) -> None:
    """Advance a run from its ``start_iter`` to ``cfg.total_iters``, handing
    each step's metrics dict to ``on_step`` as the step finishes."""
    teacher_src = make_teacher_source(cfg, vit_cfg, run.backbone)
    cache: dict = {}
    for it in range(run.start_iter, cfg.total_iters):
        batch = select_batch(dataset, cfg, it)
        on_step(train_step(batch, run.student, run.backbone, vit_cfg, adapter_cfg,
                           cfg, run.adam, it, teacher_src=teacher_src, sample_cache=cache))
    run.start_iter = cfg.total_iters
