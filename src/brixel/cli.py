"""Command-line entry point.

Subcommands: ``distill`` (train), ``extract`` (dump teacher features),
``eval`` (fidelity + optional toy probe), ``viz`` (PCA-RGB panels) and
``bench`` (analytic cost table + SVG + local wall-clock).

Exit codes are a stable contract: 0 success, 2 configuration error,
3 IO/data error, 4 numeric failure. All run outputs land under ``--out``
with fixed names (metrics.tsv, config.resolved, checkpoints/, panels/).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .data import load_directory, load_image, synthetic_dataset, two_region_dataset
from .errors import ConfigError, DataIOError, NumericError
from .evalbench import (
    cost_svg,
    cost_table,
    fidelity,
    flop_model,
    linear_probe_eval,
    linear_probe_train,
    pca_rgb,
    upsample_baseline,
)
from .imgio import image_to_rgb8, write_png, write_ppm
from .refiner import student_feature_map, student_forward
from .runconfig import RunConfig
from .tensors import FeatureMap, ImageTensor, save_tensor
from .training import (
    METRICS_COLUMNS,
    TrainRun,
    format_metrics_line,
    init_run,
    load_checkpoint,
    run_training,
    save_checkpoint,
    student_input,
)
from .vit import vit_forward

FIDELITY_HEADER = ("# columns: sample_id\tstudent_l1\tstudent_cosine\tstudent_specgap"
                   "\tbaseline_l1\tbaseline_cosine\tbaseline_specgap")


def _load_dataset(spec: str, resolution: int, seed: int, count: int):
    """The image set. One that numpy cannot hold is a config error, as in :func:`init_run`."""
    try:
        if spec == "synthetic":
            return synthetic_dataset(count, resolution, seed)
        return load_directory(spec, resolution)
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"cannot allocate teacher_resolution={resolution} images: {exc}") from exc


# ---------------------------------------------------------------------------
# distill
# ---------------------------------------------------------------------------

def cmd_distill(args) -> int:
    """Train the run in ``--out`` to ``total_iters``; a fresh run is a resume
    from iteration 0, and ``--resume`` only loads the run from ``--out``'s
    checkpoint instead of initialising it. A refused run writes nothing; a
    run that passes every check keeps the ``metrics.tsv`` rows before its
    start iteration (none for a fresh run) and appends its own."""
    cfg = RunConfig.from_file(args.config)
    dataset = _load_dataset(args.data, cfg.distill.teacher_resolution,
                            cfg.distill.seed, cfg.distill.dataset_size)
    if args.data != "synthetic" and len(dataset) != cfg.distill.dataset_size:
        cfg = cfg.with_distill(dataset_size=len(dataset))

    out = Path(args.out)
    ckpt_dir = out / "checkpoints" / "latest"
    if args.resume:
        saved, run = _load_run(ckpt_dir)
    else:
        saved, run = cfg, init_run(cfg.vit, cfg.adapter, cfg.distill)
    changed = [k for k, v in saved.as_dict().items()
               if k != "total_iters" and cfg.as_dict()[k] != v]
    if changed:
        raise ConfigError(f"--resume may change only total_iters, not {', '.join(changed)}")
    if run.start_iter > cfg.distill.total_iters:
        raise ConfigError(f"checkpoint is at iteration {run.start_iter}, beyond "
                          f"total_iters={cfg.distill.total_iters}")

    kept = _kept_metrics(out / "metrics.tsv", run.start_iter)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.resolved").write_text(cfg.resolved_text())
    with open(out / "metrics.tsv", "w") as log:
        log.write(kept)
        run_training(run, dataset, cfg.vit, cfg.adapter, cfg.distill,
                     lambda row: print(format_metrics_line(row), file=log, flush=True))

    save_checkpoint(ckpt_dir, run.student, run.adam, run.start_iter)
    (ckpt_dir / "config.resolved").write_text(cfg.resolved_text())
    print(f"trained to iteration {run.start_iter}; artifacts in {out}")
    return 0


def _kept_metrics(path: Path, start_iter: int) -> str:
    """The complete rows of iterations before ``start_iter`` in the run's log,
    so rows an interrupted leg logged past its checkpoint are not numbered twice."""
    if start_iter == 0 or not path.exists():
        return ""
    try:
        rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
    except UnicodeDecodeError as exc:
        raise DataIOError(f"run log {path} is not UTF-8 text: {exc}") from exc
    return "".join("\t".join(row) + "\n" for row in rows
                   if len(row) == len(METRICS_COLUMNS) and row[0].isdecimal()
                   and int(row[0]) < start_iter)


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

def cmd_extract(args) -> int:
    cfg = RunConfig.from_file(args.config)
    dataset = _load_dataset(args.data, cfg.distill.teacher_resolution,
                            cfg.distill.seed, cfg.distill.dataset_size)
    backbone = init_run(cfg.vit, cfg.adapter, cfg.distill).backbone
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for sid, img in dataset:
        fm = vit_forward(img, cfg.vit, backbone)
        save_tensor(fm.data, out / f"{sid}.brxt")
    print(f"wrote {len(dataset)} teacher feature maps to {out}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _load_run(ckpt_dir: Path) -> tuple[RunConfig, TrainRun]:
    cfg_path = ckpt_dir / "config.resolved"
    if not cfg_path.exists():
        raise DataIOError(f"no checkpoint at {ckpt_dir}: {cfg_path.name} not found")
    cfg = RunConfig.from_file(cfg_path)
    run = init_run(cfg.vit, cfg.adapter, cfg.distill)
    run.student, run.adam, run.start_iter = load_checkpoint(ckpt_dir, run.student)
    return cfg, run


def _student_and_baseline(img, cfg, student, backbone):
    """Student, bilinear baseline and low-res backbone maps from one backbone pass."""
    low = student_input(img, cfg.distill)
    low_fm = vit_forward(low, cfg.vit, backbone)
    s_fm = FeatureMap(student_forward(low, low_fm, cfg.adapter, student.as_nodes()).value)
    base_fm = upsample_baseline(low_fm, cfg.adapter.upsample_factor)
    return s_fm, base_fm, low_fm


def cmd_eval(args) -> int:
    cfg, run = _load_run(Path(args.checkpoint))
    d = cfg.distill
    dataset = _load_dataset(args.data, d.teacher_resolution, d.seed, d.dataset_size)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    agg = np.zeros(6)
    for sid, img in dataset:
        teacher = vit_forward(img, cfg.vit, run.backbone)
        s_fm, base_fm, _ = _student_and_baseline(img, cfg, run.student, run.backbone)
        scfg = d.spectral_config(*teacher.grid)
        fs = fidelity(s_fm, teacher, scfg)
        fb = fidelity(base_fm, teacher, scfg)
        vals = (fs.l1, fs.cosine, fs.spectrum_gap, fb.l1, fb.cosine, fb.spectrum_gap)
        agg += np.array(vals)
        rows.append(sid + "\t" + "\t".join(f"{v:.6g}" for v in vals))
    agg /= len(dataset)
    rows.append("mean\t" + "\t".join(f"{v:.6g}" for v in agg))
    (out / "fidelity.tsv").write_text(FIDELITY_HEADER + "\n" + "\n".join(rows) + "\n")
    print(f"fidelity over {len(dataset)} samples: student cosine {agg[1]:.4f} "
          f"vs baseline {agg[4]:.4f}")

    if args.probe:
        miou_s, miou_b, acc_s, acc_b = _run_probe(cfg, run.student, run.backbone)
        (out / "probe.tsv").write_text(
            "# columns: features\tmiou\tpixel_accuracy\n"
            f"student\t{miou_s:.6g}\t{acc_s:.6g}\n"
            f"baseline\t{miou_b:.6g}\t{acc_b:.6g}\n")
        print(f"probe mIoU: student {miou_s:.4f} vs baseline {miou_b:.4f}")
    return 0


def _run_probe(cfg, student, backbone):
    d = cfg.distill
    samples = two_region_dataset(12, d.teacher_resolution, d.seed)
    feats_s, feats_b, masks = [], [], []
    for _, img, mask in samples:
        s_fm, base_fm, _ = _student_and_baseline(img, cfg, student, backbone)
        feats_s.append(s_fm)
        feats_b.append(base_fm)
        masks.append(mask)
    half = len(samples) // 2
    probe_s = linear_probe_train(feats_s[:half], masks[:half], classes=2)
    probe_b = linear_probe_train(feats_b[:half], masks[:half], classes=2)
    miou_s, acc_s = linear_probe_eval(feats_s[half:], masks[half:], probe_s)
    miou_b, acc_b = linear_probe_eval(feats_b[half:], masks[half:], probe_b)
    return miou_s, miou_b, acc_s, acc_b


# ---------------------------------------------------------------------------
# viz
# ---------------------------------------------------------------------------

def cmd_viz(args) -> int:
    cfg, run = _load_run(Path(args.checkpoint))
    if cfg.vit.embed_dim < 3:
        raise ConfigError(f"embed_dim={cfg.vit.embed_dim}: PCA-RGB panels need at least 3 "
                          "feature channels")
    d = cfg.distill
    src = Path(args.image)
    if not src.exists():
        raise DataIOError(f"image not found: {src}")
    img = load_image(src, d.teacher_resolution)

    teacher = vit_forward(img, cfg.vit, run.backbone)
    s_fm, base_fm, low_fm = _student_and_baseline(img, cfg, run.student, run.backbone)
    panels = pca_rgb([teacher, low_fm, s_fm], reference=teacher)

    out = Path(args.out) / "panels"
    out.mkdir(parents=True, exist_ok=True)
    stem = src.stem
    named = {
        f"{stem}_input": image_to_rgb8(img),
        f"{stem}_teacher": panels[0],
        f"{stem}_baseline": panels[1],
        f"{stem}_student": panels[2],
    }
    writer, suffix = (write_png, ".png") if args.png else (write_ppm, ".ppm")
    for name, rgb in named.items():
        writer(out / f"{name}{suffix}", rgb)
    print(f"wrote 4 panels to {out} (teacher grid {teacher.grid}, "
          f"baseline grid {low_fm.grid}, student grid {s_fm.grid})")
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _time_forward(fn) -> float:
    fn()  # warm caches once
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def cmd_bench(args) -> int:
    """Price and time one dense map per output grid: the teacher on the
    full input, the student on the input downsampled by the configured
    factor. Each grid must give a student side the config accepts."""
    cfg = RunConfig.from_file(args.config)
    try:
        grids = [int(g) for g in args.sizes.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--sizes must be a comma list of grids, got {args.sizes!r}") from exc
    p, f = cfg.vit.patch_size, cfg.adapter.upsample_factor
    for g in grids:
        if g * g > sys.float_info.max:
            raise ConfigError(f"an output grid of {len(str(g))} digits is too large to price")
        if g < 1 or g * p % f:
            raise ConfigError(f"output grid {g} must be >= 1, and grid*patch_size={g * p} "
                              f"divisible by upsample_factor={f}")
        try:
            cfg.with_distill(student_resolution=g * p // f)
        except ConfigError as exc:
            raise ConfigError(f"output grid {g}: {exc}") from exc

    run = init_run(cfg.vit, cfg.adapter, cfg.distill)
    reports = [flop_model(cfg.vit, cfg.adapter, g * p) for g in grids]
    timings = {}
    rng = np.random.default_rng(cfg.distill.seed)
    for g in grids:
        if g * g > args.max_time_tokens:
            continue  # analytic columns still cover this size
        side = g * p
        hi = ImageTensor(rng.random((3, side, side)).astype(np.float32))
        low = student_input(hi, cfg.distill)
        t_teacher = _time_forward(lambda: vit_forward(hi, cfg.vit, run.backbone))
        t_student = _time_forward(
            lambda: student_feature_map(low, cfg.vit, cfg.adapter, run.backbone, run.student))
        timings[g] = (t_teacher, t_student)

    table, svg = cost_table(reports, timings), cost_svg(reports)
    sys.stdout.write(table)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "cost.tsv").write_text(table)
        (out / "cost.svg").write_text(svg)
        print(f"wrote cost.tsv and cost.svg to {out}")
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="brixel",
        description="Self-distillation of dense backbone features from 4x-downsampled input.")
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("distill", help="train the refiner/head against the frozen teacher")
    d.add_argument("--config", required=True)
    d.add_argument("--data", required=True, help="image directory or 'synthetic'")
    d.add_argument("--out", required=True)
    d.add_argument("--resume", action="store_true")
    d.set_defaults(fn=cmd_distill)

    e = sub.add_parser("extract", help="dump teacher feature maps as .brxt files")
    e.add_argument("--config", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(fn=cmd_extract)

    v = sub.add_parser("eval", help="fidelity report (and optional toy probe)")
    v.add_argument("--checkpoint", required=True)
    v.add_argument("--data", required=True)
    v.add_argument("--out", required=True)
    v.add_argument("--probe", action="store_true")
    v.set_defaults(fn=cmd_eval)

    z = sub.add_parser("viz", help="PCA-RGB panels for one image")
    z.add_argument("--checkpoint", required=True)
    z.add_argument("--image", required=True)
    z.add_argument("--out", required=True)
    z.add_argument("--png", action="store_true")
    z.set_defaults(fn=cmd_viz)

    b = sub.add_parser("bench", help="analytic cost model + local wall-clock")
    b.add_argument("--config", required=True)
    b.add_argument("--sizes", required=True, help="comma list of output grids, e.g. 16,32,64")
    b.add_argument("--out", default="")
    b.add_argument("--max-time-tokens", type=int, default=4096,
                   help="skip wall-clock measurement above this token count")
    b.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataIOError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
