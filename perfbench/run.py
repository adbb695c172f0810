"""brixel benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload train_cached --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports brixel from ``src/``
and nothing else. Workloads (see ``workloads.py``):

* ``train_cached``: the overfit loop, dataset 8 = batch 8, so the per-sample
  teacher cache hits on every timed step.
* ``train_stream``: the same loop on 8 never-seen images per step, so the
  cache never hits and the 256x256 teacher forward dominates.
* ``eval_dir``: the forward-only ``brixel eval`` pipeline over a directory
  of PPM files and a restored checkpoint.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run (``tracer.py``). The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with the run manifest, the loss-trace hash and the check results.
Spans and the report are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# The single-threaded contract of the package: pin BLAS before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# The autodiff ops reported by name; every other op is summed into "other".
NAMED_OPS = ("conv2d", "matmul", "gelu", "softmax", "layer_norm", "pad2d", "pixel_shuffle",
             "transpose")
GEMM_OPS = ("conv2d", "matmul")
# Spans of the timed loop, reported as self time per unit (step or image).
LOOP_LAYERS = (
    "bench.step", "training.train_step", "vit.teacher_features", "vit.vit_forward",
    "tensors.resize_bilinear", "losses.fit_pca", "refiner.student_feature_map",
    "refiner.student_forward", "refiner.adapter_forward", "refiner.head_forward",
    "losses.loss_breakdown", "losses.l1_loss", "losses.edge_loss", "losses.spectral_loss",
    "autodiff.Tape.backward", "training.clip_gradients", "training.adam_step",
    "data.synthetic_image", "evalbench.upsample_baseline", "evalbench.fidelity",
)
# Spans that only occur while setting up, reported per set-up.
SETUP_LAYERS = ("data.load_directory", "imgio.write_ppm", "training.save_checkpoint",
                "training.load_checkpoint")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train_cached", "train_stream", "eval_dir"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("desk", "toy"), default="desk",
                   help="toy: a tiny model for the smoke test")
    return p.parse_args(argv)


def import_brixel():
    """Import brixel from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "brixel" / "__init__.py").is_file():
        sys.exit(f"perfbench: no brixel sources under {src}")
    sys.path.insert(0, str(src))
    import brixel

    if Path(brixel.__file__).resolve().parent != (src / "brixel").resolve():
        sys.exit(f"perfbench: imported brixel from {brixel.__file__}, not from {src}")
    return brixel


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def manifest(args, sizes, outcome, np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "BRIXEL_THREADS": os.environ.get("BRIXEL_THREADS", ""), "nproc": os.cpu_count(),
        "git_commit": git_commit(), "workload": args.workload, "seed": args.seed,
        "size": args.size, "config_sha256": sizes.config_sha256(),
        "backbone_sha256": outcome.backbone_sha256,
    }


def sgemm_gflops(np) -> float:
    """Single-thread f32 GEMM ceiling at 512x512, median of 20 timed calls."""
    rng = np.random.default_rng(0)
    a, b = (rng.standard_normal((512, 512), dtype=np.float32) for _ in range(2))
    a @ b
    times = []
    for _ in range(20):
        start = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - start)
    return 2 * 512 ** 3 / statistics.median(times) / 1e9


def end_to_end(outcome) -> dict:
    ms = [t * 1e3 for t in outcome.unit_s]
    return {
        "setup_s": (statistics.median(outcome.setup_s), "s"),
        "step_ms_p50": (statistics.median(ms), "ms"),
        "step_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "images_per_s": (outcome.images / outcome.loop_cpu_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "loss_vs_baseline": (outcome.loss_vs_baseline, "ratio"),
        "cosine_mean": (outcome.cosine_mean, "1"),
    }


def per_layer(outcome, sizes, np) -> tuple[dict, dict]:
    """Per-layer metrics, plus extra figures that go to the report only."""
    import tracer
    from brixel import evalbench

    loop, setup = outcome.loop_stats, outcome.setup_stats
    units = loop["calls"]["bench.step"]
    reps = len(outcome.setup_s)
    m = {}
    for name in LOOP_LAYERS:
        m[f"{name}.ms"] = (loop["self_s"].get(name, 0.0) * 1e3 / units, "ms")
        m[f"{name}.calls"] = (loop["calls"].get(name, 0) / units, "count")
    for name in SETUP_LAYERS:
        m[f"{name}.ms"] = (setup["self_s"].get(name, 0.0) * 1e3 / reps, "ms")
        m[f"{name}.calls"] = (setup["calls"].get(name, 0) / reps, "count")

    groups = {op: tracer.OpStats() for op in NAMED_OPS + ("other",)}
    for op, st in loop["ops"].items():
        groups[op if op in groups else "other"].add(st)
    ceiling = sgemm_gflops(np)
    peak_frac = {}
    for op, g in groups.items():
        m[f"autodiff.{op}.fwd_ms"] = (g.fwd_s * 1e3 / units, "ms")
        m[f"autodiff.{op}.bwd_ms"] = (g.bwd_s * 1e3 / units, "ms")
        m[f"autodiff.{op}.calls"] = (g.fwd_calls / units, "count")
        if op in GEMM_OPS:
            busy = g.fwd_s + g.bwd_s
            rate = 2 * (g.fwd_macs + g.bwd_macs) / busy / 1e9 if busy else 0.0
            m[f"autodiff.{op}.gflops"] = (rate, "GFLOP/s")
            peak_frac[op] = rate / ceiling
    m["autodiff.tape_nodes"] = (loop["tape_nodes"] / units, "count")

    cost = evalbench.flop_model(sizes.vit, sizes.adapter, sizes.distill.teacher_resolution)
    # the teacher runs in set-up only on train_cached; rate it where it ran
    teach = loop if loop["calls"].get("vit.teacher_features") else setup
    t_calls = teach["calls"].get("vit.teacher_features", 0)
    t_s = teach["self_s"].get("vit.teacher_features", 0.0)
    m["vit.teacher.gflops"] = (2 * cost.macs_teacher * t_calls / t_s / 1e9 if t_s else 0.0,
                               "GFLOP/s")
    r_calls = loop["calls"].get("refiner.head_forward", 0)
    r_s = sum(loop["self_s"].get(f"refiner.{k}", 0.0) for k in ("adapter_forward", "head_forward"))
    r_macs = cost.macs_student_adapter + cost.macs_student_head
    m["refiner.gflops"] = (2 * r_macs * r_calls / r_s / 1e9 if r_s else 0.0, "GFLOP/s")
    m["sgemm.gflops"] = (ceiling, "GFLOP/s")
    peak_frac["teacher"] = m["vit.teacher.gflops"][0] / ceiling
    peak_frac["refiner"] = m["refiner.gflops"][0] / ceiling

    lookups = outcome.cache_lookups
    m["training.cache_hit_ratio"] = (outcome.cache_hits / lookups if lookups else 0.0, "ratio")
    steps = len(outcome.unit_s) + len(outcome.traced_unit_s)
    m["training.clip_frac"] = (outcome.clipped_steps / steps, "ratio")
    m["losses.pca_degenerate"] = (outcome.pca_degenerate, "count")

    root_s = loop["self_s"].get("bench.step", 0.0)
    step_s = sum(loop["self_s"].values())  # self times of a tree sum to its root
    m["trace.step_ms"] = (step_s * 1e3 / units, "ms")
    m["trace.attributed_frac"] = (1.0 - root_s / step_s, "ratio")
    traced = statistics.median(outcome.traced_unit_s) * 1e3
    untraced = statistics.median(outcome.unit_s) * 1e3
    m["trace.overhead_ms"] = (traced - untraced, "ms")
    extra = {"gemm_share_of_sgemm_ceiling": peak_frac,
             "trace_overhead_frac": (traced - untraced) / untraced,
             "flops_note": "FLOPs computed from shapes and evalbench.flop_model, "
                           + evalbench.FLOP_NOTE}
    return m, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    # the directory loader's decode threads stay within the cores there are
    nproc = os.cpu_count() or 1
    threads = os.environ.get("BRIXEL_THREADS", "")
    if threads.isdigit() and int(threads) > nproc:
        os.environ["BRIXEL_THREADS"] = str(nproc)
    import_brixel()
    import numpy as np

    import tracer
    import workloads

    sizes = workloads.TOY if args.size == "toy" else workloads.DESK
    out_dir = BENCH_DIR / "out" / f"{args.workload}-{args.size}-s{args.seed}-t{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    tr = tracer.Tracer()
    ctx = workloads.Context(sizes=sizes, seed=args.seed, seconds=args.seconds,
                            trace=bool(args.trace), tracer=tr, out_dir=out_dir)
    outcome = workloads.WORKLOADS[args.workload](ctx)

    if args.trace:
        metrics, extra = per_layer(outcome, sizes, np)
        tr.write_spans(out_dir / "spans.tsv")
        extra["spans"] = str((out_dir / "spans.tsv").relative_to(ROOT))
    else:
        metrics, extra = end_to_end(outcome), {}
    correct = outcome.failed == 0 and all(
        isinstance(v, (int, float)) and np.isfinite(v) for v, _ in metrics.values())
    report = {
        "manifest": manifest(args, sizes, outcome, np),
        "loss_trace_sha256": outcome.loss_trace_sha256,
        "train_loss": outcome.train_loss,
        "checks": outcome.checks,
        "samples": {"untraced_units": len(outcome.unit_s),
                    "traced_units": len(outcome.traced_unit_s),
                    "setup_reps": len(outcome.setup_s), "images": outcome.images},
        "other_warnings": sorted(set(outcome.other_warnings)),
        **extra,
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps({
        "correct": bool(correct), "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
