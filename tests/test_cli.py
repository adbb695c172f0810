import ast
import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brixel
from brixel import cli
from brixel.cli import main
from brixel.errors import ConfigError, DataIOError, NumericError
from brixel.data import load_directory
from brixel.imgio import image_to_rgb8, read_ppm, write_ppm
from brixel.tensors import load_tensor, save_tensor

TINY_CONFIG = """\
# desk-mini run
patch_size=8
embed_dim=8
depth=1
heads=2
pyramid_channels=4,4,4
fusion_channels=8
head_blocks=1
student_resolution=32
total_iters=4
batch_size=2
dataset_size=2
pca_k=2
seed=3
"""


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(TINY_CONFIG)
    return p


def read_metrics(out):
    return (out / "metrics.tsv").read_text().strip().splitlines()


# ---------------------------------------------------------------------------
# distill
# ---------------------------------------------------------------------------

def test_distill_synthetic_contract(tmp_path, cfg_file):
    out = tmp_path / "run"
    assert main(["distill", "--config", str(cfg_file), "--data", "synthetic",
                 "--out", str(out)]) == 0
    lines = read_metrics(out)
    assert len(lines) == 4  # one line per iteration, no header
    assert (out / "config.resolved").exists()
    assert (out / "checkpoints" / "latest" / "manifest.txt").exists()
    assert (out / "checkpoints" / "latest" / "config.resolved").exists()
    first = lines[0].split("\t")
    assert first[0] == "0"
    assert float(first[1]) == 0.0  # warmup starts at lr 0


def test_distill_reproducible_bit_identical(tmp_path, cfg_file):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["distill", "--config", str(cfg_file), "--data", "synthetic",
                     "--out", str(out)]) == 0
    assert (out_a / "metrics.tsv").read_bytes() == (out_b / "metrics.tsv").read_bytes()


def test_seed_key_sets_the_run(tmp_path):
    # the config's seed key is the one way to set a run's seed
    out_a, out_b, out_c = tmp_path / "sa", tmp_path / "sb", tmp_path / "sc"
    for out, seed in ((out_a, "21"), (out_b, "21"), (out_c, "22")):
        cfg = tmp_path / f"seed{seed}.cfg"
        cfg.write_text(TINY_CONFIG.replace("seed=3", f"seed={seed}"))
        assert main(["distill", "--config", str(cfg), "--data", "synthetic",
                     "--out", str(out)]) == 0
    assert (out_a / "metrics.tsv").read_bytes() == (out_b / "metrics.tsv").read_bytes()
    assert (out_a / "metrics.tsv").read_bytes() != (out_c / "metrics.tsv").read_bytes()
    assert "seed=21" in (out_a / "config.resolved").read_text()


def test_fresh_distill_into_used_out_starts_metrics_afresh(tmp_path, cfg_file):
    once, twice = tmp_path / "once", tmp_path / "twice"
    for out in (once, twice, twice):
        assert main(["distill", "--config", str(cfg_file), "--data", "synthetic",
                     "--out", str(out)]) == 0
    assert (twice / "metrics.tsv").read_bytes() == (once / "metrics.tsv").read_bytes()


def test_unknown_config_key_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CONFIG + "foo=1\n")
    code = main(["distill", "--config", str(bad), "--data", "synthetic",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "foo" in capsys.readouterr().err


def test_student_resolution_off_the_adapter_grid_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CONFIG.replace("student_resolution=32", "student_resolution=24"))
    code = main(["distill", "--config", str(bad), "--data", "synthetic",
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "student_resolution" in err
    assert "Traceback" not in err


def test_pyramid_off_the_backbone_grid_exit_2(tmp_path, capsys):
    # both sides are multiples of 16 and 12, but the 6x6 stride-8 level cannot
    # be pooled or repeated onto the 4x4 backbone grid
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CONFIG.replace("patch_size=8", "patch_size=12")
                   .replace("student_resolution=32", "student_resolution=48"))
    code = main(["distill", "--config", str(bad), "--data", "synthetic",
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "pyramid" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("line", ["eps_log=0", "lambda_edge=-1", "lambda_spectral=-1",
                                  "r0=100", "pca_k=40", "heads=0", "heads=-2",
                                  "mlp_ratio=-1", "warmup_epochs=nan", "seed=-1",
                                  "upsample_factor=2", "downsample_factor=2",
                                  "grad_clip=nan", "lr=nan", "r0=-5",
                                  # teacher grids of 2x2, under the 3x3 Sobel window
                                  "student_resolution=16\nupsample_factor=1\ndownsample_factor=1",
                                  "patch_size=16\nstudent_resolution=16\nupsample_factor=2\n"
                                  "downsample_factor=2",
                                  "pyramid_channels=4,4,-1", "fusion_channels=-2",
                                  "pyramid_channels=0,4,4", "fusion_channels=0",
                                  # 100 PCA components from the 64 tokens of one 8x8 grid
                                  "embed_dim=128\nheads=2\nstudent_resolution=16\n"
                                  "batch_size=1\ndataset_size=1\npca_k=100",
                                  # finite values whose products overflow: the MLP width
                                  # and the warmup over 2 iterations per epoch
                                  "mlp_ratio=1e308", "warmup_epochs=1e308\ndataset_size=4",
                                  # iterations per epoch overflow a float
                                  pytest.param("dataset_size=1" + "0" * 400,
                                               id="dataset_size=10**400"),
                                  "teacher_source=carrier-pigeon",
                                  # models numpy refuses before allocating anything
                                  "mlp_ratio=1e300", f"embed_dim={2 ** 62}"])
def test_config_failing_at_step_0_exit_2(tmp_path, capsys, line):
    # each value parses, but the first training step would reject it
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CONFIG + line + "\n")
    out = tmp_path / "o"
    code = main(["distill", "--config", str(bad), "--data", "synthetic", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and "Traceback" not in err
    assert not out.exists()


def test_unreadable_data_exit_3(tmp_path, cfg_file):
    code = main(["distill", "--config", str(cfg_file), "--data",
                 str(tmp_path / "missing"), "--out", str(tmp_path / "o")])
    assert code == 3


@st.composite
def _ppm_files(draw):
    """Bytes of one .ppm file: a valid P6 image or one of the ways a file can
    fail to be one."""
    w, h = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    comment = b"# scanned\n" if draw(st.booleans()) else b""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    payload = rng.integers(0, 256, w * h * 3, dtype=np.uint8).tobytes()
    header = b"P6\n" + comment + f"{w} {h}\n".encode()
    kind = draw(st.sampled_from(["valid", "truncated", "magic", "maxval", "zero_width",
                                 "non_digit", "garbage"]))
    if kind == "truncated":
        return header + b"255\n" + payload[:draw(st.integers(0, len(payload) - 1))]
    if kind == "magic":
        return b"P3" + header[2:] + b"255\n" + payload
    if kind == "maxval":
        return header + b"65535\n" + payload + payload
    if kind == "zero_width":
        return f"P6\n0 {h}\n255\n".encode() + payload
    if kind == "non_digit":
        return f"P6\n{w}px {h}\n255\n".encode() + payload
    if kind == "garbage":
        return draw(st.binary(max_size=64))
    return header + b"255\n" + payload


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(_ppm_files(), min_size=1, max_size=3))
def test_any_image_directory_trains_or_exits_3(files):
    # a directory of valid and damaged files trains or is refused as data,
    # and a refused run leaves no --out behind
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        data, out, cfg = root / "data", root / "out", root / "run.cfg"
        data.mkdir()
        for i, raw in enumerate(files):
            (data / f"img{i}.ppm").write_bytes(raw)
        cfg.write_text(TINY_CONFIG.replace("total_iters=4", "total_iters=1"))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["distill", "--config", str(cfg), "--data", str(data),
                         "--out", str(out)])
        assert code in (0, 3) and "Traceback" not in err.getvalue(), err.getvalue()
        assert code == 0 or not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_blowup_exit_4(tmp_path):
    cfg = tmp_path / "hot.cfg"
    cfg.write_text(TINY_CONFIG.replace("total_iters=4", "total_iters=4") + "lr=1e30\n")
    code = main(["distill", "--config", str(cfg), "--data", "synthetic",
                 "--out", str(tmp_path / "o")])
    assert code == 4


def test_resume_continues_numbering(tmp_path, cfg_file):
    full, paused = tmp_path / "full", tmp_path / "paused"
    cfg8 = tmp_path / "run8.cfg"
    cfg8.write_text(TINY_CONFIG.replace("total_iters=4", "total_iters=8"))

    assert main(["distill", "--config", str(cfg8), "--data", "synthetic",
                 "--out", str(full)]) == 0
    assert main(["distill", "--config", str(cfg_file), "--data", "synthetic",
                 "--out", str(paused)]) == 0
    assert main(["distill", "--config", str(cfg8), "--data", "synthetic",
                 "--out", str(paused), "--resume"]) == 0

    full_lines = read_metrics(full)
    paused_lines = read_metrics(paused)
    assert [l.split("\t")[0] for l in paused_lines] == [str(i) for i in range(8)]
    for a, b in zip(full_lines, paused_lines):
        fa, fb = a.split("\t"), b.split("\t")
        assert fa[0] == fb[0]
        assert float(fa[5]) == pytest.approx(float(fb[5]), abs=1e-6)  # total column


def test_resume_with_changed_experiment_exit_2(tmp_path, cfg_file, capsys):
    out = tmp_path / "run"
    assert main(["distill", "--config", str(cfg_file), "--data", "synthetic",
                 "--out", str(out)]) == 0
    saved = (out / "checkpoints" / "latest" / "config.resolved").read_bytes()
    hot = tmp_path / "hot.cfg"
    hot.write_text(TINY_CONFIG.replace("total_iters=4", "total_iters=8") + "lr=5\n")
    code = main(["distill", "--config", str(hot), "--data", "synthetic",
                 "--out", str(out), "--resume"])
    assert code == 2
    assert "lr" in capsys.readouterr().err
    assert (out / "checkpoints" / "latest" / "config.resolved").read_bytes() == saved
    assert len(read_metrics(out)) == 4


def test_refused_resume_writes_nothing(tmp_path, cfg_file, capsys):
    out = tmp_path / "run"
    assert main(["distill", "--config", str(cfg_file), "--data", "synthetic",
                 "--out", str(out)]) == 0
    before = [(out / name).read_bytes() for name in ("config.resolved", "metrics.tsv")]
    short = tmp_path / "short.cfg"
    short.write_text(TINY_CONFIG.replace("total_iters=4", "total_iters=1"))
    code = main(["distill", "--config", str(short), "--data", "synthetic",
                 "--out", str(out), "--resume"])
    assert code == 2
    assert "beyond total_iters=1" in capsys.readouterr().err
    assert [(out / name).read_bytes() for name in ("config.resolved", "metrics.tsv")] == before


def test_refused_fresh_run_into_used_out_writes_nothing(tmp_path, cfg_file, capsys):
    out = tmp_path / "run"
    assert main(["distill", "--config", str(cfg_file), "--data", "synthetic",
                 "--out", str(out)]) == 0
    before = [(out / name).read_bytes() for name in ("config.resolved", "metrics.tsv")]
    pigeon = tmp_path / "pigeon.cfg"
    pigeon.write_text(TINY_CONFIG + "teacher_source=carrier-pigeon\n")
    code = main(["distill", "--config", str(pigeon), "--data", "synthetic", "--out", str(out)])
    assert code == 2
    assert "carrier-pigeon" in capsys.readouterr().err
    assert [(out / name).read_bytes() for name in ("config.resolved", "metrics.tsv")] == before


def test_resume_drops_metrics_rows_past_the_checkpoint(tmp_path, cfg_file):
    """Rows an interrupted leg logged after its checkpoint are replaced, not
    repeated: every iteration appears exactly once."""
    out = tmp_path / "run"
    cfg2 = tmp_path / "run2.cfg"
    cfg2.write_text(TINY_CONFIG.replace("total_iters=4", "total_iters=2"))
    assert main(["distill", "--config", str(cfg2), "--data", "synthetic",
                 "--out", str(out)]) == 0
    with open(out / "metrics.tsv", "a") as log:
        log.write("2\t0.001\t1\t1\t1\t1\t1\n3\t0.001\t1\t1\t1\t1\t1\n")
    assert main(["distill", "--config", str(cfg_file), "--data", "synthetic",
                 "--out", str(out), "--resume"]) == 0
    lines = read_metrics(out)
    assert [line.split("\t")[0] for line in lines] == ["0", "1", "2", "3"]
    assert all(line.split("\t")[2] != "1" for line in lines)


def test_resume_without_checkpoint_exit_3(tmp_path, cfg_file):
    code = main(["distill", "--config", str(cfg_file), "--data", "synthetic",
                 "--out", str(tmp_path / "fresh"), "--resume"])
    assert code == 3


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

def test_extract_roundtrip_matches_live_first_step(tmp_path, cfg_file):
    feats = tmp_path / "feats"
    assert main(["extract", "--config", str(cfg_file), "--data", "synthetic",
                 "--out", str(feats)]) == 0
    dumped = sorted(feats.glob("*.brxt"))
    assert len(dumped) == 2
    assert load_tensor(dumped[0]).shape == (8, 16, 16)

    live_out = tmp_path / "live"
    file_out = tmp_path / "filetea"
    assert main(["distill", "--config", str(cfg_file), "--data", "synthetic",
                 "--out", str(live_out)]) == 0
    file_cfg = tmp_path / "file.cfg"
    file_cfg.write_text(TINY_CONFIG + f"teacher_source=file:{feats}\n")
    assert main(["distill", "--config", str(file_cfg), "--data", "synthetic",
                 "--out", str(file_out)]) == 0
    a = read_metrics(live_out)[0].split("\t")
    b = read_metrics(file_out)[0].split("\t")
    for col in range(1, 7):
        assert float(a[col]) == pytest.approx(float(b[col]), abs=1e-6)


def test_file_teacher_shape_mismatch_exit_2(tmp_path, cfg_file, capsys):
    feats = tmp_path / "feats"
    assert main(["extract", "--config", str(cfg_file), "--data", "synthetic",
                 "--out", str(feats)]) == 0
    narrow = tmp_path / "narrow.cfg"
    narrow.write_text(TINY_CONFIG.replace("embed_dim=8", "embed_dim=4")
                      + f"teacher_source=file:{feats}\n")
    code = main(["distill", "--config", str(narrow), "--data", "synthetic",
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "shape" in err
    assert "Traceback" not in err


def test_file_teacher_dtype_mismatch_exit_2(tmp_path, cfg_file, capsys):
    feats = tmp_path / "feats"
    assert main(["extract", "--config", str(cfg_file), "--data", "synthetic",
                 "--out", str(feats)]) == 0
    for path in feats.glob("*.brxt"):
        save_tensor(load_tensor(path).astype(np.float64), path)
    file_cfg = tmp_path / "file.cfg"
    file_cfg.write_text(TINY_CONFIG + f"teacher_source=file:{feats}\n")
    code = main(["distill", "--config", str(file_cfg), "--data", "synthetic",
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: teacher file") and str(feats) in err
    assert "float64" in err and "float32" in err and "Traceback" not in err


def test_extract_empty_dir_exit_3(tmp_path, cfg_file):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["extract", "--config", str(cfg_file), "--data", str(empty),
                 "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("command, line", [
    ("extract", f"embed_dim={2 ** 62}"),
    ("bench", "mlp_ratio=1e300"),
])
def test_unallocatable_model_exit_2_writes_nothing(tmp_path, capsys, command, line):
    bad = tmp_path / "big.cfg"
    bad.write_text(TINY_CONFIG + line + "\n")
    out = tmp_path / "o"
    data = ["--data", "synthetic"] if command == "extract" else ["--sizes", "8,16"]
    assert main([command, "--config", str(bad), *data, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot allocate") and "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# eval / viz
# ---------------------------------------------------------------------------

@pytest.fixture
def trained(tmp_path, cfg_file):
    out = tmp_path / "trained"
    assert main(["distill", "--config", str(cfg_file), "--data", "synthetic",
                 "--out", str(out)]) == 0
    return out


def test_eval_writes_documented_report(tmp_path, trained):
    out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(trained / "checkpoints" / "latest"),
                 "--data", "synthetic", "--out", str(out)]) == 0
    lines = (out / "fidelity.tsv").read_text().splitlines()
    assert lines[0].startswith("# columns:")
    assert lines[-1].startswith("mean\t")
    assert len(lines) == 1 + 2 + 1  # header + 2 samples + aggregate


def test_eval_missing_checkpoint_exit_3(tmp_path):
    assert main(["eval", "--checkpoint", str(tmp_path / "nope"), "--data",
                 "synthetic", "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("state", ["iter\t4\n", "iter\t4\nadam_t\n"])
def test_damaged_checkpoint_state_exit_3(tmp_path, cfg_file, trained, capsys, state):
    ckpt = trained / "checkpoints" / "latest"
    (ckpt / "state.txt").write_text(state)
    resume = main(["distill", "--config", str(cfg_file), "--data", "synthetic",
                   "--out", str(trained), "--resume"])
    evaluated = main(["eval", "--checkpoint", str(ckpt), "--data", "synthetic",
                      "--out", str(tmp_path / "eval")])
    err = capsys.readouterr().err
    assert (resume, evaluated) == (3, 3)
    assert err.count("io error:") == 2 and "state.txt" in err and "Traceback" not in err


@pytest.mark.parametrize("damage", ["adam_m_shape", "param_dtype"])
def test_mismatched_checkpoint_tensor_exit_3(tmp_path, cfg_file, trained, capsys, damage):
    ckpt = trained / "checkpoints" / "latest"
    if damage == "adam_m_shape":
        path = ckpt / "adam" / "m" / "head.out.w.brxt"
        save_tensor(np.zeros(3, dtype=np.float32), path)
    else:
        path = ckpt / "params" / "head.out.w.brxt"
        save_tensor(load_tensor(path).astype(np.float64), path)
    cfg6 = tmp_path / "run6.cfg"
    cfg6.write_text(TINY_CONFIG.replace("total_iters=4", "total_iters=6"))
    resume = main(["distill", "--config", str(cfg6), "--data", "synthetic",
                   "--out", str(trained), "--resume"])
    evaluated = main(["eval", "--checkpoint", str(ckpt), "--data", "synthetic",
                      "--out", str(tmp_path / "eval")])
    err = capsys.readouterr().err
    assert (resume, evaluated) == (3, 3)
    assert err.count("io error:") == 2 and str(path) in err and "Traceback" not in err


def test_viz_panels_follow_4x_protocol(tmp_path, trained):
    rng = np.random.default_rng(0)
    img = tmp_path / "photo.ppm"
    write_ppm(img, rng.integers(0, 256, size=(40, 50, 3), dtype=np.uint8))
    out = tmp_path / "viz"
    assert main(["viz", "--checkpoint", str(trained / "checkpoints" / "latest"),
                 "--image", str(img), "--out", str(out)]) == 0
    panels = out / "panels"
    input_img = read_ppm(panels / "photo_input.ppm")
    teacher = read_ppm(panels / "photo_teacher.ppm")
    baseline = read_ppm(panels / "photo_baseline.ppm")
    student = read_ppm(panels / "photo_student.ppm")
    assert input_img.data.shape == (3, 128, 128)   # teacher resolution
    assert teacher.data.shape == (3, 16, 16)       # 128 / p
    assert student.data.shape == (3, 16, 16)       # same grid as teacher
    assert baseline.data.shape == (3, 4, 4)        # quarter grid (4x protocol)


def test_viz_input_panel_matches_directory_loader(tmp_path, trained):
    rng = np.random.default_rng(2)
    data = tmp_path / "data"
    data.mkdir()
    write_ppm(data / "wide.ppm", rng.integers(0, 256, size=(40, 50, 3), dtype=np.uint8))
    out = tmp_path / "viz"
    assert main(["viz", "--checkpoint", str(trained / "checkpoints" / "latest"),
                 "--image", str(data / "wide.ppm"), "--out", str(out)]) == 0
    (sid, img), = load_directory(data, 128)  # the run's teacher resolution
    assert sid == "wide"
    write_ppm(tmp_path / "expected.ppm", image_to_rgb8(img))
    assert ((out / "panels" / "wide_input.ppm").read_bytes()
            == (tmp_path / "expected.ppm").read_bytes())


def test_viz_deterministic_bytes_and_png(tmp_path, trained):
    rng = np.random.default_rng(1)
    img = tmp_path / "pic.ppm"
    write_ppm(img, rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8))
    ck = str(trained / "checkpoints" / "latest")
    out_a, out_b = tmp_path / "va", tmp_path / "vb"
    for out in (out_a, out_b):
        assert main(["viz", "--checkpoint", ck, "--image", str(img),
                     "--out", str(out)]) == 0
    pa = (out_a / "panels" / "pic_student.ppm").read_bytes()
    pb = (out_b / "panels" / "pic_student.ppm").read_bytes()
    assert pa == pb

    assert main(["viz", "--checkpoint", ck, "--image", str(img),
                 "--out", str(tmp_path / "vp"), "--png"]) == 0
    assert (tmp_path / "vp" / "panels" / "pic_student.png").exists()


def test_viz_embed_dim_below_3_exit_2(tmp_path, capsys):
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text(TINY_CONFIG.replace("embed_dim=8", "embed_dim=2"))
    run = tmp_path / "narrow"
    assert main(["distill", "--config", str(cfg), "--data", "synthetic",
                 "--out", str(run)]) == 0
    img = tmp_path / "pic.ppm"
    write_ppm(img, np.zeros((32, 32, 3), dtype=np.uint8))
    capsys.readouterr()
    code = main(["viz", "--checkpoint", str(run / "checkpoints" / "latest"),
                 "--image", str(img), "--out", str(tmp_path / "viz")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and "embed_dim" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_table_contract(tmp_path, cfg_file, capsys):
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(cfg_file), "--sizes", "16,32,64",
                 "--out", str(out), "--max-time-tokens", "256"]) == 0
    table = (out / "cost.tsv").read_text().strip().splitlines()
    assert len(table) == 2 + 3  # note + header + one row per requested size
    rows = [line.split("\t") for line in table[2:]]
    teacher = [int(r[1]) for r in rows]
    ratios = [float(r[3]) for r in rows]
    assert teacher == sorted(teacher) and teacher[0] < teacher[-1]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert (out / "cost.svg").exists()
    assert capsys.readouterr().out.startswith("# FLOP convention")


@pytest.mark.parametrize("size", ["15", "4", "0", "-4"])
def test_bench_rejects_bad_grid(tmp_path, cfg_file, capsys, size):
    assert main(["bench", "--config", str(cfg_file), "--sizes", size]) == 2
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("exc, code, prefix", [
    (ConfigError("bad key"), 2, "config error:"),
    (DataIOError("bad file"), 3, "io error:"),
    (OSError("disk full"), 3, "io error:"),
    (NumericError("nan loss"), 4, "numeric failure:"),
])
def test_main_maps_each_error_class_to_one_exit_code(monkeypatch, capsys, exc, code, prefix):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_bench", fail)
    assert main(["bench", "--config", "unused.cfg", "--sizes", "8"]) == code
    assert capsys.readouterr().err == f"{prefix} {exc}\n"


def test_main_lets_other_exceptions_propagate(monkeypatch):
    def fail(args):
        raise RuntimeError("a bug, not a refusal")

    monkeypatch.setattr(cli, "cmd_bench", fail)
    with pytest.raises(RuntimeError, match="a bug"):
        main(["bench", "--config", "unused.cfg", "--sizes", "8"])


def test_only_the_errors_module_defines_exception_classes():
    # cli.main maps each class in brixel.errors to one exit code; a class
    # defined elsewhere would reach the user as a traceback or a second
    # name for an existing code
    defined = []
    for path in sorted(Path(brixel.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(base).endswith(("Error", "Exception", "Warning"))
                    for base in node.bases):
                defined.append(f"{path.name}: {node.name}")
    assert defined == []
