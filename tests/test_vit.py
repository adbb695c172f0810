import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import brixel
from brixel import autodiff as ad
from brixel.errors import DataIOError
from brixel.params import ModelParams
from brixel.tensors import F32, ImageTensor, save_tensor
from brixel.vit import (
    FileTeacher,
    LiveTeacher,
    ViTConfig,
    init_backbone,
    interpolate_pos_embed,
    teacher_features,
    vit_forward,
)
from oracles import autodiff_vit_tokens, float64_vit_tokens


def rand_image(rng, h, w):
    return ImageTensor(rng.random((3, h, w)).astype(F32))


TINY = ViTConfig(patch_size=8, embed_dim=16, depth=1, heads=2)
EMBED_ONLY16 = ViTConfig(patch_size=16, embed_dim=8, depth=0, heads=1)


def test_config_validation():
    with pytest.raises(ValueError):
        ViTConfig(embed_dim=30, heads=4)


def test_grid_shape_64px():
    w = init_backbone(TINY, seed=0)
    fm = vit_forward(rand_image(np.random.default_rng(0), 64, 64), TINY, w)
    assert fm.data.shape == (16, 8, 8)
    assert fm.tokens().shape == (64, 16)


def test_grid_shape_high_resolution():
    # 256 px -> 16x16 tokens; 1024 px -> 64x64 tokens (4096) at patch size 16
    w = init_backbone(EMBED_ONLY16, seed=0)
    rng = np.random.default_rng(1)
    assert vit_forward(rand_image(rng, 256, 256), EMBED_ONLY16, w).grid == (16, 16)
    fm = vit_forward(rand_image(rng, 1024, 1024), EMBED_ONLY16, w)
    assert fm.grid == (64, 64)
    assert fm.tokens().shape[0] == 4096


def test_indivisible_sides_rejected():
    w = init_backbone(TINY, seed=0)
    with pytest.raises(ValueError):
        vit_forward(rand_image(np.random.default_rng(0), 60, 64), TINY, w)


def test_weight_config_mismatch_rejected():
    w = init_backbone(TINY, seed=0)
    other = ViTConfig(patch_size=8, embed_dim=32, depth=1, heads=2)
    with pytest.raises(ValueError):
        vit_forward(rand_image(np.random.default_rng(0), 64, 64), other, w)


def test_patch_permutation_moves_exactly_those_tokens():
    cfg = ViTConfig(patch_size=8, embed_dim=8, depth=0, heads=1)
    w = init_backbone(cfg, seed=3)
    rng = np.random.default_rng(5)
    img = rng.random((3, 32, 32)).astype(F32)
    swapped = img.copy()
    # swap patch (0,1) with patch (2,3) as pixel tiles
    a = (slice(None), slice(0, 8), slice(8, 16))
    b = (slice(None), slice(16, 24), slice(24, 32))
    swapped[a], swapped[b] = img[b].copy(), img[a].copy()

    t0 = vit_forward(ImageTensor(img), cfg, w).tokens()
    t1 = vit_forward(ImageTensor(swapped), cfg, w).tokens()
    ia, ib = 0 * 4 + 1, 2 * 4 + 3
    assert np.array_equal(t1[ia], t0[ib])
    assert np.array_equal(t1[ib], t0[ia])
    rest = [i for i in range(16) if i not in (ia, ib)]
    assert np.array_equal(t1[rest], t0[rest])


def test_init_deterministic_and_seed_sensitive():
    a = init_backbone(TINY, seed=7)
    b = init_backbone(TINY, seed=7)
    c = init_backbone(TINY, seed=8)
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()
    assert not a.trainable


def test_forward_reproducible_and_shared_code_path():
    w = init_backbone(TINY, seed=11)
    img = rand_image(np.random.default_rng(2), 64, 64)
    f1 = vit_forward(img, TINY, w)
    f2 = vit_forward(img, TINY, w)
    assert f1.data.tobytes() == f2.data.tobytes()


DESK = ViTConfig()


@pytest.mark.parametrize("cfg,h,w", [
    (DESK, 64, 64),
    (DESK, 256, 256),
    (TINY, 64, 64),
    (EMBED_ONLY16, 64, 64),
    (DESK, 64, 128),
], ids=["desk-64", "desk-256", "tiny", "depth0", "desk-64x128"])
def test_forward_bits_match_autodiff_oracle(cfg, h, w):
    weights = init_backbone(cfg, seed=5)
    img = rand_image(np.random.default_rng(h + w), h, w)
    tokens = vit_forward(img, cfg, weights).tokens()
    assert np.array_equal(tokens, autodiff_vit_tokens(img, cfg, weights))



@pytest.mark.parametrize("gh,gw", [(20, 25), (16, 32), (32, 33), (34, 34)],
                         ids=["500", "512", "1056", "1156"])
def test_blocked_attention_matches_oracle_on_ragged_token_counts(gh, gw):
    # one block below 512 tokens, two even blocks at 512, and a last block
    # that takes a remainder (32 and 132 rows) at 1056 and 1156 tokens
    weights = init_backbone(DESK, seed=5)
    img = rand_image(np.random.default_rng(gh * gw), 8 * gh, 8 * gw)
    tokens = vit_forward(img, DESK, weights).tokens()
    assert np.array_equal(tokens, autodiff_vit_tokens(img, DESK, weights))


@pytest.mark.parametrize("threads", ["1", "2"])
def test_oracle_bit_equality_holds_on_one_and_two_blas_threads(threads):
    # the bits of the [v | 1] product must not depend on how OpenBLAS splits
    # it; a denominator taken as scores @ ones (sgemv) matched the oracle on
    # one thread and not at 1156 tokens on two
    cases = [f"{__file__}::{name}" for name in (
        "test_forward_bits_match_autodiff_oracle",
        "test_blocked_attention_matches_oracle_on_ragged_token_counts")]
    src_dir = str(Path(brixel.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *cases],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout[-3000:]


@pytest.mark.parametrize("gh,gw", [(8, 8), (32, 32), (34, 34)], ids=["64", "1024", "1156"])
def test_tokens_match_float64_textbook_attention(gh, gw):
    # the bit oracle follows vit's op order, so it cannot see a wrong scale;
    # this reference takes exp(s / sqrt(dh)) and normalises before the AV product
    weights = init_backbone(DESK, seed=5)
    img = rand_image(np.random.default_rng(gh * gw + 1), 8 * gh, 8 * gw)
    tokens = vit_forward(img, DESK, weights).tokens()
    assert np.abs(tokens - float64_vit_tokens(img, DESK, weights)).max() < 1e-4


def test_exact_max_guard_redoes_blocks_the_box_bound_would_underflow():
    # attn.wq scaled 5x puts the box bound more than 126 base-2 units above
    # some row's max in every block of these images, so each block's smallest
    # denominator is below 2**-100 and the block is redone with the exact row
    # max; without that redo the forward ends in NumericError
    weights = init_backbone(DESK, seed=5)
    sharp = ModelParams({name: t * F32(5) if name.endswith("attn.wq") else t
                         for name, t in weights.items()}, trainable=False)
    for i in range(3):
        img = rand_image(np.random.default_rng(i), 256, 256)
        tokens = vit_forward(img, DESK, sharp).tokens()
        assert np.isfinite(tokens).all()
        assert np.abs(tokens - float64_vit_tokens(img, DESK, sharp)).max() < 2e-4
    with pytest.raises(AssertionError, match="guard"):
        autodiff_vit_tokens(img, DESK, sharp)


def test_teacher_attention_never_holds_a_full_score_matrix():
    weights = init_backbone(DESK, seed=0)
    img = rand_image(np.random.default_rng(0), 384, 384)  # 2304 tokens
    tracemalloc.start()
    try:
        vit_forward(img, DESK, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2304 * 2304 * np.dtype(F32).itemsize

def test_forward_under_tape_records_nothing_and_keeps_weights():
    weights = init_backbone(TINY, seed=2)
    before = weights.content_hash()
    with ad.Tape() as tape:
        vit_forward(rand_image(np.random.default_rng(3), 64, 64), TINY, weights)
    assert tape.nodes == []
    assert weights.content_hash() == before


def test_pos_embed_interpolation_identity_at_base_grid():
    pos = np.random.default_rng(0).standard_normal((16, 16, 4)).astype(F32)
    out = interpolate_pos_embed(pos, 16, 16)
    assert np.array_equal(out, pos.reshape(256, 4))
    assert interpolate_pos_embed(pos, 8, 8).shape == (64, 4)


# ---------------------------------------------------------------------------
# teacher sources
# ---------------------------------------------------------------------------

def test_live_teacher_factor_four_protocol():
    w = init_backbone(TINY, seed=0)
    src = LiveTeacher(TINY, w)
    rng = np.random.default_rng(0)
    hi = rand_image(rng, 64, 64)  # 4x the 16 px student input
    fm = teacher_features(src, "s0", hi)
    assert fm.grid == (8, 8)  # 4 * (16/8)


def test_file_teacher_roundtrip_and_errors(tmp_path):
    rng = np.random.default_rng(4)
    data = rng.standard_normal((16, 8, 8)).astype(F32)
    save_tensor(data, tmp_path / "img1.brxt")
    src = FileTeacher(tmp_path, (16, 8, 8))
    fm = teacher_features(src, "img1", None)
    assert fm.data.tobytes() == data.tobytes()

    with pytest.raises(DataIOError):
        teacher_features(src, "missing", None)

    bad = FileTeacher(tmp_path, (16, 32, 32))
    with pytest.raises(ValueError, match="shape"):
        teacher_features(bad, "img1", None)
