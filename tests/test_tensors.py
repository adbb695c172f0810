import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brixel.errors import DataIOError, NumericError
from brixel.tensors import (
    F32,
    FeatureMap,
    ImageTensor,
    grid_to_tokens,
    load_tensor,
    resize_bilinear,
    resize_plane,
    save_tensor,
    tokens_to_grid,
)


def rand_image(rng, h, w, dtype=F32):
    return ImageTensor(rng.random((3, h, w)).astype(dtype))


# ---------------------------------------------------------------------------
# resize_bilinear
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("antialias", [True, False])
@pytest.mark.parametrize("size", [(4, 4), (8, 6), (3, 9)])
def test_resize_preserves_constant(antialias, size):
    img = ImageTensor(np.full((3, 5, 7), 0.7, dtype=F32))
    out = resize_bilinear(img, *size, antialias=antialias)
    assert out.data.shape == (3, *size)
    assert np.allclose(out.data, 0.7, atol=1e-6)


def test_area_downsample_is_box_filter():
    # hand-computed box-filter average of pixel pairs
    row = np.array([[0.0, 1.0, 2.0, 3.0]], dtype=np.float64)
    out = resize_plane(row, 1, 2, antialias=True)
    assert np.allclose(out, [[0.5, 2.5]], atol=1e-12)


@pytest.mark.parametrize("dtype", [F32, np.float64])
def test_resize_plane_stack_matches_per_plane_bits(dtype):
    # a stack resamples every plane exactly as one call per plane does,
    # including a channels-last array viewed channels-first
    rng = np.random.default_rng(7)
    stacks = [rng.random((2, 3, 12, 20)).astype(dtype),
              rng.random((12, 20, 5)).astype(dtype).transpose(2, 0, 1)]
    for stack in stacks:
        for out_hw, antialias in (((6, 8), True), ((24, 40), False)):
            out = resize_plane(stack, *out_hw, antialias=antialias)
            planes = stack.reshape(-1, 12, 20)
            loop = np.stack([resize_plane(p, *out_hw, antialias=antialias) for p in planes])
            assert np.array_equal(out.reshape(loop.shape), loop)


def test_up_then_down_roundtrip_close():
    rng = np.random.default_rng(0)
    for _ in range(50):
        img = rand_image(rng, 2, 2)
        up = resize_bilinear(img, 4, 4, antialias=False)
        down = resize_bilinear(up, 2, 2, antialias=True)
        assert np.max(np.abs(down.data - img.data)) <= 0.25


def test_resize_exact_on_linear_ramp():
    # area downsampling of a ramp keeps interval midpoints; bilinear
    # upsampling reproduces the ramp except at clamped borders
    ramp = np.linspace(0.0, 1.0, 16, dtype=np.float64)[None, :].repeat(16, axis=0)
    down = resize_plane(ramp, 16, 8, antialias=True)
    expected = np.linspace(0.0, 1.0, 16)[None, :].reshape(1, 8, 2).mean(-1).repeat(16, axis=0)
    assert np.allclose(down, expected, atol=1e-5)
    up = resize_plane(ramp, 16, 32, antialias=False)
    # interior columns of the upsample lie on the same line
    interior = up[:, 2:-2]
    diffs = np.diff(interior, axis=1)
    assert np.allclose(diffs, diffs[:, :1], atol=1e-5)


def test_resize_rejects_bad_target():
    img = ImageTensor(np.zeros((3, 4, 4), dtype=F32))
    with pytest.raises(ValueError):
        resize_bilinear(img, 0, 4)


def test_image_rejects_nonfinite_and_out_of_range():
    bad = np.zeros((3, 2, 2), dtype=F32)
    bad[0, 0, 0] = np.nan
    with pytest.raises(NumericError):
        ImageTensor(bad)
    with pytest.raises(ValueError):
        ImageTensor(np.full((3, 2, 2), 1.5, dtype=F32))
    with pytest.raises(ValueError):
        ImageTensor(np.zeros((1, 2, 2), dtype=F32))


def test_resize_output_finite_on_random_inputs():
    rng = np.random.default_rng(7)
    for _ in range(20):
        h, w = rng.integers(1, 24, size=2)
        img = rand_image(rng, int(h), int(w))
        oh, ow = int(rng.integers(1, 24)), int(rng.integers(1, 24))
        out = resize_bilinear(img, oh, ow, antialias=bool(rng.integers(2)))
        assert np.all(np.isfinite(out.data))


# ---------------------------------------------------------------------------
# tokens <-> grid
# ---------------------------------------------------------------------------

def test_tokens_to_grid_definition():
    tokens = np.array([[1.0], [2.0], [3.0], [4.0]], dtype=F32)
    grid = tokens_to_grid(tokens, 2, 2)
    assert grid.shape == (1, 2, 2)
    assert np.array_equal(grid[0], [[1.0, 2.0], [3.0, 4.0]])


def test_degenerate_grid_is_transposed_tokens():
    tokens = np.arange(12, dtype=F32).reshape(4, 3)
    grid = tokens_to_grid(tokens, 1, 4)
    assert grid.shape == (3, 1, 4)
    assert np.array_equal(grid[:, 0, :], tokens.T)


def test_token_count_mismatch():
    with pytest.raises(ValueError):
        tokens_to_grid(np.zeros((5, 2), dtype=F32), 2, 2)


@settings(max_examples=50, deadline=None)
@given(h=st.integers(1, 8), w=st.integers(1, 8), c=st.integers(1, 6),
       seed=st.integers(0, 2**31 - 1))
def test_tokens_grid_roundtrip_bit_exact(h, w, c, seed):
    rng = np.random.default_rng(seed)
    tokens = rng.standard_normal((h * w, c)).astype(F32)
    back = grid_to_tokens(tokens_to_grid(tokens, h, w))
    assert back.tobytes() == tokens.tobytes()


def test_featuremap_tokens_view():
    rng = np.random.default_rng(3)
    fm = FeatureMap(rng.standard_normal((5, 3, 4)).astype(F32))
    assert fm.channels == 5
    assert fm.grid == (3, 4)
    assert fm.tokens().shape == (12, 5)
    assert np.array_equal(tokens_to_grid(fm.tokens(), 3, 4), fm.data)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [F32, np.float64])
@pytest.mark.parametrize("shape", [(5,), (3, 4), (8, 16, 16), (2, 3, 4, 5)])
def test_save_load_roundtrip_bit_exact(tmp_path, dtype, shape):
    rng = np.random.default_rng(11)
    t = rng.standard_normal(shape).astype(dtype)
    p = tmp_path / "t.brxt"
    save_tensor(t, p)
    back = load_tensor(p)
    assert back.dtype == t.dtype
    assert back.shape == t.shape
    assert back.tobytes() == t.tobytes()


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.brxt"
    save_tensor(np.zeros(4, dtype=F32), p)
    raw = bytearray(p.read_bytes())
    raw[0] = ord("X")
    p.write_bytes(bytes(raw))
    with pytest.raises(DataIOError, match="bad magic"):
        load_tensor(p)


def test_load_rejects_truncated_payload(tmp_path):
    p = tmp_path / "trunc.brxt"
    save_tensor(np.zeros(10, dtype=F32), p)
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) - 24])  # 10 declared elements, 4 remain
    with pytest.raises(DataIOError, match="truncated payload"):
        load_tensor(p)


def test_load_rejects_excess_payload(tmp_path):
    p = tmp_path / "long.brxt"
    save_tensor(np.zeros(4, dtype=F32), p)
    p.write_bytes(p.read_bytes() + b"\x00" * 8)
    with pytest.raises(DataIOError, match="length mismatch"):
        load_tensor(p)


def test_load_rejects_version_mismatch(tmp_path):
    p = tmp_path / "ver.brxt"
    save_tensor(np.zeros(4, dtype=F32), p)
    raw = bytearray(p.read_bytes())
    raw[4] = 99
    p.write_bytes(bytes(raw))
    with pytest.raises(DataIOError, match="version"):
        load_tensor(p)


def test_save_rejects_non_float(tmp_path):
    with pytest.raises(TypeError):
        save_tensor(np.zeros(4, dtype=np.int32), tmp_path / "i.brxt")
