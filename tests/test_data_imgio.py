import hashlib
import struct
import zlib

import numpy as np
import pytest

from brixel import data
from brixel.data import (
    load_directory,
    synthetic_dataset,
    synthetic_image,
    two_region_dataset,
)
from brixel.errors import DataIOError
from brixel.imgio import image_to_rgb8, read_ppm, rgb8_to_image, write_png, write_ppm
from brixel.tensors import resize_bilinear



def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    rgb = rng.integers(0, 256, size=(7, 5, 3), dtype=np.uint8)
    p = tmp_path / "img.ppm"
    write_ppm(p, rgb)
    back = image_to_rgb8(read_ppm(p))
    assert np.array_equal(back, rgb)


def test_ppm_header_with_comment(tmp_path):
    rgb = np.zeros((2, 2, 3), dtype=np.uint8)
    p = tmp_path / "c.ppm"
    p.write_bytes(b"P6\n# a comment\n2 2\n255\n" + rgb.tobytes())
    img = read_ppm(p)
    assert img.data.shape == (3, 2, 2)


def test_ppm_rejects_garbage(tmp_path):
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"P3\n2 2\n255\n")
    with pytest.raises(DataIOError):
        read_ppm(p)
    p.write_bytes(b"P6\n2 2\n255\n\x00\x00")
    with pytest.raises(DataIOError, match="truncated"):
        read_ppm(p)
    p.write_bytes(b"P6\n0 4\n255\n")
    with pytest.raises(DataIOError):
        read_ppm(p)


def _decode_png(path):
    """Independent minimal PNG reader (filter 0 rows only) for verification."""
    raw = path.read_bytes()
    assert raw[:8] == b"\x89PNG\r\n\x1a\n"
    pos, idat, w, h = 8, b"", 0, 0
    while pos < len(raw):
        (length,), tag = struct.unpack(">I", raw[pos:pos + 4]), raw[pos + 4:pos + 8]
        payload = raw[pos + 8:pos + 8 + length]
        crc = struct.unpack(">I", raw[pos + 8 + length:pos + 12 + length])[0]
        assert crc == zlib.crc32(tag + payload) & 0xFFFFFFFF
        if tag == b"IHDR":
            w, h, depth, color = struct.unpack(">IIBB", payload[:10])
            assert depth == 8 and color == 2
        elif tag == b"IDAT":
            idat += payload
        pos += 12 + length
    rows = zlib.decompress(idat)
    stride = 1 + 3 * w
    out = np.zeros((h, w, 3), dtype=np.uint8)
    for y in range(h):
        row = rows[y * stride:(y + 1) * stride]
        assert row[0] == 0  # filter type 0
        out[y] = np.frombuffer(row[1:], dtype=np.uint8).reshape(w, 3)
    return out


def test_png_writer_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    rgb = rng.integers(0, 256, size=(9, 4, 3), dtype=np.uint8)
    p = tmp_path / "img.png"
    write_png(p, rgb)
    assert np.array_equal(_decode_png(p), rgb)


def test_rgb8_image_conversion_roundtrip():
    rng = np.random.default_rng(2)
    rgb = rng.integers(0, 256, size=(6, 6, 3), dtype=np.uint8)
    assert np.array_equal(image_to_rgb8(rgb8_to_image(rgb)), rgb)


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def test_synthetic_dataset_deterministic_and_distinct():
    a = synthetic_dataset(4, 32, seed=3)
    b = synthetic_dataset(4, 32, seed=3)
    for (ida, ia), (idb, ib) in zip(a, b):
        assert ida == idb
        assert ia.data.tobytes() == ib.data.tobytes()
    assert not np.array_equal(a[0][1].data, a[1][1].data)


def test_synthetic_image_edge_rich():
    img = synthetic_image(np.random.default_rng(4), 64)
    gx = np.abs(np.diff(img.data, axis=2)).max()
    assert gx > 0.1  # hard polygon edges exist


def test_two_region_dataset_masks_and_stable_colors():
    samples = two_region_dataset(4, 48, seed=5)
    for _, img, mask in samples:
        assert mask.shape == (48, 48)
        assert set(np.unique(mask)) == {0, 1}
        assert 0.03 < mask.mean() < 0.97
        assert img.data.shape == (3, 48, 48)
    # class colors are consistent across the dataset (linear separability)
    means = []
    for _, img, mask in samples:
        means.append([img.data[:, mask == k].mean(axis=1) for k in (0, 1)])
    means = np.array(means)  # (samples, class, rgb)
    spread = means.std(axis=0).max()
    gap = np.linalg.norm(means.mean(axis=0)[0] - means.mean(axis=0)[1])
    assert spread < 0.1
    assert gap > 0.4



def _sha256(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def test_synthetic_generators_keep_their_bits():
    # digests of the generators' output before the bounding-box rewrite
    assert _sha256(img.data for _, img in synthetic_dataset(4, 256, 0)) == (
        "9d2d8488c43ecf49f7af207d513f2f9169c62a49582cfbc46913ed5565502963")
    assert _sha256(img.data for _, img in synthetic_dataset(4, 64, 1)) == (
        "fea819f5af7dc264a795bb4efe377207165a27aa05e4965a209eb3553117c31e")
    assert _sha256(a for _, img, mask in two_region_dataset(6, 64, 0)
                   for a in (img.data, mask)) == (
        "eab87cbec15ec7705f5b9d0ec0c0c3a60c129048ecf2296f47efda65745b1907")

# ---------------------------------------------------------------------------
# directory loader
# ---------------------------------------------------------------------------

def test_load_directory(tmp_path):
    rng = np.random.default_rng(6)
    for i in range(3):
        rgb = rng.integers(0, 256, size=(40, 64, 3), dtype=np.uint8)
        write_ppm(tmp_path / f"img{i}.ppm", rgb)
    ds = load_directory(tmp_path, resolution=32)
    assert [sid for sid, _ in ds] == ["img0", "img1", "img2"]
    for _, img in ds:
        assert img.data.shape == (3, 32, 32)


def _write_crop_sized_ppms(path, side: int) -> dict[str, np.ndarray]:
    """PPMs whose center crop is side x side: square, wider, taller, all-0, all-255."""
    rng = np.random.default_rng(8)
    shapes = {"square": (side, side), "wide": (side, side + 7), "tall": (side + 4, side)}
    rgbs = {name: rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            for name, (h, w) in shapes.items()}
    rgbs["black"] = np.zeros((side, side + 1, 3), dtype=np.uint8)
    rgbs["white"] = np.full((side + 2, side, 3), 255, dtype=np.uint8)
    for name, rgb in rgbs.items():
        write_ppm(path / f"{name}.ppm", rgb)
    return rgbs


def test_load_directory_at_resolution_matches_resampled_crop(tmp_path):
    side = 32
    rgbs = _write_crop_sized_ppms(tmp_path, side)
    for sid, img in load_directory(tmp_path, side):
        h, w = rgbs[sid].shape[:2]
        y0, x0 = (h - side) // 2, (w - side) // 2
        crop = rgb8_to_image(np.ascontiguousarray(rgbs[sid][y0:y0 + side, x0:x0 + side]))
        want = resize_bilinear(crop, side, side, antialias=True)
        assert img.data.dtype == want.data.dtype and img.data.shape == (3, side, side)
        assert img.data.tobytes() == want.data.tobytes(), sid


def test_load_directory_resamples_only_other_sides(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("resampled a crop already at the target side")

    monkeypatch.setattr(data, "resize_bilinear", refuse)
    _write_crop_sized_ppms(tmp_path, 32)
    assert len(load_directory(tmp_path, 32)) == 5

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return resize_bilinear(*args, **kwargs)

    monkeypatch.setattr(data, "resize_bilinear", counting)
    other = tmp_path / "other"
    other.mkdir()
    write_ppm(other / "img.ppm", np.zeros((40, 64, 3), dtype=np.uint8))
    (_, img), = load_directory(other, 32)
    assert calls == [(32, 32)] and img.data.shape == (3, 32, 32)


def test_load_directory_errors(tmp_path):
    with pytest.raises(DataIOError):
        load_directory(tmp_path / "none", 32)
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(DataIOError):
        load_directory(empty, 32)
