import numpy as np
import pytest

from brixel import autodiff as ad
from brixel.losses import (
    LossWeights,
    PcaProjection,
    SpectralConfig,
    default_r0,
    edge_loss,
    fit_pca,
    l1_loss,
    loss_breakdown,
    r_max_for_grid,
    radial_spectrum,
    sobel,
    spectral_loss,
    total_loss,
)
from brixel.training import DistillConfig
from oracles import (
    finite_difference_grad,
    loop_conv2d_same_replicate,
    loop_radial_spectrum,
    loop_radial_spectrum_channels_first,
    max_rel_err,
)

RNG = np.random.default_rng(2024)
SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])


def rand_fm(shape, rng=RNG, dtype=np.float64):
    return rng.standard_normal(shape).astype(dtype)


# ---------------------------------------------------------------------------
# L1
# ---------------------------------------------------------------------------

def test_l1_identical_zero():
    fm = rand_fm((4, 6, 6))
    assert float(l1_loss(fm, fm.copy()).value) == 0.0


def test_l1_unit_gap():
    s = np.zeros((3, 5, 5))
    t = np.ones((3, 5, 5))
    assert float(l1_loss(s, t).value) == 1.0


def test_l1_matches_scalar_loop():
    s, t = rand_fm((3, 4, 5)), rand_fm((3, 4, 5))
    acc = 0.0
    for c in range(3):
        for y in range(4):
            for x in range(5):
                acc += abs(t[c, y, x] - s[c, y, x])
    assert abs(float(l1_loss(s, t).value) - acc / 60.0) <= 1e-6


def test_l1_shape_mismatch():
    with pytest.raises(ValueError):
        l1_loss(np.zeros((2, 3, 3)), np.zeros((2, 4, 3)))


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

def test_fit_pca_hand_case():
    tokens = np.array([[1.0, 0.0], [-1.0, 0.0]])
    p = fit_pca(tokens, 1)
    assert np.allclose(p.mean, [0.0, 0.0])
    assert np.allclose(p.basis[:, 0], [1.0, 0.0])  # sign rule picks +e0
    proj = (tokens - p.mean) @ p.basis
    assert np.allclose(proj.reshape(2), [1.0, -1.0])


def test_fit_pca_isotropic_reconstruction():
    rng = np.random.default_rng(0)
    tokens = rng.standard_normal((4000, 6))
    p = fit_pca(tokens, 6)
    v = p.basis
    assert np.allclose(v.T @ v, np.eye(6), atol=1e-5)  # orthonormal columns
    x = rng.standard_normal((50, 6))
    recon = (x - p.mean) @ v @ v.T + p.mean
    assert np.max(np.abs(recon - x)) <= 1e-4


def test_fit_pca_full_k_preserves_pairwise_distances():
    rng = np.random.default_rng(1)
    tokens = rng.standard_normal((40, 5))
    p = fit_pca(tokens, 5)
    proj = (tokens - p.mean) @ p.basis
    for i in range(0, 40, 7):
        for j in range(0, 40, 11):
            d0 = np.linalg.norm(tokens[i] - tokens[j])
            d1 = np.linalg.norm(proj[i] - proj[j])
            assert abs(d0 - d1) <= 1e-5


def test_fit_pca_rejects_bad_k():
    tokens = np.zeros((4, 3))
    with pytest.raises(ValueError):
        fit_pca(tokens, 4)
    with pytest.raises(ValueError):
        fit_pca(tokens, 0)


@pytest.mark.parametrize("n,c,rank,k", [(20, 4, 1, 3), (8192, 32, 5, 8)])
def test_fit_pca_flags_rank_deficiency(n, c, rank, k):
    """(20, 4, 1, 3) is a hand-sized rank-1 set; (8192, 32, 5, 8) is a desk
    batch of pooled teacher tokens (8 maps of 32x32 tokens, C=32, K=8)."""
    rng = np.random.default_rng(2)
    deficient = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, c))
    with pytest.warns(RuntimeWarning, match="rank"):
        p = fit_pca(deficient, k)
    assert p.degenerate
    assert np.allclose(p.basis.T @ p.basis, np.eye(k), atol=1e-5)


def test_fit_pca_deterministic_sign():
    rng = np.random.default_rng(3)
    tokens = rng.standard_normal((64, 5))
    a = fit_pca(tokens, 3)
    b = fit_pca(tokens.copy(), 3)
    assert np.array_equal(a.basis, b.basis)
    for j in range(3):
        col = a.basis[:, j]
        assert col[np.argmax(np.abs(col))] > 0


# ---------------------------------------------------------------------------
# Sobel
# ---------------------------------------------------------------------------

def test_sobel_constant_is_zero():
    gx, gy = sobel(np.full((3, 5, 5), 2.5))
    assert np.max(np.abs(gx.value)) == 0.0
    assert np.max(np.abs(gy.value)) == 0.0


def test_sobel_on_ramp():
    fm = np.tile(np.arange(8.0), (8, 1)).reshape(1, 8, 8)
    gx, gy = sobel(fm)
    assert np.allclose(gx.value[0, 1:-1, 1:-1], 8.0)
    assert np.max(np.abs(gy.value)) <= 1e-12


def test_sobel_matches_loop_oracle():
    fm = rand_fm((3, 6, 7))
    gx, gy = sobel(fm)
    for c in range(3):
        assert np.max(np.abs(gx.value[c] - loop_conv2d_same_replicate(fm[c], SOBEL_X))) <= 1e-6
        assert np.max(np.abs(gy.value[c] - loop_conv2d_same_replicate(fm[c], SOBEL_X.T))) <= 1e-6


@pytest.mark.parametrize("shape", [(2, 3, 5, 4), (1, 2, 3, 7), (3, 1, 6, 6)])
def test_sobel_gradient_matches_finite_differences(shape):
    # the replicate boundary rows and columns of both Sobel matrices, on a
    # stack, with odd, even and non-square sides
    rng = np.random.default_rng(sum(shape))
    wx, wy = (ad.constant(rng.standard_normal(shape)) for _ in range(2))

    def build(x):
        gx, gy = sobel(x)
        return ad.add(ad.reduce_sum(ad.mul(gx, wx)), ad.reduce_sum(ad.mul(gy, wy)))

    x0 = rng.standard_normal(shape)
    with ad.Tape() as tape:
        x = ad.parameter(x0.copy())
        tape.backward(build(x))
    numeric = finite_difference_grad(lambda v: float(build(ad.constant(v)).value), x0)
    assert max_rel_err(x.grad, numeric) <= 1e-6


def test_sobel_rejects_small_grid():
    with pytest.raises(ValueError):
        sobel(np.zeros((1, 2, 5)))


# ---------------------------------------------------------------------------
# edge loss
# ---------------------------------------------------------------------------

def _pca_for(t, k=3):
    from brixel.tensors import grid_to_tokens

    return fit_pca(grid_to_tokens(t), k)


def test_edge_loss_zero_at_equal_and_constants():
    t = rand_fm((6, 5, 5))
    p = _pca_for(t)
    assert float(edge_loss(t.copy(), t, p).value) <= 1e-12
    tokens = RNG.standard_normal((50, 6))
    p2 = fit_pca(tokens, 3)
    a = np.full((6, 5, 5), 1.7)
    b = np.full((6, 5, 5), -0.4)
    assert float(edge_loss(a, b, p2).value) <= 1e-6


def test_edge_loss_matches_composition_of_oracles():
    s, t = rand_fm((5, 6, 6)), rand_fm((5, 6, 6))
    p = _pca_for(t, k=2)

    def proj_loop(fm):
        out = np.zeros((2, 6, 6))
        for y in range(6):
            for x in range(6):
                out[:, y, x] = p.basis.T @ (fm[:, y, x] - p.mean)
        return out

    ps, pt = proj_loop(s), proj_loop(t)
    acc = 0.0
    for k in range(2):
        gxs = loop_conv2d_same_replicate(ps[k], SOBEL_X)
        gxt = loop_conv2d_same_replicate(pt[k], SOBEL_X)
        gys = loop_conv2d_same_replicate(ps[k], SOBEL_X.T)
        gyt = loop_conv2d_same_replicate(pt[k], SOBEL_X.T)
        acc += np.abs(gxt - gxs).mean() / 2 + np.abs(gyt - gys).mean() / 2
    assert abs(float(edge_loss(s, t, p).value) - acc) <= 1e-6


def test_edge_loss_invariant_to_shared_constant_shift():
    s, t = rand_fm((4, 6, 6)), rand_fm((4, 6, 6))
    p = _pca_for(t, k=2)
    base = float(edge_loss(s, t, p).value)
    shifted = float(edge_loss(s + 0.71, t + 0.71, p).value)
    assert abs(base - shifted) <= 1e-9


# ---------------------------------------------------------------------------
# radial spectrum
# ---------------------------------------------------------------------------

def test_spectrum_delta_is_flat_one():
    for h, w in [(8, 8), (8, 12)]:
        d = np.zeros((1, h, w))
        d[0, h // 3, w // 2] = np.sqrt(h * w)
        spec = radial_spectrum(d).value
        assert spec.shape == (min(h, w) // 2 + 1,)
        assert np.allclose(spec, 1.0, atol=1e-9)


def test_spectrum_constant_map_is_dc_only():
    c = 0.42
    spec = radial_spectrum(np.full((2, 6, 6), c)).value
    assert spec[0] == pytest.approx(c * 36 / 6.0, abs=1e-9)  # c*N^2 / sqrt(N^2)
    assert np.max(np.abs(spec[1:])) <= 1e-9


@pytest.mark.parametrize("shape", [(1, 8, 8), (3, 8, 8), (2, 8, 12)])
def test_spectrum_matches_brute_force(shape):
    fm = rand_fm(shape, np.random.default_rng(7))
    mine = radial_spectrum(fm).value
    assert np.max(np.abs(mine - loop_radial_spectrum(fm))) <= 1e-6


@pytest.mark.parametrize("shape", [(2, 7, 9), (1, 8, 5), (3, 5, 8)])
def test_spectrum_odd_sides_match_brute_force(shape):
    """With odd W the real-FFT half-plane has no Nyquist column: every
    column but the first stands for itself and its mirror."""
    fm = rand_fm(shape, np.random.default_rng(17))
    assert np.max(np.abs(radial_spectrum(fm).value - loop_radial_spectrum(fm))) <= 1e-6


def test_oracle_channel_averaging_orders_agree():
    fm = rand_fm((3, 8, 8), np.random.default_rng(8))
    a = loop_radial_spectrum(fm)
    b = loop_radial_spectrum_channels_first(fm)
    assert np.max(np.abs(a - b)) <= 1e-12


def test_spectrum_translation_invariant():
    fm = rand_fm((2, 8, 8), np.random.default_rng(9))
    base = radial_spectrum(fm).value
    for shift in [(1, 0), (0, 3), (5, 2)]:
        rolled = np.roll(fm, shift, axis=(1, 2))
        assert np.max(np.abs(radial_spectrum(rolled).value - base)) <= 1e-5


def test_spectrum_float32_close_to_oracle():
    fm = rand_fm((2, 8, 8), np.random.default_rng(10), dtype=np.float32)
    mine = radial_spectrum(fm).value
    assert np.max(np.abs(mine - loop_radial_spectrum(fm.astype(np.float64)))) <= 1e-4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(3, 8, 8), (2, 7, 9), (2, 3, 8, 12), (2, 3, 9, 7)])
def test_spectrum_r0_is_the_tail_of_the_full_spectrum_bit_for_bit(shape, dtype):
    fm = rand_fm(shape, np.random.default_rng(21), dtype)
    full = radial_spectrum(fm).value
    r_max = r_max_for_grid(*shape[-2:])
    for r0 in (1, r_max):
        tail = radial_spectrum(fm, r0).value
        assert tail.shape == shape[:-3] + (r_max + 1 - r0,)
        assert tail.tobytes() == np.ascontiguousarray(full[..., r0:]).tobytes(), r0


# ---------------------------------------------------------------------------
# spectral loss
# ---------------------------------------------------------------------------

CFG8 = SpectralConfig(r0=2, eps_log=1e-8)
WEIGHTS = LossWeights(edge=1.0, spectral=0.1)


def test_spectral_loss_zero_and_symmetric():
    s, t = rand_fm((2, 8, 8)), rand_fm((2, 8, 8))
    assert float(spectral_loss(t.copy(), t, CFG8).value) <= 1e-12
    ab = float(spectral_loss(s, t, CFG8).value)
    ba = float(spectral_loss(t, s, CFG8).value)
    assert abs(ab - ba) <= 1e-10


def test_spectral_loss_log_scaling_by_e():
    rng = np.random.default_rng(11)
    fm = rng.standard_normal((2, 8, 8)) * 10.0  # amplitudes far above eps_log
    val = float(spectral_loss(np.e * fm, fm, CFG8).value)
    assert abs(val - 1.0) <= 1e-4


def test_spectral_loss_rejects_empty_radius_set():
    with pytest.raises(ValueError):
        spectral_loss(np.zeros((1, 8, 8)), np.zeros((1, 8, 8)),
                      SpectralConfig(r0=5, eps_log=1e-8))


def test_default_r0_is_half_nyquist():
    assert default_r0(8, 8) == 2
    assert default_r0(32, 32) == 8
    assert default_r0(4, 4) == 1


# ---------------------------------------------------------------------------
# total loss
# ---------------------------------------------------------------------------

def test_total_loss_zero_at_equal_and_degenerate_weights():
    t = rand_fm((4, 8, 8))
    p = _pca_for(t, k=2)
    assert float(total_loss(t.copy(), t, p, WEIGHTS, CFG8).value) <= 1e-10
    s = rand_fm((4, 8, 8))
    only_l1 = total_loss(s, t, p, LossWeights(edge=0.0, spectral=0.0), CFG8)
    assert float(only_l1.value) == pytest.approx(float(l1_loss(s, t).value), abs=1e-12)


def test_default_weights_match_training_configuration():
    w = DistillConfig().loss_weights()
    assert w.edge == 1.0 and w.spectral == 0.1
    s, t = rand_fm((4, 8, 8)), rand_fm((4, 8, 8))
    p = _pca_for(t, k=2)
    total, parts = loss_breakdown(s, t, p, w, CFG8)
    expect = (float(parts["l1"].value) + 1.0 * float(parts["edge"].value)
              + 0.1 * float(parts["spectral"].value))
    assert float(total.value) == pytest.approx(expect, rel=1e-12)


def test_losses_nonnegative_and_zero_at_equal_both_dtypes():
    for dtype, tol in [(np.float32, 1e-6), (np.float64, 1e-10)]:
        t = rand_fm((4, 8, 8), np.random.default_rng(12), dtype)
        p = _pca_for(t.astype(np.float64), k=2)
        s = rand_fm((4, 8, 8), np.random.default_rng(13), dtype)
        for fn in (lambda a, b: l1_loss(a, b),
                   lambda a, b: edge_loss(a, b, _cast_pca(p, dtype)),
                   lambda a, b: spectral_loss(a, b, CFG8)):
            assert float(fn(t.copy(), t).value) <= tol
            assert float(fn(s, t).value) >= 0.0


def _cast_pca(p, dtype):
    from brixel.losses import PcaProjection

    return PcaProjection(p.mean.astype(dtype), p.basis.astype(dtype), p.k, p.degenerate)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def _loss_builders(t, p, cfg):
    return {
        "l1": lambda s: l1_loss(s, t),
        "edge": lambda s: edge_loss(s, t, p),
        "spectral": lambda s: spectral_loss(s, t, cfg),
        "total": lambda s: total_loss(s, t, p, WEIGHTS, cfg),
    }


@pytest.mark.parametrize("name", ["l1", "edge", "spectral", "total"])
def test_loss_gradients_match_finite_differences(name):
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        t = rand_fm((4, 6, 6), rng)
        s0 = t + 0.3 * rng.standard_normal(t.shape)  # keep |.| kinks off the FD path
        p = _pca_for(t, k=2)
        build = _loss_builders(t, p, CFG8)[name]

        with ad.Tape() as tape:
            s = ad.parameter(s0.copy())
            tape.backward(build(s))
        numeric = finite_difference_grad(lambda v: float(build(ad.constant(v)).value), s0)
        assert max_rel_err(s.grad, numeric) <= 1e-4, f"seed {seed}"


def test_no_gradient_into_teacher_or_projection():
    rng = np.random.default_rng(21)
    t0 = rand_fm((4, 6, 6), rng)
    s0 = rand_fm((4, 6, 6), rng)
    p = _pca_for(t0, k=2)
    with ad.Tape() as tape:
        s = ad.parameter(s0.copy())
        t = ad.parameter(t0.copy())  # even a trainable teacher must stay dry
        tape.backward(total_loss(s, t, p, WEIGHTS, CFG8))
    assert s.grad is not None
    assert t.grad is None


def test_edge_loss_detached_pca_equals_constant_pca():
    rng = np.random.default_rng(22)
    t0 = rand_fm((4, 6, 6), rng)
    s0 = rand_fm((4, 6, 6), rng)
    p = _pca_for(t0, k=2)

    with ad.Tape() as tape:
        s = ad.parameter(s0.copy())
        tape.backward(edge_loss(s, t0, p))
    g1 = s.grad

    frozen = _cast_pca(p, np.float64)  # rebuilt from plain constant arrays
    with ad.Tape() as tape:
        s = ad.parameter(s0.copy())
        tape.backward(edge_loss(s, t0, frozen))
    g2 = s.grad
    assert np.max(np.abs(g1 - g2)) <= 1e-10


# ---------------------------------------------------------------------------
# stacked maps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(3, 4, 6, 10), (3, 8, 16, 16), (4, 32, 32, 32)])
def test_stacked_maps_match_per_map_bits(shape, dtype):
    """Every loss function on an (N, C, H, W) stack gives, per sample, the
    bits of the call on that one (C, H, W) map."""
    rng = np.random.default_rng(shape[-1])
    t = rand_fm(shape, rng, dtype)
    s = t + (0.3 * rng.standard_normal(shape)).astype(dtype)
    p = fit_pca(np.concatenate([tm.reshape(shape[1], -1).T for tm in t]), 3)
    p = PcaProjection(p.mean.astype(dtype), p.basis.astype(dtype), p.k)
    cfg = SpectralConfig(r0=default_r0(*shape[-2:]), eps_log=1e-8)
    fns = {
        "l1": lambda a, b: l1_loss(a, b),
        "edge": lambda a, b: edge_loss(a, b, p),
        "spectral": lambda a, b: spectral_loss(a, b, cfg),
        "total": lambda a, b: total_loss(a, b, p, WEIGHTS, cfg),
        "breakdown.edge": lambda a, b: loss_breakdown(a, b, p, WEIGHTS, cfg)[1]["edge"],
        "sobel.x": lambda a, b: sobel(a)[0],
        "sobel.y": lambda a, b: sobel(a)[1],
        "radial_spectrum": lambda a, b: radial_spectrum(a),
    }
    for name, fn in fns.items():
        stacked = fn(s, t).value
        per_map = [fn(s[i], t[i]).value for i in range(shape[0])]
        assert stacked.shape == (shape[0],) + per_map[0].shape, name
        for i, want in enumerate(per_map):
            assert stacked[i].tobytes() == want.tobytes(), (name, i)
