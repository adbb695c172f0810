import weakref

import numpy as np
import pytest

from brixel import autodiff as ad
from brixel.errors import NumericError
from oracles import backward_keeping_nodes, finite_difference_grad, max_rel_err

F64 = np.float64


def grad_of(build, x0, h=1e-5):
    """Analytic gradient of a scalar-valued builder, plus its FD oracle."""
    x0 = np.asarray(x0, dtype=F64)
    with ad.Tape() as tape:
        p = ad.parameter(x0.copy())
        out = build(p)
        tape.backward(out)
    analytic = p.grad if p.grad is not None else np.zeros_like(x0)
    numeric = finite_difference_grad(lambda v: float(build(ad.constant(v)).value), x0, h)
    return analytic, numeric


def check_grad(build, x0, tol=1e-4):
    analytic, numeric = grad_of(build, x0)
    assert max_rel_err(analytic, numeric) <= tol


# ---------------------------------------------------------------------------
# forward examples
# ---------------------------------------------------------------------------

def test_matmul_of_ones():
    a = ad.constant(np.ones((2, 3)))
    b = ad.constant(np.ones((3, 2)))
    assert np.array_equal(ad.matmul(a, b).value, np.full((2, 2), 3.0))


def test_conv2d_constant_center():
    x = ad.constant(np.ones((1, 1, 3, 3)))
    w = ad.constant(np.ones((1, 1, 3, 3)))
    y = ad.conv2d(x, w, np.zeros(1), padding=1)
    assert y.value.shape == (1, 1, 3, 3)
    assert y.value[0, 0, 1, 1] == 9.0
    assert y.value[0, 0, 0, 0] == 4.0  # zero padding trims the corner sum


def test_backward_of_square_sum():
    with ad.Tape() as tape:
        x = ad.parameter(np.array([1.0, 2.0, 3.0]))
        tape.backward(ad.reduce_sum(ad.mul(x, x)))
    assert np.allclose(x.grad, [2.0, 4.0, 6.0])


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))
    with pytest.raises(NumericError):
        ad.log(ad.constant(np.array([1.0, -1.0])))


def test_backward_requires_scalar_root_and_single_use():
    with ad.Tape() as tape:
        x = ad.parameter(np.ones(3))
        y = ad.mul(x, x)
        with pytest.raises(ValueError):
            tape.backward(y)
        root = ad.reduce_sum(y)
        tape.backward(root)
        with pytest.raises(RuntimeError):
            tape.backward(root)


# ---------------------------------------------------------------------------
# detach
# ---------------------------------------------------------------------------

def test_detach_preserves_value_and_blocks_grad():
    rng = np.random.default_rng(0)
    v = rng.standard_normal((4, 4))
    with ad.Tape() as tape:
        x = ad.parameter(v.copy())
        d = ad.detach(x)
        assert d.value.tobytes() == x.value.tobytes()
        tape.backward(ad.reduce_sum(ad.mul(d, d)))
    assert x.grad is None


def test_detach_acts_as_constant_factor():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(5)

    with ad.Tape() as tape:
        x = ad.parameter(v.copy())
        tape.backward(ad.reduce_sum(ad.mul(ad.detach(x), x)))
    grad_detach = x.grad

    with ad.Tape() as tape:
        x = ad.parameter(v.copy())
        tape.backward(ad.reduce_sum(ad.mul(ad.constant(v.copy()), x)))
    grad_const = x.grad

    assert np.max(np.abs(grad_detach - grad_const)) <= 1e-10


# ---------------------------------------------------------------------------
# gradient oracle, op by op
# ---------------------------------------------------------------------------

RNG = np.random.default_rng(42)


def _scalarize(y):
    return ad.reduce_mean(ad.square(y))


@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
def test_grad_binary_elementwise(op):
    other = RNG.standard_normal((3, 4)) + 3.0  # keep away from zero for div
    check_grad(lambda x: _scalarize(op(x, ad.constant(other.copy()))),
               RNG.standard_normal((3, 4)))
    check_grad(lambda x: _scalarize(op(ad.constant(other.copy()), x)),
               RNG.standard_normal((3, 4)))


def test_grad_broadcasting():
    other = RNG.standard_normal((3, 1))
    check_grad(lambda x: _scalarize(ad.add(x, ad.constant(other.copy()))),
               RNG.standard_normal((3, 4)))
    wide = RNG.standard_normal((3, 4))
    check_grad(lambda x: _scalarize(ad.mul(ad.constant(wide.copy()), x)),
               RNG.standard_normal((1, 4)))


def test_grad_matmul_2d_and_batched():
    b = RNG.standard_normal((4, 2))
    check_grad(lambda x: _scalarize(ad.matmul(x, ad.constant(b.copy()))),
               RNG.standard_normal((3, 4)))
    batched = RNG.standard_normal((2, 4, 3))
    check_grad(lambda x: _scalarize(ad.matmul(ad.constant(batched.copy()), x)),
               RNG.standard_normal((2, 3, 2)))
    # broadcast batch dims: (H_out, H) @ (N, C, H, W)
    wy = RNG.standard_normal((5, 3))
    check_grad(lambda x: _scalarize(ad.matmul(ad.constant(wy.copy()), x)),
               RNG.standard_normal((2, 2, 3, 4)))


@pytest.mark.parametrize("fn", [ad.absolute, ad.square, ad.gelu])
def test_grad_unary(fn):
    x0 = RNG.standard_normal((4, 5)) + 0.3  # offset keeps |x| kinks away from FD step
    check_grad(lambda x: _scalarize(fn(x)), x0)


def test_grad_log_sqrt_positive_domain():
    x0 = RNG.random((3, 3)) + 0.5
    check_grad(lambda x: _scalarize(ad.log(x)), x0)
    check_grad(lambda x: _scalarize(ad.sqrt(x)), x0)


def test_grad_reductions_and_shapes():
    x0 = RNG.standard_normal((3, 4, 5))
    check_grad(lambda x: ad.reduce_sum(ad.square(x)), x0)
    check_grad(lambda x: ad.reduce_mean(ad.square(x)), x0)
    check_grad(lambda x: _scalarize(ad.reduce_mean(x, axis=1, keepdims=True)), x0)
    check_grad(lambda x: _scalarize(ad.reduce_sum(x, axis=(0, 2))), x0)
    check_grad(lambda x: _scalarize(ad.reshape(x, (4, 15))), x0)


def test_grad_concat():
    other = RNG.standard_normal((2, 4))
    check_grad(lambda x: _scalarize(ad.concat([x, ad.constant(other.copy())], axis=0)),
               RNG.standard_normal((3, 4)))


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (3, 0)])
def test_grad_conv2d(stride, padding):
    w0 = RNG.standard_normal((3, 2, 3, 3))
    b0 = RNG.standard_normal(3)
    x0 = RNG.standard_normal((2, 2, 6, 6))
    check_grad(lambda x: _scalarize(
        ad.conv2d(x, ad.constant(w0.copy()), ad.constant(b0.copy()), stride, padding)), x0)
    check_grad(lambda w: _scalarize(
        ad.conv2d(ad.constant(x0.copy()), w, ad.constant(b0.copy()), stride, padding)), w0)
    check_grad(lambda b: _scalarize(
        ad.conv2d(ad.constant(x0.copy()), ad.constant(w0.copy()), b, stride, padding)), b0)


def _conv_with_grads(x0, w0, b0, gy, stride, padding):
    with ad.Tape() as tape:
        x = ad.parameter(x0.copy())
        w = ad.parameter(w0.copy())
        b = ad.parameter(b0.copy())
        y = ad.conv2d(x, w, b, stride, padding)
        tape.backward(ad.reduce_sum(ad.mul(y, ad.constant(gy))))
    return y.value, x.grad, w.grad, b.grad


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
@pytest.mark.parametrize("out_side", [8, 5])
def test_conv2d_batch_fold_matches_per_sample_calls(stride, padding, out_side):
    """N=3 in one call against three N=1 calls (f64). With an 8x8 output per
    sample the folded GEMM's columns block the same way per sample as in the
    N=1 GEMM, as at every desk layer, and the forward must match bit for bit.
    At 5x5 OpenBLAS may pick other small-size kernels for the wider product,
    so there the forward, like the gradients, must agree to 1e-12."""
    rng = np.random.default_rng(60 + 10 * stride + padding + out_side)
    side = (out_side - 1) * stride + 3 - 2 * padding
    x0 = rng.standard_normal((3, 4, side, side))
    w0 = rng.standard_normal((5, 4, 3, 3))
    b0 = rng.standard_normal(5)
    gy = rng.standard_normal((3, 5, out_side, out_side))

    y3, gx3, gw3, gb3 = _conv_with_grads(x0, w0, b0, gy, stride, padding)
    singles = [_conv_with_grads(x0[i:i + 1], w0, b0, gy[i:i + 1], stride, padding)
               for i in range(3)]
    y1 = np.concatenate([s[0] for s in singles])
    gx1 = np.concatenate([s[1] for s in singles])
    gw1 = singles[0][2] + singles[1][2] + singles[2][2]
    gb1 = singles[0][3] + singles[1][3] + singles[2][3]
    if out_side == 8:
        assert np.array_equal(y3, y1)
    for got, want in [(y3, y1), (gx3, gx1), (gw3, gw1), (gb3, gb1)]:
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel", [1, 3, 5])
@pytest.mark.parametrize("padding", [1, 2])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_conv2d_padding_matches_zero_padded_input(stride, padding, kernel, dtype):
    """Padding inside the op against an explicitly zero-padded input, byte for
    byte: y, dW and db equal, and dx equals the interior of the padded input's
    dx. On the 7x8 map the last window stops short of the far padding on at
    least one axis at strides 2 and 3; kernel 1 with padding 2 has outputs
    that see only padding."""
    rng = np.random.default_rng(100 * stride + 10 * padding + kernel)
    x0 = rng.standard_normal((2, 3, 7, 8)).astype(dtype)
    w0 = rng.standard_normal((4, 3, kernel, kernel)).astype(dtype)
    b0 = rng.standard_normal(4).astype(dtype)
    p = padding
    xp = np.pad(x0, ((0, 0), (0, 0), (p, p), (p, p)))
    ho = (7 + 2 * p - kernel) // stride + 1
    wo = (8 + 2 * p - kernel) // stride + 1
    gy = rng.standard_normal((2, 4, ho, wo)).astype(dtype)

    y, gx, gw, gb = _conv_with_grads(x0, w0, b0, gy, stride, p)
    y_p, gx_p, gw_p, gb_p = _conv_with_grads(xp, w0, b0, gy, stride, 0)
    for got, want in [(y, y_p), (gw, gw_p), (gb, gb_p), (gx, gx_p[:, :, p:p + 7, p:p + 8])]:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def test_grad_fft_amplitude_odd_width():
    # odd W: every half-plane column but the first stands for a mirrored pair
    for shape in [(2, 4, 5), (1, 3, 7), (3, 5, 3)]:
        x0 = np.random.default_rng(sum(shape)).standard_normal(shape)
        check_grad(lambda x: _scalarize(ad.fft_amplitude(x, 1e-24)), x0)


def test_grad_pool_upsample_shuffle():
    check_grad(lambda x: _scalarize(ad.avg_pool2d(x, 2)), RNG.standard_normal((1, 2, 4, 6)))
    check_grad(lambda x: _scalarize(ad.upsample_nearest(x, 3)), RNG.standard_normal((1, 2, 3, 2)))
    check_grad(lambda x: _scalarize(ad.pixel_shuffle(x, 2)), RNG.standard_normal((1, 8, 3, 3)))


def test_grad_softmax_layernorm():
    x0 = RNG.standard_normal((4, 6))
    gamma = RNG.standard_normal(6)
    beta = RNG.standard_normal(6)
    check_grad(lambda x: _scalarize(
        ad.layer_norm(x, ad.constant(gamma.copy()), ad.constant(beta.copy()))), x0)
    check_grad(lambda g: _scalarize(
        ad.layer_norm(ad.constant(x0.copy()), g, ad.constant(beta.copy()))), gamma)


def test_layer_norm_normalizes_each_pixel_over_channels():
    x = RNG.standard_normal((2, 3, 4, 5)) * 3.0 + 1.0
    gamma, beta = np.array([1.0, 2.0, -1.0]), np.array([0.0, 0.5, 1.0])
    y = ad.layer_norm(ad.constant(x), ad.constant(gamma), ad.constant(beta)).value
    z = (y - beta[:, None, None]) / gamma[:, None, None]
    assert np.allclose(z.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(z.var(axis=1), 1.0, atol=1e-4)  # eps = 1e-5 in the denominator


def _op_factories():
    # each factory draws its constants once, so FD re-evaluations are stable
    def with_const(op, shape):
        def make(rng):
            c = ad.constant(rng.standard_normal(shape))
            return lambda x: op(x, c)
        return make

    return {
        "add": (with_const(ad.add, (3, 4)), (3, 4)),
        "mul": (with_const(ad.mul, (3, 4)), (3, 4)),
        "div": (lambda rng: (lambda x, c=ad.constant(rng.standard_normal((3, 4)) + 3.0):
                             ad.div(x, c)), (3, 4)),
        "matmul": (with_const(ad.matmul, (4, 3)), (3, 4)),
        "abs": (lambda rng: ad.absolute, (3, 4)),
        "gelu": (lambda rng: ad.gelu, (3, 4)),
        "layer_norm": (lambda rng: (lambda x, g=ad.constant(rng.standard_normal(4)),
                                    b=ad.constant(rng.standard_normal(4)):
                                    ad.layer_norm(x, g, b)), (3, 4)),
        # (N, C, H, W): normalized over the channel axis, per pixel
        "layer_norm_4d": (lambda rng: (lambda x, g=ad.constant(rng.standard_normal(3)),
                                       b=ad.constant(rng.standard_normal(3)):
                                       ad.layer_norm(x, g, b)), (2, 3, 2, 3)),
        "conv2d": (lambda rng: (lambda x, w=ad.constant(rng.standard_normal((2, 2, 3, 3))):
                                ad.conv2d(x, w, np.zeros(2), padding=1)), (1, 2, 4, 4)),
        "avg_pool": (lambda rng: (lambda x: ad.avg_pool2d(x, 2)), (1, 2, 4, 4)),
        "upsample": (lambda rng: (lambda x: ad.upsample_nearest(x, 2)), (1, 2, 3, 3)),
        "pixel_shuffle": (lambda rng: (lambda x: ad.pixel_shuffle(x, 2)), (1, 4, 3, 3)),
        "sum_axis": (lambda rng: (lambda x: ad.reduce_sum(x, axis=1, keepdims=True)), (3, 4)),
        "mean_axis": (lambda rng: (lambda x: ad.reduce_mean(x, axis=0)), (3, 4)),
        "fft_amplitude": (lambda rng: (lambda x: ad.fft_amplitude(x, 1e-24)), (2, 4, 6)),
    }


@pytest.mark.parametrize("name", sorted(_op_factories()))
def test_grad_matches_fd_twenty_instances_per_op(name):
    factory, shape = _op_factories()[name]
    for seed in range(20):
        rng = np.random.default_rng(abs(hash(name)) % 10_000 + seed)
        build = factory(rng)
        x0 = rng.standard_normal(shape) + 0.25  # offset keeps |.| kinks off FD path
        check_grad(lambda x: _scalarize(build(x)), x0)


def test_grad_matches_fd_on_random_composites():
    # twenty random instances through a composite touching most of the op set
    for seed in range(20):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((4, 2, 3, 3))
        m = rng.standard_normal((9, 4))
        gamma = rng.standard_normal(4)
        beta = rng.standard_normal(4)

        def build(x):
            y = ad.conv2d(x, ad.constant(w.copy()), np.zeros(4), stride=1, padding=1)
            y = ad.gelu(y)
            y = ad.avg_pool2d(y, 2)
            y = ad.reshape(y, (4, 9))
            y = ad.matmul(y, ad.constant(m.copy()))
            y = ad.layer_norm(y, ad.constant(gamma.copy()), ad.constant(beta.copy()))
            return ad.reduce_mean(ad.absolute(ad.sub(y, 0.1)))

        check_grad(build, rng.standard_normal((1, 2, 6, 6)) * 0.7)


# ---------------------------------------------------------------------------
# engine invariants
# ---------------------------------------------------------------------------

def test_backward_linearity():
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal((4, 4))
    alpha, beta = 0.3, -1.7

    def f(x):
        return ad.reduce_sum(ad.square(x))

    def g(x):
        return ad.reduce_mean(ad.gelu(ad.mul(x, 0.1)))

    def run(build):
        with ad.Tape() as tape:
            x = ad.parameter(x0.copy())
            tape.backward(build(x))
        return x.grad

    combined = run(lambda x: ad.add(ad.mul(f(x), alpha), ad.mul(g(x), beta)))
    separate = alpha * run(f) + beta * run(g)
    assert np.max(np.abs(combined - separate)) <= 1e-10


def test_backward_determinism_bit_identical():
    rng = np.random.default_rng(9)
    x0 = rng.standard_normal((3, 2, 8, 8))
    w0 = rng.standard_normal((4, 2, 3, 3))

    def run():
        with ad.Tape() as tape:
            x = ad.parameter(x0.copy())
            w = ad.parameter(w0.copy())
            y = ad.gelu(ad.conv2d(x, w, np.zeros(4), padding=1))
            tape.backward(ad.reduce_mean(ad.square(y)))
        return x.grad.tobytes(), w.grad.tobytes()

    assert run() == run()


def test_backward_frees_intermediates_and_keeps_leaf_grads():
    rng = np.random.default_rng(11)
    x0 = rng.standard_normal((2, 3, 6, 6))
    w0 = rng.standard_normal((4, 3, 3, 3))

    def build():
        x = ad.parameter(x0.copy())
        w = ad.parameter(w0.copy())
        y = ad.gelu(ad.conv2d(x, w, np.zeros(4), padding=1))
        return x, w, y, ad.reduce_mean(ad.square(ad.add(y, ad.mul(y, 0.5))))

    with ad.Tape() as tape:
        x, w, y, root = build()
        backward_keeping_nodes(tape, root)
    assert y.grad is not None
    kept = (x.grad.tobytes(), w.grad.tobytes())

    with ad.Tape() as tape:
        x, w, y, root = build()
        held = y.parents[0][0]  # the conv2d output, still referenced here
        probe = weakref.ref(y)
        del y
        tape.backward(root)
    assert probe() is None
    assert tape.nodes == []
    assert held.grad is None and held.parents == ()
    assert root.grad is None
    assert (x.grad.tobytes(), w.grad.tobytes()) == kept


def test_constant_graph_records_nothing():
    with ad.Tape() as tape:
        a = ad.constant(np.ones((8, 8)))
        b = ad.matmul(a, a)
        ad.reduce_sum(b)
    assert tape.nodes == []


def test_dtype_mismatch_rejected():
    with pytest.raises(TypeError):
        ad.add(ad.constant(np.ones(3, dtype=np.float32)),
               ad.constant(np.ones(3, dtype=np.float64)))
    # a 0-d node is no exception: only a non-node operand takes the other's dtype
    with pytest.raises(TypeError):
        ad.add(ad.constant(np.ones(3, dtype=np.float32)), ad.constant(np.float64(2.0)))
