"""Tape-based reverse-mode differentiation over numpy arrays.

The op set is exactly what the refiner/head and the three distillation
losses reach: elementwise arithmetic, (broadcasting) matmul, reshape and
concat, sums, the amplitude of an orthonormal real 2-d FFT, 2-d convolution
plus a per-channel bias, nearest upsampling, pixel shuffle and GELU. The
frozen ViT also runs ``layer_norm`` and ``gelu``, on plain arrays that no
tape records. Three composites, ``reduce_mean``, a ``layer_norm`` over the
channel axis and ``avg_pool2d`` (a mean over the window axes of a reshaped
view), are built from the primitives so their gradients come for free. A
non-node operand of a binary op takes the other operand's dtype; two nodes
of different dtypes are a ``TypeError``. ``conv2d`` never materialises its
padding, and folds the batch into the GEMM column axis, so a batch costs
one GEMM forward and one each for the weight and input gradients.

One :class:`Tape` is active at a time per process (brixel starts no thread),
for one training step; the graph is rebuilt every step and consumed by one
``backward`` call, which frees each recorded node (value, gradient and VJP
closures, unless the caller still holds it) once its gradients are passed on.
Only leaves keep a ``.grad``. Values are never mutated in place after
recording, and gradient accumulation is plain summation, so two identical
forward+backward passes give bit-identical gradients in a single-threaded run.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError

_tape: "Tape | None" = None  # the active tape, set and cleared by ``with Tape():``


class Tape:
    """Records grad-requiring nodes of one forward pass in creation order.

    Creation order is a topological order of the graph, so ``backward``
    visits nodes in reverse creation order exactly once.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        global _tape
        if _tape is not None:
            raise RuntimeError("a tape is already active on this thread")
        _tape = self
        return self

    def __exit__(self, *exc):
        global _tape
        _tape = None
        return False

    def backward(self, root: "Node") -> None:
        """Accumulate gradients of a scalar root into every reachable leaf.

        Each recorded node drops its ``.grad``, its parent links and the
        tape's reference as soon as its VJPs have run.
        """
        if self._consumed:
            raise RuntimeError("tape already consumed by a previous backward call")
        if root.value.size != 1:
            raise ValueError(f"backward root must be scalar, got shape {root.value.shape}")
        self._consumed = True
        if not root.requires_grad:
            return
        root.grad = np.ones_like(root.value)
        nodes, self.nodes = self.nodes, []
        while nodes:
            node = nodes.pop()
            grad, node.grad = node.grad, None
            parents, node.parents = node.parents, ()
            if grad is None:
                continue
            for parent, vjp in parents:
                if not parent.requires_grad:
                    continue
                g = vjp(grad)
                parent.grad = g if parent.grad is None else parent.grad + g


class Node:
    """One value in the computation graph."""

    __slots__ = ("value", "requires_grad", "parents", "grad", "__weakref__")

    def __init__(self, value: np.ndarray, requires_grad: bool = False, parents=()):
        self.value = value
        self.requires_grad = requires_grad
        self.parents = parents
        self.grad: np.ndarray | None = None

    def __repr__(self):
        return f"<Node shape={self.value.shape} dtype={self.value.dtype} rg={self.requires_grad}>"

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)


def constant(value, dtype=None) -> Node:
    """Wrap an array as a graph constant (no gradient ever flows into it)."""
    return Node(np.asarray(value, dtype=dtype))


def parameter(value: np.ndarray) -> Node:
    """Wrap an array as a trainable leaf; gradients accumulate in ``.grad``."""
    return Node(np.asarray(value), requires_grad=True)


def _as_node(x, like=None) -> Node:
    """``x`` itself if it is a node, else a constant of ``like``'s dtype when
    ``like`` is a node."""
    if isinstance(x, Node):
        return x
    return constant(x, dtype=like.value.dtype if isinstance(like, Node) else None)


def _record(value: np.ndarray, parents) -> Node:
    """Create an op output; recorded on the tape only if a gradient can reach it."""
    if _tape is None or not any(p.requires_grad for p, _ in parents):
        return Node(value)
    node = Node(value, requires_grad=True, parents=tuple(parents))
    _tape.nodes.append(node)
    return node


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# Elementwise primitives
# ---------------------------------------------------------------------------

def _coerce_pair(a, b, op):
    """A non-node operand takes the other operand's dtype; two nodes must agree."""
    a = _as_node(a, like=b)
    b = _as_node(b, like=a)
    if a.value.dtype != b.value.dtype:
        raise TypeError(f"{op}: dtype mismatch {a.value.dtype} vs {b.value.dtype}")
    return a, b


def add(a, b) -> Node:
    a, b = _coerce_pair(a, b, "add")
    return _record(a.value + b.value, [
        (a, lambda g: _unbroadcast(g, a.value.shape)),
        (b, lambda g: _unbroadcast(g, b.value.shape)),
    ])


def sub(a, b) -> Node:
    a, b = _coerce_pair(a, b, "sub")
    return _record(a.value - b.value, [
        (a, lambda g: _unbroadcast(g, a.value.shape)),
        (b, lambda g: _unbroadcast(-g, b.value.shape)),
    ])


def mul(a, b) -> Node:
    a, b = _coerce_pair(a, b, "mul")
    return _record(a.value * b.value, [
        (a, lambda g: _unbroadcast(g * b.value, a.value.shape)),
        (b, lambda g: _unbroadcast(g * a.value, b.value.shape)),
    ])


def div(a, b) -> Node:
    a, b = _coerce_pair(a, b, "div")
    out = a.value / b.value
    return _record(out, [
        (a, lambda g: _unbroadcast(g / b.value, a.value.shape)),
        (b, lambda g: _unbroadcast(-g * out / b.value, b.value.shape)),
    ])


def absolute(a) -> Node:
    a = _as_node(a)
    return _record(np.abs(a.value), [(a, lambda g: g * np.sign(a.value))])


def log(a) -> Node:
    a = _as_node(a)
    if np.any(a.value <= 0):
        raise NumericError("log of non-positive value")
    return _record(np.log(a.value), [(a, lambda g: g / a.value)])


def sqrt(a) -> Node:
    a = _as_node(a)
    out = np.sqrt(a.value)
    return _record(out, [(a, lambda g: g * (0.5 / out))])


def square(a) -> Node:
    a = _as_node(a)
    return _record(a.value * a.value, [(a, lambda g: g * (2.0 * a.value))])


# ---------------------------------------------------------------------------
# Linear algebra and shape ops
# ---------------------------------------------------------------------------

def matmul(a, b) -> Node:
    a, b = _coerce_pair(a, b, "matmul")
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")
    if a.value.shape[-1] != b.value.shape[-2]:
        raise ValueError(f"matmul shape mismatch {a.value.shape} @ {b.value.shape}")
    out = a.value @ b.value

    def vjp_a(g):
        return _unbroadcast(g @ b.value.swapaxes(-1, -2), a.value.shape)

    def vjp_b(g):
        return _unbroadcast(a.value.swapaxes(-1, -2) @ g, b.value.shape)

    return _record(out, [(a, vjp_a), (b, vjp_b)])


def reshape(a, shape) -> Node:
    a = _as_node(a)
    out = a.value.reshape(shape)
    return _record(out, [(a, lambda g: g.reshape(a.value.shape))])


def concat(parts, axis: int = 0) -> Node:
    parts = [_as_node(p) for p in parts]
    out = np.concatenate([p.value for p in parts], axis=axis)
    offsets = np.cumsum([0] + [p.value.shape[axis] for p in parts])

    def make_vjp(i):
        lo, hi = offsets[i], offsets[i + 1]

        def vjp(g):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            return np.ascontiguousarray(g[tuple(idx)])

        return vjp

    return _record(out, [(p, make_vjp(i)) for i, p in enumerate(parts)])


def reduce_sum(a, axis=None, keepdims=False) -> Node:
    a = _as_node(a)
    out = a.value.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.value.shape).astype(a.value.dtype, copy=True)

    return _record(np.asarray(out), [(a, vjp)])


def reduce_mean(a, axis=None, keepdims=False) -> Node:
    """Sum divided by the element count, the same two steps as ``np.mean``."""
    a = _as_node(a)
    total = reduce_sum(a, axis, keepdims)
    return div(total, a.value.size // total.value.size)


def fft_amplitude(x, eps: float) -> Node:
    """sqrt(|F|^2 + eps) on the half-plane of the orthonormal real 2-d DFT F.

    F is ``np.fft.rfft2`` over the last two axes: (..., H, W) -> (..., H,
    W//2 + 1). For real input the dropped columns mirror the kept ones. The
    gradient is the real inverse transform of F * g / amp; ``irfft2`` counts
    each interior column twice (once for its mirror), so those are halved.
    """
    x = _as_node(x)
    h, w = x.value.shape[-2:]
    f = np.fft.rfft2(x.value, norm="ortho")
    amp = np.sqrt(f.real * f.real + f.imag * f.imag + eps)

    def vjp(g):
        z = f * (g / amp)
        z[..., 1:(w + 1) // 2] *= 0.5
        return np.fft.irfft2(z, s=(h, w), norm="ortho").astype(x.value.dtype, copy=False)

    return _record(amp.astype(x.value.dtype), [(x, vjp)])


# ---------------------------------------------------------------------------
# Spatial ops (4-d layout: batch, channels, height, width)
# ---------------------------------------------------------------------------

def _window(size: int, offset: int, stride: int, padding: int, out: int):
    """Along one axis, the output slice whose input index ``o * stride + offset
    - padding`` falls inside [0, size), and the input slice it reads."""
    lo = max(0, -((offset - padding) // stride))
    hi = max(lo, min(out, (size - 1 + padding - offset) // stride + 1))
    start = lo * stride + offset - padding
    return slice(lo, hi), slice(start, start + stride * (hi - lo), stride)


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int):
    """(C*kh*kw, N*Ho*Wo) patch columns, the batch folded into the column axis.
    With padding they start at zero and only reads inside the image are copied."""
    n, c, h, w = x.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    cols = (np.zeros if padding else np.empty)((c, kh, kw, n, ho, wo), dtype=x.dtype)
    xc = x.transpose(1, 0, 2, 3)
    for i in range(kh):
        out_r, in_r = _window(h, i, stride, padding, ho)
        for j in range(kw):
            out_c, in_c = _window(w, j, stride, padding, wo)
            cols[:, i, j, :, out_r, out_c] = xc[:, :, in_r, in_c]
    return cols.reshape(c * kh * kw, n * ho * wo), ho, wo


def _col2im(dcols: np.ndarray, xshape, kh: int, kw: int, stride: int, padding: int,
            ho: int, wo: int):
    """Scatter-add patch-column gradients onto an (N, C, H, W) input gradient;
    what falls on the padding is dropped."""
    n, c, h, w = xshape
    dcols = dcols.reshape(c, kh, kw, n, ho, wo)
    dx = np.zeros((n, c, h, w), dtype=dcols.dtype)
    for i in range(kh):
        out_r, in_r = _window(h, i, stride, padding, ho)
        for j in range(kw):
            out_c, in_c = _window(w, j, stride, padding, wo)
            dx[:, :, in_r, in_c] += dcols[:, i, j, :, out_r, out_c].transpose(1, 0, 2, 3)
    return dx


def conv2d(x, w, b, stride: int = 1, padding: int = 0) -> Node:
    """2-d convolution (cross-correlation) plus bias: input (N, Cin, H, W),
    weight (Cout, Cin, kh, kw), bias (Cout,).

    Zero padding lives in the patch gather and scatter, never in a padded
    copy. The batch is folded into the GEMM column axis: one (Cout, K) @ (K,
    N*Ho*Wo) product forward, and one each for the weight and input
    gradients, so dW is summed over the batch inside the GEMM.
    """
    x, w, b = _as_node(x), _as_node(w), _as_node(b)
    if x.value.ndim != 4 or w.value.ndim != 4:
        raise ValueError("conv2d expects 4-d input and weight")
    if x.value.shape[1] != w.value.shape[1]:
        raise ValueError(
            f"conv2d channel mismatch: input {x.value.shape[1]} vs weight {w.value.shape[1]}")
    n, cin, h, wd = x.value.shape
    cout, _, kh, kw = w.value.shape
    if b.value.shape != (cout,):
        raise ValueError(f"conv2d bias must have shape ({cout},), got {b.value.shape}")
    p = padding
    if h + 2 * p < kh or wd + 2 * p < kw:
        raise ValueError(f"conv2d padded input {h + 2 * p}x{wd + 2 * p} < kernel {kh}x{kw}")
    cols, ho, wo = _im2col(x.value, kh, kw, stride, p)
    w_flat = w.value.reshape(cout, cin * kh * kw)
    y = w_flat @ cols
    y += b.value[:, None]
    y = np.ascontiguousarray(y.reshape(cout, n, ho, wo).transpose(1, 0, 2, 3))

    def g_cols(g):
        return g.transpose(1, 0, 2, 3).reshape(cout, n * ho * wo)

    def vjp_x(g):
        return _col2im(w_flat.T @ g_cols(g), x.value.shape, kh, kw, stride, p, ho, wo)

    def vjp_w(g):
        return (g_cols(g) @ cols.T).reshape(w.value.shape)

    return _record(y, [(x, vjp_x), (w, vjp_w), (b, lambda g: g.sum(axis=(0, 2, 3)))])


def upsample_nearest(a, factor: int) -> Node:
    a = _as_node(a)
    out = a.value.repeat(factor, axis=-2).repeat(factor, axis=-1)

    def vjp(g):
        s = g.shape
        g = g.reshape(*s[:-2], s[-2] // factor, factor, s[-1] // factor, factor)
        return g.sum(axis=(-3, -1))

    return _record(out, [(a, vjp)])


def pixel_shuffle(a, r: int) -> Node:
    """(N, C*r*r, H, W) -> (N, C, H*r, W*r), depth-to-space."""
    a = _as_node(a)
    n, crr, h, w = a.value.shape
    if crr % (r * r):
        raise ValueError(f"pixel_shuffle: channel count {crr} not divisible by {r * r}")
    c = crr // (r * r)
    out = (a.value.reshape(n, c, r, r, h, w)
           .transpose(0, 1, 4, 2, 5, 3)
           .reshape(n, c, h * r, w * r))

    def vjp(g):
        return np.ascontiguousarray(
            g.reshape(n, c, h, r, w, r).transpose(0, 1, 3, 5, 2, 4).reshape(n, crr, h, w))

    return _record(np.ascontiguousarray(out), [(a, vjp)])


# ---------------------------------------------------------------------------
# Composites
# ---------------------------------------------------------------------------

def layer_norm(x, gamma, beta) -> Node:
    """Normalize over axis 1, the channel axis of (N, C) tokens and of
    (N, C, H, W) maps, then scale and shift by the (C,) gamma and beta."""
    x = _as_node(x)
    mu = reduce_mean(x, axis=1, keepdims=True)
    xc = sub(x, mu)
    var = reduce_mean(square(xc), axis=1, keepdims=True)
    xn = div(xc, sqrt(add(var, 1e-5)))
    per_channel = (-1,) + (1,) * (x.value.ndim - 2)
    return add(mul(xn, reshape(gamma, per_channel)), reshape(beta, per_channel))


def avg_pool2d(a, k: int) -> Node:
    """Mean over each k x k window of an (N, C, H, W) map: ``reduce_mean``
    over the window axes of a reshaped view, the same steps as ``np.mean``."""
    a = _as_node(a)
    n, c, h, w = a.value.shape
    if h % k or w % k:
        raise ValueError(f"avg_pool2d: spatial size {(h, w)} not divisible by {k}")
    return reduce_mean(reshape(a, (n, c, h // k, k, w // k, k)), axis=(3, 5))


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x) -> Node:
    """Tanh-form gaussian error linear unit (primitive; analytic gradient)."""
    x = _as_node(x)
    v = x.value
    th = np.tanh(_GELU_C * (v + 0.044715 * v * v * v))
    out = (0.5 * v * (1.0 + th)).astype(v.dtype, copy=False)

    def vjp(g):
        sech2 = 1.0 - th * th
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * v * v)
        return g * (0.5 * (1.0 + th) + 0.5 * v * sech2 * d_inner)

    return _record(out, [(x, vjp)])

