"""Spans and per-op counters recorded around calls into brixel, from outside.

The tracer edits no brixel source. While installed it replaces module
attributes (and two ``Tape`` methods) with timing wrappers, and puts the
originals back when uninstalled. One traced run gives two views:

* A span tree. Every call of a patched phase function (teacher, student
  backbone, adapter, head, each loss term, PCA, backward, Adam, ...) and
  every ``call()`` the benchmark makes itself opens a span. A span's self
  time is its duration minus the durations of its child spans, so the self
  times under one root span sum to that root's duration exactly.
* A flat table over the autodiff primitives. Forward time is taken on the
  outermost op call only: ops run inside another op (the primitives of
  ``softmax``, the ``pad2d`` inside ``conv2d``) count toward the outer op.
  Backward time is taken by wrapping the VJP closure of every tape node
  recorded while that outer op ran. Op time also lies inside the phase
  spans' self time: the table and the tree are two cuts of the same seconds.

FLOPs are computed, not counted by hardware: conv2d and matmul MACs come
from operand shapes, one multiply-accumulate counted as two FLOPs.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from collections import defaultdict

from brixel import autodiff, losses, refiner, training

perf_counter = time.perf_counter

# Call sites inside brixel whose callee is a phase. Each attribute is patched
# in the module that calls it, so the teacher's own ``vit_forward`` (a global
# of ``brixel.vit``) stays inside the ``vit.teacher_features`` span. Calls the
# benchmark makes itself go through ``Tracer.call`` instead, which is why no
# attribute it calls is patched here (that would nest a span in its twin).
PHASE_SITES = (
    (training, ("teacher_features", "resize_bilinear", "fit_pca", "vit_forward",
                "adapter_forward", "head_forward", "loss_breakdown", "clip_gradients",
                "adam_step")),
    (losses, ("l1_loss", "edge_loss", "spectral_loss")),
    (refiner, ("vit_forward", "adapter_forward", "head_forward", "student_forward")),
)

# Public autodiff functions that build no op node.
NOT_OPS = {"constant", "parameter", "detach", "as_node", "global_grad_norm"}


def layer_name(fn) -> str:
    """``brixel.vit.teacher_features`` -> ``vit.teacher_features``."""
    return f"{fn.__module__.removeprefix('brixel.')}.{fn.__qualname__}"


def autodiff_ops() -> list[str]:
    return sorted(name for name, fn in vars(autodiff).items()
                  if inspect.isfunction(fn) and fn.__module__ == autodiff.__name__
                  and not name.startswith("_") and name not in NOT_OPS)


def _shape(x):
    return getattr(x, "value", x).shape


def _macs(op: str, args, out) -> int:
    """Multiply-accumulates of one conv2d or matmul call, from operand shapes."""
    if op == "conv2d":
        _, cin, kh, kw = _shape(args[1])
        return out.value.size * cin * kh * kw
    if op == "matmul":
        return out.value.size * _shape(args[0])[-1]
    return 0


class OpStats:
    __slots__ = ("fwd_s", "fwd_calls", "fwd_macs", "bwd_s", "bwd_calls", "bwd_macs")

    def __init__(self):
        self.fwd_s = self.bwd_s = 0.0
        self.fwd_calls = self.fwd_macs = self.bwd_calls = self.bwd_macs = 0

    def add(self, other: "OpStats") -> None:
        for f in self.__slots__:
            setattr(self, f, getattr(self, f) + getattr(other, f))


class Tracer:
    """Collects spans while installed; ``take_stats`` drains the aggregates."""

    def __init__(self):
        self.t0 = perf_counter()
        self.spans: list[tuple] = []  # (id, parent id, step, name, start s, end s)
        self.step = -1
        self.active = False
        self._stack: list[list] = []  # open spans: [id, name, start, child seconds]
        self._next_id = 0
        self._tape = None
        self._op_depth = 0
        self._reset_stats()

    def _reset_stats(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.ops: dict[str, OpStats] = defaultdict(OpStats)
        self.tape_nodes = 0

    def take_stats(self) -> dict:
        stats = {"self_s": dict(self.self_s), "calls": dict(self.calls),
                 "ops": dict(self.ops), "tape_nodes": self.tape_nodes}
        self._reset_stats()
        return stats

    # -- spans -----------------------------------------------------------------
    def _open(self, name: str):
        self._stack.append([self._next_id, name, perf_counter(), 0.0])
        self._next_id += 1

    def _close(self):
        end = perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        parent = -1
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        self.spans.append((sid, parent, self.step, name, start - self.t0, end - self.t0))
        self.self_s[name] += dur - child
        self.calls[name] += 1

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span named ``name`` when installed."""
        if not self.active:
            return fn(*args, **kwargs)
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def _phase(self, fn):
        name = layer_name(fn)

        def traced(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return traced

    # -- autodiff ops ----------------------------------------------------------
    def _op(self, fn, name: str):
        def traced(*args, **kwargs):
            if self._op_depth:
                return fn(*args, **kwargs)
            tape = self._tape
            first = len(tape.nodes) if tape is not None else 0
            self._op_depth = 1
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._op_depth = 0
            st = self.ops[name]
            st.fwd_s += perf_counter() - start
            st.fwd_calls += 1
            macs = _macs(name, args, out)
            st.fwd_macs += macs
            if tape is not None:
                # only the op's own output node carries the GEMM operands (a, b)
                # or (x, w) as its first two parents
                for node in tape.nodes[first:]:
                    node.parents = tuple(
                        (parent, self._timed_vjp(vjp, st, macs if node is out and i < 2 else 0))
                        for i, (parent, vjp) in enumerate(node.parents))
            return out

        return traced

    @staticmethod
    def _timed_vjp(vjp, st: OpStats, macs: int):
        def timed(g):
            start = perf_counter()
            out = vjp(g)
            st.bwd_s += perf_counter() - start
            st.bwd_calls += 1
            st.bwd_macs += macs
            return out

        return timed

    def _tape_methods(self):
        enter, backward = autodiff.Tape.__enter__, autodiff.Tape.backward

        def traced_enter(tape):
            self._tape = tape
            return enter(tape)

        def traced_backward(tape, root):
            self.tape_nodes += len(tape.nodes)
            self._tape = None
            self._open("autodiff.Tape.backward")
            try:
                return backward(tape, root)
            finally:
                self._close()

        return {"__enter__": traced_enter, "backward": traced_backward}

    # -- install / uninstall ---------------------------------------------------
    @contextlib.contextmanager
    def installed(self):
        """Patch brixel for the duration of the block; always restores it."""
        patches = []
        for module, attrs in PHASE_SITES:
            patches += [(module, a, self._phase(getattr(module, a))) for a in attrs]
        patches += [(autodiff, op, self._op(getattr(autodiff, op), op))
                    for op in autodiff_ops()]
        patches += [(autodiff.Tape, a, f) for a, f in self._tape_methods().items()]
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, fn in patches:
                setattr(obj, attr, fn)
            self.active = True
            yield self
        finally:
            self.active = False
            self._tape = None
            for obj, attr, fn in saved:
                setattr(obj, attr, fn)

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            f.write("id\tparent\tstep\tname\tstart_s\tend_s\n")
            for sid, parent, step, name, start, end in self.spans:
                f.write(f"{sid}\t{parent}\t{step}\t{name}\t{start!r}\t{end!r}\n")
