"""Named parameter collections with a frozen/trainable flag."""

from __future__ import annotations

import hashlib

import numpy as np

from . import autodiff as ad


class ModelParams:
    """An ordered name -> array mapping.

    Frozen collections (``trainable=False``) never receive gradients or
    optimizer updates; the trainer enforces this and tests pin it down by
    hashing the contents before and after training.
    """

    def __init__(self, tensors: dict[str, np.ndarray], trainable: bool):
        self.tensors = dict(tensors)
        self.trainable = trainable

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def names(self):
        return list(self.tensors.keys())

    def items(self):
        return self.tensors.items()

    def content_hash(self) -> str:
        """SHA-256 over names, shapes, dtypes and raw bytes."""
        h = hashlib.sha256()
        for name in sorted(self.tensors):
            t = np.ascontiguousarray(self.tensors[name])
            h.update(name.encode())
            h.update(str(t.shape).encode())
            h.update(str(t.dtype).encode())
            h.update(t.tobytes())
        return h.hexdigest()

    def as_nodes(self) -> dict[str, ad.Node]:
        """Lift to graph leaves: parameters if trainable, constants otherwise."""
        if self.trainable:
            return {k: ad.parameter(v) for k, v in self.tensors.items()}
        return {k: ad.constant(v) for k, v in self.tensors.items()}

    def copy(self) -> "ModelParams":
        return ModelParams({k: v.copy() for k, v in self.tensors.items()}, self.trainable)
