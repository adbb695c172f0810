"""Flat key=value run configuration covering every tunable of a run.

Unknown keys are rejected outright so typos cannot silently fall back to
defaults. The resolved form (every key with its final value) is written
into each run directory and checkpoint, making artifacts self-describing.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import ConfigError
from .losses import r_max_for_grid
from .refiner import PYRAMID_STRIDES, AdapterConfig
from .training import DistillConfig
from .vit import ViTConfig

_VIT_KEYS = {
    "patch_size": int, "embed_dim": int, "depth": int, "heads": int, "mlp_ratio": float,
}
_ADAPTER_KEYS = {
    "pyramid_channels": "int_tuple", "fusion_channels": int,
    "head_blocks": int, "upsample_factor": int,
}
_DISTILL_KEYS = {
    "student_resolution": int, "downsample_factor": int, "lambda_edge": float,
    "lambda_spectral": float, "pca_k": int, "lr": float, "warmup_epochs": float,
    "total_iters": int, "batch_size": int, "dataset_size": int, "seed": int,
    "teacher_source": str, "r0": int, "eps_log": float, "grad_clip": float,
}
ALL_KEYS = {**_VIT_KEYS, **_ADAPTER_KEYS, **_DISTILL_KEYS}


def _parse_value(key: str, raw: str):
    kind = ALL_KEYS[key]
    try:
        if kind == "int_tuple":
            return tuple(int(x) for x in raw.split(","))
        value = kind(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse value {raw!r}") from exc
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"config key {key!r}: value {raw!r} is not finite")
    return value


def parse_config_text(text: str) -> dict:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in ALL_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _parse_value(key, raw.strip())
    return values


class RunConfig:
    """ViT + adapter + distillation settings resolved from one text file."""

    def __init__(self, values: dict | None = None):
        values = dict(values or {})
        try:
            self.vit = ViTConfig(**{k: values.pop(k) for k in list(values) if k in _VIT_KEYS})
            self.adapter = AdapterConfig(
                **{k: values.pop(k) for k in list(values) if k in _ADAPTER_KEYS})
            self.distill = DistillConfig(**values)
            # build the loss settings train_step builds, on the teacher grid
            self.distill.loss_weights()
            t_grid = self.distill.teacher_resolution // self.vit.patch_size
            r0 = self.distill.spectral_config(t_grid, t_grid).r0
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc
        up, down = self.adapter.upsample_factor, self.distill.downsample_factor
        if up != down:  # the student's output grid is the teacher's only when they match
            raise ConfigError(f"upsample_factor={up} must equal downsample_factor={down}")
        side, patch_size = self.distill.student_resolution, self.vit.patch_size
        if side % 16 or side % patch_size:  # adapter_forward needs sides divisible by 16
            raise ConfigError(f"student_resolution={side} must be a multiple of 16 "
                              f"and of {patch_size=}")
        grid = side // patch_size  # head_forward pools or repeats each level onto this grid
        levels = [side // s for s in PYRAMID_STRIDES]
        if any(max(n, grid) % min(n, grid) for n in levels):
            raise ConfigError(f"student_resolution={side} with {patch_size=}: the backbone grid "
                              f"{grid} and the pyramid levels {levels} must divide one another")
        r_max = r_max_for_grid(t_grid, t_grid)
        if r0 > r_max:
            raise ConfigError(f"r0={r0} leaves no spectrum radii <= r_max={r_max} "
                              f"on the {t_grid}x{t_grid} teacher grid")
        if self.distill.pca_k > self.vit.embed_dim:
            raise ConfigError(f"pca_k={self.distill.pca_k} must be <= embed_dim="
                              f"{self.vit.embed_dim}")

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        return cls(parse_config_text(path.read_text()))

    def with_distill(self, **overrides) -> "RunConfig":
        values = self.as_dict()
        values.update(overrides)
        return RunConfig(values)

    def as_dict(self) -> dict:
        out = {}
        for owner, keys in ((self.vit, _VIT_KEYS), (self.adapter, _ADAPTER_KEYS),
                            (self.distill, _DISTILL_KEYS)):
            for key in keys:
                out[key] = getattr(owner, key)
        return out

    def resolved_text(self) -> str:
        lines = []
        for key in sorted(self.as_dict()):
            value = self.as_dict()[key]
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key}={value}")
        return "\n".join(lines) + "\n"
