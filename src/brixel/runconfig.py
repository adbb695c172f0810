"""Flat key=value run configuration covering every tunable of a run.

Unknown keys are rejected outright so typos cannot silently fall back to
defaults. The resolved form (every key with its final value) is written
into each run directory and checkpoint, making artifacts self-describing.
"""

from __future__ import annotations

import math
from dataclasses import asdict, fields
from pathlib import Path
from typing import get_origin, get_type_hints

from .errors import ConfigError
from .losses import r_max_for_grid
from .refiner import PYRAMID_STRIDES, AdapterConfig
from .training import DistillConfig
from .vit import ViTConfig

_SECTIONS = (ViTConfig, AdapterConfig, DistillConfig)
# each field of a section class is one config key, parsed as its annotated type
_KEY_TYPES = {f.name: get_type_hints(cls)[f.name] for cls in _SECTIONS for f in fields(cls)}


def _check_known(key: str) -> None:
    if key not in _KEY_TYPES:
        raise ConfigError(f"unknown config key {key!r}")


def _parse_value(key: str, raw: str):
    kind = _KEY_TYPES[key]
    try:
        if get_origin(kind) is tuple:
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
        _check_known(key)
        values[key] = _parse_value(key, raw.strip())
    return values


class RunConfig:
    """ViT + adapter + distillation settings resolved from one text file."""

    def __init__(self, values: dict | None = None):
        values = dict(values or {})
        for key in values:
            _check_known(key)
        try:
            self.vit, self.adapter, self.distill = (
                cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values})
                for cls in _SECTIONS)
            t_grid = self.distill.teacher_resolution // self.vit.patch_size
            r0 = self.distill.spectral_config(t_grid, t_grid).r0
            if t_grid < 3:  # the edge loss runs a 3x3 Sobel window over the teacher grid
                raise ConfigError(f"teacher grid {t_grid}x{t_grid} (teacher_resolution/patch_size) "
                                  "is smaller than the 3x3 Sobel window of the edge loss")
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
                raise ConfigError(f"student_resolution={side} with {patch_size=}: backbone grid "
                                  f"{grid} and pyramid levels {levels} must divide one another")
            r_max = r_max_for_grid(t_grid, t_grid)
            if r0 > r_max:
                raise ConfigError(f"r0={r0} leaves no spectrum radii <= r_max={r_max} "
                                  f"on the {t_grid}x{t_grid} teacher grid")
            pooled = self.distill.batch_size * t_grid * t_grid  # teacher tokens one PCA fit sees
            if self.distill.pca_k > min(self.vit.embed_dim, pooled):
                raise ConfigError(f"pca_k={self.distill.pca_k} must be <= embed_dim="
                                  f"{self.vit.embed_dim} and <= the {pooled} teacher tokens "
                                  "one batch pools (batch_size * teacher grid cells)")
        except ConfigError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:  # wrong types or huge ints in code
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
        return cls(parse_config_text(text))

    def with_distill(self, **overrides) -> "RunConfig":
        values = self.as_dict()
        values.update(overrides)
        return RunConfig(values)

    def as_dict(self) -> dict:
        return {**asdict(self.vit), **asdict(self.adapter), **asdict(self.distill)}

    def resolved_text(self) -> str:
        lines = []
        for key, value in sorted(self.as_dict().items()):
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key}={value}")
        return "\n".join(lines) + "\n"
