import math
from typing import get_origin

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brixel.errors import ConfigError
from brixel.runconfig import _KEY_TYPES, RunConfig, parse_config_text
from brixel.training import warmup_lr

_INTS = st.one_of(st.integers(-4, 300), st.sampled_from([2 ** 31, 2 ** 63, 10 ** 30]))
_FLOATS = st.one_of(st.floats(-4, 300), st.floats(),
                    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]))
_STRINGS = st.one_of(st.sampled_from(["live", "file:", "file:teachers"]), st.text(max_size=8))


def _values_of(kind):
    if get_origin(kind) is tuple:
        return st.lists(_INTS, max_size=4).map(tuple)
    return {int: _INTS, float: _FLOATS, str: _STRINGS}[kind]


# any subset of the config keys, each with a value of its parse type
_FLAT_CONFIGS = st.fixed_dictionaries(
    {}, optional={key: _values_of(kind) for key, kind in _KEY_TYPES.items()})


def test_defaults_match_training_setup():
    cfg = RunConfig()
    assert cfg.vit.patch_size == 8
    assert cfg.vit.embed_dim == 32
    assert cfg.vit.depth == 2
    assert cfg.distill.student_resolution == 64
    assert cfg.distill.teacher_resolution == 256
    assert cfg.distill.lambda_edge == 1.0
    assert cfg.distill.lambda_spectral == 0.1
    assert cfg.distill.pca_k == 8
    assert cfg.distill.lr == 1e-3
    assert cfg.distill.warmup_epochs == 1.0
    assert cfg.adapter.head_blocks == 3
    assert cfg.adapter.upsample_factor == 4


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="frobnicate"):
        parse_config_text("frobnicate=3\n")


def test_runconfig_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key 'frobnicate'"):
        RunConfig({"frobnicate": 1})
    with pytest.raises(ConfigError, match="unknown config key 'frobnicate'"):
        RunConfig().with_distill(frobnicate=1)


def test_parse_rejects_malformed_lines():
    with pytest.raises(ConfigError, match="key=value"):
        parse_config_text("just some words\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config_text("depth=two\n")


def test_parse_comments_and_blanks():
    values = parse_config_text("# hello\n\nseed=9\npyramid_channels=8,16,16\n")
    assert values == {"seed": 9, "pyramid_channels": (8, 16, 16)}


def test_resolved_roundtrip_is_stable(tmp_path):
    cfg = RunConfig({"seed": 4, "embed_dim": 16, "heads": 2, "fusion_channels": 24})
    text = cfg.resolved_text()
    p = tmp_path / "resolved.cfg"
    p.write_text(text)
    again = RunConfig.from_file(p)
    assert again.as_dict() == cfg.as_dict()
    assert again.resolved_text() == text


def test_invalid_combination_becomes_config_error():
    with pytest.raises(ConfigError):
        RunConfig({"embed_dim": 30, "heads": 4})


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        RunConfig.from_file("/nonexistent/run.cfg")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_FLAT_CONFIGS)
def test_any_flat_config_resolves_or_is_refused(values):
    # a config the constructor accepts must also pass everything a run
    # evaluates from it before and during step 0; no model is built here
    try:
        cfg = RunConfig(values)
    except ConfigError:
        return
    d = cfg.distill
    grid = d.teacher_resolution // cfg.vit.patch_size
    cfg.resolved_text()
    d.loss_weights()
    d.spectral_config(grid, grid)
    for iteration in (0, 1, d.warmup_iters):
        warmup_lr(iteration, d)
