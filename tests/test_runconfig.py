import pytest

from brixel.errors import ConfigError
from brixel.runconfig import RunConfig, parse_config_text


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
