import numpy as np
import pytest

from brixel import autodiff as ad
from brixel.refiner import (
    AdapterConfig,
    adapter_forward,
    head_forward,
    init_student,
    student_feature_map,
    student_forward,
)
from brixel.tensors import F32, FeatureMap, ImageTensor
from brixel.vit import ViTConfig, init_backbone, vit_forward

VIT = ViTConfig(patch_size=8, embed_dim=16, depth=1, heads=2)
ADA = AdapterConfig(pyramid_channels=(8, 8, 8), fusion_channels=16, head_blocks=3)


def rand_image(rng, h, w):
    return ImageTensor(rng.random((3, h, w)).astype(F32))


def test_adapter_config_validation():
    with pytest.raises(ValueError):
        AdapterConfig(head_blocks=0)
    with pytest.raises(ValueError):
        AdapterConfig(upsample_factor=3)
    assert AdapterConfig(upsample_factor=4).upsample_stages == 2


def test_pyramid_level_sizes():
    params = init_student(VIT, ADA, seed=0)
    levels = adapter_forward(rand_image(np.random.default_rng(0), 64, 64).data[None], ADA,
                             params.as_nodes())
    assert [l.value[0].shape for l in levels] == [(8, 16, 16), (8, 8, 8), (8, 4, 4)]


def test_adapter_rejects_indivisible_sides():
    params = init_student(VIT, ADA, seed=0)
    with pytest.raises(ValueError):
        adapter_forward(rand_image(np.random.default_rng(0), 40, 64).data[None], ADA,
                        params.as_nodes())


def test_zero_image_levels_finite():
    params = init_student(VIT, ADA, seed=1)
    img = ImageTensor(np.zeros((3, 32, 32), dtype=F32))
    for lvl in adapter_forward(img.data[None], ADA, params.as_nodes()):
        assert np.all(np.isfinite(lvl.value[0]))


def test_receptive_field_locality_of_stride4_level():
    params = init_student(VIT, ADA, seed=2)
    rng = np.random.default_rng(3)
    base = rng.random((3, 64, 64)).astype(F32) * 0.5
    pert = base.copy()
    y, x = 33, 18
    pert[:, y, x] = np.clip(pert[:, y, x] + 0.3, 0, 1)
    l0 = adapter_forward(base[None], ADA, params.as_nodes())[0].value[0]
    l1 = adapter_forward(pert[None], ADA, params.as_nodes())[0].value[0]
    changed = np.any(np.abs(l1 - l0) > 0, axis=0)
    ys, xs = np.nonzero(changed)
    assert ys.size > 0  # the perturbation is visible
    assert np.all(np.abs(ys - y // 4) <= 2)
    assert np.all(np.abs(xs - x // 4) <= 2)


def test_head_output_is_teacher_grid():
    params = init_student(VIT, ADA, seed=4)
    rng = np.random.default_rng(5)
    img = rand_image(rng, 64, 64)
    backbone = vit_forward(img, VIT, init_backbone(VIT, seed=0))
    assert backbone.grid == (8, 8)
    nodes = params.as_nodes()
    pyramid = adapter_forward(img.data[None], ADA, nodes)
    out = head_forward(backbone.data[None], pyramid, ADA, nodes)
    assert out.value[0].shape == (16, 32, 32)


def test_gradient_reaches_every_student_tensor():
    params = init_student(VIT, ADA, seed=6)
    frozen = init_backbone(VIT, seed=0)
    img = rand_image(np.random.default_rng(7), 64, 64)
    with ad.Tape() as tape:
        nodes = params.as_nodes()
        out = student_forward(img, vit_forward(img, VIT, frozen), ADA, nodes)
        tape.backward(ad.reduce_mean(ad.square(out)))
    for name, node in nodes.items():
        assert node.grad is not None, f"no gradient for {name}"
        assert np.all(np.isfinite(node.grad)), f"non-finite gradient for {name}"
        assert np.any(node.grad != 0), f"all-zero gradient for {name}"


def test_bypass_initialization_reproduces_nearest_upsampled_backbone():
    params = init_student(VIT, ADA, seed=8)
    for name in ("head.out.w", "head.out.b"):
        params.tensors[name] = np.zeros_like(params.tensors[name])
    rng = np.random.default_rng(9)
    backbone = FeatureMap(rng.standard_normal((16, 8, 8)).astype(F32))
    img = rand_image(rng, 64, 64)
    nodes = params.as_nodes()
    pyramid = adapter_forward(img.data[None], ADA, nodes)
    out = head_forward(backbone.data[None], pyramid, ADA, nodes).value[0]
    nearest = backbone.data.repeat(4, axis=1).repeat(4, axis=2)
    assert np.array_equal(out, nearest)


def test_student_forward_grid_and_determinism():
    params = init_student(VIT, ADA, seed=10)
    frozen = init_backbone(VIT, seed=1)
    img = rand_image(np.random.default_rng(11), 64, 64)
    a = student_feature_map(img, VIT, ADA, frozen, params)
    b = student_feature_map(img, VIT, ADA, frozen, params)
    assert a.grid == (32, 32)  # 4x the 8x8 backbone grid
    assert a.data.tobytes() == b.data.tobytes()


def test_changing_adapter_params_changes_output():
    frozen = init_backbone(VIT, seed=1)
    img = rand_image(np.random.default_rng(12), 64, 64)
    out_a = student_feature_map(img, VIT, ADA, frozen, init_student(VIT, ADA, seed=13))
    out_b = student_feature_map(img, VIT, ADA, frozen, init_student(VIT, ADA, seed=14))
    assert not np.array_equal(out_a.data, out_b.data)


def test_head_depends_on_backbone_only_through_its_argument():
    # with a pinned backbone_fm, swapping backbone weights cannot move the head
    params = init_student(VIT, ADA, seed=15)
    rng = np.random.default_rng(16)
    img = rand_image(rng, 64, 64)
    fixed_fm = FeatureMap(rng.standard_normal((16, 8, 8)).astype(F32))
    nodes = params.as_nodes()
    pyramid = adapter_forward(img.data[None], ADA, nodes)
    out1 = head_forward(fixed_fm.data[None], pyramid, ADA, nodes).value[0]
    pyramid = adapter_forward(img.data[None], ADA, nodes)
    out2 = head_forward(fixed_fm.data[None], pyramid, ADA, nodes).value[0]
    assert np.array_equal(out1, out2)


def test_head_channel_mismatch_rejected():
    params = init_student(VIT, ADA, seed=17)
    rng = np.random.default_rng(18)
    img = rand_image(rng, 64, 64)
    nodes = params.as_nodes()
    pyramid = adapter_forward(img.data[None], ADA, nodes)
    wrong = FeatureMap(rng.standard_normal((12, 8, 8)).astype(F32))
    with pytest.raises(ValueError):
        head_forward(wrong.data[None], pyramid, ADA, nodes)


def test_student_params_disjoint_from_backbone():
    params = init_student(VIT, ADA, seed=19)
    frozen = init_backbone(VIT, seed=19)
    assert params.trainable and not frozen.trainable
    assert not set(params.names()) & set(frozen.names())
