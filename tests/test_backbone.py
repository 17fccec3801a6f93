"""Feature-extractor structure, stride arithmetic, and weight import."""

import weakref

import numpy as np
import pytest

from s2fpn import Tensor, no_grad, ops
from s2fpn.analysis import count_params
from s2fpn.backbone import STAGE_WIDTHS, build_backbone
from s2fpn.errors import CheckpointError, ConfigError, DataError
from s2fpn.model import S2FPN
from s2fpn.serialize import load_model, read_checkpoint, write_checkpoint


def forward(bb, h, w, seed=0):
    x = Tensor(np.random.default_rng(seed).standard_normal((1, 3, h, w)).astype(np.float32))
    with no_grad():
        return bb(x)


def test_unknown_variant_rejected():
    with pytest.raises(ConfigError, match="unknown backbone"):
        build_backbone("r50")


def test_r18_parameter_total_near_11_2m():
    bb = build_backbone("r18")
    total = count_params(bb).total_params
    assert abs(total - 11.2e6) / 11.2e6 < 0.02


def test_r34_block_counts():
    bb = build_backbone("r34")
    assert [getattr(bb, f"layer{i}").count for i in range(1, 5)] == [3, 4, 6, 3]


# each tap's downsampling factor, read off its shape as input side // tap side
TAP_STRIDES = {"r18": (4, 8, 16, 32), "r34": (4, 8, 16, 32), "r34m": (4, 4, 8, 16)}


def tap_strides(feats, h, w):
    return [(h // f.shape[2], w // f.shape[3]) for f in feats]


def test_strides_per_variant():
    for variant, strides in TAP_STRIDES.items():
        feats = forward(build_backbone(variant).eval(), 64, 128)
        assert tap_strides(feats, 64, 128) == [(s, s) for s in strides]


@pytest.mark.parametrize("variant,size", [("r18", (64, 96)), ("r18", (96, 160)), ("r34m", (64, 128))])
def test_stride_arithmetic(variant, size):
    bb = build_backbone(variant).eval()
    h, w = size
    feats = forward(bb, h, w)
    strides = TAP_STRIDES[variant]
    assert tap_strides(feats, h, w) == [(s, s) for s in strides]
    for f, stride, c in zip(feats, strides, STAGE_WIDTHS):
        assert f.shape == (1, c, h // stride, w // stride)


def test_stem_activation_dies_inside_the_backbone(monkeypatch):
    # the stem ReLU output feeds only the max-pool and is no tap: under
    # no_grad nothing holds it once the backbone returns its four taps
    model = S2FPN("r18", 64, 5, seed=0).eval()
    x = Tensor(np.random.default_rng(2).standard_normal((1, 3, 64, 64)).astype(np.float32))
    pooled = []
    max_pool = ops.max_pool

    def spy(x, *args):
        pooled.append(x)
        return max_pool(x, *args)

    monkeypatch.setattr(ops, "max_pool", spy)
    with no_grad():
        features = model.backbone(x)
    [stem_out] = pooled
    stem = weakref.ref(stem_out.data)
    del pooled, stem_out
    assert stem() is None
    assert [f.shape[1] for f in features] == [64, 128, 256, 512]


def test_r34m_f5_doubles_r34():
    f34 = forward(build_backbone("r34").eval(), 64, 128)
    f34m = forward(build_backbone("r34m").eval(), 64, 128)
    assert f34m.f5.shape[2] == 2 * f34.f5.shape[2]
    assert f34m.f5.shape[3] == 2 * f34.f5.shape[3]
    for name in ("f3", "f4", "f5"):
        a, b = getattr(f34, name), getattr(f34m, name)
        assert b.shape[2] == 2 * a.shape[2] and b.shape[3] == 2 * a.shape[3]


def test_indivisible_input_names_requirement():
    # the frame rule belongs to the network; a standalone backbone runs at any size
    with pytest.raises(DataError, match="divisible by 32"):
        forward(S2FPN("r18", 32, 3, seed=0).eval(), 60, 128)
    with pytest.raises(DataError, match="divisible by 16"):
        forward(S2FPN("r34m", 32, 3, seed=0).eval(), 56, 120)


def test_fresh_model_eval_zero_input_finite():
    bb = build_backbone("r18").eval()
    x = Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32))
    with no_grad():
        feats = bb(x)
    for f in feats:
        assert np.all(np.isfinite(f.data))


def test_parameter_counts_match_closed_form():
    bb = build_backbone("r18")
    per_stage = {}
    for name, p in bb.named_parameters():
        group = name.split(".")[0]
        per_stage[group] = per_stage.get(group, 0) + p.size

    def block(cin, cout, downsample):
        convs = cout * cin * 9 + cout * cout * 9
        bns = 4 * cout
        if downsample:
            convs += cout * cin
            bns += 2 * cout
        return convs + bns

    assert per_stage["stem_conv"] == 64 * 3 * 49
    assert per_stage["stem_bn"] == 128
    assert per_stage["layer1"] == 2 * block(64, 64, False)
    assert per_stage["layer2"] == block(64, 128, True) + block(128, 128, False)
    assert per_stage["layer3"] == block(128, 256, True) + block(256, 256, False)
    assert per_stage["layer4"] == block(256, 512, True) + block(512, 512, False)


def test_r34_and_r34m_counts_identical():
    assert count_params(build_backbone("r34")).total_params == count_params(
        build_backbone("r34m")
    ).total_params


class TestImportWeights:
    def test_round_trip_bit_identical(self, tmp_path):
        bb = build_backbone("r18")
        bb.assign_parameter_names()
        before = forward(bb.eval(), 32, 32, seed=3).f5.data.copy()
        path = tmp_path / "bb.ckpt"
        write_checkpoint(path, bb.state_dict())
        other = build_backbone("r18")
        loaded, unexpected = load_model(path, other)
        assert len(loaded) == len(list(other.named_parameters())) + len(list(other.named_buffers()))
        assert not unexpected
        after = forward(other.eval(), 32, 32, seed=3).f5.data
        assert np.array_equal(before, after)

    def test_missing_stage_reported(self, tmp_path):
        # load_model refuses a partial file; a partial import goes through
        # load_state_dict, which reports the missing names
        bb = build_backbone("r18")
        entries = {k: v for k, v in bb.state_dict().items() if not k.startswith("layer4")}
        path = tmp_path / "partial.ckpt"
        write_checkpoint(path, entries)
        with pytest.raises(CheckpointError, match="layer4"):
            load_model(path, build_backbone("r18"))
        loaded, missing, unexpected = build_backbone("r18").load_state_dict(read_checkpoint(path))
        assert len(loaded) == len(entries)
        assert missing and all(name.startswith("layer4") for name in missing)

    def test_transposed_weight_is_named_error(self, tmp_path):
        bb = build_backbone("r18")
        entries = dict(bb.state_dict())
        entries["layer2.0.down_conv.weight"] = entries["layer2.0.down_conv.weight"].transpose(
            1, 0, 2, 3
        ).copy()
        path = tmp_path / "bad.ckpt"
        write_checkpoint(path, entries)
        with pytest.raises(CheckpointError, match="layer2.0.down_conv.weight"):
            load_model(path, build_backbone("r18"))
