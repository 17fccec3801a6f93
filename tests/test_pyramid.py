"""Pyramid adapters and fusion stages: shapes, annihilation, recomposition."""

import numpy as np

from s2fpn import Tensor, no_grad
from s2fpn.gradcheck import run_checks
from s2fpn.model import S2FPN
from s2fpn.pyramid import AuxHead, DepthwiseProjection, PyramidStage

from capture import pyramid_stage_parts
from oracles import conv2d_ref


def rand(shape, seed=0):
    return Tensor(np.random.default_rng(seed).standard_normal(shape).astype(np.float32))


class TestDepthwiseProjections:
    def test_stride2_halves_dims(self):
        block = DepthwiseProjection(8, 12, stride=2, rng=np.random.default_rng(0)).eval()
        out = block(rand((1, 8, 16, 32)))
        assert out.shape == (1, 12, 8, 16)

    def test_stride2_handles_odd_dims(self):
        block = DepthwiseProjection(4, 6, stride=2, rng=np.random.default_rng(1)).eval()
        assert block(rand((1, 4, 5, 7))).shape == (1, 6, 3, 4)

    def test_stride1_preserves_dims(self):
        block = DepthwiseProjection(8, 12, stride=1, rng=np.random.default_rng(2)).eval()
        assert block(rand((1, 8, 16, 32))).shape == (1, 12, 16, 32)

    def test_depthwise_stage_matches_groups_oracle(self):
        block = DepthwiseProjection(3, 5, stride=2, rng=np.random.default_rng(4))
        x = np.random.default_rng(5).standard_normal((1, 3, 6, 8))
        out = block.depthwise(Tensor(x.astype(np.float32)))
        ref = conv2d_ref(x, block.depthwise.weight.data, stride=2, padding=1, groups=3)
        np.testing.assert_allclose(out.data, ref, atol=1e-5)

    def test_constant_input_constant_interior(self):
        block = DepthwiseProjection(4, 6, stride=2, rng=np.random.default_rng(6)).eval()
        out = block(Tensor(np.full((1, 4, 10, 14), 0.8, dtype=np.float32)))
        interior = out.data[:, :, 1:-1, 1:-1]
        per_channel = interior.reshape(6, -1)
        assert np.allclose(per_channel, per_channel[:, :1], atol=1e-6)


def small_stage(seed=0, width=8):
    return PyramidStage(
        lateral_channels=6, coarse_channels=10, width=width, num_classes=4,
        rng=np.random.default_rng(seed),
    ).eval()


class TestPyramidStage:
    def test_shape_contract(self):
        stage = small_stage()
        coarse, low = rand((1, 10, 8, 12), 1), rand((1, 6, 16, 24), 2)
        out, aux = stage(coarse, low)
        assert out.shape == (1, 8, 16, 24)
        assert aux is None  # the aux head runs only in training
        out, aux = stage.train()(coarse, low)
        assert out.shape == (1, 8, 16, 24)
        assert aux.shape == (1, 4, 16, 24)

    def test_equal_resolution_inputs_allowed(self):
        # the modified backbone makes the two finest taps share a stride
        stage = small_stage()
        out, aux = stage(rand((1, 10, 16, 24), 3), rand((1, 6, 16, 24), 4))
        assert out.shape == (1, 8, 16, 24)

    def test_forced_zero_channel_gate_annihilates_branch_a(self):
        stage = small_stage(seed=7)
        stage.cam.excite_conv.bias.data[...] = -1e9  # saturates the sigmoid at 0.0
        coarse, low = rand((1, 10, 4, 6), 8), rand((1, 6, 8, 12), 9)
        out, aux, inter = pyramid_stage_parts(stage, coarse, low)
        assert np.all(inter["channel_gate"].data == 0.0)
        assert np.all(inter["x_a"].data == 0.0)
        np.testing.assert_array_equal(inter["fused"].data, inter["x_b"].data)

    def test_fused_recomposes_from_branches(self):
        stage = small_stage(seed=10)
        coarse, low = rand((1, 10, 4, 6), 11), rand((1, 6, 8, 12), 12)
        _, _, inter = pyramid_stage_parts(stage, coarse, low)
        np.testing.assert_array_equal(
            inter["fused"].data, inter["x_a"].data + inter["x_b"].data
        )

    def test_channel_gate_scales_planes_uniformly(self):
        stage = small_stage(seed=21)
        coarse, low = rand((1, 10, 4, 6), 22), rand((1, 6, 8, 12), 23)
        _, _, inter = pyramid_stage_parts(stage, coarse, low)
        crb = inter["x_a"].data / inter["channel_gate"].data  # undo the gate
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = inter["x_a"].data / np.where(crb != 0, crb, np.nan)
        for c in range(ratio.shape[1]):
            plane = ratio[0, c][np.isfinite(ratio[0, c])]
            if plane.size:
                assert plane.max() - plane.min() < 1e-6

    def test_upsampled_dims_match_lateral(self):
        stage = small_stage(seed=13)
        for seed, (ch, cw, lh, lw) in enumerate([(3, 5, 6, 10), (4, 4, 8, 8), (2, 6, 4, 12)]):
            _, _, inter = pyramid_stage_parts(
                stage, rand((1, 10, ch, cw), 20 + seed), rand((1, 6, lh, lw), 30 + seed)
            )
            assert inter["upsampled"].shape[2:] == inter["lateral"].shape[2:]

    def test_end_to_end_gradient(self):
        res = run_checks("apf", seed=0)["apf"]
        assert res.max_rel_err < 1e-4, str(res)


class TestPyramidChain:
    def test_four_stages_four_aux_heads(self):
        model = S2FPN("r18", pyramid_width=64, num_classes=5, seed=0)
        assert sorted(model.apf._modules) == ["2", "3", "4", "5"]
        x = rand((1, 3, 64, 128), 1)
        _, aux = model.train()(x)
        assert len(aux) == 4

    def test_eval_never_calls_the_aux_head(self, monkeypatch):
        calls = []
        forward = AuxHead.forward
        monkeypatch.setattr(AuxHead, "forward", lambda self, x: calls.append(x) or forward(self, x))
        model = S2FPN("r18", pyramid_width=64, num_classes=5, seed=0)
        x = rand((1, 3, 64, 128), 5)
        with no_grad():
            model.eval()(x)
        assert calls == []
        model.train()(x)
        assert len(calls) == 4

    def test_aux_resolutions_follow_strides(self):
        model = S2FPN("r18", pyramid_width=64, num_classes=5, seed=0)
        _, aux = model.train()(rand((1, 3, 64, 128), 2))
        expected = [(16, 32), (8, 16), (4, 8), (2, 4)]  # strides 4, 8, 16, 32
        assert [a.shape[2:] for a in aux] == expected

    def test_r34m_doubles_deep_pyramid_resolutions(self):
        a = S2FPN("r34", pyramid_width=64, num_classes=5, seed=0)
        b = S2FPN("r34m", pyramid_width=64, num_classes=5, seed=0)
        x = rand((1, 3, 64, 128), 3)
        _, aux34 = a.train()(x)
        _, aux34m = b.train()(x)
        # levels 3..5 double; level 2 sits at stride 4 under both variants
        assert aux34m[0].shape == aux34[0].shape
        for i in (1, 2, 3):
            assert aux34m[i].shape[2] == 2 * aux34[i].shape[2]
            assert aux34m[i].shape[3] == 2 * aux34[i].shape[3]

    def test_finest_output_is_stride_4(self):
        model = S2FPN("r18", pyramid_width=64, num_classes=5, seed=0).eval()
        x = rand((1, 3, 64, 128), 4)
        with no_grad():
            features = model.backbone(x)
            seed = model.cfgb(features.f5)
            finest, _ = model.apf(features, seed)
        assert finest.shape[2:] == (16, 32)
        assert finest.shape[1] == model.pyramid_width // 8
