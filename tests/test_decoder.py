"""Fusion decoder behaviour plus whole-model forward contracts."""

import numpy as np
import pytest

from s2fpn import Tensor, no_grad, tape, using_dtype
from s2fpn.config import RunConfig
from s2fpn.decoder import GlobalFeatureUpsample
from s2fpn.errors import ShapeError
from s2fpn.gradcheck import run_checks
from s2fpn.losses import total_loss
from s2fpn.model import S2FPN
from s2fpn.ops import bilinear_upsample, tensor_sum

from capture import gfu_parts
from oracles import gfu_ref


def rand(shape, seed=0, dtype=np.float32):
    return Tensor(np.random.default_rng(seed).standard_normal(shape), dtype=dtype)


def gfu_weights(block):
    return {
        "pre_w": block.pre_conv.weight.data,
        "pre_b": block.pre_conv.bias.data,
        "ctx_w": block.ctx_conv.weight.data,
        "ctx_b": block.ctx_conv.bias.data,
        "apf_w": block.apf_conv.conv.weight.data,
        "apf_bn": (
            block.apf_conv.bn.gamma.data,
            block.apf_conv.bn.beta.data,
            block.apf_conv.bn.running_mean.data,
            block.apf_conv.bn.running_var.data,
        ),
        "out_w": block.out_conv.conv.weight.data,
        "out_bn": (
            block.out_conv.bn.gamma.data,
            block.out_conv.bn.beta.data,
            block.out_conv.bn.running_mean.data,
            block.out_conv.bn.running_var.data,
        ),
    }


class TestGlobalFeatureUpsample:
    def test_context_term_is_spatially_uniform(self):
        block = GlobalFeatureUpsample(6, rng=np.random.default_rng(0)).eval()
        x_deep = rand((2, 6, 2, 3), 1)
        x_pyr = rand((2, 6, 8, 12), 2)
        _, inter = gfu_parts(block, x_deep, x_pyr)
        # the fusion is exactly context (one value per n, c) + branch
        assert inter["context"].shape == (2, 6, 1, 1)
        np.testing.assert_array_equal(
            inter["fused"].data, inter["context"].data + inter["pyramid_branch"].data
        )
        residual = inter["fused"].data - inter["pyramid_branch"].data
        np.testing.assert_allclose(
            residual, np.broadcast_to(inter["context"].data, residual.shape), atol=1e-6
        )

    def test_constant_deep_feature_constant_context(self):
        block = GlobalFeatureUpsample(4, rng=np.random.default_rng(1)).eval()
        x_deep = Tensor(np.full((1, 4, 2, 2), 0.6, dtype=np.float32))
        x_pyr = rand((1, 4, 6, 8), 3)
        _, inter = gfu_parts(block, x_deep, x_pyr)
        assert inter["context"].shape == (1, 4, 1, 1)
        residual = inter["fused"].data - inter["pyramid_branch"].data
        np.testing.assert_allclose(
            residual, np.broadcast_to(inter["context"].data, residual.shape), rtol=1e-6
        )

    def test_zeroed_context_conv_annihilates(self):
        block = GlobalFeatureUpsample(4, rng=np.random.default_rng(2)).eval()
        block.ctx_conv.weight.data[...] = 0.0
        block.ctx_conv.bias.data[...] = 0.0
        x_deep = rand((1, 4, 2, 3), 4)
        x_pyr = rand((1, 4, 6, 8), 5)
        out, inter = gfu_parts(block, x_deep, x_pyr)
        with no_grad():
            expected = block.out_conv(block.apf_conv(x_pyr))
        np.testing.assert_array_equal(out.data, expected.data)

    def test_matches_composition_oracle(self):
        block = GlobalFeatureUpsample(4, rng=np.random.default_rng(3)).eval()
        x_deep = rand((1, 4, 2, 3), 6)
        x_pyr = rand((1, 4, 5, 7), 7)
        out = block(x_deep, x_pyr)
        ref = gfu_ref(x_deep.data, x_pyr.data, gfu_weights(block))
        np.testing.assert_allclose(out.data, ref, atol=1e-6)

    def test_channel_mismatch_rejected(self):
        block = GlobalFeatureUpsample(4, rng=np.random.default_rng(4))
        with pytest.raises(ShapeError):
            block(rand((1, 3, 2, 2)), rand((1, 4, 4, 4)))

    def test_end_to_end_gradient(self):
        res = run_checks("gfu", seed=0)["gfu"]
        assert res.max_rel_err < 1e-4, str(res)


class TestModelForward:
    def test_toy_shapes(self):
        model = S2FPN("r18", pyramid_width=64, num_classes=7, seed=0)
        main, aux = model.train()(rand((1, 3, 64, 128), 1))
        assert main.shape == (1, 7, 16, 32)
        assert [a.shape for a in aux] == [
            (1, 7, 16, 32),
            (1, 7, 8, 16),
            (1, 7, 4, 8),
            (1, 7, 2, 4),
        ]

    def test_eval_returns_main_only_and_is_deterministic(self):
        model = S2FPN("r18", pyramid_width=64, num_classes=5, seed=0)
        x = rand((1, 3, 64, 64), 2)
        model.eval()
        with no_grad():
            first, second = model(x), model(x)
        assert isinstance(first, Tensor)
        assert np.array_equal(first.data, second.data)

    def test_r34m_doubles_aux_resolutions_of_deep_levels(self):
        x = rand((1, 3, 64, 128), 3)
        _, aux34 = S2FPN("r34", 64, 5, seed=0).train()(x)
        _, aux34m = S2FPN("r34m", 64, 5, seed=0).train()(x)
        for i in (1, 2, 3):
            assert aux34m[i].shape[2] == 2 * aux34[i].shape[2]

    def test_every_parameter_receives_gradient(self):
        # alpha gates the strip-attention branch multiplicatively, so the
        # detector runs with the mixing scalars off their init zeros; a
        # narrow relu bottleneck can sit dead for a single batch, hence the
        # union over input/label pairs
        with using_dtype(np.float64):
            model = S2FPN("r18", pyramid_width=64, num_classes=4, dropout_p=0.0, seed=0)
            rng = np.random.default_rng(1)
            for level in ("2", "3", "4", "5"):
                model.apf._modules[level].ssam.alpha.data[...] = rng.uniform(0.2, 0.8)
            model.train()
            alive: set[str] = set()
            names = [name for name, _ in model.named_parameters()]
            recorder = tape()
            for trial in range(3):
                for p in model.parameters():
                    p.zero_grad()
                x = rand((2, 3, 64, 64), 40 + trial, dtype=np.float64)
                labels = rng.integers(0, 4, size=(2, 64, 64))
                main, aux = model(x)
                cfg = RunConfig(ohem_threshold=0.7, ohem_min_kept=64, ignore_index=255)
                loss, _ = total_loss(main, aux, labels, cfg)
                recorder.backward(loss)
                alive |= {
                    name
                    for name, p in model.named_parameters()
                    if p.grad is not None and np.any(p.grad != 0)
                }
            assert sorted(set(names) - alive) == []

    def test_train_eval_consistency_with_frozen_stats(self):
        model = S2FPN("r18", pyramid_width=32, num_classes=4, dropout_p=0.0, seed=0)
        for module in model.modules():
            if hasattr(module, "momentum"):
                module.momentum = 1.0  # running stats snap to batch stats
        x = rand((2, 3, 64, 64), 5)
        model.train()
        with no_grad():
            train_main, _ = model(x)
        model.eval()
        with no_grad():
            eval_main = model(x)
        # train mode leaves the main logits at stride 4; eval upsamples them
        train_full = bilinear_upsample(train_main, 64, 64)
        np.testing.assert_allclose(train_full.data, eval_main.data, atol=1e-5)
