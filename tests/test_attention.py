"""Strip-attention and channel-attention behaviour against oracles."""

import numpy as np
import pytest

from s2fpn import Tensor, tape, using_dtype
from s2fpn.attention import ChannelAttention, StripAttention
from s2fpn.errors import ConfigError, ShapeError
from s2fpn.gradcheck import run_checks
from s2fpn.ops import tensor_sum

from capture import strip_attention_parts
from oracles import cam_ref, ssam_ref


def rand_input(shape, seed=0, dtype=np.float32):
    return Tensor(np.random.default_rng(seed).standard_normal(shape), dtype=dtype)


class TestStripAttention:
    def test_alpha_zero_is_identity(self):
        block = StripAttention(3, rng=np.random.default_rng(0))
        x = rand_input((2, 3, 5, 4), seed=1)
        out = block(x)
        np.testing.assert_array_equal(out.data, x.data)

    def test_constant_rows_make_paths_coincide(self):
        # every row constant along W: avg and max strips are equal
        rng = np.random.default_rng(2)
        strip = rng.standard_normal((1, 3, 5, 1)).astype(np.float32)
        x = Tensor(np.repeat(strip, 4, axis=3))
        block = StripAttention(3, rng=np.random.default_rng(3))
        block.alpha.data[...] = 0.7
        out, inter = strip_attention_parts(block, x)
        np.testing.assert_array_equal(inter["z_avg"].data, inter["z_max"].data)
        np.testing.assert_array_equal(inter["f1"].data, inter["f2"].data)
        expected = 2.0 * inter["attention"].data * inter["f1"].data
        np.testing.assert_allclose(inter["scaled"].data, expected, rtol=1e-6)

    def test_attention_columns_sum_to_one(self):
        block = StripAttention(3, rng=np.random.default_rng(4))
        x = rand_input((1, 3, 5, 4), seed=5)
        _, inter = strip_attention_parts(block, x)
        sums = inter["attention"].data.sum(axis=2)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_pipeline_matches_scalar_loop_oracle(self):
        block = StripAttention(3, rng=np.random.default_rng(6))
        block.alpha.data[...] = 0.37
        x = rand_input((1, 3, 5, 4), seed=7)
        out = block(x)
        ref = ssam_ref(
            x.data,
            block.shared_conv.weight.data,
            block.shared_conv.bias.data,
            float(block.alpha.data),
        )
        np.testing.assert_allclose(out.data, ref, atol=1e-6)

    @pytest.mark.parametrize("shape", [(1, 4, 3, 3), (2, 4, 7, 2), (3, 4, 1, 5)])
    def test_shape_preserved(self, shape):
        block = StripAttention(4, rng=np.random.default_rng(10))
        x = rand_input(shape, seed=11)
        assert block(x).shape == shape

    def test_channel_mismatch_rejected(self):
        block = StripAttention(4, rng=np.random.default_rng(12))
        with pytest.raises(ShapeError):
            block(rand_input((1, 3, 4, 4)))

    def test_shared_weights_alias_single_accumulator(self):
        # both strip paths run through the same parameter: its gradient
        # accumulates contributions from f1 and f2 in one buffer
        with using_dtype(np.float64):
            block = StripAttention(2, rng=np.random.default_rng(13))
            block.alpha.data[...] = 0.5
            params = dict(block.named_parameters())
            assert set(params) == {"shared_conv.weight", "shared_conv.bias", "alpha"}
            x = rand_input((1, 2, 3, 4), seed=14, dtype=np.float64)
            loss = tensor_sum(block(x))
            tape().backward(loss)
            assert np.any(params["shared_conv.weight"].grad != 0)

    def test_weight_perturbation_keeps_symmetric_paths_equal(self):
        strip = np.random.default_rng(15).standard_normal((1, 3, 4, 1)).astype(np.float32)
        x = Tensor(np.repeat(strip, 5, axis=3))
        block = StripAttention(3, rng=np.random.default_rng(16))
        block.shared_conv.weight.data += 0.25
        _, inter = strip_attention_parts(block, x)
        np.testing.assert_array_equal(inter["f1"].data, inter["f2"].data)

    def test_width_permutation_leaves_attention_unchanged(self):
        # the max strip is order-independent bitwise; the average strip is
        # only invariant up to summation rounding
        rng = np.random.default_rng(17)
        x = rng.standard_normal((1, 3, 5, 6)).astype(np.float32)
        perm = rng.permutation(6)
        block = StripAttention(3, rng=np.random.default_rng(18))
        _, a = strip_attention_parts(block, Tensor(x))
        _, b = strip_attention_parts(block, Tensor(x[:, :, :, perm]))
        np.testing.assert_array_equal(a["z_max"].data, b["z_max"].data)
        np.testing.assert_allclose(a["z_avg"].data, b["z_avg"].data, atol=1e-6)
        np.testing.assert_allclose(a["attention"].data, b["attention"].data, atol=1e-6)

    def test_end_to_end_gradient(self):
        res = run_checks("ssam", seed=0)["ssam"]
        assert res.max_rel_err < 1e-4, str(res)


class TestChannelAttention:
    def test_zeroed_excitation_gives_half(self):
        block = ChannelAttention(8, rng=np.random.default_rng(0))
        block.excite_conv.weight.data[...] = 0.0
        block.excite_conv.bias.data[...] = 0.0
        out = block(rand_input((2, 8, 5, 5), seed=1))
        np.testing.assert_array_equal(out.data, np.full((2, 8, 1, 1), 0.5, dtype=np.float32))

    def test_output_strictly_inside_unit_interval(self):
        block = ChannelAttention(8, rng=np.random.default_rng(2))
        out = block(rand_input((3, 8, 6, 6), seed=3))
        assert out.shape == (3, 8, 1, 1)
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)

    def test_matches_hand_rolled_loop(self):
        block = ChannelAttention(4, rng=np.random.default_rng(4))
        x = rand_input((2, 4, 3, 5), seed=5)
        ref = cam_ref(
            x.data,
            block.squeeze_conv.weight.data,
            block.squeeze_conv.bias.data,
            block.excite_conv.weight.data,
            block.excite_conv.bias.data,
        )
        np.testing.assert_allclose(block(x).data, ref, atol=1e-6)

    def test_reduction_must_divide(self):
        with pytest.raises(ConfigError, match="divisible"):
            ChannelAttention(6)

    def test_end_to_end_gradient(self):
        res = run_checks("cam", seed=1)["cam"]
        assert res.max_rel_err < 1e-4, str(res)
