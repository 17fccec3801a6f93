"""The assembled network: one float type and one frame rule."""

import weakref

import numpy as np
import pytest

from s2fpn import Tensor, no_grad, ops, using_dtype
from s2fpn.analysis import benchmark_latency, count_flops
from s2fpn.config import RunConfig
from s2fpn.dataset import SegDataset
from s2fpn.errors import DataError, ShapeError
from s2fpn.model import S2FPN
from s2fpn.synthetic import make_toy_corpus
from s2fpn.trainer import Trainer


def images(h, w, seed=0):
    return np.random.default_rng(seed).random((1, 3, h, w), dtype=np.float32)


class TestFloatType:
    def test_normalize_returns_the_default_float_type(self):
        with using_dtype(np.float64):
            model = S2FPN("r18", pyramid_width=32, num_classes=3, seed=0)
            assert model.normalize(images(64, 64)).dtype == np.float64

    def test_every_op_of_an_eval_forward_runs_in_float64(self, monkeypatch):
        seen = {}
        check = ops.check_output

        def spy(data, op):
            seen.setdefault(op, set()).add(data.dtype.name)
            check(data, op)

        monkeypatch.setattr(ops, "check_output", spy)
        with using_dtype(np.float64):
            model = S2FPN("r18", pyramid_width=32, num_classes=3, seed=0).eval()
            with no_grad():
                model(model.normalize(images(64, 64)))
        assert {"conv2d", "batch_norm", "relu", "max_pool", "add"} <= set(seen)
        assert {op: dtypes for op, dtypes in seen.items() if dtypes != {"float64"}} == {}

    def test_trainer_batches_are_float64(self, tmp_path):
        root = make_toy_corpus(tmp_path / "corpus", n_train=2, n_val=0, height=64, width=64,
                               num_classes=3)
        cfg = RunConfig(backbone="r18", pyramid_width=32, num_classes=3, dataset=str(root),
                        crop_h=64, crop_w=64, batch_size=2, out_dir=str(tmp_path / "run"))
        with using_dtype(np.float64):
            x, _ = Trainer(cfg, SegDataset(root)).batch_for(0)
        assert x.dtype == np.float64

    def test_analysis_feeds_the_default_float_type(self):
        with using_dtype(np.float64):
            model = S2FPN("r18", pyramid_width=32, num_classes=3, seed=0)
            seen, forward = [], model.forward
            model.forward = lambda x: seen.append(x.dtype) or forward(x)
            count_flops(model, (1, 3, 64, 64))
            benchmark_latency(model, (1, 3, 64, 64), warmup=1, iters=1)
        assert seen == [np.float64] * 3


class TestFrameRule:
    @pytest.mark.parametrize("variant, side", [("r18", 64), ("r34m", 32)])
    def test_smallest_accepted_frame_runs(self, variant, side):
        model = S2FPN(variant, pyramid_width=32, num_classes=3, seed=0).eval()
        model.check_frame(side, side)
        with no_grad():
            out = model(model.normalize(images(side, side)))
        assert out.shape == (1, 3, side, side)

    @pytest.mark.parametrize("variant, dims", [("r18", (32, 64)), ("r34m", (64, 16))])
    def test_frame_the_seed_projection_cannot_halve_is_refused(self, variant, dims):
        model = S2FPN(variant, pyramid_width=32, num_classes=3, seed=0)
        with pytest.raises(DataError, match=rf"\({dims[0]}, {dims[1]}\)"):
            model.check_frame(*dims)

    @pytest.mark.parametrize("variant, dims", [("r18", (32, 64)), ("r18", (60, 128)),
                                               ("r34m", (56, 120))])
    @pytest.mark.parametrize("path", ["forward", "count_flops", "benchmark_latency"])
    def test_every_path_into_the_network_applies_the_rule(self, variant, dims, path):
        model = S2FPN(variant, pyramid_width=32, num_classes=3, seed=0).eval()
        shape = (1, 3, *dims)
        run = {
            "forward": lambda: model(model.normalize(images(*dims))),
            "count_flops": lambda: count_flops(model, shape),
            "benchmark_latency": lambda: benchmark_latency(model, shape, warmup=1, iters=1),
        }[path]
        with pytest.raises(DataError, match=rf"\({dims[0]}, {dims[1]}\)"):
            run()

    def test_input_without_a_batch_axis_is_shape_error(self):
        model = S2FPN("r18", pyramid_width=32, num_classes=3, seed=0)
        with pytest.raises(ShapeError, match=r"\(3, 64, 64\)"):
            model(Tensor(np.zeros((3, 64, 64))))


def test_backbone_taps_die_before_the_decoder():
    # past the pyramid only f5 is read: under no_grad nothing holds f2 (the
    # layer1 output) by the time the decoder starts
    model = S2FPN("r18", pyramid_width=32, num_classes=3, seed=0).eval()
    layer1, gfu = model.backbone.layer1.forward, model.gfu.forward
    f2, alive = [], []

    def tap(x):
        out = layer1(x)
        f2.append(weakref.ref(out.data))
        return out

    def decoder(*inputs):
        alive.append(f2[0]() is not None)
        return gfu(*inputs)

    model.backbone.layer1.forward = tap
    model.gfu.forward = decoder
    with no_grad():
        model(model.normalize(images(64, 64)))
    assert alive == [False]
