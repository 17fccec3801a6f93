"""The assembled network: one float type and one frame rule."""

import re
import tracemalloc
import weakref

import numpy as np
import pytest

from s2fpn import Tensor, no_grad, ops, tape, using_dtype
from s2fpn.analysis import benchmark_latency, count_flops, flop_counting
from s2fpn.backbone import build_backbone
from s2fpn.config import RunConfig
from s2fpn.dataset import SegDataset
from s2fpn.errors import DataError, ShapeError
from s2fpn.model import S2FPN
from s2fpn.nn import BatchNorm2d
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


class TestEvalForward:
    """Eval computes only what the logits need: no aux heads, and when no
    tape records, conv -> BN -> ReLU (and the residual add) in one array."""

    def test_no_grad_forward_bit_equals_the_taped_one(self):
        model = S2FPN("r18", 320, 19, seed=0).eval()
        frame = images(64, 128)
        with no_grad():
            plain = model(model.normalize(frame)).data
        x = model.normalize(frame)
        x.requires_grad = True
        try:
            taped = model(x)
            assert taped.requires_grad and len(tape()) > 0
        finally:
            tape().reset()
        assert np.isfinite(plain).all()
        np.testing.assert_array_equal(plain, taped.data)

    def test_leaves_its_input_alone_and_shares_no_memory_with_the_model(self):
        model = S2FPN("r18", 64, 5, seed=0).eval()
        x = model.normalize(images(64, 128))
        before = x.data.copy()
        with no_grad():
            out = model(x)
        np.testing.assert_array_equal(x.data, before)
        held = [x.data, *(v for v in model.state_dict().values())]
        assert not any(np.shares_memory(out.data, a) for a in held)

    def test_flops_drop_exactly_the_aux_heads(self):
        # train and eval run the same ops but for the aux heads, which only
        # training runs, and the final resample, which only eval runs (with
        # dropout at p = 0 training adds no dropout work either)
        model = S2FPN("r18", 64, 5, dropout_p=0.0, seed=0)
        x = Tensor(np.zeros((1, 3, 64, 128), dtype=np.float32))
        per_module = {}
        for training in (True, False):
            model.train(training)
            with no_grad(), flop_counting(model) as counter:
                model(x)
            per_module[training] = dict(counter.per_module)
        trained = per_module[True]
        heads = {k for k in trained if re.fullmatch(r"apf\.\d\.head(\..*)?", k)}
        assert len(heads) == 8 and all(trained[k] > 0 for k in heads)  # conv and proj, x4
        expected = {k: v for k, v in trained.items() if k not in heads}
        expected[""] = expected.get("", 0) + 4 * 5 * 64 * 128  # the resample to 64x128
        assert per_module[False] == expected

    @pytest.mark.parametrize("shape, gflop", [((1, 3, 64, 128), 0.8754), ((1, 3, 512, 1024), 55.9312)])
    def test_r18_eval_flops(self, shape, gflop):
        # 0.9359 and 59.8028 GFLOP while eval still ran the aux heads
        total = count_flops(S2FPN("r18", 320, 19, seed=0), shape).total_flops
        assert round(total / 1e9, 4) == gflop

    def test_each_batch_norm_is_counted_under_its_own_name(self):
        # BN runs through Module.__call__, so the counter files its work
        # under its dotted name rather than the block that calls it
        model = S2FPN("r18", 320, 19, seed=0).eval()
        norms = [name for name, m in model.named_modules() if isinstance(m, BatchNorm2d)]
        with no_grad(), flop_counting(model) as counter:
            model(Tensor(np.zeros((1, 3, 64, 128), dtype=np.float32)))
        assert len(norms) == 40
        assert all(counter.per_module.get(name, 0) > 0 for name in norms)
        assert counter.per_module["backbone.stem_bn"] == 2 * 64 * 32 * 64  # 2 per element

    def test_stem_conv_and_bn_outputs_never_coexist(self):
        # the stem's BN and ReLU write into its conv's output, so the
        # backbone's peak stays below two stem-sized arrays; the max-pool
        # after it adds half of one and its output a quarter
        backbone = build_backbone("r18").eval()
        x = Tensor(images(256, 512))
        stem_bytes = 64 * 128 * 256 * x.data.itemsize
        with no_grad():
            backbone(x)  # first-call allocations out of the way
            tracemalloc.start()
            try:
                backbone(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1.9 * stem_bytes, f"peak {peak / stem_bytes:.2f}x the stem's output"
