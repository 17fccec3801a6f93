"""Acceptance suite: one test per release criterion, one printed verdict
line each. Run with `pytest tests/test_acceptance.py -v -s`.

The slow items are the training-liveness run (a few minutes) and the
full-resolution cost accounting (tens of seconds).
"""

import time

import numpy as np
import pytest

from s2fpn import Tensor, no_grad, using_dtype
from s2fpn.analysis import benchmark_latency, count_flops, count_params
from s2fpn.attention import ChannelAttention, StripAttention
from s2fpn.config import RunConfig
from s2fpn.dataset import SegDataset
from s2fpn.gradcheck import run_verification
from s2fpn.metrics import ConfusionMatrix
from s2fpn.model import S2FPN
from s2fpn.optim import Adam, poly_lr
from s2fpn.pyramid import PyramidStage
from s2fpn.synthetic import make_toy_corpus
from s2fpn.tensor import Parameter
from s2fpn.trainer import Trainer, evaluate_model

from capture import ohem_selection, pyramid_stage_parts, strip_attention_parts
from oracles import apf_ref, gfu_ref, ohem_select_ref, ssam_ref

PARAMS_18M = 17.8e6
PARAMS_34M = 27.9e6
PARAMS_BACKBONE = 11.2e6
GMACS_BACKBONE = 19e9
GMACS_18 = 29.1e9
RATIO_34M = 190.0 / 48.4


def verdict(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"{status}  {criterion}" + (f"  [{detail}]" if detail else ""))
    assert passed, f"{criterion}: {detail}"


def within(value, target, fraction):
    return abs(value - target) <= fraction * target


def agreement(got, ref):
    """Max deviation normalized by the reference magnitude (floored at 1);
    1e-6 is ~8 float32 ulps, the right yardstick for composite kernels."""
    return float(np.abs(got - ref).max() / max(1.0, np.abs(ref).max()))


class TestCriterion1Parameters:
    def test_parameter_accounting(self):
        backbone = count_params(S2FPN("r18", 320, 19, seed=0).backbone).total_params
        total18 = count_params(S2FPN("r18", 320, 19, seed=0)).total_params
        total34 = count_params(S2FPN("r34", 320, 19, seed=0)).total_params
        total34m = count_params(S2FPN("r34m", 320, 19, seed=0)).total_params
        verdict(
            "criterion 1a: r18 backbone params within 2% of 11.2M",
            within(backbone, PARAMS_BACKBONE, 0.02),
            f"{backbone/1e6:.3f}M",
        )
        verdict(
            "criterion 1b: full r18 model params within 10% of 17.8M",
            within(total18, PARAMS_18M, 0.10),
            f"{total18/1e6:.3f}M",
        )
        verdict(
            "criterion 1c: full r34 model params within 10% of 27.9M",
            within(total34, PARAMS_34M, 0.10),
            f"{total34/1e6:.3f}M",
        )
        verdict(
            "criterion 1d: r34 and r34m params exactly equal",
            total34 == total34m,
            f"{total34} vs {total34m}",
        )


class TestCriterion2Flops:
    def test_flop_accounting(self):
        # comparison tables in this domain count multiply-accumulates, so
        # the macs column is what the published figures correspond to
        report18 = count_flops(S2FPN("r18", 320, 19, seed=0), (1, 3, 512, 1024))
        backbone_macs = sum(r.flops for r in report18.rows if r.module == "backbone") / 2
        verdict(
            "criterion 2a: r18 backbone cost within 15% of 19 GMACs @512x1024",
            within(backbone_macs, GMACS_BACKBONE, 0.15),
            f"{backbone_macs/1e9:.2f}G",
        )
        verdict(
            "criterion 2b: full r18 cost within 15% of 29.1 GMACs @512x1024",
            within(report18.total_macs, GMACS_18, 0.15),
            f"{report18.total_macs/1e9:.2f}G",
        )
        # the 34m/34 cost ratio is resolution-independent up to the O(1)
        # attention-bottleneck terms, so a quarter-area input keeps this fast
        macs34 = count_flops(S2FPN("r34", 320, 19, seed=0), (1, 3, 256, 512)).total_macs
        macs34m = count_flops(S2FPN("r34m", 320, 19, seed=0), (1, 3, 256, 512)).total_macs
        ratio = macs34m / macs34
        verdict(
            "criterion 2c: 34m/34 cost ratio within 20% of 3.93",
            within(ratio, RATIO_34M, 0.20),
            f"{ratio:.3f}",
        )


class TestCriterion3GradientSuite:
    def test_all_kernels_and_blocks_five_seeds(self):
        start = time.time()
        worst, failures = run_verification("all", seeds=(0, 1, 2, 3, 4), tolerance=1e-4)
        elapsed = time.time() - start
        detail = f"{len(worst)} checks, worst {max(worst.values()):.2e}, {elapsed:.0f}s"
        verdict("criterion 3: gradient suite (5 seeds) below 1e-4", not failures, detail)
        assert elapsed < 300


class TestCriterion4ScalarLoopOracles:
    def test_strip_attention_oracle(self):
        block = StripAttention(3, rng=np.random.default_rng(0))
        block.alpha.data[...] = 0.43
        x = Tensor(np.random.default_rng(1).standard_normal((1, 3, 5, 4)).astype(np.float32))
        got = block(x).data
        ref = ssam_ref(
            x.data, block.shared_conv.weight.data, block.shared_conv.bias.data,
            float(block.alpha.data),
        )
        err = agreement(got, ref)
        verdict("criterion 4a: strip attention matches scalar loops", err < 1e-6, f"max {err:.2e}")

    def test_fusion_branch_oracle(self):
        stage = PyramidStage(
            lateral_channels=5, coarse_channels=6, width=8, num_classes=3,
            rng=np.random.default_rng(2),
        ).eval()
        stage.ssam.alpha.data[...] = 0.31
        rng = np.random.default_rng(3)
        coarse = Tensor(rng.standard_normal((1, 6, 2, 3)).astype(np.float32))
        low = Tensor(rng.standard_normal((1, 5, 4, 6)).astype(np.float32))
        _, _, inter = pyramid_stage_parts(stage, coarse, low)

        def bn_of(m):
            return (m.gamma.data, m.beta.data, m.running_mean.data, m.running_var.data)

        weights = {
            "lateral_w": stage.lateral.conv.weight.data,
            "lateral_bn": bn_of(stage.lateral.bn),
            "proj_w": stage.coarse_proj.weight.data,
            "proj_b": stage.coarse_proj.bias.data,
            "frb1_w": stage.frb.conv1.conv.weight.data,
            "frb1_bn": bn_of(stage.frb.conv1.bn),
            "frb3_w": stage.frb.conv3.conv.weight.data,
            "frb3_bn": bn_of(stage.frb.conv3.bn),
            "cam_sq_w": stage.cam.squeeze_conv.weight.data,
            "cam_sq_b": stage.cam.squeeze_conv.bias.data,
            "cam_ex_w": stage.cam.excite_conv.weight.data,
            "cam_ex_b": stage.cam.excite_conv.bias.data,
            "crb_w": stage.crb_conv.conv.weight.data,
            "crb_bn": bn_of(stage.crb_conv.bn),
            "ssam_w": stage.ssam.shared_conv.weight.data,
            "ssam_b": stage.ssam.shared_conv.bias.data,
            "ssam_alpha": float(stage.ssam.alpha.data),
            "coarse_w": stage.coarse_conv.weight.data,
            "coarse_b": stage.coarse_conv.bias.data,
        }
        ref_a, ref_b, ref_fused = apf_ref(coarse.data, low.data, weights)
        err = max(
            agreement(inter["x_a"].data, ref_a),
            agreement(inter["x_b"].data, ref_b),
            agreement(inter["fused"].data, ref_fused),
        )
        verdict("criterion 4b: fusion branches match scalar loops", err < 1e-6, f"max {err:.2e}")

    def test_decoder_fusion_oracle(self):
        from s2fpn.decoder import GlobalFeatureUpsample

        block = GlobalFeatureUpsample(4, rng=np.random.default_rng(4)).eval()
        rng = np.random.default_rng(5)
        x_deep = Tensor(rng.standard_normal((1, 4, 2, 3)).astype(np.float32))
        x_pyr = Tensor(rng.standard_normal((1, 4, 5, 7)).astype(np.float32))
        got = block(x_deep, x_pyr).data
        ref = gfu_ref(
            x_deep.data, x_pyr.data,
            {
                "pre_w": block.pre_conv.weight.data,
                "pre_b": block.pre_conv.bias.data,
                "ctx_w": block.ctx_conv.weight.data,
                "ctx_b": block.ctx_conv.bias.data,
                "apf_w": block.apf_conv.conv.weight.data,
                "apf_bn": (
                    block.apf_conv.bn.gamma.data, block.apf_conv.bn.beta.data,
                    block.apf_conv.bn.running_mean.data, block.apf_conv.bn.running_var.data,
                ),
                "out_w": block.out_conv.conv.weight.data,
                "out_bn": (
                    block.out_conv.bn.gamma.data, block.out_conv.bn.beta.data,
                    block.out_conv.bn.running_mean.data, block.out_conv.bn.running_var.data,
                ),
            },
        )
        err = agreement(got, ref)
        verdict("criterion 4c: decoder fusion matches scalar loops", err < 1e-6, f"max {err:.2e}")

    def test_pooling_and_broadcast_exactness(self):
        from s2fpn import ops
        from oracles import broadcast_ref, global_avg_pool_ref, strip_pool_ref

        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 3, 5, 7))
        xt = Tensor(x, dtype=np.float64)
        exact = (
            np.array_equal(ops.strip_pool(xt, "avg").data, strip_pool_ref(x, "avg"))
            and np.array_equal(ops.strip_pool(xt, "max").data, strip_pool_ref(x, "max"))
            and np.array_equal(ops.global_avg_pool(xt).data, global_avg_pool_ref(x))
        )
        a = rng.standard_normal((2, 3, 1, 7))
        b = rng.standard_normal((1, 3, 5, 1))
        exact = exact and np.array_equal(
            ops.elementwise(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64), "mul").data,
            broadcast_ref(a, b, "mul"),
        )
        verdict("criterion 4d: pooling and broadcasting exactly match loops", exact)


class TestCriterion5StructuralInvariants:
    def test_invariants(self):
        rng = np.random.default_rng(7)
        ssam = StripAttention(3, rng=np.random.default_rng(8))
        x = Tensor(rng.standard_normal((2, 3, 5, 4)).astype(np.float32))
        identity = np.array_equal(ssam(x).data, x.data)
        verdict("criterion 5a: zero mixing scalar keeps attention an identity", identity)

        _, inter = strip_attention_parts(ssam, x)
        sums = inter["attention"].data.sum(axis=2)
        verdict(
            "criterion 5b: attention columns sum to 1 within 1e-6",
            bool(np.allclose(sums, 1.0, atol=1e-6)),
            f"max dev {np.abs(sums-1).max():.2e}",
        )

        cam = ChannelAttention(8, rng=np.random.default_rng(9))
        gate = cam(Tensor(rng.standard_normal((2, 8, 4, 4)).astype(np.float32))).data
        verdict(
            "criterion 5c: channel gate strictly inside (0, 1)",
            bool(np.all(gate > 0) and np.all(gate < 1)),
        )

        model = S2FPN("r18", 64, 6, seed=0)
        _, aux = model.train()(Tensor(np.zeros((1, 3, 64, 128), dtype=np.float32)))
        shapes = [a.shape[2:] for a in aux]
        verdict(
            "criterion 5d: four aux heads at strides 4, 8, 16, 32",
            len(aux) == 4 and shapes == [(16, 32), (8, 16), (4, 8), (2, 4)],
            f"{shapes}",
        )

        f34 = S2FPN("r34", 64, 6, seed=0).backbone.eval()(
            Tensor(np.zeros((1, 3, 64, 128), dtype=np.float32))
        )
        f34m = S2FPN("r34m", 64, 6, seed=0).backbone.eval()(
            Tensor(np.zeros((1, 3, 64, 128), dtype=np.float32))
        )
        doubled = all(
            getattr(f34m, n).shape[2] == 2 * getattr(f34, n).shape[2]
            and getattr(f34m, n).shape[3] == 2 * getattr(f34, n).shape[3]
            for n in ("f3", "f4", "f5")
        )
        verdict("criterion 5e: modified r34 doubles f3-f5 spatial dims", doubled)


class TestCriterion6OhemExactness:
    def test_200_random_cases(self):
        mismatches = 0
        for case in range(200):
            rng = np.random.default_rng(10_000 + case)
            k = int(rng.integers(2, 6))
            h = int(rng.integers(1, 7))
            w = int(rng.integers(1, max(2, 32 // h + 1)))
            logits = rng.standard_normal((1, k, h, w)) * 2.0
            labels = rng.integers(0, k, size=(1, h, w))
            if rng.random() < 0.3:
                labels[rng.random(size=labels.shape) < 0.25] = 255
            min_kept = int(rng.integers(1, h * w + 1))
            _, got = ohem_selection(logits, labels, threshold=0.7, min_kept=min_kept)
            ref, _ = ohem_select_ref(logits, labels, 0.7, min_kept)
            if got != ref:
                mismatches += 1
        verdict(
            "criterion 6: hard-pixel selection matches exhaustive reference (200 cases)",
            mismatches == 0,
            f"{mismatches} mismatches",
        )


class TestCriterion7ScheduleOptimizer:
    def test_poly_endpoints_and_adam_first_step(self):
        endpoints = poly_lr(0, 1000, 3e-4, 0.9) == 3e-4 and poly_lr(1000, 1000, 3e-4, 0.9) == 0.0
        verdict("criterion 7a: schedule endpoints exactly 3e-4 and 0", endpoints)
        with using_dtype(np.float64):
            theta = Parameter(np.array(1.0))
            opt = Adam([theta], eps=1e-8)
            theta.grad = np.full_like(theta.data, -0.73)
            opt.step(3e-4)
            expected = 1.0 - 3e-4 * (-0.73) / (0.73 + 1e-8)
            err = abs(float(theta.data) - expected)
        verdict("criterion 7b: first optimizer step matches closed form", err < 1e-12, f"{err:.1e}")


class TestCriterion8TrainingLiveness:
    def test_overfit_four_synthetic_images(self, tmp_path):
        root = make_toy_corpus(
            tmp_path / "corpus", n_train=4, n_val=0, height=64, width=128,
            num_classes=5, seed=0,
        )
        cfg = RunConfig(
            backbone="r18", pyramid_width=128, num_classes=5, dataset=str(root),
            crop_h=64, crop_w=128, batch_size=4, epochs=300, scales=(1.0,),
            flip_prob=0.0, checkpoint_every=10_000, out_dir=str(tmp_path / "run"), seed=0,
        )
        dataset = SegDataset(root)
        trainer = Trainer(cfg, dataset)
        start = time.time()
        trainer.run()
        wall = time.time() - start
        matrix = evaluate_model(trainer.model, dataset, "train")
        accuracy = np.trace(matrix.counts) / matrix.counts.sum()
        verdict(
            "criterion 8a: 4-image overfit reaches 95% pixel accuracy in 300 iters",
            accuracy > 0.95,
            f"{accuracy:.4f} in {wall:.0f}s",
        )
        verdict("criterion 8b: overfit wall clock under 10 minutes", wall < 600, f"{wall:.0f}s")
        history = np.asarray(trainer.loss_history)
        windows = history.reshape(6, -1).mean(axis=1)
        monotone = all(b <= a * 1.10 for a, b in zip(windows, windows[1:]))
        shrunk = windows[-1] < 0.6 * windows[0]
        verdict(
            "criterion 8c: loss trend monotone over windows",
            monotone and shrunk,
            "means " + " ".join(f"{w:.2f}" for w in windows),
        )


class TestCriterion9LatencyOrdering:
    def test_fps_ordering(self):
        shape = (1, 3, 128, 256)
        fps = {}
        for variant in ("r18", "r34", "r34m"):
            model = S2FPN(variant, 320, 19, seed=0)
            # the median of 5 forwards, so one host stall cannot flip the order
            fps[variant] = 1000.0 / benchmark_latency(model, shape, warmup=1, iters=5, seed=0).p50_ms
        ordered = fps["r18"] > fps["r34"] > fps["r34m"]
        verdict(
            "criterion 9: throughput ordering r18 > r34 > r34m",
            ordered,
            " ".join(f"{k}={v:.2f}fps" for k, v in fps.items()),
        )


class TestCriterion10Metrics:
    def test_confusion_hand_case_and_perfect(self):
        m = ConfusionMatrix(2)
        m.add(np.array([0, 1, 1, 1]), np.array([0, 0, 1, 1]))
        iou = m.iou()
        hand = (
            iou[0] == pytest.approx(1 / 2)
            and iou[1] == pytest.approx(2 / 3)
            and m.mean_iou() == pytest.approx(7 / 12)
        )
        verdict("criterion 10a: hand confusion case reproduced", hand, f"{iou} mIoU {m.mean_iou():.4f}")
        p = ConfusionMatrix(3)
        gt = np.random.default_rng(11).integers(0, 3, size=500)
        p.add(gt, gt)
        verdict("criterion 10b: perfect prediction gives mIoU 1.0", p.mean_iou() == 1.0)
