"""Hard-pixel mining, combined loss, schedule, optimizer, augmentation."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from s2fpn import Parameter, Tensor, ops, tape, using_dtype
from s2fpn.augment import augment, resize_label, rng_for_sample
from s2fpn.config import RunConfig
from s2fpn.errors import DataError, ShapeError
from s2fpn.losses import ohem_cross_entropy, total_loss
from s2fpn.optim import _CHUNK, Adam, poly_lr

from capture import ohem_selection
from oracles import bilinear_ref, ohem_select_ref


def logits_for_true_probs(probs):
    """1 x 2 x 1 x len(probs) logits whose class-0 probability is `probs`."""
    probs = np.asarray(probs, dtype=np.float64)
    logits = np.stack([np.log(probs), np.log(1.0 - probs)])
    return Tensor(logits[None, :, None, :], dtype=np.float64)


class TestOhem:
    def test_threshold_selects_hard_pixels(self):
        logits = logits_for_true_probs([0.9, 0.8, 0.6, 0.5])
        labels = np.zeros((1, 1, 4), dtype=np.int64)
        loss, selected = ohem_selection(logits, labels, threshold=0.7, min_kept=1)
        assert selected == {2, 3}
        expected = -(np.log(0.6) + np.log(0.5)) / 2
        assert abs(loss.item() - expected) < 1e-10

    def test_min_kept_floor_takes_lowest(self):
        logits = logits_for_true_probs([0.95, 0.9, 0.8, 0.75])
        labels = np.zeros((1, 1, 4), dtype=np.int64)
        _, selected = ohem_selection(logits, labels, threshold=0.7, min_kept=2)
        assert selected == {2, 3}

    def test_perfect_prediction_drives_loss_to_zero(self):
        logits = np.full((1, 3, 2, 2), -50.0)
        labels = np.random.default_rng(0).integers(0, 3, size=(1, 2, 2))
        for idx in np.ndindex(1, 2, 2):
            logits[idx[0], labels[idx], idx[1], idx[2]] = 50.0
        loss = ohem_cross_entropy(Tensor(logits, dtype=np.float64), labels, min_kept=1)
        assert loss.item() < 1e-8

    @pytest.mark.parametrize("case", range(20))
    def test_selection_matches_exhaustive_reference(self, case):
        rng = np.random.default_rng(case)
        n, k = 1, int(rng.integers(2, 5))
        h = int(rng.integers(1, 5))
        w = int(rng.integers(1, 33 // max(h, 1)) or 1)
        logits = rng.standard_normal((n, k, h, w)) * 2
        labels = rng.integers(0, k, size=(n, h, w))
        if rng.random() < 0.5:
            labels[rng.random(size=labels.shape) < 0.2] = 255
        min_kept = int(rng.integers(1, h * w + 1))
        loss, got_idx = ohem_selection(logits, labels, threshold=0.7, min_kept=min_kept)
        ref_idx, ref_loss = ohem_select_ref(logits, labels, 0.7, min_kept)
        assert got_idx == ref_idx
        if ref_idx:
            assert abs(loss.item() - ref_loss) < 1e-10

    def test_all_ignored_is_zero_without_gradient(self):
        logits = Tensor(np.random.default_rng(1).standard_normal((1, 3, 2, 2)), requires_grad=True)
        loss = ohem_cross_entropy(logits, np.full((1, 2, 2), 255))
        assert loss.item() == 0.0
        tape().backward(loss)
        assert logits.grad is None

    def test_all_ignored_backward_leaves_zero_gradient(self):
        logits = Parameter(np.random.default_rng(1).standard_normal((1, 3, 2, 2)))
        logits.grad = np.zeros_like(logits.data)
        loss = ohem_cross_entropy(logits, np.full((1, 2, 2), 255))
        tape().backward(loss)
        assert np.array_equal(logits.grad, np.zeros_like(logits.data))

    @pytest.mark.parametrize("bad", [4, 9, -1])
    def test_label_outside_class_range_is_data_error(self, bad):
        logits = Tensor(np.zeros((1, 4, 2, 2)))
        labels = np.array([[[0, 3], [bad, 255]]])
        with pytest.raises(DataError, match=f"label value {bad} "):
            ohem_cross_entropy(logits, labels)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((1, 4, 1, 12))
        labels = rng.integers(0, 4, size=(1, 1, 12))
        perm = rng.permutation(12)
        a = ohem_cross_entropy(Tensor(logits, dtype=np.float64), labels, min_kept=3)
        b = ohem_cross_entropy(
            Tensor(logits[..., perm], dtype=np.float64), labels[..., perm], min_kept=3
        )
        assert abs(a.item() - b.item()) < 1e-9

    def test_gradient_flows_only_through_selected(self):
        with using_dtype(np.float64):
            logits = Tensor(
                np.random.default_rng(3).standard_normal((1, 3, 2, 3)),
                requires_grad=True, dtype=np.float64,
            )
            labels = np.random.default_rng(4).integers(0, 3, size=(1, 2, 3))
            tape().backward(ohem_cross_entropy(logits, labels, threshold=0.5, min_kept=2))
            per_pixel = np.abs(logits.grad).sum(axis=1)
            selected, _ = ohem_select_ref(logits.data, labels, 0.5, 2)
            assert set(np.flatnonzero(per_pixel > 0)) == selected


    @pytest.mark.parametrize("ignored", [0.0, 0.9, 1.0])
    def test_low_resolution_logits_equal_upsampling_first(self, ignored):
        # the op's own resample is bilinear_upsample's, forward and adjoint,
        # down to the last bit; at 512 input rows a dense GEMM would sum
        # the rows in blocks and round some outputs differently
        rng = np.random.default_rng(12)
        for shape, (h, w) in [((2, 5, 16, 32), (64, 128)), ((1, 3, 512, 64), (640, 128))]:
            x = rng.standard_normal(shape) * 2
            labels = rng.integers(0, shape[1], size=(shape[0], h, w))
            labels[rng.random(labels.shape) < ignored] = 255

            def run(upsample_first):
                leaf = Parameter(x.copy())
                logits = ops.bilinear_upsample(leaf, h, w) if upsample_first else leaf
                loss = ohem_cross_entropy(logits, labels, min_kept=100)
                tape().backward(loss)
                return loss.item(), leaf.grad

            (loss, grad), (ref_loss, ref_grad) = run(False), run(True)
            assert loss == ref_loss, shape
            np.testing.assert_array_equal(grad, ref_grad, err_msg=str(shape))

    @pytest.mark.parametrize("shape", [(4, 6), (3, 4, 6), (2, 1, 4, 6)])
    def test_labels_must_be_batched_like_the_logits(self, shape):
        logits = Tensor(np.zeros((2, 3, 2, 3)))
        with pytest.raises(ShapeError, match="labels shape"):
            ohem_cross_entropy(logits, np.zeros(shape, dtype=np.int64))

class TestTotalLoss:
    def make_case(self, seed=0, k=3, h=4, w=6):
        rng = np.random.default_rng(seed)
        main = Tensor(rng.standard_normal((1, k, h, w)), dtype=np.float64)
        aux = [Tensor(rng.standard_normal((1, k, h // s, w // s)), dtype=np.float64) for s in (1, 2, 2, 2)]
        labels = rng.integers(0, k, size=(1, h, w))
        return main, aux, labels

    def test_zero_weight_equals_main_term(self):
        main, aux, labels = self.make_case()
        cfg = RunConfig(ohem_threshold=0.7, ohem_min_kept=2, ignore_index=255, aux_weight=0.0)
        combined, _ = total_loss(main, aux, labels, cfg)
        alone = ohem_cross_entropy(main, labels, 0.7, 2, 255)
        assert combined.item() == alone.item()

    def test_identical_logits_scale_linearly(self):
        rng = np.random.default_rng(5)
        k, h, w = 3, 4, 6
        main = Tensor(rng.standard_normal((1, k, h, w)), dtype=np.float64)
        aux = [Tensor(main.data.copy(), dtype=np.float64) for _ in range(4)]
        labels = rng.integers(0, k, size=(1, h, w))
        lam = 0.4
        cfg = RunConfig(ohem_threshold=0.7, ohem_min_kept=2, ignore_index=255, aux_weight=lam)
        combined, _ = total_loss(main, aux, labels, cfg)
        alone = ohem_cross_entropy(main, labels, 0.7, 2, 255)
        assert abs(combined.item() - (1 + 4 * lam) * alone.item()) < 1e-9

    def test_recomposes_from_terms(self):
        main, aux, labels = self.make_case(seed=6)
        cfg = RunConfig(ohem_threshold=0.7, ohem_min_kept=3, ignore_index=255, aux_weight=0.4)
        combined, terms = total_loss(main, aux, labels, cfg)
        expected = terms[0].item() + 0.4 * sum(t.item() for t in terms[1:])
        assert abs(combined.item() - expected) < 1e-12


class TestPolySchedule:
    def test_endpoints_exact(self):
        assert poly_lr(0, 1000, 3e-4, 0.9) == 3e-4
        assert poly_lr(1000, 1000, 3e-4, 0.9) == 0.0

    def test_midpoint_closed_form(self):
        value = poly_lr(500, 1000, 3e-4, 0.9)
        assert abs(value - 3e-4 * 0.5**0.9) < 1e-18
        assert abs(value - 1.6076601938044398e-04) < 1e-15

    def test_monotone_non_increasing(self):
        values = [poly_lr(i, 100, 3e-4, 0.9) for i in range(101)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_past_end_clamps_with_warning(self):
        with pytest.warns(UserWarning, match="clamping"):
            assert poly_lr(1001, 1000, 3e-4) == 0.0


class TestAdam:
    def test_first_step_closed_form(self):
        with using_dtype(np.float64):
            theta = Parameter(np.array(2.0))
            opt = Adam([theta], eps=1e-8)
            g = 0.37
            theta.grad = np.full_like(theta.data, g)
            lr = 1e-3
            opt.step(lr)
            expected = 2.0 - lr * g / (abs(g) + 1e-8)
            assert abs(float(theta.data) - expected) < 1e-12

    def test_zero_grads_leave_params(self):
        with using_dtype(np.float64):
            theta = Parameter(np.full((2, 2), 1.5))
            opt = Adam([theta], weight_decay=0.0)
            theta.grad = np.full_like(theta.data, 0.0)
            opt.step(1e-3)
            np.testing.assert_array_equal(theta.data, np.full((2, 2), 1.5))

    def test_identical_runs_bit_identical(self):
        def run():
            with using_dtype(np.float64):
                rng = np.random.default_rng(8)
                theta = Parameter(rng.standard_normal((3, 3)))
                opt = Adam([theta], weight_decay=5e-6)
                for i in range(25):
                    theta.grad = rng.standard_normal((3, 3))
                    opt.step(poly_lr(i, 25, 3e-4))
                return theta.data.copy()

        assert np.array_equal(run(), run())

    def test_steps_bit_equal_to_update_written_out(self):
        # float32 and float64, with and without decay; a parameter that
        # spans two whole chunks and a partial one, and a 0-d parameter.
        # The scalars are Python floats: a float64 one would run the
        # float32 case in float64 and break its bit-equality.
        b1, b2, eps = 0.9, 0.999, 1e-8
        shapes = ((4, 3, 3, 3), (2 * _CHUNK + 3,), ())
        for dtype, wd, shape in itertools.product((np.float32, np.float64), (0.0, 0.05), shapes):
            rng = np.random.default_rng(11)
            start = np.asarray(rng.standard_normal(shape), dtype=dtype)
            grads = [np.asarray(rng.standard_normal(shape), dtype=dtype) for _ in range(3)]
            theta = Parameter(start.copy())
            opt = Adam([theta], beta1=b1, beta2=b2, eps=eps, weight_decay=wd)
            ref, m, v = start.copy(), np.zeros_like(start), np.zeros_like(start)
            textbook = start.astype(np.float64)
            for step, (g, lr) in enumerate(zip(grads, (1e-2, 5e-3, 2e-3)), start=1):
                theta.grad = g.copy()
                opt.step(lr)
                m = m * b1 + (1.0 - b1) * g
                v = v * b2 + (1.0 - b2) * np.square(g)
                root_bc2 = math.sqrt(1.0 - b2**step)
                if wd:
                    ref = ref * (1.0 - lr * wd)
                ref = ref - (m / (np.sqrt(v) + eps * root_bc2)) * (lr * root_bc2 / (1.0 - b1**step))
                case = f"{np.dtype(dtype).name} wd={wd} shape={shape} step {step}"
                assert theta.data.dtype == ref.dtype == dtype, case
                assert np.array_equal(theta.data, ref), case
                if dtype == np.float64:
                    update = (m / (1.0 - b1**step)) / (np.sqrt(v / (1.0 - b2**step)) + eps)
                    textbook = textbook - lr * (update + wd * textbook)
                    np.testing.assert_allclose(theta.data, textbook, rtol=1e-12, err_msg=case)
            assert np.array_equal(opt._m[0], m) and np.array_equal(opt._v[0], v), case

    def test_step_allocates_no_parameter_sized_scratch(self):
        theta = Parameter(np.zeros(1 << 22, dtype=np.float32))  # 16 MiB
        theta.grad = np.ones_like(theta.data)
        opt = Adam([theta], weight_decay=0.05)
        tracemalloc.start()
        try:
            opt.step(1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"Adam.step peaked at {peak / 2**20:.1f} MiB"

    def test_decoupled_weight_decay_shrinks_params(self):
        with using_dtype(np.float64):
            theta = Parameter(np.array(10.0))
            opt = Adam([theta], weight_decay=0.1)
            theta.grad = np.full_like(theta.data, 0.0)
            opt.step(1.0)
            assert abs(float(theta.data) - 9.0) < 1e-12

    def test_quadratic_convergence_within_5k_steps(self):
        # two-parameter convex quadratic trained through the tape
        with using_dtype(np.float64):
            rng = np.random.default_rng(9)
            a = Parameter(rng.standard_normal((1, 1, 2, 2)))
            b = Parameter(rng.standard_normal((1, 1, 1, 4)))
            target_a = Tensor(rng.standard_normal((1, 1, 2, 2)), dtype=np.float64)
            target_b = Tensor(rng.standard_normal((1, 1, 1, 4)), dtype=np.float64)
            opt = Adam([a, b])
            recorder = tape()
            for step in range(5000):
                opt.zero_grad()
                da = a - target_a
                db = b - target_b
                loss = ops.tensor_sum(da * da) + ops.tensor_sum(db * db)
                recorder.backward(loss)
                grad_norm = np.sqrt(
                    float(np.sum(a.grad**2)) + float(np.sum(b.grad**2))
                )
                if grad_norm < 1e-6:
                    break
                opt.step(1e-2)
            assert grad_norm < 1e-6, f"grad norm {grad_norm} after {step} steps"


class TestAugment:
    def base_sample(self, seed=0, h=16, w=24):
        rng = np.random.default_rng(seed)
        image = rng.random((3, h, w)).astype(np.float32)
        label = rng.integers(0, 4, size=(h, w)).astype(np.int64)
        return image, label

    def test_identity_configuration(self):
        image, label = self.base_sample()
        cfg = RunConfig(scales=(1.0,), flip_prob=0.0, crop_h=16, crop_w=24)
        out_image, out_label = augment(image, label, np.random.default_rng(0), cfg)
        np.testing.assert_array_equal(out_image, image)
        np.testing.assert_array_equal(out_label, label)

    def test_flip_is_involution(self):
        image, label = self.base_sample(seed=1)
        cfg = RunConfig(scales=(1.0,), flip_prob=1.0, crop_h=16, crop_w=24)
        once = augment(image, label, np.random.default_rng(1), cfg)
        twice_image, twice_label = augment(*once, np.random.default_rng(2), cfg)
        np.testing.assert_array_equal(twice_image, image)
        np.testing.assert_array_equal(twice_label, label)

    @pytest.mark.parametrize("scale", RunConfig().scales)
    def test_image_resize_matches_bilinear_oracle(self, scale):
        image, label = self.base_sample(seed=5)
        out_h, out_w = round(16 * scale), round(24 * scale)
        cfg = RunConfig(scales=(scale,), flip_prob=0.0, crop_h=out_h, crop_w=out_w)
        out, _ = augment(image, label, np.random.default_rng(5), cfg)
        assert out.shape == (3, out_h, out_w) and out.dtype == np.float32
        np.testing.assert_allclose(out, bilinear_ref(image[None], out_h, out_w)[0], atol=1e-6)

    def test_image_resize_is_the_ops_resample(self):
        # bit for bit, also at 512 rows, where a dense GEMM over the input
        # rows would sum them in blocks
        image = np.random.default_rng(6).random((3, 512, 64), dtype=np.float32)
        label = np.zeros((512, 64), dtype=np.int64)
        cfg = RunConfig(scales=(1.25,), flip_prob=0.0, crop_h=640, crop_w=80)
        out, _ = augment(image, label, np.random.default_rng(6), cfg)
        np.testing.assert_array_equal(out, ops.bilinear_upsample(Tensor(image[None]), 640, 80).data[0])

    def test_nearest_label_resize_preserves_value_set(self):
        _, label = self.base_sample(seed=2)
        doubled = resize_label(label, 32, 48)
        assert set(np.unique(doubled)) <= set(np.unique(label))

    def test_scaled_label_only_original_values(self):
        image, label = self.base_sample(seed=3)
        cfg = RunConfig(scales=(2.0,), flip_prob=0.0, crop_h=16, crop_w=24)
        _, out_label = augment(image, label, np.random.default_rng(3), cfg)
        assert set(np.unique(out_label)) <= set(np.unique(label))

    def test_crop_dims_exact_with_padding(self):
        image, label = self.base_sample(seed=4, h=10, w=12)
        cfg = RunConfig(scales=(0.75,), flip_prob=0.0, crop_h=20, crop_w=30, ignore_index=255)
        out_image, out_label = augment(image, label, np.random.default_rng(4), cfg)
        assert out_image.shape == (3, 20, 30)
        assert out_label.shape == (20, 30)
        assert 255 in np.unique(out_label)  # padded area carries ignore

    def test_sample_rng_streams_are_reproducible(self):
        a = rng_for_sample(7, 42).random(5)
        b = rng_for_sample(7, 42).random(5)
        c = rng_for_sample(7, 43).random(5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
