"""Float64 finite-difference verification of kernels and composite blocks.

Blocks run in eval mode so that dropout is the identity and batch norm uses
its (default) running statistics: finite differences need the function to
be deterministic across repeated evaluations. The train-mode batch-norm
path is covered by the kernel-level check.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .attention import ChannelAttention, StripAttention
from .decoder import GlobalFeatureUpsample
from .gradcheck import GradCheckResult, grad_check
from .losses import ohem_cross_entropy
from .pyramid import FeatureRefinement, PyramidStage
from .tensor import Parameter, Tensor, using_dtype

KERNEL_SCOPES = ("ops",)
BLOCK_SCOPES = ("ssam", "cam", "frb", "apf", "gfu", "ohem")
ALL_SCOPES = KERNEL_SCOPES + BLOCK_SCOPES


def _rand(rng, shape, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True, dtype=np.float64)


def _sq(t):
    return ops.tensor_sum(t * t)


def _module_targets(module, x_entries):
    targets = dict(x_entries)
    for name, p in module.named_parameters():
        targets[name] = p
    return targets


def kernel_checks(seed: int) -> dict[str, GradCheckResult]:
    """Finite-difference checks for every differentiable kernel."""
    results = {}
    with using_dtype(np.float64):
        rng = np.random.default_rng(seed)

        x = _rand(rng, (2, 4, 5, 6))
        w = Parameter(rng.standard_normal((3, 4, 3, 3)) * 0.5)
        b = Parameter(rng.standard_normal(3) * 0.5)
        results["conv2d"] = grad_check(
            lambda: _sq(ops.conv2d(x, w, b, stride=2, padding=1)), {"x": x, "w": w, "b": b}
        )

        xd = _rand(rng, (1, 4, 5, 5))
        wd = Parameter(rng.standard_normal((4, 1, 3, 3)) * 0.5)
        results["conv2d_depthwise"] = grad_check(
            lambda: _sq(ops.conv2d(xd, wd, None, stride=1, padding=1, groups=4)),
            {"x": xd, "w": wd},
        )

        xb = _rand(rng, (2, 3, 4, 5))
        gamma = Parameter(1.0 + 0.1 * rng.standard_normal(3))
        beta = Parameter(rng.standard_normal(3) * 0.2)
        results["batch_norm_train"] = grad_check(
            lambda: _sq(ops.batch_norm(xb, gamma, beta, None, None, mode="train")),
            {"x": xb, "gamma": gamma, "beta": beta},
        )
        run_m = Tensor(rng.standard_normal(3) * 0.3, dtype=np.float64)
        run_v = Tensor(1.0 + 0.2 * np.abs(rng.standard_normal(3)), dtype=np.float64)
        results["batch_norm_eval"] = grad_check(
            lambda: _sq(ops.batch_norm(xb, gamma, beta, run_m, run_v, mode="eval")),
            {"x": xb, "gamma": gamma, "beta": beta},
        )

        xs = _rand(rng, (2, 3, 4, 5))
        results["strip_pool_avg"] = grad_check(lambda: _sq(ops.strip_pool(xs, "avg")), {"x": xs})
        results["strip_pool_max"] = grad_check(lambda: _sq(ops.strip_pool(xs, "max")), {"x": xs})
        results["global_avg_pool"] = grad_check(lambda: _sq(ops.global_avg_pool(xs)), {"x": xs})
        results["max_pool"] = grad_check(lambda: _sq(ops.max_pool(xs, 2, 2, 1)), {"x": xs})
        results["bilinear_upsample"] = grad_check(
            lambda: _sq(ops.bilinear_upsample(xs, 7, 9)), {"x": xs}
        )
        results["softmax"] = grad_check(lambda: _sq(ops.softmax(xs, "H")), {"x": xs})
        results["relu"] = grad_check(lambda: _sq(ops.relu(xs)), {"x": xs})
        results["sigmoid"] = grad_check(lambda: _sq(ops.sigmoid(xs)), {"x": xs})

        xa = _rand(rng, (2, 3, 4, 5))
        xc = _rand(rng, (1, 3, 1, 1))
        results["elementwise_add"] = grad_check(lambda: _sq(xa + xc), {"a": xa, "b": xc})
        results["elementwise_mul"] = grad_check(lambda: _sq(xa * xc), {"a": xa, "b": xc})

        xdr = _rand(rng, (1, 2, 3, 4))
        results["dropout"] = grad_check(
            lambda: _sq(
                ops.dropout(xdr, 0.4, np.random.default_rng(seed + 7))
            ),
            {"x": xdr},
        )
    return results


def block_checks(scope: str, seed: int) -> dict[str, GradCheckResult]:
    results = {}
    with using_dtype(np.float64):
        rng = np.random.default_rng(seed)
        if scope in ("ssam", "all"):
            block = StripAttention(3, rng=rng).eval()
            block.alpha.data[...] = rng.standard_normal()
            x = _rand(rng, (1, 3, 5, 4))
            results["ssam"] = grad_check(
                lambda: _sq(block(x)), _module_targets(block, {"x": x})
            )
        if scope in ("cam", "all"):
            block = ChannelAttention(4, reduction=4, rng=rng).eval()
            x = _rand(rng, (1, 4, 3, 5))
            results["cam"] = grad_check(
                lambda: _sq(block(x)), _module_targets(block, {"x": x})
            )
        if scope in ("frb", "all"):
            block = FeatureRefinement(6, 3, rng=rng).eval()
            x = _rand(rng, (1, 6, 4, 5))
            results["frb"] = grad_check(
                lambda: _sq(block(x)), _module_targets(block, {"x": x})
            )
        if scope in ("apf", "all"):
            stage = PyramidStage(
                3, lateral_channels=5, coarse_channels=6, width=4, num_classes=3, rng=rng
            ).eval()
            stage.ssam.alpha.data[...] = rng.standard_normal()
            coarse = _rand(rng, (1, 6, 2, 3))
            low = _rand(rng, (1, 5, 4, 6))

            def run_stage():
                out, aux = stage(coarse, low)
                return _sq(out) + _sq(aux)

            results["apf"] = grad_check(
                run_stage, _module_targets(stage, {"coarse": coarse, "low": low})
            )
        if scope in ("gfu", "all"):
            block = GlobalFeatureUpsample(4, rng=rng).eval()
            x_deep = _rand(rng, (1, 4, 2, 3))
            x_pyr = _rand(rng, (1, 4, 6, 8))
            results["gfu"] = grad_check(
                lambda: _sq(block(x_deep, x_pyr)),
                _module_targets(block, {"x_deep": x_deep, "x_pyr": x_pyr}),
            )
        if scope in ("ohem", "all"):
            labels = rng.integers(0, 3, size=(1, 3, 4))
            labels[0, 0, 0] = 255
            logits = _rand(rng, (1, 3, 3, 4), scale=2.0)
            results["ohem"] = grad_check(
                lambda: ohem_cross_entropy(logits, labels, threshold=0.7, min_kept=2),
                {"logits": logits},
            )
            # logits below label size: the op's recomputed resample adjoint
            labels = rng.integers(0, 3, size=(1, 4, 6))
            labels[0, 1, 2] = 255
            coarse = _rand(rng, (1, 3, 2, 3), scale=2.0)
            results["ohem_resampled"] = grad_check(
                lambda: ohem_cross_entropy(coarse, labels, threshold=0.7, min_kept=3),
                {"logits": coarse},
            )
    return results


def run_verification(
    scope: str = "all", seeds=(0, 1, 2, 3, 4), tolerance: float = 1e-4
) -> tuple[dict[str, float], list[str]]:
    """Run the requested scope for every seed.

    Returns (worst error per check, names of checks over tolerance).
    """
    worst: dict[str, float] = {}
    for seed in seeds:
        if scope in ("all", "ops"):
            for name, res in kernel_checks(seed).items():
                worst[name] = max(worst.get(name, 0.0), res.max_rel_err)
        if scope != "ops":
            for name, res in block_checks(scope, seed).items():
                worst[name] = max(worst.get(name, 0.0), res.max_rel_err)
    failures = [name for name, err in worst.items() if err >= tolerance]
    return worst, failures
