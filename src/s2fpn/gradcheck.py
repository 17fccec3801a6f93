"""Central-difference gradient verification of kernels and composite blocks.

Runs in float64: finite differences are too noisy at float32 to separate a
wrong gradient from round-off. Finite differences need the same function on
every evaluation, so blocks run in eval mode, where dropout is the identity
and batch norm uses its (default) running statistics. The pyramid stage runs
in train mode instead, because its aux head runs only there: its dropout is
built with p = 0, and batch norm uses the batch statistics, a function of
the inputs alone. The kernel-level check covers train-mode batch norm too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .attention import ChannelAttention, StripAttention
from .decoder import GlobalFeatureUpsample
from .errors import NumericCheckError
from .losses import ohem_cross_entropy
from .pyramid import FeatureRefinement, PyramidStage
from .tensor import Parameter, Tensor, no_grad, tape, using_dtype


@dataclass
class GradCheckResult:
    max_rel_err: float
    worst_tensor: str
    worst_index: tuple
    analytic: float
    numeric: float

    def __str__(self) -> str:
        return (
            f"max rel err {self.max_rel_err:.3e} at {self.worst_tensor}{list(self.worst_index)} "
            f"(analytic {self.analytic:.6e}, numeric {self.numeric:.6e})"
        )


def _rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1.0)


def grad_check(fn, wrt: dict[str, Tensor]) -> GradCheckResult:
    """Compare analytic gradients of scalar-valued `fn` against central
    finite differences for every element of every tensor in `wrt`, each
    stepped by 1e-5 times its magnitude (at least 1).

    `fn` must rebuild the computation from the current tensor values on each
    call (it is invoked 2 per element + once for the analytic pass). All
    tensors in `wrt` must be float64 leaves with requires_grad set.
    """
    for name, t in wrt.items():
        if t.dtype != np.float64:
            raise NumericCheckError(f"grad_check requires float64 tensors ({name} is {t.dtype})")
        if not t.requires_grad:
            raise NumericCheckError(f"{name} does not require grad")
        t.grad = np.zeros_like(t.data)

    tp = tape()
    tp.reset()
    loss = fn()
    tp.backward(loss)
    analytic = {name: t.grad.copy() for name, t in wrt.items()}

    worst = GradCheckResult(0.0, "", (), 0.0, 0.0)
    for name, t in wrt.items():
        flat = t.data.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            eps = 1e-5 * max(1.0, abs(original))
            with no_grad():
                flat[i] = original + eps
                f_plus = fn().item()
                flat[i] = original - eps
                f_minus = fn().item()
                flat[i] = original
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = _rel_err(float(grad_flat[i]), numeric)
            if err > worst.max_rel_err:
                idx = np.unravel_index(i, t.shape) if t.ndim else ()
                worst = GradCheckResult(err, name, tuple(int(j) for j in idx), float(grad_flat[i]), numeric)
    return worst


def _rand(rng, shape, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True, dtype=np.float64)


def _sq(t):
    return ops.tensor_sum(t * t)


def _block_check(block, rng, training: bool = False, **shapes) -> GradCheckResult:
    """Check `block` (in eval mode unless `training`) on the sum of squares
    of its outputs, with respect to inputs of `shapes` drawn from `rng` and
    every parameter."""
    block.train(training)
    inputs = {name: _rand(rng, shape) for name, shape in shapes.items()}

    def loss():
        out = block(*inputs.values())
        outs = out if isinstance(out, tuple) else (out,)
        return sum(map(_sq, outs[1:]), _sq(outs[0]))

    return grad_check(loss, {**inputs, **dict(block.named_parameters())})


def _ops(seed: int) -> dict[str, GradCheckResult]:
    """Finite-difference checks for every differentiable kernel."""
    rng = np.random.default_rng(seed)
    results = {}

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
    results["softmax"] = grad_check(lambda: _sq(ops.softmax(xs)), {"x": xs})
    results["relu"] = grad_check(lambda: _sq(ops.relu(xs)), {"x": xs})
    results["sigmoid"] = grad_check(lambda: _sq(ops.sigmoid(xs)), {"x": xs})

    xa = _rand(rng, (2, 3, 4, 5))
    xc = _rand(rng, (1, 3, 1, 1))
    results["elementwise_add"] = grad_check(lambda: _sq(xa + xc), {"a": xa, "b": xc})
    results["elementwise_mul"] = grad_check(lambda: _sq(xa * xc), {"a": xa, "b": xc})

    xdr = _rand(rng, (1, 2, 3, 4))
    results["dropout"] = grad_check(
        lambda: _sq(ops.dropout(xdr, 0.4, np.random.default_rng(seed + 7))), {"x": xdr}
    )
    return results


def _ssam(seed: int) -> dict[str, GradCheckResult]:
    rng = np.random.default_rng(seed)
    block = StripAttention(3, rng=rng)
    block.alpha.data[...] = rng.standard_normal()
    return {"ssam": _block_check(block, rng, x=(1, 3, 5, 4))}


def _cam(seed: int) -> dict[str, GradCheckResult]:
    rng = np.random.default_rng(seed)
    return {"cam": _block_check(ChannelAttention(4, rng=rng), rng, x=(1, 4, 3, 5))}


def _frb(seed: int) -> dict[str, GradCheckResult]:
    rng = np.random.default_rng(seed)
    return {"frb": _block_check(FeatureRefinement(3, rng=rng), rng, x=(1, 6, 4, 5))}


def _apf(seed: int) -> dict[str, GradCheckResult]:
    rng = np.random.default_rng(seed)
    stage = PyramidStage(
        lateral_channels=5, coarse_channels=6, width=4, num_classes=3, dropout_p=0.0, rng=rng
    )
    stage.ssam.alpha.data[...] = rng.standard_normal()
    return {
        "apf": _block_check(stage, rng, training=True, coarse=(1, 6, 2, 3), low=(1, 5, 4, 6))
    }


def _gfu(seed: int) -> dict[str, GradCheckResult]:
    rng = np.random.default_rng(seed)
    block = GlobalFeatureUpsample(4, rng=rng)
    return {"gfu": _block_check(block, rng, x_deep=(1, 4, 2, 3), x_pyr=(1, 4, 6, 8))}


def _ohem(seed: int) -> dict[str, GradCheckResult]:
    rng = np.random.default_rng(seed)
    results = {}
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


CHECKS = {
    "ops": _ops, "ssam": _ssam, "cam": _cam, "frb": _frb, "apf": _apf, "gfu": _gfu, "ohem": _ohem
}


def run_checks(scope: str, seed: int) -> dict[str, GradCheckResult]:
    """Named results of one scope of `CHECKS`, or of every scope for "all",
    in float64. Each scope draws its inputs from its own generator on `seed`,
    so it checks the same instances alone as under "all"."""
    results = {}
    for name in CHECKS if scope == "all" else (scope,):
        with using_dtype(np.float64):
            results.update(CHECKS[name](seed))
    return results


def run_verification(
    scope: str = "all", seeds=(0, 1, 2, 3, 4), tolerance: float = 1e-4
) -> tuple[dict[str, float], list[str]]:
    """Run the requested scope for every seed.

    Returns (worst error per check, names of checks over tolerance).
    """
    worst: dict[str, float] = {}
    for seed in seeds:
        for name, res in run_checks(scope, seed).items():
            worst[name] = max(worst.get(name, 0.0), res.max_rel_err)
    failures = [name for name, err in worst.items() if err >= tolerance]
    return worst, failures
