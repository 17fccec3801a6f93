"""Central-difference gradient verification.

Runs in float64: finite differences are too noisy at float32 to separate a
wrong gradient from round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericCheckError
from .tensor import Tensor, no_grad, tape


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


def grad_check(fn, wrt: dict[str, Tensor], eps_scale: float = 1e-5) -> GradCheckResult:
    """Compare analytic gradients of scalar-valued `fn` against central
    finite differences for every element of every tensor in `wrt`.

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
            eps = eps_scale * max(1.0, abs(original))
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
