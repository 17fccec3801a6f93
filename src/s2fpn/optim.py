"""Adam with decoupled weight decay, and the polynomial LR schedule."""

from __future__ import annotations

import warnings

import numpy as np

from .tensor import Parameter


def poly_lr(iteration: int, max_iter: int, base_lr: float, power: float = 0.9) -> float:
    """base_lr * (1 - iteration/max_iter) ** power, clamped to 0 past the end."""
    if iteration < 0:
        raise ValueError(f"iteration must be non-negative, got {iteration}")
    if iteration > max_iter:
        warnings.warn(
            f"poly_lr called past max_iter ({iteration} > {max_iter}); clamping to 0",
            stacklevel=2,
        )
        return 0.0
    return base_lr * (1.0 - iteration / max_iter) ** power


class Adam:
    """Standard bias-corrected Adam; weight decay is decoupled (applied as
    lr * wd * theta directly on the parameter, outside the moments)."""

    def __init__(
        self,
        params,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params: list[Parameter] = list(params)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self, lr: float) -> None:
        """One update written into two scratch buffers with `out=` ufuncs.

        The buffers are sized to the largest parameter and shared by all of
        them, so a step allocates twice that size and no per-parameter
        temporaries. The operation order is fixed for bit-exact resume:
        (m/bc1) / (sqrt(v/bc2) + eps), then + wd*theta, then * lr.
        """
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        scratch: dict[np.dtype, tuple[np.ndarray, np.ndarray]] = {}
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if g is None:
                continue
            if m.dtype not in scratch:
                size = max(x.size for x in self._m)
                scratch[m.dtype] = (np.empty(size, m.dtype), np.empty(size, m.dtype))
            a, b = (buf[: m.size].reshape(m.shape) for buf in scratch[m.dtype])
            np.multiply(g, 1.0 - self.beta1, out=a)
            m *= self.beta1
            m += a
            np.square(g, out=a)
            a *= 1.0 - self.beta2
            v *= self.beta2
            v += a
            np.divide(v, bc2, out=a)
            np.sqrt(a, out=a)
            a += self.eps
            np.divide(m, bc1, out=b)
            b /= a
            if self.weight_decay:
                np.multiply(p.data, self.weight_decay, out=a)
                b += a
            b *= lr
            p.data -= b

    def state_entries(self):
        """Named arrays for checkpointing alongside the model."""
        yield "optim.step", np.asarray([float(self.step_count)], dtype=np.float64)
        for i, p in enumerate(self.params):
            key = p.name or f"param{i}"
            yield f"optim.{key}.m", self._m[i]
            yield f"optim.{key}.v", self._v[i]

    def load_state(self, entries: dict[str, np.ndarray]) -> None:
        """Restore every entry `state_entries` names; all must be present."""
        self.step_count = int(np.asarray(entries["optim.step"]).reshape(-1)[0])
        for i, p in enumerate(self.params):
            key = p.name or f"param{i}"
            self._m[i][...] = np.asarray(entries[f"optim.{key}.m"]).reshape(self._m[i].shape)
            self._v[i][...] = np.asarray(entries[f"optim.{key}.v"]).reshape(self._v[i].shape)
