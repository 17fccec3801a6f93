"""Adam with decoupled weight decay, and the polynomial LR schedule."""

from __future__ import annotations

import warnings

import numpy as np

from .serialize import restore
from .tensor import Parameter

# elements per Adam chunk: 256 KiB of float32, so the six arrays one chunk
# touches (g, m, v, theta and two scratch buffers) fit in a 2 MiB L2
_CHUNK = 1 << 16


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
        """One update, run over flat `_CHUNK`-element slices of each parameter
        with `out=` ufuncs into two chunk-sized scratch buffers, so each
        parameter-sized array leaves memory once per step and a step
        allocates no parameter-sized temporaries. Every op is elementwise,
        so the chunks change no result. The operation order is fixed for
        bit-exact resume: (m/bc1) / (sqrt(v/bc2) + eps), then + wd*theta,
        then * lr. A parameter whose `.grad` is None is skipped.
        """
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        scratch: dict[np.dtype, tuple[np.ndarray, np.ndarray]] = {}
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            if m.dtype not in scratch:
                scratch[m.dtype] = (np.empty(_CHUNK, m.dtype), np.empty(_CHUNK, m.dtype))
            flat = [x.reshape(-1) for x in (p.grad, m, v, p.data)]
            for s in range(0, m.size, _CHUNK):
                g, m_s, v_s, theta = (x[s : s + _CHUNK] for x in flat)
                a, b = (buf[: g.size] for buf in scratch[m.dtype])
                np.multiply(g, 1.0 - self.beta1, out=a)
                m_s *= self.beta1
                m_s += a
                np.square(g, out=a)
                a *= 1.0 - self.beta2
                v_s *= self.beta2
                v_s += a
                np.divide(v_s, bc2, out=a)
                np.sqrt(a, out=a)
                a += self.eps
                np.divide(m_s, bc1, out=b)
                b /= a
                if self.weight_decay:
                    np.multiply(theta, self.weight_decay, out=a)
                    b += a
                b *= lr
                theta -= b

    def moments(self):
        """(checkpoint name, array) of every first and second moment."""
        for i, p in enumerate(self.params):
            key = p.name or f"param{i}"
            yield f"optim.{key}.m", self._m[i]
            yield f"optim.{key}.v", self._v[i]

    def state_entries(self):
        """Named arrays for checkpointing alongside the model."""
        yield "optim.step", np.asarray([float(self.step_count)], dtype=np.float64)
        yield from self.moments()

    def load_state(self, entries: dict[str, np.ndarray]) -> None:
        """Restore every entry `state_entries` names under `serialize.restore`'s
        rule: a refused state changes nothing."""
        counts = restore("optimizer state", entries, dict(self.moments()), {"optim.step": np.inf})
        self.step_count = counts["optim.step"]
