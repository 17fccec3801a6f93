"""Adam with decoupled weight decay, and the polynomial LR schedule."""

from __future__ import annotations

import math
import warnings

import numpy as np

from .serialize import restore
from .tensor import Parameter

# elements per Adam chunk: 256 KiB of float32, so the five arrays one chunk
# touches (g, m, v, theta and the scratch buffer) fit in a 2 MiB L2
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
    theta *= 1 - lr * wd directly on the parameter, outside the moments)."""

    def __init__(
        self,
        params,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params: list[Parameter] = list(params)
        # Python floats: a numpy float64 scalar would run float32 chunks in float64
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self, lr: float) -> None:
        """One update, run over flat `_CHUNK`-element slices of each parameter
        with `out=` ufuncs into one chunk-sized scratch buffer, so each
        parameter-sized array leaves memory once per step and a step
        allocates no parameter-sized temporaries. Every op is elementwise,
        so the chunks change no result. The bias corrections are folded
        into the step size and eps (Kingma & Ba, section 2), and the decay
        into one factor; the operation order is fixed for bit-exact resume:
        theta *= 1 - lr*wd (skipped when wd is 0), then
        theta -= (m / (sqrt(v) + eps*sqrt(bc2))) * (lr*sqrt(bc2)/bc1).
        Every scalar is a Python float, so float32 chunks stay float32. A
        parameter whose `.grad` is None is skipped.
        """
        self.step_count += 1
        t = self.step_count
        b1, b2, lr = self.beta1, self.beta2, float(lr)
        root_bc2 = math.sqrt(1.0 - b2**t)
        step_size = lr * root_bc2 / (1.0 - b1**t)
        eps = self.eps * root_bc2
        decay = 1.0 - lr * self.weight_decay
        scratch: dict[np.dtype, np.ndarray] = {}
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            if m.dtype not in scratch:
                scratch[m.dtype] = np.empty(_CHUNK, m.dtype)
            flat = [x.reshape(-1) for x in (p.grad, m, v, p.data)]
            for s in range(0, m.size, _CHUNK):
                g, m_s, v_s, theta = (x[s : s + _CHUNK] for x in flat)
                a = scratch[m.dtype][: g.size]
                np.multiply(g, 1.0 - b1, out=a)
                m_s *= b1
                m_s += a
                np.square(g, out=a)
                a *= 1.0 - b2
                v_s *= b2
                v_s += a
                np.sqrt(v_s, out=a)
                a += eps
                np.divide(m_s, a, out=a)
                a *= step_size
                if self.weight_decay:
                    theta *= decay
                theta -= a

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
