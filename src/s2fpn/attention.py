"""Strip attention (row-wise, vertical-axis) and channel attention blocks."""

from __future__ import annotations

import numpy as np

from . import ops
from .errors import ConfigError
from .nn import Conv2d, Module
from .tensor import Parameter, Tensor, default_dtype


class StripAttention(Module):
    """Pools each row to an (N, C, H, 1) strip twice (average and max),
    pushes both strips through one shared 1x1 convolution, forms a softmax
    attention over the vertical axis from their product, and re-injects the
    scaled strip residually.

    The residual mix is `alpha * scaled + (1 - alpha) * x` with a learnable
    scalar alpha initialized to zero, so a freshly built block is the
    identity.
    """

    def __init__(self, channels: int, rng: np.random.Generator | None = None):
        super().__init__()
        self.shared_conv = Conv2d(channels, channels, 1, bias=True, rng=rng)
        self.alpha = Parameter(np.zeros((), dtype=default_dtype()))

    def forward(self, x: Tensor) -> Tensor:
        z_avg = ops.strip_pool(x, "avg")
        z_max = ops.strip_pool(x, "max")
        f1 = self.shared_conv(z_avg)
        f2 = self.shared_conv(z_max)
        attention = ops.softmax(f1 * f2)
        scaled = attention * f1 + attention * f2
        # alpha * scaled + (1 - alpha) * x, written so every term is batched
        return x + self.alpha * (scaled - x)


# the channel gate's bottleneck is this many times narrower than its input
REDUCTION = 4


class ChannelAttention(Module):
    """Global average pool -> bottleneck 1x1 convs -> sigmoid gate.

    Produces an (N, C, 1, 1) weight vector with entries strictly in (0, 1).
    """

    def __init__(self, channels: int, rng: np.random.Generator | None = None):
        super().__init__()
        if channels % REDUCTION:
            raise ConfigError(
                f"channel count {channels} must be divisible by reduction {REDUCTION}"
            )
        self.squeeze_conv = Conv2d(channels, channels // REDUCTION, 1, bias=True, rng=rng)
        self.excite_conv = Conv2d(channels // REDUCTION, channels, 1, bias=True, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        pooled = ops.global_avg_pool(x)
        return ops.sigmoid(self.excite_conv(ops.relu(self.squeeze_conv(pooled))))
