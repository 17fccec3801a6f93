"""ResNet-18/34 feature extractors exposing four taps, f2..f5.

The classifier head (global pool + fc) is never built; the model ends at
the last residual stage. The "34m" variant is ResNet-34 with the first
block of the second residual stage running at stride 1, which doubles the
spatial dims of the three deepest taps while keeping parameters identical.
The stride-2 stem activation is no tap, so in eval it dies at the max-pool.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import ops
from .errors import ConfigError
from .nn import BatchNorm2d, Conv2d, Module, conv_epilogue
from .tensor import Tensor

STAGE_WIDTHS = (64, 128, 256, 512)

_BLOCK_COUNTS = {"r18": (2, 2, 2, 2), "r34": (3, 4, 6, 3), "r34m": (3, 4, 6, 3)}
_STAGE_STRIDES = {"r18": (1, 2, 2, 2), "r34": (1, 2, 2, 2), "r34m": (1, 1, 2, 2)}


class FeatureHierarchy(NamedTuple):
    """The four backbone taps f2..f5, with widths `STAGE_WIDTHS`, in that
    order. Their downsampling factors are 4, 8, 16 and 32 (4, 4, 8 and 16
    on r34m); the coarsest is `Backbone.max_stride`."""

    f2: Tensor
    f3: Tensor
    f4: Tensor
    f5: Tensor


class BasicBlock(Module):
    def __init__(self, in_channels, out_channels, stride, rng):
        super().__init__()
        self.conv1 = Conv2d(in_channels, out_channels, 3, stride=stride, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(out_channels)
        self.conv2 = Conv2d(out_channels, out_channels, 3, stride=1, bias=False, rng=rng)
        self.bn2 = BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.down_conv = Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, rng=rng)
            self.down_bn = BatchNorm2d(out_channels)
        else:
            self.down_conv = None
            self.down_bn = None

    def forward(self, x):
        h = conv_epilogue(self.conv1(x), self.bn1)
        h = conv_epilogue(self.conv2(h), self.bn2, relu=False)
        if self.down_conv is None:
            shortcut = x
        else:
            shortcut = conv_epilogue(self.down_conv(x), self.down_bn, relu=False)
        return conv_epilogue(h, shortcut=shortcut)


class Stage(Module):
    def __init__(self, in_channels, out_channels, blocks, stride, rng):
        super().__init__()
        self.count = blocks
        for i in range(blocks):
            block = BasicBlock(
                in_channels if i == 0 else out_channels,
                out_channels,
                stride if i == 0 else 1,
                rng,
            )
            setattr(self, str(i), block)

    def forward(self, x):
        for i in range(self.count):
            x = self._modules[str(i)](x)
        return x


class Backbone(Module):
    def __init__(self, variant: str, rng: np.random.Generator):
        super().__init__()
        variant = variant.lower()
        if variant not in _BLOCK_COUNTS:
            raise ConfigError(
                f"unknown backbone variant {variant!r}; expected one of r18, r34, r34m"
            )
        block_counts = _BLOCK_COUNTS[variant]
        stage_strides = _STAGE_STRIDES[variant]
        self.stem_conv = Conv2d(3, 64, 7, stride=2, bias=False, rng=rng)
        self.stem_bn = BatchNorm2d(64)
        in_channels = 64
        for i, (width, blocks, stride) in enumerate(
            zip(STAGE_WIDTHS, block_counts, stage_strides), start=1
        ):
            setattr(self, f"layer{i}", Stage(in_channels, width, blocks, stride, rng))
            in_channels = width
        # layer1 runs at the stem's stride 4; each later stage multiplies it
        self.max_stride = 4 * int(np.prod(stage_strides))

    def forward(self, x: Tensor) -> FeatureHierarchy:
        f2 = self.layer1(ops.max_pool(conv_epilogue(self.stem_conv(x), self.stem_bn), 3, 2, 1))
        f3 = self.layer2(f2)
        f4 = self.layer3(f3)
        f5 = self.layer4(f4)
        return FeatureHierarchy(f2, f3, f4, f5)


def build_backbone(variant: str, rng: np.random.Generator | None = None) -> Backbone:
    return Backbone(variant, rng or np.random.default_rng(0))
