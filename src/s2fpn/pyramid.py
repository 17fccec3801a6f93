"""Top-down attention pyramid: per-level fusion stages plus the two
depthwise adapters that seed it from the deepest backbone tap."""

from __future__ import annotations

import numpy as np

from . import ops
from .backbone import STAGE_WIDTHS
from .nn import BatchNorm2d, Conv2d, ConvBNReLU, Dropout, Module, conv_epilogue
from .attention import ChannelAttention, StripAttention


class DepthwiseProjection(Module):
    """Depthwise 3x3 (stride 1 or 2) + pointwise 1x1 + BN + ReLU.

    Stride 2 halves the spatial dims (the coarse-feature generator);
    stride 1 preserves them (the adapter feeding the decoder).
    """

    def __init__(self, in_channels: int, out_channels: int, stride: int, rng=None):
        super().__init__()
        self.stride = stride
        self.depthwise = Conv2d(
            in_channels, in_channels, 3, stride=stride, groups=in_channels, bias=False, rng=rng
        )
        self.pointwise = Conv2d(in_channels, out_channels, 1, bias=False, rng=rng)
        self.bn = BatchNorm2d(out_channels)

    def forward(self, x):
        return conv_epilogue(self.pointwise(self.depthwise(x)), self.bn)


class FeatureRefinement(Module):
    """1x1 then 3x3 conv+BN+ReLU; squeezes the `2 * width` concat back to
    `width`."""

    def __init__(self, width: int, rng=None):
        super().__init__()
        self.conv1 = ConvBNReLU(2 * width, width, 1, rng=rng)
        self.conv3 = ConvBNReLU(width, width, 3, rng=rng)

    def forward(self, x):
        return self.conv3(self.conv1(x))


class AuxHead(Module):
    """3x3 conv -> dropout -> 1x1 projection to class logits."""

    def __init__(self, channels: int, num_classes: int, dropout_p: float = 0.1, rng=None):
        super().__init__()
        self.conv = Conv2d(channels, channels, 3, bias=True, rng=rng)
        drop_rng = np.random.default_rng(int(rng.integers(2**32))) if rng is not None else None
        self.dropout = Dropout(dropout_p, rng=drop_rng)
        self.proj = Conv2d(channels, num_classes, 1, bias=True, rng=rng)

    def forward(self, x):
        return self.proj(self.dropout(self.conv(x)))


class PyramidStage(Module):
    """One fusion stage: lateral + upsampled coarse -> refine -> two
    attention-gated branches summed, with a deep-supervision head.

    Branch A re-weights the lateral path per channel; branch B modulates
    the coarse path with the row-strip attention over the refined feature.
    `forward` returns (refined output, aux logits). The aux head runs only
    in training, where the loss reads it; in eval the aux logits are None.
    """

    def __init__(
        self,
        lateral_channels: int,
        coarse_channels: int,
        width: int,
        num_classes: int,
        dropout_p: float = 0.1,
        rng=None,
    ):
        super().__init__()
        self.lateral = ConvBNReLU(lateral_channels, width, 1, rng=rng)
        self.coarse_proj = Conv2d(coarse_channels, width, 1, bias=True, rng=rng)
        self.frb = FeatureRefinement(width, rng=rng)
        self.crb_conv = ConvBNReLU(width, width, 3, rng=rng)
        self.coarse_conv = Conv2d(width, width, 3, bias=True, rng=rng)
        self.cam = ChannelAttention(width, rng=rng)
        self.ssam = StripAttention(width, rng=rng)
        self.head = AuxHead(width, num_classes, dropout_p, rng=rng)
        self.next_refine = Conv2d(width, width, 3, bias=True, rng=rng)

    def forward(self, coarse, low):
        lat = self.lateral(low)
        up = ops.bilinear_upsample(coarse, low.shape[2], low.shape[3])
        up = self.coarse_proj(up)
        refined = self.frb(ops.concat([up, lat]))
        gate = self.cam(refined)
        x_a = self.crb_conv(lat) * gate
        x_b = self.coarse_conv(up) * self.ssam(refined)
        fused = x_a + x_b
        aux = self.head(fused) if self.training else None
        return self.next_refine(fused), aux


class AttentionPyramid(Module):
    """One stage per backbone tap, built and run top-down as stages "5".."2":
    stage 5 consumes the stride-2 coarse seed, each finer stage the previous
    stage's refined output. `widths` are the fusion widths in tap order."""

    def __init__(self, widths: tuple[int, ...], num_classes: int, dropout_p: float = 0.1, rng=None):
        super().__init__()
        coarse_channels = widths[-1]  # the seed projection already emits this width
        for level, lateral, width in reversed(tuple(zip(range(2, 6), STAGE_WIDTHS, widths))):
            stage = PyramidStage(lateral, coarse_channels, width, num_classes, dropout_p, rng=rng)
            setattr(self, str(level), stage)
            coarse_channels = width

    def forward(self, taps, coarse):
        """Fuse `taps` (f2..f5) top-down from `coarse`; return the finest
        refined map and the aux logits ordered fine to coarse (each None in
        eval)."""
        aux = []
        for stage, low in zip(self._modules.values(), reversed(taps)):
            coarse, logits = stage(coarse, low)
            aux.append(logits)
        return coarse, aux[::-1]
