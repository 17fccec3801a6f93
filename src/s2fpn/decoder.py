"""Decoder: global-context fusion of the adapter feature with the finest
pyramid output, plus the classification head."""

from __future__ import annotations

from . import ops
from .nn import Conv2d, ConvBNReLU, Module


class GlobalFeatureUpsample(Module):
    """Upsample the deep adapter feature to the fine pyramid resolution,
    squeeze it to a per-channel global context vector, add that context to
    the projected pyramid feature, and refine.
    """

    def __init__(self, channels: int, rng=None):
        super().__init__()
        self.pre_conv = Conv2d(channels, channels, 1, bias=True, rng=rng)
        self.ctx_conv = Conv2d(channels, channels, 1, bias=True, rng=rng)
        self.apf_conv = ConvBNReLU(channels, channels, 1, rng=rng)
        self.out_conv = ConvBNReLU(channels, channels, 1, rng=rng)

    def forward(self, x_deep, x_pyramid):
        up = ops.relu(ops.bilinear_upsample(x_deep, x_pyramid.shape[2], x_pyramid.shape[3]))
        pooled = ops.global_avg_pool(self.pre_conv(up))
        ctx = self.ctx_conv(pooled)
        branch = self.apf_conv(x_pyramid)
        return self.out_conv(ctx + branch)


class SegHead(Module):
    """1x1 classifier at pyramid resolution (stride 4)."""

    def __init__(self, channels: int, num_classes: int, rng=None):
        super().__init__()
        self.classifier = Conv2d(channels, num_classes, 1, bias=True, rng=rng)

    def forward(self, x):
        return self.classifier(x)
