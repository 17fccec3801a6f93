"""The full segmentation network: backbone, attention pyramid, decoder."""

from __future__ import annotations

import numpy as np

from . import ops
from .backbone import STAGE_WIDTHS, build_backbone
from .decoder import GlobalFeatureUpsample, SegHead
from .errors import ConfigError, DataError, ShapeError
from .nn import Module
from .pyramid import AttentionPyramid, DepthwiseProjection
from .tensor import Tensor, default_dtype


def pyramid_widths(top_width: int) -> tuple[int, ...]:
    """Fusion widths in tap order (w2, w3, w4, w5): halved at each finer level.

    Compute at the fine, high-resolution levels is what dominates the
    budget, so the pyramid narrows top-down; `top_width` must be divisible
    by 32 so the narrowest level still splits into attention bottlenecks.
    """
    if top_width % 32:
        raise ConfigError(f"pyramid width must be divisible by 32, got {top_width}")
    return (top_width // 8, top_width // 4, top_width // 2, top_width)


class S2FPN(Module):
    """Backbone taps f2..f5 feed a top-down attention pyramid seeded by a
    stride-2 depthwise projection of f5; a stride-1 projection of f5 meets
    the finest pyramid output in the decoder, and a 1x1 classifier maps the
    result to logits at stride 4.

    Training-mode forward returns (main_logits, [aux_2, aux_3, aux_4,
    aux_5]), every head at its own resolution (main at stride 4); the loss
    resamples each to label size. Eval-mode forward returns the main logits
    only, bilinearly upsampled to the input resolution.
    """

    def __init__(
        self,
        backbone: str = "r18",
        pyramid_width: int = 320,
        num_classes: int = 19,
        dropout_p: float = 0.1,
        seed: int = 0,
    ):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.num_classes = num_classes
        self.pyramid_width = pyramid_width
        widths = pyramid_widths(pyramid_width)
        self.backbone = build_backbone(backbone, rng)
        deep = STAGE_WIDTHS[-1]
        self.cfgb = DepthwiseProjection(deep, widths[-1], stride=2, rng=rng)
        self.fab = DepthwiseProjection(deep, widths[0], stride=1, rng=rng)
        self.apf = AttentionPyramid(widths, num_classes, dropout_p, rng=rng)
        self.gfu = GlobalFeatureUpsample(widths[0], rng=rng)
        self.head = SegHead(widths[0], num_classes, rng=rng)
        self.register_buffer("input_mean", np.zeros((1, 3, 1, 1), dtype=default_dtype()))
        self.register_buffer("input_std", np.ones((1, 3, 1, 1), dtype=default_dtype()))
        self.assign_parameter_names()

    @classmethod
    def from_config(cls, cfg) -> "S2FPN":
        """The network a RunConfig describes."""
        return cls(cfg.backbone, cfg.pyramid_width, cfg.num_classes, cfg.dropout, cfg.seed)

    def normalize(self, images: np.ndarray) -> Tensor:
        """The network's input transform: (N, 3, H, W) images in [0, 1] to
        an input standardized by the `input_mean`/`input_std` buffers, in
        their dtype."""
        mean, std = self.input_mean.data, self.input_std.data
        return Tensor(((images - mean) / std).astype(mean.dtype))

    def check_frame(self, h: int, w: int) -> None:
        """A data error unless each side of (h, w) is a multiple of the
        backbone's coarsest stride and long enough that f5 keeps two pixels
        for the stride-2 seed projection."""
        stride = self.backbone.max_stride
        least = self.cfgb.stride * stride
        if h % stride or w % stride or min(h, w) < least:
            raise DataError(
                f"image dims ({h}, {w}) must be divisible by {stride} and at least {least} "
                "for this backbone"
            )

    def forward(self, x: Tensor):
        # every input meets the frame rule here; the stem conv refuses any
        # channel count but 3
        if x.ndim != 4:
            raise ShapeError(f"network expects an (N, 3, H, W) input, got shape {x.shape}")
        h, w = x.shape[2:]
        self.check_frame(h, w)
        taps = self.backbone(x)
        f5 = taps.f5
        finest, aux_logits = self.apf(taps, self.cfgb(f5))
        del taps  # past the pyramid only f5 is read; in eval f2..f4 are freed here
        main = self.head(self.gfu(self.fab(f5), finest))
        if self.training:
            return main, aux_logits
        return ops.bilinear_upsample(main, h, w)

