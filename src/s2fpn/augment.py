"""Training-time augmentation: random scale, horizontal flip, pad + crop.

Images resample bilinearly; label maps resample nearest-neighbour so no new
class ids are invented. Every random draw comes from the caller's Generator,
which keeps the pipeline reproducible regardless of worker layout.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .ops import _resample


def resize_label(label: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = label.shape
    if (h, w) == (out_h, out_w):
        return label.copy()
    rows = np.clip(((np.arange(out_h) + 0.5) * h / out_h).astype(np.int64), 0, h - 1)
    cols = np.clip(((np.arange(out_w) + 0.5) * w / out_w).astype(np.int64), 0, w - 1)
    return np.ascontiguousarray(label[rows[:, None], cols[None, :]])


def pad_to(image: np.ndarray, label: np.ndarray, min_h: int, min_w: int, ignore_index: int):
    c, h, w = image.shape
    if h >= min_h and w >= min_w:
        return image, label
    pad_h = max(0, min_h - h)
    pad_w = max(0, min_w - w)
    mean = image.mean(axis=(1, 2), keepdims=True)
    padded = np.broadcast_to(mean, (c, h + pad_h, w + pad_w)).copy()
    padded[:, :h, :w] = image
    label_pad = np.full((h + pad_h, w + pad_w), ignore_index, dtype=label.dtype)
    label_pad[:h, :w] = label
    return padded, label_pad


def augment(
    image: np.ndarray, label: np.ndarray, rng: np.random.Generator, cfg: RunConfig
) -> tuple[np.ndarray, np.ndarray]:
    scale = cfg.scales[int(rng.integers(len(cfg.scales)))]
    if scale != 1.0:
        out_h = max(1, round(image.shape[1] * scale))
        out_w = max(1, round(image.shape[2] * scale))
        image = _resample(image, out_h, out_w)
        label = resize_label(label, out_h, out_w)
    if rng.random() < cfg.flip_prob:
        image = np.ascontiguousarray(image[:, :, ::-1])
        label = np.ascontiguousarray(label[:, ::-1])
    crop_h, crop_w = cfg.crop_h, cfg.crop_w
    image, label = pad_to(image, label, crop_h, crop_w, cfg.ignore_index)
    top = int(rng.integers(image.shape[1] - crop_h + 1))
    left = int(rng.integers(image.shape[2] - crop_w + 1))
    image = np.ascontiguousarray(image[:, top : top + crop_h, left : left + crop_w])
    label = np.ascontiguousarray(label[top : top + crop_h, left : left + crop_w])
    return image, label


def rng_for_sample(global_seed: int, sample_index: int) -> np.random.Generator:
    """Independent stream per (seed, index); workers can't interleave state."""
    return np.random.default_rng(np.random.SeedSequence([global_seed, sample_index]))
