"""Hard-pixel-mined cross-entropy and the deep-supervision total loss."""

from __future__ import annotations

import logging

import numpy as np

from . import ops
from .config import RunConfig
from .errors import DataError, ShapeError
from .tensor import Tensor, as_tensor

log = logging.getLogger(__name__)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def ohem_cross_entropy(
    logits: Tensor,
    labels: np.ndarray,
    threshold: float = 0.7,
    min_kept: int = 1,
    ignore_index: int = 255,
) -> Tensor:
    """Mean cross-entropy over mined pixels.

    A pixel is hard when the probability of its true class falls below
    `threshold`; if fewer than `min_kept` pixels qualify, the `min_kept`
    lowest-probability pixels are kept instead. Ignored pixels are dropped
    before mining. With every pixel ignored the loss is a defined zero and
    a warning is logged.
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels)
    if labels.ndim == 2:
        labels = labels[None]
    n, k, h, w = logits.shape
    if labels.shape != (n, h, w):
        raise ShapeError(
            f"labels shape {labels.shape} does not match logits {logits.shape}"
        )
    valid = labels != ignore_index
    bad = valid & ((labels < 0) | (labels >= k))
    if bad.any():
        raise DataError(
            f"label value {labels[bad][0]} is outside [0, {k}) and is not the "
            f"ignore index {ignore_index}"
        )
    flat_valid = valid.reshape(-1)
    selected = np.zeros_like(flat_valid)
    safe_labels = np.where(valid, labels, 0)
    logp = _log_softmax(logits.data)
    logp_true = np.take_along_axis(logp, safe_labels[:, None], axis=1)[:, 0]
    n_valid = int(flat_valid.sum())
    all_ignored = n_valid == 0
    if all_ignored:
        log.warning("ohem_cross_entropy: every pixel carries the ignore label")
        loss_value = np.zeros((), dtype=logits.dtype)
    else:
        flat_p = np.exp(logp_true).reshape(-1)
        hard = flat_valid & (flat_p < threshold)
        n_hard = int(hard.sum())
        if n_hard >= min_kept:
            selected = hard
        else:
            order = np.argsort(np.where(flat_valid, flat_p, np.inf), kind="stable")
            keep = order[: min(min_kept, n_valid)]
            selected[keep] = True
        n_sel = int(selected.sum())
        loss_value = np.asarray(
            -(logp_true.reshape(-1)[selected]).sum() / n_sel, dtype=logits.dtype
        )
    sel_map = selected.reshape(n, h, w)

    def backward(g):
        if all_ignored:
            return (None,)
        # recomputed from the logits this closure reads, not kept
        grad = np.exp(_log_softmax(logits.data))
        np.put_along_axis(
            grad,
            safe_labels[:, None],
            np.take_along_axis(grad, safe_labels[:, None], axis=1) - 1.0,
            axis=1,
        )
        grad *= (sel_map[:, None] * (g / n_sel)).astype(grad.dtype)
        return (np.ascontiguousarray(grad),)

    return ops._make(loss_value, (logits,), backward, "ohem_cross_entropy")


def cross_entropy(logits, labels, ignore_index: int = 255):
    """Plain mean cross-entropy over valid pixels (threshold above 1 keeps
    every valid pixel, so mining degenerates to the full mean)."""
    return ohem_cross_entropy(
        logits, labels, threshold=2.0, min_kept=1, ignore_index=ignore_index
    )


def total_loss(
    main_logits: Tensor, aux_logits: list[Tensor], labels: np.ndarray, cfg: RunConfig
) -> tuple[Tensor, list[Tensor]]:
    """main + aux_weight * sum(aux), every aux upsampled to label size
    first; returns that total and the unweighted terms, main first."""
    labels = np.asarray(labels)
    if labels.ndim == 2:
        labels = labels[None]
    h, w = labels.shape[-2:]
    ohem = (cfg.ohem_threshold, cfg.min_kept(), cfg.ignore_index)
    main_term = ohem_cross_entropy(main_logits, labels, *ohem)
    terms = [main_term]
    loss = main_term
    for aux in aux_logits:
        if aux.shape[2] != h or aux.shape[3] != w:
            aux = ops.bilinear_upsample(aux, h, w)
        if cfg.aux_ohem:
            term = ohem_cross_entropy(aux, labels, *ohem)
        else:
            term = cross_entropy(aux, labels, cfg.ignore_index)
        terms.append(term)
        loss = loss + cfg.aux_weight * term
    return loss, terms
