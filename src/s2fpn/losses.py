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
    """Mean cross-entropy over mined pixels of (N, H, W) `labels`.

    Logits of another spatial size are resampled to (H, W) here, by the
    resample `ops.bilinear_upsample` runs; backward recomputes that resample
    and applies its adjoint, so only the logits as given stay alive.

    A pixel is hard when the probability of its true class falls below
    `threshold`; if fewer than `min_kept` pixels qualify, the `min_kept`
    lowest-probability pixels are kept instead. Ignored pixels are dropped
    before mining. With every pixel ignored the loss is a defined zero and
    a warning is logged.
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels)
    n, k, h_in, w_in = logits.shape
    if labels.ndim != 3 or labels.shape[0] != n:
        raise ShapeError(
            f"labels shape {labels.shape} does not match logits {logits.shape}"
        )
    h, w = labels.shape[1:]
    x = logits.data
    resampled = (h_in, w_in) != (h, w)

    def log_probs():
        return _log_softmax(ops._resample(x, h, w) if resampled else x)

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
    logp_true = np.take_along_axis(log_probs(), safe_labels[:, None], axis=1)[:, 0]
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
        grad = np.exp(log_probs())
        np.put_along_axis(
            grad,
            safe_labels[:, None],
            np.take_along_axis(grad, safe_labels[:, None], axis=1) - 1.0,
            axis=1,
        )
        grad *= (sel_map[:, None] * (g / n_sel)).astype(grad.dtype)
        return (ops._resample_adjoint(grad, h_in, w_in) if resampled else grad,)

    return ops._make(loss_value, (logits,), backward, "ohem_cross_entropy")


def total_loss(
    main_logits: Tensor, aux_logits: list[Tensor], labels: np.ndarray, cfg: RunConfig
) -> tuple[Tensor, list[Tensor]]:
    """main + aux_weight * sum(aux), each head's OHEM term taken against the
    full-size labels; returns that total and the unweighted terms, main
    first."""
    ohem = (cfg.ohem_threshold, cfg.min_kept(), cfg.ignore_index)
    terms = [ohem_cross_entropy(logits, labels, *ohem) for logits in (main_logits, *aux_logits)]
    loss = terms[0]
    for term in terms[1:]:
        loss = loss + cfg.aux_weight * term
    return loss, terms
