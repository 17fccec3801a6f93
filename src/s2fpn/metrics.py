"""Confusion-matrix accumulation and intersection-over-union reporting."""

from __future__ import annotations

import numpy as np

from .errors import DataError, ShapeError


class ConfusionMatrix:
    """K x K integer counts; rows are ground truth, columns predictions.

    Pixels carrying the ignore label are never counted, so the total count
    equals the number of scored pixels. Accumulation is integer addition,
    hence exact and order-independent.
    """

    def __init__(self, num_classes: int, ignore_index: int = 255):
        self.num_classes = num_classes
        self.ignore_index = ignore_index
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def add(self, prediction: np.ndarray, ground_truth: np.ndarray) -> None:
        prediction = np.asarray(prediction).reshape(-1)
        ground_truth = np.asarray(ground_truth).reshape(-1)
        if prediction.shape != ground_truth.shape:
            raise ShapeError(
                f"prediction {prediction.shape} and ground truth {ground_truth.shape} disagree"
            )
        keep = ground_truth != self.ignore_index
        gt = ground_truth[keep].astype(np.int64)
        pred = prediction[keep].astype(np.int64)
        if gt.size and (gt.min() < 0 or gt.max() >= self.num_classes):
            bad = gt[(gt < 0) | (gt >= self.num_classes)][0]
            raise DataError(
                f"ground-truth label {bad} out of range for {self.num_classes} classes"
            )
        if pred.size and (pred.min() < 0 or pred.max() >= self.num_classes):
            raise ShapeError(
                f"predicted class id out of range for {self.num_classes} classes"
            )
        flat = gt * self.num_classes + pred
        self.counts += np.bincount(flat, minlength=self.num_classes**2).reshape(
            self.num_classes, self.num_classes
        )

    def iou(self) -> np.ndarray:
        """Per-class TP / (TP + FP + FN); NaN where the union is empty."""
        tp = np.diag(self.counts).astype(np.float64)
        union = self.counts.sum(axis=0) + self.counts.sum(axis=1) - tp
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(union > 0, tp / union, np.nan)

    def mean_iou(self) -> float:
        """Mean IoU over classes that appear in the ground truth."""
        present = self.counts.sum(axis=1) > 0
        if not present.any():
            return 0.0
        per_class = self.iou()
        return float(np.nanmean(per_class[present]))
