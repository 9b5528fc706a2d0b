"""Accuracy metrics against ground truth: flow error and segmentation quality.

Flow metrics use the scene-flow literature's standard thresholds (absolute
0.05/0.1/0.3 m, relative 5%/10%/10%); cross-toolkit numeric comparison always
carries that definitional caveat.  Segmentation accuracy is binary
static/dynamic point accuracy, with per-cluster IoU as a supplementary view.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _check_aligned

__all__ = [
    "FlowMetrics",
    "SegMetrics",
    "flow_metrics",
    "seg_metrics",
]


@dataclass(frozen=True)
class FlowMetrics:
    """EPE3D (m) plus strict/relaxed accuracy and outlier percentages."""

    epe3d: float
    acc_strict: float
    acc_relaxed: float
    outliers: float

    def __post_init__(self) -> None:
        for name in ("acc_strict", "acc_relaxed", "outliers"):
            v = getattr(self, name)
            if not 0.0 <= v <= 100.0:
                raise ValueError(f"{name} must be a percentage in [0, 100], got {v}")
        if self.epe3d < 0:
            raise ValueError("epe3d must be nonnegative")
        if self.acc_strict > self.acc_relaxed + 1e-12:
            raise ValueError("acc_strict cannot exceed acc_relaxed")


@dataclass(frozen=True)
class SegMetrics:
    """Binary static/dynamic accuracy (%) and per-GT-cluster IoU."""

    accuracy: float
    per_cluster_iou: tuple

    def __post_init__(self) -> None:
        if not 0.0 <= self.accuracy <= 100.0:
            raise ValueError(f"accuracy must be in [0, 100], got {self.accuracy}")
        iou = tuple(float(x) for x in self.per_cluster_iou)
        if any(not 0.0 <= x <= 1.0 for x in iou):
            raise ValueError("each IoU must lie in [0, 1]")
        object.__setattr__(self, "per_cluster_iou", iou)


def flow_metrics(pred, gt) -> FlowMetrics:
    """Per-point end-point error summarized over the field.

    epe3d: mean ||pred - gt||.  AS: % of points with EPE < 0.05 m or relative
    error < 5%.  AR: % with EPE < 0.1 m or relative < 10%.  Outliers: % with
    EPE > 0.3 m or relative > 10%.  Relative error is EPE / ||gt||; a point
    with zero ground-truth flow counts as relative 0 when exact and as
    unbounded otherwise.
    """
    _check_aligned(gt, "gt", pred=pred)
    a = pred.vectors
    b = gt.vectors
    epe = np.linalg.norm(a - b, axis=1)
    gt_norm = np.linalg.norm(b, axis=1)
    safe = np.where(gt_norm > 0, gt_norm, 1.0)
    rel = np.where(gt_norm > 0, epe / safe, np.where(epe == 0, 0.0, np.inf))
    strict = (epe < 0.05) | (rel < 0.05)
    relaxed = (epe < 0.1) | (rel < 0.1)
    outlier = (epe > 0.3) | (rel > 0.1)
    return FlowMetrics(epe3d=float(epe.mean()),
                       acc_strict=float(100.0 * strict.mean()),
                       acc_relaxed=float(100.0 * relaxed.mean()),
                       outliers=float(100.0 * outlier.mean()))


def seg_metrics(pred, gt) -> SegMetrics:
    """Binary static/dynamic accuracy plus IoU per GT dynamic cluster.

    Both masks must be canonical (static = cluster 0).  Each GT dynamic
    cluster, visited in descending size (ties by id), is matched greedily to
    the unmatched predicted dynamic cluster with the largest overlap (ties by
    lowest predicted id); clusters left unmatched score IoU 0.
    """
    _check_aligned(gt, "gt", pred=pred)
    p = pred.labels
    g = gt.labels
    accuracy = float(100.0 * ((p == 0) == (g == 0)).mean())
    overlaps = gt.overlaps(pred)
    gt_sizes = overlaps.sum(axis=1)
    pred_sizes = overlaps.sum(axis=0)
    available = np.arange(pred.n_clusters) > 0
    ious = []
    for k in sorted(range(1, gt.n_clusters), key=lambda k: (-gt_sizes[k], k)):
        row = np.where(available, overlaps[k], 0)
        c = int(row.argmax())
        overlap = int(row[c])
        if overlap == 0:
            ious.append(0.0)
            continue
        available[c] = False
        ious.append(overlap / int(gt_sizes[k] + pred_sizes[c] - overlap))
    return SegMetrics(accuracy=accuracy, per_cluster_iou=tuple(ious))
