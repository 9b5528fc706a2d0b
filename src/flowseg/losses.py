"""Self-supervised objective: motion loss + flow consistency + Chamfer rigidity.

These are evaluators, not training losses: the pipeline minimizes them
implicitly through refinement, and the acceptance suite uses them as its
quality signal.  All three terms are nonnegative and vanish together on a
noiseless rigid scene with correct flow and mask.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import MaskMismatch, TransformCountMismatch
from .flow import warp
from .segment import members

__all__ = [
    "LossBreakdown",
    "motion_loss",
    "flow_consistency_loss",
    "chamfer_loss",
    "total_loss",
]


@dataclass(frozen=True)
class LossBreakdown:
    """The three loss components and their sum (``total == l_mot + l_sc + l_cd``)."""

    l_mot: float
    l_sc: float
    l_cd: float
    total: float

    def __post_init__(self) -> None:
        for name in ("l_mot", "l_sc", "l_cd", "total"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")
        if abs(self.total - (self.l_mot + self.l_sc + self.l_cd)) > 1e-12:
            raise ValueError("total must equal the sum of the components")


def _check_sizes(p_t, flow, mask) -> None:
    if len(mask) != len(p_t):
        raise MaskMismatch(f"mask covers {len(mask)} points, cloud has {len(p_t)}")
    if len(flow) != len(p_t):
        raise MaskMismatch(f"flow covers {len(flow)} points, cloud has {len(p_t)}")


def motion_loss(p_t, flow, mask, transforms) -> float:
    """Rigid-motion consistency: how far each cluster's flow is from its transform.

    Per cluster, the RMS over its points of ``||T_k(p_i) - (p_i + s_i)||``,
    averaged over the K clusters.  Units: meters.
    """
    _check_sizes(p_t, flow, mask)
    k_total = mask.n_clusters
    if len(transforms) != k_total:
        raise TransformCountMismatch(
            f"got {len(transforms)} transforms for {k_total} clusters")
    acc = 0.0
    for t_k, ids in zip(transforms, members(mask.labels)):
        pts = p_t.points[ids]
        residual = t_k.apply(pts) - (pts + flow.vectors[ids])
        acc += np.sqrt((residual ** 2).sum(axis=1).mean())
    return float(acc / k_total)


def flow_consistency_loss(flow, mask) -> float:
    """Within-cluster flow variance: (1/K) sum_k (1/N_k) sum_i ||s_i - mean_k||^2.

    Zero when every cluster's flow is uniform; positive for any rotating
    cluster, because a rigid rotation moves points by different vectors.
    """
    if len(flow) != len(mask):
        raise MaskMismatch(f"flow covers {len(flow)} points, mask has {len(mask)}")
    groups = members(mask.labels)
    acc = 0.0
    for ids in groups:
        vec = flow.vectors[ids]
        dev = vec - vec.mean(axis=0)
        acc += (dev ** 2).sum() / vec.shape[0]
    return float(acc / len(groups))


def chamfer_loss(p_t, flow, p_t1, forward) -> float:
    """Chamfer distance between the observed next frame and the warped frame.

    ``forward[i]`` is the distance from warped point ``p_t[i] + flow[i]`` to
    its nearest neighbor in ``p_t1``: the distances of the match the loop
    already made against its index over frame t+1.  Only the backward half
    is searched here, so the value equals
    ``chamfer_distance(p_t1.points, warp(p_t, flow).points)`` bit for bit.
    """
    if len(flow) != len(p_t):
        raise MaskMismatch(f"flow covers {len(flow)} points, cloud has {len(p_t)}")
    if len(forward) != len(p_t):
        raise MaskMismatch(
            f"forward covers {len(forward)} points, cloud has {len(p_t)}")
    # module lookup at call time, as in pipeline.run
    index = geometry.SpatialIndex(warp(p_t, flow).points)
    _, backward = index.query(p_t1.points)
    return float(backward.sum() + forward.sum())


def total_loss(p_t, p_t1, flow, mask, transforms, forward) -> LossBreakdown:
    """All three components and their unweighted sum; ``forward`` as in
    :func:`chamfer_loss`."""
    l_mot = motion_loss(p_t, flow, mask, transforms)
    l_sc = flow_consistency_loss(flow, mask)
    l_cd = chamfer_loss(p_t, flow, p_t1, forward)
    return LossBreakdown(l_mot=l_mot, l_sc=l_sc, l_cd=l_cd,
                         total=l_mot + l_sc + l_cd)
