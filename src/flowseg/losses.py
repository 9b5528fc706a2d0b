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
from .geometry import Match, _check_aligned, _norms
from .errors import MaskMismatch, TransformCountMismatch
from .segment import members

__all__ = [
    "LossBreakdown",
    "motion_loss",
    "flow_consistency_loss",
    "ChamferTerm",
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


def motion_loss(p_t, flow, mask, transforms) -> float:
    """Rigid-motion consistency: how far each cluster's flow is from its transform.

    Per cluster, the RMS over its points of ``||T_k(p_i) - (p_i + s_i)||``,
    averaged over the K clusters.  Units: meters.
    """
    _check_aligned(p_t, mask=mask, flow=flow)
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
    _check_aligned(mask, "mask", flow=flow)
    groups = members(mask.labels)
    acc = 0.0
    for ids in groups:
        vec = flow.vectors[ids]
        dev = vec - vec.mean(axis=0)
        acc += (dev ** 2).sum() / vec.shape[0]
    return float(acc / len(groups))


@dataclass(frozen=True)
class ChamferTerm:
    """One Chamfer term and the backward search the next term can carry.

    ``value`` is the term.  ``warped`` is the warped cloud it was measured
    on.  ``backward`` is the :class:`~flowseg.geometry.Match` of frame
    t+1's points against an index over ``warped``.
    """

    value: float
    warped: np.ndarray
    backward: Match


def chamfer_loss(p_t, flow, p_t1, forward: float, previous: ChamferTerm = None
                 ) -> ChamferTerm:
    """Chamfer distance between the observed next frame and the warped frame.

    ``forward`` is the forward half, the sum over warped points
    ``p_t[i] + flow[i]`` of the distance to their nearest neighbor in
    ``p_t1``: the sum of the distances of the match the loop already made
    against its index over frame t+1.  Only the backward half is searched
    here, by ``SpatialIndex.match`` of frame t+1's points in a new index
    over the warped cloud.  Given the ``previous`` term of the same two
    frames, that match carries ``previous.backward`` with ``moved`` the
    largest step of any warped point since, so only the rows ``match``
    cannot certify are searched.  The value equals
    ``chamfer_distance(p_t1.points, p_t.points + flow.vectors)`` bit for bit
    when ``forward`` is that sum as numpy adds the distances.  It reads only
    its arguments; ``pipeline.run`` leaves it to the first read of the loss
    history.
    """
    _check_aligned(p_t, flow=flow)
    if np.ndim(forward) != 0:
        raise ValueError("forward must be the sum of the forward distances, "
                         f"got an array of shape {np.shape(forward)}")
    warped = p_t.points + flow.vectors
    carried, moved = None, 0.0
    if previous is not None:
        if (previous.warped.shape != warped.shape
                or previous.backward.queries.shape != p_t1.points.shape):
            raise MaskMismatch("previous Chamfer term covers other clouds")
        carried = previous.backward
        moved = _norms(warped - previous.warped).max()
    # module lookup at call time, as in pipeline.run
    backward = geometry.SpatialIndex(warped).match(p_t1.points, carried, moved)
    return ChamferTerm(float(backward.distances.sum() + forward), warped,
                       backward)


def total_loss(p_t, flow, mask, transforms, l_cd: float) -> LossBreakdown:
    """The motion and consistency terms, the finished Chamfer term ``l_cd``
    (the ``value`` of a :func:`chamfer_loss`), and their unweighted sum
    ``l_mot + l_sc + l_cd``."""
    l_mot = motion_loss(p_t, flow, mask, transforms)
    l_sc = flow_consistency_loss(flow, mask)
    return LossBreakdown(l_mot=l_mot, l_sc=l_sc, l_cd=l_cd,
                         total=l_mot + l_sc + l_cd)
