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
from .geometry import TOL, _norms
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


@dataclass(frozen=True)
class ChamferTerm:
    """One Chamfer term and the backward search the next term can carry.

    ``value`` is the term.  ``warped`` is the warped cloud it was measured
    on.  For frame-t+1 point j, ``nearest[j]`` is the id of a nearest
    warped point and ``clearance[j]`` a lower bound on its distance to every
    other warped point: the second nearest distance after a search, so a
    tied row has none to spare and its id may be any of the tied ones.
    """

    value: float
    warped: np.ndarray
    nearest: np.ndarray
    clearance: np.ndarray


def chamfer_loss(p_t, flow, p_t1, forward: float, previous: ChamferTerm = None
                 ) -> ChamferTerm:
    """Chamfer distance between the observed next frame and the warped frame.

    ``forward`` is the forward half, the sum over warped points
    ``p_t[i] + flow[i]`` of the distance to their nearest neighbor in
    ``p_t1``: the sum of the distances of the match the loop already made
    against its index over frame t+1.  Only the backward half is searched
    here.  Given the ``previous`` term of the same two frames, frame-t+1
    point j keeps its nearest warped point unsearched when its new distance
    d satisfies ``d + TOL < clearance_j - S - TOL``, where S is the largest
    step of any warped point since ``previous``: by the triangle inequality
    every other warped point stays at least ``clearance_j - S`` away.  Its
    clearance drops by S.  Every other row is searched for its two nearest
    warped points in one index over the warped cloud, built only when some
    row needs it.  The value equals
    ``chamfer_distance(p_t1.points, p_t.points + flow.vectors)`` bit for bit
    when ``forward`` is that sum as numpy adds the distances.  It reads only
    its arguments; ``pipeline.run`` leaves it to the first read of the loss
    history.
    """
    if len(flow) != len(p_t):
        raise MaskMismatch(f"flow covers {len(flow)} points, cloud has {len(p_t)}")
    if np.ndim(forward) != 0:
        raise ValueError("forward must be the sum of the forward distances, "
                         f"got an array of shape {np.shape(forward)}")
    warped = p_t.points + flow.vectors
    q = p_t1.points
    if previous is None:
        nearest = np.zeros(len(q), dtype=np.intp)
        backward = np.zeros(len(q))
        clearance = np.full(len(q), -np.inf)
    else:
        if (previous.warped.shape != warped.shape
                or previous.nearest.shape[0] != len(q)):
            raise MaskMismatch("previous Chamfer term covers other clouds")
        step = _norms(warped - previous.warped).max()
        nearest = previous.nearest.copy()
        backward = _norms(q - warped[nearest])
        clearance = previous.clearance - step
    redo = np.nonzero(~(backward + TOL < clearance - TOL))[0]
    if redo.shape[0]:
        # module lookup at call time, as in pipeline.run
        index = geometry.SpatialIndex(warped)
        k = min(2, len(index))
        ids, dist = index.query_knn(q if redo.shape[0] == len(q) else q[redo], k)
        nearest[redo] = ids[:, 0]
        backward[redo] = dist[:, 0]
        clearance[redo] = dist[:, 1] if k == 2 else np.inf
    return ChamferTerm(float(backward.sum() + forward), warped, nearest,
                       clearance)


def total_loss(p_t, flow, mask, transforms, l_cd: float) -> LossBreakdown:
    """The motion and consistency terms, the finished Chamfer term ``l_cd``
    (the ``value`` of a :func:`chamfer_loss`), and their unweighted sum
    ``l_mot + l_sc + l_cd``."""
    l_mot = motion_loss(p_t, flow, mask, transforms)
    l_sc = flow_consistency_loss(flow, mask)
    return LossBreakdown(l_mot=l_mot, l_sc=l_sc, l_cd=l_cd,
                         total=l_mot + l_sc + l_cd)
