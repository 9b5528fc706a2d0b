"""Scene-flow estimation between consecutive point-cloud frames.

``init_flow`` produces a coarse per-point displacement field by nearest-neighbor
matching with a bidirectional consistency check.  ``refine_flow`` upgrades a
flow field so it is exactly rigid within each segmentation cluster, fitting one
rigid transform per cluster against given correspondences (a single ICP-style
pass; the outer pipeline loop matches against one index over frame t+1 and
supplies the iteration).

Flow convention: vectors point from frame t to frame t+1 in the sensor frame,
with ego motion folded in, so static points carry the apparent flow induced by
the moving sensor.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, EmptyCloud
from .geometry import (TOL, RigidTransform, SpatialIndex, _check_aligned,
                       _fields_equal, weighted_kabsch)
from .segment import members

__all__ = [
    "PointCloud",
    "FlowField",
    "InitFlowDiagnostics",
    "init_flow",
    "refine_flow",
    "fit_transforms",
]

# init_flow's thresholds (distances in meters)
R_CONSISTENCY = 0.5
K_FILL = 8
D_MAX = 3.0


@dataclass(frozen=True)
class PointCloud:
    """One frame of N sensor-frame points, stored as a float64 (N, 3) array."""

    points: np.ndarray
    frame_id: int = 0
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must have shape (N, 3), got {pts.shape}")
        if pts.shape[0] == 0:
            raise EmptyCloud("a point cloud must contain at least one point")
        if not np.isfinite(pts).all():
            raise ValueError("point cloud contains non-finite coordinates")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class FlowField:
    """Per-point displacement vectors, index-aligned with a source PointCloud.

    Units are meters per frame interval (displacement, not velocity).
    """

    vectors: np.ndarray

    __eq__ = _fields_equal

    def __post_init__(self) -> None:
        vec = np.asarray(self.vectors, dtype=np.float64)
        if vec.ndim != 2 or vec.shape[1] != 3:
            raise ValueError(f"vectors must have shape (N, 3), got {vec.shape}")
        if vec.shape[0] == 0:
            raise ValueError("flow field must cover at least one point")
        if not np.isfinite(vec).all():
            raise ValueError("flow field contains non-finite components")
        object.__setattr__(self, "vectors", vec)

    @classmethod
    def zeros(cls, n: int) -> "FlowField":
        return cls(np.zeros((n, 3)))

    def __len__(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class InitFlowDiagnostics:
    """Per-point boolean flags produced by init_flow.

    ``unreliable``: failed the bidirectional consistency check (median-filled).
    ``disoccluded``: no plausible correspondence within D_MAX (flow zeroed).
    """

    unreliable: np.ndarray
    disoccluded: np.ndarray

    @property
    def n_unreliable(self) -> int:
        return int(self.unreliable.sum())

    @property
    def n_disoccluded(self) -> int:
        return int(self.disoccluded.sum())


def init_flow(index_t: SpatialIndex, index_t1: SpatialIndex):
    """Coarse scene flow by nearest-neighbor matching.

    ``index_t`` and ``index_t1`` index frames t and t+1.  Each frame-t
    point's raw vector points to its nearest neighbor in frame t+1.  A
    bidirectional check (the backward nearest neighbor of the matched target
    must land within ``R_CONSISTENCY`` of the origin point) marks unreliable
    vectors; those are replaced by the componentwise median flow of their
    ``K_FILL`` nearest reliable neighbors in frame t.  Points whose nearest
    neighbor is farther than ``D_MAX`` have no plausible correspondence and
    get zero flow.

    The backward check searches only the rows a bound cannot settle: the
    origin point lies ``d`` from its target, so the target's nearest
    frame-t point lies within ``d`` too and the round trip is at most
    ``2 d``; a row with ``2 d + TOL < R_CONSISTENCY`` is consistent without
    a search, and only the others query ``index_t``.

    Returns ``(FlowField, InitFlowDiagnostics, Match)``; the ``Match`` is
    the forward search of frame t's points, which a later
    ``index_t1.match(src + flow.vectors, forward)`` reuses wherever it is
    certified.
    """
    src = index_t.points
    dst = index_t1.points
    forward = index_t1.match(src)
    ids, dist = forward.ids, forward.distances
    vectors = dst[ids] - src
    disoccluded = dist > D_MAX
    unreliable = np.zeros(src.shape[0], dtype=bool)
    check = np.nonzero(~disoccluded & ~(2.0 * dist + TOL < R_CONSISTENCY))[0]
    if check.shape[0]:
        back_ids, _ = index_t.query(dst[ids[check]])
        round_trip = np.linalg.norm(src[back_ids] - src[check], axis=1)
        unreliable[check] = round_trip > R_CONSISTENCY
    reliable = ~(unreliable | disoccluded)
    if unreliable.any() and reliable.any():
        # fill from reliable neighbors only; if none exist the raw vectors stay
        rel_pts = src[reliable]
        rel_vec = vectors[reliable]
        k = min(K_FILL, rel_pts.shape[0])
        nn_ids, _ = SpatialIndex(rel_pts).query_knn(src[unreliable], k)
        vectors[unreliable] = np.median(rel_vec[nn_ids], axis=1)
    vectors[disoccluded] = 0.0
    return (FlowField(vectors),
            InitFlowDiagnostics(unreliable=unreliable, disoccluded=disoccluded),
            forward)


def _fit_clusters(src: np.ndarray, dst: np.ndarray, groups):
    """One rigid fit of ``src[ids] -> dst[ids]`` per group of point ids.

    Groups too small or too flat to fit get the identity transform and are
    listed by position.  Returns ``(transforms, degenerate_ids)``.
    """
    transforms = []
    degenerate = []
    for k, ids in enumerate(groups):
        try:
            transforms.append(weighted_kabsch(src[ids], dst[ids]))
        except DegenerateInput:
            transforms.append(RigidTransform.identity())
            degenerate.append(k)
    return transforms, degenerate


def refine_flow(p_t: PointCloud, targets: np.ndarray, mask, flow: FlowField):
    """Rigidify a flow field per cluster via one correspondence pass.

    ``targets[i]`` is point i's correspondence in frame t+1: the nearest
    neighbor there of ``p_t[i] + flow[i]``.  One rigid transform per cluster
    is fitted to its points' pairs, and the cluster's output flow is then
    exactly ``T_k(p) - p``.  Clusters too small or too flat to fit (fewer
    than 3 points, degenerate covariance) keep their input flow and report
    the identity transform.

    Returns ``(FlowField, transforms, degenerate_ids)`` with one transform per
    cluster id.  The flow is :func:`apply_fit` of the fit, so ``mask.labels``
    and the two lists rebuild it from ``flow``, and ``segment.cluster`` can
    take them as the fit behind it.
    """
    _check_aligned(p_t, mask=mask.labels, flow=flow, targets=targets)
    groups = members(mask.labels)
    transforms, degenerate = _fit_clusters(p_t.points, targets, groups)
    out = apply_fit(p_t, groups, flow, transforms, degenerate)
    return out, transforms, degenerate


def apply_fit(p_t: PointCloud, groups, flow: FlowField, transforms,
              degenerate) -> FlowField:
    """``flow`` with each fitted group's points set to exactly ``T_k(p) - p``.

    ``groups`` are the point ids of each cluster (:func:`members` of the
    fitted labels); groups listed in ``degenerate`` keep their flow.
    """
    src = p_t.points
    out = flow.vectors.copy()
    for k, (t_k, group) in enumerate(zip(transforms, groups)):
        if k not in degenerate:
            pts = src[group]
            out[group] = t_k.apply(pts) - pts
    return FlowField(out)


def fit_transforms(p_t: PointCloud, flow: FlowField, mask):
    """Per-cluster rigid fit of an existing flow field, no correspondence search.

    Fits each cluster's transform directly from ``p -> p + s``; used to
    evaluate the motion loss on a given (flow, mask) state.  Degenerate
    clusters get the identity.  Returns ``(transforms, degenerate_ids)``.
    """
    _check_aligned(p_t, mask=mask.labels, flow=flow)
    src = p_t.points
    return _fit_clusters(src, src + flow.vectors, members(mask.labels))
