"""Rigid-motion and nearest-neighbor kernels.

Everything downstream (flow refinement, segmentation, odometry) is built on
four primitives: SE(3) transforms, the weighted Kabsch fit, an exact
nearest-neighbor index, and the Chamfer distance.  All functions are pure;
``SpatialIndex`` is immutable after construction and safe to query from
multiple threads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateInput, EmptyCloud, EmptyIndex

__all__ = [
    "ROTATION_TOL",
    "RigidTransform",
    "SpatialIndex",
    "weighted_kabsch",
    "chamfer_distance",
]

# Orthonormality tolerance for a valid rotation: ||R^T R - I||_F
ROTATION_TOL = 1e-9

# Relative singular-value threshold below which the Kabsch covariance is
# treated as rank deficient (collinear or coincident source points)
_RANK_RTOL = 1e-9


def _points_array(data, name: str = "points") -> np.ndarray:
    """Coerce a point set (or anything with a ``.points`` array) to float64 (N, 3)."""
    raw = getattr(data, "points", data)
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"{name} must have shape (N, 3), got {arr.shape}")
    return arr


@dataclass(frozen=True)
class RigidTransform:
    """A proper rigid motion of 3-space: ``p -> rotation @ p + translation``.

    The rotation must be orthonormal with determinant +1 (checked lazily via
    :meth:`orthonormality_error` rather than on construction, so intermediate
    arithmetic stays cheap).
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        rot = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        tra = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if not (np.isfinite(rot).all() and np.isfinite(tra).all()):
            raise ValueError("transform components must be finite")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tra)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_matrix(cls, matrix) -> "RigidTransform":
        """Build from a 4x4 homogeneous or 3x4 [R|t] matrix."""
        m = np.asarray(matrix, dtype=np.float64)
        if m.shape not in ((4, 4), (3, 4)):
            raise ValueError(f"expected a 4x4 or 3x4 matrix, got {m.shape}")
        return cls(m[:3, :3], m[:3, 3])

    @property
    def matrix(self) -> np.ndarray:
        """The 4x4 homogeneous matrix."""
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def orthonormality_error(self) -> float:
        """Frobenius norm of ``R^T R - I``."""
        return float(np.linalg.norm(self.rotation.T @ self.rotation - np.eye(3)))

    def is_rigid(self, tol: float = ROTATION_TOL) -> bool:
        return self.orthonormality_error() <= tol and np.linalg.det(self.rotation) > 0

    def apply(self, points) -> np.ndarray:
        """Transform a single point (3,) or a stack of points (N, 3)."""
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """``self.compose(other)`` applies ``other`` first, then ``self``."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def __matmul__(self, other: "RigidTransform") -> "RigidTransform":
        return self.compose(other)

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)

    def rotation_angle(self) -> float:
        """Rotation magnitude in radians (axis-angle norm)."""
        c = (np.trace(self.rotation) - 1.0) / 2.0
        return float(np.arccos(min(1.0, max(-1.0, c))))


def weighted_kabsch(src, dst, weights=None) -> RigidTransform:
    """Best-fit rigid transform minimizing ``sum_i w_i ||T(src_i) - dst_i||^2``.

    Closed-form SVD solution with the usual reflection correction (sign flip
    on the smallest singular vector) so the result is a proper rotation.

    Args:
        src: source points, (N, 3) with N >= 3.
        dst: target points, index-aligned with ``src``.
        weights: per-correspondence nonnegative weights; uniform if omitted.

    Raises:
        DegenerateInput: fewer than 3 correspondences, zero total weight, or a
            rank-deficient covariance (collinear / coincident weighted points).
            Callers that cannot fail should catch this and fall back to the
            identity transform.
    """
    s = _points_array(src, "src")
    d = _points_array(dst, "dst")
    if s.shape[0] != d.shape[0]:
        raise ValueError(f"src and dst must have equal length ({s.shape[0]} vs {d.shape[0]})")
    n = s.shape[0]
    if n < 3:
        raise DegenerateInput(f"need at least 3 correspondences, got {n}")
    if weights is None:
        w = np.full(n, 1.0 / n)
    else:
        w = np.asarray(weights, dtype=np.float64).reshape(n)
        if (w < 0).any():
            raise ValueError("weights must be nonnegative")
        total = w.sum()
        if total <= 0:
            raise DegenerateInput("total weight must be positive")
        w = w / total
    mu_s = w @ s
    mu_d = w @ d
    xs = s - mu_s
    xd = d - mu_d
    cov = (xs * w[:, None]).T @ xd
    u, sig, vt = np.linalg.svd(cov)
    if sig[1] <= _RANK_RTOL * sig[0]:
        raise DegenerateInput("rank-deficient covariance (collinear or coincident points)")
    flip = 1.0 if np.linalg.det(vt.T) * np.linalg.det(u) >= 0 else -1.0
    rot = (vt.T * np.array([1.0, 1.0, flip])) @ u.T
    return RigidTransform(rot, mu_d - rot @ mu_s)


class SpatialIndex:
    """Exact nearest-neighbor index over a fixed 3-D point set.

    Backed by an axis-aligned k-d tree.  Query results are guaranteed to match
    exhaustive search bit-for-bit, with distance ties broken toward the lowest
    point id (the same answer ``argmin`` over squared distances gives).
    """

    # candidates fetched per query.  The tree sums squared coordinate
    # differences in the same order as ``query`` does, (dx² + dy²) + dz², so
    # its candidates arrive sorted by the very d² compared there: the first
    # attains the minimum, and a tie that may reach past the fetch shows as
    # the second tying the first, which falls back to an exhaustive scan.
    # Two candidates are therefore exact.
    _K_CANDIDATES = 2

    def __init__(self, points) -> None:
        pts = _points_array(points)
        if pts.shape[0] == 0:
            raise EmptyIndex("cannot index an empty point set")
        if not np.isfinite(pts).all():
            raise ValueError("indexed points must be finite")
        self._points = np.ascontiguousarray(pts)
        self._tree = cKDTree(self._points)

    def __len__(self) -> int:
        return self._points.shape[0]

    @property
    def points(self) -> np.ndarray:
        return self._points

    def query(self, queries):
        """Nearest indexed point for each query.

        Accepts one point (3,) or a stack (M, 3); returns ``(id, distance)``
        scalars or ``(ids, distances)`` arrays accordingly.
        """
        q = np.asarray(queries, dtype=np.float64)
        single = q.ndim == 1
        q = np.atleast_2d(q)
        n = len(self)
        k = min(self._K_CANDIDATES, n)
        _, ii = self._tree.query(q, k=k)
        if k == 1:
            ii = ii[:, None]
        diff = q[:, None, :] - self._points[ii]
        d2 = (diff * diff).sum(axis=-1)
        best = d2.min(axis=1)
        tie = d2 == best[:, None]
        ids = np.where(tie, ii, n).min(axis=1)
        if k < n:
            # candidates arrive sorted by d², so if the last fetched one still
            # ties the tie set may extend beyond it: rescan exhaustively
            for row in np.nonzero(tie[:, -1])[0]:
                ids[row], best[row] = self._exhaustive(q[row])
        dist = np.sqrt(best)
        if single:
            return int(ids[0]), float(dist[0])
        return ids, dist

    def query_knn(self, queries, k: int):
        """Raw k-nearest-neighbor ids and distances, shaped (M, k)."""
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        k = min(k, len(self))
        dist, ids = self._tree.query(q, k=k)
        if k == 1:
            dist = dist[:, None]
            ids = ids[:, None]
        return ids, dist

    def _exhaustive(self, point: np.ndarray):
        d2 = ((point - self._points) ** 2).sum(axis=1)
        i = int(np.argmin(d2))
        return i, d2[i]


def chamfer_distance(a, b) -> float:
    """Bidirectional sum of nearest-neighbor distances between two point sets.

    ``sum_{x in a} min_{y in b} ||x - y|| + sum_{y in b} min_{x in a} ||x - y||``
    with plain (non-squared) norms and no averaging, so the value has units of
    meters and grows with point count.
    """
    pa = _points_array(a, "a")
    pb = _points_array(b, "b")
    if pa.shape[0] == 0 or pb.shape[0] == 0:
        raise EmptyCloud("chamfer distance requires two non-empty clouds")
    _, da = SpatialIndex(pb).query(pa)
    _, db = SpatialIndex(pa).query(pb)
    return float(da.sum() + db.sum())
