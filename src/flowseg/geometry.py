"""Rigid-motion and nearest-neighbor kernels.

Everything downstream (flow refinement, segmentation, odometry) is built on
four primitives: SE(3) transforms, the Kabsch fit, an exact
nearest-neighbor index, and the Chamfer distance.  All functions are pure;
``SpatialIndex``, the only k-d tree, is immutable and safe to query from
multiple threads.  It answers a stack of queries two ways, both exact and
both through one tree search: ``query`` gives ``(ids, distances)``; ``match``
gives a :class:`Match`, which the next stack, or the same one against moved
points, reuses row by row wherever the triangle inequality proves the
nearest point unchanged.  ``query_knn`` gives each row's k nearest points,
and ``pairs`` is its one radius search.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateInput, EmptyCloud, EmptyIndex, MaskMismatch

__all__ = [
    "ROTATION_TOL",
    "RigidTransform",
    "Match",
    "SpatialIndex",
    "weighted_kabsch",
    "chamfer_distance",
]

# Orthonormality tolerance for a valid rotation: ||R^T R - I||_F
ROTATION_TOL = 1e-9

# Relative singular-value threshold below which the Kabsch covariance is
# treated as rank deficient (collinear or coincident source points)
_RANK_RTOL = 1e-9

# slack (m) on each side of SpatialIndex.match's reuse test, far above the
# rounding error of the distances it compares
TOL = 1e-9


def _points_array(data, name: str = "points") -> np.ndarray:
    """Coerce a point set (or anything with a ``.points`` array) to float64 (N, 3)."""
    raw = getattr(data, "points", data)
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"{name} must have shape (N, 3), got {arr.shape}")
    return arr


def _check_aligned(reference, of: str = "cloud", **parts) -> None:
    """Raise MaskMismatch unless each named part has ``reference``'s length."""
    for name, part in parts.items():
        if len(part) != len(reference):
            raise MaskMismatch(f"{name} covers {len(part)} points, "
                               f"{of} has {len(reference)}")


def _fields_equal(self, other):
    """Value equality for a dataclass holding arrays: same type, and every
    compared field ``np.array_equal``, so arrays compare by shape and
    contents where the generated ``__eq__`` would raise."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
               for f in fields(self) if f.compare)


@dataclass(frozen=True)
class RigidTransform:
    """A proper rigid motion of 3-space: ``p -> rotation @ p + translation``.

    The rotation must be orthonormal with determinant +1 (checked lazily via
    :meth:`orthonormality_error` rather than on construction, so intermediate
    arithmetic stays cheap).
    """

    rotation: np.ndarray
    translation: np.ndarray

    __eq__ = _fields_equal

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

    def is_rigid(self) -> bool:
        return (self.orthonormality_error() <= ROTATION_TOL
                and np.linalg.det(self.rotation) > 0)

    def apply(self, points) -> np.ndarray:
        """Transform a single point (3,) or a stack of points (N, 3)."""
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation

    def __matmul__(self, other: "RigidTransform") -> "RigidTransform":
        """``self @ other`` applies ``other`` first, then ``self``."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)

    def rotation_angle(self) -> float:
        """Rotation magnitude in radians (axis-angle norm)."""
        c = (np.trace(self.rotation) - 1.0) / 2.0
        return float(np.arccos(min(1.0, max(-1.0, c))))


def weighted_kabsch(src, dst) -> RigidTransform:
    """Best-fit rigid transform minimizing ``sum_i ||T(src_i) - dst_i||^2``.

    Closed-form SVD solution with the usual reflection correction (sign flip
    on the smallest singular vector) so the result is a proper rotation.
    Every correspondence weighs 1/N; the name stays because perfbench swaps
    this function by it.

    Args:
        src: source points, (N, 3) with N >= 3.
        dst: target points, index-aligned with ``src``.

    Raises:
        DegenerateInput: fewer than 3 correspondences, or a rank-deficient
            covariance (collinear / coincident points).  Callers that cannot
            fail should catch this and fall back to the identity transform.
    """
    s = _points_array(src, "src")
    d = _points_array(dst, "dst")
    if s.shape[0] != d.shape[0]:
        raise ValueError(f"src and dst must have equal length ({s.shape[0]} vs {d.shape[0]})")
    n = s.shape[0]
    if n < 3:
        raise DegenerateInput(f"need at least 3 correspondences, got {n}")
    w = np.full(n, 1.0 / n)
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


@dataclass(frozen=True)
class Match:
    """The nearest indexed point of each row of a query stack.

    ``ids`` and ``distances`` are what :meth:`SpatialIndex.query` returns for
    ``queries``.  ``clearance[r]`` is a lower bound on the distance from
    ``queries[r]`` to every indexed point other than ``ids[r]``; a row whose
    nearest distance ties another point's has ``clearance == distances``.
    """

    ids: np.ndarray
    distances: np.ndarray
    queries: np.ndarray
    clearance: np.ndarray


class SpatialIndex:
    """Exact nearest-neighbor index over a fixed 3-D point set.

    Backed by an axis-aligned k-d tree.  ``query`` and ``match`` answer an
    (M, 3) stack with ids and distances that match exhaustive search
    bit-for-bit, with distance ties broken toward the lowest point id (the
    same answer ``argmin`` over squared distances gives).
    """

    def __init__(self, points) -> None:
        pts = _points_array(points)
        if pts.shape[0] == 0:
            raise EmptyIndex("cannot index an empty point set")
        if not np.isfinite(pts).all():
            raise ValueError("indexed points must be finite")
        self._points = np.ascontiguousarray(pts)
        # sliding-midpoint splits: at 32768 points the tree builds in about
        # half the time of median splits and answers no slower; an exact
        # search finds the same distances whatever the splits
        self._tree = cKDTree(self._points, balanced_tree=False)

    def __len__(self) -> int:
        return self._points.shape[0]

    @property
    def points(self) -> np.ndarray:
        return self._points

    def query(self, queries):
        """Nearest indexed point for each row of an (M, 3) stack of queries.

        Returns ``(ids, distances)``, two arrays of length M.
        """
        ids, dist, _ = self._search(_points_array(queries, "queries"))
        return ids, dist

    def match(self, queries, previous: Match = None,
              moved: float = 0.0) -> Match:
        """Nearest indexed point for each row of an (M, 3) stack, as a
        :class:`Match` equal to a fresh :meth:`query` of the stack.

        With ``previous``, a match of M earlier queries against the same
        points in the same order, each since moved by at most ``moved``, row
        r keeps ``previous.ids[r]`` unsearched when it is provably nearest:
        its distance d and step ``δ = |q_r - q_prev_r|`` satisfy
        ``d + TOL < clearance_r - δ - moved - TOL``, as by the triangle
        inequality every other point stays at least that clearance away.
        Such a row gets ``d`` summed as the tree sums it and that clearance;
        every other row is searched.
        """
        q = np.array(_points_array(queries, "queries"))
        if previous is None:
            ids, dist, clearance = self._search(q)
            return Match(ids, dist, q, clearance)
        if previous.queries.shape != q.shape:
            raise ValueError(f"previous match covers {previous.queries.shape[0]} "
                             f"queries, got {q.shape[0]}")
        ids = previous.ids.copy()
        dist = _norms(q - self._points[ids])
        clearance = previous.clearance - _norms(q - previous.queries) - moved
        redo = np.nonzero(~(dist + TOL < clearance - TOL))[0]
        ids[redo], dist[redo], clearance[redo] = self._search(q[redo])
        return Match(ids, dist, q, clearance)

    def query_knn(self, queries, k: int):
        """The ``k`` nearest indexed points of each row of an (M, 3) stack,
        nearest first, as ``(ids, distances)`` arrays shaped (M, k).

        Ties keep the tree's order.  ``k`` must lie in ``1..len(self)``.
        """
        q = _points_array(queries, "queries")
        if not 1 <= k <= len(self):
            raise ValueError(f"k must lie in 1..{len(self)}, got {k}")
        dist, ids = self._tree.query(q, k=range(1, k + 1))
        return ids, dist

    def pairs(self, eps: float) -> np.ndarray:
        """The (P, 2) ``i < j`` pairs within ``eps``, in the tree's order."""
        return self._tree.query_pairs(eps, output_type="ndarray")

    def _search(self, q: np.ndarray):
        """``(ids, distances, clearance)`` of the nearest point per row."""
        # the tree returns the correctly rounded sqrt of d² summed as
        # (dx² + dy²) + dz², as ``_exhaustive`` sums it, so every d² tie for
        # the nearest shows as equal distances and only those rows need a scan
        dist, ids = self._tree.query(q, k=[1, 2])
        tie = np.nonzero(dist[:, 1] == dist[:, 0])[0]
        ids, nearest = ids[:, 0].copy(), dist[:, 0].copy()
        for row in tie:
            ids[row], d2 = self._exhaustive(q[row])
            nearest[row] = np.sqrt(d2)
        return ids, nearest, dist[:, 1]

    def _exhaustive(self, point: np.ndarray):
        d2 = ((point - self._points) ** 2).sum(axis=1)
        i = int(np.argmin(d2))
        return i, d2[i]


def _norms(diff: np.ndarray) -> np.ndarray:
    """Row norms of an (M, 3) array, summed as (dx² + dy²) + dz² like the tree."""
    return np.sqrt((diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1])
                   + diff[:, 2] * diff[:, 2])


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
    return float(SpatialIndex(pb).query(pa)[1].sum()
                 + SpatialIndex(pa).query(pb)[1].sum())
