"""Ego-motion from the static set, trajectory accumulation, and RPE evaluation.

The static cluster's flow is the apparent motion of the world in the sensor
frame; fitting one rigid transform to it and inverting gives the ego pose
increment.  Trajectories accumulate increments from an identity start, and
relative pose error compares consecutive increments of an estimate against
ground truth with population statistics (MEAN, RMSE, SSE, STD).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateInput, DegenerateStaticSet, FormatError,
                     LengthMismatch, TimestampMismatch)
from .geometry import RigidTransform, weighted_kabsch

__all__ = [
    "Pose",
    "Trajectory",
    "ErrorStats",
    "TrajectoryErrorReport",
    "ego_motion",
    "accumulate",
    "rpe",
    "write_trajectory",
    "read_trajectory",
]


@dataclass(frozen=True)
class Pose:
    """A stamped world-from-sensor transform."""

    transform: RigidTransform
    timestamp: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.timestamp):
            raise ValueError("timestamp must be finite")


@dataclass(frozen=True)
class Trajectory:
    """Ordered poses with strictly increasing timestamps.

    Accumulated trajectories start at the identity (poses are relative to the
    first frame); trajectories loaded from files or offset for comparison may
    start anywhere.
    """

    poses: tuple

    def __post_init__(self) -> None:
        poses = tuple(self.poses)
        if not poses:
            raise ValueError("trajectory must contain at least one pose")
        times = np.array([p.timestamp for p in poses])
        if (np.diff(times) <= 0).any():
            raise ValueError("timestamps must be strictly increasing")
        object.__setattr__(self, "poses", poses)

    def __len__(self) -> int:
        return len(self.poses)


@dataclass(frozen=True)
class ErrorStats:
    """Population statistics of one error channel."""

    mean: float
    rmse: float
    sse: float
    std: float


@dataclass(frozen=True)
class TrajectoryErrorReport:
    """Relative-pose-error statistics, translational (m) and rotational (rad)."""

    translational: ErrorStats
    rotational: ErrorStats
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("report needs at least one error sample")
        for stats in (self.translational, self.rotational):
            if abs(stats.rmse ** 2 * self.count - stats.sse) > 1e-9 * max(1, self.count):
                raise ValueError("RMSE^2 * count must equal SSE")
            if abs(stats.std ** 2 - (stats.rmse ** 2 - stats.mean ** 2)) > 1e-9:
                raise ValueError("STD^2 must equal RMSE^2 - MEAN^2")


def ego_motion(p_t, flow, mask) -> RigidTransform:
    """Rigid motion of the static world in the sensor frame.

    Fits static points (cluster 0 of a canonical mask) to themselves plus
    their flow.  The ego pose increment is the inverse of the returned
    transform.
    """
    sel = mask.labels == 0
    if int(sel.sum()) < 3:
        raise DegenerateStaticSet(f"static cluster has {int(sel.sum())} points, need 3")
    pts = p_t.points[sel]
    try:
        return weighted_kabsch(pts, pts + flow.vectors[sel])
    except DegenerateInput as e:
        raise DegenerateStaticSet(str(e)) from e


def accumulate(increments, timestamps) -> Trajectory:
    """Chain ego increments into a trajectory: pose_0 = identity,
    pose_{i+1} = pose_i o increment_i.  Needs one timestamp per pose
    (len(increments) + 1)."""
    increments = list(increments)
    timestamps = list(timestamps)
    if not increments:
        raise ValueError("need at least one increment")
    if len(timestamps) != len(increments) + 1:
        raise LengthMismatch(
            f"got {len(timestamps)} timestamps for {len(increments)} increments, "
            f"need {len(increments) + 1}")
    poses = [Pose(RigidTransform.identity(), float(timestamps[0]))]
    for inc, ts in zip(increments, timestamps[1:]):
        poses.append(Pose(poses[-1].transform @ inc, float(ts)))
    return Trajectory(tuple(poses))


def _stats(errors: np.ndarray) -> ErrorStats:
    mean = float(errors.mean())
    sse = float((errors ** 2).sum())
    rmse = float(np.sqrt(sse / errors.shape[0]))
    std = float(np.sqrt(max(rmse ** 2 - mean ** 2, 0.0)))
    return ErrorStats(mean=mean, rmse=rmse, sse=sse, std=std)


def rpe(estimated: Trajectory, ground_truth: Trajectory) -> TrajectoryErrorReport:
    """Relative pose error over consecutive frames.

    For each step, E_i = (Q_i^-1 Q_{i+1})^-1 (P_i^-1 P_{i+1}) with Q ground
    truth and P the estimate; the translational sample is ||trans(E_i)|| and
    the rotational sample the rotation angle of E_i.  Statistics are over the
    population of n-1 steps.  Both trajectories may carry an arbitrary common
    offset; it cancels in the relative errors.
    """
    n = len(estimated)
    if n != len(ground_truth):
        raise LengthMismatch(
            f"trajectory lengths differ: estimated {n}, ground truth {len(ground_truth)}")
    if n < 2:
        raise LengthMismatch("need at least 2 poses to form a relative error")
    for i, (pe, pg) in enumerate(zip(estimated.poses, ground_truth.poses)):
        if abs(pe.timestamp - pg.timestamp) > 1e-9:
            raise TimestampMismatch(
                f"pose {i}: timestamps {pe.timestamp} vs {pg.timestamp}")
    t_err = np.empty(n - 1)
    r_err = np.empty(n - 1)
    for i in range(n - 1):
        dq = ground_truth.poses[i].transform.inverse() @ ground_truth.poses[i + 1].transform
        dp = estimated.poses[i].transform.inverse() @ estimated.poses[i + 1].transform
        e = dq.inverse() @ dp
        t_err[i] = np.linalg.norm(e.translation)
        r_err[i] = e.rotation_angle()
    return TrajectoryErrorReport(translational=_stats(t_err),
                                 rotational=_stats(r_err), count=n - 1)


def _pose_line(transform: RigidTransform) -> str:
    """The row-major 3x4 [R|t] matrix as 12 round-tripping reals."""
    return " ".join(format(v, ".17g") for v in transform.matrix[:3].ravel())


def _parse_pose(tokens, where: str) -> RigidTransform:
    """The transform of 12 [R|t] tokens, or a FormatError at ``where``."""
    try:
        values = np.array([float(t) for t in tokens]).reshape(3, 4)
    except ValueError as e:
        raise FormatError(f"{where}: {e}") from e
    if not np.isfinite(values).all():
        raise FormatError(f"{where}: pose values must be finite")
    return RigidTransform.from_matrix(values)


def write_trajectory(trajectory: Trajectory, path) -> None:
    """One pose per line: 12 reals, the row-major 3x4 [R|t] matrix."""
    lines = [_pose_line(pose.transform) for pose in trajectory.poses]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def read_trajectory(path, dt: float = 1.0, t0: float = 0.0) -> Trajectory:
    """Parse a 12-reals-per-line [R|t] file; '#' lines and blanks are skipped.

    The format carries no timestamps, so poses are stamped t0 + i*dt.
    """
    poses = []
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            tokens = text.split()
            if len(tokens) != 12:
                raise FormatError(
                    f"{path}: line {line_no}: expected 12 values, got {len(tokens)}")
            poses.append(Pose(_parse_pose(tokens, f"{path}: line {line_no}"),
                              t0 + len(poses) * dt))
    if not poses:
        raise FormatError(f"{path}: no poses found")
    return Trajectory(tuple(poses))
