"""Synthetic scene generator with exact ground truth, plus the dataset format.

``generate`` runs three steps.  Sample: a world of a jittered-grid ground
plane, two walls, and floating rigid boxes that translate and yaw per frame,
drawn as each frame's world-frame points; the one sampler moves frame 0's
points.  Ground truth: the sensor moves through the world by a constant
per-frame ego increment and every frame is expressed in the sensor frame, so
static points carry apparent flow; flow, mask and ego pose are exact float64
and index-aligned across frames.  Observe: occlusion, then Gaussian noise on
the positions only, never the ground truth, then the optional shuffle.

Datasets stay byte-identical only while seed stream ``(seed, 1)`` draws, in
order, background jitter, box placement, noise for every frame, and one
permutation per frame (``random_scene_spec`` draws from ``(seed, 0)``).  A
later sampler draws from its own ``SeedSequence((seed, k))``, so turning it
on does not disturb the rest of the scene.

World layout constants are chosen so the static background forms one density-
connected component at the default clustering radius: grid pitch 0.45 m with
15% jitter keeps neighbor gaps under 0.8 m, walls sit one pitch beyond the
outermost ground row, and boxes float 1.2-1.8 m above the ground so they never
touch the background spatially.
"""
from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InvalidSpec
from .flow import FlowField, PointCloud
from .geometry import RigidTransform, _check_aligned
from .odometry import Pose, _parse_pose, _pose_line
from .segment import SegmentationMask

__all__ = [
    "SceneSpec",
    "FrameRecord",
    "random_scene_spec",
    "generate",
    "write_frame",
    "read_frame",
    "write_sequence",
    "read_sequence",
]

MANIFEST_NAME = "sequence.pcseq"

_PITCH = 0.45          # ground/wall grid spacing, meters
_JITTER = 0.15         # in-plane jitter as a fraction of the pitch
_ROUGHNESS = 0.02      # out-of-plane jitter, meters
_GROUND_FRACTION = 0.7  # share of background points on the ground plane
_WALL_HEIGHT = 3.0
_BOX_SIZE = (1.5, 3.0)        # per-axis edge length range
_BOX_FLOAT = (1.2, 1.8)       # gap between ground and box underside
_BOX_MIN_SEP = 4.0            # wanted distance between box centers; after
                              # 50 closer draws the last one is kept
_BOX_MARGIN = 4.0             # keep boxes away from the walls


@dataclass(frozen=True)
class SceneSpec:
    """Deterministic recipe for one synthetic sequence.

    ``ego_motion`` is the constant per-frame sensor increment (applied in the
    sensor frame).  Each object's motion is its per-frame world-frame step,
    interpreted about the object's own tracked center: rotate about the
    center, then translate it.
    """

    seed: int
    n_background: int
    n_objects: int
    points_per_object: int
    ego_motion: RigidTransform
    object_motions: tuple
    noise_sigma: float
    n_frames: int
    dt: float
    occlusion: bool = False
    shuffle: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "object_motions", tuple(self.object_motions))
        if self.n_background < 3:
            raise InvalidSpec(f"n_background must be >= 3, got {self.n_background}")
        if self.n_objects < 0:
            raise InvalidSpec("n_objects must be nonnegative")
        if self.n_objects > 0 and self.points_per_object < 3:
            raise InvalidSpec(
                f"points_per_object must be >= 3, got {self.points_per_object}")
        if len(self.object_motions) != self.n_objects:
            raise InvalidSpec(
                f"got {len(self.object_motions)} object motions for "
                f"{self.n_objects} objects")
        if not all(isinstance(m, RigidTransform) for m in self.object_motions):
            raise InvalidSpec("object_motions must be RigidTransform instances")
        if not isinstance(self.ego_motion, RigidTransform):
            raise InvalidSpec("ego_motion must be a RigidTransform")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise InvalidSpec(
                f"noise_sigma must be finite and nonnegative, got {self.noise_sigma}")
        if self.n_frames < 1:
            raise InvalidSpec("n_frames must be at least 1")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise InvalidSpec(f"dt must be positive and finite, got {self.dt}")


@dataclass(frozen=True)
class FrameRecord:
    """One generated frame: observed cloud plus exact ground truth.

    ``gt_flow`` points to the next frame and is absent on the last one.
    """

    cloud: PointCloud
    gt_flow: object
    gt_mask: SegmentationMask
    gt_ego: Pose

    def __post_init__(self) -> None:
        if self.gt_flow is not None:
            _check_aligned(self.cloud, gt_flow=self.gt_flow)
        _check_aligned(self.cloud, gt_mask=self.gt_mask)


def _yaw(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_scene_spec(seed: int, *, n_frames: int = 2, n_points: int = 8192,
                      n_objects: int = 3, points_per_object: int = None,
                      regime: str = None, noise_sigma: float = 0.01,
                      dt: float = 0.1, occlusion: bool = False,
                      shuffle: bool = False,
                      ego_speed=(0.4, 1.2), ego_yaw_rate=(-0.05, 0.05),
                      object_speed=(1.5, 3.5), object_yaw_rate=(-0.3, 0.3)
                      ) -> SceneSpec:
    """Draw a SceneSpec with random motions from a seeded stream.

    ``regime`` sizes the foreground: 'dh' spreads about 100 foreground points
    over the objects, 'dt' about 4000.  Without a regime,
    ``points_per_object`` applies directly (default 150); passing both
    raises InvalidSpec.  Total point count
    stays at ``n_points``; the background gets the remainder.  Speeds are in
    m/s, yaw rates in rad/s; passing a degenerate range like ``(0, 0)`` pins
    the draw, which is how rotation-free scenes are made.

    The default speed ranges keep per-frame displacements well under half the
    background grid spacing.  Nearest-neighbor flow initialization on a
    near-regular lattice locks onto the wrong cell once the motion per frame
    approaches the point spacing, and no amount of rigid refinement recovers
    from that, so the generator defaults stay inside the basin where
    correspondence search is well posed.  Object speed is additionally capped
    so total travel over the sequence stays under the wall placement margin,
    keeping movers spatially separated from the background for the whole clip.
    """
    # checked before dt divides the travel budget below
    if not (np.isfinite(dt) and dt > 0):
        raise InvalidSpec(f"dt must be positive and finite, got {dt}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    if regime is not None:
        if points_per_object is not None:
            raise InvalidSpec("regime and points_per_object both size the "
                              f"movers; got regime={regime!r} and "
                              f"points_per_object={points_per_object}")
        if regime not in ("dh", "dt"):
            raise InvalidSpec(f"regime must be 'dh' or 'dt', got {regime!r}")
        target = {"dh": 100, "dt": 4000}[regime]
        ppo = max(3, round(target / n_objects)) if n_objects > 0 else 0
    elif points_per_object is not None:
        ppo = points_per_object
    else:
        ppo = 150 if n_objects > 0 else 0
    n_background = n_points - n_objects * ppo
    if n_background < 3:
        raise InvalidSpec(
            f"n_points must be at least {n_objects * ppo + 3} for {n_objects} "
            f"movers of {ppo} points plus a background of 3, got {n_points}")
    v = rng.uniform(*ego_speed)
    w = rng.uniform(*ego_yaw_rate)
    ego = RigidTransform(_yaw(w * dt), np.array([v * dt, 0.0, 0.0]))
    travel_budget = _BOX_MARGIN - 1.5  # worst-case box half-extent
    horizon = max((n_frames - 1) * dt, dt)
    hi = min(object_speed[1], travel_budget / horizon)
    lo = min(object_speed[0], hi)
    motions = []
    for _ in range(n_objects):
        speed = rng.uniform(lo, hi)
        heading = rng.uniform(0.0, 2.0 * np.pi)
        yaw_rate = rng.uniform(*object_yaw_rate)
        step = np.array([speed * dt * np.cos(heading),
                         speed * dt * np.sin(heading), 0.0])
        motions.append(RigidTransform(_yaw(yaw_rate * dt), step))
    return SceneSpec(seed=seed, n_background=n_background, n_objects=n_objects,
                     points_per_object=ppo, ego_motion=ego,
                     object_motions=tuple(motions), noise_sigma=noise_sigma,
                     n_frames=n_frames, dt=dt, occlusion=occlusion,
                     shuffle=shuffle)


def _build_background(rng, n_background: int):
    """Ground grid plus two walls; returns (points, grid half-extents)."""
    n_ground = max(3, round(_GROUND_FRACTION * n_background))
    cols = int(np.ceil(np.sqrt(n_ground)))
    rows = int(np.ceil(n_ground / cols))
    idx = np.arange(n_ground)
    gx = (idx % cols - (cols - 1) / 2.0) * _PITCH
    gy = (idx // cols - (rows - 1) / 2.0) * _PITCH
    jit = rng.uniform(-_JITTER * _PITCH, _JITTER * _PITCH, size=(n_ground, 2))
    gz = rng.uniform(-_ROUGHNESS, _ROUGHNESS, size=n_ground)
    ground = np.column_stack([gx + jit[:, 0], gy + jit[:, 1], gz])
    half_x = (cols - 1) / 2.0 * _PITCH
    half_y = (rows - 1) / 2.0 * _PITCH

    n_wall = n_background - n_ground
    walls = []
    for side, n_w in ((1.0, (n_wall + 1) // 2), (-1.0, n_wall // 2)):
        cols_w = max(1, 2 * int(np.ceil(half_x / _PITCH)) + 1)
        rows_z = max(1, int(np.ceil(_WALL_HEIGHT / _PITCH)))
        cells = np.arange(n_w) % (cols_w * rows_z)
        xi = cells % cols_w
        zi = cells // cols_w
        wx = (xi - (cols_w - 1) / 2.0) * _PITCH
        wz = (zi + 0.5) * _PITCH
        jit_w = rng.uniform(-_JITTER * _PITCH, _JITTER * _PITCH, size=(n_w, 2))
        wy = rng.uniform(-_ROUGHNESS, _ROUGHNESS, size=n_w) + side * (half_y + _PITCH)
        walls.append(np.column_stack([wx + jit_w[:, 0], wy, wz + jit_w[:, 1]]))
    return np.vstack([ground] + walls), half_x, half_y


def _place_boxes(rng, spec: SceneSpec, half_x: float, half_y: float):
    """Box point sets, centers, and bounding radii (all world frame)."""
    inner_x = max(half_x - _BOX_MARGIN, 0.0)
    inner_y = max(half_y - _BOX_MARGIN, 0.0)
    centers = []
    boxes = []
    radii = []
    for _ in range(spec.n_objects):
        for _attempt in range(50):
            c_xy = rng.uniform([-inner_x, -inner_y], [inner_x, inner_y])
            if all(np.linalg.norm(c_xy - c[:2]) >= _BOX_MIN_SEP for c in centers):
                break
        size = rng.uniform(_BOX_SIZE[0], _BOX_SIZE[1], size=3)
        gap = rng.uniform(_BOX_FLOAT[0], _BOX_FLOAT[1])
        center = np.array([c_xy[0], c_xy[1], gap + size[2] / 2.0])
        pts = center + rng.uniform(-0.5, 0.5, size=(spec.points_per_object, 3)) * size
        centers.append(center)
        boxes.append(pts)
        radii.append(float(np.linalg.norm(size) / 2.0))
    return boxes, centers, radii


def _sample(rng, spec: SceneSpec):
    """Step 1: every frame's world-frame points, their labels, and per frame
    each mover's (center, bounding radius); frame 0's points, moved."""
    background, half_x, half_y = _build_background(rng, spec.n_background)
    boxes, centers, radii = _place_boxes(rng, spec, half_x, half_y)
    labels = np.repeat(np.arange(spec.n_objects + 1), [spec.n_background]
                       + [spec.points_per_object] * spec.n_objects)
    world, movers = [], []
    for _ in range(spec.n_frames):
        world.append(np.vstack([background] + boxes))
        movers.append(list(zip(centers, radii)))
        boxes = [c + (b - c) @ m.rotation.T + m.translation
                 for b, c, m in zip(boxes, centers, spec.object_motions)]
        centers = [c + m.translation
                   for c, m in zip(centers, spec.object_motions)]
    return world, labels, movers


def _ground_truth(ego_motion: RigidTransform, world):
    """Step 2: the ego pose chain, sensor-frame clouds, and flows to the next
    frame.  Each next frame is stored as point + flow so the round trip is
    bit-exact; a + (b - a) does not equal b under floating-point rounding."""
    poses, flows = [RigidTransform.identity()], []
    sensor = [poses[0].inverse().apply(world[0])]
    for points in world[1:]:
        poses.append(poses[-1] @ ego_motion)
        flows.append(poses[-1].inverse().apply(points) - sensor[-1])
        sensor.append(sensor[-1] + flows[-1])
    return poses, sensor, flows


def _occlude(poses, sensor, flows, labels, movers):
    """Drop every point that some other mover shadows from the sensor in
    any frame; the surviving labels are recompacted to 0..k."""
    keep = np.ones(labels.shape[0], dtype=bool)
    for pose, p, frame_movers in zip(poses, sensor, movers):
        inv = pose.inverse()
        p_norm = np.linalg.norm(p, axis=1)
        safe_norm = np.where(p_norm > 0, p_norm, 1.0)
        for k, (center, radius) in enumerate(frame_movers):
            c = inv.apply(center)
            c_norm = np.linalg.norm(c)
            if c_norm == 0:
                continue
            scaled = p * (c_norm / safe_norm)[:, None]
            shadowed = np.linalg.norm(scaled - c, axis=1) < 0.9 * radius
            keep &= ~((p_norm > c_norm) & shadowed & (labels != k + 1))
    if not keep.any():
        raise InvalidSpec("occlusion removed every point")
    return ([s[keep] for s in sensor], [f[keep] for f in flows],
            np.unique(labels[keep], return_inverse=True)[1])


def _observe(rng, spec: SceneSpec, poses, sensor, flows, labels, movers):
    """Step 3: occlusion, then noise on the positions only, then one
    permutation per frame; returns (clouds, flows, per-frame labels)."""
    if spec.occlusion:
        sensor, flows, labels = _occlude(poses, sensor, flows, labels, movers)
    if spec.noise_sigma > 0:
        sensor = [s + spec.noise_sigma * rng.standard_normal(s.shape)
                  for s in sensor]
    if not spec.shuffle:
        return sensor, flows, [labels] * spec.n_frames
    perms = [rng.permutation(labels.shape[0]) for _ in range(spec.n_frames)]
    return ([s[perm] for s, perm in zip(sensor, perms)],
            [f[perm] for f, perm in zip(flows, perms)],
            [labels[perm] for perm in perms])


def generate(spec: SceneSpec):
    """Produce the sequence described by ``spec``; deterministic per seed."""
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 1)))
    world, labels, movers = _sample(rng, spec)
    poses, sensor, flows = _ground_truth(spec.ego_motion, world)
    clouds, flows, frame_labels = _observe(rng, spec, poses, sensor, flows,
                                           labels, movers)
    return [FrameRecord(
        cloud=PointCloud(clouds[t], frame_id=t, timestamp=t * spec.dt),
        gt_flow=FlowField(flows[t]) if t < len(flows) else None,
        gt_mask=SegmentationMask(frame_labels[t]),
        gt_ego=Pose(poses[t], t * spec.dt)) for t in range(spec.n_frames)]


# --- on-disk format ---------------------------------------------------------
#
# Frame file (little-endian): magic "PCF1", u32 point count, u8 flags
# (bit0 = flow present, bit1 = labels present), then N*3 f32 positions,
# N*3 f32 flow if bit0, N u32 labels if bit1.
#
# Sequence manifest (text): "PCSEQ1", "dt=<seconds>", then one line per frame:
# relative file name + 12 reals of the ego pose ([R|t] row-major).

_HEADER = struct.Struct("<IB")


def write_frame(path, points, flow=None, labels=None) -> None:
    """Write one frame file; positions/flow stored as f32, labels as u32."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    flags = (1 if flow is not None else 0) | (2 if labels is not None else 0)
    chunks = [b"PCF1", _HEADER.pack(n, flags),
              np.ascontiguousarray(pts, dtype="<f4").tobytes()]
    if flow is not None:
        vec = np.asarray(flow, dtype=np.float64)
        _check_aligned(pts, "frame", flow=vec)
        chunks.append(np.ascontiguousarray(vec, dtype="<f4").tobytes())
    if labels is not None:
        lab = np.asarray(labels)
        _check_aligned(pts, "frame", labels=lab)
        chunks.append(np.ascontiguousarray(lab, dtype="<u4").tobytes())
    with open(path, "wb") as f:
        f.write(b"".join(chunks))


def read_frame(path):
    """Read one frame file -> (points, flow | None, labels | None).

    Raises FormatError on a bad magic, unknown flags, truncation, trailing
    bytes, or an array its type rejects (non-finite positions or flow,
    non-contiguous labels); never returns a partial record.
    """
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 4 or data[:4] != b"PCF1":
        raise FormatError(f"{path}: bad magic at offset 0")
    if len(data) < 4 + _HEADER.size:
        raise FormatError(f"{path}: truncated header at offset 4")
    n, flags = _HEADER.unpack_from(data, 4)
    if flags & ~0b11:
        raise FormatError(f"{path}: unknown flags 0x{flags:02x}")
    if n == 0:
        raise FormatError(f"{path}: frame contains no points")
    offset = 4 + _HEADER.size
    need = 12 * n + (12 * n if flags & 1 else 0) + (4 * n if flags & 2 else 0)
    have = len(data) - offset
    if have < need:
        raise FormatError(
            f"{path}: truncated payload, need {need} bytes after offset {offset}, "
            f"found {have}")
    if have > need:
        raise FormatError(f"{path}: {have - need} trailing bytes after payload")
    try:
        pts = np.frombuffer(data, dtype="<f4", count=3 * n, offset=offset)
        pts = PointCloud(pts.reshape(n, 3)).points
        offset += 12 * n
        flow = None
        if flags & 1:
            flow = np.frombuffer(data, dtype="<f4", count=3 * n, offset=offset)
            flow = FlowField(flow.reshape(n, 3)).vectors
            offset += 12 * n
        labels = None
        if flags & 2:
            labels = np.frombuffer(data, dtype="<u4", count=n, offset=offset)
            labels = SegmentationMask(labels).labels
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from e
    return pts, flow, labels


def write_sequence(records, path, dt: float) -> str:
    """Write records to a directory (frame files + manifest) with frame
    interval ``dt`` in seconds; returns the manifest path.

    A manifest already there is removed before the first frame is written,
    and the new one is renamed into place after the last, so a write that
    fails midway leaves no readable sequence rather than old and new frames
    mixed."""
    records = list(records)
    if not records:
        raise ValueError("cannot write an empty sequence")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    os.makedirs(path, exist_ok=True)
    manifest = os.path.join(path, MANIFEST_NAME)
    with contextlib.suppress(FileNotFoundError):
        os.remove(manifest)
    lines = ["PCSEQ1", f"dt={dt:.17g}"]
    for i, rec in enumerate(records):
        name = f"frame_{i:04d}.pcf"
        write_frame(os.path.join(path, name), rec.cloud.points,
                    flow=None if rec.gt_flow is None else rec.gt_flow.vectors,
                    labels=rec.gt_mask.labels)
        lines.append(f"{name} {_pose_line(rec.gt_ego.transform)}")
    with open(manifest + ".tmp", "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    os.replace(manifest + ".tmp", manifest)
    return manifest


def read_sequence(path):
    """Read a sequence directory (or manifest path) back into FrameRecords."""
    manifest = os.path.join(path, MANIFEST_NAME) if os.path.isdir(path) else path
    base = os.path.dirname(manifest)
    # a file that is not text decodes without raising and fails the magic
    with open(manifest, "r", encoding="utf-8", errors="replace") as f:
        lines = [line.rstrip("\n") for line in f]
    lines = [line for line in lines if line.strip()]
    if not lines or lines[0] != "PCSEQ1":
        raise FormatError(f"{manifest}: bad manifest magic on line 1")
    if len(lines) < 2 or not lines[1].startswith("dt="):
        raise FormatError(f"{manifest}: missing dt= on line 2")
    try:
        dt = float(lines[1][3:])
    except ValueError as e:
        raise FormatError(f"{manifest}: bad dt value: {e}") from e
    if not (np.isfinite(dt) and dt > 0):
        raise FormatError(f"{manifest}: dt must be positive and finite, "
                          f"got {dt}")
    records = []
    for i, line in enumerate(lines[2:]):
        tokens = line.split()
        if len(tokens) != 13:
            raise FormatError(
                f"{manifest}: frame line {i}: expected name + 12 pose values, "
                f"got {len(tokens)} tokens")
        pose = _parse_pose(tokens[1:], f"{manifest}: frame line {i}")
        pts, flow, labels = read_frame(os.path.join(base, tokens[0]))
        if labels is None:
            raise FormatError(
                f"{manifest}: frame {tokens[0]} lacks ground-truth labels")
        records.append(FrameRecord(
            cloud=PointCloud(pts, frame_id=i, timestamp=i * dt),
            gt_flow=None if flow is None else FlowField(flow),
            gt_mask=SegmentationMask(labels),
            gt_ego=Pose(pose, i * dt)))
    if not records:
        raise FormatError(f"{manifest}: sequence contains no frames")
    return records
