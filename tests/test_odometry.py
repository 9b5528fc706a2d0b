"""Ego-motion fitting, pose accumulation, relative pose error, file I/O."""

import numpy as np
import pytest

from flowseg.datagen import generate, random_scene_spec
from flowseg.errors import (DegenerateStaticSet, FormatError, LengthMismatch,
                            TimestampMismatch)
from flowseg.flow import FlowField, PointCloud
from flowseg.geometry import RigidTransform
from flowseg.odometry import (ErrorStats, Pose, Trajectory,
                              TrajectoryErrorReport, accumulate, ego_motion,
                              read_trajectory, rpe, write_trajectory)
from flowseg.segment import SegmentationMask


def rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def cloud_of(points):
    return PointCloud(np.asarray(points, dtype=np.float64))


def static_mask(n):
    return SegmentationMask(np.zeros(n, dtype=np.int64))


def traj_of(transforms, t0=0.0, dt=0.1):
    return Trajectory(tuple(Pose(t, t0 + i * dt)
                            for i, t in enumerate(transforms)))


class TestEgoMotion:
    def test_zero_flow_identity(self):
        rng = np.random.default_rng(70)
        pts = rng.uniform(-5, 5, size=(50, 3))
        fit = ego_motion(cloud_of(pts), FlowField.zeros(50), static_mask(50))
        assert np.linalg.norm(fit.rotation - np.eye(3)) < 1e-12
        assert np.linalg.norm(fit.translation) < 1e-12

    def test_inverse_gives_ego_increment(self):
        # static world appears to move by -t when the sensor moves by +t
        rng = np.random.default_rng(71)
        pts = rng.uniform(-5, 5, size=(50, 3))
        flow = FlowField(np.tile([-1.0, 0.0, 0.0], (50, 1)))
        inc = ego_motion(cloud_of(pts), flow, static_mask(50)).inverse()
        np.testing.assert_allclose(inc.translation, [1.0, 0.0, 0.0],
                                   atol=1e-9)

    def test_dynamic_points_ignored(self):
        rng = np.random.default_rng(72)
        pts = rng.uniform(-5, 5, size=(60, 3))
        vec = np.tile([0.5, 0.0, 0.0], (60, 1))
        vec[40:] = rng.standard_normal((20, 3)) * 50.0  # dynamic garbage
        labels = np.r_[np.zeros(40, dtype=np.int64),
                       np.ones(20, dtype=np.int64)]
        fit = ego_motion(cloud_of(pts), FlowField(vec),
                         SegmentationMask(labels))
        np.testing.assert_allclose(fit.translation, [0.5, 0.0, 0.0],
                                   atol=1e-9)

    def test_recovers_generator_increment(self):
        spec = random_scene_spec(73, n_points=1500, n_objects=1,
                                 noise_sigma=0.0)
        recs = generate(spec)
        gt_mask = recs[0].gt_mask
        inc = ego_motion(recs[0].cloud, recs[0].gt_flow, gt_mask).inverse()
        assert np.linalg.norm(inc.rotation
                              - spec.ego_motion.rotation) < 1e-6
        assert np.linalg.norm(inc.translation
                              - spec.ego_motion.translation) < 1e-6

    def test_too_few_static_points(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [5.0, 5, 5]])
        labels = np.array([1, 1, 1, 0], dtype=np.int64)
        with pytest.raises(DegenerateStaticSet):
            ego_motion(cloud_of(pts), FlowField.zeros(4),
                       SegmentationMask(labels))


class TestAccumulate:
    def test_identity_increments(self):
        traj = accumulate([RigidTransform.identity()] * 4,
                          [0.0, 0.1, 0.2, 0.3, 0.4])
        assert len(traj) == 5
        for pose in traj.poses:
            assert np.linalg.norm(pose.transform.translation) == 0.0

    def test_constant_translation(self):
        inc = RigidTransform(np.eye(3), np.array([1.0, 0.0, 0.0]))
        traj = accumulate([inc] * 5, [float(i) for i in range(6)])
        np.testing.assert_allclose(traj.poses[-1].transform.translation,
                                   [5.0, 0.0, 0.0], atol=1e-12)

    def test_matches_left_fold(self):
        rng = np.random.default_rng(74)
        incs = []
        for _ in range(8):
            q, r = np.linalg.qr(rng.standard_normal((3, 3)))
            q *= np.sign(np.diag(r))
            if np.linalg.det(q) < 0:
                q[:, 2] *= -1.0
            incs.append(RigidTransform(q, rng.standard_normal(3)))
        traj = accumulate(incs, [float(i) for i in range(9)])
        m = np.eye(4)
        for inc in incs:
            m = m @ inc.matrix
        np.testing.assert_allclose(traj.poses[-1].transform.matrix, m,
                                   atol=1e-9)

    def test_first_pose_is_identity(self):
        inc = RigidTransform(rot_z(0.2), np.array([1.0, 2.0, 3.0]))
        traj = accumulate([inc], [0.0, 1.0])
        np.testing.assert_array_equal(traj.poses[0].transform.matrix,
                                      np.eye(4))

    def test_timestamp_count_mismatch(self):
        with pytest.raises(LengthMismatch):
            accumulate([RigidTransform.identity()], [0.0, 1.0, 2.0])


class TestRpe:
    def test_identical_trajectories_zero(self):
        rng = np.random.default_rng(75)
        incs = [RigidTransform(rot_z(rng.uniform(-0.1, 0.1)),
                               rng.standard_normal(3)) for _ in range(5)]
        traj = accumulate(incs, [float(i) for i in range(6)])
        rep = rpe(traj, traj)
        assert rep.translational.rmse == 0.0
        assert rep.rotational.rmse == 0.0
        assert rep.count == 5

    def test_constant_offset_cancels(self):
        rng = np.random.default_rng(76)
        incs = [RigidTransform(rot_z(rng.uniform(-0.1, 0.1)),
                               rng.standard_normal(3)) for _ in range(5)]
        gt = accumulate(incs, [float(i) for i in range(6)])
        offset = RigidTransform(rot_z(0.7), np.array([10.0, -3.0, 2.0]))
        shifted = Trajectory(tuple(
            Pose(offset @ p.transform, p.timestamp)
            for p in gt.poses))
        rep = rpe(shifted, gt)
        assert rep.translational.rmse < 1e-9
        assert rep.rotational.rmse < 1e-9

    def test_single_step_unit_error(self):
        gt = traj_of([RigidTransform.identity(),
                      RigidTransform(np.eye(3), np.array([1.0, 0.0, 0.0]))])
        est = traj_of([RigidTransform.identity(),
                       RigidTransform.identity()])
        rep = rpe(est, gt)
        assert rep.translational.mean == pytest.approx(1.0)
        assert rep.translational.rmse == pytest.approx(1.0)
        assert rep.translational.sse == pytest.approx(1.0)
        assert rep.translational.std == pytest.approx(0.0, abs=1e-12)

    def test_statistics_identities(self):
        rng = np.random.default_rng(77)
        incs_gt = [RigidTransform(rot_z(rng.uniform(-0.2, 0.2)),
                                  rng.standard_normal(3)) for _ in range(9)]
        incs_est = [RigidTransform(rot_z(rng.uniform(-0.2, 0.2)),
                                   rng.standard_normal(3)) for _ in range(9)]
        stamps = [float(i) for i in range(10)]
        rep = rpe(accumulate(incs_est, stamps), accumulate(incs_gt, stamps))
        for stats in (rep.translational, rep.rotational):
            assert stats.rmse == pytest.approx(
                np.sqrt(stats.sse / rep.count), abs=1e-9)
            assert stats.std == pytest.approx(
                np.sqrt(max(stats.rmse ** 2 - stats.mean ** 2, 0.0)),
                abs=1e-9)

    def test_length_mismatch_names_both(self):
        a = traj_of([RigidTransform.identity()] * 3)
        b = traj_of([RigidTransform.identity()] * 4)
        with pytest.raises(LengthMismatch) as exc:
            rpe(a, b)
        assert "3" in str(exc.value) and "4" in str(exc.value)

    def test_timestamp_mismatch(self):
        a = traj_of([RigidTransform.identity()] * 3, t0=0.0)
        b = traj_of([RigidTransform.identity()] * 3, t0=0.5)
        with pytest.raises(TimestampMismatch):
            rpe(a, b)

    def test_too_short(self):
        a = traj_of([RigidTransform.identity()])
        with pytest.raises(LengthMismatch):
            rpe(a, a)


class TestErrorStatsValidation:
    def test_report_rejects_inconsistent_identities(self):
        good = ErrorStats(mean=1.0, rmse=1.0, sse=2.0, std=0.0)
        bad = ErrorStats(mean=1.0, rmse=1.0, sse=999.0, std=0.0)
        with pytest.raises(ValueError):
            TrajectoryErrorReport(translational=good, rotational=bad, count=2)


class TestTrajectoryIO:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(78)
        incs = [RigidTransform(rot_z(rng.uniform(-0.3, 0.3)),
                               rng.standard_normal(3)) for _ in range(6)]
        traj = accumulate(incs, [i * 0.1 for i in range(7)])
        path = tmp_path / "traj.txt"
        write_trajectory(traj, path)
        back = read_trajectory(path, dt=0.1)
        assert len(back) == len(traj)
        for p, q in zip(back.poses, traj.poses):
            # %.17g prints doubles exactly, so the round trip is bit-true
            np.testing.assert_array_equal(p.transform.matrix,
                                          q.transform.matrix)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "traj.txt"
        row = " ".join(["1", "0", "0", "0", "0", "1", "0", "0",
                       "0", "0", "1", "0"])
        path.write_text(f"# header\n\n{row}\n# trailing\n{row}\n")
        traj = read_trajectory(path, dt=0.5)
        assert len(traj) == 2
        assert traj.poses[1].timestamp == pytest.approx(0.5)

    def test_wrong_token_count(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("1 0 0\n")
        with pytest.raises(FormatError):
            read_trajectory(path)

    @pytest.mark.parametrize("bad", ["x", "nan", "inf"])
    def test_bad_float(self, tmp_path, bad):
        path = tmp_path / "traj.txt"
        path.write_text("# header\n" + " ".join([bad] + ["0"] * 11) + "\n")
        with pytest.raises(FormatError, match="traj.txt: line 2"):
            read_trajectory(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("# only comments\n")
        with pytest.raises(FormatError):
            read_trajectory(path)
