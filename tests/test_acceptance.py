"""Acceptance gates for the toolkit, one printed verdict line per gate.

The nine gates: the rigid-fit oracle, chamfer equivalence against brute
force, the loss zero point on exact ground truth, segmentation accuracy,
flow accuracy, and convergence behavior on a 100-scene suite, odometry
ordering over long sequences, error-statistics identities, and byte-level
determinism of every file the package writes.  Each gate prints exactly
one PASS/FAIL line through the capture layer so verdicts always reach the
terminal.
"""

import os
from time import perf_counter

import numpy as np
import pytest

from flowseg.cli import RUN_MANIFEST, main
from flowseg.datagen import (generate, random_scene_spec, read_frame,
                             read_sequence, write_frame, write_sequence)
from flowseg.errors import FormatError
from flowseg.flow import fit_transforms
from flowseg.geometry import (RigidTransform, SpatialIndex, chamfer_distance,
                              weighted_kabsch)
from flowseg.losses import chamfer_loss, total_loss
from flowseg.metrics import flow_metrics, seg_metrics
from flowseg.odometry import (Trajectory, accumulate, ego_motion,
                              read_trajectory, rpe, write_trajectory)
from flowseg.pipeline import IterationConfig, run
from flowseg.segment import SegmentationMask
from helpers import random_rotation


@pytest.fixture
def verdict(capsys):
    def emit(number, label, ok, detail):
        line = f"{'PASS' if ok else 'FAIL'}: gate {number} ({label}): {detail}"
        with capsys.disabled():
            print(line)
        assert ok, line
    return emit


@pytest.fixture(scope="module")
def scene_suite():
    """100 two-frame scenes, 8192 points, 1 to 5 movers, sigma 0.01 m."""
    results = []
    for seed in range(100):
        spec = random_scene_spec(seed, n_objects=1 + seed % 5)
        records = generate(spec)
        ssf = run(records[0].cloud, records[1].cloud, IterationConfig())
        accuracy = seg_metrics(ssf.mask, records[0].gt_mask).accuracy
        epe = flow_metrics(ssf.flow, records[0].gt_flow).epe3d
        totals = [b.total for b in ssf.losses]
        # non-increasing from the second iteration onward; the chamfer term
        # sits on an observation-noise floor of a few hundred meters, so a
        # relative slack separates float wiggle from a real regression
        monotone = all(totals[i + 1] <= totals[i] * (1 + 1e-3) + 1e-9
                       for i in range(1, len(totals) - 1))
        results.append((accuracy, epe, ssf.report.converged, monotone))
    return results


def test_gate_1_rigid_fit_oracle(verdict):
    rng = np.random.default_rng(1234)
    start = perf_counter()
    worst_rot = worst_trans = 0.0
    for _ in range(1000):
        n = int(rng.integers(4, 201))
        # gaussian draws are noncollinear with probability one; the fixed
        # seed locks in a conforming set
        src = rng.standard_normal((n, 3)) * rng.uniform(0.5, 5.0)
        rot = random_rotation(rng)
        trans = rng.uniform(-10.0, 10.0, 3)
        est = weighted_kabsch(src, src @ rot.T + trans)
        worst_rot = max(worst_rot, float(np.linalg.norm(est.rotation - rot)))
        worst_trans = max(worst_trans,
                          float(np.linalg.norm(est.translation - trans)))
    elapsed = perf_counter() - start
    ok = worst_rot <= 1e-9 and worst_trans <= 1e-9 and elapsed < 2.0
    verdict(1, "rigid fit oracle", ok,
            f"1000 problems, worst rotation {worst_rot:.2e}, worst "
            f"translation {worst_trans:.2e} (tol 1e-9), {elapsed:.2f}s (< 2s)")


def test_gate_2_chamfer_brute_force(verdict):
    rng = np.random.default_rng(99)
    start = perf_counter()
    worst = 0.0
    for _ in range(200):
        na, nb = (int(v) for v in rng.integers(1, 501, size=2))
        a = rng.uniform(-5.0, 5.0, (na, 3))
        b = rng.uniform(-5.0, 5.0, (nb, 3))
        d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        brute = float(d.min(axis=1).sum() + d.min(axis=0).sum())
        worst = max(worst, abs(chamfer_distance(a, b) - brute))
    elapsed = perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    verdict(2, "chamfer equals brute force", ok,
            f"200 pairs, worst gap {worst:.2e} (tol 1e-9), "
            f"{elapsed:.2f}s (< 5s)")


def test_gate_3_loss_zero_point(verdict):
    # rotation-free motion: the cluster-coherence term measures flow spread
    # within a cluster, and a rigid rotation has intrinsically nonuniform
    # flow, so the exact zero point of all three terms is translational
    worst = 0.0
    for seed in range(50):
        spec = random_scene_spec(seed, n_objects=1 + seed % 5,
                                 noise_sigma=0.0, ego_yaw_rate=(0.0, 0.0),
                                 object_yaw_rate=(0.0, 0.0))
        records = generate(spec)
        p_t, p_t1 = records[0].cloud, records[1].cloud
        gt_flow = records[0].gt_flow
        fit = fit_transforms(p_t, gt_flow, records[0].gt_mask)
        _, forward = SpatialIndex(p_t1).query(p_t.points + gt_flow.vectors)
        losses = total_loss(p_t, gt_flow, fit,
                            chamfer_loss(p_t, gt_flow, p_t1, forward.sum()).value)
        worst = max(worst, losses.total, losses.l_mot, losses.l_sc,
                    losses.l_cd)
    ok = worst <= 1e-6
    verdict(3, "loss zero point on ground truth", ok,
            f"50 noiseless scenes, worst component {worst:.2e} (tol 1e-6)")


def test_gate_4_segmentation_accuracy(verdict, scene_suite):
    accuracies = [r[0] for r in scene_suite]
    mean, low = float(np.mean(accuracies)), float(np.min(accuracies))
    ok = mean >= 95.0 and low >= 85.0
    verdict(4, "segmentation accuracy", ok,
            f"100 scenes, mean {mean:.2f}% (>= 95), min {low:.2f}% (>= 85)")


def test_gate_5_flow_accuracy(verdict, scene_suite):
    mean_epe = float(np.mean([r[1] for r in scene_suite]))
    ok = mean_epe <= 0.05
    verdict(5, "flow accuracy", ok,
            f"100 scenes, mean EPE3D {mean_epe:.4f} m (<= 0.05)")


def test_gate_6_convergence(verdict, scene_suite):
    converged = sum(r[2] for r in scene_suite)
    monotone = sum(r[3] for r in scene_suite)
    ok = converged >= 95 and monotone >= 95
    verdict(6, "convergence behavior", ok,
            f"{converged}/100 converged within 20 iterations (>= 95), "
            f"{monotone}/100 with non-increasing loss from iteration 2 "
            f"(>= 95)")


def test_gate_7_odometry_ordering(verdict):
    start = perf_counter()
    wins = 0
    ssf_rmse = []
    cfg = IterationConfig()
    for seed in range(30):
        spec = random_scene_spec(seed, n_frames=20, n_points=2048,
                                 n_objects=2)
        records = generate(spec)
        inc_static, inc_all = [], []
        for rec_a, rec_b in zip(records[:-1], records[1:]):
            out = run(rec_a.cloud, rec_b.cloud, cfg)
            inc_static.append(
                ego_motion(rec_a.cloud, out.flow, out.mask).inverse())
            everything = SegmentationMask(
                np.zeros(len(rec_a.cloud), dtype=np.int64))
            inc_all.append(
                ego_motion(rec_a.cloud, out.flow, everything).inverse())
        stamps = [r.cloud.timestamp for r in records]
        gt = Trajectory(tuple(r.gt_ego for r in records))
        static_report = rpe(accumulate(inc_static, stamps), gt)
        all_report = rpe(accumulate(inc_all, stamps), gt)
        wins += (static_report.translational.rmse
                 <= all_report.translational.rmse)
        ssf_rmse.append(static_report.translational.rmse)
    elapsed = perf_counter() - start
    worst = float(np.max(ssf_rmse))
    ok = wins >= 28 and worst <= 0.05 and elapsed < 60.0
    verdict(7, "odometry ordering", ok,
            f"static-only beats all-points in {wins}/30 sequences (>= 28), "
            f"worst static-only RMSE {worst:.4f} m (<= 0.05), "
            f"{elapsed:.1f}s (< 60s)")


def test_gate_8_error_statistics_identities(verdict):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 12))
        stamps = [0.1 * i for i in range(n)]

        def rand_traj():
            from flowseg.odometry import Pose
            pose = RigidTransform.identity()
            poses = []
            for ts in stamps:
                step = RigidTransform(random_rotation(rng),
                                      rng.uniform(-1.0, 1.0, 3))
                pose = pose @ step
                poses.append(Pose(pose, ts))
            return Trajectory(tuple(poses))

        est, gt = rand_traj(), rand_traj()
        report = rpe(est, gt)
        t_err, r_err = [], []
        for i in range(n - 1):
            dq = (gt.poses[i].transform.inverse()
                  @ gt.poses[i + 1].transform)
            dp = (est.poses[i].transform.inverse()
                  @ est.poses[i + 1].transform)
            e = dq.inverse() @ dp
            t_err.append(float(np.linalg.norm(e.translation)))
            r_err.append(e.rotation_angle())
        for stats, errors in ((report.translational, t_err),
                              (report.rotational, r_err)):
            e = np.asarray(errors)
            worst = max(
                worst,
                abs(stats.sse - float((e ** 2).sum())),
                abs(stats.rmse - np.sqrt(stats.sse / report.count)),
                abs(stats.std
                    - np.sqrt(max(stats.rmse ** 2 - stats.mean ** 2, 0.0))))
    ok = worst <= 1e-9
    verdict(8, "error statistics identities", ok,
            f"30 random trajectory pairs, worst identity gap {worst:.2e} "
            f"(tol 1e-9)")


def raises_format_error(fn) -> bool:
    try:
        fn()
    except FormatError:
        return True
    return False


def test_gate_9_determinism_and_formats(verdict, tmp_path):
    checks = {}

    def same_bytes(dir_a, dir_b, names):
        for name in names:
            with open(os.path.join(dir_a, name), "rb") as f:
                blob_a = f.read()
            with open(os.path.join(dir_b, name), "rb") as f:
                blob_b = f.read()
            if blob_a != blob_b:
                return False
        return True

    flags = ["--seed", "17", "--frames", "3", "--points", "900",
             "--objects", "2"]
    seq_a, seq_b = str(tmp_path / "seq_a"), str(tmp_path / "seq_b")
    assert main(["gen", *flags, "--out", seq_a]) == 0
    assert main(["gen", *flags, "--out", seq_b]) == 0
    checks["dataset"] = same_bytes(seq_a, seq_b, sorted(os.listdir(seq_a)))

    run_a, run_b = str(tmp_path / "run_a"), str(tmp_path / "run_b")
    assert main(["run", "--input", seq_a, "--out", run_a]) == 0
    assert main(["run", "--input", seq_a, "--out", run_b]) == 0
    run_files = ["ssf_0000.pcf", "ssf_0001.pcf", "report_0000.json",
                 "report_0001.json", "trajectory_est.txt", RUN_MANIFEST]
    checks["run"] = same_bytes(run_a, run_b, run_files)

    fig_a, fig_b = str(tmp_path / "fig_a"), str(tmp_path / "fig_b")
    assert main(["plot", "--run", run_a, "--data", seq_a,
                 "--out", fig_a]) == 0
    assert main(["plot", "--run", run_a, "--data", seq_a,
                 "--out", fig_b]) == 0
    checks["plots"] = same_bytes(
        fig_a, fig_b, ["trajectory.svg", "losses.svg", "deltas.svg"])

    rng = np.random.default_rng(0)
    pts = rng.uniform(-3.0, 3.0, (64, 3))
    flow = rng.standard_normal((64, 3)) * 0.1
    labels = rng.integers(0, 3, 64)
    f1, f2 = str(tmp_path / "a.pcf"), str(tmp_path / "b.pcf")
    write_frame(f1, pts, flow=flow, labels=labels)
    back_pts, back_flow, back_labels = read_frame(f1)
    write_frame(f2, back_pts, flow=back_flow, labels=back_labels)
    with open(f1, "rb") as f:
        frame_a = f.read()
    with open(f2, "rb") as f:
        frame_b = f.read()
    checks["frame round trip"] = frame_a == frame_b

    seq_c = str(tmp_path / "seq_c")
    write_sequence(read_sequence(seq_a), seq_c, dt=0.1)
    checks["sequence round trip"] = same_bytes(
        seq_a, seq_c, sorted(os.listdir(seq_a)))

    traj = read_trajectory(os.path.join(run_a, "trajectory_est.txt"), dt=0.1)
    t2 = str(tmp_path / "traj.txt")
    write_trajectory(traj, t2)
    with open(os.path.join(run_a, "trajectory_est.txt"), "rb") as f:
        traj_a = f.read()
    with open(t2, "rb") as f:
        traj_b = f.read()
    checks["trajectory round trip"] = traj_a == traj_b

    with open(f1, "rb") as f:
        blob = f.read()
    bad_magic = str(tmp_path / "bad_magic.pcf")
    with open(bad_magic, "wb") as f:
        f.write(b"XXXX" + blob[4:])
    truncated = str(tmp_path / "truncated.pcf")
    with open(truncated, "wb") as f:
        f.write(blob[:len(blob) - 7])
    bad_line = str(tmp_path / "bad_traj.txt")
    with open(bad_line, "w", encoding="utf-8") as f:
        f.write("1 0 0 0 1\n")
    broken_seq = str(tmp_path / "seq_broken")
    write_sequence(read_sequence(seq_a), broken_seq, dt=0.1)
    with open(os.path.join(broken_seq, "frame_0001.pcf"), "r+b") as f:
        f.truncate(40)
    checks["corruption raises"] = all((
        raises_format_error(lambda: read_frame(bad_magic)),
        raises_format_error(lambda: read_frame(truncated)),
        raises_format_error(lambda: read_trajectory(bad_line)),
        raises_format_error(lambda: read_sequence(broken_seq)),
    ))

    failed = sorted(name for name, ok in checks.items() if not ok)
    ok = not failed
    verdict(9, "determinism and formats", ok,
            "datasets, run outputs, plots byte-identical; round trips "
            "bit-exact; corrupt inputs rejected"
            if ok else f"failing checks: {', '.join(failed)}")
