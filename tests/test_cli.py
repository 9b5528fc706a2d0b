"""End-to-end command-line flows: gen, run, eval, plot, and exit codes."""

import json
import os
import re
import shutil
import threading
from concurrent.futures import Executor, Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from flowseg import _svg, cli, pipeline
from flowseg.cli import PARTIAL_MARKER, RUN_MANIFEST, main
from flowseg.datagen import (FrameRecord, read_frame, read_sequence,
                             write_frame, write_sequence)
from flowseg.errors import DegenerateInput, FormatError, LengthMismatch
from flowseg.flow import FlowField, PointCloud
from flowseg.geometry import RigidTransform
from flowseg.odometry import Pose
from flowseg.pipeline import IterationConfig, run
from flowseg.segment import SegmentationMask

# one small noiseless sequence shared by most tests; seed 11 keeps every
# mover inside the correspondence capture range so flow is clean end to end
GEN_FLAGS = ["--seed", "11", "--frames", "3", "--points", "1200",
             "--objects", "2", "--noise", "0"]
RUN_FILES = ["ssf_0000.pcf", "ssf_0001.pcf", "report_0000.json",
             "report_0001.json", "trajectory_est.txt", RUN_MANIFEST]


@pytest.fixture(scope="module")
def seq_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("seq"))
    assert main(["gen", *GEN_FLAGS, "--out", d]) == 0
    return d


@pytest.fixture(scope="module")
def run_dir(seq_dir, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("run"))
    assert main(["run", "--input", seq_dir, "--out", d]) == 0
    return d


def read_bytes(*parts):
    with open(os.path.join(*parts), "rb") as f:
        return f.read()


def read_json(*parts):
    with open(os.path.join(*parts), "r", encoding="utf-8") as f:
        return json.load(f)


class TestExitCodes:
    def test_usage_errors_exit_2(self, tmp_path):
        assert main([]) == 2
        assert main(["gen"]) == 2  # missing required --out
        assert main(["gen", "--frobnicate", "--out", str(tmp_path)]) == 2
        assert main(["no-such-command"]) == 2

    def test_runtime_errors_exit_1(self, tmp_path, capsys):
        missing = str(tmp_path / "does_not_exist")
        assert main(["run", "--input", missing,
                     "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_key_error_is_a_bug_not_a_refusal(self, tmp_path, monkeypatch):
        # no malformed input reaches a KeyError, so one from a command
        # shows its traceback instead of an error line
        def cmd_gen(args):
            raise KeyError("key")

        monkeypatch.setattr(cli, "cmd_gen", cmd_gen)
        with pytest.raises(KeyError, match="key"):
            main(["gen", "--out", str(tmp_path / "o")])


class TestGen:
    def test_writes_sequence_and_reports_count(self, tmp_path, capsys):
        d = str(tmp_path / "seq")
        rc = main(["gen", "--seed", "3", "--frames", "2", "--points", "600",
                   "--objects", "1", "--out", d])
        assert rc == 0
        assert "wrote 2 frames to" in capsys.readouterr().out
        records = read_sequence(d)
        assert len(records) == 2
        assert len(records[0].cloud) == 600

    def test_byte_identical_rerun(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        flags = ["gen", "--seed", "5", "--frames", "3", "--points", "700",
                 "--objects", "2"]
        assert main([*flags, "--out", a]) == 0
        assert main([*flags, "--out", b]) == 0
        for name in sorted(os.listdir(a)):
            assert read_bytes(a, name) == read_bytes(b, name), name

    def test_regime_dh_sizes_foreground(self, tmp_path):
        d = str(tmp_path / "dh")
        assert main(["gen", "--seed", "1", "--points", "1000",
                     "--objects", "3", "--regime", "dh", "--out", d]) == 0
        labels = read_sequence(d)[0].gt_mask.labels
        assert abs(int(np.count_nonzero(labels)) - 100) <= 4

    def test_impossible_point_budget_exits_1(self, tmp_path, capsys):
        # 3 movers at the default 150 points each cannot fit in 10 points,
        # nor in 0; the message names the flag's quantity and its minimum
        for points in ("10", "0"):
            out = tmp_path / f"x{points}"
            rc = main(["gen", "--points", points, "--objects", "3",
                       "--out", str(out)])
            assert rc == 1
            err = capsys.readouterr().err
            assert "error: n_points must be at least 453" in err
            assert f"got {points}" in err and "n_background" not in err
            assert not out.exists()

    def test_regime_with_points_per_object_exits_1(self, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main(["gen", "--regime", "dt", "--points-per-object", "50",
                   "--points", "8192", "--objects", "1", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: regime and points_per_object" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_zero_dt_exits_1_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main(["gen", "--dt", "0", "--points", "600", "--objects", "1",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "dt" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,field", [
        ("--noise", "nan", "noise_sigma"), ("--noise", "inf", "noise_sigma"),
        ("--dt", "nan", "dt"), ("--dt", "inf", "dt")])
    def test_non_finite_setting_exits_1_and_writes_nothing(
            self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "x"
        rc = main(["gen", flag, value, "--points", "600", "--objects", "1",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {field} must be" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestRun:
    def test_outputs_and_manifest(self, seq_dir, run_dir):
        for name in RUN_FILES:
            assert os.path.exists(os.path.join(run_dir, name)), name
        assert not os.path.exists(os.path.join(run_dir, PARTIAL_MARKER))
        manifest = read_json(run_dir, RUN_MANIFEST)
        assert manifest["input"] == seq_dir
        assert manifest["n_frames"] == 3
        assert manifest["dt"] == pytest.approx(0.1)
        assert manifest["trajectory"] == "trajectory_est.txt"
        assert manifest["config"]["alpha"] == 1.0
        assert manifest["config"]["epsilon"] == 1e-3
        assert [p["index"] for p in manifest["pairs"]] == [0, 1]
        for pair in manifest["pairs"]:
            assert pair["ssf"] == f"ssf_{pair['index']:04d}.pcf"
            assert pair["report"] == f"report_{pair['index']:04d}.json"
            assert pair["converged"] is True

    def test_defaults_are_the_loop_settings(self):
        args = cli.build_parser().parse_args(
            ["run", "--input", "in", "--out", "out"])
        defaults = IterationConfig()
        for name in ("epsilon", "max_iters", "alpha", "beta", "strategy",
                     "theta"):
            assert getattr(args, name) == getattr(defaults, name), name

    def test_report_structure(self, run_dir):
        report = read_json(run_dir, "report_0000.json")
        rows = report["iterations"]
        assert report["converged"] is True
        assert len(rows) >= 2
        # exact key sets: a field added to or dropped from the dataclasses
        # the report is built from shows here
        assert set(report) == {"alpha", "beta", "epsilon", "converged",
                               "n_unreliable", "n_disoccluded", "iterations",
                               "transforms", "clusters"}
        keys = {"iteration", "flow_delta", "mask_delta", "delta_total",
                "l_mot", "l_sc", "l_cd", "total_loss", "n_clusters",
                "strategy", "static_fallback", "degenerate_clusters", "v_ego"}
        for row in rows:
            assert set(row) == keys
        for cluster in report["clusters"]:
            assert set(cluster) == {"cluster_id", "size", "mean_speed",
                                    "centroid"}
        assert rows[-1]["delta_total"] < report["epsilon"]
        assert [r["iteration"] for r in rows] == list(range(1, len(rows) + 1))
        assert len(report["transforms"]) == rows[-1]["n_clusters"]
        assert len(report["clusters"]) == rows[-1]["n_clusters"]

    def test_report_values_equal_an_in_process_run(self, seq_dir, run_dir):
        # JSON floats round-trip exactly, so every value compares with ==
        report = read_json(run_dir, "report_0000.json")
        cfg = IterationConfig(**read_json(run_dir, RUN_MANIFEST)["config"])
        records = read_sequence(seq_dir)
        ssf = run(records[0].cloud, records[1].cloud, cfg)
        assert [[row[key] for key in ("l_mot", "l_sc", "l_cd", "total_loss")]
                for row in report["iterations"]] == [
            [b.l_mot, b.l_sc, b.l_cd, b.total] for b in ssf.losses]
        assert report["transforms"] == [t.matrix[:3].ravel().tolist()
                                        for t in ssf.transforms]
        assert report["clusters"] == [
            {"cluster_id": s.cluster_id, "size": s.size,
             "mean_speed": s.mean_speed, "centroid": s.centroid.tolist()}
            for s in ssf.stats]

    def test_predictions_cover_each_source_frame(self, seq_dir, run_dir):
        records = read_sequence(seq_dir)
        for i in range(2):
            pts, flow, labels = read_frame(
                os.path.join(run_dir, f"ssf_{i:04d}.pcf"))
            assert flow is not None and labels is not None
            assert len(pts) == len(records[i].cloud)
            np.testing.assert_array_equal(
                pts, records[i].cloud.points.astype(np.float32))

    def test_byte_identical_rerun(self, seq_dir, run_dir, tmp_path):
        again = str(tmp_path / "again")
        assert main(["run", "--input", seq_dir, "--out", again]) == 0
        for name in RUN_FILES:
            assert read_bytes(again, name) == read_bytes(run_dir, name), name

    @pytest.mark.parametrize("overlap_min_points",
                             [pipeline.OVERLAP_MIN_POINTS, 1],
                             ids=["default", "1"])
    def test_worker_pool_matches_serial(self, seq_dir, run_dir, tmp_path,
                                        monkeypatch, overlap_min_points):
        # one pool thread runs each pair and the calling thread computes its
        # report; a process pool computes the report in its workers.  At 1,
        # run()'s helper thread starts inside the pool thread and inside
        # each forked worker.  The same files every way, manifest included
        monkeypatch.setattr(pipeline, "OVERLAP_MIN_POINTS", overlap_min_points)
        for workers in ("1", "2"):
            out = str(tmp_path / workers)
            assert main(["run", "--input", seq_dir, "--out", out,
                         "--workers", workers]) == 0
            assert sorted(os.listdir(out)) == sorted(RUN_FILES)
            for name in RUN_FILES:
                assert read_bytes(out, name) == read_bytes(run_dir, name), name

    def test_pool_forks_no_more_workers_than_pairs(self, seq_dir, run_dir,
                                                   tmp_path, monkeypatch):
        # a process pool forks all its workers at the first submit, so it is
        # sized to the pairs, and a single pair makes none; this one runs
        # each pair inline and forks none
        sizes = []

        class InlinePool(Executor):
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def submit(self, fn, payload):
                future = Future()
                future.set_result(fn(payload))
                return future

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        out = str(tmp_path / "wide")
        assert main(["run", "--input", seq_dir, "--out", out,
                     "--workers", "64"]) == 0
        assert sizes == [2]
        for name in RUN_FILES:
            assert read_bytes(out, name) == read_bytes(run_dir, name), name
        short = str(tmp_path / "short")
        assert main(["gen", *GEN_FLAGS, "--frames", "2", "--out", short]) == 0
        assert main(["run", "--input", short, "--out", str(tmp_path / "one"),
                     "--workers", "64"]) == 0
        assert sizes == [2]

    def test_report_failure_marks_its_pair(self, seq_dir, tmp_path,
                                           monkeypatch, capsys):
        # a pair's loss history is computed after run() returns, by the
        # calling thread while the pool thread runs the next pair; its
        # failure still fails the run at that pair
        from flowseg import losses

        def failing_chamfer(*args):
            raise ValueError("chamfer failed")

        monkeypatch.setattr(losses, "chamfer_loss", failing_chamfer)
        out = str(tmp_path / "failed")
        assert main(["run", "--input", seq_dir, "--out", out]) == 1
        assert ("frame pair 0 -> 1: pipeline: chamfer failed"
                in capsys.readouterr().err)
        with open(os.path.join(out, PARTIAL_MARKER), encoding="utf-8") as f:
            assert f.read() == "failed at frame pair 0 -> 1: pipeline\n"
        assert not os.path.exists(os.path.join(out, RUN_MANIFEST))

    def test_failed_pair_cancels_the_pairs_not_yet_started(
            self, tmp_path, monkeypatch, capsys):
        # pair 1 runs on the pool thread while pair 0's ego fit fails; the
        # failure must cancel pairs 2 and 3 instead of running them first
        seq = str(tmp_path / "seq")
        assert main(["gen", *GEN_FLAGS, "--frames", "5", "--out", seq]) == 0
        calls = []
        ego_fit_failed = threading.Event()

        def counted_run(p_t, p_t1, cfg):
            calls.append(p_t.frame_id)
            if len(calls) > 1:
                ego_fit_failed.wait(timeout=1.0)
            return run(p_t, p_t1, cfg)

        def failing_ego_motion(*args):
            ego_fit_failed.set()
            raise DegenerateInput("static set is degenerate")

        monkeypatch.setattr(cli, "run_pipeline", counted_run)
        monkeypatch.setattr(cli, "ego_motion", failing_ego_motion)
        out = str(tmp_path / "out")
        assert main(["run", "--input", seq, "--out", out,
                     "--workers", "1"]) == 1
        assert "frame pair 0 -> 1: ego fit" in capsys.readouterr().err
        with open(os.path.join(out, PARTIAL_MARKER), encoding="utf-8") as f:
            assert f.read() == "failed at frame pair 0 -> 1: ego fit\n"
        assert len(calls) <= 2

    def test_max_iters_caps_iterations(self, seq_dir, tmp_path):
        out = str(tmp_path / "capped")
        assert main(["run", "--input", seq_dir, "--out", out,
                     "--max-iters", "1"]) == 0
        for i in range(2):
            report = read_json(out, f"report_{i:04d}.json")
            assert len(report["iterations"]) == 1
            assert report["converged"] is False
        manifest = read_json(out, RUN_MANIFEST)
        assert all(p["iterations"] == 1 for p in manifest["pairs"])

    def test_single_frame_sequence_exits_1(self, tmp_path, capsys):
        seq = str(tmp_path / "one")
        assert main(["gen", "--seed", "3", "--frames", "1", "--points", "600",
                     "--objects", "1", "--out", seq]) == 0
        assert main(["run", "--input", seq, "--out", str(tmp_path / "o")]) == 1
        assert (capsys.readouterr().err
                == "error: need at least 2 frames to run\n")

    def test_bad_settings_or_input_leave_out_untouched(self, seq_dir,
                                                       tmp_path, capsys):
        out = str(tmp_path / "complete")
        assert main(["run", "--input", seq_dir, "--out", out]) == 0
        before = {name: read_bytes(out, name) for name in os.listdir(out)}
        missing = str(tmp_path / "does_not_exist")
        frame = os.path.join(seq_dir, "frame_0000.pcf")
        for argv, message in (
                (["--input", seq_dir, "--epsilon", "0"],
                 "epsilon must be positive and finite, got 0.0"),
                (["--input", seq_dir, "--workers", "0"],
                 "--workers must be at least 1, got 0"),
                (["--input", seq_dir, "--workers", "-3"],
                 "--workers must be at least 1, got -3"),
                (["--input", missing],
                 f"[Errno 2] No such file or directory: '{missing}'"),
                (["--input", frame],
                 f"{frame}: bad manifest magic on line 1")):
            capsys.readouterr()
            assert main(["run", *argv, "--out", out]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert {name: read_bytes(out, name)
                    for name in os.listdir(out)} == before
        fresh = str(tmp_path / "fresh")
        assert main(["run", "--input", missing, "--out", fresh]) == 1
        assert not os.path.exists(fresh)

    @pytest.mark.parametrize("field", ["points", "flow", "labels"])
    def test_bad_frame_is_named_and_leaves_out_untouched(
            self, seq_dir, run_dir, tmp_path, capsys, field):
        # a non-finite position or flow, or a gap in the cluster ids
        seq = str(tmp_path / "seq")
        shutil.copytree(seq_dir, seq)
        path = os.path.join(seq, "frame_0001.pcf")
        pts, flow, labels = read_frame(path)
        if field == "labels":
            labels = np.where(labels > 0, labels + 1, 0)
        else:
            {"points": pts, "flow": flow}[field][5, 1] = np.nan
        write_frame(path, pts, flow=flow, labels=labels)
        with pytest.raises(FormatError, match=re.escape(path)):
            read_frame(path)
        out = str(tmp_path / "out")
        shutil.copytree(run_dir, out)
        before = {name: read_bytes(out, name) for name in os.listdir(out)}
        assert main(["run", "--input", seq, "--out", out]) == 1
        assert "frame_0001.pcf" in capsys.readouterr().err
        assert {name: read_bytes(out, name)
                for name in os.listdir(out)} == before

    def test_non_finite_settings_leave_out_untouched(self, seq_dir, tmp_path,
                                                     capsys):
        out = str(tmp_path / "complete")
        assert main(["run", "--input", seq_dir, "--out", out]) == 0
        before = {name: read_bytes(out, name) for name in os.listdir(out)}
        for flag, value, field in (("--epsilon", "nan", "epsilon"),
                                   ("--epsilon", "inf", "epsilon"),
                                   ("--alpha", "nan", "alpha"),
                                   ("--beta", "inf", "beta"),
                                   ("--theta", "nan", "theta"),
                                   ("--theta", "inf", "theta")):
            capsys.readouterr()
            rc = main(["run", "--input", seq_dir, flag, value, "--out", out])
            assert rc == 1, flag
            assert f"error: {field} must be" in capsys.readouterr().err
            assert {name: read_bytes(out, name)
                    for name in os.listdir(out)} == before

    def test_failure_leaves_marker_and_no_manifest(self, tmp_path, capsys):
        # collinear static world: the pipeline runs, but the final ego fit
        # is rank deficient, which must abort the run partway through
        pts = np.zeros((8, 3))
        pts[:, 0] = np.arange(8) * 0.2
        labels = SegmentationMask(np.zeros(8, dtype=np.int64))
        records = [
            FrameRecord(PointCloud(pts, 0.0), FlowField(np.zeros((8, 3))),
                        labels, Pose(RigidTransform.identity(), 0.0)),
            FrameRecord(PointCloud(pts, 0.1), None, labels,
                        Pose(RigidTransform.identity(), 0.1)),
        ]
        seq = str(tmp_path / "degenerate")
        write_sequence(records, seq, dt=0.1)
        out = str(tmp_path / "out")
        assert main(["run", "--input", seq, "--out", out]) == 1
        assert "frame pair 0 -> 1" in capsys.readouterr().err
        marker = os.path.join(out, PARTIAL_MARKER)
        assert os.path.exists(marker)
        with open(marker, "r", encoding="utf-8") as f:
            assert "frame pair 0 -> 1" in f.read()
        assert not os.path.exists(os.path.join(out, RUN_MANIFEST))

    def test_failed_rerun_leaves_no_stale_manifest(self, seq_dir, tmp_path,
                                                   capsys):
        out = str(tmp_path / "rerun")
        assert main(["run", "--input", seq_dir, "--out", out]) == 0
        trajectory = os.path.join(out, "trajectory_est.txt")
        os.remove(trajectory)
        os.mkdir(trajectory)  # the rerun's trajectory write must fail
        capsys.readouterr()
        assert main(["run", "--input", seq_dir, "--out", out,
                     "--max-iters", "1"]) == 1
        err = capsys.readouterr().err
        assert "trajectory_est.txt" in err
        assert "frame pair" not in err
        assert not os.path.exists(os.path.join(out, RUN_MANIFEST))
        with open(os.path.join(out, PARTIAL_MARKER), encoding="utf-8") as f:
            assert "trajectory_est.txt" in f.read()
        assert main(["eval", "--run", out, "--data", seq_dir]) == 1
        assert PARTIAL_MARKER in capsys.readouterr().err

    def test_rerun_removes_earlier_run_artifacts(self, seq_dir, tmp_path):
        # a 2-frame run into the directory of an evaluated and plotted
        # 3-frame run: nothing of the old run may pass for the new one's
        out = str(tmp_path / "rerun")
        assert main(["run", "--input", seq_dir, "--out", out]) == 0
        assert main(["eval", "--run", out, "--data", seq_dir]) == 0
        assert main(["plot", "--run", out, "--data", seq_dir]) == 0
        for name in ("notes.txt", "ssf_0001.pcf.bak"):
            with open(os.path.join(out, name), "w", encoding="utf-8") as f:
                f.write("kept\n")
        os.mkdir(os.path.join(out, "eval.json.d"))
        short = str(tmp_path / "short")
        assert main(["gen", *GEN_FLAGS, "--frames", "2", "--out", short]) == 0
        assert main(["run", "--input", short, "--out", out]) == 0
        assert sorted(os.listdir(out)) == sorted(
            ["ssf_0000.pcf", "report_0000.json", "trajectory_est.txt",
             RUN_MANIFEST, "notes.txt", "ssf_0001.pcf.bak", "eval.json.d"])

    def test_killed_worker_exits_1(self, seq_dir, tmp_path, monkeypatch,
                                   capsys):
        class BrokenPool(Executor):
            def __init__(self, max_workers):
                pass

            def submit(self, fn, payload):
                future = Future()
                future.set_exception(BrokenProcessPool("worker killed"))
                return future

        monkeypatch.setattr(cli, "ProcessPoolExecutor", BrokenPool)
        out = str(tmp_path / "broken")
        assert main(["run", "--input", seq_dir, "--out", out,
                     "--workers", "2"]) == 1
        assert "frame pair 0 -> 1: pipeline" in capsys.readouterr().err
        assert os.path.exists(os.path.join(out, PARTIAL_MARKER))
        assert not os.path.exists(os.path.join(out, RUN_MANIFEST))


class TestEval:
    def test_writes_default_report_and_prints_metrics(self, seq_dir, run_dir,
                                                      capsys):
        assert main(["eval", "--run", run_dir, "--data", seq_dir]) == 0
        out = capsys.readouterr().out
        for line in ("pair_0000.epe3d=", "pair_0001.seg_accuracy=",
                     "aggregate.epe3d=", "rpe.translational.rmse=",
                     "rpe.rotational.rmse_deg="):
            assert line in out
        payload = read_json(run_dir, "eval.json")
        assert [p["index"] for p in payload["pairs"]] == [0, 1]
        assert payload["rpe"]["count"] == 2

    def test_noiseless_quality_and_aggregation(self, seq_dir, run_dir,
                                               tmp_path):
        out = str(tmp_path / "eval.json")
        assert main(["eval", "--run", run_dir, "--data", seq_dir,
                     "--out", out]) == 0
        payload = read_json(out)
        agg = payload["aggregate"]
        assert agg["epe3d"] <= 0.05
        assert agg["acc_strict"] >= 95.0
        assert agg["seg_accuracy"] >= 99.0
        assert payload["rpe"]["translational"]["rmse"] <= 1e-6
        assert payload["rpe"]["rotational_rad"]["rmse"] <= 1e-6
        for key, value in agg.items():
            rows = [p[key] for p in payload["pairs"]]
            assert value == pytest.approx(np.mean(rows), rel=1e-12)

    def test_pair_count_mismatch_exits_1(self, run_dir, tmp_path, capsys):
        short = str(tmp_path / "short")
        assert main(["gen", "--seed", "4", "--frames", "2", "--points", "600",
                     "--objects", "1", "--out", short]) == 0
        assert main(["eval", "--run", run_dir, "--data", short]) == 1
        err = capsys.readouterr().err
        assert "2 pairs" in err and "1" in err

    def test_point_count_mismatch_names_the_pair_and_frame(self, run_dir,
                                                          tmp_path, capsys):
        # as many frames as the run's sequence, with other point counts
        other = str(tmp_path / "other")
        assert main(["gen", *GEN_FLAGS, "--points", "900", "--out",
                     other]) == 0
        assert main(["eval", "--run", run_dir, "--data", other,
                     "--out", str(tmp_path / "e.json")]) == 1
        err = capsys.readouterr().err
        assert ("ssf_0000.pcf holds 1200 points but ground-truth frame 0 "
                f"of {other} holds 900") in err
        assert not os.path.exists(tmp_path / "e.json")

    def test_run_of_another_sequence_is_refused(self, seq_dir, run_dir,
                                                tmp_path, capsys):
        # the run's own data passes; a sequence with the same frame and
        # point counts, generated from another seed, is refused
        assert main(["eval", "--run", run_dir, "--data", seq_dir,
                     "--out", str(tmp_path / "own.json")]) == 0
        other = str(tmp_path / "other")
        flags = [*GEN_FLAGS]
        flags[flags.index("--seed") + 1] = "12"
        assert main(["gen", *flags, "--out", other]) == 0
        capsys.readouterr()
        assert main(["eval", "--run", run_dir, "--data", other,
                     "--out", str(tmp_path / "e.json")]) == 1
        assert ("ssf_0000.pcf holds 1200 points but ground-truth frame 0 "
                f"of {other} holds 1200 other points") in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "e.json")

    def test_prediction_without_channels_exits_1(self, seq_dir, run_dir,
                                                 tmp_path, capsys):
        broken = str(tmp_path / "broken")
        shutil.copytree(run_dir, broken)
        pts, _, _ = read_frame(os.path.join(broken, "ssf_0000.pcf"))
        write_frame(os.path.join(broken, "ssf_0000.pcf"), pts)
        assert main(["eval", "--run", broken, "--data", seq_dir,
                     "--out", str(tmp_path / "e.json")]) == 1
        assert (capsys.readouterr().err
                == "error: ssf_0000.pcf lacks flow or labels\n")

    def test_out_of_range_label_exits_1(self, seq_dir, run_dir, tmp_path,
                                        capsys):
        # a corrupt u32 label: the bound is checked before any count sized
        # by the largest id (2**32 of them) is allocated
        broken = str(tmp_path / "broken")
        shutil.copytree(run_dir, broken)
        path = os.path.join(broken, "ssf_0000.pcf")
        write_frame(path, np.zeros((2, 3)), flow=np.zeros((2, 3)),
                    labels=np.array([0, 0xFFFFFFFF], dtype=np.uint32))
        with pytest.raises(FormatError, match="id 4294967295 exceeds 2"):
            read_frame(path)
        assert main(["eval", "--run", broken, "--data", seq_dir,
                     "--out", str(tmp_path / "e.json")]) == 1
        assert "id 4294967295 exceeds 2" in capsys.readouterr().err

    def test_ground_truth_frame_without_flow_exits_1(self, seq_dir, run_dir,
                                                     tmp_path, capsys):
        data = str(tmp_path / "data")
        shutil.copytree(seq_dir, data)
        pts, _, labels = read_frame(os.path.join(data, "frame_0000.pcf"))
        write_frame(os.path.join(data, "frame_0000.pcf"), pts, labels=labels)
        assert main(["eval", "--run", run_dir, "--data", data,
                     "--out", str(tmp_path / "e.json")]) == 1
        assert (capsys.readouterr().err
                == f"error: ground-truth frame 0 of {data} lacks flow\n")

    def test_missing_run_dir_exits_1(self, seq_dir, tmp_path):
        assert main(["eval", "--run", str(tmp_path / "nope"),
                     "--data", seq_dir]) == 1

    @pytest.mark.parametrize("command", ["eval", "plot"])
    @pytest.mark.parametrize("case", [
        "not an object", "pairs not a list", "no pairs", "pair not an object",
        "index 99", "no report", "ssf outside the run", "not JSON"])
    def test_malformed_manifest_exits_1(self, seq_dir, run_dir, tmp_path,
                                        capsys, command, case):
        # only the names flowseg run writes pass: a manifest of another
        # shape, one naming a file outside the run, or one that is not JSON
        # is one error line naming the manifest
        broken = str(tmp_path / "broken")
        shutil.copytree(run_dir, broken)
        path = os.path.join(broken, RUN_MANIFEST)
        manifest = read_json(path)
        first, second = manifest["pairs"]
        frame = os.path.relpath(os.path.join(seq_dir, "frame_0000.pcf"),
                                broken)
        manifest = {
            "not an object": [],
            "pairs not a list": {**manifest, "pairs": 5},
            "no pairs": {**manifest, "pairs": []},
            "pair not an object": {**manifest, "pairs": [5]},
            "index 99": {**manifest,
                         "pairs": [first, {**second, "index": 99}]},
            "no report": {**manifest, "pairs": [
                {k: v for k, v in first.items() if k != "report"}, second]},
            "ssf outside the run": {**manifest,
                                    "pairs": [{**first, "ssf": frame}, second]},
        }.get(case)
        with open(path, "w", encoding="utf-8") as f:
            f.write("nope" if case == "not JSON" else json.dumps(manifest))
        out = str(tmp_path / "out")
        capsys.readouterr()
        assert main([command, "--run", broken, "--data", seq_dir,
                     "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: not JSON: Expecting value: line 1 column 1 "
            "(char 0)\n" if case == "not JSON"
            else f"error: {path}: not a manifest flowseg run writes\n")
        assert not os.path.exists(out)

    def test_refuses_incomplete_run(self, seq_dir, run_dir, tmp_path, capsys):
        partial = str(tmp_path / "partial")
        shutil.copytree(run_dir, partial)
        open(os.path.join(partial, PARTIAL_MARKER), "w").close()
        assert main(["eval", "--run", partial, "--data", seq_dir]) == 1
        assert "incomplete run" in capsys.readouterr().err
        os.remove(os.path.join(partial, PARTIAL_MARKER))
        os.remove(os.path.join(partial, RUN_MANIFEST))
        assert main(["eval", "--run", partial, "--data", seq_dir]) == 1
        assert f"no {RUN_MANIFEST}" in capsys.readouterr().err


class TestPlot:
    def first_polyline_samples(self, path):
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
        match = re.search(r'<polyline points="([^"]*)"', text)
        assert match is not None
        return len(match.group(1).split())

    def test_writes_figures(self, run_dir, tmp_path, capsys):
        fig = str(tmp_path / "fig")
        assert main(["plot", "--run", run_dir, "--out", fig]) == 0
        out = capsys.readouterr().out
        for name in ("trajectory.svg", "losses.svg", "deltas.svg"):
            assert os.path.exists(os.path.join(fig, name))
            assert f"wrote {os.path.join(fig, name)}" in out
            with open(os.path.join(fig, name), "r", encoding="utf-8") as f:
                text = f.read()
            assert text.startswith("<svg xmlns=")
            assert text.rstrip().endswith("</svg>")

    def test_series_counts(self, seq_dir, run_dir, tmp_path):
        bare = str(tmp_path / "bare")
        overlay = str(tmp_path / "overlay")
        assert main(["plot", "--run", run_dir, "--out", bare]) == 0
        assert main(["plot", "--run", run_dir, "--data", seq_dir,
                     "--out", overlay]) == 0
        with open(os.path.join(bare, "trajectory.svg")) as f:
            assert f.read().count("<polyline") == 1
        with open(os.path.join(overlay, "trajectory.svg")) as f:
            assert f.read().count("<polyline") == 2  # estimate + ground truth
        with open(os.path.join(bare, "losses.svg")) as f:
            assert f.read().count("<polyline") == 2  # one series per pair
        report = read_json(run_dir, "report_0000.json")
        samples = self.first_polyline_samples(os.path.join(bare, "losses.svg"))
        assert samples == len(report["iterations"])

    def test_byte_identical_rerun(self, seq_dir, run_dir, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            assert main(["plot", "--run", run_dir, "--data", seq_dir,
                         "--out", out]) == 0
        for name in ("trajectory.svg", "losses.svg", "deltas.svg"):
            assert read_bytes(a, name) == read_bytes(b, name), name

    def test_missing_run_dir_exits_1(self, tmp_path):
        assert main(["plot", "--run", str(tmp_path / "nope")]) == 1

    def test_pair_count_mismatch_exits_1(self, run_dir, tmp_path, capsys):
        short = str(tmp_path / "short")
        assert main(["gen", "--seed", "4", "--frames", "2", "--points", "600",
                     "--objects", "1", "--out", short]) == 0
        capsys.readouterr()
        fig = str(tmp_path / "fig")
        assert main(["plot", "--run", run_dir, "--data", short,
                     "--out", fig]) == 1
        assert capsys.readouterr().err == (
            "error: run has 2 pairs but the sequence has 1\n")
        assert not os.path.exists(fig)

    def test_run_of_another_sequence_is_refused(self, run_dir, tmp_path,
                                                capsys):
        # the same frame and point counts, from another seed: without the
        # check plot would draw that sequence's ground truth
        other = str(tmp_path / "other")
        flags = [*GEN_FLAGS]
        flags[flags.index("--seed") + 1] = "12"
        assert main(["gen", *flags, "--out", other]) == 0
        capsys.readouterr()
        fig = str(tmp_path / "fig")
        assert main(["plot", "--run", run_dir, "--data", other,
                     "--out", fig]) == 1
        assert capsys.readouterr().err == (
            "error: ssf_0000.pcf holds 1200 points but ground-truth frame 0 "
            f"of {other} holds 1200 other points\n")
        assert not os.path.exists(fig)

    @pytest.mark.parametrize("case", [
        "not an object", "iterations not a list", "no iterations",
        "row not an object", "no total_loss", "iteration not a number",
        "not JSON"])
    def test_malformed_report_exits_1(self, run_dir, tmp_path, capsys, case):
        # every iteration row plot draws is checked before --out is made:
        # a report flowseg run would not write is one error line naming it
        broken = str(tmp_path / "broken")
        shutil.copytree(run_dir, broken)
        path = os.path.join(broken, "report_0001.json")
        report = read_json(path)
        row = report["iterations"][0]
        text = "garbage" if case == "not JSON" else json.dumps({
            "not an object": [],
            "iterations not a list": {**report, "iterations": 5},
            "no iterations": {**report, "iterations": []},
            "row not an object": {**report, "iterations": [5]},
            "no total_loss": {**report, "iterations": [
                {k: v for k, v in row.items() if k != "total_loss"}]},
            "iteration not a number": {**report, "iterations": [
                {**row, "iteration": "1"}]},
        }.get(case))
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        out = str(tmp_path / "out")
        capsys.readouterr()
        assert main(["plot", "--run", broken, "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: not JSON: Expecting value: line 1 column 1 "
            "(char 0)\n" if case == "not JSON"
            else f"error: {path}: not a report flowseg run writes\n")
        assert not os.path.exists(out)

    def test_refuses_incomplete_run(self, run_dir, tmp_path, capsys):
        partial = str(tmp_path / "partial")
        shutil.copytree(run_dir, partial)
        open(os.path.join(partial, PARTIAL_MARKER), "w").close()
        assert main(["plot", "--run", partial]) == 1
        assert "incomplete run" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(partial, "trajectory.svg"))


class TestSvg:
    def test_one_point_series_is_centred(self):
        # a constant range widens to +-1 before the 5% pad
        assert _svg._bounds([2.0]) == (0.9, 3.1)
        text = _svg.render_chart("t", "x", "y",
                                 [_svg.Series("p", [2.0], [5.0])])
        match = re.search(r'<polyline points="([^"]*)"', text)
        x, y = (float(v) for v in match.group(1).split(","))
        assert x == pytest.approx(_svg._MARGIN_L + (_svg._WIDTH - _svg._MARGIN_L
                                                    - _svg._MARGIN_R) / 2)
        assert y == pytest.approx(_svg._MARGIN_T + (_svg._HEIGHT - _svg._MARGIN_T
                                                    - _svg._MARGIN_B) / 2)

    def test_series_refuses_unaligned_samples(self):
        with pytest.raises(LengthMismatch, match="ys has length 2"):
            _svg.Series("p", [1.0, 2.0, 3.0], [1.0, 2.0])
