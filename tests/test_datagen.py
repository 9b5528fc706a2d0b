"""Synthetic scene generation, ground-truth invariants, and file formats."""

from pathlib import Path

import numpy as np
import pytest

from flowseg.datagen import (FrameRecord, SceneSpec, generate,
                             random_scene_spec, read_frame, read_sequence,
                             write_frame, write_sequence)
from flowseg.errors import FormatError, InvalidSpec
from flowseg.geometry import RigidTransform


def plain_spec(seed=0, **kw):
    defaults = dict(n_points=1500, noise_sigma=0.0)
    defaults.update(kw)
    return random_scene_spec(seed, **defaults)


class TestSceneSpec:
    def test_invalid_background_count(self):
        with pytest.raises(InvalidSpec):
            SceneSpec(seed=0, n_background=2, n_objects=0,
                      points_per_object=0,
                      ego_motion=RigidTransform.identity(),
                      object_motions=(), noise_sigma=0.0, n_frames=2, dt=0.1)

    def test_invalid_points_per_object(self):
        with pytest.raises(InvalidSpec):
            SceneSpec(seed=0, n_background=100, n_objects=1,
                      points_per_object=2,
                      ego_motion=RigidTransform.identity(),
                      object_motions=(RigidTransform.identity(),),
                      noise_sigma=0.0, n_frames=2, dt=0.1)

    def test_invalid_negative_noise(self):
        with pytest.raises(InvalidSpec):
            SceneSpec(seed=0, n_background=100, n_objects=0,
                      points_per_object=0,
                      ego_motion=RigidTransform.identity(),
                      object_motions=(), noise_sigma=-0.1, n_frames=2, dt=0.1)

    @pytest.mark.parametrize("field,value", [
        ("noise_sigma", float("nan")), ("noise_sigma", float("inf")),
        ("dt", float("nan")), ("dt", float("inf"))])
    def test_rejects_non_finite_setting(self, field, value):
        kw = dict(seed=0, n_background=100, n_objects=0, points_per_object=0,
                  ego_motion=RigidTransform.identity(), object_motions=(),
                  noise_sigma=0.0, n_frames=2, dt=0.1)
        kw[field] = value
        with pytest.raises(InvalidSpec, match=field):
            SceneSpec(**kw)

    def test_motion_count_must_match(self):
        with pytest.raises(InvalidSpec):
            SceneSpec(seed=0, n_background=100, n_objects=2,
                      points_per_object=10,
                      ego_motion=RigidTransform.identity(),
                      object_motions=(RigidTransform.identity(),),
                      noise_sigma=0.0, n_frames=2, dt=0.1)

    def test_regime_foreground_totals(self):
        dh = random_scene_spec(0, regime="dh", n_objects=4)
        dt_ = random_scene_spec(0, regime="dt", n_objects=4)
        assert dh.n_objects * dh.points_per_object == pytest.approx(100, abs=4)
        assert dt_.n_objects * dt_.points_per_object \
            == pytest.approx(4000, abs=4)

    def test_bad_regime(self):
        with pytest.raises(InvalidSpec):
            random_scene_spec(0, regime="huge")

    @pytest.mark.parametrize("regime", ["dh", "dt"])
    def test_regime_and_points_per_object_are_refused_together(self, regime):
        # each sizes the movers; neither may silently override the other
        with pytest.raises(InvalidSpec,
                           match="regime.*points_per_object=50"):
            random_scene_spec(0, regime=regime, points_per_object=50)

    def test_total_point_budget(self):
        spec = random_scene_spec(3, n_points=4096, n_objects=3)
        assert spec.n_background + spec.n_objects * spec.points_per_object \
            == 4096


class TestGenerate:
    def test_deterministic_per_seed(self):
        a = generate(plain_spec(5, n_objects=2, noise_sigma=0.01))
        b = generate(plain_spec(5, n_objects=2, noise_sigma=0.01))
        for ra, rb in zip(a, b):
            assert ra.cloud.points.tobytes() == rb.cloud.points.tobytes()
            assert ra.gt_mask.labels.tobytes() == rb.gt_mask.labels.tobytes()
        c = generate(plain_spec(6, n_objects=2, noise_sigma=0.01))
        assert a[0].cloud.points.tobytes() != c[0].cloud.points.tobytes()

    def test_flow_consistency_noiseless(self):
        recs = generate(plain_spec(7, n_objects=3, n_frames=4))
        for t in range(3):
            np.testing.assert_array_equal(
                recs[t].cloud.points + recs[t].gt_flow.vectors,
                recs[t + 1].cloud.points)
        assert recs[3].gt_flow is None

    def test_object_rigidity_across_frames(self):
        recs = generate(plain_spec(8, n_objects=2, n_frames=3))
        labels = recs[0].gt_mask.labels
        for k in (1, 2):
            sel = labels == k
            ref = None
            for rec in recs:
                pts = rec.cloud.points[sel]
                d = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
                if ref is None:
                    ref = d
                else:
                    np.testing.assert_allclose(d, ref, atol=1e-9)

    def test_static_scene_zero_flow(self):
        spec = SceneSpec(seed=1, n_background=600, n_objects=0,
                         points_per_object=0,
                         ego_motion=RigidTransform.identity(),
                         object_motions=(), noise_sigma=0.0, n_frames=2,
                         dt=0.1)
        recs = generate(spec)
        assert not recs[0].gt_flow.vectors.any()

    def test_pure_ego_translation_flow(self):
        # sensor moves +x, so the static world flows -x in the sensor frame
        spec = SceneSpec(seed=2, n_background=600, n_objects=0,
                         points_per_object=0,
                         ego_motion=RigidTransform(np.eye(3),
                                                   np.array([1.0, 0.0, 0.0])),
                         object_motions=(), noise_sigma=0.0, n_frames=3,
                         dt=0.1)
        recs = generate(spec)
        for t in (0, 1):
            np.testing.assert_allclose(
                recs[t].gt_flow.vectors,
                np.tile([-1.0, 0.0, 0.0], (600, 1)), atol=1e-12)

    def test_mask_layout(self):
        spec = plain_spec(9, n_objects=3, points_per_object=40)
        recs = generate(spec)
        sizes = recs[0].gt_mask.cluster_sizes()
        assert recs[0].gt_mask.n_clusters == 4
        np.testing.assert_array_equal(sizes[1:], [40, 40, 40])

    def test_ego_pose_chain(self):
        spec = plain_spec(10, n_objects=0, n_frames=4)
        recs = generate(spec)
        np.testing.assert_array_equal(recs[0].gt_ego.transform.matrix,
                                      np.eye(4))
        for t in range(3):
            expect = recs[t].gt_ego.transform @ spec.ego_motion
            np.testing.assert_allclose(recs[t + 1].gt_ego.transform.matrix,
                                       expect.matrix, atol=1e-12)
        assert recs[2].gt_ego.timestamp == pytest.approx(2 * spec.dt)

    def test_noise_corrupts_observation_not_ground_truth(self):
        clean = generate(plain_spec(11, n_objects=2, noise_sigma=0.0))
        noisy = generate(plain_spec(11, n_objects=2, noise_sigma=0.01))
        # same layout and motion draws, so the flow is the same field
        np.testing.assert_array_equal(clean[0].gt_flow.vectors,
                                      noisy[0].gt_flow.vectors)
        assert clean[0].cloud.points.tobytes() \
            != noisy[0].cloud.points.tobytes()
        delta = noisy[0].cloud.points - clean[0].cloud.points
        assert np.abs(delta).max() < 0.1  # a few sigma

    def test_occlusion_drops_points_and_recompacts(self):
        base = plain_spec(0, n_points=2000, n_objects=3)
        shadowed = plain_spec(0, n_points=2000, n_objects=3, occlusion=True)
        full = generate(base)
        occ = generate(shadowed)
        assert len(occ[0].cloud) < len(full[0].cloud)
        labs = occ[0].gt_mask.labels
        assert labs.min() == 0
        assert set(np.unique(labs)) == set(range(labs.max() + 1))
        # flow consistency still holds on the surviving points
        np.testing.assert_array_equal(
            occ[0].cloud.points + occ[0].gt_flow.vectors,
            occ[1].cloud.points)

    def test_shuffle_permutes_frames_independently(self):
        plain = generate(plain_spec(12, n_objects=2))
        mixed = generate(plain_spec(12, n_objects=2, shuffle=True))
        a = np.sort(plain[1].cloud.points.view([('', float)] * 3), axis=0)
        b = np.sort(mixed[1].cloud.points.view([('', float)] * 3), axis=0)
        np.testing.assert_array_equal(a, b)  # same multiset of points
        # index alignment is broken: warped frame t is a permutation of
        # frame t+1 rather than equal to it
        warped = mixed[0].cloud.points + mixed[0].gt_flow.vectors
        assert warped.tobytes() != mixed[1].cloud.points.tobytes()
        w = np.sort(warped.view([('', float)] * 3), axis=0)
        np.testing.assert_array_equal(w, b)


class TestFrameFormat:
    def test_round_trip_positions_only(self, tmp_path):
        rng = np.random.default_rng(90)
        pts = rng.standard_normal((50, 3))
        path = tmp_path / "frame.pcf"
        write_frame(path, pts)
        back, flow, labels = read_frame(path)
        np.testing.assert_array_equal(back,
                                      pts.astype(np.float32).astype(float))
        assert flow is None and labels is None

    def test_round_trip_all_fields(self, tmp_path):
        rng = np.random.default_rng(91)
        pts = rng.standard_normal((30, 3))
        vec = rng.standard_normal((30, 3))
        lab = rng.integers(0, 4, size=30)
        path = tmp_path / "frame.pcf"
        write_frame(path, pts, flow=vec, labels=lab)
        back_p, back_f, back_l = read_frame(path)
        np.testing.assert_array_equal(back_f,
                                      vec.astype(np.float32).astype(float))
        np.testing.assert_array_equal(back_l, lab)

    def test_second_round_trip_bit_exact(self, tmp_path):
        # f32 quantization happens once; rewriting what was read is stable
        rng = np.random.default_rng(92)
        pts = rng.standard_normal((20, 3))
        p1 = tmp_path / "a.pcf"
        p2 = tmp_path / "b.pcf"
        write_frame(p1, pts)
        back, _, _ = read_frame(p1)
        write_frame(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_names_offset(self, tmp_path):
        path = tmp_path / "frame.pcf"
        write_frame(path, np.zeros((3, 3)))
        data = bytearray(path.read_bytes())
        data[0] = ord("X")
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="offset 0"):
            read_frame(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "frame.pcf"
        path.write_bytes(b"PCF1\x02")
        with pytest.raises(FormatError):
            read_frame(path)

    def test_unknown_flags(self, tmp_path):
        path = tmp_path / "frame.pcf"
        write_frame(path, np.zeros((3, 3)))
        data = bytearray(path.read_bytes())
        data[8] = 0x80
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="flags"):
            read_frame(path)

    def test_zero_points(self, tmp_path):
        import struct
        path = tmp_path / "frame.pcf"
        path.write_bytes(b"PCF1" + struct.pack("<IB", 0, 0))
        with pytest.raises(FormatError):
            read_frame(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "frame.pcf"
        write_frame(path, np.zeros((4, 3)), flow=np.zeros((4, 3)))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(FormatError, match="truncated payload"):
            read_frame(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "frame.pcf"
        write_frame(path, np.zeros((4, 3)))
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(FormatError, match="trailing"):
            read_frame(path)


class TestSequenceFormat:
    def test_round_trip_every_field(self, tmp_path):
        recs = generate(plain_spec(13, n_objects=2, n_frames=3))
        out = tmp_path / "seq"
        write_sequence(recs, out, dt=0.1)
        back = read_sequence(out)
        assert len(back) == 3
        for orig, rt in zip(recs, back):
            np.testing.assert_array_equal(
                rt.cloud.points,
                orig.cloud.points.astype(np.float32).astype(float))
            np.testing.assert_array_equal(rt.gt_mask.labels,
                                          orig.gt_mask.labels)
            np.testing.assert_allclose(rt.gt_ego.transform.matrix,
                                       orig.gt_ego.transform.matrix,
                                       atol=1e-15)
            assert rt.cloud.timestamp == pytest.approx(orig.cloud.timestamp)
        assert back[-1].gt_flow is None
        assert back[0].gt_flow is not None

    def test_second_round_trip_bit_exact(self, tmp_path):
        recs = generate(plain_spec(14, n_objects=1))
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        m1 = write_sequence(recs, d1, dt=0.1)
        back = read_sequence(d1)
        m2 = write_sequence(back, d2, dt=0.1)
        assert Path(m1).read_text() == Path(m2).read_text()
        for f1, f2 in zip(sorted(d1.glob("*.pcf")), sorted(d2.glob("*.pcf"))):
            assert f1.read_bytes() == f2.read_bytes()

    def test_manifest_layout(self, tmp_path):
        recs = generate(plain_spec(15, n_objects=0, n_frames=2))
        manifest = write_sequence(recs, tmp_path / "seq", dt=0.1)
        lines = Path(manifest).read_text().splitlines()
        assert lines[0] == "PCSEQ1"
        assert lines[1].startswith("dt=")
        assert len(lines) == 4
        assert len(lines[2].split()) == 13

    def test_accepts_manifest_path_or_directory(self, tmp_path):
        recs = generate(plain_spec(16, n_objects=0))
        manifest = write_sequence(recs, tmp_path / "seq", dt=0.1)
        by_dir = read_sequence(tmp_path / "seq")
        by_file = read_sequence(manifest)
        np.testing.assert_array_equal(by_dir[0].cloud.points,
                                      by_file[0].cloud.points)

    def test_bad_manifest_magic(self, tmp_path):
        recs = generate(plain_spec(17, n_objects=0))
        manifest = write_sequence(recs, tmp_path / "seq", dt=0.1)
        text = Path(manifest).read_text().replace("PCSEQ1", "NOPE", 1)
        Path(manifest).write_text(text)
        with pytest.raises(FormatError, match="magic"):
            read_sequence(tmp_path / "seq")

    def test_bad_pose_token_count(self, tmp_path):
        recs = generate(plain_spec(18, n_objects=0))
        manifest = write_sequence(recs, tmp_path / "seq", dt=0.1)
        lines = Path(manifest).read_text().splitlines()
        lines[2] = " ".join(lines[2].split()[:5])
        Path(manifest).write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="tokens"):
            read_sequence(tmp_path / "seq")

    @pytest.mark.parametrize("value", ["dt=nan", "dt=inf", "pose nan"])
    def test_non_finite_manifest_value(self, tmp_path, value):
        recs = generate(plain_spec(18, n_objects=0))
        manifest = write_sequence(recs, tmp_path / "seq", dt=0.1)
        lines = Path(manifest).read_text().splitlines()
        if value.startswith("dt="):
            lines[1] = value
            where = "dt must be positive and finite"
        else:
            tokens = lines[2].split()
            tokens[4] = "nan"
            lines[2] = " ".join(tokens)
            where = "frame line 0"
        Path(manifest).write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=where):
            read_sequence(tmp_path / "seq")

    @pytest.mark.parametrize("dt", [0.0, float("nan"), float("inf")])
    def test_write_rejects_bad_dt(self, tmp_path, dt):
        recs = generate(plain_spec(18, n_objects=0))
        with pytest.raises(ValueError, match="positive and finite"):
            write_sequence(recs, tmp_path / "seq", dt=dt)
        assert not (tmp_path / "seq").exists()

    def test_missing_labels_rejected(self, tmp_path):
        recs = generate(plain_spec(19, n_objects=0))
        out = tmp_path / "seq"
        manifest = write_sequence(recs, out, dt=0.1)
        # rewrite frame 0 without labels
        pts, flow, _ = read_frame(out / "frame_0000.pcf")
        write_frame(out / "frame_0000.pcf", pts, flow=flow)
        with pytest.raises(FormatError, match="labels"):
            read_sequence(out)

    def test_corrupt_frame_no_partial_records(self, tmp_path):
        recs = generate(plain_spec(20, n_objects=0, n_frames=3))
        out = tmp_path / "seq"
        write_sequence(recs, out, dt=0.1)
        data = (out / "frame_0002.pcf").read_bytes()
        (out / "frame_0002.pcf").write_bytes(data[:20])
        with pytest.raises(FormatError):
            read_sequence(out)
