"""Synthetic scene generation, ground-truth invariants, and file formats."""

import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from flowseg import datagen
from flowseg.datagen import (FrameRecord, SceneSpec, generate,
                             random_scene_spec, read_frame, read_sequence,
                             write_frame, write_sequence)
from flowseg.errors import FormatError, InvalidSpec, LengthMismatch
from flowseg.flow import FlowField
from flowseg.geometry import RigidTransform
from flowseg.segment import SegmentationMask


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


def minimal_spec():
    return SceneSpec(seed=0, n_background=3, n_objects=1, points_per_object=3,
                     ego_motion=RigidTransform.identity(),
                     object_motions=(RigidTransform.identity(),),
                     noise_sigma=0.0, n_frames=2, dt=0.1)


# sha256 over the frame files write_sequence writes for each scene, in frame
# order (numpy 2.4.6).  Any change to generate's draws or arithmetic moves
# them.  The files hold f32, which absorbs a last-bit f64 difference between
# BLAS builds; test_ego_pose_chain covers the manifest's poses.
PINNED_SPECS = {
    "defaults": lambda: random_scene_spec(0),
    "regime-dh": lambda: random_scene_spec(1, n_points=2048, regime="dh"),
    "regime-dt": lambda: random_scene_spec(2, n_points=6000, n_objects=2,
                                            regime="dt"),
    "occlusion": lambda: random_scene_spec(3, n_points=2048, n_frames=3,
                                            occlusion=True),
    "shuffle": lambda: random_scene_spec(4, n_points=2048, n_frames=3,
                                          shuffle=True),
    "occlusion-shuffle": lambda: random_scene_spec(5, n_points=2048, n_frames=3,
                                                    occlusion=True, shuffle=True),
    "noise-0": lambda: random_scene_spec(6, n_points=2048, n_frames=3,
                                          noise_sigma=0.0),
    "no-movers": lambda: random_scene_spec(7, n_points=2048, n_frames=3,
                                            n_objects=0),
    "one-frame": lambda: random_scene_spec(8, n_points=2048, n_frames=1),
    "yaw-0.3": lambda: random_scene_spec(9, n_points=2048, n_frames=3,
                                          ego_yaw_rate=(-0.3, 0.3)),
    "gate-9": lambda: random_scene_spec(17, n_frames=3, n_points=900,
                                         n_objects=2),
    "minimal": minimal_spec,
}
PINNED_DIGESTS = {
    "defaults":
        "17ebd406f9883256541730e5227348df7fcc8447df66e4bd831517b9c4d90be0",
    "regime-dh":
        "853567c34b4d8bafdbd746adf22741d2a4ae5c06cdb5706284ab2b770f2b9463",
    "regime-dt":
        "7134241ba053a8c8c02b3fb37512cd4faedf743ce3a666699dc121ecd446d227",
    "occlusion":
        "7894ae1c8c142c80eaa797e0819ef770d9704cd3165216e090516dd5b9a3d37a",
    "shuffle":
        "131a1ef4497e78c26a3ffaa46f2703db1653be50b5f9253770d9f72e88d08dfd",
    "occlusion-shuffle":
        "c41b9fe51453aa60b095c4476c465ae36f5eefab5d9567b5372e78ae57a17bb6",
    "noise-0":
        "7a3f9074270224e65c26d446b63fa82b07c88d202f6c19fda062d90ccb952db0",
    "no-movers":
        "c46b1b66f2c4ddbdfb612f00f009bac858c29cee5c51dd54d20eaa81661a088d",
    "one-frame":
        "6e6494da42d248bfe5728e704a0b21afe839bed52a91146208814f3632bf58d9",
    "yaw-0.3":
        "2b0d3e051a1778e84128d3e8128408ca63cf1f38f07df6366c1e2d6fbfd1f3ad",
    "gate-9":
        "0e456dfe9c1af71fd83e17b7c26f0a1d0ddd4af0794a54c5621cc848d06e1d4d",
    "minimal":
        "847e57cde72bcecbe5d39acd0dc51fd396b503a744af6a3054958e44d1ce9815",
}


class TestPinnedOutput:
    """Byte-level pins on generate's output: every gate's data comes from
    it, and a run only compared with itself cannot see it drift."""

    @pytest.mark.parametrize("name", sorted(PINNED_SPECS))
    def test_frame_files_match_their_digest(self, name, tmp_path):
        spec = PINNED_SPECS[name]()
        write_sequence(generate(spec), tmp_path, dt=spec.dt)
        h = hashlib.sha256()
        for path in sorted(tmp_path.glob("frame_*.pcf")):
            h.update(path.read_bytes())
        assert h.hexdigest() == PINNED_DIGESTS[name]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "_place_boxes keeps its 50th draw when none is 4 m from the other "
        "centres: gate 9's two movers sit 0.33 m apart and overlap; ROADMAP "
        "item 13 step 2"))
    def test_movers_do_not_overlap(self):
        recs = generate(random_scene_spec(17, n_frames=3, n_points=900,
                                          n_objects=2))
        points, labels = recs[0].cloud.points, recs[0].gt_mask.labels
        (lo_a, hi_a), (lo_b, hi_b) = [
            (points[labels == k].min(axis=0), points[labels == k].max(axis=0))
            for k in (1, 2)]
        assert not (np.all(lo_a < hi_b) and np.all(lo_b < hi_a))


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

    def test_labels_read_in_the_narrowest_dtype(self, tmp_path):
        # written as u4, read back as the mask stores them
        lab = np.arange(600) % 300
        path = tmp_path / "frame.pcf"
        write_frame(path, np.zeros((600, 3)), labels=lab)
        assert path.stat().st_size == 4 + 5 + 12 * 600 + 4 * 600
        back = read_frame(path)[2]
        assert back.dtype == np.uint16 and np.array_equal(back, lab)

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

    def test_write_refuses_unaligned_fields(self, tmp_path):
        pts = np.zeros((4, 3))
        with pytest.raises(LengthMismatch, match="flow has length 3"):
            write_frame(tmp_path / "f.pcf", pts, flow=np.zeros((3, 3)))
        with pytest.raises(LengthMismatch, match="labels has length 5"):
            write_frame(tmp_path / "f.pcf", pts, labels=np.zeros(5, np.uint32))
        assert not (tmp_path / "f.pcf").exists()

    def test_record_refuses_unaligned_ground_truth(self):
        rec = generate(plain_spec(24, n_objects=0))[0]
        short = FlowField(rec.gt_flow.vectors[:-1])
        with pytest.raises(LengthMismatch, match="gt_flow"):
            FrameRecord(rec.cloud, short, rec.gt_mask, rec.gt_ego)
        with pytest.raises(LengthMismatch, match="gt_mask"):
            FrameRecord(rec.cloud, None,
                        SegmentationMask(rec.gt_mask.labels[:-1]), rec.gt_ego)

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
        # a file that is not text, such as a frame, is refused the same way
        frame = str(tmp_path / "seq" / "frame_0000.pcf")
        with pytest.raises(FormatError, match=re.escape(
                f"{frame}: bad manifest magic on line 1")):
            read_sequence(frame)

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

    def test_non_rotation_pose_refused(self, tmp_path):
        recs = generate(plain_spec(21, n_objects=0, n_frames=3))
        manifest = write_sequence(recs, tmp_path / "seq", dt=0.1)
        lines = Path(manifest).read_text().splitlines()
        tokens = lines[3].split()
        for at in (1, 2, 3, 5, 6, 7, 9, 10, 11):  # frame 1's R, scaled by 2
            tokens[at] = format(2.0 * float(tokens[at]), ".17g")
        lines[3] = " ".join(tokens)
        Path(manifest).write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=re.escape(
                f"{manifest}: frame line 1: pose rotation")):
            read_sequence(tmp_path / "seq")

    def test_failed_rewrite_leaves_no_readable_mix(self, tmp_path,
                                                   monkeypatch):
        # a shorter sequence written over a longer one fails at its third
        # frame: the old manifest must not survive to list old frames
        out = tmp_path / "seq"
        write_sequence(generate(plain_spec(22, n_objects=0, n_frames=5)),
                       out, dt=0.1)
        calls = []

        def failing_write_frame(*args, **kw):
            calls.append(args[0])
            if len(calls) == 3:
                raise OSError("disk full")
            write_frame(*args, **kw)

        monkeypatch.setattr(datagen, "write_frame", failing_write_frame)
        with pytest.raises(OSError, match="disk full"):
            write_sequence(generate(plain_spec(23, n_objects=0, n_frames=3)),
                           out, dt=0.1)
        with pytest.raises(FileNotFoundError):
            read_sequence(out)
        monkeypatch.undo()
        new = generate(plain_spec(23, n_objects=0, n_frames=3))
        write_sequence(new, out, dt=0.1)
        back = read_sequence(out)
        assert len(back) == 3
        np.testing.assert_array_equal(
            back[2].cloud.points,
            new[2].cloud.points.astype(np.float32).astype(float))
        assert sorted(p.name for p in out.glob("sequence.*")) == [
            "sequence.pcseq"]

    def test_corrupt_frame_no_partial_records(self, tmp_path):
        recs = generate(plain_spec(20, n_objects=0, n_frames=3))
        out = tmp_path / "seq"
        write_sequence(recs, out, dt=0.1)
        data = (out / "frame_0002.pcf").read_bytes()
        (out / "frame_0002.pcf").write_bytes(data[:20])
        with pytest.raises(FormatError):
            read_sequence(out)
