"""Point clouds, flow fields, flow initialization and rigid refinement."""

import numpy as np
import pytest

from flowseg.datagen import generate, random_scene_spec
from flowseg.errors import DegenerateInput, EmptyCloud, MaskMismatch
from flowseg.flow import (FlowField, InitFlowDiagnostics, PointCloud,
                          fit_transforms, init_flow, refine_flow, warp)
from flowseg.geometry import RigidTransform, SpatialIndex, weighted_kabsch
from flowseg.segment import SegmentationMask


def rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def cloud_of(points, **kw):
    return PointCloud(np.asarray(points, dtype=np.float64), **kw)


def grid_cloud(n_side=8, spacing=3.0):
    # well separated points so nearest-neighbor matching is unambiguous
    xs = np.arange(n_side) * spacing
    gx, gy = np.meshgrid(xs, xs)
    pts = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(n_side * n_side)])
    return cloud_of(pts)


def matched(p_t, p_t1, flow):
    """Each warped point's nearest neighbor in p_t1: refine_flow's targets."""
    ids, _ = SpatialIndex(p_t1).query(p_t.points + flow.vectors)
    return p_t1.points[ids]


def refine_reference(p_t, p_t1, mask, flow):
    """refine_flow as a per-cluster loop: a boolean mask and a
    nearest-neighbor query per cluster."""
    src = p_t.points
    index = SpatialIndex(p_t1.points)
    out = flow.vectors.copy()
    transforms, degenerate = [], []
    for k in range(mask.n_clusters):
        sel = mask.labels == k
        pts = src[sel]
        ids, _ = index.query(pts + flow.vectors[sel])
        try:
            t_k = weighted_kabsch(pts, p_t1.points[ids])
        except DegenerateInput:
            transforms.append(RigidTransform.identity())
            degenerate.append(k)
            continue
        transforms.append(t_k)
        out[sel] = t_k.apply(pts) - pts
    return out, transforms, degenerate


def fit_reference(p_t, flow, mask):
    """fit_transforms as a per-cluster boolean-mask loop."""
    transforms, degenerate = [], []
    for k in range(mask.n_clusters):
        sel = mask.labels == k
        pts = p_t.points[sel]
        try:
            transforms.append(weighted_kabsch(pts, pts + flow.vectors[sel]))
        except DegenerateInput:
            transforms.append(RigidTransform.identity())
            degenerate.append(k)
    return transforms, degenerate


def multi_cluster_scene():
    # shuffled point order interleaves the clusters; two points split off
    # into a cluster of their own, which no rigid fit can handle
    records = generate(random_scene_spec(5, n_points=1500, n_objects=3,
                                         shuffle=True))
    p_t, p_t1 = records[0].cloud, records[1].cloud
    labels = records[0].gt_mask.labels.copy()
    labels[[7, 900]] = labels.max() + 1
    flow, _ = init_flow(p_t, SpatialIndex(p_t1))
    return p_t, p_t1, SegmentationMask(labels), flow


def assert_same_transforms(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.rotation, b.rotation)
        assert np.array_equal(a.translation, b.translation)


class TestPointCloud:
    def test_basic_fields(self):
        c = cloud_of([[1.0, 2.0, 3.0]], frame_id=4, timestamp=0.4)
        assert len(c) == 1
        assert c.frame_id == 4
        assert c.timestamp == 0.4

    def test_rejects_empty(self):
        with pytest.raises(EmptyCloud):
            cloud_of(np.empty((0, 3)))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            cloud_of([[1.0, 2.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            cloud_of([[np.nan, 0.0, 0.0]])

    def test_points_are_float64(self):
        c = PointCloud(np.array([[1, 2, 3]], dtype=np.float32))
        assert c.points.dtype == np.float64


class TestFlowField:
    def test_zeros(self):
        f = FlowField.zeros(5)
        assert len(f) == 5
        assert not f.vectors.any()

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FlowField(np.array([[np.inf, 0.0, 0.0]]))


class TestWarp:
    def test_adds_vectors(self):
        c = cloud_of([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        f = FlowField(np.array([[1.0, 0, 0], [0.0, 2, 0]]))
        np.testing.assert_array_equal(warp(c, f).points,
                                      [[1.0, 0, 0], [1.0, 3, 1]])

    def test_length_mismatch(self):
        with pytest.raises(MaskMismatch):
            warp(cloud_of([[0.0, 0, 0]]), FlowField.zeros(2))


class TestInitFlow:
    def test_identical_clouds_zero_flow(self):
        c = grid_cloud()
        f, _ = init_flow(c, SpatialIndex(c))
        assert not f.vectors.any()

    def test_small_translation_exact(self):
        # displacement far below half the 3 m spacing: NN matching is exact
        c = grid_cloud()
        shifted = cloud_of(c.points + [1.0, 0.0, 0.0])
        f, _ = init_flow(c, SpatialIndex(shifted))
        np.testing.assert_allclose(f.vectors,
                                   np.tile([1.0, 0, 0], (len(c), 1)),
                                   atol=1e-12)

    def test_disocclusion_zeroed_and_flagged(self):
        # last source point has no target within d_max
        pts = np.array([[0.0, 0, 0], [3.0, 0, 0], [100.0, 0, 0]])
        tgt = np.array([[0.0, 0, 0], [3.0, 0, 0]])
        f, diag = init_flow(cloud_of(pts), SpatialIndex(tgt))
        assert isinstance(diag, InitFlowDiagnostics)
        np.testing.assert_array_equal(f.vectors[2], [0.0, 0.0, 0.0])
        assert diag.disoccluded[2]
        assert diag.n_disoccluded == 1

    def test_inconsistent_match_replaced_by_neighbor_median(self):
        # two source points collapse onto one target; the loser of the
        # backward check inherits the median flow of reliable neighbors
        src = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0],
                        [0.0, 1, 0], [1.0, 1, 0], [2.0, 1, 0]])
        tgt = src + [0.4, 0.0, 0.0]
        tgt = np.delete(tgt, 1, axis=0)  # point 1 lost its partner
        f, diag = init_flow(cloud_of(src), SpatialIndex(tgt))
        assert diag.n_unreliable >= 1
        # filled value comes from surrounding consistent matches
        np.testing.assert_allclose(f.vectors[1], [0.4, 0.0, 0.0], atol=1e-9)

    def test_duplicate_points_no_nan(self):
        pts = np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0], [1.0, 0, 0]])
        f, _ = init_flow(cloud_of(pts), SpatialIndex(pts.copy()))
        assert np.isfinite(f.vectors).all()

    def test_all_unreliable_keeps_raw_vectors(self):
        # single source, single far target within d_max but inconsistent
        # round trips cannot fail with one point; use crossing pairs instead
        src = np.array([[0.0, 0.0, 0.0], [2.6, 0.0, 0.0], [1.3, 2.0, 0.0]])
        tgt = src + [1.3, 0.0, 0.0]
        f, _ = init_flow(cloud_of(src), SpatialIndex(tgt))
        assert np.isfinite(f.vectors).all()


class TestRefineFlow:
    def test_single_cluster_recovers_transform(self):
        rng = np.random.default_rng(20)
        c = grid_cloud()
        true = RigidTransform(rot_z(0.05), np.array([0.4, -0.2, 0.1]))
        target = cloud_of(true.apply(c.points))
        mask = SegmentationMask(np.zeros(len(c), dtype=np.int64))
        flow0, _ = init_flow(c, SpatialIndex(target))
        refined, transforms, _ = refine_flow(c, matched(c, target, flow0),
                                             mask, flow0)
        assert len(transforms) == 1
        expect = true.apply(c.points) - c.points
        np.testing.assert_allclose(refined.vectors, expect, atol=1e-6)

    def test_two_clusters_two_motions(self):
        base = grid_cloud(6, 3.0).points
        far = base + [100.0, 0.0, 0.0]
        t0 = RigidTransform(np.eye(3), np.array([0.5, 0.0, 0.0]))
        # rotate the far blob about its own center to keep displacements small
        center = far.mean(axis=0)
        rot = rot_z(0.04)
        t1 = RigidTransform(rot, center - rot @ center + [-0.3, 0.2, 0.0])
        p_t = cloud_of(np.vstack([base, far]))
        p_t1 = cloud_of(np.vstack([t0.apply(base), t1.apply(far)]))
        labels = np.r_[np.zeros(len(base), dtype=np.int64),
                       np.ones(len(far), dtype=np.int64)]
        flow0, _ = init_flow(p_t, SpatialIndex(p_t1))
        refined, transforms, _ = refine_flow(
            p_t, matched(p_t, p_t1, flow0), SegmentationMask(labels), flow0)
        expect = np.vstack([t0.apply(base) - base, t1.apply(far) - far])
        np.testing.assert_allclose(refined.vectors, expect, atol=1e-6)
        assert np.linalg.norm(transforms[1].rotation - t1.rotation) < 1e-6

    def test_output_rigid_per_cluster(self):
        rng = np.random.default_rng(21)
        pts = rng.uniform(0, 10, size=(60, 3))
        tgt = pts + rng.uniform(-0.1, 0.1, size=pts.shape)
        c, c1 = cloud_of(pts), cloud_of(tgt)
        mask = SegmentationMask(np.zeros(60, dtype=np.int64))
        flow0, _ = init_flow(c, SpatialIndex(c1))
        refined, _, _ = refine_flow(c, matched(c, c1, flow0), mask, flow0)
        moved = pts + refined.vectors
        d_in = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
        d_out = np.linalg.norm(moved[:, None] - moved[None], axis=-1)
        np.testing.assert_allclose(d_out, d_in, atol=1e-6)

    def test_degenerate_cluster_passes_through(self):
        # 2-point cluster cannot be fit; flow unchanged, identity transform
        pts = np.vstack([grid_cloud(4, 3.0).points,
                         [[50.0, 0, 0], [53.0, 0, 0]]])
        tgt = pts + [0.2, 0.0, 0.0]
        labels = np.r_[np.zeros(16, dtype=np.int64), [1, 1]]
        c, c1 = cloud_of(pts), cloud_of(tgt)
        flow0, _ = init_flow(c, SpatialIndex(c1))
        refined, transforms, degen = refine_flow(
            c, matched(c, c1, flow0), SegmentationMask(labels), flow0)
        assert degen == [1]
        np.testing.assert_array_equal(refined.vectors[16:],
                                      flow0.vectors[16:])
        np.testing.assert_array_equal(transforms[1].rotation, np.eye(3))

    def test_gt_flow_projects_to_exact_flow(self):
        # warped source coincides with the target, so correspondence is exact
        c = grid_cloud()
        true = RigidTransform(rot_z(0.3), np.array([2.0, 1.0, 0.0]))
        target = cloud_of(true.apply(c.points))
        gt = FlowField(true.apply(c.points) - c.points)
        mask = SegmentationMask(np.zeros(len(c), dtype=np.int64))
        refined, _, _ = refine_flow(c, matched(c, target, gt), mask, gt)
        np.testing.assert_allclose(refined.vectors, gt.vectors, atol=1e-9)

    def test_mask_mismatch(self):
        c = grid_cloud(3)
        with pytest.raises(MaskMismatch):
            refine_flow(c, c.points,
                        SegmentationMask(np.zeros(2, dtype=np.int64)),
                        FlowField.zeros(len(c)))


    def test_matches_per_cluster_reference(self):
        p_t, p_t1, mask, flow = multi_cluster_scene()
        refined, transforms, degen = refine_flow(
            p_t, matched(p_t, p_t1, flow), mask, flow)
        want_flow, want_transforms, want_degen = refine_reference(
            p_t, p_t1, mask, flow)
        assert mask.n_clusters >= 4
        assert degen == want_degen == [mask.n_clusters - 1]
        assert np.array_equal(refined.vectors, want_flow)
        assert_same_transforms(transforms, want_transforms)


class TestFitTransforms:
    def test_recovers_exact_motion(self):
        c = grid_cloud(5)
        true = RigidTransform(rot_z(-0.2), np.array([0.0, 3.0, 1.0]))
        flow = FlowField(true.apply(c.points) - c.points)
        mask = SegmentationMask(np.zeros(len(c), dtype=np.int64))
        transforms, degen = fit_transforms(c, flow, mask)
        assert degen == []
        assert np.linalg.norm(transforms[0].rotation - true.rotation) < 1e-9
        assert np.linalg.norm(transforms[0].translation
                              - true.translation) < 1e-9

    def test_degenerate_cluster_identity(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0],
                        [10.0, 0, 0], [11.0, 0, 0]])
        labels = np.array([0, 0, 0, 1, 1], dtype=np.int64)
        transforms, degen = fit_transforms(cloud_of(pts), FlowField.zeros(5),
                                           SegmentationMask(labels))
        assert degen == [1]
        np.testing.assert_array_equal(transforms[1].rotation, np.eye(3))

    def test_matches_per_cluster_reference(self):
        p_t, _, mask, flow = multi_cluster_scene()
        transforms, degen = fit_transforms(p_t, flow, mask)
        want_transforms, want_degen = fit_reference(p_t, flow, mask)
        assert degen == want_degen == [mask.n_clusters - 1]
        assert_same_transforms(transforms, want_transforms)
