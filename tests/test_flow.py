"""Point clouds, flow fields, flow initialization and rigid refinement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowseg.datagen import generate, random_scene_spec
from flowseg.errors import DegenerateInput, EmptyCloud, MaskMismatch
from flowseg.flow import (D_MAX, R_CONSISTENCY, FlowField, InitFlowDiagnostics,
                          PointCloud, fit_transforms, init_flow, refine_flow)
from flowseg.geometry import (TOL, RigidTransform, SpatialIndex,
                              weighted_kabsch)
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


def ulps_from(x, n):
    """``x`` moved ``n`` representable doubles up (n > 0) or down."""
    for _ in range(abs(n)):
        x = np.nextafter(x, np.inf if n > 0 else -np.inf)
    return x


@st.composite
def consistency_scenes(draw):
    """Frame t and frame t+1 for init_flow's backward check: a jittered
    cloud with dropped and extra targets and far (disoccluded) points, plus
    rows whose target lies within a few ulps of the bound's edge
    (``2 d + TOL = R_CONSISTENCY``) or of ``2 d = R_CONSISTENCY``, some
    with a second frame-t point just past the target that wins, ties or
    loses the backward search."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 120))
    src = rng.uniform(-4.0, 4.0, size=(n, 3))
    dst = src + rng.normal(scale=draw(st.sampled_from([0.05, 0.3, 1.0])),
                           size=src.shape)
    dst = np.vstack([dst[rng.random(n) < 0.8],
                     rng.uniform(-4.0, 4.0, size=(draw(st.integers(0, 20)), 3))])
    if dst.shape[0] == 0:
        dst = src[:1] + 0.1
    far = rng.uniform(-4.0, 4.0, size=(draw(st.integers(0, 3)), 3)) + [0, 0, 60.0]
    src_rows, dst_rows = [src, far], [dst]
    for k in range(draw(st.integers(0, 6))):
        # the row sits at x = 0, so the tree's distance to its target is d
        edge = draw(st.sampled_from([(R_CONSISTENCY - TOL) / 2,
                                     R_CONSISTENCY / 2]))
        d = ulps_from(edge, draw(st.integers(-4, 4)))
        y = 100.0 + 10.0 * k
        src_rows.append([[0.0, y, 0.0]])
        dst_rows.append([[d, y, 0.0]])
        # a second point at 2d wins the backward search by an ulp, ties
        # (and loses to the lower id) or loses, with a round trip of ~2d
        beyond = draw(st.sampled_from([None, -0.01, -2, -1, 0, 1, 0.01]))
        if isinstance(beyond, int):
            src_rows.append([[ulps_from(2 * d, beyond), y, 0.0]])
        elif beyond is not None:
            src_rows.append([[2 * d + beyond, y, 0.0]])
    src = np.vstack(src_rows)
    order = rng.permutation(src.shape[0])
    return src[order], np.vstack(dst_rows)


class RecordingIndex(SpatialIndex):
    """A SpatialIndex that logs every stack ``query`` searches."""

    log = []

    def query(self, queries):
        self.log.append(np.array(queries))
        return super().query(queries)


def multi_cluster_scene():
    # shuffled point order interleaves the clusters; two points split off
    # into a cluster of their own, which no rigid fit can handle
    records = generate(random_scene_spec(5, n_points=1500, n_objects=3,
                                         shuffle=True))
    p_t, p_t1 = records[0].cloud, records[1].cloud
    labels = records[0].gt_mask.labels.copy()
    labels[[7, 900]] = labels.max() + 1
    flow, _, _ = init_flow(SpatialIndex(p_t), SpatialIndex(p_t1))
    return p_t, p_t1, SegmentationMask(labels), flow


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

    def test_equality_compares_values(self):
        vec = np.random.default_rng(5).standard_normal((4, 3))
        f = FlowField(vec)
        assert f == FlowField(vec.copy())
        assert not f != FlowField(vec.copy())
        moved = vec.copy()
        moved[2, 1] += 1e-12
        assert f != FlowField(moved)
        assert f != FlowField(vec[:3])
        assert not f == FlowField.zeros(4)
        assert f != None  # noqa: E711


class TestInitFlow:
    def test_identical_clouds_zero_flow(self):
        c = grid_cloud()
        f, _, _ = init_flow(SpatialIndex(c), SpatialIndex(c))
        assert not f.vectors.any()

    def test_small_translation_exact(self):
        # displacement far below half the 3 m spacing: NN matching is exact
        c = grid_cloud()
        shifted = cloud_of(c.points + [1.0, 0.0, 0.0])
        f, _, _ = init_flow(SpatialIndex(c), SpatialIndex(shifted))
        np.testing.assert_allclose(f.vectors,
                                   np.tile([1.0, 0, 0], (len(c), 1)),
                                   atol=1e-12)

    def test_disocclusion_zeroed_and_flagged(self):
        # last source point has no target within d_max
        pts = np.array([[0.0, 0, 0], [3.0, 0, 0], [100.0, 0, 0]])
        tgt = np.array([[0.0, 0, 0], [3.0, 0, 0]])
        f, diag, _ = init_flow(SpatialIndex(pts), SpatialIndex(tgt))
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
        f, diag, _ = init_flow(SpatialIndex(src), SpatialIndex(tgt))
        assert diag.n_unreliable >= 1
        # filled value comes from surrounding consistent matches
        np.testing.assert_allclose(f.vectors[1], [0.4, 0.0, 0.0], atol=1e-9)

    def test_duplicate_points_no_nan(self):
        pts = np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0], [1.0, 0, 0]])
        f, _, _ = init_flow(SpatialIndex(pts), SpatialIndex(pts.copy()))
        assert np.isfinite(f.vectors).all()

    def test_all_unreliable_keeps_raw_vectors(self):
        # single source, single far target within d_max but inconsistent
        # round trips cannot fail with one point; use crossing pairs instead
        src = np.array([[0.0, 0.0, 0.0], [2.6, 0.0, 0.0], [1.3, 2.0, 0.0]])
        tgt = src + [1.3, 0.0, 0.0]
        f, _, _ = init_flow(SpatialIndex(src), SpatialIndex(tgt))
        assert np.isfinite(f.vectors).all()


    @settings(deadline=None, max_examples=300)
    @given(consistency_scenes())
    def test_unreliable_equals_brute_force_backward_check(self, scene):
        src, dst = scene
        ids, dist = SpatialIndex(dst).query(src)
        disoccluded = dist > D_MAX
        unreliable = np.zeros(len(src), dtype=bool)
        for i in np.nonzero(~disoccluded)[0]:
            back = int(np.argmin(((dst[ids[i]] - src) ** 2).sum(axis=1)))
            unreliable[i] = np.linalg.norm(src[back] - src[i]) > R_CONSISTENCY
        RecordingIndex.log = []
        _, diag, forward = init_flow(RecordingIndex(src), SpatialIndex(dst))
        assert np.array_equal(diag.unreliable, unreliable)
        assert np.array_equal(diag.disoccluded, disoccluded)
        assert np.array_equal(forward.ids, ids)
        assert np.array_equal(forward.distances, dist)
        # the backward search covers exactly the rows the 2 d bound leaves
        # open, in row order; frame t is not searched when there are none
        open_rows = ~disoccluded & ~(2.0 * dist + TOL < R_CONSISTENCY)
        searched = RecordingIndex.log
        assert len(searched) == int(open_rows.any())
        for q in searched:
            assert np.array_equal(q, dst[ids[open_rows]])

    @settings(deadline=None, max_examples=200)
    @given(consistency_scenes())
    def test_first_match_from_init_equals_fresh_query(self, scene):
        src, dst = scene
        index = SpatialIndex(dst)
        p_t = cloud_of(src)
        flow, diag, forward = init_flow(SpatialIndex(p_t), index)
        warped = p_t.points + flow.vectors
        match = index.match(warped, forward)
        ids, dist = index.query(warped)
        assert np.array_equal(match.ids, ids)
        assert np.array_equal(match.distances, dist)

    def test_first_match_searches_only_filled_rows(self):
        # reliable rows sit on their target and disoccluded rows did not
        # move: the forward search certifies both, and only median-filled
        # rows can be left to search
        recs = generate(random_scene_spec(3, n_points=4000, n_objects=3,
                                          occlusion=True, shuffle=True))
        p_t, p_t1 = recs[0].cloud, recs[1].cloud
        index = SpatialIndex(p_t1)
        flow, diag, forward = init_flow(SpatialIndex(p_t), index)
        assert diag.n_unreliable > 0
        searched = []
        search = index._search

        def recording_search(q):
            searched.append(q)
            return search(q)

        index._search = recording_search
        warped = p_t.points + flow.vectors
        index.match(warped, forward)
        filled = {tuple(row) for row in warped[diag.unreliable]}
        assert len(searched) == 1
        assert 0 < len(searched[0]) <= diag.n_unreliable
        assert all(tuple(row) in filled for row in searched[0])


class TestRefineFlow:
    def test_single_cluster_recovers_transform(self):
        rng = np.random.default_rng(20)
        c = grid_cloud()
        true = RigidTransform(rot_z(0.05), np.array([0.4, -0.2, 0.1]))
        target = cloud_of(true.apply(c.points))
        mask = SegmentationMask(np.zeros(len(c), dtype=np.int64))
        flow0, _, _ = init_flow(SpatialIndex(c), SpatialIndex(target))
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
        flow0, _, _ = init_flow(SpatialIndex(p_t), SpatialIndex(p_t1))
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
        flow0, _, _ = init_flow(SpatialIndex(c), SpatialIndex(c1))
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
        flow0, _, _ = init_flow(SpatialIndex(c), SpatialIndex(c1))
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
        assert transforms == want_transforms


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
        assert transforms == want_transforms
