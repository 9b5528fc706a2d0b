"""Motion, flow-consistency, and chamfer losses plus their sum."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowseg import geometry
from flowseg.datagen import generate, random_scene_spec
from flowseg.errors import LengthMismatch
from flowseg.flow import ClusterFit, FlowField, fit_transforms, init_flow
from flowseg.geometry import (TOL, RigidTransform, SpatialIndex,
                              chamfer_distance)
from flowseg.losses import (LossBreakdown, chamfer_loss,
                            flow_consistency_loss, motion_loss, total_loss)
from flowseg.pipeline import run
from flowseg.segment import SegmentationMask
from helpers import cloud_of, rot_z


def forward(p_t, flow, p_t1):
    """The Chamfer forward half: the sum of each warped point's distance to
    its nearest neighbor in p_t1."""
    _, dist = SpatialIndex(p_t1).query(p_t.points + flow.vectors)
    return dist.sum()


def rigid_scene(seed=40, n=50):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-5, 5, size=(n, 3))
    true = RigidTransform(rot_z(0.2), np.array([1.0, -0.5, 0.3]))
    flow = FlowField(true.apply(pts) - pts)
    mask = SegmentationMask(np.zeros(n, dtype=np.int64))
    return cloud_of(pts), flow, mask, true


@st.composite
def warp_chains(draw):
    """Frame t, frame t+1 and a chain of 2-5 flows over frame t, each
    moved from the last: not at all, by sub-millimetre steps, or by one
    cluster jumping past the clearance.  Lattice clouds with half-step
    frame-t+1 points tie everywhere; random clouds rarely tie."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        src = rng.integers(-3, 4, size=(draw(st.integers(1, 80)), 3)) * 1.0
        obs = rng.integers(-7, 8, size=(draw(st.integers(1, 40)), 3)) * 0.5
        flow = np.zeros_like(src)
    else:
        src = rng.normal(size=(draw(st.integers(1, 200)), 3))
        obs = rng.normal(size=(draw(st.integers(1, 80)), 3))
        flow = rng.normal(scale=0.1, size=src.shape)
    flows = [flow]
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["still", "sub-mm", "jump"]))
        step = np.zeros_like(src)
        if kind == "sub-mm":
            step = rng.uniform(-5e-4, 5e-4, size=src.shape)
        elif kind == "jump":
            jumper = rng.random(src.shape[0]) < 0.2
            step[jumper] = rng.choice([0.5, 1.0, 2.0]) * rng.choice([-1.0, 1.0], 3)
        flow = flow + step
        flows.append(flow)
    return cloud_of(src), cloud_of(obs), [FlowField(f) for f in flows]


class RecordingIndex(SpatialIndex):
    """A SpatialIndex that logs the rows each of its searches covers."""

    log = []

    def _search(self, q):
        self.log.append(np.array(q))
        return super()._search(q)


class TestMotionLoss:
    def test_zero_on_exact_rigid_flow(self):
        p_t, flow, mask, true = rigid_scene()
        assert motion_loss(p_t, flow, ClusterFit(mask, (true,), ())) < 1e-12

    def test_uniform_offset_unit_residual(self):
        p_t, _, mask, _ = rigid_scene()
        flow = FlowField(np.tile([1.0, 0.0, 0.0], (len(p_t), 1)))
        loss = motion_loss(p_t, flow,
                           ClusterFit(mask, (RigidTransform.identity(),), ()))
        assert loss == pytest.approx(1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(41)
        pts = rng.uniform(-5, 5, size=(80, 3))
        labels = np.sort(rng.integers(0, 3, size=80)).astype(np.int64)
        labels[:3] = 0  # keep every cluster populated
        flow = FlowField(rng.standard_normal((80, 3)) * 0.3)
        p_t = cloud_of(pts)
        mask = SegmentationMask(labels)
        fit = fit_transforms(p_t, flow, mask)
        got = motion_loss(p_t, flow, fit)
        acc = 0.0
        for k, t in enumerate(fit.transforms):
            sel = labels == k
            res = t.apply(pts[sel]) - (pts[sel] + flow.vectors[sel])
            acc += np.sqrt((np.linalg.norm(res, axis=1) ** 2).mean())
        assert got == pytest.approx(acc / len(fit.transforms), abs=1e-9)

    def test_transform_count_mismatch(self):
        _, _, mask, true = rigid_scene()
        with pytest.raises(LengthMismatch):
            ClusterFit(mask, (true, true), ())

    def test_merging_distinct_motions_never_decreases(self):
        # one rigid fit on the union of two differently-moving parts is
        # worse than the two per-part fits
        rng = np.random.default_rng(42)
        a = rng.uniform(0, 4, size=(40, 3))
        b = rng.uniform(6, 10, size=(40, 3))
        pts = np.vstack([a, b])
        ta = RigidTransform(np.eye(3), np.array([1.0, 0.0, 0.0]))
        tb = RigidTransform(rot_z(0.3), np.array([-1.0, 2.0, 0.0]))
        flow = FlowField(np.vstack([ta.apply(a) - a, tb.apply(b) - b]))
        p_t = cloud_of(pts)
        split = SegmentationMask(np.r_[np.zeros(40, dtype=np.int64),
                                       np.ones(40, dtype=np.int64)])
        merged = SegmentationMask(np.zeros(80, dtype=np.int64))
        t_split = fit_transforms(p_t, flow, split)
        t_merged = fit_transforms(p_t, flow, merged)
        assert motion_loss(p_t, flow, t_merged) \
            >= motion_loss(p_t, flow, t_split) - 1e-12


class TestFlowConsistencyLoss:
    def test_identical_flows_zero(self):
        mask = SegmentationMask(np.zeros(10, dtype=np.int64))
        flow = FlowField(np.tile([3.0, 1.0, 0.0], (10, 1)))
        assert flow_consistency_loss(flow, mask) == 0.0

    def test_hand_computed_pair(self):
        mask = SegmentationMask(np.zeros(2, dtype=np.int64))
        flow = FlowField(np.array([[0.0, 0, 0], [2.0, 0, 0]]))
        assert flow_consistency_loss(flow, mask) == pytest.approx(1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(43)
        labels = np.sort(rng.integers(0, 4, size=100)).astype(np.int64)
        labels[:1] = 0
        vec = rng.standard_normal((100, 3))
        got = flow_consistency_loss(FlowField(vec), SegmentationMask(labels))
        ks = np.unique(labels)
        acc = 0.0
        for k in ks:
            dev = vec[labels == k] - vec[labels == k].mean(axis=0)
            acc += (dev ** 2).sum() / (labels == k).sum()
        assert got == pytest.approx(acc / len(ks), abs=1e-9)

    def test_per_cluster_shift_invariance(self):
        # adding one constant to every vector of a single cluster moves the
        # cluster mean with it, so the loss cannot change
        rng = np.random.default_rng(44)
        labels = np.r_[np.zeros(20, dtype=np.int64),
                       np.ones(20, dtype=np.int64)]
        vec = rng.standard_normal((40, 3))
        base = flow_consistency_loss(FlowField(vec), SegmentationMask(labels))
        vec2 = vec.copy()
        vec2[labels == 1] += [5.0, -2.0, 1.0]
        shifted = flow_consistency_loss(FlowField(vec2),
                                        SegmentationMask(labels))
        assert shifted == pytest.approx(base, abs=1e-12)


class TestChamferLoss:
    def test_zero_on_exact_warp(self):
        p_t, flow, _, _ = rigid_scene()
        p_t1 = cloud_of(p_t.points + flow.vectors)
        assert chamfer_loss(p_t, flow, p_t1, forward(p_t, flow, p_t1)).value == 0.0

    def test_single_point_shift(self):
        p_t = cloud_of([[0.0, 0.0, 0.0]])
        p_t1 = cloud_of([[1.0, 0.0, 0.0]])
        zero = FlowField.zeros(1)
        assert chamfer_loss(p_t, zero, p_t1, forward(p_t, zero, p_t1)).value \
            == pytest.approx(2.0)

    def test_composes_chamfer_and_warp(self):
        rng = np.random.default_rng(45)
        p_t = cloud_of(rng.uniform(-3, 3, size=(60, 3)))
        p_t1 = cloud_of(rng.uniform(-3, 3, size=(70, 3)))
        flow = FlowField(rng.standard_normal((60, 3)) * 0.2)
        direct = chamfer_distance(p_t1.points, p_t.points + flow.vectors)
        assert chamfer_loss(p_t, flow, p_t1,
                            forward(p_t, flow, p_t1)).value == direct

    def test_split_equals_chamfer_distance_on_shuffled_scene(self):
        # the loop's Chamfer term: forward distances from the one match
        # against the frame-t+1 index, plus the backward query alone
        records = generate(random_scene_spec(9, n_points=3000, n_objects=3,
                                             shuffle=True))
        p_t, p_t1 = records[0].cloud, records[1].cloud
        assert records[0].gt_mask.n_clusters >= 4
        index_t1 = SpatialIndex(p_t1)
        init = init_flow(SpatialIndex(p_t), index_t1).flow
        for flow in (init, records[0].gt_flow):
            _, fwd = index_t1.query(p_t.points + flow.vectors)
            assert chamfer_loss(p_t, flow, p_t1, fwd.sum()).value == chamfer_distance(
                p_t1.points, p_t.points + flow.vectors)
        ssf = run(p_t, p_t1)
        assert ssf.losses[-1].l_cd == chamfer_distance(
            p_t1.points, p_t.points + ssf.flow.vectors)

    @settings(deadline=None, max_examples=300)
    @given(warp_chains())
    def test_carried_backward_half_equals_chamfer_distance(self, chain):
        p_t, p_t1, flows = chain
        term = None
        for flow in flows:
            previous = term
            warped = p_t.points + flow.vectors
            RecordingIndex.log = []
            with mock.patch.object(geometry, "SpatialIndex", RecordingIndex):
                term = chamfer_loss(p_t, flow, p_t1, forward(p_t, flow, p_t1),
                                    previous)
            assert term.value == chamfer_distance(p_t1.points, warped)
            backward = term.backward
            d2 = ((p_t1.points[:, None] - warped[None]) ** 2).sum(axis=2)
            # the nearest warped point, ties to the lowest id
            assert np.array_equal(backward.ids, d2.argmin(axis=1))
            # clearance bounds the distance to every other warped point
            d = np.sqrt(d2)
            d[np.arange(len(p_t1)), backward.ids] = np.inf
            assert (backward.clearance <= d.min(axis=1) + 1e-12).all()
            if previous is None:
                assert len(RecordingIndex.log) == 1
                assert np.array_equal(RecordingIndex.log[0], p_t1.points)
                continue
            # a row with margin left after the largest step is not searched
            step = np.sqrt(((warped - previous.warped) ** 2).sum(axis=1)).max()
            new = np.sqrt(((p_t1.points - warped[previous.backward.ids]) ** 2)
                          .sum(axis=1))
            kept = new + TOL < previous.backward.clearance - step - TOL
            assert len(RecordingIndex.log) == 1
            assert np.array_equal(RecordingIndex.log[0], p_t1.points[~kept])

    def test_carried_term_checks_its_clouds(self):
        p_t, flow, _, _ = rigid_scene()
        first = chamfer_loss(p_t, flow, p_t, forward(p_t, flow, p_t))
        other = cloud_of(p_t.points[:-1])
        with pytest.raises(LengthMismatch):
            chamfer_loss(other, FlowField(flow.vectors[:-1]), p_t, 0.0, first)
        with pytest.raises(LengthMismatch, match="frame t\\+1"):
            chamfer_loss(p_t, flow, other, 0.0, first)

    def test_flow_length_mismatch(self):
        p_t, _, _, _ = rigid_scene()
        with pytest.raises(LengthMismatch):
            chamfer_loss(p_t, FlowField.zeros(len(p_t) + 1), p_t, 0.0)

    def test_forward_must_be_a_sum(self):
        p_t, flow, _, _ = rigid_scene()
        with pytest.raises(ValueError, match="sum"):
            chamfer_loss(p_t, flow, p_t, np.zeros(len(p_t)))


class TestTotalLoss:
    def test_total_is_sum_and_matches_parts(self):
        rng = np.random.default_rng(46)
        pts = rng.uniform(-5, 5, size=(60, 3))
        flow = FlowField(rng.standard_normal((60, 3)) * 0.3)
        labels = np.sort(rng.integers(0, 2, size=60)).astype(np.int64)
        labels[:3] = 0
        p_t = cloud_of(pts)
        p_t1 = cloud_of(pts + rng.standard_normal((60, 3)) * 0.3)
        mask = SegmentationMask(labels)
        fit = fit_transforms(p_t, flow, mask)
        l_cd = chamfer_loss(p_t, flow, p_t1, forward(p_t, flow, p_t1)).value
        lb = total_loss(p_t, flow, fit, l_cd)
        assert lb.total == pytest.approx(lb.l_mot + lb.l_sc + lb.l_cd,
                                         abs=1e-12)
        assert lb.l_mot == motion_loss(p_t, flow, fit)
        assert lb.l_sc == flow_consistency_loss(flow, mask)
        assert lb.l_cd == l_cd

    def test_zero_point_on_perfect_rigid_scene(self):
        # translation only: a rotating cluster has intrinsic within-cluster
        # flow variance, so the exact zero-point needs uniform flow
        rng = np.random.default_rng(48)
        pts = rng.uniform(-5, 5, size=(50, 3))
        true = RigidTransform(np.eye(3), np.array([1.0, -0.5, 0.3]))
        flow = FlowField(true.apply(pts) - pts)
        mask = SegmentationMask(np.zeros(50, dtype=np.int64))
        p_t = cloud_of(pts)
        p_t1 = cloud_of(pts + flow.vectors)
        l_cd = chamfer_loss(p_t, flow, p_t1, forward(p_t, flow, p_t1)).value
        lb = total_loss(p_t, flow, ClusterFit(mask, (true,), ()), l_cd)
        assert lb.total <= 1e-6
        assert max(lb.l_mot, lb.l_sc, lb.l_cd) <= 1e-6

    def test_relabel_invariance(self):
        # swapping cluster ids permutes the transform list but leaves
        # every loss value unchanged
        rng = np.random.default_rng(47)
        a = rng.uniform(0, 4, size=(30, 3))
        b = rng.uniform(8, 12, size=(30, 3))
        pts = np.vstack([a, b])
        flow = FlowField(rng.standard_normal((60, 3)) * 0.2)
        p_t = cloud_of(pts)
        p_t1 = cloud_of(pts + 0.1)
        m1 = SegmentationMask(np.r_[np.zeros(30, dtype=np.int64),
                                    np.ones(30, dtype=np.int64)])
        m2 = SegmentationMask(np.r_[np.ones(30, dtype=np.int64),
                                    np.zeros(30, dtype=np.int64)])
        t1 = fit_transforms(p_t, flow, m1)
        t2 = fit_transforms(p_t, flow, m2)
        l_cd = chamfer_loss(p_t, flow, p_t1, forward(p_t, flow, p_t1)).value
        lb1 = total_loss(p_t, flow, t1, l_cd)
        lb2 = total_loss(p_t, flow, t2, l_cd)
        assert lb1.l_mot == pytest.approx(lb2.l_mot, abs=1e-12)
        assert lb1.l_sc == pytest.approx(lb2.l_sc, abs=1e-12)
        assert lb1.l_cd == lb2.l_cd

    def test_breakdown_rejects_inconsistent_total(self):
        with pytest.raises(ValueError):
            LossBreakdown(l_mot=1.0, l_sc=1.0, l_cd=1.0, total=2.0)

    def test_mask_mismatch(self):
        p_t, flow, mask, true = rigid_scene()
        bad = SegmentationMask(np.zeros(3, dtype=np.int64))
        with pytest.raises(LengthMismatch):
            motion_loss(p_t, flow, ClusterFit(bad, (true,), ()))
