"""Iterative co-refinement loop: deltas, initial mask, and the full run."""

import numpy as np
import pytest

from flowseg import flow, geometry
from flowseg.datagen import generate, random_scene_spec
from flowseg.errors import LengthMismatch
from flowseg.flow import FlowField, PointCloud
from flowseg.metrics import flow_metrics, seg_metrics
from flowseg.pipeline import (ConvergenceReport, IterationConfig,
                              flow_delta, initial_mask, mask_delta, run)
from flowseg.segment import ClassifierConfig, SegmentationMask


def cloud_of(points):
    return PointCloud(np.asarray(points, dtype=np.float64))


def mask_of(labels):
    return SegmentationMask(np.asarray(labels, dtype=np.int64))


class TestFlowDelta:
    def test_identical_zero(self):
        f = FlowField(np.random.default_rng(50).standard_normal((20, 3)))
        assert flow_delta(f, f) == 0.0

    def test_unit_shift(self):
        prev = FlowField.zeros(10)
        curr = FlowField(np.tile([1.0, 0.0, 0.0], (10, 1)))
        assert flow_delta(curr, prev) == pytest.approx(1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(51)
        a = FlowField(rng.standard_normal((40, 3)))
        b = FlowField(rng.standard_normal((40, 3)))
        brute = np.sqrt((np.linalg.norm(a.vectors - b.vectors,
                                        axis=1) ** 2).mean())
        assert flow_delta(a, b) == pytest.approx(brute, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            flow_delta(FlowField.zeros(3), FlowField.zeros(4))


class TestMaskDelta:
    def test_identical_zero(self):
        m = mask_of([0, 0, 1, 1, 2])
        assert mask_delta(m, m) == 0.0

    def test_permuted_labels_zero(self):
        a = mask_of([0, 0, 1, 1, 2])
        b = mask_of([2, 2, 0, 0, 1])
        assert mask_delta(a, b) == 0.0

    def test_fractional_change(self):
        prev = mask_of([0] * 90 + [1] * 10)
        labels = [0] * 90 + [1] * 10
        for i in range(80, 90):
            labels[i] = 1  # 10 of 100 points move cluster
        assert mask_delta(mask_of(labels), prev) == pytest.approx(0.1)

    def test_cluster_split_counts_moved_points(self):
        prev = mask_of([0] * 60)
        curr = mask_of([0] * 40 + [1] * 20)
        assert mask_delta(curr, prev) == pytest.approx(20 / 60)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mask_delta(mask_of([0, 0]), mask_of([0]))


class TestInitialMask:
    def test_static_scene_single_cluster(self):
        rng = np.random.default_rng(52)
        pts = rng.uniform(-5, 5, size=(100, 3))
        flow = FlowField(np.tile([0.3, 0.0, 0.0], (100, 1)))
        mask = initial_mask(cloud_of(pts), flow)
        assert mask.n_clusters == 1
        assert not mask.labels.any()

    def test_fast_blob_becomes_candidate(self):
        rng = np.random.default_rng(53)
        bg = rng.uniform(-6, 6, size=(150, 3))
        mover = rng.uniform(-0.5, 0.5, size=(20, 3)) + [0.0, 0.0, 15.0]
        pts = np.vstack([bg, mover])
        vec = np.zeros((170, 3))
        vec[150:, 0] = 2.0  # residual far above the gate
        mask = initial_mask(cloud_of(pts), FlowField(vec))
        assert mask.n_clusters == 2
        assert (mask.labels[150:] == 1).all()
        assert not mask.labels[:150].any()


class TestIterationConfig:
    def test_defaults_valid(self):
        cfg = IterationConfig()
        assert cfg.epsilon == 1e-3
        assert cfg.max_iters == 20

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            IterationConfig(epsilon=0.0)

    def test_rejects_zero_weights(self):
        with pytest.raises(ValueError):
            IterationConfig(alpha=0.0, beta=0.0)

    def test_report_checks_delta_identity(self):
        from flowseg.losses import LossBreakdown
        from flowseg.pipeline import IterationRecord
        bad = IterationRecord(iteration=1, flow_delta=1.0, mask_delta=1.0,
                              delta_total=5.0,  # != alpha*1 + beta*1
                              losses=LossBreakdown(0.0, 0.0, 0.0, 0.0),
                              n_clusters=1, strategy="quantity",
                              static_fallback=False, degenerate_clusters=0,
                              v_ego=0.0)
        with pytest.raises(ValueError):
            ConvergenceReport(alpha=1.0, beta=1.0, epsilon=1e-3,
                              records=(bad,), converged=True,
                              n_unreliable=0, n_disoccluded=0)


class TestRun:
    def test_static_only_scene(self):
        spec = random_scene_spec(60, n_points=1200, n_objects=0,
                                 noise_sigma=0.0)
        recs = generate(spec)
        ssf = run(recs[0].cloud, recs[1].cloud)
        assert ssf.report.converged
        assert ssf.report.n_iterations <= 3
        assert ssf.mask.n_clusters == 1
        assert not ssf.mask.labels.any()
        fm = flow_metrics(ssf.flow, recs[0].gt_flow)
        assert fm.epe3d <= 1e-3

    def test_three_movers_noiseless(self):
        # object displacement kept under half the in-box point spacing so
        # every correspondence is the point's own image and the rigid fit
        # is exact
        spec = random_scene_spec(61, n_points=2400, n_objects=3,
                                 noise_sigma=0.0, object_speed=(0.8, 1.5))
        recs = generate(spec)
        ssf = run(recs[0].cloud, recs[1].cloud)
        sm = seg_metrics(ssf.mask, recs[0].gt_mask)
        fm = flow_metrics(ssf.flow, recs[0].gt_flow)
        assert sm.accuracy == 100.0
        assert fm.epe3d <= 1e-3

    def test_max_iters_one(self):
        spec = random_scene_spec(62, n_points=900, n_objects=1)
        recs = generate(spec)
        ssf = run(recs[0].cloud, recs[1].cloud,
                  IterationConfig(max_iters=1))
        assert ssf.report.n_iterations == 1
        assert not ssf.report.converged

    def test_converged_implies_small_delta(self):
        spec = random_scene_spec(63, n_points=1200, n_objects=1)
        recs = generate(spec)
        ssf = run(recs[0].cloud, recs[1].cloud)
        rep = ssf.report
        if rep.converged:
            assert rep.records[-1].delta_total < rep.epsilon

    def test_delta_total_identity_per_record(self):
        spec = random_scene_spec(64, n_points=1200, n_objects=2)
        recs = generate(spec)
        cfg = IterationConfig(alpha=0.7, beta=1.3)
        ssf = run(recs[0].cloud, recs[1].cloud, cfg)
        for rec in ssf.report.records:
            expect = 0.7 * rec.flow_delta + 1.3 * rec.mask_delta
            assert rec.delta_total == pytest.approx(expect, abs=1e-12)

    def test_deterministic(self):
        spec = random_scene_spec(65, n_points=1200, n_objects=2)
        recs = generate(spec)
        a = run(recs[0].cloud, recs[1].cloud)
        b = run(recs[0].cloud, recs[1].cloud)
        assert a.flow.vectors.tobytes() == b.flow.vectors.tobytes()
        assert a.mask.labels.tobytes() == b.mask.labels.tobytes()
        assert a.report.n_iterations == b.report.n_iterations

    def test_mask_is_canonical_static_first(self):
        spec = random_scene_spec(66, n_points=1500, n_objects=2)
        recs = generate(spec)
        ssf = run(recs[0].cloud, recs[1].cloud)
        sizes = ssf.mask.cluster_sizes()
        assert sizes[0] == sizes.max()  # background is cluster 0
        if ssf.mask.n_clusters > 2:
            assert (np.diff(sizes[1:]) <= 0).all()

    def test_transforms_align_with_clusters(self):
        spec = random_scene_spec(67, n_points=1200, n_objects=1)
        recs = generate(spec)
        ssf = run(recs[0].cloud, recs[1].cloud)
        assert len(ssf.transforms) == ssf.mask.n_clusters
        assert len(ssf.stats) == ssf.mask.n_clusters

    def test_velocity_strategy_fallback_recorded(self):
        # velocity rule with a tiny theta finds no static cluster and falls
        # back to quantity; the report says so and the run still finishes
        spec = random_scene_spec(68, n_points=1200, n_objects=1)
        recs = generate(spec)
        cfg = IterationConfig(
            classifier=ClassifierConfig(strategy="velocity", theta=1e-9))
        ssf = run(recs[0].cloud, recs[1].cloud, cfg)
        assert any(rec.static_fallback for rec in ssf.report.records)
        assert ssf.mask.n_clusters >= 1

    def test_one_frame_t1_index_and_pinned_query_count(self, monkeypatch):
        # a counting index swapped in at the names the modules look up at
        # call time, as perfbench's tracer does
        built, queries = [], []

        class CountingIndex(geometry.SpatialIndex):
            def __init__(self, points):
                super().__init__(points)
                built.append(self.points)

            def query(self, q):
                queries.append(len(np.atleast_2d(q)))
                return super().query(q)

        for module in (flow, geometry):
            monkeypatch.setattr(module, "SpatialIndex", CountingIndex)
        spec = random_scene_spec(69, n_points=1500, n_objects=2, shuffle=True)
        recs = generate(spec)
        p_t, p_t1 = recs[0].cloud, recs[1].cloud
        ssf = run(p_t, p_t1)
        n = ssf.report.n_iterations
        assert n >= 2
        # frame t+1 once; frame t for init_flow's backward check; the
        # reliable points when init_flow fills; the warped cloud per iteration
        assert sum(np.array_equal(pts, p_t1.points) for pts in built) == 1
        assert len(built) == 2 + (ssf.report.n_unreliable > 0) + n
        # init_flow's forward and backward match, iteration 1's match, then
        # per iteration one shared match and the Chamfer backward query
        assert len(queries) == 3 + 2 * n
        assert queries == [len(p_t)] * 3 + [len(p_t), len(p_t1)] * n
