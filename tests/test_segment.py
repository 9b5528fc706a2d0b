"""Clustering, cluster statistics, static/dynamic classification."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowseg.errors import (EmptyCloud, MaskMismatch, NoStaticCluster,
                            UnknownClusterId)
from flowseg.flow import FlowField, PointCloud
from flowseg.segment import (ClassifierConfig, ClusterStats, SegmentationMask,
                             classify, cluster, cluster_stats, members,
                             relabel_static_first, resolve_strategy)


def cloud_of(points):
    return PointCloud(np.asarray(points, dtype=np.float64))


def blob(center, n, rng, scale=0.2):
    return np.asarray(center) + rng.standard_normal((n, 3)) * scale


def stats_of(sizes=None, speeds=None):
    sizes = sizes if sizes is not None else [1] * len(speeds)
    speeds = speeds if speeds is not None else [0.0] * len(sizes)
    return [ClusterStats(cluster_id=i, size=s, mean_speed=v,
                         centroid=np.zeros(3))
            for i, (s, v) in enumerate(zip(sizes, speeds))]


class TestMembers:
    @settings(deadline=None)
    @given(st.lists(st.integers(0, 9), min_size=1, max_size=300))
    @example([0])
    @example([2, 0, 1, 0, 2])
    def test_matches_boolean_mask_reference(self, raw):
        # compact to contiguous ids 0..K-1; small lists give 1-point clusters
        labels = np.unique(raw, return_inverse=True)[1].astype(np.int64)
        reference = [np.nonzero(labels == k)[0]
                     for k in range(int(labels.max()) + 1)]
        groups = members(labels)
        assert len(groups) == len(reference)
        for got, want in zip(groups, reference):
            assert np.array_equal(got, want)


class TestSegmentationMask:
    def test_basic(self):
        m = SegmentationMask(np.array([0, 0, 1, 1, 2], dtype=np.int64))
        assert m.n_clusters == 3
        assert len(m) == 5
        np.testing.assert_array_equal(m.cluster_sizes(), [2, 2, 1])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SegmentationMask(np.array([0, -1], dtype=np.int64))

    def test_rejects_gap_in_labels(self):
        with pytest.raises(ValueError):
            SegmentationMask(np.array([0, 2], dtype=np.int64))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SegmentationMask(np.array([], dtype=np.int64))


class TestCluster:
    def test_one_blob_one_cluster(self):
        rng = np.random.default_rng(30)
        pts = blob([0, 0, 0], 40, rng)
        mask = cluster(cloud_of(pts), FlowField.zeros(40))
        assert mask.n_clusters == 1

    def test_spatial_gap_splits(self):
        rng = np.random.default_rng(31)
        pts = np.vstack([blob([0, 0, 0], 30, rng), blob([10, 0, 0], 30, rng)])
        mask = cluster(cloud_of(pts), FlowField.zeros(60))
        assert mask.n_clusters == 2
        assert len(set(mask.labels[:30])) == 1
        assert len(set(mask.labels[30:])) == 1

    def test_flow_difference_splits_adjacent_points(self):
        # same spatial region, flow apart by 2; lambda=5 puts the feature
        # distance at 10, far beyond eps=1
        rng = np.random.default_rng(32)
        pts = np.vstack([blob([0, 0, 0], 30, rng), blob([0.3, 0, 0], 30, rng)])
        vec = np.zeros((60, 3))
        vec[30:, 0] = 2.0
        mask = cluster(cloud_of(pts), FlowField(vec), 5.0, eps=1.0)
        assert mask.n_clusters == 2

    def test_zero_lambda_ignores_flow(self):
        rng = np.random.default_rng(33)
        pts = blob([0, 0, 0], 40, rng)
        vec = rng.standard_normal((40, 3)) * 100.0
        mask = cluster(cloud_of(pts), FlowField(vec), 0.0)
        assert mask.n_clusters == 1

    def test_small_component_merged_into_nearest_large(self):
        rng = np.random.default_rng(34)
        big = blob([0, 0, 0], 50, rng)
        tiny = blob([3.0, 0, 0], 3, rng, scale=0.05)  # below min_pts
        other = blob([100, 0, 0], 50, rng)
        pts = np.vstack([big, tiny, other])
        mask = cluster(cloud_of(pts), FlowField.zeros(103))
        assert mask.n_clusters == 2
        assert len(set(mask.labels[:53])) == 1  # tiny joined the near blob

    def test_labels_partition_contiguously(self):
        rng = np.random.default_rng(35)
        pts = np.vstack([blob([i * 8.0, 0, 0], 20, rng) for i in range(4)])
        mask = cluster(cloud_of(pts), FlowField.zeros(80))
        sizes = mask.cluster_sizes()
        assert sizes.sum() == 80
        assert (sizes > 0).all()


class TestClusterStats:
    def test_unit_flow_dt_tenth(self):
        rng = np.random.default_rng(36)
        pts = blob([0, 0, 0], 10, rng)
        vec = np.tile([1.0, 0.0, 0.0], (10, 1))
        mask = SegmentationMask(np.zeros(10, dtype=np.int64))
        st = cluster_stats(cloud_of(pts), FlowField(vec), mask, 0.1)
        assert st[0].mean_speed == pytest.approx(10.0)
        assert st[0].size == 10

    def test_zero_flow(self):
        pts = np.eye(3)
        mask = SegmentationMask(np.zeros(3, dtype=np.int64))
        st = cluster_stats(cloud_of(pts), FlowField.zeros(3), mask, 0.1)
        assert st[0].mean_speed == 0.0

    def test_mixed_norms(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
        vec = np.array([[1.0, 0, 0], [3.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
        mask = SegmentationMask(np.zeros(4, dtype=np.int64))
        st = cluster_stats(cloud_of(pts), FlowField(vec), mask, 1.0)
        assert st[0].mean_speed == pytest.approx(2.0)

    def test_centroid_and_per_cluster_split(self):
        pts = np.array([[0.0, 0, 0], [2.0, 0, 0], [10.0, 0, 0]])
        mask = SegmentationMask(np.array([0, 0, 1], dtype=np.int64))
        st = cluster_stats(cloud_of(pts), FlowField.zeros(3), mask, 0.1)
        np.testing.assert_allclose(st[0].centroid, [1.0, 0, 0])
        assert st[1].size == 1


class TestClassify:
    def test_quantity_picks_largest(self):
        cfg = ClassifierConfig(strategy="quantity")
        static, dynamic = classify(stats_of(sizes=[5000, 100, 50]), 0.0, cfg)
        assert static == {0}
        assert dynamic == {1, 2}

    def test_quantity_tie_lowest_id(self):
        cfg = ClassifierConfig(strategy="quantity")
        static, _ = classify(stats_of(sizes=[100, 100]), 0.0, cfg)
        assert static == {0}

    def test_velocity_threshold(self):
        cfg = ClassifierConfig(strategy="velocity", theta=0.5)
        static, dynamic = classify(stats_of(speeds=[10.1, 2.0, 25.0]),
                                   10.0, cfg)
        assert static == {0}
        assert dynamic == {1, 2}

    def test_velocity_no_match_raises(self):
        cfg = ClassifierConfig(strategy="velocity", theta=0.5)
        with pytest.raises(NoStaticCluster):
            classify(stats_of(speeds=[5.0, 7.0]), 20.0, cfg)

    def test_auto_equal_sizes_takes_velocity(self):
        cfg = ClassifierConfig(strategy="auto", theta=1.0)
        assert resolve_strategy(stats_of(sizes=[100, 100, 100]), cfg) \
            == "velocity"

    def test_auto_skewed_sizes_takes_quantity(self):
        cfg = ClassifierConfig(strategy="auto")
        assert resolve_strategy(stats_of(sizes=[5000, 50, 50]), cfg) \
            == "quantity"

    def test_quantity_static_is_maximal_and_unique(self):
        rng = np.random.default_rng(37)
        cfg = ClassifierConfig(strategy="quantity")
        for _ in range(20):
            sizes = rng.integers(1, 1000, size=rng.integers(1, 8)).tolist()
            static, dynamic = classify(stats_of(sizes=sizes), 0.0, cfg)
            assert len(static) == 1
            sid = next(iter(static))
            assert sizes[sid] == max(sizes)
            assert static | dynamic == set(range(len(sizes)))

    def test_quantity_scale_invariant(self):
        cfg = ClassifierConfig(strategy="quantity")
        sizes = [30, 400, 70]
        a, _ = classify(stats_of(sizes=sizes), 0.0, cfg)
        b, _ = classify(stats_of(sizes=[s * 7 for s in sizes]), 0.0, cfg)
        assert a == b


class TestRelabelStaticFirst:
    def test_hand_case_renumbering(self):
        mask = SegmentationMask(np.array([2, 2, 0, 1], dtype=np.int64))
        out = relabel_static_first(mask, {2})
        np.testing.assert_array_equal(out.labels, [0, 0, 1, 2])

    def test_all_static(self):
        mask = SegmentationMask(np.array([0, 1, 2, 1], dtype=np.int64))
        out = relabel_static_first(mask, {0, 1, 2})
        assert not out.labels.any()

    def test_dynamic_ordered_by_size(self):
        labels = np.array([0, 1, 1, 1, 2, 2], dtype=np.int64)
        out = relabel_static_first(SegmentationMask(labels), {0})
        np.testing.assert_array_equal(out.labels, [0, 1, 1, 1, 2, 2])
        out2 = relabel_static_first(SegmentationMask(labels[::-1].copy()), {0})
        np.testing.assert_array_equal(out2.labels, [2, 2, 1, 1, 1, 0])

    def test_idempotent(self):
        mask = SegmentationMask(np.array([1, 0, 2, 0], dtype=np.int64))
        once = relabel_static_first(mask, {0})
        twice = relabel_static_first(once, {0})
        np.testing.assert_array_equal(once.labels, twice.labels)

    def test_unknown_id(self):
        mask = SegmentationMask(np.array([0, 1], dtype=np.int64))
        with pytest.raises(UnknownClusterId):
            relabel_static_first(mask, {5})

    def test_empty_static_set(self):
        mask = SegmentationMask(np.array([0, 1], dtype=np.int64))
        with pytest.raises(ValueError):
            relabel_static_first(mask, set())
