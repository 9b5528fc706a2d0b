"""Clustering, cluster statistics, static/dynamic classification."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from flowseg.errors import (DegenerateInput, EmptyCloud, MaskMismatch,
                            NoStaticCluster, UnknownClusterId)
from flowseg.flow import FlowField, PointCloud
from flowseg.geometry import weighted_kabsch
from flowseg.pipeline import R_STATIC, initial_mask
from flowseg.segment import (CLUSTER_EPS, LAMBDA_FLOW, MIN_PTS, ClassifierConfig,
                             ClusterStats, SegmentationMask, _compact, classify,
                             cluster, cluster_stats, members, pair_list,
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


def components_within(features, eps):
    """Connected components of points at feature distance <= eps, from one
    k-d tree over the features themselves: the clustering before pair lists."""
    n = features.shape[0]
    pairs = cKDTree(features).query_pairs(eps, output_type="ndarray")
    adj = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                     shape=(n, n))
    return connected_components(adj, directed=False)


def reference_cluster(p_t, flow, lambda_flow, eps):
    feats = np.hstack([p_t.points, lambda_flow * flow.vectors])
    n_comp, raw = components_within(feats, eps)
    sizes = np.bincount(raw, minlength=n_comp)
    large = sizes >= MIN_PTS
    if not large.any():
        large = sizes == sizes.max()
    labels = raw.copy()
    for comp in np.nonzero(~large)[0]:
        member = feats[raw == comp]
        d2 = ((member[:, None, :] - feats[large[raw]][None]) ** 2).sum(axis=2)
        labels[raw == comp] = raw[large[raw]][int(np.argmin(d2.min(axis=0)))]
    return _compact(labels)


def reference_initial_mask(p_t, flow):
    src = p_t.points
    labels = np.zeros(len(src), dtype=np.int64)
    try:
        t = weighted_kabsch(src, src + flow.vectors)
    except DegenerateInput:
        return labels
    residual = np.linalg.norm(t.apply(src) - (src + flow.vectors), axis=1)
    candidates = np.nonzero(residual > R_STATIC)[0]
    if candidates.shape[0] == 0:
        return labels
    _, comp = components_within(src[candidates], CLUSTER_EPS)
    next_id = 1
    for ids in members(comp):
        if ids.shape[0] >= MIN_PTS:
            labels[candidates[ids]] = next_id
            next_id += 1
    if not (labels == 0).any():
        labels -= 1
    return labels


@st.composite
def boundary_scenes(draw, step):
    """A cloud and flow on a lattice of pitch ``step``, with flow steps of
    ``step / 2``: with eps a multiple of the pitch, many position and
    feature distances equal eps to the last bit, or miss it by one."""
    pts = draw(arrays(np.int64, st.tuples(st.integers(2, 60), st.just(3)),
                      elements=st.integers(-3, 3)))
    vec = draw(arrays(np.int64, pts.shape, elements=st.integers(-2, 2)))
    return cloud_of(pts * step), FlowField(vec * (step / 2))


class TestPairList:
    """One 3-D pair list per cloud gives the clusters a 6-D tree over
    position and scaled flow gives, and initial_mask's candidate clusters."""

    @settings(deadline=None, max_examples=300)
    @given(st.sampled_from([1.0, 0.8, 0.1]).flatmap(
               lambda step: st.tuples(boundary_scenes(step), st.just(step))),
           st.sampled_from([0.0, 1.0, 2.0, 5.0]),
           st.sampled_from([1.0, 2.0, np.sqrt(2.0), np.sqrt(3.0)]))
    def test_cluster_equals_six_d_query_pairs(self, scene_step, lambda_flow,
                                              radius):
        (p_t, flow), step = scene_step
        eps = radius * step
        expected = reference_cluster(p_t, flow, lambda_flow, eps)
        pairs = pair_list(p_t, eps)
        assert np.array_equal(
            cluster(p_t, flow, lambda_flow, eps=eps, pairs=pairs).labels, expected)
        assert np.array_equal(
            cluster(p_t, flow, lambda_flow, eps=eps).labels, expected)

    @settings(deadline=None, max_examples=300)
    @given(st.integers(0, 2**32 - 1), st.integers(-2, 2),
           st.sampled_from([1.0, 5.0]))
    def test_cluster_at_the_rounding_boundary(self, seed, nudge, lambda_flow):
        # eps from the first two points' own 6-D squared distance, a few
        # ulps either way: only the tree's summation order links them or not
        # exactly as the 6-D tree does
        rng = np.random.default_rng(seed)
        p_t = cloud_of(rng.uniform(-0.3, 0.3, size=(6, 3)))
        flow = FlowField(rng.uniform(-0.05, 0.05, size=(6, 3)))
        feats = np.hstack([p_t.points, lambda_flow * flow.vectors])
        diff = feats[0] - feats[1]
        d2 = 0.0
        for x in diff:
            d2 += x * x
        eps = np.sqrt(d2)
        for _ in range(abs(nudge)):
            eps = np.nextafter(eps, np.sign(nudge) * np.inf)
        assert np.array_equal(cluster(p_t, flow, lambda_flow, eps=eps).labels,
                              reference_cluster(p_t, flow, lambda_flow, eps))

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 400))
    def test_cluster_equals_reference_on_random_clouds(self, seed, n):
        rng = np.random.default_rng(seed)
        p_t = cloud_of(rng.uniform(-4, 4, size=(n, 3)))
        flow = FlowField(rng.normal(0, 0.1, size=(n, 3)))
        assert np.array_equal(cluster(p_t, flow).labels,
                              reference_cluster(p_t, flow, LAMBDA_FLOW,
                                                CLUSTER_EPS))

    @settings(deadline=None, max_examples=150)
    @given(boundary_scenes(CLUSTER_EPS), st.integers(0, 2**32 - 1))
    def test_initial_mask_equals_per_candidate_tree(self, scene, seed):
        p_t, flow = scene
        # movers far outside the residual gate make the candidates
        rng = np.random.default_rng(seed)
        vec = flow.vectors + np.where(rng.random((len(p_t), 1)) < 0.4,
                                      [3.0, 0.0, 0.0], 0.0)
        flow = FlowField(vec)
        expected = reference_initial_mask(p_t, flow)
        assert np.array_equal(initial_mask(p_t, flow, pair_list(p_t)).labels,
                              expected)
        assert np.array_equal(initial_mask(p_t, flow).labels, expected)

    def test_pair_list_layout(self):
        rng = np.random.default_rng(36)
        pts = rng.uniform(-2, 2, size=(300, 3))
        pairs = pair_list(cloud_of(pts), 0.5)
        assert pairs.i.dtype == pairs.j.dtype == np.int32
        assert (np.diff(pairs.i) >= 0).all() and (pairs.i < pairs.j).all()
        found = {(int(a), int(b)) for a, b in zip(pairs.i, pairs.j)}
        assert found == cKDTree(pts).query_pairs(0.5)
        diff = pts[pairs.i] - pts[pairs.j]
        assert np.array_equal(pairs.d2, (diff[:, 0] ** 2 + diff[:, 1] ** 2)
                              + diff[:, 2] ** 2)

    def test_pair_list_radius_must_match(self):
        p_t = cloud_of(np.random.default_rng(37).uniform(size=(20, 3)))
        with pytest.raises(ValueError):
            cluster(p_t, FlowField.zeros(20), eps=1.0, pairs=pair_list(p_t, 0.5))


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
