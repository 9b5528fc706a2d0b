"""Clustering, cluster statistics, static/dynamic classification."""
import copy
import pickle
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from flowseg import segment
from flowseg.datagen import generate, random_scene_spec
from flowseg.errors import DegenerateInput, LengthMismatch
from flowseg.flow import ClusterFit, FlowField, init_flow
from flowseg.geometry import RigidTransform, SpatialIndex, weighted_kabsch
from flowseg.metrics import seg_metrics
from flowseg.pipeline import (R_STATIC, IterationConfig, initial_mask,
                              mask_delta)
from flowseg.segment import (CLUSTER_EPS, LAMBDA_FLOW, MIN_PTS,
                             SIZE_VARIANCE_THRESHOLD, STRATEGIES,
                             ClusterStats, SegmentationMask, StaticSet,
                             _compact, classify, cluster, cluster_stats,
                             pair_list)
from helpers import cloud_of


def blob(center, n, rng, scale=0.2):
    return np.asarray(center) + rng.standard_normal((n, 3)) * scale


def mask_of_sizes(sizes, seed=None):
    """A mask whose cluster k has ``sizes[k]`` points, shuffled by ``seed``."""
    labels = np.repeat(np.arange(len(sizes)), sizes)
    if seed is not None:
        np.random.default_rng(seed).shuffle(labels)
    return SegmentationMask(labels)


def velocities_of(sizes, speeds, v_ego, calls):
    """``classify``'s ``velocities``: clusters of these sizes and mean speeds
    and the ego speed, logging each call in ``calls``."""
    def velocities():
        calls.append(None)
        return [ClusterStats(cluster_id=k, size=n, mean_speed=v,
                             centroid=np.zeros(3))
                for k, (n, v) in enumerate(zip(sizes, speeds))], v_ego
    return velocities


def classify_sizes(sizes, cfg, speeds=None, v_ego=0.0):
    """``classify`` on an unshuffled mask of these sizes, the ids of the
    clusters it merged into cluster 0, and how often it asked for the
    velocities."""
    calls = []
    speeds = [0.0] * len(sizes) if speeds is None else speeds
    static = classify(mask_of_sizes(sizes), cfg,
                      velocities_of(sizes, speeds, v_ego, calls))
    last = static.mask.labels[np.cumsum(sizes) - 1]
    return static, set(np.nonzero(last == 0)[0].tolist()), len(calls)


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
        groups = SegmentationMask(labels).members
        assert len(groups) == len(reference)
        for got, want in zip(groups, reference):
            assert np.array_equal(got, want)

    def test_narrow_sort_equals_int64_stable_argsort(self):
        # cluster counts on each side of the 8- and 16-bit bounds: each id
        # once in a shuffle with repeats, sorted as uint8, uint16 and uint32
        rng = np.random.default_rng(83)
        for k, narrow in ((1, np.uint8), (255, np.uint8), (256, np.uint8),
                          (257, np.uint16), (65535, np.uint16),
                          (65536, np.uint16), (65537, np.uint32)):
            labels = np.concatenate([np.arange(k), rng.integers(0, k, 300)])
            rng.shuffle(labels)
            assert segment._narrow(labels).dtype == narrow
            groups = SegmentationMask(labels).members
            sizes = np.fromiter(map(len, groups), dtype=np.int64,
                                count=len(groups))
            assert np.array_equal(sizes, np.bincount(labels))
            assert np.array_equal(np.concatenate(groups),
                                  np.argsort(labels, kind="stable"))


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

    def test_groups_on_first_read_and_pickles_as_labels(self):
        m = SegmentationMask(np.array([1, 0, 1, 2, 0], dtype=np.int64))
        bare = pickle.dumps(m)
        assert "members" not in vars(m)
        assert [ids.tolist() for ids in m.members] == [[1, 4], [0, 2], [3]]
        assert m.members is m.members
        assert pickle.dumps(m) == bare
        for back in (pickle.loads(bare), copy.copy(m), copy.deepcopy(m)):
            assert back == m and "members" not in vars(back)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError, match="integers"):
            SegmentationMask(np.array([0.0, 1.0]))

    @settings(deadline=None)
    @given(st.integers(1, 200).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, 6), min_size=n, max_size=n),
        st.lists(st.integers(0, 3), min_size=n, max_size=n))))
    def test_overlaps_counts_each_pair_of_clusters(self, raw):
        a, b = (SegmentationMask(np.unique(r, return_inverse=True)[1])
                for r in raw)
        table = a.overlaps(b)
        assert table.shape == (a.n_clusters, b.n_clusters)
        for i in range(a.n_clusters):
            for j in range(b.n_clusters):
                assert table[i, j] == ((a.labels == i) & (b.labels == j)).sum()


def greedy_matched(counts):
    """Points matched by the greedy rule over a {(i, j): count} table:
    largest count first, ties by lowest i, then lowest j."""
    used_i, used_j, matched = set(), set(), 0
    for (i, j), c in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        if i not in used_i and j not in used_j:
            used_i.add(i)
            used_j.add(j)
            matched += c
    return matched


def seg_metrics_by_counting(pred, gt):
    """Reference: seg_metrics over a pure-Python count of label pairs."""
    p, g = pred.labels.tolist(), gt.labels.tolist()
    counts = Counter(zip(g, p))
    gt_sizes, pred_sizes = Counter(g), Counter(p)
    accuracy = float(100.0 * np.mean([(a == 0) == (b == 0)
                                      for a, b in zip(p, g)]))
    available = set(range(1, max(p) + 1))
    ious = []
    for k in sorted(range(1, max(g) + 1), key=lambda k: (-gt_sizes[k], k)):
        overlap, c = max(((counts[k, c], -c) for c in available),
                         default=(0, 0))
        if overlap == 0:
            ious.append(0.0)
            continue
        available.discard(-c)
        ious.append(overlap / (gt_sizes[k] + pred_sizes[-c] - overlap))
    return accuracy, tuple(ious)


class TestLabelStorage:
    @pytest.mark.parametrize("k, stored", [
        (1, np.uint8), (256, np.uint8), (257, np.uint16), (65536, np.uint16),
        (65537, np.uint32)])
    def test_stores_the_narrowest_unsigned_dtype(self, k, stored):
        labels = np.concatenate([np.arange(k), np.arange(k)[::-1]])
        m = SegmentationMask(labels)
        assert m.labels.dtype == stored
        assert np.array_equal(m.labels, labels)
        assert m.n_clusters == k

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                       np.uint8, np.uint16, np.uint32,
                                       np.uint64, ">u4", "<u4", ">i8"])
    def test_accepts_every_integer_dtype(self, dtype):
        m = SegmentationMask(np.array([2, 0, 1, 0, 2], dtype=dtype))
        assert m.labels.dtype == np.uint8
        assert m.labels.tolist() == [2, 0, 1, 0, 2]
        assert m.cluster_sizes().tolist() == [2, 1, 2]
        assert [ids.tolist() for ids in m.members] == [[1, 3], [2], [0, 4]]
        with pytest.raises(ValueError, match="id 1 is empty"):
            SegmentationMask(np.array([0, 2, 2], dtype=dtype))
        with pytest.raises(ValueError, match="exceeds"):
            SegmentationMask(np.array([0, np.iinfo(dtype).max], dtype=dtype))
        if np.iinfo(dtype).min < 0:
            with pytest.raises(ValueError, match="nonnegative"):
                SegmentationMask(np.array([0, -1], dtype=dtype))

    def test_owns_its_labels(self):
        for raw in (np.array([0, 1, 1], dtype=np.uint8),
                    np.frombuffer(np.array([0, 1, 1], dtype="<u4").tobytes(),
                                  dtype="<u4")):
            m = SegmentationMask(raw)
            assert m.labels.flags.owndata
            assert not np.shares_memory(m.labels, raw)
        raw = np.array([0, 1, 1], dtype=np.uint8)
        m = SegmentationMask(raw)
        raw[0] = 1
        assert m.labels.tolist() == [0, 1, 1]
        # read-only, so no write can stale members or a run's loss history
        with pytest.raises(ValueError, match="read-only"):
            m.labels[0] = 1
        assert SegmentationMask(m.labels).labels.flags.writeable is False

    def test_generated_masks_hold_a_byte_a_point(self):
        for rec in generate(random_scene_spec(3, n_points=2048, n_objects=3)):
            assert rec.gt_mask.labels.nbytes == len(rec.cloud)

    def test_pickle_and_copy_keep_dtype_and_values(self):
        for k in (3, 300):
            m = SegmentationMask(np.arange(2 * k) % k)
            for back in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
                assert back.labels.dtype == m.labels.dtype
                assert np.array_equal(back.labels, m.labels)

    def test_equals_the_same_labels_given_as_int64(self):
        labels = [1, 0, 1, 2, 0]
        assert (SegmentationMask(np.array(labels, dtype=np.uint8))
                == SegmentationMask(np.array(labels, dtype=np.int64)))
        assert (SegmentationMask(np.array(labels, dtype=np.uint8))
                != SegmentationMask(np.array(labels[::-1], dtype=np.int64)))

    @pytest.mark.parametrize("ka, kb, n", [(20, 30, 3000), (300, 300, 30000)])
    def test_joint_counts_pass_the_label_dtype(self, ka, kb, n):
        # ka * kb passes 255 (uint8 labels) and 65535 (uint16 labels): a
        # joint index built in the label dtype would wrap
        rng = np.random.default_rng(ka)
        a = SegmentationMask(rng.permutation(np.arange(n) % ka))
        b = SegmentationMask(rng.permutation(np.arange(n) % kb))
        assert a.labels.itemsize * 8 < np.log2(ka * kb)
        for x, y in ((a, b), (b, a)):
            counts = Counter(zip(x.labels.tolist(), y.labels.tolist()))
            table = np.zeros((x.n_clusters, y.n_clusters), dtype=np.int64)
            for (i, j), c in counts.items():
                table[i, j] = c
            assert np.array_equal(x.overlaps(y), table)
            assert mask_delta(x, y) == float(1.0 - greedy_matched(counts) / n)
            m = seg_metrics(x, y)
            assert ((m.accuracy, m.per_cluster_iou)
                    == seg_metrics_by_counting(x, y))


class TestCluster:
    def test_one_blob_one_cluster(self):
        rng = np.random.default_rng(30)
        p_t = cloud_of(blob([0, 0, 0], 40, rng))
        mask = cluster(FlowField.zeros(40),
                       pairs=pair_list(SpatialIndex(p_t))).mask
        assert mask.n_clusters == 1

    def test_spatial_gap_splits(self):
        rng = np.random.default_rng(31)
        p_t = cloud_of(np.vstack([blob([0, 0, 0], 30, rng),
                                  blob([10, 0, 0], 30, rng)]))
        mask = cluster(FlowField.zeros(60),
                       pairs=pair_list(SpatialIndex(p_t))).mask
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
        p_t = cloud_of(pts)
        with patch.object(segment, "LAMBDA_FLOW", 5.0), \
                patch.object(segment, "CLUSTER_EPS", 1.0):
            mask = cluster(FlowField(vec),
                           pairs=pair_list(SpatialIndex(p_t))).mask
        assert mask.n_clusters == 2

    def test_zero_lambda_ignores_flow(self):
        rng = np.random.default_rng(33)
        p_t = cloud_of(blob([0, 0, 0], 40, rng))
        vec = rng.standard_normal((40, 3)) * 100.0
        with patch.object(segment, "LAMBDA_FLOW", 0.0):
            mask = cluster(FlowField(vec),
                           pairs=pair_list(SpatialIndex(p_t))).mask
        assert mask.n_clusters == 1

    def test_small_component_merged_into_nearest_large(self):
        rng = np.random.default_rng(34)
        big = blob([0, 0, 0], 50, rng)
        tiny = blob([3.0, 0, 0], 3, rng, scale=0.05)  # below min_pts
        other = blob([100, 0, 0], 50, rng)
        p_t = cloud_of(np.vstack([big, tiny, other]))
        mask = cluster(FlowField.zeros(103),
                       pairs=pair_list(SpatialIndex(p_t))).mask
        assert mask.n_clusters == 2
        assert len(set(mask.labels[:53])) == 1  # tiny joined the near blob

    def test_labels_partition_contiguously(self):
        rng = np.random.default_rng(35)
        p_t = cloud_of(np.vstack([blob([i * 8.0, 0, 0], 20, rng)
                                  for i in range(4)]))
        mask = cluster(FlowField.zeros(80),
                       pairs=pair_list(SpatialIndex(p_t))).mask
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
    n_comp, comp = components_within(src[candidates], CLUSTER_EPS)
    next_id = 1
    for k in range(n_comp):
        ids = np.nonzero(comp == k)[0]
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
        with patch.object(segment, "LAMBDA_FLOW", lambda_flow), \
                patch.object(segment, "CLUSTER_EPS", eps):
            labels = cluster(flow,
                             pairs=pair_list(SpatialIndex(p_t))).mask.labels
        assert np.array_equal(labels, expected)

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
        with patch.object(segment, "LAMBDA_FLOW", lambda_flow), \
                patch.object(segment, "CLUSTER_EPS", eps):
            labels = cluster(flow,
                             pairs=pair_list(SpatialIndex(p_t))).mask.labels
        assert np.array_equal(labels,
                              reference_cluster(p_t, flow, lambda_flow, eps))

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 400))
    def test_cluster_equals_reference_on_random_clouds(self, seed, n):
        rng = np.random.default_rng(seed)
        p_t = cloud_of(rng.uniform(-4, 4, size=(n, 3)))
        flow = FlowField(rng.normal(0, 0.1, size=(n, 3)))
        assert np.array_equal(cluster(flow,
                                      pairs=pair_list(SpatialIndex(p_t))).mask.labels,
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
        pairs = pair_list(SpatialIndex(p_t))
        assert np.array_equal(initial_mask(flow, pairs).labels, expected)
        assert np.array_equal(
            initial_mask(flow, pairs=pair_list(SpatialIndex(p_t))).labels,
            expected)

    @pytest.mark.parametrize("n_other", [300, 500])
    def test_flow_of_another_length_is_refused(self, n_other):
        # the list holds the cloud: a shorter flow would leave points without
        # features, a longer one give features to points the cloud lacks;
        # both must be refused before either is used
        rng = np.random.default_rng(37)
        p_t = cloud_of(rng.uniform(-4, 4, size=(400, 3)))
        flow = FlowField(np.where(rng.random((n_other, 1)) < 0.4,
                                  [3.0, 0, 0], 0.0))
        pairs = pair_list(SpatialIndex(p_t))
        with pytest.raises(LengthMismatch, match="flow"):
            cluster(flow, pairs=pairs)
        with pytest.raises(LengthMismatch, match="flow"):
            initial_mask(flow, pairs)

    @pytest.mark.parametrize("n_other", [200, 500])
    def test_fit_of_another_cloud_is_refused(self, n_other):
        # a longer fit's groups would prove pairs across the movers' edges
        # and change the labels, a shorter one index past its mask
        rng = np.random.default_rng(37)
        pts = rng.uniform(-4, 4, size=(max(400, n_other), 3))
        p_t = cloud_of(pts[:400])
        flow = FlowField(np.where(rng.random((400, 1)) < 0.4, [3.0, 0, 0], 0.0))
        halves = SegmentationMask((pts[:n_other, 0] > 0).astype(np.int64))
        fit = ClusterFit(halves, (RigidTransform.identity(),) * 2, ())
        with pytest.raises(LengthMismatch, match="mask"):
            cluster(flow, pairs=pair_list(SpatialIndex(p_t)), fit=fit)

    def test_pair_list_layout(self):
        rng = np.random.default_rng(36)
        pts = rng.uniform(-2, 2, size=(300, 3))
        with patch.object(segment, "CLUSTER_EPS", 0.5):
            pairs = pair_list(SpatialIndex(pts))
        assert pairs.eps == 0.5
        assert pairs.i.dtype == pairs.j.dtype == np.intp
        assert (np.diff(pairs.i) >= 0).all() and (pairs.i < pairs.j).all()
        found = {(int(a), int(b)) for a, b in zip(pairs.i, pairs.j)}
        assert found == cKDTree(pts).query_pairs(0.5)
        diff = pts[pairs.i] - pts[pairs.j]
        assert np.array_equal(pairs.d2, (diff[:, 0] ** 2 + diff[:, 1] ** 2)
                              + diff[:, 2] ** 2)

    @settings(deadline=None, max_examples=300)
    @given(st.sampled_from([1.0, 0.8, 0.1, 0.3]).flatmap(
               lambda step: st.tuples(boundary_scenes(step), st.just(step))),
           st.sampled_from([0.0, 1.0, 37.5, 1e3]),
           st.sampled_from([1.0, 2.0, np.sqrt(2.0), np.sqrt(3.0)]))
    def test_pair_list_equals_brute_force_on_lattices(self, scene_step, offset,
                                                      radius):
        # many pairs lie at eps to the last bit, or miss it by one; the
        # tree's splits must not change which are found
        (p_t, _), step = scene_step
        pts = p_t.points + offset * np.array([1.0, -0.7, 0.3])
        eps = radius * step
        diff = pts[:, None, :] - pts[None, :, :]
        d2 = ((diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1])
              + diff[..., 2] * diff[..., 2])
        want = set(zip(*(ids.tolist() for ids in np.nonzero(
            np.triu(d2 <= eps * eps, 1)))))
        with patch.object(segment, "CLUSTER_EPS", eps):
            pairs = pair_list(SpatialIndex(pts))
        assert {(int(a), int(b)) for a, b in zip(pairs.i, pairs.j)} == want
        assert len(pairs.i) == len(want)
        assert (np.diff(pairs.i) >= 0).all()
        assert np.array_equal(pairs.d2, d2[pairs.i, pairs.j])


def rotation(axis, angle):
    """Rodrigues rotation about ``axis`` by ``angle`` radians."""
    k = np.asarray(axis, dtype=np.float64)
    k = k / np.linalg.norm(k)
    cross = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]],
                      [-k[1], k[0], 0.0]])
    return np.eye(3) + np.sin(angle) * cross + (1 - np.cos(angle)) * cross @ cross


@st.composite
def fitted_scenes(draw):
    """A lattice cloud at pitch ``step``, far from the origin, split into
    groups with a rigid fit each (some degenerate), and the flow that fit
    gives, as refine_flow would return it."""
    step = draw(st.sampled_from([1.0, 0.8, 0.1]))
    grid = draw(arrays(np.int64, st.tuples(st.integers(2, 60), st.just(3)),
                       elements=st.integers(-3, 3)))
    offset = draw(st.sampled_from([0.0, 1.0, 37.5, 1e3]))
    p_t = cloud_of(grid * step + offset * np.array([1.0, -0.7, 0.3]))
    n = len(p_t)
    k = draw(st.integers(1, min(4, n)))
    labels = _compact((np.arange(n) % k)[draw(st.permutations(range(n)))])
    n_groups = int(labels.max()) + 1
    transforms = []
    for _ in range(n_groups):
        angle = draw(st.sampled_from([0.0, 1e-9, 1e-4, 0.01, 0.1, 0.5]))
        axis = draw(st.sampled_from([[0, 0, 1], [1, 0, 0], [1, 2, 3]]))
        shift = draw(st.sampled_from([0.0, 0.05, 1.0, 123.456, 1e3]))
        transforms.append(RigidTransform(rotation(axis, angle),
                                         shift * np.array([0.6, -0.8, 0.1])))
    degenerate = sorted(draw(st.sets(st.integers(0, n_groups - 1),
                                     max_size=n_groups)))
    # degenerate groups keep this input flow, on the same lattice
    base = draw(arrays(np.int64, (n, 3), elements=st.integers(-2, 2))) * step / 2
    fit = ClusterFit(SegmentationMask(labels), tuple(transforms),
                     tuple(degenerate))
    return p_t, fit.apply(p_t, FlowField(base)), fit, step


class TestProvenPairs:
    """cluster() keeps the same-group pairs a rigid fit proves without the
    exact sum, and gives the labels it gives without the fit."""

    @settings(deadline=None, max_examples=400)
    @given(fitted_scenes(), st.sampled_from([0.0, 1.0, 5.0, 1e6]),
           st.sampled_from([1.0, np.sqrt(2.0), np.sqrt(3.0), 2.0]),
           st.one_of(st.none(), st.integers(-56, 4)))
    def test_labels_with_a_fit_equal_labels_without(self, scene, lambda_flow,
                                                    radius, room):
        # eps at a lattice distance, or above it by 2**room relative: pairs
        # at that distance lie within a few ulps of the proof's bound (room
        # about -52) or up to far inside it
        p_t, flow, fit, step = scene
        eps = radius * step * (1.0 if room is None else 1.0 + 2.0 ** room)
        with patch.object(segment, "LAMBDA_FLOW", lambda_flow), \
                patch.object(segment, "CLUSTER_EPS", eps):
            pairs = pair_list(SpatialIndex(p_t))
            exact = cluster(flow, pairs=pairs).mask
            proven = cluster(flow, pairs=pairs, fit=fit).mask
        assert np.array_equal(proven.labels, exact.labels)

    @settings(deadline=None, max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 64))
    @example(seed=0, ulps=0)
    def test_translations_at_the_rounding_limit(self, seed, ulps):
        # a pure translation far from the origin: the flow differences are
        # rounding alone, which a huge lambda makes visible, and the pairs
        # at the lattice pitch sit within ulps of eps
        rng = np.random.default_rng(seed)
        grid = rng.integers(-2, 3, size=(40, 3))
        p_t = cloud_of(grid * 0.8 + 1e3 * np.array([0.9, -0.6, 0.2]))
        labels = np.zeros(40, dtype=np.int64)
        t = RigidTransform(np.eye(3), rng.uniform(-1e3, 1e3, size=3))
        fit = ClusterFit(SegmentationMask(labels), (t,), ())
        flow = fit.apply(p_t, FlowField.zeros(40))
        with patch.object(segment, "CLUSTER_EPS", 0.8):
            pairs = pair_list(SpatialIndex(p_t))
        eps = np.sqrt(pairs.d2.max())
        for _ in range(ulps):
            eps = np.nextafter(eps, np.inf)
        with patch.object(segment, "LAMBDA_FLOW", 1e6), \
                patch.object(segment, "CLUSTER_EPS", eps):
            pairs = pair_list(SpatialIndex(p_t))
            assert np.array_equal(
                cluster(flow, pairs=pairs, fit=fit).mask.labels,
                cluster(flow, pairs=pairs).mask.labels)

    def test_fit_skips_the_pairs_it_proves(self, monkeypatch):
        # two rigid groups turned 0.02 rad: every same-group pair whose
        # bound d2 (1 + lambda^2 ||R - I||^2) clears eps^2 by a margin far
        # above rounding is kept without the exact sum
        rng = np.random.default_rng(38)
        pts = rng.uniform(-3, 3, size=(600, 3))
        labels = (pts[:, 0] > 0).astype(np.int64)
        p_t = cloud_of(pts)
        transforms = (RigidTransform(rotation([0, 0, 1], 0.02), [0.3, 0, 0]),
                      RigidTransform(rotation([1, 1, 0], -0.02), [0, 0.4, 0]))
        fit = ClusterFit(SegmentationMask(labels), transforms, ())
        flow = fit.apply(p_t, FlowField.zeros(600))
        pairs = pair_list(SpatialIndex(p_t))
        c = [LAMBDA_FLOW ** 2 * ((t.rotation - np.eye(3)) ** 2).sum()
             for t in transforms]
        group = labels[pairs.i]
        clear = ((group == labels[pairs.j])
                 & (pairs.d2 * (1 + np.take(c, group)) * (1 + 1e-9)
                    < CLUSTER_EPS ** 2))
        assert clear.mean() > 0.4
        rows, merging = [], []

        def counting(d2, coords, i, j):
            if not merging:  # the merge's feature distances test no pair
                rows.append(len(i))
            return add_squares(d2, coords, i, j)

        def merge_d2(*args):
            merging.append(True)
            try:
                return feature_d2(*args)
            finally:
                merging.pop()

        add_squares, feature_d2 = segment._add_squares, segment._feature_d2
        monkeypatch.setattr(segment, "_add_squares", counting)
        monkeypatch.setattr(segment, "_feature_d2", merge_d2)
        proven = cluster(flow, pairs=pairs, fit=fit).mask
        assert len(rows) == 1 and rows[0] <= (~clear).sum()
        rows.clear()
        exact = cluster(flow, pairs=pairs).mask
        assert rows == [len(pairs.i)]
        assert np.array_equal(proven.labels, exact.labels)


@st.composite
def merge_scenes(draw):
    """Large lattice blocks and up to 40 small components at integer
    positions: distances tie often, a small component may lie far beyond eps
    from every large point, and many merge in one batch."""
    block = np.array([[x, y, 0] for x in range(3) for y in range(2)])
    parts, flows = [], []
    for _ in range(draw(st.integers(1, 3))):
        corner = draw(arrays(np.int64, 3, elements=st.integers(-6, 6))) * 4
        parts.append(block + corner)
        flows.append(np.tile(draw(arrays(np.int64, 3, elements=st.integers(-1, 1))),
                             (len(block), 1)))
    # one draw per array, not per component, keeps 40 components cheap
    n_small = draw(st.integers(1, 40))
    sizes = draw(arrays(np.int64, n_small, elements=st.integers(1, MIN_PTS - 1)))
    starts = draw(arrays(np.int64, (n_small, 3), elements=st.integers(-30, 30)))
    parts += [start + np.arange(size)[:, None] * [1, 0, 0]
              for size, start in zip(sizes, starts)]
    flows.append(draw(arrays(np.int64, (int(sizes.sum()), 3),
                             elements=st.integers(-1, 1))))
    pts = np.vstack(parts).astype(np.float64)
    vec = np.vstack(flows) * 0.5
    order = draw(st.permutations(range(len(pts))))
    return cloud_of(pts[order]), FlowField(vec[order])


class TestSmallComponentMerge:
    """The bounded merge gives the dense reference's labels: nearest large
    point in feature space, ties to the lowest id."""

    @settings(deadline=None, max_examples=300)
    @given(merge_scenes(), st.sampled_from([0.0, 1.0, 5.0]))
    @example(scene=(cloud_of([[-3, 0, 0], [-4, 0, 0], [-5, 0, 0], [-6, 0, 0],
                              [-7, 0, 0], [0, 0, 0], [3, 0, 0], [4, 0, 0],
                              [5, 0, 0], [6, 0, 0], [7, 0, 0]]),
                    FlowField.zeros(11)), lambda_flow=1.0)
    # a row of 70 single points 2 m apart and a block 48 m off one end: no
    # single has the block among its first 16 neighbours, the near ones
    # find it at k = 64, and the far ones settle only at k = N
    @example(scene=(cloud_of([[2.0 * k, 0, 0] for k in range(70)]
                             + [[-48.0 - x, y, 0] for x in range(3)
                                for y in range(2)]),
                    FlowField.zeros(76)), lambda_flow=1.0)
    def test_equals_dense_reference(self, scene, lambda_flow):
        p_t, flow = scene
        with patch.object(segment, "LAMBDA_FLOW", lambda_flow), \
                patch.object(segment, "CLUSTER_EPS", 1.0):
            labels = cluster(flow,
                             pairs=pair_list(SpatialIndex(p_t))).mask.labels
        assert np.array_equal(labels,
                              reference_cluster(p_t, flow, lambda_flow, 1.0))

    def test_range_falloff_merges_in_a_few_searches(self):
        # a scan that thins out with range, as a LiDAR's does: each
        # background point is kept with probability min(1, (r0 / r)^2), so
        # the far field breaks into hundreds of small components
        recs = generate(random_scene_spec(3, n_points=16384, n_objects=3))
        p0, p1 = recs[0].cloud.points, recs[1].cloud.points
        r = np.linalg.norm(p0, axis=1)
        keep = ((recs[0].gt_mask.labels != 0)
                | (np.random.default_rng(3).random(len(p0))
                   < np.minimum(1.0, (8.0 / r) ** 2)))
        p_t = cloud_of(p0[keep])
        index = SpatialIndex(p_t)
        flow = init_flow(index, SpatialIndex(p1[keep])).flow
        pairs = pair_list(index)
        searches = []

        def logged(name, method):
            def search(*args):
                searches.append(name)
                return method(*args)
            return search

        for name in dir(SpatialIndex):
            method = getattr(index, name)
            if not name.startswith("_") and callable(method):
                setattr(index, name, logged(name, method))
        labels = cluster(flow, pairs=pairs).mask.labels
        sizes = np.bincount(components_within(
            np.hstack([p_t.points, LAMBDA_FLOW * flow.vectors]),
            CLUSTER_EPS)[1])
        assert (sizes < MIN_PTS).sum() > 100
        assert np.array_equal(labels, reference_cluster(p_t, flow, LAMBDA_FLOW,
                                                        CLUSTER_EPS))
        assert 1 <= len(searches) <= 8

    def test_tie_goes_to_the_lowest_id(self):
        # the middle point is 3 m from both blocks, far beyond eps
        pts = ([[3.0 + k, 0, 0] for k in range(5)] + [[0.0, 0, 0]]
               + [[-3.0 - k, 0, 0] for k in range(5)])
        p_t = cloud_of(pts)
        with patch.object(segment, "CLUSTER_EPS", 1.0):
            pairs = pair_list(SpatialIndex(p_t))
        mask = cluster(FlowField.zeros(11), pairs=pairs).mask
        assert mask.labels[5] == mask.labels[0] != mask.labels[6]


@st.composite
def flow_chains(draw):
    """A lattice cloud at pitch ``step`` and 2-5 flows on the half-step
    lattice, each differing from the one before at some points, and each
    with a chance of coming from a rigid fit (some groups degenerate): links
    drop and appear between calls, many at eps to the last bit."""
    step = draw(st.sampled_from([1.0, 0.8, 0.1]))
    grid = draw(arrays(np.int64, st.tuples(st.integers(2, 60), st.just(3)),
                       elements=st.integers(-3, 3)))
    p_t = cloud_of(grid * step)
    n = len(p_t)
    lattice = arrays(np.int64, (n, 3), elements=st.integers(-2, 2))
    vec = draw(lattice)
    chain = []
    for _ in range(draw(st.integers(2, 5))):
        moved = draw(arrays(np.bool_, n,
                            elements=st.sampled_from([False, False, True])))
        vec = np.where(moved[:, None], draw(lattice), vec)
        flow, fit = FlowField(vec * (step / 2)), None
        if draw(st.booleans()):
            labels = _compact(draw(arrays(np.int64, n,
                                          elements=st.integers(0, 2))))
            n_groups = int(labels.max()) + 1
            transforms = tuple(
                RigidTransform(
                    rotation([1, 2, 3],
                             draw(st.sampled_from([0.0, 1e-4, 0.05]))),
                    draw(st.sampled_from([0.0, step])) * np.ones(3))
                for _ in range(n_groups))
            degenerate = tuple(sorted(draw(st.sets(
                st.integers(0, n_groups - 1), max_size=n_groups))))
            fit = ClusterFit(SegmentationMask(labels), transforms, degenerate)
            flow = fit.apply(p_t, flow)
        chain.append((flow, fit))
    return p_t, chain, step


def same_partition(a, b):
    """Whether two labelings group the points alike."""
    n_joint = np.unique(np.stack([a, b]), axis=1).shape[1]
    return n_joint == np.unique(a).shape[0] == np.unique(b).shape[0]


def line_scene():
    """Ten points 0.6 m apart on a line: each links only to its neighbours
    at eps = 1, so every link is a bridge."""
    return cloud_of([[0.6 * k, 0.0, 0.0] for k in range(10)])


def split_flow():
    """A flow that moves the line's second half 0.9 m sideways, dropping
    its middle link (feature distance sqrt(0.6² + 0.9²) > 1 at lambda 1)."""
    vec = np.zeros((10, 3))
    vec[5:, 1] = 0.9
    return FlowField(vec)


class TestCarriedClustering:
    """A cluster() call given the one before it carries its components and
    gives what a call from scratch gives."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """The names of the components solvers called, in order."""
        seen = []
        for name in ("_components", "_components_among"):
            def logged(*args, _name=name, _fn=getattr(segment, name)):
                seen.append(_name)
                return _fn(*args)
            monkeypatch.setattr(segment, name, logged)
        return seen

    def chain(self, p_t, flows, fits=None):
        """Each flow's carried and from-scratch results at lambda 1, eps 1."""
        out = []
        with patch.object(segment, "LAMBDA_FLOW", 1.0), \
                patch.object(segment, "CLUSTER_EPS", 1.0):
            pairs = pair_list(SpatialIndex(p_t))
            previous = None
            for flow, fit in zip(flows, fits or [None] * len(flows)):
                fresh = cluster(flow, pairs=pairs, fit=fit)
                previous = cluster(flow, pairs=pairs, fit=fit,
                                   previous=previous)
                out.append((previous, fresh))
        return pairs, out

    def assert_same(self, carried, fresh):
        assert carried.mask == fresh.mask
        assert np.array_equal(carried.kept, fresh.kept)
        assert same_partition(carried.components, fresh.components)

    @settings(deadline=None, max_examples=300)
    @given(flow_chains(), st.sampled_from([0.0, 1.0, 5.0]),
           st.sampled_from([1.0, np.sqrt(2.0), np.sqrt(3.0), 2.0]))
    def test_every_carried_call_equals_from_scratch(self, scene, lambda_flow,
                                                    radius):
        p_t, chain, step = scene
        with patch.object(segment, "LAMBDA_FLOW", lambda_flow), \
                patch.object(segment, "CLUSTER_EPS", radius * step):
            pairs = pair_list(SpatialIndex(p_t))
            previous = None
            for flow, fit in chain:
                fresh = cluster(flow, pairs=pairs, fit=fit)
                carried = cluster(flow, pairs=pairs, fit=fit,
                                  previous=previous)
                self.assert_same(carried, fresh)
                previous = carried

    def test_a_bridged_drop_keeps_the_component_unsolved(self, solves):
        # (0, 1) drops, and point 2 still links to both of its ends
        pts = [[0.0, 0, 0], [0.9, 0, 0], [0.45, 0.3, 0], [0.45, 0.6, 0],
               [0.45, 0.9, 0]]
        moved = np.zeros((5, 3))
        moved[0, 2], moved[1, 2] = 0.5, -0.5
        pairs, out = self.chain(cloud_of(pts),
                                [FlowField.zeros(5), FlowField(moved)])
        (first, _), (second, fresh) = out
        dropped = first.kept & ~second.kept
        assert pairs.i[dropped].tolist() == [0] and pairs.j[dropped].tolist() == [1]
        assert solves == ["_components", "_components", "_components"]
        self.assert_same(second, fresh)
        assert second.mask.n_clusters == 1

    def test_an_unbridged_drop_splits_the_component(self, solves):
        _, out = self.chain(line_scene(), [FlowField.zeros(10), split_flow()])
        (first, _), (second, fresh) = out
        assert first.mask.n_clusters == 1
        # three calls from scratch, then one over the line's points alone,
        # with no call over the nodes, since no link appeared
        assert solves == ["_components"] * 3 + ["_components_among",
                                                "_components"]
        self.assert_same(second, fresh)
        assert second.mask.n_clusters == 2

    def test_a_new_link_joins_two_components(self, solves):
        _, out = self.chain(line_scene(), [split_flow(), FlowField.zeros(10)])
        (first, _), (second, fresh) = out
        assert first.mask.n_clusters == 2
        # two scratch calls and one over the two carried components
        assert solves == ["_components"] * 4
        self.assert_same(second, fresh)
        assert second.mask.n_clusters == 1

    def test_a_degenerate_fit_cluster(self):
        # the fit proves the first half's pairs; the second half is
        # degenerate, keeps its input flow and splits off
        p_t = line_scene()
        halves = SegmentationMask(np.repeat([0, 1], 5))
        shift = RigidTransform(np.eye(3), [0.3, 0.0, 0.0])
        fits = [ClusterFit(halves, (shift, shift), ()),
                ClusterFit(halves, (shift, RigidTransform.identity()), (1,))]
        flows = [fits[0].apply(p_t, FlowField.zeros(10)),
                 fits[1].apply(p_t, split_flow())]
        _, out = self.chain(p_t, flows, fits)
        for carried, fresh in out:
            self.assert_same(carried, fresh)
        assert [c.mask.n_clusters for c, _ in out] == [1, 2]

    def test_previous_of_another_pair_list_is_refused(self):
        p_t = line_scene()
        index = SpatialIndex(p_t)
        previous = cluster(FlowField.zeros(10), pairs=pair_list(index))
        with pytest.raises(ValueError, match="pair list"):
            cluster(FlowField.zeros(10), pairs=pair_list(index),
                    previous=previous)


class TestValueEquality:
    """Masks and cluster statistics compare by value, arrays included."""

    def test_masks(self):
        a = SegmentationMask(np.array([0, 1, 0]))
        assert a == SegmentationMask(np.array([0, 1, 0], dtype=np.int32))
        assert not a != SegmentationMask(np.array([0, 1, 0]))
        assert a != SegmentationMask(np.array([0, 1, 1]))
        assert a != SegmentationMask(np.array([0, 1, 0, 0]))
        assert a != None  # noqa: E711

    def test_cluster_stats(self):
        def stats(cluster_id=0, size=3, mean_speed=1.5, centroid=(1.0, 2.0, 3.0)):
            return ClusterStats(cluster_id=cluster_id, size=size,
                                mean_speed=mean_speed, centroid=centroid)

        assert stats() == stats()
        assert not stats() != stats()
        for changed in (stats(cluster_id=1), stats(size=4),
                        stats(mean_speed=1.25), stats(centroid=(1.0, 2.0, 3.5))):
            assert stats() != changed
            assert not stats() == changed
        # the records cluster_stats returns compare as tuples
        pts = np.array([[0.0, 0, 0], [2.0, 0, 0], [10.0, 0, 0]])
        mask = SegmentationMask(np.array([0, 0, 1]))
        first = cluster_stats(cloud_of(pts), FlowField.zeros(3), mask, 0.1)
        again = cluster_stats(cloud_of(pts), FlowField.zeros(3), mask, 0.1)
        assert tuple(first) == tuple(again)


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


def reference_static_set(sizes, speeds, v_ego, cfg):
    """The static set as run()'s loop picked it before ``classify`` owned the
    rule: ``(ids, strategy, fallback, tried)``, ``tried`` set when the
    velocity rule was tried."""
    strategy = cfg.strategy
    if strategy == "auto":
        spread = np.asarray(sizes, dtype=np.float64)
        normalized_variance = spread.var() / spread.mean() ** 2
        strategy = ("velocity" if normalized_variance < SIZE_VARIANCE_THRESHOLD
                    else "quantity")
    fallback, tried = False, strategy == "velocity"
    if tried:
        ids = {k for k, v in enumerate(speeds) if abs(v - v_ego) < cfg.theta}
        if not ids:
            strategy, fallback = "quantity", True
    if strategy == "quantity":
        ids = {int(np.argmax(sizes))}
    return ids, strategy, fallback, tried


# cluster sizes: any, with ties, or all within 25% of each other, where auto
# takes the velocity rule
SIZES = st.one_of(
    st.lists(st.one_of(st.integers(1, 5000), st.sampled_from([1, 7, 300, 5000])),
             min_size=1, max_size=8),
    st.tuples(st.integers(1, 8), st.integers(1, 4000)).flatmap(
        lambda a: st.lists(st.integers(a[1], a[1] + a[1] // 4),
                           min_size=a[0], max_size=a[0])))
SPEEDS = st.floats(0.0, 30.0, allow_nan=False)


def assert_canonical(raw, out, static_ids):
    """``out`` is the canonical form of the labels ``raw`` whose clusters
    ``static_ids`` are static: the partition is kept with those clusters
    merged into 0, which is non-empty, and the dynamic clusters are numbered
    1.. by descending size, equal sizes in raw-id order."""
    raw, out = np.asarray(raw), np.asarray(out)
    assert np.array_equal(out == 0, np.isin(raw, sorted(static_ids)))
    assert (out == 0).any()
    # the distinct (raw, out) pairs: one per raw cluster, and the dynamic
    # ones each under a label of their own
    joint = np.unique(np.stack([raw, out]), axis=1)
    assert joint.shape[1] == raw.max() + 1
    raw_id, label = joint[:, joint[1] > 0]
    assert sorted(label.tolist()) == list(range(1, label.shape[0] + 1))
    sizes = np.bincount(raw)
    keys = [(-sizes[k], k) for k in raw_id[np.argsort(label)]]
    assert keys == sorted(keys)


# raw masks: clusters of SIZES, their points shuffled
RAW_MASKS = st.tuples(SIZES, st.integers(0, 2**32 - 1)).map(
    lambda a: mask_of_sizes(*a).labels.tolist())


class TestClassify:
    def test_quantity_picks_largest(self):
        cfg = IterationConfig(strategy="quantity")
        static, picked, calls = classify_sizes([5000, 100, 50], cfg)
        assert static == StaticSet(mask_of_sizes([5000, 100, 50]),
                                   "quantity", False)
        assert (picked, calls) == ({0}, 0)

    def test_quantity_tie_lowest_id(self):
        cfg = IterationConfig(strategy="quantity")
        _, picked, _ = classify_sizes([100, 100], cfg)
        assert picked == {0}

    def test_velocity_threshold(self):
        cfg = IterationConfig(strategy="velocity", theta=0.5)
        static, picked, calls = classify_sizes([1, 1, 1], cfg,
                                               [10.1, 2.0, 25.0], 10.0)
        assert (picked, static.strategy, static.fallback) \
            == ({0}, "velocity", False)
        assert calls == 1

    def test_velocity_no_match_falls_back_to_the_largest(self):
        cfg = IterationConfig(strategy="velocity", theta=0.5)
        static, _, calls = classify_sizes([10, 30], cfg, [5.0, 7.0], 20.0)
        assert static == StaticSet(SegmentationMask(np.repeat([1, 0], [10, 30])),
                                   "quantity", True)
        assert calls == 1

    def test_auto_equal_sizes_takes_velocity(self):
        cfg = IterationConfig(strategy="auto", theta=1.0)
        static, _, calls = classify_sizes([100, 100, 100], cfg,
                                          [3.0, 0.5, 9.0], 0.0)
        assert static == StaticSet(
            SegmentationMask(np.repeat([1, 0, 2], [100, 100, 100])),
            "velocity", False)
        assert calls == 1

    def test_auto_skewed_sizes_takes_quantity(self):
        cfg = IterationConfig(strategy="auto")
        static, _, calls = classify_sizes([5000, 50, 50], cfg)
        assert static.strategy == "quantity"
        assert calls == 0

    def test_quantity_static_is_maximal_and_unique(self):
        rng = np.random.default_rng(37)
        cfg = IterationConfig(strategy="quantity")
        for _ in range(20):
            sizes = rng.integers(1, 1000, size=rng.integers(1, 8)).tolist()
            _, picked, _ = classify_sizes(sizes, cfg)
            assert len(picked) == 1
            assert sizes[next(iter(picked))] == max(sizes)

    def test_quantity_scale_invariant(self):
        cfg = IterationConfig(strategy="quantity")
        sizes = [30, 400, 70]
        a, a_picked, _ = classify_sizes(sizes, cfg)
        b, b_picked, _ = classify_sizes([s * 7 for s in sizes], cfg)
        assert (a_picked, a.strategy, a.fallback) \
            == (b_picked, b.strategy, b.fallback)
        assert np.array_equal(np.repeat(a.mask.labels, 7), b.mask.labels)

    @settings(deadline=None, max_examples=300)
    @given(RAW_MASKS.flatmap(lambda raw: st.tuples(
               st.just(raw),
               st.lists(SPEEDS, min_size=max(raw) + 1, max_size=max(raw) + 1))),
           SPEEDS, st.floats(0.01, 5.0), st.sampled_from(STRATEGIES))
    # speeds exactly theta from v_ego, which are not static
    @example((mask_of_sizes([100, 100], 0).labels.tolist(), [2.0, 1.0]), 1.5,
             0.5, "velocity")
    @example((mask_of_sizes([4, 4, 4], 0).labels.tolist(), [1.0, 1.0, 1.0]),
             1.0, 1e-9, "auto")
    # hand cases of the canonical form: speed 1.0 static, 9.0 dynamic
    @example(([2, 2, 0, 1], [9.0, 9.0, 1.0]), 1.0, 0.5, "velocity")
    @example(([0, 1, 2, 1], [1.0, 1.0, 1.0]), 1.0, 0.5, "velocity")
    @example(([0, 1, 1, 1, 2, 2], [1.0, 9.0, 9.0]), 1.0, 0.5, "velocity")
    @example(([2, 2, 1, 1, 1, 0], [1.0, 9.0, 9.0]), 1.0, 0.5, "velocity")
    @example(([1, 0, 2, 0], [1.0, 9.0, 9.0]), 1.0, 0.5, "velocity")
    def test_equals_the_loop_rule(self, raw_speeds, v_ego, theta, strategy):
        raw, speeds = raw_speeds
        sizes = np.bincount(raw).tolist()
        cfg = IterationConfig(theta=theta, strategy=strategy)
        calls = []
        static = classify(SegmentationMask(np.array(raw)), cfg,
                          velocities_of(sizes, speeds, v_ego, calls))
        ids, rule, fallback, tried = reference_static_set(sizes, speeds,
                                                          v_ego, cfg)
        assert_canonical(raw, static.mask.labels, ids)
        assert (static.strategy, static.fallback) == (rule, fallback)
        assert len(calls) == tried


def relabel(labels, static_ids):
    """``classify``'s canonical mask of ``labels`` under the velocity rule,
    the clusters ``static_ids`` moving at the ego speed and the rest not."""
    sizes = np.bincount(labels).tolist()
    speeds = [1.0 if k in static_ids else 9.0 for k in range(len(sizes))]
    cfg = IterationConfig(strategy="velocity", theta=0.5)
    static = classify(SegmentationMask(np.array(labels, dtype=np.int64)), cfg,
                      velocities_of(sizes, speeds, 1.0, []))
    assert (static.strategy, static.fallback) == ("velocity", False)
    return static.mask


class TestRelabelStaticFirst:
    """The relabel step of ``classify``: static clusters merged into 0, the
    dynamic ones renumbered by descending size."""

    def test_hand_case_renumbering(self):
        out = relabel([2, 2, 0, 1], {2})
        np.testing.assert_array_equal(out.labels, [0, 0, 1, 2])

    def test_all_static(self):
        out = relabel([0, 1, 2, 1], {0, 1, 2})
        assert not out.labels.any()

    def test_dynamic_ordered_by_size(self):
        labels = [0, 1, 1, 1, 2, 2]
        out = relabel(labels, {0})
        np.testing.assert_array_equal(out.labels, [0, 1, 1, 1, 2, 2])
        out2 = relabel(labels[::-1], {0})
        np.testing.assert_array_equal(out2.labels, [2, 2, 1, 1, 1, 0])

    def test_idempotent(self):
        once = relabel([1, 0, 2, 0], {0})
        twice = relabel(once.labels.tolist(), {0})
        np.testing.assert_array_equal(once.labels, twice.labels)
