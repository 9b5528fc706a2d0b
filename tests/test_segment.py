"""Clustering, cluster statistics, static/dynamic classification."""
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
from flowseg.errors import (DegenerateInput, EmptyCloud, MaskMismatch,
                            UnknownClusterId)
from flowseg.flow import ClusterFit, FlowField, PointCloud, init_flow
from flowseg.geometry import RigidTransform, SpatialIndex, weighted_kabsch
from flowseg.pipeline import R_STATIC, initial_mask
from flowseg.segment import (CLUSTER_EPS, LAMBDA_FLOW, MIN_PTS,
                             SIZE_VARIANCE_THRESHOLD, STRATEGIES,
                             ClassifierConfig, ClusterStats, SegmentationMask,
                             StaticSet, _compact, classify, cluster,
                             cluster_stats, members, pair_list,
                             relabel_static_first)


def cloud_of(points):
    return PointCloud(np.asarray(points, dtype=np.float64))


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
    """``classify`` on a mask of these sizes, and how often it asked for the
    velocities."""
    calls = []
    speeds = [0.0] * len(sizes) if speeds is None else speeds
    static = classify(mask_of_sizes(sizes), cfg,
                      velocities_of(sizes, speeds, v_ego, calls))
    return static, len(calls)


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

    @settings(deadline=None, max_examples=100)
    @given(st.sampled_from([1, 255, 256, 65535, 65536, 2**17]).flatmap(
        lambda top: st.lists(st.integers(0, top), min_size=1, max_size=400)))
    @example([65536, 0, 65535, 65536, 0])
    def test_narrow_sort_equals_int64_stable_argsort(self, raw):
        # labels need not be contiguous here: every id up to the largest
        # gets a group, empty or not, as a split of the int64 sort would
        labels = np.asarray(raw, dtype=np.int64)
        groups = members(labels)
        sizes = np.fromiter(map(len, groups), dtype=np.int64, count=len(groups))
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


class TestCluster:
    def test_one_blob_one_cluster(self):
        rng = np.random.default_rng(30)
        p_t = cloud_of(blob([0, 0, 0], 40, rng))
        mask = cluster(p_t, FlowField.zeros(40),
                       pairs=pair_list(SpatialIndex(p_t)))
        assert mask.n_clusters == 1

    def test_spatial_gap_splits(self):
        rng = np.random.default_rng(31)
        p_t = cloud_of(np.vstack([blob([0, 0, 0], 30, rng),
                                  blob([10, 0, 0], 30, rng)]))
        mask = cluster(p_t, FlowField.zeros(60),
                       pairs=pair_list(SpatialIndex(p_t)))
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
            mask = cluster(p_t, FlowField(vec),
                           pairs=pair_list(SpatialIndex(p_t)))
        assert mask.n_clusters == 2

    def test_zero_lambda_ignores_flow(self):
        rng = np.random.default_rng(33)
        p_t = cloud_of(blob([0, 0, 0], 40, rng))
        vec = rng.standard_normal((40, 3)) * 100.0
        with patch.object(segment, "LAMBDA_FLOW", 0.0):
            mask = cluster(p_t, FlowField(vec),
                           pairs=pair_list(SpatialIndex(p_t)))
        assert mask.n_clusters == 1

    def test_small_component_merged_into_nearest_large(self):
        rng = np.random.default_rng(34)
        big = blob([0, 0, 0], 50, rng)
        tiny = blob([3.0, 0, 0], 3, rng, scale=0.05)  # below min_pts
        other = blob([100, 0, 0], 50, rng)
        p_t = cloud_of(np.vstack([big, tiny, other]))
        mask = cluster(p_t, FlowField.zeros(103),
                       pairs=pair_list(SpatialIndex(p_t)))
        assert mask.n_clusters == 2
        assert len(set(mask.labels[:53])) == 1  # tiny joined the near blob

    def test_labels_partition_contiguously(self):
        rng = np.random.default_rng(35)
        p_t = cloud_of(np.vstack([blob([i * 8.0, 0, 0], 20, rng)
                                  for i in range(4)]))
        mask = cluster(p_t, FlowField.zeros(80),
                       pairs=pair_list(SpatialIndex(p_t)))
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
        with patch.object(segment, "LAMBDA_FLOW", lambda_flow), \
                patch.object(segment, "CLUSTER_EPS", eps):
            labels = cluster(p_t, flow,
                             pairs=pair_list(SpatialIndex(p_t))).labels
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
            labels = cluster(p_t, flow,
                             pairs=pair_list(SpatialIndex(p_t))).labels
        assert np.array_equal(labels,
                              reference_cluster(p_t, flow, lambda_flow, eps))

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 400))
    def test_cluster_equals_reference_on_random_clouds(self, seed, n):
        rng = np.random.default_rng(seed)
        p_t = cloud_of(rng.uniform(-4, 4, size=(n, 3)))
        flow = FlowField(rng.normal(0, 0.1, size=(n, 3)))
        assert np.array_equal(cluster(p_t, flow,
                                      pairs=pair_list(SpatialIndex(p_t))).labels,
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
        assert np.array_equal(initial_mask(p_t, flow, pairs).labels, expected)
        assert np.array_equal(
            initial_mask(p_t, flow, pairs=pair_list(SpatialIndex(p_t))).labels,
            expected)

    @pytest.mark.parametrize("n_other", [300, 500])
    def test_pair_list_of_another_cloud_is_refused(self, n_other):
        # a shorter cloud's list would drop links, a longer one index past
        # the cloud; both must be refused before either is used
        rng = np.random.default_rng(37)
        pts = rng.uniform(-4, 4, size=(max(400, n_other), 3))
        p_t = cloud_of(pts[:400])
        flow = FlowField(np.where(rng.random((400, 1)) < 0.4, [3.0, 0, 0], 0.0))
        pairs = pair_list(SpatialIndex(pts[:n_other]))
        with pytest.raises(MaskMismatch, match="pairs"):
            cluster(p_t, flow, pairs=pairs)
        with pytest.raises(MaskMismatch, match="pairs"):
            initial_mask(p_t, flow, pairs)

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
            exact = cluster(p_t, flow, pairs=pairs)
            proven = cluster(p_t, flow, pairs=pairs, fit=fit)
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
                cluster(p_t, flow, pairs=pairs, fit=fit).labels,
                cluster(p_t, flow, pairs=pairs).labels)

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
        rows = []

        def counting(d2, coords, i, j):
            rows.append(len(i))
            return add_squares(d2, coords, i, j)

        add_squares = segment._add_squares
        monkeypatch.setattr(segment, "_add_squares", counting)
        proven = cluster(p_t, flow, pairs=pairs, fit=fit)
        assert len(rows) == 1 and rows[0] <= (~clear).sum()
        rows.clear()
        exact = cluster(p_t, flow, pairs=pairs)
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
            labels = cluster(p_t, flow,
                             pairs=pair_list(SpatialIndex(p_t))).labels
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
        labels = cluster(p_t, flow, pairs=pairs).labels
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
        mask = cluster(p_t, FlowField.zeros(11), pairs=pairs)
        assert mask.labels[5] == mask.labels[0] != mask.labels[6]


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


class TestClassify:
    def test_quantity_picks_largest(self):
        cfg = ClassifierConfig(strategy="quantity")
        static, calls = classify_sizes([5000, 100, 50], cfg)
        assert static == StaticSet(frozenset({0}), "quantity", False)
        assert calls == 0

    def test_quantity_tie_lowest_id(self):
        cfg = ClassifierConfig(strategy="quantity")
        static, _ = classify_sizes([100, 100], cfg)
        assert static.ids == {0}

    def test_velocity_threshold(self):
        cfg = ClassifierConfig(strategy="velocity", theta=0.5)
        static, calls = classify_sizes([1, 1, 1], cfg, [10.1, 2.0, 25.0], 10.0)
        assert static == StaticSet(frozenset({0}), "velocity", False)
        assert calls == 1

    def test_velocity_no_match_falls_back_to_the_largest(self):
        cfg = ClassifierConfig(strategy="velocity", theta=0.5)
        static, calls = classify_sizes([10, 30], cfg, [5.0, 7.0], 20.0)
        assert static == StaticSet(frozenset({1}), "quantity", True)
        assert calls == 1

    def test_auto_equal_sizes_takes_velocity(self):
        cfg = ClassifierConfig(strategy="auto", theta=1.0)
        static, calls = classify_sizes([100, 100, 100], cfg, [3.0, 0.5, 9.0],
                                       0.0)
        assert static == StaticSet(frozenset({1}), "velocity", False)
        assert calls == 1

    def test_auto_skewed_sizes_takes_quantity(self):
        cfg = ClassifierConfig(strategy="auto")
        static, calls = classify_sizes([5000, 50, 50], cfg)
        assert static.strategy == "quantity"
        assert calls == 0

    def test_quantity_static_is_maximal_and_unique(self):
        rng = np.random.default_rng(37)
        cfg = ClassifierConfig(strategy="quantity")
        for _ in range(20):
            sizes = rng.integers(1, 1000, size=rng.integers(1, 8)).tolist()
            static, _ = classify_sizes(sizes, cfg)
            assert len(static.ids) == 1
            sid = next(iter(static.ids))
            assert sizes[sid] == max(sizes)
            assert 0 <= sid < len(sizes)

    def test_quantity_scale_invariant(self):
        cfg = ClassifierConfig(strategy="quantity")
        sizes = [30, 400, 70]
        a, _ = classify_sizes(sizes, cfg)
        b, _ = classify_sizes([s * 7 for s in sizes], cfg)
        assert a == b

    @settings(deadline=None, max_examples=300)
    @given(SIZES.flatmap(lambda sizes: st.tuples(
               st.just(sizes),
               st.lists(SPEEDS, min_size=len(sizes), max_size=len(sizes)))),
           SPEEDS, st.floats(0.01, 5.0), st.sampled_from(STRATEGIES),
           st.integers(0, 2**32 - 1))
    @example(([100, 100], [2.0, 1.0]), 1.5, 0.5, "velocity", 0)
    @example(([4, 4, 4], [1.0, 1.0, 1.0]), 1.0, 1e-9, "auto", 0)
    def test_equals_the_loop_rule(self, sizes_speeds, v_ego, theta, strategy,
                                  seed):
        # the examples: speeds exactly theta from v_ego, which are not static
        sizes, speeds = sizes_speeds
        cfg = ClassifierConfig(theta=theta, strategy=strategy)
        calls = []
        static = classify(mask_of_sizes(sizes, seed), cfg,
                          velocities_of(sizes, speeds, v_ego, calls))
        ids, rule, fallback, tried = reference_static_set(sizes, speeds,
                                                          v_ego, cfg)
        assert isinstance(static.ids, frozenset)
        assert (static.ids, static.strategy, static.fallback) \
            == (ids, rule, fallback)
        assert len(calls) == tried


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
