"""Rigid transforms, Kabsch fitting, nearest neighbors, chamfer distance."""

import ast
import importlib
import pathlib
import pkgutil
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

import flowseg
from flowseg.errors import DegenerateInput, EmptyCloud, EmptyIndex
from flowseg.geometry import (TOL, RigidTransform, SpatialIndex,
                              chamfer_distance, weighted_kabsch)


def lattice(low, high, max_rows, scale=1.0):
    # integer coordinates (times a power of two) make every d² exact, so
    # equal distances are exact ties; duplicate rows are common
    shape = st.tuples(st.integers(1, max_rows), st.just(3))
    return arrays(np.int64, shape, elements=st.integers(low, high)).map(
        lambda a: a * scale)


def rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_rotation(rng):
    # QR of a Gaussian matrix, sign-fixed to a proper rotation
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] *= -1.0
    return q


@st.composite
def match_chains(draw):
    """Indexed points and a chain of 2-5 query stacks, each moved from the
    last row by row: some rows stay put, some move a little, and some move
    past their clearance.  Lattice clouds with half-step queries tie
    everywhere; random clouds rarely tie."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        pts = draw(lattice(-3, 3, 200))
        queries = draw(lattice(-7, 7, 40, scale=0.5))
        moves = np.array([2.0**-6, 0.125, 0.5, 1.5])
    else:
        n, m = draw(st.integers(1, 300)), draw(st.integers(1, 60))
        pts = rng.normal(size=(n, 3))
        queries = rng.normal(size=(m, 3))
        moves = np.array([1e-6, 1e-3, 0.05, 1.0])
    stacks = [queries]
    for _ in range(draw(st.integers(1, 4))):
        step = rng.choice(moves, size=queries.shape) * rng.choice([-1.0, 1.0],
                                                                  size=queries.shape)
        step[rng.random(queries.shape[0]) < 0.4] = 0.0
        queries = queries + step
        stacks.append(queries)
    return pts, stacks


class TestRigidTransform:
    def test_identity_apply(self):
        t = RigidTransform.identity()
        np.testing.assert_array_equal(t.apply([[1.0, 2.0, 3.0]]),
                                      [[1.0, 2.0, 3.0]])

    def test_rotation_90_about_z(self):
        t = RigidTransform(rot_z(np.pi / 2), np.zeros(3))
        np.testing.assert_allclose(t.apply([[1.0, 0.0, 0.0]]),
                                   [[0.0, 1.0, 0.0]], atol=1e-15)

    def test_pure_translation(self):
        t = RigidTransform(np.eye(3), np.array([0.5, 0.0, -1.0]))
        np.testing.assert_array_equal(t.apply([[0.0, 0.0, 0.0]]),
                                      [[0.5, 0.0, -1.0]])

    def test_apply_transform_single_point(self):
        t = RigidTransform(rot_z(np.pi / 2), np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(t.apply([1.0, 0.0, 0.0]),
                                   [1.0, 1.0, 0.0], atol=1e-15)

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(0)
        t = RigidTransform(random_rotation(rng), rng.standard_normal(3))
        back = RigidTransform.from_matrix(t.matrix)
        np.testing.assert_allclose(back.rotation, t.rotation, atol=1e-15)
        np.testing.assert_allclose(back.translation, t.translation, atol=1e-15)

    def test_from_matrix_accepts_3x4(self):
        t = RigidTransform(np.eye(3), np.array([1.0, 2.0, 3.0]))
        back = RigidTransform.from_matrix(t.matrix[:3])
        np.testing.assert_array_equal(back.translation, [1.0, 2.0, 3.0])

    def test_from_matrix_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            RigidTransform.from_matrix(np.eye(2))

    def test_matmul_matches_matrix_product(self):
        rng = np.random.default_rng(1)
        a = RigidTransform(random_rotation(rng), rng.standard_normal(3))
        b = RigidTransform(random_rotation(rng), rng.standard_normal(3))
        np.testing.assert_allclose((a @ b).matrix, a.matrix @ b.matrix, atol=1e-12)

    def test_inverse(self):
        rng = np.random.default_rng(2)
        t = RigidTransform(random_rotation(rng), rng.standard_normal(3))
        ti = t @ t.inverse()
        np.testing.assert_allclose(ti.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(ti.translation, np.zeros(3), atol=1e-12)

    def test_rotation_angle(self):
        t = RigidTransform(rot_z(0.3), np.zeros(3))
        assert t.rotation_angle() == pytest.approx(0.3, abs=1e-12)
        assert RigidTransform.identity().rotation_angle() == 0.0

    def test_is_rigid_rejects_sheared_matrix(self):
        m = np.eye(3)
        m[0, 1] = 0.1
        t = RigidTransform(m, np.zeros(3))
        assert not t.is_rigid()
        assert t.orthonormality_error() > 1e-3

    def test_equality_compares_values(self):
        rng = np.random.default_rng(4)
        rot, shift = random_rotation(rng), rng.standard_normal(3)
        t = RigidTransform(rot, shift)
        assert t == RigidTransform(rot.copy(), shift.copy())
        assert not t != RigidTransform(rot.copy(), shift.copy())
        assert t != RigidTransform(rot, shift + [0.0, 0.0, 1e-12])
        assert t != RigidTransform(rot @ rot_z(1e-9), shift)
        assert not t == RigidTransform.identity()
        assert t != None  # noqa: E711
        assert [RigidTransform.identity()] == [RigidTransform(np.eye(3), [0, 0, 0])]

    def test_apply_preserves_pairwise_distances(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((40, 3)) * 5.0
        t = RigidTransform(random_rotation(rng), rng.standard_normal(3))
        out = t.apply(pts)
        d_in = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        d_out = np.linalg.norm(out[:, None] - out[None, :], axis=-1)
        np.testing.assert_allclose(d_out, d_in, atol=1e-9)


class TestWeightedKabsch:
    def test_identity_on_matched_clouds(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((10, 3))
        t = weighted_kabsch(pts, pts)
        assert np.linalg.norm(t.rotation - np.eye(3)) < 1e-9
        assert np.linalg.norm(t.translation) < 1e-9

    def test_recovers_known_transform(self):
        rng = np.random.default_rng(5)
        src = rng.standard_normal((4, 3))
        true = RigidTransform(rot_z(np.pi / 6), np.array([1.0, 0.0, 0.0]))
        fit = weighted_kabsch(src, true.apply(src))
        assert np.linalg.norm(fit.rotation - true.rotation) < 1e-9
        assert np.linalg.norm(fit.translation - true.translation) < 1e-9

    def test_exact_recovery_many_random_problems(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(3, 60)
            src = rng.uniform(-10, 10, size=(n, 3))
            true = RigidTransform(random_rotation(rng),
                                  rng.uniform(-10, 10, size=3))
            fit = weighted_kabsch(src, true.apply(src))
            assert np.linalg.norm(fit.rotation - true.rotation) < 1e-9
            assert np.linalg.norm(fit.translation - true.translation) < 1e-9

    def test_result_is_proper_rotation(self):
        rng = np.random.default_rng(8)
        src = rng.standard_normal((20, 3))
        dst = src[::-1] + rng.standard_normal((20, 3))  # unrelated clouds
        fit = weighted_kabsch(src, dst)
        assert fit.is_rigid()
        assert np.linalg.det(fit.rotation) == pytest.approx(1.0, abs=1e-9)

    def test_optimality_against_random_transforms(self):
        # fitted squared error beats 1000 random rigid guesses
        rng = np.random.default_rng(9)
        src = rng.standard_normal((30, 3))
        dst = src + rng.standard_normal((30, 3)) * 0.3
        fit = weighted_kabsch(src, dst)
        best = np.sum((fit.apply(src) - dst) ** 2)
        for _ in range(1000):
            guess = RigidTransform(random_rotation(rng),
                                   rng.standard_normal(3))
            err = np.sum((guess.apply(src) - dst) ** 2)
            assert best <= err + 1e-9

    def test_too_few_points(self):
        with pytest.raises(DegenerateInput):
            weighted_kabsch([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])

    def test_collinear_points(self):
        src = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
        with pytest.raises(DegenerateInput):
            weighted_kabsch(src, src + 1.0)


class TestSpatialIndex:
    def test_two_point_analytic(self):
        idx = SpatialIndex([[0.0, 0, 0], [10.0, 0, 0]])
        ids, dists = idx.query([[1.0, 0.0, 0.0]])
        assert ids[0] == 0
        assert dists[0] == pytest.approx(1.0)

    def test_query_at_indexed_point(self):
        idx = SpatialIndex([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        ids, dists = idx.query([[4.0, 5.0, 6.0]])
        assert ids[0] == 1
        assert dists[0] == 0.0

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(10)
        pts = rng.uniform(-5, 5, size=(500, 3))
        queries = rng.uniform(-5, 5, size=(100, 3))
        ids, dists = SpatialIndex(pts).query(queries)
        d2 = ((queries[:, None] - pts[None]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(ids, d2.argmin(axis=1))
        np.testing.assert_array_equal(dists, np.sqrt(d2.min(axis=1)))

    def test_tie_breaks_to_lowest_id(self):
        # two indexed points equidistant from the query
        idx = SpatialIndex([[1.0, 0, 0], [-1.0, 0, 0], [5.0, 0, 0]])
        ids, _ = idx.query([[0.0, 0.0, 0.0]])
        assert ids[0] == 0

    def test_many_way_tie_beyond_candidate_set(self):
        # more equidistant points than the k-d tree candidate fetch
        ring = []
        for k in range(8):
            a = 2 * np.pi * k / 8
            ring.append([np.cos(a), np.sin(a), 0.0])
        ids, dists = SpatialIndex(ring).query([[0.0, 0.0, 0.0]])
        assert ids[0] == 0
        assert dists[0] == pytest.approx(1.0)

    def test_duplicate_points_lowest_id(self):
        idx = SpatialIndex([[3.0, 0, 0], [1.0, 1, 1], [1.0, 1, 1]])
        ids, _ = idx.query([[1.0, 1.0, 1.0]])
        assert ids[0] == 1

    @settings(deadline=None, max_examples=300)
    @given(lattice(-3, 3, 200), lattice(-7, 7, 40, scale=0.5))
    @example(np.array([[1.0, 0, 0], [-1.0, 0, 0], [0.0, 1, 0], [0.0, -1, 0]]),
             np.zeros((1, 3)))
    @example(np.array([[1.0, -2.0, 0.0]]),
             np.array([[1.0, -2.0, 0.0], [0.5, 0.0, -3.5], [-7.0, 7.0, 7.0]]))
    @example(np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0)
                       for z in (0.0, 1.0)]), np.full((1, 3), 0.5))
    def test_matches_argmin_on_lattice_ties(self, pts, queries):
        # half-step queries sit midway between lattice points: 2-way ties
        # across an edge, 4-way on a face, 8-way at a cell centre, and with
        # more points than a tree leaf holds the tree returns tied points in
        # its own order, so only the tie rule picks the lowest id
        ids, dists = SpatialIndex(pts).query(queries)
        d2 = ((queries[:, None] - pts[None]) ** 2).sum(axis=2)
        assert np.array_equal(ids, d2.argmin(axis=1))
        assert np.array_equal(dists, np.sqrt(d2.min(axis=1)))

    @settings(deadline=None, max_examples=200)
    @given(st.one_of(
        st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 300),
                  st.sampled_from([1e-4, 1.0, 37.0, 1e4])).map(
            lambda a: np.split(np.random.default_rng(a[0]).normal(
                0.3 * a[2], a[2], size=(a[1] + 20, 3)), [a[1]])),
        st.tuples(lattice(-3, 3, 200), lattice(-7, 7, 40, scale=0.5))))
    def test_tree_distances_are_the_scan_arithmetic(self, clouds):
        # query trusts the tree's own distances: each must be the correctly
        # rounded sqrt of d² summed as (dx² + dy²) + dz², as the exhaustive
        # scan sums it, or a d² tie could hide behind unequal distances
        pts, queries = clouds
        dist, ids = SpatialIndex(pts)._tree.query(queries, k=[1, 2])
        found = ids < len(pts)
        diff = queries[:, None, :] - pts[np.where(found, ids, 0)]
        dx, dy, dz = diff[..., 0], diff[..., 1], diff[..., 2]
        expected = np.sqrt((dx * dx + dy * dy) + dz * dz)
        assert found[:, 0].all()
        assert np.array_equal(dist[found], expected[found])

    @settings(deadline=None, max_examples=300)
    @given(match_chains())
    def test_match_chain_equals_fresh_query(self, chain):
        pts, stacks = chain
        index = SpatialIndex(pts)
        search = index._search
        searched = []

        def counting_search(q):
            searched.append(len(q))
            return search(q)

        index._search = counting_search
        match = None
        for k, queries in enumerate(stacks):
            previous, match = match, index.match(queries, match)
            ids, dist = index.query(queries)
            assert np.array_equal(match.ids, ids)
            assert np.array_equal(match.distances, dist)
            if previous is None:
                # a fresh search's clearance is the second nearest distance
                d = np.sort(np.sqrt(((queries[:, None] - pts[None]) ** 2)
                                    .sum(axis=2)), axis=1)
                second = d[:, 1] if len(pts) > 1 else np.full(len(d), np.inf)
                assert np.array_equal(match.clearance, second)
            elif k == 1:
                # rows that stayed put, with a margin the slack cannot eat,
                # are kept without a search
                still = (queries == previous.queries).all(axis=1)
                kept = still & (previous.clearance - previous.distances > 2 * TOL)
                assert searched[-2] <= len(queries) - kept.sum()

    def test_match_keeps_rows_and_checks_length(self):
        index = SpatialIndex([[0.0, 0, 0], [10.0, 0, 0]])
        first = index.match([[1.0, 0, 0], [6.0, 0, 0]])
        assert first.ids.tolist() == [0, 1]
        assert first.clearance.tolist() == [9.0, 6.0]
        # row 0 moves 2 and keeps point 0 (3 + TOL < 9 - 2 - TOL); row 1
        # moves 4, past its clearance, and is searched again
        second = index.match([[3.0, 0, 0], [2.0, 0, 0]], first)
        assert second.ids.tolist() == [0, 0]
        assert second.distances.tolist() == [3.0, 2.0]
        assert second.clearance.tolist() == [7.0, 8.0]
        # with the indexed points moved by up to ``moved``, row 0's margin of
        # 4 (7 - 3) keeps it at 3.5; at 4.5 it is searched, which finds
        # clearance 7
        kept = index.match([[3.0, 0, 0], [2.0, 0, 0]], first, moved=3.5)
        searched = index.match([[3.0, 0, 0], [2.0, 0, 0]], first, moved=4.5)
        assert kept.ids.tolist() == searched.ids.tolist() == [0, 0]
        assert kept.clearance.tolist() == [3.5, 8.0]
        assert searched.clearance.tolist() == [7.0, 8.0]
        with pytest.raises(ValueError):
            index.match([[3.0, 0, 0]], first)

    def test_pairs_equal_brute_force(self):
        rng = np.random.default_rng(15)
        pts = rng.integers(-3, 4, size=(200, 3)) * 0.5
        index = SpatialIndex(pts)
        d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2))
        i, j = np.nonzero(np.triu(d <= 0.6, k=1))
        found = index.pairs(0.6)
        assert sorted(map(tuple, found.tolist())) == list(zip(i, j))

    def test_query_knn(self):
        pts = [[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [4.0, 0, 0]]
        ids, dists = SpatialIndex(pts).query_knn([[0.9, 0.0, 0.0]], 2)
        assert set(ids[0]) == {0, 1}
        assert dists.shape == (1, 2)

    def test_query_knn_shape_and_range(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [4.0, 0, 0]])
        index = SpatialIndex(pts)
        queries = np.array([[0.9, 0.0, 0.0], [3.5, 0.0, 0.0]])
        d = np.abs(queries[:, None, 0] - pts[None, :, 0])
        for k in (1, len(index)):
            ids, dists = index.query_knn(queries, k)
            assert ids.shape == dists.shape == (2, k)
            assert np.array_equal(ids, np.argsort(d, axis=1)[:, :k])
            assert np.array_equal(dists, np.sort(d, axis=1)[:, :k])
        for k in (0, len(index) + 1):
            with pytest.raises(ValueError):
                index.query_knn(queries, k)
        with pytest.raises(ValueError):
            index.query_knn([0.9, 0.0, 0.0], 1)

    def test_concurrent_queries_match_serial(self):
        # pipeline.run searches one index from a helper thread while the
        # caller works; half-step queries on a lattice tie, so the tie rescan
        # runs in every thread at once.  Each thread has its own queries, more
        # threads than cores, and a short switch interval, so the threads
        # interleave inside each query.  One more thread finds the pair list,
        # as run() does on frame t's index while the helper queries it.
        rng = np.random.default_rng(14)
        index = SpatialIndex(rng.integers(-8, 9, size=(3000, 3)) * 1.0)
        n_threads, rounds = 4, 3
        stacks = [rng.integers(-16, 17, size=(600, 3)) * 0.5
                  for _ in range(n_threads)]

        def searches(q):
            # a query, and a match that reuses one made for the stack a
            # quarter step away
            chained = index.match(q, index.match(q + 0.25))
            return (*index.query(q), chained.ids, chained.distances)

        def radius_search():
            return (index.pairs(1.0),)

        jobs = [lambda q=q: searches(q) for q in stacks] + [radius_search]
        serial = [job() for job in jobs]
        start = threading.Barrier(len(jobs))
        results = [[] for _ in jobs]

        def worker(job, out):
            start.wait(timeout=30)
            for _ in range(rounds):
                out.append(job())

        threads = [threading.Thread(target=worker, args=args)
                   for args in zip(jobs, results)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for expected, out in zip(serial, results):
            assert len(out) == rounds
            for found in out:
                for a, b in zip(found, expected, strict=True):
                    assert np.array_equal(a, b)

    def test_empty_raises(self):
        with pytest.raises(EmptyIndex):
            SpatialIndex(np.empty((0, 3)))

    def test_query_single_point(self):
        idx = SpatialIndex([[0.0, 0, 0], [10.0, 0, 0]])
        ids, dists = idx.query([[9.0, 0.0, 0.0]])
        assert ids.shape == dists.shape == (1,)
        assert ids[0] == 1
        assert dists[0] == pytest.approx(1.0)

    def test_query_takes_only_a_stack(self):
        with pytest.raises(ValueError):
            SpatialIndex([[0.0, 0, 0]]).query([9.0, 0.0, 0.0])


class TestChamferDistance:
    def test_identical_clouds(self):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((50, 3))
        assert chamfer_distance(pts, pts) == 0.0

    def test_single_point_analytic(self):
        a = [[0.0, 0.0, 0.0]]
        b = [[1.0, 0.0, 0.0]]
        assert chamfer_distance(a, b) == pytest.approx(2.0)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((30, 3))
        b = rng.standard_normal((45, 3))
        ab = chamfer_distance(a, b)
        assert ab >= 0.0
        assert ab == pytest.approx(chamfer_distance(b, a), abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = rng.uniform(-3, 3, size=(rng.integers(1, 80), 3))
            b = rng.uniform(-3, 3, size=(rng.integers(1, 80), 3))
            d = np.linalg.norm(a[:, None] - b[None], axis=2)
            brute = d.min(axis=1).sum() + d.min(axis=0).sum()
            assert chamfer_distance(a, b) == pytest.approx(brute, abs=1e-9)

    def test_empty_raises(self):
        with pytest.raises(EmptyCloud):
            chamfer_distance(np.empty((0, 3)), [[0.0, 0.0, 0.0]])
        with pytest.raises(EmptyCloud):
            chamfer_distance([[0.0, 0.0, 0.0]], np.empty((0, 3)))


def test_only_geometry_holds_a_kd_tree():
    # SpatialIndex is the one k-d tree: a module that imports cKDTree itself
    # builds a second one beside it
    names = ["flowseg"] + [f"flowseg.{m.name}"
                           for m in pkgutil.iter_modules(flowseg.__path__)]
    holders = [name for name in names if any(
        v is cKDTree for v in vars(importlib.import_module(name)).values())]
    assert holders == ["flowseg.geometry"]


def test_every_import_is_used():
    # a name a module imports and never reads, nor lists in __all__, is
    # dead, such as one left behind when its last caller moved
    unused = []
    for path in sorted(pathlib.Path(flowseg.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [(alias.asname or alias.name.split(".")[0], node.lineno)
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and [t.id for t in node.targets] == ["__all__"]):
                used |= set(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}" for name, line in imported
                   if name not in used]
    assert unused == []


def test_every_private_function_and_index_method_is_called():
    # a module-level _private function, or a public SpatialIndex method,
    # that no module of the package names is dead: a test calling it does
    # not keep it alive
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in pathlib.Path(flowseg.__file__).parent.glob("*.py")]
    named = {node.id for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Name)}
    named |= {node.attr for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)}
    defined = [node.name for tree in trees for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and node.name.startswith("_") and not node.name.startswith("__")]
    methods = [name for name, value in vars(SpatialIndex).items()
               if not name.startswith("_") and callable(value)]
    assert methods and defined
    assert [name for name in defined + methods if name not in named] == []


def test_every_defaulted_parameter_has_a_caller():
    # a public function's defaulted parameter that no call in the package or
    # the benchmark passes is a setting only tests vary: make it the constant
    # the package uses.  A call passes a parameter when it names it, or gives
    # enough positional arguments to reach it; names imported ``as`` another
    # resolve to the original.  random_scene_spec's motion ranges are the
    # generator's scenario controls.
    exempt = {f"random_scene_spec.{name}" for name in
              ("ego_speed", "ego_yaw_rate", "object_speed", "object_yaw_rate")}
    src = pathlib.Path(flowseg.__file__).parent
    bench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    package = [ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(src.glob("*.py"))]
    trees = package + [ast.parse(path.read_text(encoding="utf-8"))
                       for path in sorted(bench.glob("*.py"))]
    reach, named = {}, {}
    for tree in trees:
        alias = {a.asname: a.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 for a in node.names if a.asname}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                name = alias.get(name, name)
                n_args = (float("inf") if any(isinstance(a, ast.Starred)
                                              for a in node.args)
                          else len(node.args))
                reach[name] = max(reach.get(name, 0), n_args)
                named.setdefault(name, set()).update(k.arg for k in node.keywords)

    def defaulted(fn, owner):
        """``(qualified name, position or None if keyword-only)`` of each
        parameter of ``fn`` with a default, ``self`` not counted."""
        positional = fn.args.posonlyargs + fn.args.args
        if owner and not any(getattr(d, "id", None) == "staticmethod"
                             for d in fn.decorator_list):
            positional = positional[1:]
        qualname = f"{owner}.{fn.name}" if owner else fn.name
        first = len(positional) - len(fn.args.defaults)
        yield from ((f"{qualname}.{arg.arg}", at)
                    for at, arg in enumerate(positional) if at >= first)
        yield from ((f"{qualname}.{arg.arg}", None) for arg, default
                    in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default)

    public = [(fn, None) for tree in package for fn in tree.body
              if isinstance(fn, ast.FunctionDef)]
    public += [(fn, cls.name) for tree in package for cls in tree.body
               if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
               for fn in cls.body if isinstance(fn, ast.FunctionDef)]
    unpassed = [param for fn, owner in public if not fn.name.startswith("_")
                for param, at in defaulted(fn, owner)
                if param.rsplit(".", 1)[1] not in named.get(fn.name, ())
                and (at is None or reach.get(fn.name, 0) <= at)]
    assert public
    assert sorted(set(unpassed) - exempt) == []
