"""Motion segmentation: flow-augmented clustering and static/dynamic classification.

Clustering runs density-based connected components over 6-D features
(x, y, z, lambda*sx, lambda*sy, lambda*sz), lambda = ``LAMBDA_FLOW``: two
points join when their feature distance is at most eps = ``CLUSTER_EPS``, so
spatially adjacent points separate whenever their flows differ enough.  A
feature distance is never below the 3-D distance, so every joined pair is
within eps in 3-D: one :class:`PairList` of those pairs, found once in the
cloud's ``SpatialIndex``, serves every clustering of it.
:func:`classify` alone picks the static set: the largest cluster (the
background dominates), or the clusters moving with the ego vehicle, else the
largest; ``auto`` takes the velocity rule when cluster sizes are too similar
for the size rule to be trustworthy.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import MaskMismatch, UnknownClusterId
from .geometry import TOL, SpatialIndex, _check_aligned, _fields_equal

__all__ = [
    "SegmentationMask",
    "ClusterStats",
    "ClassifierConfig",
    "StaticSet",
    "PairList",
    "Clustering",
    "members",
    "pair_list",
    "cluster",
    "cluster_stats",
    "classify",
    "relabel_static_first",
]

STRATEGIES = ("auto", "quantity", "velocity")

# cluster's flow scale in the features, link radius (m) and smallest kept
# component; initial_mask links and filters with the same radius and size
LAMBDA_FLOW = 5.0
CLUSTER_EPS = 0.8
MIN_PTS = 5
# normalized cluster-size variance below which ``auto`` picks the velocity rule
SIZE_VARIANCE_THRESHOLD = 0.15

# unit roundoff of float64
_U = np.finfo(np.float64).eps / 2


@dataclass(frozen=True)
class SegmentationMask:
    """Per-point cluster labels, aligned with a PointCloud.

    Labels are contiguous ids 0..K-1 with every cluster non-empty.  Id 0 is
    the static set once a mask has been through relabel_static_first.
    """

    labels: np.ndarray

    __eq__ = _fields_equal

    def __post_init__(self) -> None:
        lab = np.asarray(self.labels)
        if lab.ndim != 1 or lab.shape[0] == 0:
            raise ValueError(f"labels must be a non-empty 1-D array, got shape {lab.shape}")
        if not np.issubdtype(lab.dtype, np.integer):
            raise ValueError(f"labels must be integers, got dtype {lab.dtype}")
        lab = lab.astype(np.int64)
        if lab.min() < 0:
            raise ValueError("cluster ids must be nonnegative")
        counts = np.bincount(lab, minlength=int(lab.max()) + 1)
        if (counts == 0).any():
            missing = int(np.nonzero(counts == 0)[0][0])
            raise ValueError(f"cluster ids must be contiguous, id {missing} is empty")
        object.__setattr__(self, "labels", lab)

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max()) + 1

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.labels)

    def overlaps(self, other: SegmentationMask) -> np.ndarray:
        """The (K, K_other) table whose cell (i, j) counts the points in
        cluster i here and cluster j of ``other``, a mask of the same
        length."""
        k_other = other.n_clusters
        return np.bincount(self.labels * k_other + other.labels,
                           minlength=self.n_clusters * k_other
                           ).reshape(self.n_clusters, k_other)

    def __len__(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class ClusterStats:
    """Size, mean speed, and centroid of one cluster."""

    cluster_id: int
    size: int
    mean_speed: float
    centroid: np.ndarray

    __eq__ = _fields_equal

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("cluster size must be at least 1")
        if not (np.isfinite(self.mean_speed) and self.mean_speed >= 0):
            raise ValueError("mean_speed must be finite and nonnegative")
        object.__setattr__(self, "centroid",
                           np.asarray(self.centroid, dtype=np.float64).reshape(3))


@dataclass(frozen=True)
class ClassifierConfig:
    """Static/dynamic classification parameters.

    theta: ego-velocity tolerance in m/s for the velocity rule.
    dt: frame interval in seconds (converts flow to velocity).
    """

    theta: float = 1.0
    dt: float = 0.1
    strategy: str = "auto"

    def __post_init__(self) -> None:
        for name in ("theta", "dt"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")


def _narrow(labels: np.ndarray) -> np.ndarray:
    """Nonnegative integers in the narrowest unsigned dtype that holds them."""
    return labels.astype(np.min_scalar_type(int(labels.max(initial=0))))


def members(labels: np.ndarray) -> list:
    """Point ids of each label 0..K-1, ascending within each group.

    One stable sort groups every label at once; indexing with a group gives
    the same rows, in the same order, as a boolean mask selecting label k.
    The sort runs on the labels in their narrowest unsigned dtype, which
    numpy sorts by radix up to 16 bits, in the same stable order.
    """
    order = np.argsort(_narrow(labels), kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels))[:-1])


@dataclass(frozen=True)
class PairList:
    """Every pair of points of one cloud within ``eps`` of each other in 3-D,
    ``eps`` being the ``CLUSTER_EPS`` the list was built at.

    ``i < j`` are intp point ids, grouped by ascending ``i``.  ``d2`` is each
    pair's squared distance summed as (dx² + dy²) + dz², the k-d tree's
    left-to-right order, so adding further squared coordinate differences in
    order gives the squared distance the tree computes over longer features.
    ``index`` is the cloud's :class:`~flowseg.geometry.SpatialIndex` that
    found the pairs; ``cluster`` searches it again to merge its small
    components.
    """

    i: np.ndarray
    j: np.ndarray
    d2: np.ndarray
    eps: float
    index: SpatialIndex = field(repr=False)


def _add_squares(d2: np.ndarray, coords: np.ndarray, i, j) -> np.ndarray:
    """Add the squared differences of each pair's coordinates to ``d2`` in
    place, one column at a time, in the order the k-d tree sums them."""
    for column in coords.T:
        diff = column[i] - column[j]
        d2 += diff * diff
    return d2


def pair_list(index: SpatialIndex) -> PairList:
    """The :class:`PairList` at ``CLUSTER_EPS`` of the cloud ``index`` holds:
    one ``index.pairs`` call, grouped by a stable sort of ``i`` in its
    narrowest dtype."""
    eps = CLUSTER_EPS
    pairs = index.pairs(eps)
    order = np.argsort(_narrow(pairs[:, 0]), kind="stable")
    i = pairs[order, 0]
    j = pairs[order, 1]
    d2 = _add_squares(np.zeros(i.shape[0]), index.points, i, j)
    return PairList(i=i, j=j, d2=d2, eps=eps, index=index)


def _components(n: int, i: np.ndarray, j: np.ndarray):
    """Connected components of n points linked by pairs (i, j), i ascending."""
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(i, minlength=n), out=indptr[1:])
    adj = csr_matrix((np.ones(j.shape[0]), j, indptr), shape=(n, n))
    return connected_components(adj, directed=False)


def _components_among(member: np.ndarray, i: np.ndarray, j: np.ndarray):
    """Connected components of the points ``member`` marks, linked by the
    pairs (i, j), i ascending, with both ends among them: ``(count,
    labels)``, one label per marked point in id order."""
    inside = member[i] & member[j]
    # each point's position among the marked ones keeps i ascending
    position = np.cumsum(member) - 1
    return _components(int(position[-1]) + 1, position[i[inside]],
                       position[j[inside]])


def _compact(labels: np.ndarray) -> np.ndarray:
    """Renumber labels to 0..K-1 in order of first appearance."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    return rank[inverse].astype(np.int64)


def _proven(p_t, pairs: PairList, fit):
    """Which pairs a rigid fit proves to lie within ``eps = pairs.eps`` in
    feature space, with the flow scaled by ``λ = LAMBDA_FLOW``.

    ``fit`` is the :class:`~flowseg.flow.ClusterFit` of a
    :func:`~flowseg.flow.refine_flow` call.  A pair of one non-degenerate
    cluster k of ``fit.mask`` has flow ``T_k(p) - p`` at both ends, so its
    scaled flow difference is ``λ (R_k - I) d`` with ``d = p_i - p_j`` and
    its squared feature distance is at most ``d2 (1 + c_k)``,
    ``c_k = λ² ‖R_k - I‖_F²``.  The pair is proven when
    ``d2 (1 + c_k) + slack_k <= eps²``, tested as ``d2 <= (eps² - slack_k) /
    (1 + c_k)``.  Without a fit nothing is proven.
    """
    proven = np.zeros(pairs.i.shape[0], dtype=bool)
    if fit is None:
        return proven
    # slack_k bounds the rounding, to first order in the unit roundoff u, for
    # coordinates of magnitude at most P and translation components at most
    # T_k.  apply() computes f = fl(fl(fl(p Rᵀ) + t) - p): the product errs
    # by at most γ₃ √3 P (rows of R have unit norm), the sums by u (√3 P + T)
    # and u ((√3 + 1) P + T), so each flow component is off by at most
    # e = 11 u (P + T) and is at most 3 (P + T) in size.  Scaling by λ adds
    # 3 u λ (P + T), so each scaled difference is off from λ((R - I) d)_a by
    # at most 28 u λ (P + T), and after its own rounding the difference
    # vector δ satisfies ‖δ‖ ≤ (1 + u) (λ ‖(R - I) d‖ + B), B = 50 u λ (P + T)
    # (49 = 28 √3, rounded up).  With ‖(R - I) d‖ ≤ ‖R - I‖_F ‖d‖,
    # ‖d‖² ≤ (1 + 6u) d2 (d2 sums rounded differences) and ‖d‖ ≤ eps (1 + 4u):
    #   ‖δ‖² ≤ (1 + 9u) c d2 + (1 + 5u) (2 √c eps B + B²).
    # The exact test's sum of d2 and the three rounded squares is at most
    # (1 + 4u) (d2 + ‖δ‖²), and c computed from the stored R is within 16u of
    # the exact one.  Passing the limit test gives d2 (1 + c) + slack ≤
    # eps² (1 + 6u).  Together the exact sum is at most
    #   eps² + 36u eps² + (1 + 20u) (2 √c eps B + B²) - slack ≤ eps²
    # for the slack below: 64u eps² covers the relative terms, the factor 2
    # the cross and B² terms with their rounding.
    lambda_flow, eps = LAMBDA_FLOW, pairs.eps
    eps2 = eps * eps
    scale = float(np.abs(p_t.points).max())
    limit = np.full(len(fit.transforms), -1.0)
    for k, t_k in enumerate(fit.transforms):
        if k in fit.degenerate:
            continue  # keeps its input flow, which need not be rigid
        dev = t_k.rotation - np.eye(3)
        c = lambda_flow * lambda_flow * float((dev * dev).sum())
        b = 50.0 * _U * lambda_flow * (scale + float(np.abs(t_k.translation).max()))
        slack = 64.0 * _U * eps2 + 2.0 * (np.sqrt(c) * eps * b + b * b)
        limit[k] = (eps2 - slack) / (1.0 + c)
    labels = fit.mask.labels
    group = labels[pairs.i]
    np.logical_and(group == labels[pairs.j], pairs.d2 <= limit[group], out=proven)
    return proven


@dataclass(frozen=True)
class Clustering:
    """What :func:`cluster` found over one :class:`PairList`: the ``mask``;
    ``kept``, one flag per pair of ``pairs``, set when the pair links its
    points under the flow; and ``components``, each point's connected
    component under those links, before small components merge."""

    mask: SegmentationMask
    kept: np.ndarray
    components: np.ndarray
    pairs: PairList = field(repr=False, compare=False)

    __eq__ = _fields_equal


def _links(points, scaled, eps2, a, b):
    """Whether each pair (a, b) links: its squared feature distance, summed
    as ``pair_list`` and ``cluster`` sum a listed pair's, is at most eps²."""
    d2 = _add_squares(np.zeros(a.shape[0]), points, a, b)
    return _add_squares(d2, scaled, a, b) <= eps2


def _carry(pairs: PairList, scaled, keep, previous: Clustering):
    """``(count, labels)`` of the components under the links ``keep``,
    carried from ``previous``'s components as :func:`cluster` describes."""
    comp = previous.components
    n_prev = int(comp.max()) + 1
    changed = np.nonzero(keep != previous.kept)[0]
    dropped, added = changed[~keep[changed]], changed[keep[changed]]
    a, b = pairs.i[dropped], pairs.j[dropped]
    split = np.zeros(n_prev, dtype=bool)
    if a.shape[0]:
        points = pairs.index.points
        k = min(16, len(pairs.index))
        near = pairs.index.query_knn(points[a], k)[0].ravel()
        a_k, b_k = np.repeat(a, k), np.repeat(b, k)
        eps2 = pairs.eps * pairs.eps
        bridged = (_links(points, scaled, eps2, a_k, near)
                   & _links(points, scaled, eps2, b_k, near)
                   ).reshape(-1, k).any(axis=1)
        split[comp[a[~bridged]]] = True
    node, n_node = comp, n_prev
    if split.any():
        loose = split[comp]
        # the pairs whose i is loose, in order: those holding its links
        ids = np.nonzero(loose)[0]
        start = np.searchsorted(pairs.i, ids)
        count = np.searchsorted(pairs.i, ids, side="right") - start
        rows = (np.repeat(start - np.cumsum(count) + count, count)
                + np.arange(count.sum()))
        rows = rows[keep[rows]]
        n_loose, sub = _components_among(loose, pairs.i[rows], pairs.j[rows])
        rank = np.cumsum(~split) - 1
        node = rank[comp]
        node[loose] = rank[-1] + 1 + sub
        n_node = int(rank[-1]) + 1 + n_loose
    ni, nj = node[pairs.i[added]], node[pairs.j[added]]
    cross = np.nonzero(ni != nj)[0]
    if not cross.shape[0]:
        return n_node, node
    cross = cross[np.argsort(ni[cross], kind="stable")]
    n_comp, labels = _components(n_node, ni[cross], nj[cross])
    return n_comp, labels[node]


def cluster(p_t, flow, *, pairs: PairList, fit=None,
            previous: Clustering = None) -> Clustering:
    """Segment a cloud by density connectivity over position+scaled-flow features.

    The flow is scaled by ``LAMBDA_FLOW``.  ``pairs`` is the cloud's
    :func:`pair_list`; its radius ``eps = pairs.eps`` is the link radius.
    Each pair's feature distance adds the three scaled flow differences to
    its 3-D ``d2`` in the tree's order, so the pairs kept are exactly those
    a 6-D ``query_pairs(eps)`` finds.  Returns a :class:`Clustering`.

    ``fit`` is the :class:`~flowseg.flow.ClusterFit` of the
    :func:`~flowseg.flow.refine_flow` call that made ``flow``.  A pair within
    one fitted cluster whose rigid motion bounds its feature distance below
    ``eps`` with room for rounding is kept without the exact sum; every
    other pair, and every pair when ``fit`` is omitted, is summed exactly.
    The labels are the same either way.

    Without ``previous`` one components call solves the kept pairs.
    ``previous`` is the last call's result on the same ``pairs`` (another
    list raises ``MaskMismatch``); its components are carried, and the
    labels equal a call without it.  Proof: a pair that links now and
    linked before lies in one previous component, which holds every link
    among its points.  A pair that linked before and does not now, (a, b),
    is bridged when a point c among a's 16 nearest links to both a and b
    by the same exact sum, its 3-D part summed from zero as
    :func:`pair_list` sums ``d2``.  Such a link's 3-D part is at most its
    full sum, so at most eps², so the list holds the pair, and the test
    above, making the same sum, keeps it.  A previous component whose
    every such pair is bridged is still connected, each old link holding
    or replaced by a two-link path, and stays one node.  Every other
    previous component is re-solved point by point, in one components
    call over the kept pairs among those points.  Any other kept pair
    either lies inside one node or did not link before; those joining two
    nodes go to one components call over the nodes, skipped when there
    are none.  So the nodes' components are the components of the kept
    pairs.  What follows reads them only as a partition (sizes, members,
    each point's component), so the mask is the same.

    Components smaller than ``MIN_PTS`` are merged into the large component
    whose nearest point (in feature space) is closest; ties go to the lowest
    point id.  All open small-component points are searched together, one
    ``pairs.index.query_knn`` call per round with k = 16, 64, 256, ... capped
    at N; a component's candidates are the large-component points among its
    members' k nearest.  It settles when its best feature distance is below
    the smallest k-th 3-D distance among its members by ``TOL``, or when k =
    N: a point outside every member's k nearest is at least that far in 3-D,
    so in feature space too, and cannot be nearer or tie.
    Output labels are compacted to 0..K-1 in first-appearance order.
    """
    _check_aligned(p_t, flow=flow, pairs=pairs.index)
    if previous is not None and previous.pairs is not pairs:
        raise MaskMismatch("previous clustering is of another pair list")
    eps = pairs.eps
    scaled = LAMBDA_FLOW * flow.vectors
    keep = _proven(p_t, pairs, fit)
    rest = np.nonzero(~keep)[0]
    keep[rest] = _add_squares(pairs.d2[rest], scaled, pairs.i[rest],
                              pairs.j[rest]) <= eps * eps
    if previous is None:
        n_comp, raw = _components(len(p_t), pairs.i[keep], pairs.j[keep])
    else:
        n_comp, raw = _carry(pairs, scaled, keep, previous)
    sizes = np.bincount(raw, minlength=n_comp)
    large = sizes >= MIN_PTS
    if not large.any():
        large = sizes == sizes.max()
    into = np.arange(n_comp, dtype=raw.dtype)
    if not large.all():
        merging = ~large
        rows = np.nonzero(merging[raw])[0]
        n, k = len(p_t), 16
        while rows.shape[0]:
            k = min(k, n)
            near, dist = pairs.index.query_knn(p_t.points[rows], k)
            owner = raw[rows]
            reach = np.full(n_comp, np.inf)
            np.minimum.at(reach, owner, dist[:, -1])
            r, c = np.nonzero(large[raw[near]])
            comp, cand = owner[r], near[r, c]
            a = rows[r]
            # the six differences in feature order, summed as one row each
            diff = np.hstack([p_t.points[a] - p_t.points[cand],
                              scaled[a] - scaled[cand]])
            d2 = (diff ** 2).sum(axis=1)
            # per component the smallest d2, ties to the lowest point id
            order = np.lexsort((cand, d2, comp))
            best = order[np.nonzero(np.diff(comp[order], prepend=-1))[0]]
            best = best[(d2[best] + TOL < reach[comp[best]] ** 2) | (k == n)]
            into[comp[best]] = raw[cand[best]]
            merging[comp[best]] = False
            rows = rows[merging[owner]]
            k *= 4
    return Clustering(SegmentationMask(_compact(into[raw])), keep, raw, pairs)


def cluster_stats(p_t, flow, mask: SegmentationMask, dt: float):
    """Per-cluster size, mean speed (mean flow norm / dt), and centroid."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    _check_aligned(p_t, mask=mask, flow=flow)
    out = []
    for k, ids in enumerate(members(mask.labels)):
        speeds = np.linalg.norm(flow.vectors[ids], axis=1)
        out.append(ClusterStats(cluster_id=k, size=ids.shape[0],
                                mean_speed=float(speeds.mean() / dt),
                                centroid=p_t.points[ids].mean(axis=0)))
    return out


@dataclass(frozen=True)
class StaticSet:
    """The static cluster ``ids`` :func:`classify` picked; the ``strategy``
    that picked them, ``quantity`` or ``velocity``; and ``fallback``, set
    when the velocity rule found none and the largest was taken."""

    ids: frozenset
    strategy: str
    fallback: bool


def classify(mask: SegmentationMask, cfg: ClassifierConfig,
             velocities) -> StaticSet:
    """Pick the static clusters of ``mask`` by the rule ``cfg.strategy`` names.

    ``auto`` takes the velocity rule when the normalized variance of the
    cluster sizes, in float64, is below ``SIZE_VARIANCE_THRESHOLD``, and the
    quantity rule otherwise.  ``quantity``: the single largest cluster is
    static, ties to the lowest id.  ``velocity``: ``velocities()`` is called
    once for ``(stats, v_ego)``, the :func:`cluster_stats` of the mask in id
    order and the ego speed, and every cluster whose mean speed is within
    ``theta`` of ``v_ego`` is static; when none is, the largest cluster is,
    with ``fallback`` set.  So a caller can leave that work until the
    velocity rule is tried.
    """
    sizes = mask.cluster_sizes()
    strategy = cfg.strategy
    if strategy == "auto":
        spread = sizes.astype(np.float64)
        strategy = ("velocity" if spread.var() / spread.mean() ** 2
                    < SIZE_VARIANCE_THRESHOLD else "quantity")
    largest = frozenset({int(np.argmax(sizes))})
    if strategy == "quantity":
        return StaticSet(largest, "quantity", False)
    stats, v_ego = velocities()
    ids = frozenset(s.cluster_id for s in stats
                    if abs(s.mean_speed - v_ego) < cfg.theta)
    if ids:
        return StaticSet(ids, "velocity", False)
    return StaticSet(largest, "quantity", True)


def relabel_static_first(mask: SegmentationMask, static_ids) -> SegmentationMask:
    """Canonical form: static clusters merged into id 0, dynamic clusters
    renumbered 1..K'-1 by descending size (ties by original id)."""
    ids = set(int(k) for k in static_ids)
    if not ids:
        raise ValueError("static_ids must be non-empty")
    existing = set(range(mask.n_clusters))
    unknown = ids - existing
    if unknown:
        raise UnknownClusterId(f"unknown cluster ids {sorted(unknown)}")
    sizes = mask.cluster_sizes()
    dynamic = sorted(existing - ids, key=lambda k: (-sizes[k], k))
    remap = np.zeros(mask.n_clusters, dtype=np.int64)
    for new_id, k in enumerate(dynamic, start=1):
        remap[k] = new_id
    return SegmentationMask(remap[mask.labels])
