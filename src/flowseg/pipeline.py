"""The mutual-promotion loop: alternate flow refinement and segmentation.

Each iteration rigidifies the flow per current cluster, re-clusters on the
refined flow, classifies static vs. dynamic, and measures how much the state
moved (delta_total = alpha * flow RMS change + beta * aligned mask change).
The loop stops when delta_total drops below epsilon or the iteration cap is
hit, and the whole history is kept in a ConvergenceReport.  Each iteration's
ego speed is the speed of refine_flow's cluster-0 fit, set in the loop; the
loss history and the final transforms are computed on first read by the
result's LossHistory, which the records do not reference.
"""
from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import geometry, losses
from .errors import DegenerateInput, LengthMismatch
from .flow import ClusterFit, FlowField, fit_transforms, init_flow, refine_flow
from .geometry import _check_aligned, weighted_kabsch
from .losses import total_loss
from .segment import (MIN_PTS, STRATEGIES, PairList, SegmentationMask,
                      _components_among, classify, cluster, cluster_stats,
                      pair_list)

__all__ = [
    "IterationConfig",
    "IterationRecord",
    "ConvergenceReport",
    "SemanticSceneFlow",
    "flow_delta",
    "mask_delta",
    "initial_mask",
    "run",
]

# global-fit residual (m) above which initial_mask may take a point as dynamic
R_STATIC = 0.3

# cloud size (points in frame t) from which run() hands init_flow and every
# match against frame t+1 to a helper thread; below it the hand-off over the
# interpreter lock costs more than the overlap saves
OVERLAP_MIN_POINTS = 8192


@dataclass(frozen=True)
class IterationConfig:
    """The loop's settings, each defined here once.

    ``alpha`` and ``beta`` weigh the flow and mask change in
    ``delta_total``; ``epsilon`` is the convergence threshold on it and
    ``max_iters`` the iteration cap.  ``theta`` is the velocity rule's
    ego-velocity tolerance (m/s), ``dt`` the frame interval (s) that turns
    flow into velocity, and ``strategy`` the static-cluster rule
    :func:`~flowseg.segment.classify` applies, one of ``STRATEGIES``.
    """

    alpha: float = 1.0
    beta: float = 1.0
    epsilon: float = 1e-3
    max_iters: int = 20
    theta: float = 1.0
    dt: float = 0.1
    strategy: str = "auto"

    def __post_init__(self) -> None:
        for name in ("epsilon", "theta", "dt"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if (isinstance(self.max_iters, bool)
                or not isinstance(self.max_iters, (int, np.integer))
                or self.max_iters < 1):
            raise ValueError(f"max_iters must be an integer of at least 1, "
                             f"got {self.max_iters!r}")
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if self.alpha == 0 and self.beta == 0:
            raise ValueError("alpha and beta cannot both be zero")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")


class LossHistory:
    """The loss breakdown of every iteration of one :func:`run` and the
    final per-cluster transforms, computed together on first read.

    ``run`` keeps only what that needs: init_flow's flow, the initial mask's
    labels and, per iteration, the transforms and degenerate ids of the
    :class:`~flowseg.flow.ClusterFit` ``refine_flow`` returned (its mask is
    the labels kept before it), the canonical mask's labels and the sum of
    the match distances (the Chamfer forward half).  So an unread history
    holds one flow field and about N bytes per iteration.  The first
    :meth:`_read`, by the result's ``losses`` or ``transforms``, replays the
    iterations once, under a lock: it rebuilds each fit and its flow with
    ``ClusterFit.apply``, runs the carried Chamfer term, ``fit_transforms``
    and ``total_loss``, and then drops the kept state.
    An exception from that work is raised by the read, and by every later
    read, which replays again.  Pickling or copying reads first and carries
    only the values, so a worker process does the work, not its parent.
    """

    def __init__(self, p_t, p_t1, flow: FlowField, labels: np.ndarray) -> None:
        self._lock = threading.Lock()
        self._values = None
        self._state = (p_t, p_t1, flow, labels, [])

    def add(self, fit: ClusterFit, labels: np.ndarray, forward: float) -> None:
        """Keep one iteration: its fit, its canonical labels and the sum of
        its match distances."""
        self._state[4].append((fit.transforms, fit.degenerate, labels, forward))

    def _read(self):
        """The loss breakdowns, one per iteration, and the final transforms."""
        values = self._values
        if values is None:
            with self._lock:
                if self._values is None:
                    self._values = self._replay()
                    self._state = None
                values = self._values
        return values

    def _replay(self):
        p_t, p_t1, flow, fit_labels, steps = self._state
        mask_prev = SegmentationMask(fit_labels)
        chamfer = None
        breakdowns = []
        for transforms, degenerate, labels, forward in steps:
            flow = ClusterFit(mask_prev, transforms, degenerate).apply(p_t, flow)
            # looked up at call time, so perfbench's tracer sees all three
            chamfer = losses.chamfer_loss(p_t, flow, p_t1, forward, chamfer)
            mask = SegmentationMask(labels)
            fitted = fit_transforms(p_t, flow, mask)
            breakdowns.append(total_loss(p_t, flow, fitted, chamfer.value))
            mask_prev = mask
        return tuple(breakdowns), fitted.transforms

    def __getstate__(self):
        return self._read()

    def __setstate__(self, values) -> None:
        self._lock = threading.Lock()
        self._values = values
        self._state = None


@dataclass(frozen=True)
class IterationRecord:
    """State-change and quality measurements for one loop iteration.

    ``v_ego`` is the ego speed (m/s), set in the loop: the length of the
    translation of ``refine_flow``'s cluster-0 fit over ``dt``, 0.0 when
    that cluster is degenerate (its fit is the identity).  That cluster is
    the previous canonical mask's static cluster; in iteration 1 it is the
    initial mask's cluster 0, a candidate component when ``initial_mask``
    flags every point.  The record holds measured values only: its loss
    breakdown is ``SemanticSceneFlow.losses[iteration - 1]``.
    """

    iteration: int
    flow_delta: float
    mask_delta: float
    delta_total: float
    n_clusters: int
    strategy: str
    static_fallback: bool
    degenerate_clusters: int
    v_ego: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Full per-iteration history of one pipeline run."""

    alpha: float
    beta: float
    epsilon: float
    records: tuple
    converged: bool
    n_unreliable: int
    n_disoccluded: int

    def __post_init__(self) -> None:
        for rec in self.records:
            expect = self.alpha * rec.flow_delta + self.beta * rec.mask_delta
            if abs(rec.delta_total - expect) > 1e-12:
                raise ValueError(
                    f"iteration {rec.iteration}: delta_total {rec.delta_total} "
                    f"!= alpha*flow + beta*mask = {expect}")

    @property
    def n_iterations(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class SemanticSceneFlow:
    """Pipeline output: flow + canonical mask + per-cluster transforms/stats.

    ``losses`` and ``transforms`` are read from ``history``, the run's
    :class:`LossHistory`, which computes both on the first read of either;
    ``==`` and ``repr`` leave it out, so neither computes them.
    """

    flow: FlowField
    mask: SegmentationMask
    stats: tuple
    report: ConvergenceReport
    history: LossHistory = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_aligned(self.flow, "flow", mask=self.mask)
        if len(self.stats) != self.mask.n_clusters:
            raise LengthMismatch(f"got {len(self.stats)} stats records for "
                                 f"{self.mask.n_clusters} clusters")

    @property
    def losses(self) -> tuple:
        """One :class:`~flowseg.losses.LossBreakdown` per record of the report."""
        return self.history._read()[0]

    @property
    def transforms(self) -> tuple:
        """One rigid transform per cluster of the mask, fitted to the flow."""
        return self.history._read()[1]


def flow_delta(curr: FlowField, prev: FlowField) -> float:
    """RMS over points of the per-point flow difference norm."""
    _check_aligned(prev, "prev", curr=curr)
    diff = curr.vectors - prev.vectors
    return float(np.sqrt((diff ** 2).sum(axis=1).mean()))


def mask_delta(curr: SegmentationMask, prev: SegmentationMask) -> float:
    """Fraction of points whose cluster changed, after aligning labels.

    Clusters are matched by greedy maximum overlap (ties by lowest current,
    then lowest previous id), so a pure relabeling scores 0.  Points in
    unmatched clusters count as changed.
    """
    _check_aligned(prev, "prev", curr=curr)
    counts = curr.overlaps(prev)
    order = sorted(
        ((-int(counts[c, p]), c, p)
         for c, p in zip(*np.nonzero(counts))))
    used_curr, used_prev = set(), set()
    matched = 0
    for neg_overlap, c, p in order:
        if c in used_curr or p in used_prev:
            continue
        used_curr.add(c)
        used_prev.add(p)
        matched += -neg_overlap
    return float(1.0 - matched / len(curr))


def initial_mask(flow: FlowField, pairs: PairList) -> SegmentationMask:
    """Preliminary mask: points that a single global rigid fit cannot explain.

    ``pairs`` is the cloud's ``pair_list``: the cloud is the points
    ``pairs.index`` holds, which ``flow`` must cover (``LengthMismatch``
    otherwise), and its radius is the link radius.  Fits one transform to
    the whole flow field; points with residual above ``R_STATIC`` are
    candidate dynamic points and get clustered spatially, linked by the
    pairs whose two ends are both candidates.  Candidate components smaller
    than ``MIN_PTS`` return to the static set.
    """
    _check_aligned(pairs.index, flow=flow)
    src = pairs.index.points
    n = src.shape[0]
    labels = np.zeros(n, dtype=np.int64)
    try:
        t = weighted_kabsch(src, src + flow.vectors)
    except DegenerateInput:
        return SegmentationMask(labels)
    residual = np.linalg.norm(t.apply(src) - (src + flow.vectors), axis=1)
    candidate = residual > R_STATIC
    candidates = np.nonzero(candidate)[0]
    if candidates.shape[0] == 0:
        return SegmentationMask(labels)
    _, comp = _components_among(candidate, pairs.i, pairs.j)
    kept = np.bincount(comp) >= MIN_PTS
    labels[candidates] = (np.cumsum(kept) * kept)[comp]
    if not (labels == 0).any():
        labels -= 1
    return SegmentationMask(labels)


def _later(helper, fn, *args):
    """Start ``fn(*args)`` on ``helper``, a one-thread executor, or with no
    helper run it here and now.  The callable returned gives its result or
    raises its exception."""
    if helper is None:
        value = fn(*args)
        return lambda: value
    return helper.submit(fn, *args).result


def run(p_t, p_t1, cfg: IterationConfig = None) -> SemanticSceneFlow:
    """Alternate refine_flow and cluster until delta_total < epsilon.

    Iteration 1 starts from init_flow and the residual-gated initial mask;
    every iteration ends with the canonical mask (static cluster 0) that
    :func:`~flowseg.segment.classify` gives.  Output is fully
    deterministic.

    Each pair's neighbour searches are made once and carried along:

    - each frame is indexed once here, and init_flow searches both
      indexes; its median fill indexes frame t's reliable points once more
      when any row is unreliable;
    - frame t's ``pair_list`` is found once in its index and serves, as the
      cloud and its pairs, ``initial_mask`` and every ``cluster`` call, each
      of which also takes the fit behind its flow to skip the pair tests
      that fit proves, and the last call's
      :class:`~flowseg.segment.Clustering` to keep each of its components
      whole unless it lost a link that no common neighbour bridges;
    - every match against the frame-t+1 index goes through
      ``SpatialIndex.match`` with the one before it, starting from
      init_flow's forward search, so only rows whose nearest point is not
      certified unchanged are searched.  Each iteration's match gives the
      next iteration's correspondences and the sum its Chamfer term needs.

    The loop waits only on what its next decision reads: ``refine_flow``,
    ``cluster`` (given the fit and the last clustering), ``classify``, the
    deltas and the next match.  Each iteration's ego speed is read off
    ``refine_flow``'s cluster-0 fit, the working static set's (see
    :class:`IterationRecord`), with no fit of its own.  ``classify`` asks
    for the cluster statistics only when it tries the velocity rule, so only
    then does the loop compute them.  The loss history and the final
    transforms are left to the result's :class:`LossHistory`, computed on
    first read of ``losses`` or ``transforms``; an exception in that
    work is raised by the read, not here.  From ``OVERLAP_MIN_POINTS``
    points on, one helper thread lives for the call: it runs init_flow while
    this thread finds the pair list, then makes each match while this
    thread runs the initial mask or ``cluster``, the classification and the
    deltas; this thread joins each match before it records the iteration.
    An exception on the helper is raised here, and the helper ends before
    ``run`` returns or raises.  Smaller clouds make every step here, with
    the same result bit for bit.
    """
    if cfg is None:
        cfg = IterationConfig()
    dt = cfg.dt
    # looked up on the module at call time, so a substituted index class
    # (perfbench's tracer) also sees these indexes and their queries
    index_t1 = geometry.SpatialIndex(p_t1.points)
    index_t = geometry.SpatialIndex(p_t.points)
    threaded = len(p_t) >= OVERLAP_MIN_POINTS
    with ThreadPoolExecutor(max_workers=1) if threaded else nullcontext() as helper:
        started = _later(helper, init_flow, index_t, index_t1)
        pairs = pair_list(index_t)
        init = started()
        flow_prev = init.flow
        matched = _later(helper, index_t1.match,
                         p_t.points + flow_prev.vectors, init.forward)
        mask_prev = initial_mask(flow_prev, pairs)
        history = LossHistory(p_t, p_t1, flow_prev, mask_prev.labels)
        match = matched()
        records = []
        converged = False
        clustering = None
        for i in range(1, cfg.max_iters + 1):
            flow_i, fit = refine_flow(p_t, p_t1.points[match.ids], mask_prev,
                                      flow_prev)
            # a degenerate cluster 0 holds the identity: 0.0
            v_ego = float(np.linalg.norm(fit.transforms[0].translation) / dt)
            matched = _later(helper, index_t1.match,
                             p_t.points + flow_i.vectors, match)
            clustering = cluster(flow_i, pairs=pairs, fit=fit,
                                 previous=clustering)
            static = classify(clustering.mask, cfg, lambda: (
                cluster_stats(p_t, flow_i, clustering.mask, dt), v_ego))
            mask_i = static.mask
            fd = flow_delta(flow_i, flow_prev)
            md = mask_delta(mask_i, mask_prev)
            d_total = cfg.alpha * fd + cfg.beta * md
            match = matched()
            history.add(fit, mask_i.labels, match.distances.sum())
            records.append(IterationRecord(
                iteration=i, flow_delta=fd, mask_delta=md, delta_total=d_total,
                n_clusters=mask_i.n_clusters, strategy=static.strategy,
                static_fallback=static.fallback,
                degenerate_clusters=len(fit.degenerate), v_ego=v_ego))
            flow_prev, mask_prev = flow_i, mask_i
            if d_total < cfg.epsilon:
                converged = True
                break
    stats = tuple(cluster_stats(p_t, flow_prev, mask_prev, dt))
    report = ConvergenceReport(
        alpha=cfg.alpha, beta=cfg.beta, epsilon=cfg.epsilon,
        records=tuple(records), converged=converged,
        n_unreliable=int(init.unreliable.sum()),
        n_disoccluded=int(init.disoccluded.sum()))
    return SemanticSceneFlow(flow=flow_prev, mask=mask_prev, stats=stats,
                             report=report, history=history)
