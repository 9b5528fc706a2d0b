"""The mutual-promotion loop: alternate flow refinement and segmentation.

Each iteration rigidifies the flow per current cluster, re-clusters on the
refined flow, classifies static vs. dynamic, and measures how much the state
moved (delta_total = alpha * flow RMS change + beta * aligned mask change).
The loop stops when delta_total drops below epsilon or the iteration cap is
hit, and the whole history is kept in a ConvergenceReport.  The loss history
and the final transforms, which no decision reads, are computed on first
read by a LossHistory.
"""
from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import geometry, losses
from .errors import DegenerateInput, LengthMismatch, NoStaticCluster
from .flow import FlowField, apply_fit, fit_transforms, init_flow, refine_flow
from .geometry import weighted_kabsch
from .losses import LossBreakdown, total_loss
from .segment import (CLUSTER_EPS, MIN_PTS, ClassifierConfig, PairList,
                      SegmentationMask, _check_eps, _components, classify,
                      cluster, cluster_stats, members, pair_list,
                      relabel_static_first, resolve_strategy)

__all__ = [
    "IterationConfig",
    "LossHistory",
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

# cloud size (points in frame t) from which run() hands init_flow to a helper
# thread while it builds the pair list; below it the hand-off over the
# interpreter lock costs more than the overlap saves
OVERLAP_MIN_POINTS = 8192


@dataclass(frozen=True)
class IterationConfig:
    """The loop's settings: convergence weights and threshold, iteration
    cap, and the static/dynamic classification rule."""

    alpha: float = 1.0
    beta: float = 1.0
    epsilon: float = 1e-3
    max_iters: int = 20
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)

    def __post_init__(self) -> None:
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if self.alpha == 0 and self.beta == 0:
            raise ValueError("alpha and beta cannot both be zero")


def _narrow(labels: np.ndarray) -> np.ndarray:
    """Labels in the narrowest unsigned integer dtype that holds them."""
    return labels.astype(np.min_scalar_type(int(labels.max())))


class LossHistory:
    """The loss breakdown of every iteration of one :func:`run` and the final
    per-cluster transforms, computed together on first read.

    ``run`` keeps only what that needs: init_flow's flow, the initial mask's
    labels and, per iteration, the transforms and degenerate ids
    ``refine_flow`` returned, the canonical labels in the narrowest integer
    dtype and the sum of the match distances (the Chamfer forward half).  So
    an unread history holds one flow field and about N bytes per iteration.
    The first read of :attr:`losses` or :attr:`transforms` replays the
    iterations once, under a lock: it rebuilds each flow with
    :func:`~flowseg.flow.apply_fit`, runs the carried Chamfer term,
    ``fit_transforms`` and ``total_loss``, and then drops the kept state.
    An exception from that work is raised by the read, and by every later
    read, which replays again.  Pickling or copying reads first and carries
    only the values, so a worker process does the work, not its parent.
    """

    def __init__(self, p_t, p_t1, flow: FlowField, labels: np.ndarray) -> None:
        self._lock = threading.Lock()
        self._values = None
        self._state = (p_t, p_t1, flow, _narrow(labels), [])

    def add(self, transforms, degenerate, labels: np.ndarray,
            forward: float) -> None:
        """Keep one iteration: its fit, its canonical labels and the sum of
        its match distances."""
        self._state[4].append((transforms, degenerate, _narrow(labels), forward))

    @property
    def losses(self) -> tuple:
        """One :class:`~flowseg.losses.LossBreakdown` per iteration."""
        return self._read()[0]

    @property
    def transforms(self) -> tuple:
        """The final mask's per-cluster rigid fit of the final flow."""
        return self._read()[1]

    def _read(self):
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
        chamfer = None
        breakdowns = []
        for transforms, degenerate, labels, forward in steps:
            flow = apply_fit(p_t, members(fit_labels), flow, transforms,
                             degenerate)
            # looked up at call time, so perfbench's tracer sees all three
            chamfer = losses.chamfer_loss(p_t, flow, p_t1, forward, chamfer)
            mask = SegmentationMask(labels)
            fitted, _ = fit_transforms(p_t, flow, mask)
            breakdowns.append(total_loss(p_t, flow, mask, fitted, chamfer.value))
            fit_labels = labels
        return tuple(breakdowns), tuple(fitted)

    def __getstate__(self):
        return self._read()

    def __setstate__(self, values) -> None:
        self._lock = threading.Lock()
        self._values = values
        self._state = None


@dataclass(frozen=True, repr=False)
class IterationRecord:
    """State-change and quality measurements for one loop iteration.

    ``losses`` is read from the run's :class:`LossHistory`.
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
    history: LossHistory = field(compare=False)

    @property
    def losses(self) -> LossBreakdown:
        return self.history.losses[self.iteration - 1]

    def __repr__(self) -> str:
        # the losses after delta_total, so a report's repr compares equal
        # with those of releases that stored them as a field
        shown = [(f.name, getattr(self, f.name)) for f in fields(self)
                 if f.name != "history"]
        shown.insert(4, ("losses", self.losses))
        return f"IterationRecord({', '.join(f'{k}={v!r}' for k, v in shown)})"


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

    ``transforms`` is read from ``history``, the run's :class:`LossHistory`.
    """

    flow: FlowField
    mask: SegmentationMask
    stats: tuple
    report: ConvergenceReport
    history: LossHistory = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.mask) != len(self.flow):
            raise ValueError("flow and mask must cover the same points")
        if len(self.stats) != self.mask.n_clusters:
            raise ValueError("one stats record per cluster required")

    @property
    def transforms(self) -> tuple:
        """One rigid transform per cluster of the mask, fitted to the flow."""
        return self.history.transforms


def flow_delta(curr: FlowField, prev: FlowField) -> float:
    """RMS over points of the per-point flow difference norm."""
    if len(curr) != len(prev):
        raise LengthMismatch(f"flow fields differ in length: {len(curr)} vs {len(prev)}")
    diff = curr.vectors - prev.vectors
    return float(np.sqrt((diff ** 2).sum(axis=1).mean()))


def mask_delta(curr: SegmentationMask, prev: SegmentationMask) -> float:
    """Fraction of points whose cluster changed, after aligning labels.

    Clusters are matched by greedy maximum overlap (ties by lowest current,
    then lowest previous id), so a pure relabeling scores 0.  Points in
    unmatched clusters count as changed.
    """
    if len(curr) != len(prev):
        raise LengthMismatch(f"masks differ in length: {len(curr)} vs {len(prev)}")
    n = len(curr)
    k_curr = curr.n_clusters
    k_prev = prev.n_clusters
    counts = np.bincount(curr.labels * k_prev + prev.labels,
                         minlength=k_curr * k_prev).reshape(k_curr, k_prev)
    order = sorted(
        ((-int(counts[c, p]), c, p)
         for c in range(k_curr) for p in range(k_prev) if counts[c, p] > 0))
    used_curr, used_prev = set(), set()
    matched = 0
    for neg_overlap, c, p in order:
        if c in used_curr or p in used_prev:
            continue
        used_curr.add(c)
        used_prev.add(p)
        matched += -neg_overlap
    return float(1.0 - matched / n)


def initial_mask(p_t, flow: FlowField, pairs: PairList = None) -> SegmentationMask:
    """Preliminary mask: points that a single global rigid fit cannot explain.

    Fits one transform to the whole flow field; points with residual above
    ``R_STATIC`` are candidate dynamic points and get clustered spatially,
    linked by the pairs of ``pairs`` (the cloud's ``pair_list``, built here
    when omitted) whose two ends are both candidates.  Candidate components
    smaller than ``MIN_PTS`` return to the static set.
    """
    src = p_t.points
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
    if pairs is None:
        pairs = pair_list(p_t)
    _check_eps(pairs, CLUSTER_EPS)
    keep = candidate[pairs.i] & candidate[pairs.j]
    # each point's position among the candidates keeps i ascending
    position = (np.cumsum(candidate) - 1).astype(np.int32)
    _, comp = _components(candidates.shape[0], position[pairs.i[keep]],
                          position[pairs.j[keep]])
    next_id = 1
    for ids in members(comp):
        if ids.shape[0] >= MIN_PTS:
            labels[candidates[ids]] = next_id
            next_id += 1
    if not (labels == 0).any():
        labels -= 1
    return SegmentationMask(labels)


def _estimate_v_ego(p_t, flow: FlowField, mask_prev: SegmentationMask,
                    iteration: int, dt: float) -> float:
    """Ego speed from a global rigid fit over the working static set.

    Iteration 1 has no trusted static set yet and fits over all points;
    later iterations use the previous canonical mask's cluster 0.
    """
    if iteration == 1:
        pts = p_t.points
        vec = flow.vectors
    else:
        sel = mask_prev.labels == 0
        pts = p_t.points[sel]
        vec = flow.vectors[sel]
    try:
        t = weighted_kabsch(pts, pts + vec)
    except DegenerateInput:
        return 0.0
    return float(np.linalg.norm(t.translation) / dt)


def run(p_t, p_t1, cfg: IterationConfig = None) -> SemanticSceneFlow:
    """Alternate refine_flow and cluster until delta_total < epsilon.

    Iteration 1 starts from init_flow and the residual-gated initial mask;
    every iteration ends with a canonical mask (static cluster 0).  A
    NoStaticCluster from the velocity rule falls back to the quantity rule
    and is recorded, never fatal.  Output is fully deterministic.

    Each pair's neighbour searches are made once and carried along:

    - frame t+1 is indexed once;
    - frame t's ``pair_list`` is built once and serves ``initial_mask`` and
      every ``cluster`` call, each of which also takes the fit behind its
      flow to skip the pair tests that fit proves;
    - every match against the frame-t+1 index goes through
      ``SpatialIndex.match`` with the one before it, starting from
      init_flow's forward search, so only rows whose nearest point is not
      certified unchanged are searched.  Each iteration's match gives the
      next iteration's correspondences and the sum its Chamfer term needs.

    The loop does only the work its decisions read.  The loss history and
    the final transforms are left to the result's :class:`LossHistory`,
    computed on first read of ``record.losses`` or ``transforms``; an
    exception in that work is raised by the read, not here.  From
    ``OVERLAP_MIN_POINTS`` points on, one helper thread runs init_flow while
    this thread builds the pair list; it lives only until then.  Smaller
    clouds run both here, with the same result bit for bit.
    """
    if cfg is None:
        cfg = IterationConfig()
    # looked up on the module at call time, so a substituted index class
    # (perfbench's tracer) also sees this index and its queries
    index_t1 = geometry.SpatialIndex(p_t1.points)
    if len(p_t) >= OVERLAP_MIN_POINTS:
        with ThreadPoolExecutor(max_workers=1) as helper:
            start = helper.submit(init_flow, p_t, index_t1)
            pairs = pair_list(p_t)
            flow_prev, diag, match = start.result()
    else:
        flow_prev, diag, match = init_flow(p_t, index_t1)
        pairs = pair_list(p_t)
    mask_prev = initial_mask(p_t, flow_prev, pairs)
    history = LossHistory(p_t, p_t1, flow_prev, mask_prev.labels)
    match = index_t1.match(p_t.points + flow_prev.vectors, match)
    records = []
    converged = False
    for i in range(1, cfg.max_iters + 1):
        flow_i, transforms, degenerate = refine_flow(
            p_t, p_t1.points[match.ids], mask_prev, flow_prev)
        match = index_t1.match(p_t.points + flow_i.vectors, match)
        raw_mask = cluster(p_t, flow_i, pairs=pairs,
                           fit=(mask_prev.labels, transforms, degenerate))
        raw_stats = cluster_stats(p_t, flow_i, raw_mask, cfg.classifier.dt)
        v_ego = _estimate_v_ego(p_t, flow_i, mask_prev, i, cfg.classifier.dt)
        strategy = resolve_strategy(raw_stats, cfg.classifier)
        fallback = False
        try:
            static_ids, _ = classify(raw_stats, v_ego,
                                     replace(cfg.classifier, strategy=strategy))
        except NoStaticCluster:
            strategy = "quantity"
            fallback = True
            static_ids, _ = classify(raw_stats, v_ego,
                                     replace(cfg.classifier, strategy="quantity"))
        mask_i = relabel_static_first(raw_mask, static_ids)
        fd = flow_delta(flow_i, flow_prev)
        md = mask_delta(mask_i, mask_prev)
        d_total = cfg.alpha * fd + cfg.beta * md
        history.add(transforms, degenerate, mask_i.labels, match.distances.sum())
        records.append(IterationRecord(
            iteration=i, flow_delta=fd, mask_delta=md, delta_total=d_total,
            n_clusters=mask_i.n_clusters, strategy=strategy,
            static_fallback=fallback, degenerate_clusters=len(degenerate),
            v_ego=v_ego, history=history))
        flow_prev, mask_prev = flow_i, mask_i
        if d_total < cfg.epsilon:
            converged = True
            break
    stats = tuple(cluster_stats(p_t, flow_prev, mask_prev, cfg.classifier.dt))
    report = ConvergenceReport(
        alpha=cfg.alpha, beta=cfg.beta, epsilon=cfg.epsilon,
        records=tuple(records), converged=converged,
        n_unreliable=diag.n_unreliable, n_disoccluded=diag.n_disoccluded)
    return SemanticSceneFlow(flow=flow_prev, mask=mask_prev, stats=stats,
                             report=report, history=history)
