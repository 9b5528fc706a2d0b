"""The mutual-promotion loop: alternate flow refinement and segmentation.

Each iteration rigidifies the flow per current cluster, re-clusters on the
refined flow, classifies static vs. dynamic, and measures how much the state
moved (delta_total = alpha * flow RMS change + beta * aligned mask change).
The loop stops when delta_total drops below epsilon or the iteration cap is
hit, and the whole history is kept in a ConvergenceReport.
"""
from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry, losses
from .errors import DegenerateInput, LengthMismatch, NoStaticCluster
from .flow import FlowField, InitFlowDiagnostics, fit_transforms, init_flow, refine_flow
from .geometry import weighted_kabsch
from .losses import LossBreakdown, total_loss
from .segment import (CLUSTER_EPS, MIN_PTS, ClassifierConfig, PairList,
                      SegmentationMask, _check_eps, _components, classify,
                      cluster, cluster_stats, members, pair_list,
                      relabel_static_first, resolve_strategy)

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

# cloud size (points in frame t) from which run() hands init_flow and each
# iteration's loss jobs to a helper thread; below it the hand-off over the
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


@dataclass(frozen=True)
class IterationRecord:
    """State-change and quality measurements for one loop iteration."""

    iteration: int
    flow_delta: float
    mask_delta: float
    delta_total: float
    losses: LossBreakdown
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
    """Pipeline output: flow + canonical mask + per-cluster transforms/stats."""

    flow: FlowField
    mask: SegmentationMask
    transforms: tuple
    stats: tuple
    report: ConvergenceReport

    def __post_init__(self) -> None:
        if len(self.mask) != len(self.flow):
            raise ValueError("flow and mask must cover the same points")
        if len(self.transforms) != self.mask.n_clusters:
            raise ValueError("one transform per cluster required")
        if len(self.stats) != self.mask.n_clusters:
            raise ValueError("one stats record per cluster required")


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


def _losses(p_t, flow: FlowField, mask: SegmentationMask, chamfer: Future):
    """The rest of an iteration's report-only work: the per-cluster fits and
    the loss breakdown, whose Chamfer term is ``chamfer``, a job submitted
    before this one.  Returns ``(transforms, breakdown)``."""
    # looked up at call time, so perfbench's tracer sees them
    transforms, _ = fit_transforms(p_t, flow, mask)
    return transforms, total_loss(p_t, flow, mask, transforms,
                                  chamfer.result().value)


def _ran(fn, *args) -> Future:
    """A finished future holding ``fn(*args)``: the inline path's submit."""
    done = Future()
    done.set_result(fn(*args))
    return done


def run(p_t, p_t1, cfg: IterationConfig = None) -> SemanticSceneFlow:
    """Alternate refine_flow and cluster until delta_total < epsilon.

    Iteration 1 starts from init_flow and the residual-gated initial mask;
    every iteration ends with a canonical mask (static cluster 0).  A
    NoStaticCluster from the velocity rule falls back to the quantity rule
    and is recorded, never fatal.  Output is fully deterministic.

    Each pair's neighbour searches are made once and carried along:

    - frame t+1 is indexed once;
    - frame t's ``pair_list`` is built once and serves ``initial_mask`` and
      every ``cluster`` call;
    - every match against the frame-t+1 index goes through
      ``SpatialIndex.match`` with the one before it, starting from
      init_flow's forward search, so only rows whose nearest point is not
      certified unchanged are searched.  Each iteration's match gives its
      Chamfer forward term and the next iteration's correspondences;
    - each Chamfer term carries the last one's backward search.

    The loop's decisions read only the flow, the masks and the matches, so
    each iteration hands its report-only work on as two jobs: its Chamfer
    term once its match is made, then ``fit_transforms`` and ``total_loss``
    once its mask is known.  The next iteration joins both before it
    submits its own, so at most one iteration's jobs are pending, and the
    records are built after the loop.  From ``OVERLAP_MIN_POINTS`` points
    on, one helper thread runs init_flow while this thread builds the pair
    list, and then the jobs while this thread clusters and goes on with the
    next iteration; an exception on the helper is raised here within one
    iteration.  The helper lives only for this call.  Smaller clouds run
    the same jobs inline.  Both give the same result bit for bit.
    """
    if cfg is None:
        cfg = IterationConfig()
    overlap = len(p_t) >= OVERLAP_MIN_POINTS
    # looked up on the module at call time, so a substituted index class
    # (perfbench's tracer) also sees this index and its queries
    index_t1 = geometry.SpatialIndex(p_t1.points)
    steps = []
    breakdowns = []
    converged = False
    chamfer = pending = None
    with ThreadPoolExecutor(max_workers=1) as helper:
        submit = helper.submit if overlap else _ran
        start = submit(init_flow, p_t, index_t1)
        pairs = pair_list(p_t)
        flow_prev, diag, match = start.result()
        mask_prev = initial_mask(p_t, flow_prev, pairs)
        match = index_t1.match(p_t.points + flow_prev.vectors, match)
        for i in range(1, cfg.max_iters + 1):
            flow_i, _, degenerate = refine_flow(p_t, p_t1.points[match.ids],
                                                mask_prev, flow_prev)
            match = index_t1.match(p_t.points + flow_i.vectors, match)
            if pending is not None:
                transforms, breakdown = pending.result()
                breakdowns.append(breakdown)
            # the Chamfer term needs only the flow and the match, so it runs
            # beside clustering, carrying the last term's backward search
            chamfer = submit(losses.chamfer_loss, p_t, flow_i, p_t1,
                             match.distances,
                             None if chamfer is None else chamfer.result())
            raw_mask = cluster(p_t, flow_i, pairs=pairs)
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
            steps.append(dict(
                iteration=i, flow_delta=fd, mask_delta=md, delta_total=d_total,
                n_clusters=mask_i.n_clusters, strategy=strategy,
                static_fallback=fallback, degenerate_clusters=len(degenerate),
                v_ego=v_ego))
            pending = submit(_losses, p_t, flow_i, mask_i, chamfer)
            flow_prev, mask_prev = flow_i, mask_i
            if d_total < cfg.epsilon:
                converged = True
                break
        transforms, breakdown = pending.result()
        breakdowns.append(breakdown)
    records = tuple(IterationRecord(losses=lb, **step)
                    for step, lb in zip(steps, breakdowns, strict=True))
    stats = tuple(cluster_stats(p_t, flow_prev, mask_prev, cfg.classifier.dt))
    report = ConvergenceReport(
        alpha=cfg.alpha, beta=cfg.beta, epsilon=cfg.epsilon,
        records=records, converged=converged,
        n_unreliable=diag.n_unreliable, n_disoccluded=diag.n_disoccluded)
    return SemanticSceneFlow(flow=flow_prev, mask=mask_prev,
                             transforms=tuple(transforms), stats=stats,
                             report=report)
