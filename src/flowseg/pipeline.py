"""The mutual-promotion loop: alternate flow refinement and segmentation.

Each iteration rigidifies the flow per current cluster, re-clusters on the
refined flow, classifies static vs. dynamic, and measures how much the state
moved (delta_total = alpha * flow RMS change + beta * aligned mask change).
The loop stops when delta_total drops below epsilon or the iteration cap is
hit, and the whole history is kept in a ConvergenceReport.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry
from .errors import DegenerateInput, LengthMismatch, NoStaticCluster
from .flow import FlowField, InitFlowDiagnostics, fit_transforms, init_flow, refine_flow
from .geometry import weighted_kabsch
from .losses import LossBreakdown, total_loss
from .segment import (ClassifierConfig, SegmentationMask, _components_within,
                      classify, cluster, cluster_stats, members,
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


@dataclass(frozen=True)
class IterationConfig:
    """Everything the loop needs: convergence weights plus the flow,
    clustering, and classification parameters of the inner modules."""

    alpha: float = 1.0
    beta: float = 1.0
    epsilon: float = 1e-3
    max_iters: int = 20
    lambda_flow: float = 5.0
    cluster_eps: float = 0.8
    min_pts: int = 5
    r_consistency: float = 0.5
    k_fill: int = 8
    d_max: float = 3.0
    r_static: float = 0.3
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
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


def initial_mask(p_t, flow: FlowField, *, r_static: float = 0.3,
                 eps: float = 0.8, min_pts: int = 5) -> SegmentationMask:
    """Preliminary mask: points that a single global rigid fit cannot explain.

    Fits one transform to the whole flow field; points with residual above
    ``r_static`` are candidate dynamic points and get clustered spatially.
    Candidate components smaller than ``min_pts`` return to the static set.
    """
    src = p_t.points
    n = src.shape[0]
    labels = np.zeros(n, dtype=np.int64)
    try:
        t = weighted_kabsch(src, src + flow.vectors)
    except DegenerateInput:
        return SegmentationMask(labels)
    residual = np.linalg.norm(t.apply(src) - (src + flow.vectors), axis=1)
    candidates = np.nonzero(residual > r_static)[0]
    if candidates.shape[0] == 0:
        return SegmentationMask(labels)
    _, comp = _components_within(src[candidates], eps)
    next_id = 1
    for ids in members(comp):
        if ids.shape[0] >= min_pts:
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

    Frame t+1 is indexed once.  Each iteration matches its refined flow
    against that index once: the distances are its Chamfer forward term,
    the ids the next iteration's correspondences.
    """
    if cfg is None:
        cfg = IterationConfig()
    # looked up on the module at call time, so a substituted index class
    # (perfbench's tracer) also sees this index and its queries
    index_t1 = geometry.SpatialIndex(p_t1.points)
    flow_prev, diag = init_flow(
        p_t, index_t1, r_consistency=cfg.r_consistency, k_fill=cfg.k_fill,
        d_max=cfg.d_max)
    mask_prev = initial_mask(p_t, flow_prev, r_static=cfg.r_static,
                             eps=cfg.cluster_eps, min_pts=cfg.min_pts)
    ids, _ = index_t1.query(p_t.points + flow_prev.vectors)
    records = []
    converged = False
    transforms = stats = None
    for i in range(1, cfg.max_iters + 1):
        flow_i, _, degenerate = refine_flow(p_t, p_t1.points[ids], mask_prev,
                                            flow_prev)
        raw_mask = cluster(p_t, flow_i, cfg.lambda_flow,
                           eps=cfg.cluster_eps, min_pts=cfg.min_pts)
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
        transforms, _ = fit_transforms(p_t, flow_i, mask_i)
        ids, forward = index_t1.query(p_t.points + flow_i.vectors)
        losses = total_loss(p_t, p_t1, flow_i, mask_i, transforms, forward)
        fd = flow_delta(flow_i, flow_prev)
        md = mask_delta(mask_i, mask_prev)
        d_total = cfg.alpha * fd + cfg.beta * md
        records.append(IterationRecord(
            iteration=i, flow_delta=fd, mask_delta=md, delta_total=d_total,
            losses=losses, n_clusters=mask_i.n_clusters, strategy=strategy,
            static_fallback=fallback, degenerate_clusters=len(degenerate),
            v_ego=v_ego))
        flow_prev, mask_prev = flow_i, mask_i
        if d_total < cfg.epsilon:
            converged = True
            break
    stats = tuple(cluster_stats(p_t, flow_prev, mask_prev, cfg.classifier.dt))
    report = ConvergenceReport(
        alpha=cfg.alpha, beta=cfg.beta, epsilon=cfg.epsilon,
        records=tuple(records), converged=converged,
        n_unreliable=diag.n_unreliable, n_disoccluded=diag.n_disoccluded)
    return SemanticSceneFlow(flow=flow_prev, mask=mask_prev,
                             transforms=tuple(transforms), stats=stats,
                             report=report)
