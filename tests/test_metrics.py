"""Flow error metrics and segmentation accuracy metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowseg.errors import LengthMismatch
from flowseg.flow import FlowField
from flowseg.metrics import flow_metrics, seg_metrics
from helpers import mask_of


def field_of(vectors):
    return FlowField(np.asarray(vectors, dtype=np.float64))


def contiguous(labels):
    return mask_of(np.unique(labels, return_inverse=True)[1])


def seg_metrics_by_scans(pred, gt):
    """Reference: seg_metrics written as one scan per GT x predicted cluster."""
    p = pred.labels
    g = gt.labels
    accuracy = float(100.0 * ((p == 0) == (g == 0)).mean())
    gt_sizes = np.bincount(g)
    gt_dynamic = sorted(range(1, int(g.max()) + 1),
                        key=lambda k: (-gt_sizes[k], k))
    available = set(range(1, int(p.max()) + 1))
    ious = []
    for k in gt_dynamic:
        in_gt = g == k
        best_id = None
        best_overlap = 0
        for c in sorted(available):
            overlap = int((in_gt & (p == c)).sum())
            if overlap > best_overlap:
                best_overlap = overlap
                best_id = c
        if best_id is None:
            ious.append(0.0)
            continue
        available.discard(best_id)
        union = int((in_gt | (p == best_id)).sum())
        ious.append(best_overlap / union)
    return accuracy, tuple(ious)


class TestFlowMetrics:
    def test_exact_prediction(self):
        rng = np.random.default_rng(80)
        gt = field_of(rng.standard_normal((50, 3)))
        m = flow_metrics(gt, gt)
        assert m.epe3d == 0.0
        assert m.acc_strict == 100.0
        assert m.acc_relaxed == 100.0
        assert m.outliers == 0.0

    def test_single_point_hand_case(self):
        gt = field_of([[1.0, 0.0, 0.0]])
        pred = field_of([[1.2, 0.0, 0.0]])
        m = flow_metrics(pred, gt)
        assert m.epe3d == pytest.approx(0.2)
        assert m.acc_strict == 0.0
        assert m.acc_relaxed == 0.0
        assert m.outliers == 100.0  # relative 20% > 10%

    def test_absolute_branch_of_strict(self):
        # tiny gt norm: relative error is large but absolute epe is small
        gt = field_of([[0.001, 0.0, 0.0]])
        pred = field_of([[0.031, 0.0, 0.0]])
        m = flow_metrics(pred, gt)
        assert m.acc_strict == 100.0  # epe 0.03 < 0.05
        assert m.outliers == 100.0    # relative 30 > 10%

    def test_zero_gt_zero_pred(self):
        m = flow_metrics(field_of([[0.0, 0, 0]]), field_of([[0.0, 0, 0]]))
        assert m.acc_strict == 100.0
        assert m.outliers == 0.0

    def test_zero_gt_nonzero_pred(self):
        # relative error is infinite; only absolute thresholds can save it
        m = flow_metrics(field_of([[0.02, 0, 0]]), field_of([[0.0, 0, 0]]))
        assert m.acc_strict == 100.0
        assert m.outliers == 100.0
        big = flow_metrics(field_of([[0.5, 0, 0]]), field_of([[0.0, 0, 0]]))
        assert big.acc_strict == 0.0
        assert big.outliers == 100.0

    def test_strict_never_exceeds_relaxed(self):
        rng = np.random.default_rng(81)
        for _ in range(20):
            gt = field_of(rng.standard_normal((30, 3)))
            pred = field_of(gt.vectors
                            + rng.standard_normal((30, 3)) * 0.1)
            m = flow_metrics(pred, gt)
            assert m.acc_strict <= m.acc_relaxed + 1e-12

    def test_matches_per_point_brute_force(self):
        rng = np.random.default_rng(82)
        gt = rng.standard_normal((200, 3))
        pred = gt + rng.standard_normal((200, 3)) * 0.15
        m = flow_metrics(field_of(pred), field_of(gt))
        epe = np.linalg.norm(pred - gt, axis=1)
        gtn = np.linalg.norm(gt, axis=1)
        rel = np.where(gtn > 0, epe / np.where(gtn > 0, gtn, 1.0),
                       np.where(epe == 0, 0.0, np.inf))
        assert m.epe3d == pytest.approx(epe.mean(), abs=1e-9)
        assert m.acc_strict == pytest.approx(
            100.0 * np.mean((epe < 0.05) | (rel < 0.05)), abs=1e-9)
        assert m.acc_relaxed == pytest.approx(
            100.0 * np.mean((epe < 0.1) | (rel < 0.1)), abs=1e-9)
        assert m.outliers == pytest.approx(
            100.0 * np.mean((epe > 0.3) | (rel > 0.1)), abs=1e-9)

    def test_reorder_invariance(self):
        rng = np.random.default_rng(83)
        gt = rng.standard_normal((40, 3))
        pred = gt + rng.standard_normal((40, 3)) * 0.2
        perm = rng.permutation(40)
        a = flow_metrics(field_of(pred), field_of(gt))
        b = flow_metrics(field_of(pred[perm]), field_of(gt[perm]))
        assert a.epe3d == pytest.approx(b.epe3d, abs=1e-12)
        assert a.acc_strict == b.acc_strict

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            flow_metrics(FlowField.zeros(3), FlowField.zeros(4))


class TestSegMetrics:
    def test_exact_prediction(self):
        m = seg_metrics(mask_of([0, 0, 1, 1, 2]), mask_of([0, 0, 1, 1, 2]))
        assert m.accuracy == 100.0
        assert m.per_cluster_iou == (1.0, 1.0)

    def test_all_static_prediction(self):
        gt = mask_of([0] * 90 + [1] * 10)
        m = seg_metrics(mask_of([0] * 100), gt)
        assert m.accuracy == pytest.approx(90.0)
        assert m.per_cluster_iou == (0.0,)

    def test_dynamic_permutation_absorbed(self):
        gt = mask_of([0, 0, 1, 1, 2, 2])
        pred = mask_of([0, 0, 2, 2, 1, 1])
        m = seg_metrics(pred, gt)
        assert m.accuracy == 100.0
        assert m.per_cluster_iou == (1.0, 1.0)

    def test_accuracy_is_binary_static_dynamic(self):
        # splitting one gt mover into two predicted movers keeps binary
        # accuracy perfect but halves that mover's best IoU
        gt = mask_of([0, 0, 0, 0, 1, 1, 1, 1])
        pred = mask_of([0, 0, 0, 0, 1, 1, 2, 2])
        m = seg_metrics(pred, gt)
        assert m.accuracy == 100.0
        assert m.per_cluster_iou == (0.5,)

    def test_greedy_matching_consumes_predictions(self):
        # both gt movers overlap predicted cluster 1 but it matches the
        # bigger gt mover first; the smaller one gets the leftovers
        gt = mask_of([0, 1, 1, 1, 2, 2])
        pred = mask_of([0, 1, 1, 1, 1, 1])
        m = seg_metrics(pred, gt)
        assert m.per_cluster_iou[0] == pytest.approx(3 / 5)
        assert m.per_cluster_iou[1] == 0.0

    def test_partial_overlap_iou(self):
        gt = mask_of([0, 0, 1, 1, 1, 1])
        pred = mask_of([0, 0, 0, 0, 1, 1])
        m = seg_metrics(pred, gt)
        assert m.accuracy == pytest.approx(100.0 * 4 / 6)
        assert m.per_cluster_iou == (0.5,)

    def test_no_dynamic_in_gt(self):
        m = seg_metrics(mask_of([0, 0, 0]), mask_of([0, 0, 0]))
        assert m.accuracy == 100.0
        assert m.per_cluster_iou == ()

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            seg_metrics(mask_of([0, 0]), mask_of([0]))

    @settings(deadline=None, max_examples=300)
    @given(st.integers(1, 120).flatmap(lambda n: st.tuples(
        arrays(np.int64, n, elements=st.integers(0, 7)),
        arrays(np.int64, n, elements=st.integers(0, 7)))))
    def test_overlap_table_matches_per_cluster_scans(self, labels):
        # few ids over few points: equal overlaps and equal GT sizes are
        # common, so the greedy rule's tie order is exercised
        pred, gt = (contiguous(lab) for lab in labels)
        m = seg_metrics(pred, gt)
        assert (m.accuracy, m.per_cluster_iou) == seg_metrics_by_scans(pred, gt)
