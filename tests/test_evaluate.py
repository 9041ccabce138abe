import numpy as np
import pytest

from annoconsist.evaluate import (
    DEFAULT_THRESHOLDS,
    ap_from_flags,
    evaluate_predictions,
    map_at,
)
from annoconsist.masks import mask_iou
from annoconsist.prednet import InstancePrediction
from annoconsist.scenes import Instances

from conftest import rect_mask
from oracles import summary


def _pred(mask, class_id=1, confidence=0.9, index=0):
    return InstancePrediction(proposal_index=index, class_id=class_id,
                              confidence=confidence, mask=mask)


def _gt(masks, class_ids=None):
    """A scene's ground truth: the masks, all of class 1 unless given."""
    ids = [1] * len(masks) if class_ids is None else class_ids
    return Instances(np.array(ids, dtype=np.int64), np.stack(masks))


def test_ap_single_true_positive_is_one():
    assert ap_from_flags([True], npos=1) == pytest.approx(1.0)


def test_ap_false_positive_then_true_positive_is_half():
    assert ap_from_flags([False, True], npos=1) == pytest.approx(0.5)


def test_ap_tp_fp_tp_hand_case():
    # recalls 0.5, 0.5, 1.0 with precisions 1, 1/2, 2/3: the envelope
    # integrates to 0.5 * 1 + 0.5 * 2/3
    assert ap_from_flags([True, False, True], npos=2) == pytest.approx(5.0 / 6.0)


def test_ap_edge_cases():
    assert ap_from_flags([], npos=3) == 0.0
    assert ap_from_flags([False, False], npos=1) == 0.0
    assert ap_from_flags([True, True], npos=4) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        ap_from_flags([True], npos=0)


def _ap_oracle(flags, npos):
    """Independent all-point AP: walk distinct recall levels and integrate
    the running max precision at-or-beyond each level."""
    flags = np.asarray(flags, dtype=bool)
    if flags.size == 0:
        return 0.0
    tp = np.cumsum(flags)
    fp = np.cumsum(~flags)
    rec = tp / npos
    prec = tp / (tp + fp)
    total = 0.0
    prev_r = 0.0
    for r in sorted(set(rec.tolist())):
        if r == prev_r:
            continue
        best = max(prec[k] for k in range(len(rec)) if rec[k] >= r)
        total += (r - prev_r) * best
        prev_r = r
    return float(total)


def test_ap_matches_independent_oracle_on_random_flag_vectors():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        npos = int(rng.integers(1, 6))
        flags = rng.random(n) < 0.5
        while flags.sum() > npos:  # cannot hit more gts than exist
            flags[np.nonzero(flags)[0][-1]] = False
        assert ap_from_flags(flags, npos) == pytest.approx(
            _ap_oracle(flags, npos), abs=1e-12)


def _one_object_scene():
    gt_mask = rect_mask(16, 16, 2, 10, 2, 10)
    return {0: _gt([gt_mask])}, gt_mask


def test_perfect_predictions_score_one_at_every_default_threshold():
    gts, gt_mask = _one_object_scene()
    preds = {0: [_pred(gt_mask)]}
    res = evaluate_predictions(preds, gts)
    assert res.thresholds == DEFAULT_THRESHOLDS
    for t in DEFAULT_THRESHOLDS:
        assert res.map_r[t] == pytest.approx(1.0)
    assert res.num_gt == {1: 1}
    assert res.per_class[(0.5, 1)] == pytest.approx(1.0)


def test_iou_threshold_boundary_is_inclusive():
    gts, gt_mask = _one_object_scene()
    half = rect_mask(16, 16, 2, 10, 2, 6)  # nested, half area -> IoU 0.5
    assert mask_iou(half, gt_mask) == pytest.approx(0.5)
    res = evaluate_predictions({0: [_pred(half)]}, gts, (0.5, 0.7))
    assert res.map_r[0.5] == pytest.approx(1.0)  # >= threshold counts
    assert res.map_r[0.7] == pytest.approx(0.0)


def test_map_is_monotone_non_increasing_in_threshold():
    rng = np.random.default_rng(21)
    gts = {}
    preds = {}
    for sid in range(4):
        g1 = rect_mask(20, 20, 1, 9, 1, 9)
        g2 = rect_mask(20, 20, 11, 19, 11, 19)
        gts[sid] = _gt([g1, g2], [1, 2])
        dy, dx = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        p1 = rect_mask(20, 20, 1 + dy, 9 + dy, 1 + dx, 9 + dx)
        p2 = rect_mask(20, 20, 11, 19 - int(rng.integers(0, 5)), 11, 19)
        preds[sid] = [_pred(p1, 1, 0.9), _pred(p2, 2, 0.8)]
    ts = (0.25, 0.5, 0.7, 0.75)
    res = evaluate_predictions(preds, gts, ts)
    vals = [res.map_r[t] for t in ts]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_evaluation_invariant_to_monotone_confidence_rescale():
    rng = np.random.default_rng(33)
    gts = {0: _gt([rect_mask(16, 16, 0, 8, 0, 8),
                   rect_mask(16, 16, 8, 16, 8, 16)])}
    masks = [rect_mask(16, 16, 0, 8, 0, 8),
             rect_mask(16, 16, 8, 16, 8, 16),
             rect_mask(16, 16, 4, 12, 4, 12)]
    confs = [0.9, 0.6, 0.75]
    preds = {0: [_pred(m, 1, c) for m, c in zip(masks, confs)]}
    rescaled = {0: [_pred(m, 1, 0.1 + 0.5 * c) for m, c in zip(masks, confs)]}
    a = evaluate_predictions(preds, gts)
    b = evaluate_predictions(rescaled, gts)
    assert a.map_r == b.map_r


def test_each_ground_truth_matches_at_most_once():
    gts, gt_mask = _one_object_scene()
    # two identical predictions: the higher-confidence one matches, the
    # duplicate is a false positive
    preds = {0: [_pred(gt_mask, 1, 0.9), _pred(gt_mask, 1, 0.8, index=1)]}
    res = evaluate_predictions(preds, gts, (0.5,))
    assert res.map_r[0.5] == pytest.approx(1.0)  # AP unaffected after the TP
    # reversed confidences: the FP now comes first and caps precision
    shifted = rect_mask(16, 16, 4, 12, 4, 12)
    preds = {0: [_pred(shifted, 1, 0.9), _pred(gt_mask, 1, 0.8, index=1)]}
    res = evaluate_predictions(preds, gts, (0.75,))
    assert res.map_r[0.75] == pytest.approx(0.5)


def test_matching_is_scene_local_and_class_local():
    m = rect_mask(16, 16, 0, 8, 0, 8)
    gts = {0: _gt([m], [1]), 1: _gt([m], [2])}
    # right mask, wrong scene or wrong class: both are false positives
    preds = {1: [_pred(m, 1, 0.9)], 0: [_pred(m, 2, 0.9)]}
    res = evaluate_predictions(preds, gts, (0.5,))
    assert res.map_r[0.5] == 0.0
    # classes never in the ground truth are ignored rather than averaged
    preds = {0: [_pred(m, 1, 0.9), _pred(m, 3, 0.9)], 1: [_pred(m, 2, 0.9)]}
    res = evaluate_predictions(preds, gts, (0.5,))
    assert res.map_r[0.5] == pytest.approx(1.0)
    assert set(res.num_gt) == {1, 2}


def test_predictions_in_unknown_scenes_are_false_positives():
    gts, gt_mask = _one_object_scene()
    preds = {0: [_pred(gt_mask, 1, 0.8)],
             7: [_pred(gt_mask, 1, 0.9)]}  # scene 7 has no ground truth
    res = evaluate_predictions(preds, gts, (0.5,))
    # ordered flags: [False (scene 7), True] -> AP 0.5
    assert res.map_r[0.5] == pytest.approx(0.5)


def test_brute_force_matching_oracle_on_small_random_instances():
    # exhaustive check of the full pipeline on tiny prediction sets: the
    # greedy confidence-ordered matcher plus the AP integral must agree
    # with a direct recomputation from first principles
    rng = np.random.default_rng(55)
    for trial in range(30):
        n_gt = int(rng.integers(1, 4))
        gt_masks = []
        for i in range(n_gt):
            y = int(rng.integers(0, 10))
            x = int(rng.integers(0, 10))
            gt_masks.append(rect_mask(20, 20, y, y + 8, x, x + 8))
        gts = {0: _gt(gt_masks)}
        n_pred = int(rng.integers(1, 6))
        preds = []
        for i in range(n_pred):
            y = int(rng.integers(0, 10))
            x = int(rng.integers(0, 10))
            conf = float(np.round(rng.random(), 3))
            preds.append(_pred(rect_mask(20, 20, y, y + 8, x, x + 8), 1, conf, i))
        res = evaluate_predictions({0: preds}, gts, (0.5,))

        ordered = sorted(preds, key=lambda p: (-p.confidence, p.proposal_index))
        used = [False] * n_gt
        flags = []
        for p in ordered:
            best_iou, best_j = 0.0, -1
            for j, gm in enumerate(gt_masks):
                if used[j]:
                    continue
                iou = mask_iou(p.mask, gm)
                if iou > best_iou:
                    best_iou, best_j = iou, j
            hit = best_j >= 0 and best_iou >= 0.5
            if hit:
                used[best_j] = True
            flags.append(hit)
        assert res.map_r[0.5] == pytest.approx(_ap_oracle(flags, n_gt), abs=1e-12)


def test_map_at_matches_full_evaluation():
    gts, gt_mask = _one_object_scene()
    preds = {0: [_pred(gt_mask)]}
    assert map_at(preds, gts, 0.5) == pytest.approx(
        evaluate_predictions(preds, gts, (0.5,)).map_r[0.5])


def test_summary_reports_every_threshold():
    gts, gt_mask = _one_object_scene()
    res = evaluate_predictions({0: [_pred(gt_mask)]}, gts)
    s = summary(res)
    for t in DEFAULT_THRESHOLDS:
        assert f"mAP@{t:.2f}=" in s
