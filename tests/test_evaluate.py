import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annoconsist.evaluate import (
    DEFAULT_THRESHOLDS,
    ap_from_flags,
    evaluate_predictions,
    map_at,
)
from annoconsist.masks import iou_table
from annoconsist.prednet import InstancePrediction

from conftest import instances, make_record, rect_mask
from oracles import MaskPrediction, evaluate_masks, mask_iou, summary


def _pred(index=0, class_id=1, confidence=0.9):
    return InstancePrediction(proposal_index=index, class_id=class_id,
                              confidence=confidence)


def _scene(pool, gt_masks, class_ids=None, scene_id=0):
    """A record of the pool masks whose ground truth is gt_masks, all of
    class 1 unless given."""
    ids = [1] * len(gt_masks) if class_ids is None else class_ids
    size = pool[0].shape
    return make_record(pool, [], size=size, scene_id=scene_id,
                       gt=instances(list(zip(ids, gt_masks)), size))


def _truth(*recs):
    return {rec.scene_id: (rec.gt.class_ids,
                           iou_table(rec.pool, rec.gt.masks))
            for rec in recs}


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


def _one_object_scene(*pool):
    """The truth of scene 0, one class-1 object, whose pool is the object
    itself unless given; and the object's mask."""
    gt_mask = rect_mask(16, 16, 2, 10, 2, 10)
    return _truth(_scene(list(pool) or [gt_mask], [gt_mask])), gt_mask


def test_perfect_predictions_score_one_at_every_default_threshold():
    truth, _ = _one_object_scene()
    res = evaluate_predictions({0: [_pred()]}, truth)
    assert res.thresholds == DEFAULT_THRESHOLDS
    for t in DEFAULT_THRESHOLDS:
        assert res.map_r[t] == pytest.approx(1.0)
    assert res.num_gt == {1: 1}
    assert res.per_class[(0.5, 1)] == pytest.approx(1.0)


def test_iou_threshold_boundary_is_inclusive():
    half = rect_mask(16, 16, 2, 10, 2, 6)  # nested, half area -> IoU 0.5
    truth, _ = _one_object_scene(half)
    assert truth[0][1].tolist() == [[0.5]]
    res = evaluate_predictions({0: [_pred()]}, truth, (0.5, 0.7))
    assert res.map_r[0.5] == pytest.approx(1.0)  # >= threshold counts
    assert res.map_r[0.7] == pytest.approx(0.0)


def test_map_is_monotone_non_increasing_in_threshold():
    rng = np.random.default_rng(21)
    recs = []
    preds = {}
    for sid in range(4):
        g1 = rect_mask(20, 20, 1, 9, 1, 9)
        g2 = rect_mask(20, 20, 11, 19, 11, 19)
        dy, dx = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        p1 = rect_mask(20, 20, 1 + dy, 9 + dy, 1 + dx, 9 + dx)
        p2 = rect_mask(20, 20, 11, 19 - int(rng.integers(0, 5)), 11, 19)
        recs.append(_scene([p1, p2], [g1, g2], [1, 2], scene_id=sid))
        preds[sid] = [_pred(0, 1, 0.9), _pred(1, 2, 0.8)]
    ts = (0.25, 0.5, 0.7, 0.75)
    res = evaluate_predictions(preds, _truth(*recs), ts)
    vals = [res.map_r[t] for t in ts]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_evaluation_invariant_to_monotone_confidence_rescale():
    truth = _truth(_scene(
        [rect_mask(16, 16, 0, 8, 0, 8), rect_mask(16, 16, 8, 16, 8, 16),
         rect_mask(16, 16, 4, 12, 4, 12)],
        [rect_mask(16, 16, 0, 8, 0, 8), rect_mask(16, 16, 8, 16, 8, 16)]))
    confs = [0.9, 0.6, 0.75]
    preds = {0: [_pred(u, 1, c) for u, c in enumerate(confs)]}
    rescaled = {0: [_pred(u, 1, 0.1 + 0.5 * c) for u, c in enumerate(confs)]}
    a = evaluate_predictions(preds, truth)
    b = evaluate_predictions(rescaled, truth)
    assert a.map_r == b.map_r


def test_each_ground_truth_matches_at_most_once():
    gt_mask = rect_mask(16, 16, 2, 10, 2, 10)
    truth, _ = _one_object_scene(gt_mask, gt_mask)
    # two identical predictions: the higher-confidence one matches, the
    # duplicate is a false positive
    preds = {0: [_pred(0, 1, 0.9), _pred(1, 1, 0.8)]}
    res = evaluate_predictions(preds, truth, (0.5,))
    assert res.map_r[0.5] == pytest.approx(1.0)  # AP unaffected after the TP
    # reversed confidences: the FP now comes first and caps precision
    truth, _ = _one_object_scene(rect_mask(16, 16, 4, 12, 4, 12), gt_mask)
    res = evaluate_predictions(preds, truth, (0.75,))
    assert res.map_r[0.75] == pytest.approx(0.5)


def test_matching_is_scene_local_and_class_local():
    m = rect_mask(16, 16, 0, 8, 0, 8)
    truth = _truth(_scene([m], [m], [1], scene_id=0),
                   _scene([m], [m], [2], scene_id=1))
    # right mask, wrong scene or wrong class: both are false positives
    preds = {1: [_pred(0, 1, 0.9)], 0: [_pred(0, 2, 0.9)]}
    res = evaluate_predictions(preds, truth, (0.5,))
    assert res.map_r[0.5] == 0.0
    # classes never in the ground truth are ignored rather than averaged
    preds = {0: [_pred(0, 1, 0.9), _pred(0, 3, 0.9)], 1: [_pred(0, 2, 0.9)]}
    res = evaluate_predictions(preds, truth, (0.5,))
    assert res.map_r[0.5] == pytest.approx(1.0)
    assert set(res.num_gt) == {1, 2}


def test_predictions_in_unknown_scenes_are_false_positives():
    truth, _ = _one_object_scene()
    preds = {0: [_pred(0, 1, 0.8)],
             7: [_pred(0, 1, 0.9)]}  # scene 7 has no ground truth
    res = evaluate_predictions(preds, truth, (0.5,))
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
        n_pred = int(rng.integers(1, 6))
        pool, preds = [], []
        for i in range(n_pred):
            y = int(rng.integers(0, 10))
            x = int(rng.integers(0, 10))
            conf = float(np.round(rng.random(), 3))
            pool.append(rect_mask(20, 20, y, y + 8, x, x + 8))
            preds.append(_pred(i, 1, conf))
        res = evaluate_predictions({0: preds}, _truth(_scene(pool, gt_masks)),
                                   (0.5,))

        ordered = sorted(preds, key=lambda p: (-p.confidence, p.proposal_index))
        used = [False] * n_gt
        flags = []
        for p in ordered:
            best_iou, best_j = 0.0, -1
            for j, gm in enumerate(gt_masks):
                if used[j]:
                    continue
                iou = mask_iou(pool[p.proposal_index], gm)
                if iou > best_iou:
                    best_iou, best_j = iou, j
            hit = best_j >= 0 and best_iou >= 0.5
            if hit:
                used[best_j] = True
            flags.append(hit)
        assert res.map_r[0.5] == pytest.approx(_ap_oracle(flags, n_gt), abs=1e-12)


def _random_rects(rng, n, size=12):
    out = []
    for _ in range(n):
        y0, x0 = (int(v) for v in rng.integers(0, size - 2, 2))
        y1 = int(rng.integers(y0 + 1, size + 1))
        x1 = int(rng.integers(x0 + 1, size + 1))
        out.append(rect_mask(size, size, y0, y1, x0, x1))
    return out


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_scenes=st.integers(1, 4),
       thresholds=st.sampled_from([(0.5,), (0.0, 0.25, 0.5, 0.75, 1.0)]))
def test_matching_through_the_iou_table_equals_mask_matching(
        seed, n_scenes, thresholds):
    # scenes hold 0-3 ground-truth instances of classes 1-3 and predict
    # any proposal as any of classes 1-4 at tied confidences; the last
    # scene may be present only in the predictions, and a scene may
    # predict nothing. Every AP equals the mask-IoU matcher's, bit for bit
    rng = np.random.default_rng(seed)
    recs, preds, mask_preds = [], {}, {}
    for sid in range(n_scenes):
        pool = _random_rects(rng, int(rng.integers(1, 7)))
        n_gt = int(rng.integers(0, 4))
        gt_masks = _random_rects(rng, n_gt)
        # a ground-truth mask is often a proposal too, as with include_gt
        pool += [m for m in gt_masks if rng.random() < 0.5]
        rec = _scene(pool, gt_masks, rng.integers(1, 4, n_gt).tolist(),
                     scene_id=int(rng.integers(0, 3)) * 10 + sid)
        recs.append(rec)
        picks = [(int(rng.integers(0, len(pool))), int(rng.integers(1, 5)),
                  float(rng.choice([0.5, 0.7, 0.9])))
                 for _ in range(int(rng.integers(0, 6)))]
        preds[rec.scene_id] = [_pred(*p) for p in picks]
        mask_preds[rec.scene_id] = [MaskPrediction(*p, pool[p[0]])
                                    for p in picks]
    known = recs[:-1] if n_scenes > 1 and seed % 2 else recs
    got = evaluate_predictions(preds, _truth(*known), thresholds)
    want = evaluate_masks(mask_preds, {rec.scene_id: rec.gt for rec in known},
                          thresholds)
    assert got.num_gt == want.num_gt
    assert list(got.per_class.items()) == list(want.per_class.items())
    assert got.map_r == want.map_r


def test_map_at_matches_full_evaluation():
    truth, _ = _one_object_scene()
    preds = {0: [_pred()]}
    assert map_at(preds, truth, 0.5) == pytest.approx(
        evaluate_predictions(preds, truth, (0.5,)).map_r[0.5])


def test_summary_reports_every_threshold():
    truth, _ = _one_object_scene()
    res = evaluate_predictions({0: [_pred()]}, truth)
    s = summary(res)
    for t in DEFAULT_THRESHOLDS:
        assert f"mAP@{t:.2f}=" in s
