"""Instance-level evaluation: per-class average precision over mask IoU.

Every prediction is a proposal of its scene's pool, so its mask IoU with
each ground-truth instance is one entry of the scene's (P, G) IoU table.
Predictions are matched greedily in confidence order to unmatched ground
truth instances of the same class within the same scene. AP uses the
all-point interpolated form (precision envelope over recall).
"""

from dataclasses import dataclass, field

import numpy as np

DEFAULT_THRESHOLDS = (0.25, 0.50, 0.70, 0.75)


@dataclass
class EvalResult:
    thresholds: tuple
    map_r: dict = field(default_factory=dict)  # threshold -> mean AP
    per_class: dict = field(default_factory=dict)  # (threshold, class_id) -> AP
    num_gt: dict = field(default_factory=dict)  # class_id -> count


def ap_from_flags(flags: np.ndarray, npos: int) -> float:
    """All-point interpolated AP from ordered hit flags.

    flags[i] is True when the i-th highest-confidence prediction matched
    a ground truth instance. npos is the number of ground truth instances
    of the class; predictions beyond those contribute as false positives.
    """
    if npos <= 0:
        raise ValueError("npos must be positive")
    flags = np.asarray(flags, dtype=bool)
    if flags.size == 0:
        return 0.0
    tp = np.cumsum(flags).astype(np.float64)
    fp = np.cumsum(~flags).astype(np.float64)
    rec = tp / npos
    prec = tp / (tp + fp)
    mrec = np.concatenate(([0.0], rec, [1.0]))
    # the envelope: each precision raised to the largest one after it
    mpre = np.maximum.accumulate(
        np.concatenate(([0.0], prec, [0.0]))[::-1])[::-1]
    moved = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[moved + 1] - mrec[moved]) * mpre[moved + 1]))


def _match_class(ordered: list, gt_cols: dict, thresh: float) -> np.ndarray:
    """Greedy matching for one class at one IoU threshold.

    ordered: (confidence, scene_id, order, ious) tuples in descending
    confidence order, ious listing the prediction's IoU with each of its
    scene's ground-truth instances of the class, in ground-truth order.
    gt_cols: scene_id -> the scene's ground-truth columns of the class.
    Each prediction takes the first unmatched instance of highest IoU,
    when that IoU is above 0 and at least thresh. Returns the hit flags.
    """
    used = {sid: [False] * len(cols) for sid, cols in gt_cols.items()}
    flags = np.zeros(len(ordered), dtype=bool)
    for i, (_, sid, _, ious) in enumerate(ordered):
        taken = used.get(sid)
        best_iou, best_j = 0.0, -1
        for j, iou in enumerate(ious):
            if iou > best_iou and not taken[j]:
                best_iou, best_j = iou, j
        if best_j >= 0 and best_iou >= thresh:
            taken[best_j] = True
            flags[i] = True
    return flags


def evaluate_predictions(preds_by_scene: dict, truth_by_scene: dict,
                         thresholds=DEFAULT_THRESHOLDS) -> EvalResult:
    """Mean AP over the classes that appear in the ground truth.

    preds_by_scene: scene_id -> list of objects with .proposal_index,
    .class_id and .confidence (prednet.decode output works directly).
    truth_by_scene: scene_id -> (class_ids, iou), the scene's (G,)
    ground-truth class ids and the (P, G) IoU table of its pool against
    them (masks.iou_table). Classes with no ground truth instances are
    skipped entirely; scenes present only in preds contribute false
    positives.
    """
    res = EvalResult(thresholds=tuple(thresholds))
    # class -> scene_id -> the scene's ground-truth columns of the class
    class_gt: dict = {}
    for sid, (class_ids, _) in truth_by_scene.items():
        for col, c in enumerate(class_ids.tolist()):
            class_gt.setdefault(c, {}).setdefault(sid, []).append(col)
    for j, per_scene in class_gt.items():
        res.num_gt[j] = sum(len(v) for v in per_scene.values())

    class_preds: dict = {j: [] for j in class_gt}
    for sid, preds in preds_by_scene.items():
        rows = None
        for order, p in enumerate(preds):
            if p.class_id not in class_preds:
                continue
            cols = class_gt[p.class_id].get(sid, ())
            if cols and rows is None:
                rows = truth_by_scene[sid][1].tolist()
            ious = [rows[p.proposal_index][col] for col in cols]
            class_preds[p.class_id].append(
                (float(p.confidence), sid, order, ious))
    for entries in class_preds.values():
        entries.sort(key=lambda e: (-e[0], e[1], e[2]))

    for t in res.thresholds:
        aps = {}
        for j, per_scene in class_gt.items():
            flags = _match_class(class_preds[j], per_scene, t)
            aps[j] = ap_from_flags(flags, res.num_gt[j])
            res.per_class[(t, j)] = aps[j]
        res.map_r[t] = float(np.mean(list(aps.values()))) if aps else 0.0
    return res


def map_at(preds_by_scene: dict, truth_by_scene: dict,
           thresh: float = 0.5) -> float:
    """Single-threshold mean AP, convenience for progress logging."""
    return evaluate_predictions(preds_by_scene, truth_by_scene,
                                (thresh,)).map_r[thresh]
