"""Instance-level evaluation: per-class average precision over mask IoU.

Predictions are matched greedily in confidence order to unmatched ground
truth instances of the same class within the same scene. AP uses the
all-point interpolated form (precision envelope over recall).
"""

from dataclasses import dataclass, field

import numpy as np

from .masks import mask_iou

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


def _match_class(entries: list, gt_masks: dict, thresh: float) -> np.ndarray:
    """Greedy matching for one class at one IoU threshold.

    entries: (confidence, scene_id, order, mask) tuples, any order.
    gt_masks: scene_id -> list of ground-truth masks for the class.
    Returns the hit flags in descending confidence order.
    """
    ordered = sorted(entries, key=lambda e: (-e[0], e[1], e[2]))
    used = {sid: np.zeros(len(ms), dtype=bool) for sid, ms in gt_masks.items()}
    flags = np.zeros(len(ordered), dtype=bool)
    for i, (_, sid, _, mask) in enumerate(ordered):
        cands = gt_masks.get(sid)
        if cands is None:
            continue
        best_iou, best_j = 0.0, -1
        for j, gm in enumerate(cands):
            if used[sid][j]:
                continue
            iou = mask_iou(mask, gm)
            if iou > best_iou:
                best_iou, best_j = iou, j
        if best_j >= 0 and best_iou >= thresh:
            used[sid][best_j] = True
            flags[i] = True
    return flags


def evaluate_predictions(preds_by_scene: dict, gts_by_scene: dict,
                         thresholds=DEFAULT_THRESHOLDS) -> EvalResult:
    """Mean AP over the classes that appear in the ground truth.

    preds_by_scene: scene_id -> list of objects with .class_id,
    .confidence and .mask (prednet.decode output works directly).
    gts_by_scene: scene_id -> the scene's ground truth, a
    scenes.Instances. Classes with no ground truth instances are skipped
    entirely; scenes present only in preds contribute false positives.
    """
    res = EvalResult(thresholds=tuple(thresholds))
    class_gt: dict = {}
    for sid, gt in gts_by_scene.items():
        for c, mask in zip(gt.class_ids.tolist(), gt.masks):
            class_gt.setdefault(c, {}).setdefault(sid, []).append(mask)
    for j, per_scene in class_gt.items():
        res.num_gt[j] = sum(len(v) for v in per_scene.values())

    class_preds: dict = {j: [] for j in class_gt}
    for sid, preds in preds_by_scene.items():
        for order, p in enumerate(preds):
            if p.class_id in class_preds:
                class_preds[p.class_id].append(
                    (float(p.confidence), sid, order, p.mask))

    for t in res.thresholds:
        aps = {}
        for j, per_scene in class_gt.items():
            flags = _match_class(class_preds[j], per_scene, t)
            aps[j] = ap_from_flags(flags, res.num_gt[j])
            res.per_class[(t, j)] = aps[j]
        res.map_r[t] = float(np.mean(list(aps.values()))) if aps else 0.0
    return res


def map_at(preds_by_scene: dict, gts_by_scene: dict, thresh: float = 0.5) -> float:
    """Single-threshold mean AP, convenience for progress logging."""
    return evaluate_predictions(preds_by_scene, gts_by_scene, (thresh,)).map_r[thresh]
