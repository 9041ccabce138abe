"""Fully factorized prediction distribution over proposal labels.

Each proposal gets an independent softmax over C+1 classes computed from
its features alone (no noise, no annotation). Decoding keeps proposals
whose best foreground probability clears a threshold and runs per-class
greedy NMS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenes import DatasetFormatError, SceneRecord
from .scorer import feature_dim, features


@dataclass
class InstancePrediction:
    proposal_index: int
    class_id: int
    confidence: float


def pred_init(num_classes: int) -> np.ndarray:
    """Zero predictor weights: the linear map w of shape (C+1, D)."""
    return np.zeros((num_classes + 1, feature_dim(num_classes)))


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def predict(w: np.ndarray, rec: SceneRecord) -> np.ndarray:
    """(P, C+1) predictive state of weights w; rows sum to 1."""
    return softmax_rows(features(rec) @ w.T)


def argmax_labeling(state: np.ndarray) -> np.ndarray:
    """Mode of the factorized distribution (background ties win)."""
    return state.argmax(axis=1).astype(np.int64)


def decode(state: np.ndarray, rec: SceneRecord, score_thresh: float,
           nms_t: float) -> list:
    """Thresholded, per-class NMS-filtered instance list.

    Candidates need best foreground probability >= score_thresh; within a
    class, a kept candidate suppresses others it covers by more than
    nms_t. Idempotent: decoding the survivors again changes nothing.
    """
    geom = rec.geometry()
    fg = state[:, 1:]
    conf = fg.max(axis=1)
    cls = fg.argmax(axis=1) + 1
    cand = (conf >= score_thresh).nonzero()[0]
    order = cand[(-conf[cand]).argsort(kind="stable")]
    # the loop reads Python lists: row i of ovl holds the overlaps of the
    # i-th candidate in `order` with every candidate in `cand`. A lone
    # candidate suppresses nothing, so it leaves the pool's overlap
    # matrix unbuilt
    conf, cls = conf.tolist(), cls.tolist()
    ovl = geom.ovl[order[:, None], cand].tolist() if len(cand) > 1 else [[]]
    cand = cand.tolist()
    out = []
    suppressed = set()
    for u, row in zip(order.tolist(), ovl):
        if u in suppressed:
            continue
        out.append(InstancePrediction(proposal_index=u, class_id=cls[u],
                                      confidence=conf[u]))
        for v, o in zip(cand, row):
            if v != u and v not in suppressed and cls[v] == cls[u] and o > nms_t:
                suppressed.add(v)
    return out


def decoded_prediction(rec: SceneRecord, entry: dict) -> InstancePrediction:
    """A decoded entry as infer writes it, checked against rec: a
    proposal_index that is a non-bool int in [0, P), a class_id that is a
    non-bool int in [1, C] and a confidence that is a finite non-bool
    number in [0, 1]; otherwise DatasetFormatError naming the scene."""
    u, c = entry["proposal_index"], entry["class_id"]
    conf = entry["confidence"]
    if type(u) is not int or not 0 <= u < rec.num_proposals:
        raise DatasetFormatError(
            f"scene {rec.scene_id}: decoded proposal_index {u!r} is not an "
            f"integer in [0, {rec.num_proposals})")
    if type(c) is not int or not 1 <= c <= rec.num_classes:
        raise DatasetFormatError(
            f"scene {rec.scene_id}: decoded class_id {c!r} is not an "
            f"integer in [1, {rec.num_classes}]")
    # NaN fails the range test
    if type(conf) not in (int, float) or not 0.0 <= conf <= 1.0:
        raise DatasetFormatError(
            f"scene {rec.scene_id}: decoded confidence {conf!r} is not a "
            "number in [0, 1]")
    return InstancePrediction(u, c, float(conf))
