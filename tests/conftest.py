import numpy as np

from annoconsist.adjacency import build_adjacency
from annoconsist.scenes import Annotation, Instances, SceneRecord


def make_record(masks, present_classes, num_classes=3, size=None, edges=None,
                boxes=None, scene_id=0, image=None, seeds=None, gt=None):
    """Hand-built scene record for controlled inference/loss tests.

    masks: list of (H, W) bool arrays forming the pool.
    present_classes: iterable of annotated class ids.
    boxes: None, or rows (class_id, x_min, y_min, x_max, y_max).
    seeds, gt: Instances; each defaults to the empty set.
    """
    pool = np.array(masks, dtype=bool)
    h, w = pool.shape[1:] if pool.size else (size or (16, 16))
    if size is not None:
        h, w = size
    presence = np.zeros(num_classes, dtype=np.int8)
    for j in present_classes:
        presence[j - 1] = 1
    if edges is None:
        edges = np.zeros((h, w), dtype=np.float32)
    if image is None:
        image = np.full((h, w, 3), 0.5, dtype=np.float32)
    return SceneRecord(
        scene_id=scene_id,
        width=w,
        height=h,
        num_classes=num_classes,
        image=image,
        edges=edges,
        gt=gt if gt is not None else instances([], (h, w)),
        annotation=Annotation(presence=presence, boxes=None if boxes is None
                              else np.array(boxes, dtype=np.int64).reshape(-1, 5)),
        seeds=seeds if seeds is not None else instances([], (h, w)),
        pool=pool,
        adjacency=build_adjacency(pool, edges),
    )


def rect_mask(h, w, y0, y1, x0, x1):
    """Filled rectangle with inclusive corner (y0, x0), exclusive (y1, x1)."""
    m = np.zeros((h, w), dtype=bool)
    m[y0:y1, x0:x1] = True
    return m


def instances(pairs, size):
    """The Instances of (class_id, mask) pairs on an (H, W) frame."""
    h, w = size
    return Instances(
        np.array([c for c, _ in pairs], dtype=np.int64),
        np.array([m for _, m in pairs], dtype=bool).reshape(-1, h, w))
