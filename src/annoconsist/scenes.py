"""Scene records: ground truth, annotations, proposal pools, persistence.

Datasets are JSON-lines files, one scene per line. Masks are RLE encoded;
image and edge rasters are base64 little-endian float32.
"""

from __future__ import annotations

import base64
import functools
import json
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .adjacency import Adjacency
from .masks import (
    box_iou,
    iou_table,
    overlap_fraction_matrix,
    rle_decode_stack,
    rle_encode_stack,
    tight_boxes,
)

FORMAT_VERSION = 1


class DatasetFormatError(Exception):
    pass


@dataclass
class Instances:
    """One instance set of a scene (its ground truth or its seeds): mask
    masks[i] of the (N, H, W) bool stack has the 1-based class
    class_ids[i] of the (N,) int64 vector. N may be 0."""

    class_ids: np.ndarray
    masks: np.ndarray


@dataclass
class Annotation:
    """Weak supervision: class presence flags, optionally boxes.

    presence[j-1] is 1 iff class j appears (class ids are 1-based;
    0 is background). boxes is None in the image-level regime, else a
    (B, 5) int64 array of rows (class_id, x_min, y_min, x_max, y_max).
    """

    presence: np.ndarray
    boxes: np.ndarray | None = None

    @functools.cached_property
    def classes(self) -> np.ndarray:
        """Annotated class ids, ascending; computed once, read-only."""
        classes = np.nonzero(self.presence)[0] + 1
        classes.flags.writeable = False
        return classes

    def without_boxes(self) -> "Annotation":
        return Annotation(presence=self.presence, boxes=None)


@dataclass
class PoolGeometry:
    """Pool-derived arrays reused by every inference call on a scene. Only
    ovl reads the pool, so the geometry lets go of it once ovl is built and
    holds tables alone from then on."""

    pool: np.ndarray | None = field(repr=False)  # (P, H, W) bool until ovl
    boxes: np.ndarray  # (P, 4) tight boxes, one per proposal
    _keep: dict = field(default_factory=dict, repr=False, compare=False)
    _covering: dict = field(default_factory=dict, repr=False, compare=False)

    @functools.cached_property
    def ovl(self) -> np.ndarray:
        """ovl[i, l] = |i ∩ l| / |l|, built on first read: the box regime's
        cut reads only the tight boxes."""
        ovl = overlap_fraction_matrix(self.pool)
        self.pool = None
        return ovl

    def keep_masks(self, t: float) -> list:
        """kernels.keep_masks(ovl, t), built once per threshold."""
        masks = self._keep.get(t)
        if masks is None:
            masks = self._keep[t] = kernels.keep_masks(self.ovl, t)
        return masks

    def covering(self, boxes: np.ndarray, rho: float) -> tuple:
        """For a (B, 4) array of boxes, the read-only (B, P) mask of the
        proposals whose tight box reaches IoU rho with each box, and per
        box the ascending ids of those proposals as a tuple of Python
        ints; built once per (boxes, rho)."""
        key = (boxes.tobytes(), rho)
        hit = self._covering.get(key)
        if hit is None:
            mask = box_iou(boxes, self.boxes) >= rho
            mask.flags.writeable = False
            hit = self._covering[key] = (mask, tuple(
                tuple(np.flatnonzero(row).tolist()) for row in mask))
        return hit

    @staticmethod
    def from_pool(pool: np.ndarray) -> "PoolGeometry":
        return PoolGeometry(pool=pool, boxes=tight_boxes(pool))


@dataclass
class SceneRecord:
    scene_id: int
    width: int
    height: int
    num_classes: int
    image: np.ndarray  # (H, W, 3) float32 in [0, 1]
    edges: np.ndarray  # (H, W) float32
    gt: Instances
    annotation: Annotation
    seeds: Instances
    pool: np.ndarray  # (P, H, W) bool
    adjacency: Adjacency
    # indices of this pool's proposals in the pool it was cut from; None
    # when the pool is the scene's own
    pool_index: np.ndarray | None = None
    _geom: PoolGeometry | None = field(default=None, repr=False, compare=False)
    _features: np.ndarray | None = field(default=None, repr=False, compare=False)
    # not an init field, so a copy made by dataclasses.replace (say with
    # another pool or ground truth) builds its own
    _gt_iou: np.ndarray | None = field(default=None, init=False, repr=False,
                                       compare=False)

    @property
    def num_proposals(self) -> int:
        return self.pool.shape[0]

    def geometry(self) -> PoolGeometry:
        if self._geom is None:
            self._geom = PoolGeometry.from_pool(self.pool)
        return self._geom

    def gt_iou(self) -> np.ndarray:
        """(P, G) mask IoU of each pool proposal with each ground-truth
        instance, built once: the only ground truth evaluation reads,
        since every decoded instance is a pool proposal."""
        if self._gt_iou is None:
            self._gt_iou = iou_table(self.pool, self.gt.masks)
        return self._gt_iou


def _b64_f32(arr: np.ndarray) -> str:
    return base64.b64encode(np.asarray(arr, dtype="<f4").tobytes()).decode("ascii")


def _unb64_f32(s: str, shape) -> np.ndarray:
    raw = base64.b64decode(s.encode("ascii"))
    arr = np.frombuffer(raw, dtype="<f4")
    return arr.reshape(shape).copy()


def _decode_masks(rles: list, h: int, w: int) -> np.ndarray:
    """The (N, h, w) stack of N encodings; each must be of size h x w."""
    if not rles:
        return np.zeros((0, h, w), dtype=bool)
    masks = rle_decode_stack(rles)
    if masks.shape[1:] != (h, w):
        raise DatasetFormatError(f"mask size {list(masks.shape[1:])} does "
                                 f"not match the {h}x{w} frame")
    return masks


def _instances_to_obj(inst: Instances) -> list:
    return [{"class_id": c, "mask": m} for c, m in zip(
        inst.class_ids.tolist(), rle_encode_stack(inst.masks))]


def scene_to_obj(rec: SceneRecord) -> dict:
    """The record as a JSON object. The graph is written as one neighbor
    list and one weight list per proposal, each in edge order."""
    adj = rec.adjacency
    order = np.argsort(adj.edge_u, kind="stable")
    nbrs, wts = adj.edge_v[order].tolist(), adj.edge_w[order].tolist()
    ends = np.cumsum(np.bincount(adj.edge_u,
                                 minlength=rec.num_proposals)).tolist()
    spans = list(zip([0, *ends[:-1]], ends))
    return {
        "format_version": FORMAT_VERSION,
        "scene_id": rec.scene_id,
        "width": rec.width,
        "height": rec.height,
        "num_classes": rec.num_classes,
        "image": _b64_f32(rec.image),
        "edges": _b64_f32(rec.edges),
        "gt": _instances_to_obj(rec.gt),
        "annotation": {
            "presence": rec.annotation.presence.astype(int).tolist(),
            "boxes": None
            if rec.annotation.boxes is None
            else rec.annotation.boxes.tolist(),
        },
        "seeds": _instances_to_obj(rec.seeds),
        "pool": rle_encode_stack(rec.pool),
        "adjacency": {
            "neighbors": [nbrs[a:b] for a, b in spans],
            "weights": [wts[a:b] for a, b in spans],
        },
    }


def _adjacency_from_obj(obj: dict, p: int) -> Adjacency:
    """The stored graph of a pool of p proposals, checked: one neighbor
    list and one weight list per proposal, of equal lengths, with neighbor
    indices in [0, p) other than the proposal's own, no neighbor listed
    twice, every weight finite and non-negative, and each listed (u, v, w)
    mirrored by a listed (v, u, w). The directed edge arrays list each pair
    u < v as (u, v) then (v, u), in u's list order."""
    neighbors, weights = obj["neighbors"], obj["weights"]
    if len(neighbors) != p or len(weights) != p:
        raise DatasetFormatError(
            f"adjacency lists {len(neighbors)} neighbor and {len(weights)} "
            f"weight lists for a pool of {p} proposals")
    sizes = [len(n) for n in neighbors]
    u = np.repeat(np.arange(p, dtype=np.int64), sizes)
    v = np.array([x for n in neighbors for x in n], dtype=np.int64)
    w = np.array([x for ws in weights for x in ws], dtype=np.float64)
    if ([len(x) for x in weights] != sizes or v.shape != u.shape
            or w.shape != u.shape):
        raise DatasetFormatError("adjacency neighbor and weight lists "
                                 "differ in length")
    usable = np.isfinite(w) & (w >= 0.0)
    if not usable.all():
        i = int(np.argmin(usable))
        raise DatasetFormatError(
            f"adjacency: proposal {int(u[i])} lists neighbor {int(v[i])} with "
            f"weight {float(w[i])!r}, not a finite non-negative number")
    bad = (v < 0) | (v >= p) | (v == u)
    if bad.any():
        i = int(np.argmax(bad))
        raise DatasetFormatError(
            f"adjacency: proposal {int(u[i])} lists neighbor {int(v[i])}, "
            f"outside [0, {p}) or itself")
    key, mirror = u * p + v, v * p + u
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    twice = sorted_key[1:] == sorted_key[:-1]
    if twice.any():
        i = int(order[1:][twice][0])
        raise DatasetFormatError(
            f"adjacency: proposal {int(u[i])} lists neighbor {int(v[i])} twice")
    at = np.minimum(np.searchsorted(sorted_key, mirror), key.size - 1)
    unmatched = (sorted_key[at] != mirror) | (w[order][at] != w)
    if unmatched.any():
        i = int(np.argmax(unmatched))
        raise DatasetFormatError(
            f"adjacency: proposal {int(u[i])} lists neighbor {int(v[i])} with "
            f"weight {float(w[i])!r}, but {int(v[i])} does not list "
            f"{int(u[i])} with that weight")
    up = u < v
    u, v, w = u[up], v[up], w[up]
    return Adjacency(
        edge_u=np.stack([u, v], axis=1).reshape(-1),
        edge_v=np.stack([v, u], axis=1).reshape(-1),
        edge_w=np.repeat(w, 2),
    )


def scene_from_obj(obj: dict) -> SceneRecord:
    try:
        version = obj["format_version"]
        if version != FORMAT_VERSION:
            raise DatasetFormatError(f"unsupported format_version {version}")
        # the id keys the scene's noise, so it is never cast
        scene_id = obj["scene_id"]
        if (isinstance(scene_id, bool)
                or not isinstance(scene_id, (int, np.integer))
                or scene_id < 0):
            raise DatasetFormatError(
                f"scene_id {scene_id!r} is not a non-negative integer")
        h, w = obj["height"], obj["width"]
        pool = _decode_masks(obj["pool"], h, w)
        if not len(pool):
            raise DatasetFormatError("scene has an empty proposal pool")
        num_classes = operator.index(obj["num_classes"])
        ann_obj = obj["annotation"]
        boxes = ann_obj["boxes"]
        # a cast would read 0.5 as 0 and drop the class
        if any(type(f) is not int or f not in (0, 1)
               for f in ann_obj["presence"]):
            raise DatasetFormatError(
                f"annotation presence {ann_obj['presence']!r} holds an entry "
                "other than the int 0 or 1")
        presence = np.array(ann_obj["presence"], dtype=np.int8)
        if presence.shape != (num_classes,):
            raise DatasetFormatError(
                f"annotation presence has shape {list(presence.shape)}"
                f" for {num_classes} classes")
        # checked as Python ints: a cast would read 2.5 as 2, and 2**70
        # would overflow the int64 array
        for b in boxes or []:
            if len(b) != 5 or any(type(x) is not int for x in b[1:]):
                raise DatasetFormatError(
                    f"box {b!r} is not a class id and four int coordinates")
            if not (0 <= b[1] <= b[3] < w and 0 <= b[2] <= b[4] < h):
                raise DatasetFormatError(
                    f"box {b!r} is not a non-empty box inside the {h}x{w} "
                    "frame")
        gt_ids = [g["class_id"] for g in obj["gt"]]
        seed_ids = [s["class_id"] for s in obj["seeds"]]
        for kind, ids in (("ground-truth", gt_ids), ("seed", seed_ids),
                          ("box", [b[0] for b in boxes or []])):
            for c in ids:
                # an int64 stack would silently read true as class 1
                if isinstance(c, bool):
                    raise DatasetFormatError(
                        f"{kind} class_id {c!r} is a bool, not an integer")
                if not 1 <= operator.index(c) <= num_classes:
                    raise DatasetFormatError(
                        f"{kind} class_id {c} outside [1, {num_classes}]")
        for b in boxes or []:
            if not presence[b[0] - 1]:
                raise DatasetFormatError(
                    f"box of class {b[0]}, which the annotation does not mark "
                    "present")
        if boxes is not None:
            boxes = np.array(boxes, dtype=np.int64).reshape(-1, 5)
        annotation = Annotation(presence=presence, boxes=boxes)
        adjacency = _adjacency_from_obj(obj["adjacency"], pool.shape[0])
        image = _unb64_f32(obj["image"], (h, w, 3))
        edges = _unb64_f32(obj["edges"], (h, w))
        for name, raster in (("image", image), ("edges", edges)):
            if not np.isfinite(raster).all():
                raise DatasetFormatError(
                    f"{name} raster holds a non-finite value")
        return SceneRecord(
            scene_id=int(scene_id),
            width=w,
            height=h,
            num_classes=num_classes,
            image=image,
            edges=edges,
            gt=Instances(np.array(gt_ids, dtype=np.int64), _decode_masks(
                [g["mask"] for g in obj["gt"]], h, w)),
            annotation=annotation,
            seeds=Instances(np.array(seed_ids, dtype=np.int64), _decode_masks(
                [s["mask"] for s in obj["seeds"]], h, w)),
            pool=pool,
            adjacency=adjacency,
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, DatasetFormatError):
            raise
        raise DatasetFormatError(f"malformed scene record: {exc}") from exc


def save_dataset(path, records) -> None:
    """Write `records`, any iterable of scenes, one line each, consuming it
    one scene at a time."""
    with open(path, "w", encoding="ascii") as fh:
        for rec in records:
            fh.write(json.dumps(scene_to_obj(rec), separators=(",", ":")))
            fh.write("\n")


def iter_dataset(path):
    """Yield the scenes of a dataset file in file order, parsing each line
    only when the iteration reaches it; blank lines are skipped."""
    with open(path, "r", encoding="ascii") as fh:
        for line_no, line in enumerate(fh):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(
                    f"line {line_no + 1}: truncated or invalid JSON"
                ) from exc
            yield scene_from_obj(obj)


def load_dataset(path) -> list:
    return list(iter_dataset(path))


def rebuild_with_pool(rec: SceneRecord, keep: np.ndarray) -> SceneRecord:
    """New record with pool restricted to the ascending indices `keep`;
    the adjacency is the subgraph of rec's that `keep` induces. rec's
    cached geometry, features and ground-truth IoU table describe its own
    pool and are not carried over."""
    return replace(
        rec, pool=rec.pool[keep], adjacency=rec.adjacency.restrict(keep),
        pool_index=keep, _geom=None, _features=None)
