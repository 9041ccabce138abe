"""Synthetic scene and proposal-pool generation.

Scenes are small RGB rasters with colored shapes on a gray background.
Class identity is carried by color; shape family varies freely. The edge
map marks ground-truth instance boundaries at 1.0 plus sparse noise.
Seeds are contiguous sub-regions of each instance, standing in for the
salient-part cues a weak-supervision pipeline would start from.

`SceneConfig` sizes the task (frame, classes, object count and extent)
and `ProposalConfig` says whether each ground-truth mask joins its pool.
Every other detail is a module constant:
- objects: `SHAPE_FAMILIES`, `MARGIN` and `MAX_PLACE_ATTEMPTS`; objects
  never overlap;
- rendering: `COLOR_NOISE`, `EDGE_NOISE_DENSITY`, `EDGE_NOISE_AMPLITUDE`
  and the seeds' `SEED_FRACTION`;
- proposals: the eroded core (`ERODE_PX`) and `SPLITS` cuts of it, the
  dilated (`DILATE_PX`) and shifted (`SHIFT_PX`) masks, and
  `DISTRACTOR_COUNT` background blobs (`DISTRACTOR_EXTENT`,
  `DISTRACTOR_MARGIN`);
- pools: proposals under `MIN_AREA` pixels, repeats and those that touch
  no seed are dropped, at most `P_TARGET` are kept, and the contact
  graph is built at `DILATION`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .adjacency import build_adjacency
from .masks import dilate, erode, inner_boundary, tight_boxes
from .scenes import Annotation, Instances, SceneRecord

# class colors; background is gray
PALETTE = np.array(
    [
        [0.85, 0.25, 0.25],
        [0.20, 0.70, 0.30],
        [0.25, 0.35, 0.85],
        [0.80, 0.70, 0.20],
        [0.70, 0.30, 0.80],
    ]
)
BACKGROUND = np.array([0.5, 0.5, 0.5])


class PlacementError(Exception):
    pass


class EmptyPoolError(Exception):
    pass


# the generator's fixed rendering and perturbation details
SHAPE_FAMILIES = ("rect", "ellipse", "ell")  # each draw picks one at random
MARGIN = 3  # objects keep this many pixels from the border
MAX_PLACE_ATTEMPTS = 200  # draws per object before the scene is redrawn
COLOR_NOISE = 0.04  # std of the gaussian noise on each image channel
EDGE_NOISE_DENSITY = 0.01  # share of pixels that get a spurious edge
EDGE_NOISE_AMPLITUDE = 0.2  # spurious edges are uniform in [0, this)
SEED_FRACTION = (0.25, 0.45)  # a seed covers a uniform share of its object
ERODE_PX = 2  # the core variant, which the part variants split
SPLITS = 2  # cuts of each core, each giving two parts
DILATE_PX = 2  # the grown variant
SHIFT_PX = 3  # the shifted variant moves up to this far on each axis
DISTRACTOR_COUNT = 3  # background blobs in each pool
DISTRACTOR_EXTENT = (6, 11)
DISTRACTOR_MARGIN = 1  # distractor blobs may come this close to the border
MIN_AREA = 8  # smaller proposals are dropped
P_TARGET = 64  # pools are cut to this many proposals
DILATION = 1  # proposals this close are neighbors in the contact graph


def min_frame_side(margin: int, max_extent: int) -> int:
    """Smallest frame side that holds a shape of extent max_extent at least
    margin pixels from the border: _draw_shape draws the center from
    [margin + e//2, side - margin - e//2), which must not be empty."""
    return 2 * margin + 2 * (max_extent // 2) + 1


@dataclass
class SceneConfig:
    height: int = 48
    width: int = 48
    num_classes: int = 3
    min_objects: int = 1
    max_objects: int = 3
    min_extent: int = 12
    max_extent: int = 20

    def __post_init__(self):
        if self.height > 128 or self.width > 128:
            raise ValueError("scene dimensions are capped at 128")
        if not 1 <= self.num_classes <= 5:
            raise ValueError("num_classes must lie in [1, 5]")
        if self.min_objects < 1:
            raise ValueError("min_objects must be at least 1")
        if self.min_objects > self.max_objects:
            raise ValueError("min_objects must not exceed max_objects")
        # an ell of extent 1 by 1 is a single pixel, which the carved
        # quadrant removes
        if self.min_extent < 2:
            raise ValueError("min_extent must be at least 2")
        if self.min_extent > self.max_extent:
            raise ValueError("min_extent must not exceed max_extent")
        # the frame holds both the objects and the distractor blobs
        side = max(min_frame_side(MARGIN, self.max_extent),
                   min_frame_side(DISTRACTOR_MARGIN, DISTRACTOR_EXTENT[1]))
        for name in ("height", "width"):
            if getattr(self, name) < side:
                raise ValueError(
                    f"{name} must be at least {side} to hold shapes of "
                    f"max_extent {self.max_extent} and the distractors")


@dataclass
class ProposalConfig:
    include_gt: bool = True


def _draw_shape(rng, frame: tuple, extent: tuple, margin: int):
    """Rasterize one random shape on an (h, w) frame, of extents drawn from
    the inclusive (lo, hi) range, at least margin pixels from the border."""
    h, w = frame
    family = SHAPE_FAMILIES[rng.integers(len(SHAPE_FAMILIES))]
    ext_y = int(rng.integers(extent[0], extent[1] + 1))
    ext_x = int(rng.integers(extent[0], extent[1] + 1))
    cy = int(rng.integers(margin + ext_y // 2, h - margin - ext_y // 2))
    cx = int(rng.integers(margin + ext_x // 2, w - margin - ext_x // 2))
    # a column and a row of coordinates, broadcast to the frame
    ys, xs = np.arange(h)[:, None], np.arange(w)[None, :]
    if family == "rect":
        mask = (np.abs(ys - cy) <= ext_y // 2) & (np.abs(xs - cx) <= ext_x // 2)
    elif family == "ellipse":
        ry = max(ext_y / 2.0, 1.0)
        rx = max(ext_x / 2.0, 1.0)
        mask = ((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2 <= 1.0
    else:  # "ell"
        mask = (np.abs(ys - cy) <= ext_y // 2) & (np.abs(xs - cx) <= ext_x // 2)
        # carve one quadrant out of the rectangle
        qy = rng.integers(2)
        qx = rng.integers(2)
        cut_y = (ys < cy) if qy else (ys >= cy)
        cut_x = (xs < cx) if qx else (xs >= cx)
        mask = mask & ~(cut_y & cut_x)
    return mask


def _grow_seed(rng, mask: np.ndarray, fraction: float) -> np.ndarray:
    """Contiguous sub-region of `mask` covering roughly `fraction` of it.

    Breadth-first growth from the set pixel nearest the centroid, so the
    seed sits in the salient middle of the object.
    """
    ys, xs = np.nonzero(mask)
    target = max(1, int(round(fraction * ys.size)))
    cy, cx = ys.mean(), xs.mean()
    start = int(np.argmin((ys - cy) ** 2 + (xs - cx) ** 2))
    h, w = mask.shape
    # the walk runs on flat pixel indices over Python lists, which index
    # far faster than numpy scalars; unvisited = set and not yet queued
    unvisited = mask.ravel().tolist()
    first = int(ys[start]) * w + int(xs[start])
    unvisited[first] = False
    queue = deque([first])
    grown = []
    while queue and len(grown) < target:
        i = queue.popleft()
        grown.append(i)
        y, x = divmod(i, w)
        for j, inside in ((i - w, y > 0), (i + w, y < h - 1),
                          (i - 1, x > 0), (i + 1, x < w - 1)):
            if inside and unvisited[j]:
                unvisited[j] = False
                queue.append(j)
    seed = np.zeros(h * w, dtype=bool)
    seed[grown] = True
    return seed.reshape(h, w)


_SCENE_RETRIES = 32


def _place_objects(cfg: SceneConfig, rng) -> Instances:
    n_obj = int(rng.integers(cfg.min_objects, cfg.max_objects + 1))
    class_ids, masks = [], []
    for _ in range(n_obj):
        class_id = int(rng.integers(1, cfg.num_classes + 1))
        for _attempt in range(MAX_PLACE_ATTEMPTS):
            mask = _draw_shape(rng, (cfg.height, cfg.width),
                               (cfg.min_extent, cfg.max_extent), MARGIN)
            # objects never overlap
            if not any((mask & m).any() for m in masks):
                class_ids.append(class_id)
                masks.append(mask)
                break
        else:
            raise PlacementError(
                f"could not place object {len(masks) + 1} after "
                f"{MAX_PLACE_ATTEMPTS} attempts"
            )
    return Instances(np.array(class_ids, dtype=np.int64), np.stack(masks))


def gen_scene(cfg: SceneConfig, seed: int, scene_id: int = 0) -> tuple:
    """Deterministic drawn scene from (seed, scene_id): its ground truth,
    image, edge map and seeds, as the tuple (gt, image, edges, seeds).

    A crowded draw (several large objects that cannot coexist without
    overlap) is redrawn from a fresh stream keyed by the attempt index,
    so the mapping (seed, scene_id) -> scene stays deterministic.
    """
    h, w = cfg.height, cfg.width
    gt = None
    rng = None
    last_exc = None
    for redraw in range(_SCENE_RETRIES):
        rng = np.random.default_rng(
            np.random.SeedSequence((seed, scene_id, 0xA11CE, redraw)))
        try:
            gt = _place_objects(cfg, rng)
            break
        except PlacementError as exc:
            last_exc = exc
    if gt is None:
        raise PlacementError(
            f"scene {scene_id}: {last_exc} (after {_SCENE_RETRIES} redraws)")

    image = np.empty((h, w, 3), dtype=np.float32)
    image[:] = BACKGROUND
    edges = np.zeros((h, w), dtype=np.float32)
    class_ids = gt.class_ids.tolist()
    for c, mask in zip(class_ids, gt.masks):
        image[mask] = PALETTE[c - 1]
    edges[inner_boundary(gt.masks).any(axis=0)] = 1.0
    image += rng.normal(0.0, COLOR_NOISE, size=image.shape).astype(np.float32)
    np.clip(image, 0.0, 1.0, out=image)

    n_noise = int(round(EDGE_NOISE_DENSITY * h * w))
    if n_noise:
        ys = rng.integers(0, h, size=n_noise)
        xs = rng.integers(0, w, size=n_noise)
        edges[ys, xs] += rng.uniform(0.0, EDGE_NOISE_AMPLITUDE, size=n_noise)
        np.clip(edges, 0.0, 1.0, out=edges)

    # each instance's seed, grown to a fraction drawn in instance order
    seeds = Instances(gt.class_ids, np.stack([
        _grow_seed(rng, mask, rng.uniform(*SEED_FRACTION))
        for mask in gt.masks]))
    return gt, image, edges, seeds


def _split_parts(core: np.ndarray, pivot, angle: float):
    """Cut `core` in two along a line through `pivot` at `angle`."""
    h, w = core.shape
    ys, xs = np.arange(h)[:, None], np.arange(w)[None, :]
    side = (xs - pivot[1]) * np.cos(angle) + (ys - pivot[0]) * np.sin(angle)
    return core & (side >= 0), core & (side < 0)


def _shift_mask(mask: np.ndarray, dy: int, dx: int) -> np.ndarray:
    out = np.zeros_like(mask)
    h, w = mask.shape
    ys, xs = np.nonzero(mask)
    ys = ys + dy
    xs = xs + dx
    keep = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)
    out[ys[keep], xs[keep]] = True
    return out


def gen_proposals(gt: Instances, seeds: Instances, cfg: ProposalConfig,
                  seed: int, scene_id: int) -> np.ndarray:
    """The (P, H, W) proposal pool of a drawn scene, on the frame of its
    ground-truth stack: gt masks, perturbed variants and background
    distractors, filtered to overlap a seed.

    Part variants are cut from the eroded instance so their contact bands
    with the full mask (and with each other) avoid the drawn boundary ring;
    this requires ERODE_PX > DILATION.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, scene_id, 0xB0B)))
    candidates = []
    gt_masks = gt.masks
    h, w = gt_masks.shape[1:]
    cores = erode(gt_masks, ERODE_PX)
    grown = dilate(gt_masks, DILATE_PX)
    for i, (mask, own_seed) in enumerate(zip(gt_masks, seeds.masks)):
        if cfg.include_gt:
            candidates.append(mask)
        core = cores[i]
        if core.any():
            candidates.append(core)
            if (own_seed & core).any():
                sy, sx = np.nonzero(own_seed & core)
            else:
                sy, sx = np.nonzero(core)
            pivot = (sy.mean(), sx.mean())
            for _ in range(SPLITS):
                angle = rng.uniform(0.0, np.pi)
                a, b = _split_parts(core, pivot, angle)
                candidates.extend((a, b))
        candidates.append(grown[i])
        dy = int(rng.integers(-SHIFT_PX, SHIFT_PX + 1))
        dx = int(rng.integers(-SHIFT_PX, SHIFT_PX + 1))
        candidates.append(_shift_mask(mask, dy, dx))

    gt_union = gt_masks.any(axis=0)
    placed = 0
    for _ in range(DISTRACTOR_COUNT * 20):
        if placed >= DISTRACTOR_COUNT:
            break
        blob = _draw_shape(rng, (h, w), DISTRACTOR_EXTENT,
                           DISTRACTOR_MARGIN)
        if np.count_nonzero(blob & gt_union) / np.count_nonzero(blob) <= 0.25:
            candidates.append(blob)
            placed += 1

    seen = set()
    kept = []
    for m in candidates:
        if np.count_nonzero(m) < MIN_AREA:
            continue
        key = m.tobytes()
        if key in seen:
            continue
        seen.add(key)
        kept.append(m)
    seed_union = seeds.masks.any(axis=0)
    kept = [m for m in kept if (m & seed_union).any()][:P_TARGET]
    if not kept:
        raise EmptyPoolError(f"scene {scene_id}: no proposals survived")

    return np.stack(kept)


def make_scene(scene_cfg: SceneConfig, prop_cfg: ProposalConfig, seed: int,
               scene_id: int) -> SceneRecord:
    """The scene of (seed, scene_id) with its proposal pool and the pool's
    contact graph; the annotation marks each drawn class present and
    boxes each instance."""
    gt, image, edges, seeds = gen_scene(scene_cfg, seed, scene_id)
    pool = gen_proposals(gt, seeds, prop_cfg, seed, scene_id)
    presence = np.zeros(scene_cfg.num_classes, dtype=np.int8)
    presence[gt.class_ids - 1] = 1
    return SceneRecord(
        scene_id=scene_id,
        width=scene_cfg.width,
        height=scene_cfg.height,
        num_classes=scene_cfg.num_classes,
        image=image,
        edges=edges,
        gt=gt,
        annotation=Annotation(presence=presence, boxes=np.column_stack(
            [gt.class_ids, tight_boxes(gt.masks)])),
        seeds=seeds,
        pool=pool,
        adjacency=build_adjacency(pool, edges, dilation=DILATION),
    )
