"""Binary mask primitives: geometry, overlap measures, RLE codec.

Masks are 2-D bool arrays of shape (H, W). The morphology primitives take
a (..., H, W) stack and treat each mask on its own, a single mask being
the stack with no leading axis; tight boxes and the RLE codec work over a
(P, H, W) stack, and the single-mask calls are its one-row case. A stack
of boxes is a (B, 4) int64 array of rows (x_min, y_min, x_max, y_max) in
inclusive pixel coordinates.
"""

from __future__ import annotations

import numpy as np


def tight_boxes(masks: np.ndarray) -> np.ndarray:
    """The (P, 4) boxes of a (P, H, W) stack, each the smallest containing
    every set pixel of its mask, from row and column `any` over the stack.
    Errors on an empty mask."""
    rows = masks.any(axis=2)
    cols = masks.any(axis=1)
    if not rows.any(axis=1).all():
        raise ValueError("tight_box: empty mask")
    h, w = masks.shape[1:]
    return np.stack([cols.argmax(axis=1), rows.argmax(axis=1),
                     w - 1 - cols[:, ::-1].argmax(axis=1),
                     h - 1 - rows[:, ::-1].argmax(axis=1)],
                    axis=1).astype(np.int64, copy=False)


def box_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N, M) IoU of each of N boxes against each of M boxes. Intersections
    and areas are exact int64 pixel counts, divided once."""
    side = np.maximum(np.minimum(a[:, None, 2:], b[None, :, 2:])
                      - np.maximum(a[:, None, :2], b[None, :, :2]) + 1, 0)
    inter = side[..., 0] * side[..., 1]
    area_a = (a[:, 2] - a[:, 0] + 1) * (a[:, 3] - a[:, 1] + 1)
    area_b = (b[:, 2] - b[:, 0] + 1) * (b[:, 3] - b[:, 1] + 1)
    return inter / (area_a[:, None] + area_b[None, :] - inter)


def dilate(mask: np.ndarray, steps: int = 1) -> np.ndarray:
    """Chebyshev (8-connected) dilation by `steps` pixels of a (..., H, W)
    stack of masks, each mask on its own; a fresh array."""
    out = mask.astype(bool)
    for _ in range(steps):
        # the 3x3 square is a row segment swept along the columns
        m = out.copy()
        m[..., :, 1:] |= out[..., :, :-1]
        m[..., :, :-1] |= out[..., :, 1:]
        out = m.copy()
        out[..., 1:, :] |= m[..., :-1, :]
        out[..., :-1, :] |= m[..., 1:, :]
    return out


def erode(mask: np.ndarray, steps: int = 1) -> np.ndarray:
    """8-connected erosion of a (..., H, W) stack of masks; pixels outside
    the frame count as unset."""
    if steps < 0:
        raise ValueError("erode: steps must be non-negative")
    if steps == 0:
        return mask.astype(bool)
    out = ~dilate(~mask.astype(bool), steps)
    # every pixel within `steps` of the border sees an outside pixel
    out[..., :steps, :] = False
    out[..., -steps:, :] = False
    out[..., :, :steps] = False
    out[..., :, -steps:] = False
    return out


def inner_boundary(mask: np.ndarray) -> np.ndarray:
    """Set pixels with an unset 8-neighbor (or on the image border), for
    each mask of a (..., H, W) stack."""
    m = mask.astype(bool)
    return m & ~erode(m, 1)


def rle_encode_stack(masks: np.ndarray) -> list:
    """Row-major run-length encodings of a (P, H, W) stack, one dict per
    mask; counts start with a zeros run (0 when the first pixel is set)."""
    p, h, w = masks.shape
    n = h * w
    flat = masks.reshape(p, n)
    # run starts: pixels that differ from the one before them, the first
    # pixel of a row against an unset one
    starts = np.empty((p, n), dtype=bool)
    starts[:, :1] = flat[:, :1]
    np.not_equal(flat[:, 1:], flat[:, :-1], out=starts[:, 1:])
    runs = np.flatnonzero(starts)
    # every row's bounds [r*n, run starts..., (r+1)*n] in one sorted list:
    # one diff gives each row's counts, a set first pixel a leading 0
    first = np.searchsorted(runs, np.arange(p + 1) * n) + np.arange(p + 1)
    bounds = np.empty(runs.size + p + 1, dtype=np.int64)
    at_run = np.ones(bounds.size, dtype=bool)
    at_run[first] = False
    bounds[first] = np.arange(p + 1) * n
    bounds[at_run] = runs
    counts = np.diff(bounds).tolist()
    first = first.tolist()
    return [{"counts": counts[a:b], "size": [h, w]}
            for a, b in zip(first, first[1:])]


def rle_decode_stack(rles: list) -> np.ndarray:
    """The (P, H, W) stack of P encodings of one frame size. Errors on runs
    that are negative or do not fill the frame."""
    if not rles:
        raise ValueError("rle_decode_stack: no masks")
    h, w = rles[0]["size"]
    if any(r["size"] != rles[0]["size"] for r in rles):
        raise ValueError("rle masks differ in size")
    lengths = [len(r["counts"]) for r in rles]
    counts = np.array([c for r in rles for c in r["counts"]])
    if counts.size and counts.dtype.kind not in "iu":
        raise ValueError("rle counts must be integer runs")
    counts = counts.astype(np.int64)
    if (counts < 0).any():
        raise ValueError("rle counts must not be negative")
    ends = np.cumsum(lengths)
    total = np.concatenate(([0], np.cumsum(counts)))
    filled = total[ends] - total[ends - lengths]
    if (filled != h * w).any():
        raise ValueError(f"rle length {int(filled[filled != h * w][0])} "
                         f"does not match size {h}x{w}")
    # runs alternate unset, set, unset, ... from each mask's first run
    index = np.arange(counts.size) - np.repeat(ends - lengths, lengths)
    return np.repeat(index % 2 == 1, counts).reshape(len(rles), h, w)


def _flat(masks: np.ndarray) -> np.ndarray:
    """The (N, H * W) rows of an (N, H, W) stack, N possibly 0."""
    n, h, w = masks.shape
    return masks.reshape(n, h * w)


def intersection_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(A, B) intersection pixel counts of each mask of an (A, H, W) stack
    with each mask of a (B, H, W) stack. The float32 sums are exact
    integers while H * W < 2**24."""
    fa, fb = _flat(a).astype(np.float32), _flat(b).astype(np.float32)
    return (fa @ fb.T).astype(np.int64)


def iou_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(A, B) intersection over union of each mask of an (A, H, W) stack
    with each mask of a (B, H, W) stack: exact int pixel counts divided
    once, so an entry is bit-equal to the Python int division of its
    counts. Two empty masks have IoU 0 by convention."""
    inter = intersection_counts(a, b)
    area_a = np.count_nonzero(_flat(a), axis=1)
    area_b = np.count_nonzero(_flat(b), axis=1)
    union = area_a[:, None] + area_b[None, :] - inter
    return np.divide(inter, union, out=np.zeros(inter.shape),
                     where=union > 0)


def overlap_fraction_matrix(pool: np.ndarray) -> np.ndarray:
    """ovl[i, l] = |mask_i ∩ mask_l| / |mask_l| for a stacked pool."""
    counts = intersection_counts(pool, pool)
    areas = counts.diagonal().astype(np.float64)
    if (areas == 0).any():
        raise ValueError("pool contains an empty mask")
    return counts / areas[None, :]
