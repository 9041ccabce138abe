"""Static rendering of sample evolution: one PPM panel per scene.

Each panel row is one outer iteration; within a row the first cell shows
the raw scene, the middle cells show the K conditional sample labelings
and the last cell shows the decoded predictions at that point. Binary
PPM (P6) needs no image library and opens everywhere.
"""

import os
import tempfile

import numpy as np

from .prednet import decoded_prediction
from .scenes import DatasetFormatError
from .synthgen import PALETTE

CELL_SCALE = 2  # nearest-neighbor upscaling factor per cell
MARGIN = 2  # white separator between cells, in output pixels
LABEL_ALPHA = 0.55
DIM = 0.45


def write_ppm(path: str, img: np.ndarray) -> None:
    """img: (H, W, 3) uint8."""
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ValueError("expected an (H, W, 3) uint8 array")
    with open(path, "wb") as fh:
        fh.write(f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def _base(rec, dim: float = 1.0) -> np.ndarray:
    return np.clip(rec.image * dim, 0.0, 1.0).copy()


def _blend(img: np.ndarray, mask: np.ndarray, color, alpha: float) -> None:
    img[mask] = (1.0 - alpha) * img[mask] + alpha * np.asarray(color)


def labeling_image(rec, labels) -> np.ndarray:
    """Dimmed scene with every selected proposal tinted by its class color."""
    if len(labels) != rec.num_proposals:
        raise DatasetFormatError(
            f"scene {rec.scene_id}: a sampled labeling holds {len(labels)} "
            f"labels for {rec.num_proposals} proposals")
    img = _base(rec, DIM)
    for u, c in enumerate(labels):
        if c > 0:
            _blend(img, rec.pool[u], PALETTE[(c - 1) % len(PALETTE)],
                   LABEL_ALPHA)
    return img


def decode_image(rec, decoded) -> np.ndarray:
    """Dimmed scene with decoded predictions tinted by class color.

    decoded entries are prediction dicts as infer writes them, checked by
    decoded_prediction.
    """
    img = _base(rec, DIM)
    for d in decoded:
        pred = decoded_prediction(rec, d)
        _blend(img, rec.pool[pred.proposal_index],
               PALETTE[(pred.class_id - 1) % len(PALETTE)], LABEL_ALPHA)
    return img


def _to_cell(img: np.ndarray) -> np.ndarray:
    out = (np.clip(img, 0.0, 1.0) * 255.0).round().astype(np.uint8)
    return np.repeat(np.repeat(out, CELL_SCALE, axis=0), CELL_SCALE, axis=1)


def compose_grid(cells: list) -> np.ndarray:
    """cells: list of rows, each a list of equally sized uint8 images."""
    ch, cw = cells[0][0].shape[:2]
    rows, cols = len(cells), max(len(r) for r in cells)
    height = rows * ch + (rows + 1) * MARGIN
    width = cols * cw + (cols + 1) * MARGIN
    canvas = np.full((height, width, 3), 255, dtype=np.uint8)
    for i, row in enumerate(cells):
        for j, cell in enumerate(row):
            y = MARGIN + i * (ch + MARGIN)
            x = MARGIN + j * (cw + MARGIN)
            canvas[y:y + ch, x:x + cw] = cell
    return canvas


def scene_panel(rec, iterations: list) -> np.ndarray:
    """iterations: dicts with keys "samples" (list of labelings) and
    "decode" (list of prediction entries); one grid row each."""
    rows = []
    for entry in iterations:
        row = [_to_cell(_base(rec))]
        for labels in entry["samples"]:
            row.append(_to_cell(labeling_image(rec, labels)))
        row.append(_to_cell(decode_image(rec, entry["decode"])))
        rows.append(row)
    return compose_grid(rows)


def render_predictions(pred_obj: dict, records_by_id: dict,
                       out_dir: str) -> list:
    """One panel file per scene in the prediction dump; returns the paths.
    The panels are written into a temporary directory next to out_dir and
    moved into it once every one is drawn, so a malformed entry leaves no
    new panel behind."""
    os.makedirs(out_dir, exist_ok=True)
    names = []
    with tempfile.TemporaryDirectory(
            dir=os.path.dirname(os.path.abspath(out_dir))) as tmp:
        for entry in pred_obj["scenes"]:
            rec = records_by_id[entry["scene_id"]]
            iterations = list(entry.get("iterations", []))
            if "final" in entry:
                iterations.append(entry["final"])
            if not iterations:
                continue
            names.append(f"scene_{entry['scene_id']:04d}.ppm")
            write_ppm(os.path.join(tmp, names[-1]), scene_panel(rec, iterations))
        # a scene listed twice is drawn twice, its last panel kept
        for name in set(names):
            os.replace(os.path.join(tmp, name), os.path.join(out_dir, name))
    return [os.path.join(out_dir, name) for name in names]
