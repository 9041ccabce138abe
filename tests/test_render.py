import numpy as np
import pytest

from annoconsist.render import (
    CELL_SCALE,
    MARGIN,
    compose_grid,
    decode_image,
    labeling_image,
    render_predictions,
    scene_panel,
    write_ppm,
)
from annoconsist.synthgen import PALETTE

from conftest import make_record, rect_mask


def _rec():
    return make_record([rect_mask(8, 8, 0, 4, 0, 4),
                        rect_mask(8, 8, 4, 8, 4, 8)], [1, 2])


def test_write_ppm_format_and_validation(tmp_path):
    img = np.zeros((2, 3, 3), dtype=np.uint8)
    img[0, 0] = (255, 0, 0)
    path = tmp_path / "img.ppm"
    write_ppm(str(path), img)
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n3 2\n255\n")
    assert raw[-18:] == img.tobytes()[-18:]
    with pytest.raises(ValueError):
        write_ppm(str(path), np.zeros((2, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        write_ppm(str(path), np.zeros((2, 3, 3), dtype=np.float64))


def test_labeling_image_tints_selected_proposals_only():
    rec = _rec()
    img = labeling_image(rec, [1, 0])
    assert img.shape == (8, 8, 3)
    tinted = img[rec.pool[0]]
    plain = img[rec.pool[1] & ~rec.pool[0]]
    # tinted pixels move toward the class color, untinted ones stay dimmed
    assert not np.allclose(tinted.mean(axis=0), plain.mean(axis=0))
    base = labeling_image(rec, [0, 0])
    np.testing.assert_allclose(img[~rec.pool[0]], base[~rec.pool[0]])


def test_decode_image_tints_the_predictions_infer_writes():
    rec = _rec()
    as_dict = decode_image(
        rec, [{"proposal_index": 0, "class_id": 1, "confidence": 0.9}])
    np.testing.assert_allclose(as_dict, labeling_image(rec, [1, 0]))


def test_compose_grid_dimensions():
    cell = np.zeros((4, 6, 3), dtype=np.uint8)
    grid = compose_grid([[cell, cell], [cell]])
    assert grid.shape == (2 * 4 + 3 * MARGIN, 2 * 6 + 3 * MARGIN, 3)
    # the short row leaves white space
    assert (grid[MARGIN + 4 + MARGIN:, MARGIN + 6 + MARGIN:] == 255).all()


def test_scene_panel_rows_and_scaling():
    rec = _rec()
    iterations = [
        {"samples": [[1, 0], [0, 2]], "decode": []},
        {"samples": [[1, 2], [1, 0]],
         "decode": [{"proposal_index": 1, "class_id": 2,
                     "confidence": 0.9}]},
    ]
    panel = scene_panel(rec, iterations)
    ch = 8 * CELL_SCALE
    cw = 8 * CELL_SCALE
    # 2 rows x (1 base + 2 samples + 1 decode) cells
    assert panel.shape == (2 * ch + 3 * MARGIN, 4 * cw + 5 * MARGIN, 3)
    assert panel.dtype == np.uint8


def test_render_predictions_writes_one_file_per_scene(tmp_path):
    rec = _rec()
    pred_obj = {
        "format_version": 1,
        "scenes": [{
            "scene_id": 0,
            "iterations": [{"samples": [[1, 0]], "decode": []}],
            "final": {"samples": [[1, 2]],
                      "decode": [{"proposal_index": 0, "class_id": 1,
                                  "confidence": 0.9}]},
        }],
    }
    paths = render_predictions(pred_obj, {0: rec}, str(tmp_path))
    assert len(paths) == 1
    assert paths[0].endswith("scene_0000.ppm")
    with open(paths[0], "rb") as fh:
        assert fh.read(2) == b"P6"
    assert len(PALETTE) >= 3
