import numpy as np
import pytest

from annoconsist import kernels
from annoconsist.adjacency import build_adjacency
from annoconsist.masks import overlap_fraction_matrix
from annoconsist.scenes import (
    Annotation,
    DatasetFormatError,
    Instances,
    PoolGeometry,
    iter_dataset,
    load_dataset,
    save_dataset,
    scene_from_obj,
    scene_to_obj,
)
from annoconsist.synthgen import ProposalConfig, SceneConfig, make_scene

from conftest import instances, make_record, rect_mask
from oracles import num_edges


def _sample_record():
    rng = np.random.default_rng(9)
    masks = [rect_mask(16, 16, 2, 8, 2, 8), rect_mask(16, 16, 6, 12, 6, 12),
             rect_mask(16, 16, 10, 15, 1, 6)]
    edges = rng.random((16, 16)).astype(np.float32)
    image = rng.random((16, 16, 3)).astype(np.float32)
    gt = instances([(1, masks[0]), (2, masks[2])], (16, 16))
    seeds = instances([(1, rect_mask(16, 16, 4, 6, 4, 6)),
                       (2, rect_mask(16, 16, 11, 13, 2, 4))], (16, 16))
    return make_record(masks, [1, 2], edges=edges, image=image, seeds=seeds,
                       gt=gt, boxes=[[1, 2, 2, 7, 7], [2, 1, 10, 5, 14]],
                       scene_id=17)


def _assert_records_equal(a, b):
    assert a.scene_id == b.scene_id
    assert (a.width, a.height, a.num_classes) == (b.width, b.height, b.num_classes)
    np.testing.assert_allclose(a.image, b.image, atol=1e-7)
    np.testing.assert_allclose(a.edges, b.edges, atol=1e-7)
    np.testing.assert_array_equal(a.pool, b.pool)
    np.testing.assert_array_equal(a.annotation.presence, b.annotation.presence)
    if a.annotation.boxes is None:
        assert b.annotation.boxes is None
    else:
        assert b.annotation.boxes.dtype == np.int64
        assert a.annotation.boxes.shape == b.annotation.boxes.shape
        np.testing.assert_array_equal(a.annotation.boxes, b.annotation.boxes)
    for ia, ib in ((a.gt, b.gt), (a.seeds, b.seeds)):
        assert isinstance(ib, Instances)
        assert ib.class_ids.dtype == np.int64 and ib.masks.dtype == np.bool_
        np.testing.assert_array_equal(ia.class_ids, ib.class_ids)
        assert ia.masks.shape == ib.masks.shape
        np.testing.assert_array_equal(ia.masks, ib.masks)
    assert num_edges(a.adjacency) == num_edges(b.adjacency)
    for name in ("edge_u", "edge_v", "edge_w"):
        np.testing.assert_array_equal(getattr(a.adjacency, name),
                                      getattr(b.adjacency, name))


def test_obj_roundtrip_preserves_record():
    rec = _sample_record()
    _assert_records_equal(rec, scene_from_obj(scene_to_obj(rec)))


def test_generated_scene_roundtrips_through_file(tmp_path):
    rec = make_scene(SceneConfig(), ProposalConfig(), seed=4, scene_id=3)
    path = tmp_path / "one.jsonl"
    save_dataset(path, [rec])
    loaded = load_dataset(path)
    assert len(loaded) == 1
    _assert_records_equal(rec, loaded[0])


def test_save_load_many_preserves_order(tmp_path):
    recs = [make_scene(SceneConfig(), ProposalConfig(), seed=1, scene_id=i)
            for i in range(3)]
    path = tmp_path / "many.jsonl"
    save_dataset(path, recs)
    loaded = load_dataset(path)
    assert [r.scene_id for r in loaded] == [0, 1, 2]


def test_truncated_json_reports_line_number(tmp_path):
    rec = _sample_record()
    path = tmp_path / "broken.jsonl"
    save_dataset(path, [rec, rec])
    text = path.read_text()
    lines = text.splitlines()
    lines[1] = lines[1][: len(lines[1]) // 2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_dataset(path)


def test_iter_dataset_parses_a_line_only_when_it_is_reached(tmp_path):
    rec = _sample_record()
    path = tmp_path / "broken.jsonl"
    save_dataset(path, (rec for _ in range(4)))  # any iterable of scenes
    lines = path.read_text().splitlines()
    lines[2] = lines[2][: len(lines[2]) // 2]
    path.write_text("\n".join(lines) + "\n")
    scenes = iter_dataset(path)
    for _ in range(2):
        _assert_records_equal(next(scenes), rec)
    with pytest.raises(DatasetFormatError, match="line 3"):
        next(scenes)
    with pytest.raises(DatasetFormatError, match="line 3"):
        load_dataset(path)


def test_wrong_format_version_rejected():
    obj = scene_to_obj(_sample_record())
    obj["format_version"] = 99
    with pytest.raises(DatasetFormatError, match="format_version"):
        scene_from_obj(obj)


def test_missing_key_rejected():
    obj = scene_to_obj(_sample_record())
    del obj["pool"]
    with pytest.raises(DatasetFormatError, match="malformed"):
        scene_from_obj(obj)


def test_blank_lines_are_skipped(tmp_path):
    rec = _sample_record()
    path = tmp_path / "gaps.jsonl"
    save_dataset(path, [rec])
    path.write_text("\n" + path.read_text() + "\n\n")
    assert len(load_dataset(path)) == 1


def test_annotation_classes_and_without_boxes():
    ann = Annotation(presence=np.array([1, 0, 1], dtype=np.int8),
                     boxes=np.array([[1, 0, 0, 3, 3]]))
    np.testing.assert_array_equal(ann.classes, [1, 3])
    stripped = ann.without_boxes()
    assert stripped.boxes is None
    np.testing.assert_array_equal(stripped.presence, ann.presence)
    assert ann.boxes is not None  # original untouched


def test_restricted_tables_are_those_of_the_cut_pool():
    rec = _sample_record()
    keep = np.array([0, 2])
    geom = rec.geometry().restrict(keep)
    want = PoolGeometry.from_pool(rec.pool[keep])
    assert geom.boxes.tobytes() == want.boxes.tobytes()
    assert geom.ovl.tobytes() == want.ovl.tobytes()
    # masks 0 and 2 do not touch: no edges in the restricted graph
    sub = rec.adjacency.restrict(keep)
    assert num_edges(sub) == 0
    assert num_edges(build_adjacency(rec.pool[keep], rec.edges)) == 0


def test_new_pools_do_not_inherit_the_caches_of_the_old_one():
    # the full pool's keep masks and covering sets name its own proposal
    # ids, so a restricted geometry builds its own from the cut tables
    rec = make_scene(SceneConfig(), ProposalConfig(), seed=1, scene_id=1)
    geom = rec.geometry()
    boxes = rec.annotation.boxes[:, 1:]
    geom.keep_masks(0.5), geom.covering(boxes, 0.5)
    keep = np.arange(0, rec.num_proposals, 2)
    sub = geom.restrict(keep)
    assert not sub._keep and not sub._covering
    cold = PoolGeometry.from_pool(rec.pool[keep])
    assert sub.keep_masks(0.5) == cold.keep_masks(0.5)
    assert sub.covering(boxes, 0.5)[1] == cold.covering(boxes, 0.5)[1]


def test_geometry_holds_the_overlap_matrix_and_builds_keep_masks_once():
    rec = make_scene(SceneConfig(), ProposalConfig(), seed=11, scene_id=0)
    geom = rec.geometry()
    assert rec.geometry() is geom
    assert geom.ovl.tobytes() == overlap_fraction_matrix(rec.pool).tobytes()
    assert geom.keep_masks(0.5) == kernels.keep_masks(geom.ovl, 0.5)
    assert geom.keep_masks(0.5) is geom.keep_masks(0.5)


def test_covering_is_built_once_per_boxes_and_rho():
    rec = make_scene(SceneConfig(), ProposalConfig(), seed=11, scene_id=0)
    geom = rec.geometry()
    boxes = rec.annotation.boxes[:, 1:]
    cover, ids = geom.covering(boxes, 0.5)
    assert cover.shape == (len(boxes), rec.num_proposals)
    assert cover.dtype == np.bool_ and not cover.flags.writeable
    assert ids == tuple(tuple(int(u) for u in np.flatnonzero(row))
                        for row in cover)
    assert all(type(u) is int for row in ids for u in row)
    # an equal array (a copy, here contiguous) hits the same entry
    assert geom.covering(boxes.copy(), 0.5)[0] is cover
    assert geom.covering(boxes, 0.5)[1] is ids
    loose, _ = geom.covering(boxes, 0.1)
    assert loose is not cover and (loose | ~cover).all()
    assert len(geom._covering) == 2
