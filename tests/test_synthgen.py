import dataclasses
import json

import numpy as np
import pytest

from annoconsist.condnet import InferenceConfig
from annoconsist.masks import tight_boxes
from annoconsist.scenes import scene_to_obj
from annoconsist.synthgen import (
    BACKGROUND,
    MIN_AREA,
    PALETTE,
    SEED_FRACTION,
    ProposalConfig,
    SceneConfig,
    gen_scene,
    make_scene,
)
from annoconsist.train import TrainConfig, prepare_records, prepare_scene

from oracles import (attach_proposals, box_iou, gen_scene_record,
                     make_dataset, tight_box)


def test_same_seed_gives_identical_scene():
    a = make_scene(SceneConfig(), ProposalConfig(), seed=7, scene_id=2)
    b = make_scene(SceneConfig(), ProposalConfig(), seed=7, scene_id=2)
    assert json.dumps(scene_to_obj(a), sort_keys=True) == json.dumps(
        scene_to_obj(b), sort_keys=True)


def test_different_seeds_differ():
    a = make_scene(SceneConfig(), ProposalConfig(), seed=7, scene_id=2)
    b = make_scene(SceneConfig(), ProposalConfig(), seed=8, scene_id=2)
    assert json.dumps(scene_to_obj(a), sort_keys=True) != json.dumps(
        scene_to_obj(b), sort_keys=True)


def test_make_scene_equals_the_two_step_record():
    # one record built from the drawn scene and its pool serializes as the
    # empty-pool record with the pool attached after
    for seed in range(6):
        for pcfg in (ProposalConfig(), ProposalConfig(include_gt=False)):
            got = make_scene(SceneConfig(), pcfg, seed=seed, scene_id=seed)
            want = attach_proposals(
                gen_scene_record(SceneConfig(), seed=seed, scene_id=seed),
                pcfg, seed=seed)
            assert json.dumps(scene_to_obj(got)) == json.dumps(
                scene_to_obj(want))


def test_scene_invariants_over_many_seeds():
    cfg = SceneConfig()
    for seed in range(12):
        rec = make_scene(cfg, ProposalConfig(), seed=seed, scene_id=seed)
        n = rec.gt.class_ids.size
        assert 1 <= n <= cfg.max_objects
        assert rec.gt.class_ids.dtype == np.int64
        assert rec.gt.masks.shape == (n, cfg.height, cfg.width)
        assert rec.seeds.masks.shape == rec.gt.masks.shape
        # each seed has its instance's class
        np.testing.assert_array_equal(rec.seeds.class_ids, rec.gt.class_ids)
        union = np.zeros((cfg.height, cfg.width), dtype=bool)
        present = set()
        for c, g, s in zip(rec.gt.class_ids.tolist(), rec.gt.masks,
                           rec.seeds.masks):
            # zero-overlap placement
            assert not (g & union).any()
            union |= g
            # seed is inside its instance and within the configured fraction
            assert (s & ~g).sum() == 0
            frac = s.sum() / g.sum()
            assert SEED_FRACTION[0] - 0.05 <= frac <= SEED_FRACTION[1] + 0.05
            present.add(c)
        np.testing.assert_array_equal(
            np.nonzero(rec.annotation.presence)[0] + 1, sorted(present))
        # boxes are tight boxes of the instances, one per instance
        boxes = rec.annotation.boxes
        assert boxes.dtype == np.int64 and boxes.shape == (n, 5)
        for (c, *box), g_c, g in zip(boxes.tolist(),
                                     rec.gt.class_ids.tolist(), rec.gt.masks):
            assert c == g_c
            assert box == tight_box(g).tolist()


def test_objects_are_painted_with_class_colors():
    # the per-channel noise averages out over an object's pixels
    gt, image, _, _ = gen_scene(SceneConfig(), seed=3, scene_id=0)
    for c, g in zip(gt.class_ids.tolist(), gt.masks):
        mean_rgb = image[g].mean(axis=0)
        np.testing.assert_allclose(mean_rgb, PALETTE[c - 1], atol=0.02)
    bg = ~np.any(gt.masks, axis=0)
    np.testing.assert_allclose(image[bg].mean(axis=0), BACKGROUND, atol=0.05)


def test_pool_contains_gt_and_respects_min_area():
    rec = make_scene(SceneConfig(), ProposalConfig(), seed=5, scene_id=1)
    pool_keys = {rec.pool[i].tobytes() for i in range(rec.num_proposals)}
    for g in rec.gt.masks:
        assert g.tobytes() in pool_keys
    for i in range(rec.num_proposals):
        assert rec.pool[i].sum() >= MIN_AREA


def test_pool_proposals_touch_a_seed_when_filtered():
    rec = make_scene(SceneConfig(), ProposalConfig(), seed=5, scene_id=1)
    seed_union = np.zeros((rec.height, rec.width), dtype=bool)
    for s in rec.seeds.masks:
        seed_union |= s
    for i in range(rec.num_proposals):
        assert (rec.pool[i] & seed_union).any()


def test_pool_has_no_duplicates():
    rec = make_scene(SceneConfig(), ProposalConfig(), seed=2, scene_id=0)
    keys = [rec.pool[i].tobytes() for i in range(rec.num_proposals)]
    assert len(keys) == len(set(keys))


def test_make_dataset_ids_and_determinism():
    recs = make_dataset(SceneConfig(), ProposalConfig(), 4, seed=0, start_id=10)
    assert [r.scene_id for r in recs] == [10, 11, 12, 13]
    again = make_dataset(SceneConfig(), ProposalConfig(), 4, seed=0, start_id=10)
    for a, b in zip(recs, again):
        assert json.dumps(scene_to_obj(a), sort_keys=True) == json.dumps(
            scene_to_obj(b), sort_keys=True)


BOX = TrainConfig(supervision="box")


def test_box_regime_keeps_the_proposals_that_cover_a_box():
    rec = make_scene(SceneConfig(), ProposalConfig(), seed=11, scene_id=0)
    for rho in (0.3, 0.5, 0.7):
        sub = prepare_scene(rec, BOX, InferenceConfig(box_rho=rho))
        keep = sub.pool_index
        assert keep.size > 0
        assert sub.geometry().boxes.tobytes() == tight_boxes(
            rec.pool[keep]).tobytes()
        kept = set(keep.tolist())
        for i in range(rec.num_proposals):
            tb = tight_box(rec.pool[i])
            best = max(box_iou(tb, b) for _, *b in rec.annotation.boxes.tolist())
            assert (i in kept) == (best >= rho)


def test_box_regime_keeps_gt_coverable():
    rec = make_scene(SceneConfig(), ProposalConfig(), seed=11, scene_id=0)
    (sub,), _ = prepare_records([rec], BOX, InferenceConfig())
    assert sub.num_proposals <= rec.num_proposals
    # every ground-truth instance keeps a proposal of IoU >= 0.5
    assert sub.gt_iou.shape == (sub.num_proposals, len(sub.gt_class_ids))
    assert (sub.gt_iou.max(axis=0) >= 0.5).all()


def test_box_regime_requires_boxes():
    rec = make_scene(SceneConfig(), ProposalConfig(), seed=11, scene_id=0)
    bare = dataclasses.replace(rec, annotation=rec.annotation.without_boxes())
    with pytest.raises(ValueError, match="no box annotations"):
        prepare_scene(bare, BOX, InferenceConfig())


def test_box_regime_skips_a_scene_with_no_box_or_an_uncoverable_box():
    rec = make_scene(SceneConfig(), ProposalConfig(), seed=11, scene_id=0)
    ann = rec.annotation
    empty = dataclasses.replace(rec, annotation=dataclasses.replace(
        ann, boxes=np.zeros((0, 5), dtype=np.int64)))
    assert prepare_scene(empty, BOX, InferenceConfig()) is None
    # no proposal's tight box equals a box that ends past the frame
    wide = ann.boxes[0].copy()
    wide[3] = rec.width
    far = dataclasses.replace(rec, annotation=dataclasses.replace(
        ann, boxes=np.vstack([ann.boxes, wide])))
    assert prepare_scene(far, BOX, InferenceConfig(box_rho=1.0)) is None
    assert prepare_scene(rec, BOX, InferenceConfig(box_rho=1.0)) is not None


def test_scene_config_caps_enforced():
    with pytest.raises(ValueError):
        SceneConfig(height=256)
    with pytest.raises(ValueError):
        SceneConfig(num_classes=9)
