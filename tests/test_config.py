import json

import pytest

from annoconsist.config import (
    ConfigError,
    EvalConfig,
    RunConfig,
    config_from_obj,
    config_to_obj,
    load_config,
    save_config,
)


def test_empty_object_yields_defaults():
    cfg = config_from_obj({})
    assert cfg.seed == 0
    assert cfg.n_scenes == 50
    assert cfg.scene.height == 48
    assert cfg.train.k == 10
    assert cfg.eval.thresholds == (0.25, 0.50, 0.70, 0.75)


def test_sections_override_defaults_and_lists_become_tuples():
    cfg = config_from_obj({
        "seed": 3,
        "scene": {"height": 32, "width": 40},
        "train": {"k": 4, "term_mode": "U+P"},
        "eval": {"thresholds": [0.5, 0.75]},
    })
    assert cfg.seed == 3
    assert (cfg.scene.height, cfg.scene.width) == (32, 40)
    assert cfg.train.k == 4 and cfg.train.term_mode == "U+P"
    assert cfg.eval.thresholds == (0.5, 0.75)
    assert isinstance(cfg.eval.thresholds, tuple)


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="top level.*unknown keys.*trian"):
        config_from_obj({"trian": {}})


def test_unknown_section_key_rejected_with_location():
    with pytest.raises(ConfigError, match="train: unknown keys.*leraning_rate"):
        config_from_obj({"train": {"leraning_rate": 0.1}})
    with pytest.raises(ConfigError, match="scene"):
        config_from_obj({"scene": {"hieght": 32}})


def test_scalars_must_be_integers_and_bools_are_rejected():
    with pytest.raises(ConfigError, match="seed"):
        config_from_obj({"seed": "7"})
    with pytest.raises(ConfigError, match="seed"):
        config_from_obj({"seed": True})
    with pytest.raises(ConfigError, match="n_scenes"):
        config_from_obj({"n_scenes": 2.5})


def test_section_must_be_an_object():
    with pytest.raises(ConfigError, match="train: expected an object"):
        config_from_obj({"train": 5})


def test_invalid_section_values_surface_with_section_name():
    with pytest.raises(ConfigError, match="train"):
        config_from_obj({"train": {"optimizer": "rmsprop"}})
    with pytest.raises(ConfigError, match="eval"):
        config_from_obj({"eval": {"thresholds": [1.5]}})
    with pytest.raises(ConfigError):
        config_from_obj({"n_scenes": 0})


def test_roundtrip_through_file_preserves_everything(tmp_path):
    cfg = config_from_obj({
        "seed": 11,
        "n_scenes": 5,
        "n_eval_scenes": 2,
        "scene": {"height": 32, "num_classes": 2},
        "inference": {"delta": 8.0, "n_iters": 2},
        "train": {"k": 3, "gamma": 0.25, "supervision": "box"},
        "eval": {"thresholds": [0.5]},
    })
    path = tmp_path / "run.json"
    save_config(str(path), cfg)
    back = load_config(str(path))
    assert back == cfg
    # the serialized form is plain JSON with no tuples
    obj = json.loads(path.read_text())
    assert obj["eval"]["thresholds"] == [0.5]
    assert config_to_obj(back) == obj


def test_load_config_reports_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(path))


def test_eval_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(thresholds=())
    with pytest.raises(ValueError):
        EvalConfig(thresholds=(0.0,))
    assert EvalConfig(thresholds=(1.0,)).thresholds == (1.0,)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(n_scenes=0)
    with pytest.raises(ValueError):
        RunConfig(n_eval_scenes=-1)


def test_shipped_reference_and_smoke_configs_parse():
    ref = load_config("configs/reference.json")
    assert ref.n_scenes == 50
    assert ref.train.k == 10
    assert ref.train.gamma == 0.5
    assert ref.train.epsilon == 1.0
    assert ref.train.outer_iters == 4
    assert ref.inference.delta == 8.0
    smoke = load_config("configs/smoke.json")
    assert smoke.n_scenes <= 10


@pytest.mark.parametrize("section, key, value", [
    ("inference", "delta", 0.0),
    ("inference", "delta", -1.0),
    ("inference", "n_iters", -1),
    ("inference", "overlap_t", -0.1),
    ("inference", "overlap_t", 2.0),
    ("inference", "box_rho", -0.1),
    ("inference", "box_rho", 1.5),
    ("train", "decode_thresh", -0.1),
    ("train", "decode_thresh", 2.0),
    ("train", "term_mode", "x"),
    ("train", "scorer_kind", "x"),
    ("scene", "num_classes", 0),
    ("scene", "min_objects", 4),
    ("scene", "min_objects", 0),
    ("scene", "min_objects", -1),
    ("scene", "min_extent", 21),
    # margin 3, max_extent 20: a shape's center range is empty below 27
    ("scene", "height", 26),
    ("scene", "width", 26),
    ("scene", "height", 16),
    ("proposal", "p_target", 0),
    ("proposal", "distractor_extent", [11, 6]),
])
def test_out_of_range_values_are_rejected_at_load_time(section, key, value):
    with pytest.raises(ConfigError, match=f"{section}: {key}"):
        config_from_obj({section: {key: value}})


@pytest.mark.parametrize("section, key, value", [
    ("inference", "n_iters", 0),
    ("inference", "overlap_t", 0.0),
    ("inference", "overlap_t", 1.0),
    ("inference", "box_rho", 0.0),
    ("inference", "box_rho", 1.0),
    ("train", "decode_thresh", 0.0),
    ("train", "decode_thresh", 1.0),
    ("scene", "num_classes", 1),
    ("scene", "min_objects", 3),
    ("scene", "min_objects", 1),
    ("scene", "min_extent", 20),
    ("scene", "height", 27),
    ("scene", "width", 27),
    ("proposal", "p_target", 1),
    ("proposal", "distractor_extent", (6, 6)),
])
def test_range_endpoints_are_accepted(section, key, value):
    cfg = config_from_obj({section: {key: value}})
    assert getattr(getattr(cfg, section), key) == value


def test_frame_bound_follows_margin_and_max_extent():
    # 2*margin + 2*(max_extent // 2) + 1: odd extents round down
    scene = {"margin": 0, "min_extent": 4, "max_extent": 7}
    assert config_from_obj({"scene": dict(scene, height=13, width=13),
                            "proposal": {"distractor_count": 0}})
    with pytest.raises(ConfigError, match="scene: height must be at least 7"):
        config_from_obj({"scene": dict(scene, height=6, width=13),
                         "proposal": {"distractor_count": 0}})


def test_distractors_must_fit_the_frame():
    # distractors keep a 1 px margin: extent 11 needs sides of at least 13
    scene = {"height": 12, "width": 40, "margin": 0, "min_extent": 4,
             "max_extent": 8}
    with pytest.raises(ConfigError, match="proposal: distractor_extent"):
        config_from_obj({"scene": scene})
    assert config_from_obj({"scene": scene,
                            "proposal": {"distractor_count": 0}})
    assert config_from_obj({"scene": scene,
                            "proposal": {"distractor_extent": [6, 9]}})


@pytest.mark.parametrize("key", ["w_box", "w_mask", "eps_mask", "iou_floor"])
def test_removed_loss_keys_are_rejected(key):
    with pytest.raises(ConfigError, match=f"loss: unknown keys.*{key}"):
        config_from_obj({"loss": {key: 1.0}})
