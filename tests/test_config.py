import dataclasses
import json
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annoconsist.cli import EXIT_OK, EXIT_USAGE, run
from annoconsist.condnet import MAX_N_ITERS
from annoconsist.config import (
    _SECTIONS,
    ConfigError,
    EvalConfig,
    RunConfig,
    config_from_obj,
    config_to_obj,
    load_config,
    save_config,
)
from annoconsist import synthgen
from annoconsist.synthgen import EmptyPoolError, PlacementError, make_scene


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


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        config_from_obj({"seed": -1})
    with pytest.raises(ConfigError, match="train: seed must be non-negative"):
        config_from_obj({"seed": 0, "train": {"seed": -1}})


def test_train_seed_follows_the_seed_and_may_only_repeat_it():
    assert config_from_obj({"seed": 4}).train.seed == 4
    assert config_from_obj({"seed": 4, "train": {"seed": 4}}).train.seed == 4
    with pytest.raises(ConfigError, match="train: seed 7 differs"):
        config_from_obj({"seed": 4, "train": {"seed": 7}})
    with pytest.raises(ConfigError, match="top-level seed 0"):
        config_from_obj({"train": {"seed": 7}})


def test_section_must_be_an_object():
    with pytest.raises(ConfigError, match="train: expected an object"):
        config_from_obj({"train": 5})


def test_invalid_section_values_surface_with_section_name():
    with pytest.raises(ConfigError, match="train"):
        config_from_obj({"train": {"k": 0}})
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


def test_shipped_reference_and_smoke_configs_parse(tmp_path):
    # each shipped file is exactly what save_config writes for it, so a
    # stale key fails to load and a missing one fails the comparison
    for name in ("reference", "smoke"):
        path = f"configs/{name}.json"
        save_config(str(tmp_path / "back.json"), load_config(path))
        with open(path, "rb") as fh:
            assert fh.read() == (tmp_path / "back.json").read_bytes(), path
    # the defaults are the reference protocol
    with open("configs/reference.json") as fh:
        assert config_to_obj(RunConfig()) == json.load(fh)
    ref = load_config("configs/reference.json")
    assert ref.n_scenes == 50
    assert ref.train.k == 10
    assert ref.train.gamma == 0.5
    assert ref.train.epsilon == 1.0
    assert ref.train.outer_iters == 4
    assert ref.inference.delta == 8.0
    smoke = load_config("configs/smoke.json")
    assert smoke.n_scenes <= 10


# generator details that are synthgen constants, at their values
RETIRED_GENERATOR_KEYS = [
    ("scene", "shape_families", list(synthgen.SHAPE_FAMILIES)),
    ("scene", "margin", synthgen.MARGIN),
    ("scene", "max_overlap_iou", 0.0),
    ("scene", "color_noise", synthgen.COLOR_NOISE),
    ("scene", "edge_noise_density", synthgen.EDGE_NOISE_DENSITY),
    ("scene", "edge_noise_amplitude", synthgen.EDGE_NOISE_AMPLITUDE),
    ("scene", "seed_fraction", list(synthgen.SEED_FRACTION)),
    ("scene", "max_place_attempts", synthgen.MAX_PLACE_ATTEMPTS),
    ("proposal", "erode_px", synthgen.ERODE_PX),
    ("proposal", "splits", synthgen.SPLITS),
    ("proposal", "dilate_variant", True),
    ("proposal", "shift_variant", True),
    ("proposal", "seed_filter", True),
    ("proposal", "dilate_px", synthgen.DILATE_PX),
    ("proposal", "shift_px", synthgen.SHIFT_PX),
    ("proposal", "distractor_count", synthgen.DISTRACTOR_COUNT),
    ("proposal", "distractor_extent", list(synthgen.DISTRACTOR_EXTENT)),
    ("proposal", "min_area", synthgen.MIN_AREA),
    ("proposal", "p_target", synthgen.P_TARGET),
    ("proposal", "dilation", synthgen.DILATION),
]
_RETIRED_KEYS = {key for _, key, _ in RETIRED_GENERATOR_KEYS}


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
    ("scene", "margin", -1),
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
    # the shape families include ell, whose 1 x 1 draw is empty
    ("scene", "min_extent", 1),
    ("scene", "min_extent", 0),
    ("scene", "shape_families", []),
    ("scene", "shape_families", ["triangle"]),
    ("scene", "shape_families", ["rect", "triangle"]),
    ("proposal", "distractor_extent", [1, 11]),
    ("scene", "seed_fraction", [0.45, 0.25]),
    ("scene", "seed_fraction", [-0.1, 0.25]),
    ("scene", "seed_fraction", [0.25, 1.5]),
    ("scene", "seed_fraction", [0.25, float("inf")]),
    ("scene", "seed_fraction", [float("nan"), 0.25]),
    ("scene", "seed_fraction", [0.25]),
    ("scene", "seed_fraction", [0.1, 0.2, 0.3]),
    ("scene", "seed_fraction", 0.3),
    ("proposal", "erode_px", -1),
    ("proposal", "dilate_px", -1),
    ("proposal", "shift_px", -1),
    ("proposal", "splits", -1),
    ("proposal", "distractor_count", -1),
    ("proposal", "min_area", -1),
    ("train", "noise_dim", -1),
    # a list entry takes the type of the default's entries
    ("proposal", "distractor_extent", [6.5, 11]),
    ("proposal", "distractor_extent", [6, True]),
    ("eval", "thresholds", [True, 0.5]),
    ("eval", "thresholds", [0.5, "0.7"]),
    ("eval", "thresholds", [[0.5]]),
    ("scene", "seed_fraction", [0.25, None]),
    ("scene", "seed_fraction", [[0.25], 0.45]),
    ("scene", "shape_families", ["rect", 1]),
    ("scene", "shape_families", [["rect"]]),
    # a negative count would act as 0, a negative outer_iters write a
    # checkpoint that infer refuses
    ("train", "init_epochs", -1),
    ("train", "cond_epochs", -1),
    ("train", "pred_epochs", -1),
    ("train", "outer_iters", -1),
    ("train", "clip_grad", -0.5),
    # NaN and infinity fit no number field
    ("scene", "color_noise", float("nan")),
    ("train", "gamma", float("nan")),
    ("train", "epsilon", float("inf")),
    ("train", "lr_cond", float("-inf")),
    ("train", "clip_grad", float("inf")),
    ("inference", "delta", float("inf")),
    ("inference", "select_threshold", float("nan")),
    ("loss", "lambda_cls", float("nan")),
    ("train", "decode_nms", -1.0),
    ("train", "decode_nms", 1.5),
    # outside [0, 1] a diversity term flips sign
    ("train", "gamma", -0.5),
    ("train", "gamma", 1.5),
    # a negative rate turns descent into ascent
    ("train", "lr_init", -0.1),
    ("train", "lr_cond", -0.1),
    ("train", "lr_pred", -1.0),
    # refinement keeps an (n_iters+1, P, C+1) stack of iterates
    ("inference", "n_iters", MAX_N_ITERS + 1),
    ("inference", "n_iters", 2**40),
    ("inference", "n_iters", 2**70),
])
def test_out_of_range_values_are_rejected_at_load_time(section, key, value):
    # a retired generator key is refused whatever its value, so a config
    # that set it out of range still stops at load time
    match = (rf"{section}: unknown keys \['{key}'\]"
             if key in _RETIRED_KEYS else f"{section}: {key}")
    with pytest.raises(ConfigError, match=match):
        config_from_obj({section: {key: value}})


@pytest.mark.parametrize("section, key, value", [
    ("inference", "n_iters", 0),
    ("inference", "overlap_t", 0.0),
    ("inference", "overlap_t", 1.0),
    ("inference", "box_rho", 0.0),
    ("inference", "box_rho", 1.0),
    ("train", "decode_thresh", 0.0),
    ("train", "decode_thresh", 1.0),
    ("train", "decode_nms", 0.0),
    ("train", "decode_nms", 1.0),
    ("train", "gamma", 0.0),
    ("train", "gamma", 1.0),
    ("train", "lr_init", 0.0),
    ("train", "lr_cond", 0.0),
    ("train", "lr_pred", 0.0),
    ("scene", "num_classes", 1),
    ("scene", "min_objects", 3),
    ("scene", "min_objects", 1),
    ("scene", "min_extent", 20),
    ("scene", "height", 27),
    ("scene", "width", 27),
    ("scene", "min_extent", 2),
    ("train", "noise_dim", 0),
    # an int entry fits a list of floats
    ("eval", "thresholds", (1, 0.5)),
    ("train", "init_epochs", 0),
    ("train", "cond_epochs", 0),
    ("train", "pred_epochs", 0),
    ("train", "outer_iters", 0),
    ("train", "clip_grad", 0.0),
    ("inference", "n_iters", MAX_N_ITERS),
])
def test_range_endpoints_are_accepted(section, key, value):
    cfg = config_from_obj({section: {key: value}})
    assert getattr(getattr(cfg, section), key) == value


def test_frame_bound_follows_margin_and_max_extent():
    # 2*margin + 2*(max_extent // 2) + 1 at margin 3: odd extents round down
    for max_extent in (8, 9):
        scene = {"min_extent": 4, "max_extent": max_extent}
        assert config_from_obj({"scene": dict(scene, height=15, width=15)})
        with pytest.raises(ConfigError,
                           match="scene: width must be at least 15"):
            config_from_obj({"scene": dict(scene, height=15, width=14)})


def test_distractors_must_fit_the_frame():
    # distractors keep a 1 px margin: extent 11 needs sides of at least 13,
    # more than shapes of max_extent 4 need
    scene = {"min_extent": 2, "max_extent": 4}
    with pytest.raises(ConfigError, match="scene: height must be at least 13"):
        config_from_obj({"scene": dict(scene, height=12, width=40)})
    assert config_from_obj({"scene": dict(scene, height=13, width=13)})


@pytest.mark.parametrize("section, key, bad, edge", [
    ("scene", "min_extent", 1, 2),
    # json writes NaN and Infinity, and reads them back as floats
    ("train", "gamma", float("nan"), 0.0),
    ("train", "epsilon", float("inf"), sys.float_info.max),
    ("train", "outer_iters", -1, 0),
])
def test_gen_rejects_bad_drawing_values_with_usage_exit(tmp_path, capsys,
                                                        section, key, bad,
                                                        edge):
    # the bad value stops gen at load time with exit 2 and writes nothing;
    # the bound itself is accepted and generates a dataset
    with open("configs/smoke.json") as fh:
        obj = json.load(fh)
    obj[section][key] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "bad_data"
    assert run(["gen", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
    assert f"{section}: {key}" in capsys.readouterr().err
    assert not out.exists()
    obj[section][key] = edge
    path.write_text(json.dumps(obj))
    assert run(["gen", "--config", str(path),
                "--out", str(tmp_path / "data")]) == EXIT_OK


@pytest.mark.parametrize("key", ["w_box", "w_mask", "eps_mask", "iou_floor"])
def test_removed_loss_keys_are_rejected(key):
    with pytest.raises(ConfigError, match=f"loss: unknown keys.*{key}"):
        config_from_obj({"loss": {key: 1.0}})


def test_min_extent_bound_depends_on_the_ell_family():
    # rect and ellipse draw at least one pixel down to extent 1, but ell,
    # one of the shape families, needs 2
    assert "ell" in synthgen.SHAPE_FAMILIES
    with pytest.raises(ConfigError, match="scene: min_extent"):
        config_from_obj({"scene": {"min_extent": 1}})
    assert config_from_obj({"scene": {"min_extent": 2}}).scene.min_extent == 2


@pytest.mark.parametrize("section, key, value", [
    ("train", "optimizer", "sgd"),
    ("train", "scorer_kind", "linear"),
    ("train", "aug_sign", -1.0),
    ("inference", "center_scores", False),
    ("loss", "w_cls", 1.0),
    ("train", "box_min_iou", 0.5),
])
def test_retired_setting_keys_are_rejected(section, key, value):
    # even the value every run used is refused: the key itself is gone
    with pytest.raises(ConfigError, match=f"{section}: unknown keys.*{key}"):
        config_from_obj({section: {key: value}})


@pytest.mark.parametrize("section, key, value", RETIRED_GENERATOR_KEYS,
                         ids=[key for _, key, _ in RETIRED_GENERATOR_KEYS])
def test_retired_generator_keys_stop_gen(tmp_path, capsys, section, key,
                                         value):
    # even the value every run used is refused, and gen writes nothing
    with open("configs/smoke.json") as fh:
        obj = json.load(fh)
    obj[section][key] = value
    path = tmp_path / "old.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "data"
    assert run(["gen", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
    assert f"{section}: unknown keys ['{key}']" in capsys.readouterr().err
    assert not out.exists()


def _fits(value, default) -> bool:
    """The load-time type rule, field by the type of its default."""
    if isinstance(default, bool):
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if isinstance(default, int):
        return isinstance(value, int)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, str):
        return isinstance(value, str)
    return isinstance(value, (list, tuple))


def _default(f):
    return (f.default_factory() if f.default is dataclasses.MISSING
            else f.default)


@pytest.mark.parametrize("section, f", [
    (section, f) for section, cls in _SECTIONS.items()
    for f in dataclasses.fields(cls)], ids=lambda v: getattr(v, "name", v))
def test_every_field_rejects_values_of_another_type(section, f):
    default = _default(f)
    wrong = [v for v in (True, False, 0, 1, 1.5, "x", "", None, [1], [],
                         {"a": 1}) if not _fits(v, default)]
    assert wrong
    for value in wrong:
        with pytest.raises(ConfigError,
                           match=f"{section}: {f.name} must be an? "):
            config_from_obj({section: {f.name: value}})
    # the default, as JSON writes it, loads back unchanged
    plain = list(default) if isinstance(default, tuple) else default
    cfg = config_from_obj({section: {f.name: plain}})
    assert getattr(getattr(cfg, section), f.name) == default


def test_a_float_field_takes_an_int(tmp_path, capsys):
    cfg = config_from_obj({"train": {"gamma": 1, "lr_pred": 2},
                           "inference": {"delta": 8}})
    assert (cfg.train.gamma, cfg.train.lr_pred) == (1, 2)
    assert cfg.inference.delta == 8
    # a wrong type stops the command before any work, with exit 2
    path = tmp_path / "null.json"
    path.write_text(json.dumps({"train": {"lr_init": None}}))
    assert run(["train", "--config", str(path), "--data",
                str(tmp_path / "missing"), "--out",
                str(tmp_path / "m")]) == EXIT_USAGE
    assert "train: lr_init must be a number, not None" in (
        capsys.readouterr().err)


def _frame_bound(max_extent: int) -> int:
    """The smallest side that holds the objects and the distractors."""
    return max(2 * synthgen.MARGIN + 2 * (max_extent // 2) + 1,
               2 * synthgen.DISTRACTOR_MARGIN
               + 2 * (synthgen.DISTRACTOR_EXTENT[1] // 2) + 1)


@st.composite
def _drawing_fields(draw):
    """Scene and proposal fields, drawn around the load-time bounds so
    that both sides of each bound occur."""
    hi = draw(st.integers(0, 14))
    side = _frame_bound(hi)
    n_lo = draw(st.integers(0, 2))
    scene = {
        "height": side + draw(st.integers(-1, 12)),
        "width": side + draw(st.integers(-1, 12)),
        "num_classes": draw(st.integers(0, 6)),
        "min_objects": n_lo,
        "max_objects": n_lo + draw(st.integers(-1, 1)),
        "min_extent": hi - draw(st.integers(-1, 6)),
        "max_extent": hi,
    }
    return scene, {"include_gt": draw(st.booleans())}


def _draws_or_names_the_failure(cfg, seed):
    """make_scene draws a scene, or fails with one of the two errors that
    name a crowded frame or an empty pool; True when it drew one."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rec = make_scene(cfg.scene, cfg.proposal, seed, 0)
        except (PlacementError, EmptyPoolError):
            return False
    assert rec.num_proposals >= 1
    assert rec.gt.masks.any(axis=(1, 2)).all()
    return True


@settings(max_examples=600, deadline=None)
@given(fields=_drawing_fields(), seed=st.integers(0, 2**16))
def test_drawing_fields_load_and_draw_or_are_rejected(fields, seed):
    # every drawing config the loader accepts draws a scene, or fails with
    # one of the two errors that name a crowded frame or an empty pool
    scene, proposal = fields
    try:
        cfg = config_from_obj({"scene": scene, "proposal": proposal})
    except ConfigError:
        return
    _draws_or_names_the_failure(cfg, seed)


def test_the_smallest_frame_the_loader_accepts_draws_scenes():
    # at max_extent 7 the object and distractor bounds meet at 13; each
    # scene holds one object of extent 7, centred
    scene = {"height": 13, "width": 13, "min_objects": 1, "max_objects": 1,
             "min_extent": 7, "max_extent": 7}
    assert _frame_bound(7) == 13
    with pytest.raises(ConfigError, match="scene: height must be at least 13"):
        config_from_obj({"scene": dict(scene, height=12)})
    cfg = config_from_obj({"scene": scene})
    assert all(_draws_or_names_the_failure(cfg, seed) for seed in range(8))
