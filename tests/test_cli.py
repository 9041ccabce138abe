import base64
import glob
import io
import json
import os
import shutil
import subprocess
import tracemalloc

import pytest

import numpy as np

from annoconsist import ablation, cli
from annoconsist.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, run
from annoconsist.condnet import InferenceError, sample_k
from annoconsist.config import load_config
from annoconsist.prednet import decode, pred_init, predict
from annoconsist.scenes import load_dataset, scene_to_obj
from annoconsist.scorer import cond_init, feature_dim
from annoconsist.synthgen import PlacementError
from annoconsist.train import load_checkpoint, prepare_scene, save_checkpoint

from oracles import (MaskPrediction, box_iou, evaluate_masks, scene_noise,
                     tight_box)
from test_train import _boxed_record, _hopeless_box_scene


TINY_CONFIG = {
    "seed": 0,
    "n_scenes": 3,
    "n_eval_scenes": 2,
    "scene": {"height": 32, "width": 32, "num_classes": 2, "max_objects": 2,
              "min_extent": 8, "max_extent": 12},
    "inference": {"delta": 8.0},
    "train": {"k": 2, "init_epochs": 2, "cond_epochs": 1, "pred_epochs": 3,
              "outer_iters": 1},
}


@pytest.fixture(scope="module")
def tiny_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, tiny_config_path):
    """gen -> train -> infer, shared by the pipeline tests below."""
    root = tmp_path_factory.mktemp("pipe")
    data = str(root / "data")
    model = str(root / "model")
    preds = str(root / "preds.json")
    assert run(["gen", "--config", tiny_config_path, "--out", data]) == EXIT_OK
    assert run(["train", "--config", tiny_config_path, "--data", data,
                "--out", model]) == EXIT_OK
    assert run(["infer", "--model", model, "--data", data,
                "--out", preds]) == EXIT_OK
    return {"data": data, "model": model, "preds": preds}


def test_gen_writes_both_splits_and_config(tmp_path, tiny_config_path, capsys):
    out = str(tmp_path / "data")
    assert run(["gen", "--config", tiny_config_path, "--out", out]) == EXIT_OK
    assert os.path.exists(os.path.join(out, "train.jsonl"))
    assert os.path.exists(os.path.join(out, "eval.jsonl"))
    cfg = json.loads(open(os.path.join(out, "config.json")).read())
    assert cfg["n_scenes"] == 3
    msg = capsys.readouterr().out
    assert "3 train + 2 eval scenes" in msg
    with open(os.path.join(out, "train.jsonl")) as fh:
        assert sum(1 for _ in fh) == 3


def test_gen_output_is_byte_identical_across_runs(tmp_path, tiny_config_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert run(["gen", "--config", tiny_config_path, "--out", a]) == EXIT_OK
    assert run(["gen", "--config", tiny_config_path, "--out", b]) == EXIT_OK
    for name in ("train.jsonl", "eval.jsonl", "config.json"):
        with open(os.path.join(a, name), "rb") as fa, \
                open(os.path.join(b, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_gen_parallel_jobs_match_serial(tmp_path, tiny_config_path):
    serial = str(tmp_path / "serial")
    par = str(tmp_path / "par")
    assert run(["gen", "--config", tiny_config_path, "--out", serial]) == EXIT_OK
    assert run(["gen", "--config", tiny_config_path, "--out", par,
                "--jobs", "2"]) == EXIT_OK
    for name in ("train.jsonl", "eval.jsonl"):
        with open(os.path.join(serial, name), "rb") as fa, \
                open(os.path.join(par, name), "rb") as fb:
            assert fa.read() == fb.read(), name


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_gen_jobs_below_one_is_a_usage_error(tmp_path, tiny_config_path,
                                             capsys, jobs):
    out = tmp_path / "data"
    assert run(["gen", "--config", tiny_config_path, "--out", str(out),
                "--jobs", jobs]) == EXIT_USAGE
    assert f"--jobs {jobs} is not a positive integer" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_ablate_in_forked_workers_matches_the_in_process_table(
        tmp_path, tiny_config_path, pipeline, monkeypatch):
    # the (cell, seed) fits of forked workers are the in-process run's, so
    # the table is byte-equal whatever the CPU count
    tables = []
    for cpus in (1, 2):
        monkeypatch.setattr(ablation, "usable_cpus", lambda: cpus)
        out = tmp_path / f"grid{cpus}.csv"
        assert run(["ablate", "--config", tiny_config_path, "--data",
                    pipeline["data"], "--out", str(out),
                    "--seeds", "0,1"]) == EXIT_OK
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]


def test_negative_seed_is_a_usage_error(tmp_path, tiny_config_path, capsys,
                                        pipeline):
    cfg = json.loads(open(tiny_config_path).read())
    cfg["seed"] = -1
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(cfg))
    assert run(["gen", "--config", str(path),
                "--out", str(tmp_path / "y")]) == EXIT_USAGE
    assert "seed must be non-negative" in capsys.readouterr().err
    assert run(["ablate", "--config", tiny_config_path, "--data",
                pipeline["data"], "--out", str(tmp_path / "t.csv"),
                "--seeds", "0,-1"]) == EXIT_USAGE
    assert "--seeds must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()
    assert not (tmp_path / "y").exists()


def test_train_writes_checkpoints_log_and_config(pipeline):
    model = pipeline["model"]
    assert os.path.exists(os.path.join(model, "checkpoint_final.json"))
    assert os.path.exists(os.path.join(model, "checkpoint_iter00.json"))
    assert os.path.exists(os.path.join(model, "config.json"))
    with open(os.path.join(model, "log.csv")) as fh:
        header = fh.readline().strip().split(",")
    assert header[:3] == ["phase", "outer", "epoch"]
    assert "map50" in header


def test_infer_output_shape_and_determinism(pipeline, tmp_path):
    with open(pipeline["preds"]) as fh:
        obj = json.load(fh)
    assert obj["format_version"] == 1
    assert obj["k"] == 2
    assert len(obj["scenes"]) == 2  # eval split
    for entry in obj["scenes"]:
        assert len(entry["iterations"]) == 1  # one snapshot per outer iter
        final = entry["final"]
        assert len(final["samples"]) == 2
        for d in final["decode"]:
            assert set(d) == {"proposal_index", "class_id", "confidence"}
    again = str(tmp_path / "again.json")
    assert run(["infer", "--model", pipeline["model"], "--data",
                pipeline["data"], "--out", again]) == EXIT_OK
    with open(pipeline["preds"], "rb") as fa, open(again, "rb") as fb:
        assert fa.read() == fb.read()


def _preds_built_in_memory(model, data_file) -> str:
    """preds.json as one json.dump of the whole object, every scene's entry
    built in memory first: how infer wrote it before it streamed."""
    cfg = load_config(os.path.join(model, "config.json"))
    tcfg = cfg.train

    def samples(rec, prep, cond, tag):
        if prep is None:
            return []
        dim = tcfg.noise_dim
        z = (np.zeros((tcfg.k, dim)) if tcfg.cond_pointwise
             else scene_noise(cfg.seed, rec, tcfg.k, tag, dim))
        try:
            s = sample_k(cond, prep, z, cfg.inference,
                         term_mode=tcfg.term_mode)
        except InferenceError:
            return []
        labels = s.labels
        if prep.pool_index is not None:
            labels = np.zeros((s.k, rec.num_proposals), dtype=np.int64)
            labels[:, prep.pool_index] = s.labels
        return [row.tolist() for row in labels]

    def decoded(pred, rec):
        return [{"proposal_index": int(d.proposal_index),
                 "class_id": int(d.class_id),
                 "confidence": float(d.confidence)}
                for d in decode(predict(pred, rec), rec, tcfg.decode_thresh,
                                tcfg.decode_nms)]

    iter_paths = sorted(glob.glob(os.path.join(model, "checkpoint_iter*.json")))
    scenes = []
    for rec in load_dataset(data_file):
        prep = prepare_scene(rec, tcfg, cfg.inference)
        iterations = []
        for path in iter_paths:
            cond, pred, meta = load_checkpoint(path)
            outer = int(meta.get("outer", len(iterations)))
            iterations.append({"outer": outer,
                               "samples": samples(rec, prep, cond,
                                                  0x7E57 + outer),
                               "decode": decoded(pred, rec)})
        cond, pred, meta = load_checkpoint(
            os.path.join(model, "checkpoint_final.json"))
        final = {"outer": int(meta.get("outer", len(iter_paths))),
                 "samples": samples(rec, prep, cond, 0x7E57 + 0x99),
                 "decode": decoded(pred, rec)}
        scenes.append({"scene_id": rec.scene_id, "iterations": iterations,
                       "final": final})
    buf = io.StringIO()
    json.dump({"format_version": 1, "k": tcfg.k, "scenes": scenes}, buf,
              sort_keys=True, separators=(",", ":"))
    return buf.getvalue() + "\n"


def test_streamed_preds_equal_the_whole_object_dumped_at_once(pipeline):
    with open(pipeline["preds"]) as fh:
        got = fh.read()
    assert got == _preds_built_in_memory(
        pipeline["model"], os.path.join(pipeline["data"], "eval.jsonl"))


def _eval_table_over_loaded_dataset(preds_path, data_file) -> str:
    """eval's printed table from every record held at once, the way eval
    matched predictions to scenes before it streamed, and by mask IoU."""
    with open(preds_path) as fh:
        obj = json.load(fh)
    by_id = {rec.scene_id: rec for rec in load_dataset(data_file)}
    preds_by_scene = {}
    for entry in obj["scenes"]:
        rec = by_id[entry["scene_id"]]
        preds_by_scene[rec.scene_id] = [
            MaskPrediction(d["proposal_index"], d["class_id"],
                           d["confidence"], rec.pool[d["proposal_index"]])
            for d in entry["final"]["decode"]]
    gts_by_scene = {sid: by_id[sid].gt for sid in preds_by_scene}
    res = evaluate_masks(preds_by_scene, gts_by_scene,
                         (0.25, 0.50, 0.70, 0.75))
    lines = [f"mAP@{t:.2f}  {res.map_r[t]:.4f}" for t in res.thresholds]
    for j in sorted({j for (_, j) in res.per_class}):
        row = "  ".join(f"{res.per_class[(t, j)]:.4f}" for t in res.thresholds)
        lines.append(f"class {j}: {row}  (n={res.num_gt[j]})")
    return "\n".join(lines) + "\n"


def test_streamed_eval_prints_the_table_of_the_loaded_dataset(
        pipeline, tmp_path, capsys):
    # preds in reverse file order and one scene listed twice (the last
    # entry counts, at its first place); a scene the data does not hold is
    # an error, checked below
    with open(pipeline["preds"]) as fh:
        obj = json.load(fh)
    scenes = obj["scenes"][::-1]
    first_again = dict(scenes[0], final=dict(scenes[0]["final"], decode=[]))
    obj["scenes"] = scenes + [first_again]
    preds = tmp_path / "preds.json"
    preds.write_text(json.dumps(obj))
    data_file = os.path.join(pipeline["data"], "eval.jsonl")
    for path in (pipeline["preds"], str(preds)):
        capsys.readouterr()
        assert run(["eval", "--pred", path, "--data",
                    pipeline["data"]]) == EXIT_OK
        assert capsys.readouterr().out == _eval_table_over_loaded_dataset(
            path, data_file)


@pytest.mark.parametrize("fail_at", [3, 4])  # a train scene, an eval scene
def test_gen_that_fails_part_way_leaves_no_output(tmp_path, tiny_config_path,
                                                  monkeypatch, capsys,
                                                  fail_at):
    made = []

    def flaky(*args):
        made.append(1)
        if len(made) == fail_at:
            raise PlacementError("cannot place an object")
        return real(*args)

    real = cli.make_scene
    monkeypatch.setattr(cli, "make_scene", flaky)
    out = tmp_path / "data"
    out.mkdir()
    (out / "train.jsonl").write_text("older\n")
    code = run(["gen", "--config", tiny_config_path, "--out", str(out)])
    assert code == EXIT_RUNTIME
    assert "cannot place" in capsys.readouterr().err
    # no partial split and no temporary file; an older file is untouched
    assert sorted(os.listdir(out)) == ["train.jsonl"]
    assert (out / "train.jsonl").read_text() == "older\n"


def test_infer_over_a_truncated_line_leaves_no_output(tmp_path, pipeline,
                                                      capsys):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    lines = (data / "eval.jsonl").read_text().splitlines()
    lines[1] = lines[1][: len(lines[1]) // 2]
    (data / "eval.jsonl").write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    out.mkdir()
    code = run(["infer", "--model", pipeline["model"], "--data", str(data),
                "--out", str(out / "preds.json")])
    assert code == EXIT_USAGE
    assert "line 2" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_train_streams_its_split_under_the_loaders_contract(
        tmp_path, pipeline, tiny_config_path, capsys):
    model = tmp_path / "model"
    train = ["train", "--config", tiny_config_path, "--out", str(model)]
    # a truncated last line: exit 2, and no model directory
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    lines = (data / "train.jsonl").read_text().splitlines()
    lines[-1] = lines[-1][: len(lines[-1]) // 2]
    (data / "train.jsonl").write_text("\n".join(lines) + "\n")
    assert run(train + ["--data", str(data)]) == EXIT_USAGE
    assert f"line {len(lines)}" in capsys.readouterr().err
    assert not model.exists()
    # a missing split
    assert run(train + ["--data", pipeline["data"], "--split",
                        "nosuch"]) == EXIT_USAGE
    assert "nosuch.jsonl" in capsys.readouterr().err
    assert not model.exists()
    # box supervision: the summary counts the skipped scene, and a split
    # with no usable scene is a runtime failure
    cfg = dict(TINY_CONFIG, train=dict(TINY_CONFIG["train"],
                                       supervision="box"))
    box_cfg = tmp_path / "box.json"
    box_cfg.write_text(json.dumps(cfg))
    split = tmp_path / "box.jsonl"
    train = ["train", "--config", str(box_cfg), "--data", str(split),
             "--out", str(model)]
    usable, hopeless = _boxed_record(0), _boxed_record(1, with_far_box=True)

    def write_split(*recs):
        split.write_text("".join(
            json.dumps(scene_to_obj(rec), separators=(",", ":")) + "\n"
            for rec in recs))

    write_split(usable, hopeless)
    assert run(train) == EXIT_OK
    assert capsys.readouterr().out.startswith(
        "trained on 2 scenes (1 skipped); ")
    shutil.rmtree(model)
    write_split(hopeless, hopeless)
    assert run(train) == EXIT_RUNTIME
    assert "no usable scenes" in capsys.readouterr().err
    assert not model.exists()


def _set_in_checkpoint(*keys, value):
    """An edit of a checkpoint file: the entry at `keys` becomes `value`,
    or value(old entry) when value is callable."""
    def edit(path):
        obj = json.loads(path.read_text())
        inner = obj
        for key in keys[:-1]:
            inner = inner[key]
        inner[keys[-1]] = value(inner[keys[-1]]) if callable(value) else value
        path.write_text(json.dumps(obj))
    return edit


def _nan_weight(arr):
    w = np.frombuffer(base64.b64decode(arr["data"]), dtype="<f8").copy()
    w[-1] = np.nan
    return dict(arr, data=base64.b64encode(w.tobytes()).decode("ascii"))


def _widen_scorer(extra):
    """An edit that gives the scorer `extra` more noise columns (fewer when
    negative): a checkpoint trained at another noise_dim than the model
    directory's config names."""
    def edit(path):
        cond, pred, meta = load_checkpoint(str(path))
        save_checkpoint(str(path), np.zeros((len(cond), cond.shape[1] + extra)),
                        pred, meta)
    return edit


CHECKPOINT_EDITS = {
    "version 2": _set_in_checkpoint("format_version", value=2),
    "truncated": lambda path: path.write_text(
        path.read_text()[: path.stat().st_size // 2]),
    "outer x": _set_in_checkpoint("meta", "outer", value="x"),
    "negative outer": _set_in_checkpoint("meta", "outer", value=-1),
    "meta not an object": _set_in_checkpoint("meta", value=[1]),
    "shape off by one": _set_in_checkpoint(
        "pred", "arrays", "w", "shape", value=lambda s: [s[0], s[1] + 1]),
    "1-d shape": _set_in_checkpoint(
        "cond", "arrays", "w", "shape", value=lambda s: [s[0] * s[1]]),
    "nan weight": _set_in_checkpoint("cond", "arrays", "w",
                                     value=_nan_weight),
    "scorer and predictor disagree": _set_in_checkpoint(
        "cond", "arrays", "w", value=lambda arr: dict(
            arr, shape=[arr["shape"][0] - 1, arr["shape"][1] + 1])),
    "three classes for a two-class split": lambda path: save_checkpoint(
        str(path), cond_init(3, 8), pred_init(3)),
    # the config's noise_dim is 8
    "scorer one noise column narrow": _widen_scorer(-1),
    "scorer one noise column wide": _widen_scorer(1),
    "scorer without noise columns": _widen_scorer(-8),
}


@pytest.mark.parametrize("name", list(CHECKPOINT_EDITS))
def test_malformed_checkpoint_is_a_usage_error_naming_the_file(
        tmp_path, pipeline, capsys, name):
    model = tmp_path / "model"
    shutil.copytree(pipeline["model"], model)
    path = model / "checkpoint_final.json"
    CHECKPOINT_EDITS[name](path)
    out = tmp_path / "out"
    out.mkdir()
    code = run(["infer", "--model", str(model), "--data", pipeline["data"],
                "--out", str(out / "preds.json")])
    assert code == EXIT_USAGE
    assert f"error: {path}: " in capsys.readouterr().err
    assert os.listdir(out) == []


# every edit but the class count, which only a scene can contradict
EMPTY_SPLIT_EDITS = [name for name in CHECKPOINT_EDITS
                     if name != "three classes for a two-class split"]


@pytest.mark.parametrize("name", EMPTY_SPLIT_EDITS)
def test_malformed_checkpoint_over_an_empty_split_is_a_usage_error(
        tmp_path, pipeline, capsys, name):
    # no scene opens the checkpoints, so infer checks them after the loop
    model = tmp_path / "model"
    shutil.copytree(pipeline["model"], model)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "out"
    out.mkdir()
    argv = ["infer", "--model", str(model), "--data", str(empty),
            "--out", str(out / "preds.json")]
    assert run(argv) == EXIT_OK
    assert json.loads((out / "preds.json").read_text())["scenes"] == []
    (out / "preds.json").unlink()
    capsys.readouterr()
    path = model / "checkpoint_final.json"
    CHECKPOINT_EDITS[name](path)
    assert run(argv) == EXIT_USAGE
    assert f"error: {path}: " in capsys.readouterr().err
    assert os.listdir(out) == []


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert run(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_infer_and_eval_memory_does_not_grow_with_the_split(
        tmp_path, pipeline, tiny_config_path, capsys):
    # held-out splits of n and 4n scenes scored by the same model
    n = 3
    peaks = {}
    for size in (n, 4 * n):
        cfg = dict(TINY_CONFIG, n_eval_scenes=size)
        cfg_path = tmp_path / f"cfg{size}.json"
        cfg_path.write_text(json.dumps(cfg))
        data, preds = str(tmp_path / f"data{size}"), str(tmp_path / f"p{size}")
        assert run(["gen", "--config", str(cfg_path), "--out", data]) == EXIT_OK
        peaks[size] = (
            _traced_peak(["infer", "--model", pipeline["model"],
                          "--data", data, "--out", preds]),
            _traced_peak(["eval", "--pred", preds, "--data", data]))
    capsys.readouterr()
    for stage, small, large in zip(("infer", "eval"), peaks[n], peaks[4 * n]):
        assert large < 1.5 * small, (stage, small, large)


def test_render_memory_does_not_grow_with_the_split(tmp_path, pipeline,
                                                    tiny_config_path, capsys):
    # one predictions file over n held-out scenes, drawn against splits of n
    # and 8n scenes whose first n scenes are those same scenes
    n = 3
    peaks, panels = {}, {}
    for size in (n, 8 * n):
        cfg = dict(TINY_CONFIG, n_eval_scenes=size)
        cfg_path = tmp_path / f"cfg{size}.json"
        cfg_path.write_text(json.dumps(cfg))
        data = str(tmp_path / f"data{size}")
        assert run(["gen", "--config", str(cfg_path), "--out", data]) == EXIT_OK
        if size == n:
            preds = str(tmp_path / "preds.json")
            assert run(["infer", "--model", pipeline["model"], "--data", data,
                        "--out", preds]) == EXIT_OK
        out = tmp_path / f"panels{size}"
        capsys.readouterr()
        peaks[size] = _traced_peak(["render", "--pred", preds, "--data", data,
                                    "--out", str(out)])
        assert capsys.readouterr().out == f"wrote {n} panels to {out}\n"
        panels[size] = {name: (out / name).read_bytes()
                        for name in sorted(os.listdir(out))}
    assert len(panels[n]) == n and panels[8 * n] == panels[n]
    assert peaks[8 * n] < 1.25 * peaks[n], peaks


def _edit_first_scene(pipeline, tmp_path, edit, split="train"):
    """A copy of the pipeline's data whose first scene of `split` went
    through `edit(obj)`; returns the data directory."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    lines = (data / f"{split}.jsonl").read_text().splitlines()
    obj = json.loads(lines[0])
    edit(obj)
    lines[0] = json.dumps(obj)
    (data / f"{split}.jsonl").write_text("\n".join(lines) + "\n")
    return str(data)


def _stage_argv(stage, data, pipeline, tiny_config_path, out):
    """The command line of `stage` reading the dataset `data`; train, infer
    and render write to `out`."""
    return {
        "train": ["train", "--config", tiny_config_path, "--data", data,
                  "--out", out],
        "infer": ["infer", "--model", pipeline["model"], "--data", data,
                  "--out", out],
        "eval": ["eval", "--pred", pipeline["preds"], "--data", data],
        "render": ["render", "--pred", pipeline["preds"], "--data", data,
                   "--out", out],
    }[stage]


def _train_on(data, tiny_config_path, tmp_path):
    return run(["train", "--config", tiny_config_path, "--data", data,
                "--out", str(tmp_path / "m")])


def test_negative_rle_run_is_a_dataset_error(tmp_path, pipeline,
                                             tiny_config_path, capsys):
    def negative_run(obj):
        counts = obj["pool"][0]["counts"]
        # the runs still add up to the frame, but one of them is negative
        obj["pool"][0]["counts"] = [counts[0] + 3, -3] + counts[1:]

    data = _edit_first_scene(pipeline, tmp_path, negative_run)
    assert _train_on(data, tiny_config_path, tmp_path) == EXIT_USAGE
    assert "negative" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_adjacency_neighbor_outside_the_pool_is_a_dataset_error(
        tmp_path, pipeline, tiny_config_path, capsys):
    def past_the_pool(obj):
        adj = obj["adjacency"]
        adj["neighbors"][0].append(len(obj["pool"]))
        adj["weights"][0].append(1.0)

    data = _edit_first_scene(pipeline, tmp_path, past_the_pool)
    assert _train_on(data, tiny_config_path, tmp_path) == EXIT_USAGE
    assert "outside" in capsys.readouterr().err


def test_adjacency_one_list_short_of_the_pool_is_a_dataset_error(
        tmp_path, pipeline, tiny_config_path, capsys):
    def one_short(obj):
        adj = obj["adjacency"]
        adj["neighbors"].pop()
        adj["weights"].pop()

    data = _edit_first_scene(pipeline, tmp_path, one_short)
    assert _train_on(data, tiny_config_path, tmp_path) == EXIT_USAGE
    assert "for a pool of" in capsys.readouterr().err


def _first_edge(adj):
    """(u, v): proposal u's first listed neighbor v; weights[u][0] is I_uv."""
    u = next(u for u, n in enumerate(adj["neighbors"]) if n)
    return u, adj["neighbors"][u][0]


def _drop_mirror(adj):
    u, v = _first_edge(adj)
    i = adj["neighbors"][v].index(u)
    del adj["neighbors"][v][i], adj["weights"][v][i]


def _list_twice(adj):
    u, v = _first_edge(adj)
    adj["neighbors"][u].append(v)
    adj["weights"][u].append(adj["weights"][u][0])


def _reweigh_one_side(adj):
    u, _ = _first_edge(adj)
    adj["weights"][u][0] += 1.0


def _reweigh_both_sides(adj, w):
    u, v = _first_edge(adj)
    adj["weights"][u][0] = w
    adj["weights"][v][adj["neighbors"][v].index(u)] = w


def _set_first_entry(adj, key, value):
    """Sets the first listed neighbor (key "neighbors") or its weight (key
    "weights") of the first proposal that lists one."""
    u, _ = _first_edge(adj)
    adj[key][u][0] = value


# (id, edit, message) of a graph entry that a cast would misread or
# overflow on; the message is formatted with the scene id and the first
# listed edge (u, v) of the edited scene
_BAD_GRAPH_ENTRIES = [
    (f"neighbor-{name}",
     lambda o, value=value: _set_first_entry(o["adjacency"], "neighbors",
                                             value),
     f"scene {{scene}}: adjacency: proposal {{u}} lists neighbor {value!r}, "
     "not an int") for name, value in [
        ("float", 1.5), ("integral-float", 1.0), ("bool", True),
        ("string", "1"), ("infinite", float("inf")), ("huge", 2**70)]
] + [
    (f"weight-{name}",
     lambda o, value=value: _set_first_entry(o["adjacency"], "weights",
                                             value),
     f"scene {{scene}}: adjacency: proposal {{u}} lists neighbor {{v}} with "
     f"weight {value!r}, not a finite non-negative number")
    for name, value in [("bool", True), ("string", "1"), ("huge", 2**2000)]
]
_LOAD_STAGES = ("train", "infer", "eval", "render")


def _set_presence(obj, value):
    obj["annotation"]["presence"][0] = value


def _unmark_a_boxed_class(obj):
    ann = obj["annotation"]
    ann["presence"][ann["boxes"][0][0] - 1] = 0


def _set_box_entries(obj, **entries):
    """Sets entries of the first box row, by index: x_min is "i1"."""
    box = obj["annotation"]["boxes"][0]
    for i, value in entries.items():
        box[int(i[1:])] = value


def _swap_box_x(obj):
    box = obj["annotation"]["boxes"][0]
    box[1], box[3] = box[3], box[1]


@pytest.mark.parametrize("edit, message, stage", [*(
    (edit, message, "train") for edit, message in [
    (lambda o: o["seeds"][0].update(class_id=9), "seed class_id 9 outside"),
    (lambda o: o["gt"][0].update(class_id=7), "ground-truth class_id 7"),
    (lambda o: o["annotation"].update(boxes=[[0, 0, 0, 3, 3]]),
     "box class_id 0 outside"),
    (lambda o: o["annotation"].update(presence=o["annotation"]["presence"][:1]),
     "presence has shape [1] for 2 classes"),
    (lambda o: _drop_mirror(o["adjacency"]), "does not list"),
    (lambda o: _list_twice(o["adjacency"]), "twice"),
    (lambda o: _reweigh_one_side(o["adjacency"]), "with that weight"),
    (lambda o: _reweigh_both_sides(o["adjacency"], -1000.0),
     "weight -1000.0, not a finite non-negative number"),
    (lambda o: _reweigh_both_sides(o["adjacency"], float("inf")),
     "weight inf, not a finite"),
    (lambda o: _reweigh_both_sides(o["adjacency"], float("nan")),
     "weight nan, not a finite"),
    (lambda o: o.update(scene_id=1.5), "scene_id 1.5 is not"),
    (lambda o: o.update(scene_id=-3), "scene_id -3 is not"),
    (lambda o: o.update(scene_id="7"), "scene_id '7' is not"),
    (lambda o: o.update(scene_id=True), "scene_id True is not"),
    (lambda o: _set_presence(o, 2), "an entry other than the int 0 or 1"),
    (lambda o: _set_presence(o, -1), "an entry other than the int 0 or 1"),
    (lambda o: _set_presence(o, 0.5), "an entry other than the int 0 or 1"),
    (lambda o: _set_presence(o, True), "an entry other than the int 0 or 1"),
    (_unmark_a_boxed_class, "which the annotation does not mark present"),
    (lambda o: o["gt"][0].update(class_id=True),
     "ground-truth class_id True is a bool"),
    (lambda o: o["seeds"][0].update(class_id=True),
     "seed class_id True is a bool"),
    (lambda o: o["annotation"]["boxes"][0].__setitem__(0, True),
     "box class_id True is a bool"),
    (lambda o: _set_box_entries(o, i1=2.5),
     "is not a class id and four int coordinates"),
    (lambda o: _set_box_entries(o, i2=True),
     "is not a class id and four int coordinates"),
    (lambda o: o["annotation"]["boxes"][0].pop(),
     "is not a class id and four int coordinates"),
    (lambda o: _set_box_entries(o, i3=32),
     "is not a non-empty box inside the 32x32 frame"),
    (_swap_box_x, "is not a non-empty box inside the 32x32 frame"),
    (lambda o: _set_box_entries(o, i1=2**70, i2=2**70, i3=2**70, i4=2**70),
     "is not a non-empty box inside the 32x32 frame"),
    ]), *((edit, message, stage) for _, edit, message in _BAD_GRAPH_ENTRIES
          for stage in _LOAD_STAGES),
], ids=["seed-class", "gt-class", "box-class", "presence-length",
        "one-sided-edge", "neighbor-twice", "mirror-weight",
        "negative-weight", "infinite-weight", "nan-weight", "float-id",
        "negative-id", "string-id", "bool-id", "presence-two",
        "presence-negative", "presence-half", "presence-bool",
        "box-of-absent-class", "gt-class-bool", "seed-class-bool",
        "box-class-bool", "box-float-coordinate", "box-bool-coordinate",
        "box-short-row", "box-outside-frame", "box-degenerate",
        "box-huge-coordinates", *(f"{name}-{stage}"
                                  for name, _, _ in _BAD_GRAPH_ENTRIES
                                  for stage in _LOAD_STAGES)])
def test_class_ids_and_graph_are_checked_at_load(tmp_path, pipeline,
                                                 tiny_config_path, capsys,
                                                 edit, message, stage):
    split = "train" if stage == "train" else "eval"
    data = _edit_first_scene(pipeline, tmp_path, edit, split)
    obj = json.loads(open(os.path.join(data, f"{split}.jsonl")).readline())
    u, v = _first_edge(obj["adjacency"])
    out = str(tmp_path / "m")
    assert run(_stage_argv(stage, data, pipeline, tiny_config_path,
                           out)) == EXIT_USAGE
    assert message.format(scene=obj["scene_id"], u=u, v=v) in (
        capsys.readouterr().err)
    assert not os.path.exists(out)


@pytest.mark.parametrize("key", ["image", "edges"])
@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_non_finite_rasters_are_rejected_at_load(tmp_path, pipeline,
                                                 tiny_config_path, capsys,
                                                 key, value):
    def poison(obj):
        raster = np.frombuffer(base64.b64decode(obj[key]), dtype="<f4").copy()
        raster[0] = value
        obj[key] = base64.b64encode(raster.tobytes()).decode("ascii")

    data = _edit_first_scene(pipeline, tmp_path, poison)
    assert _train_on(data, tiny_config_path, tmp_path) == EXIT_USAGE
    assert f"{key} raster holds a non-finite value" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("stage", ["train", "infer", "eval"])
@pytest.mark.parametrize("key", ["image", "edges"])
@pytest.mark.parametrize("value, kind", [
    (7, "int"), (True, "bool"), ([0.5, 1.0], "list"), ({"b64": "AAAA"}, "dict"),
    (None, "NoneType")], ids=["number", "bool", "list", "object", "null"])
def test_a_raster_that_is_not_a_string_is_rejected_at_load(
        tmp_path, pipeline, tiny_config_path, capsys, stage, key, value,
        kind):
    split = "train" if stage == "train" else "eval"
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    path = data / f"{split}.jsonl"
    lines = path.read_text().splitlines()
    obj = json.loads(lines[0])
    obj[key] = value
    lines[0] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run(_stage_argv(stage, str(data), pipeline, tiny_config_path,
                           str(out))) == EXIT_USAGE
    assert (f"scene {obj['scene_id']}: {key} raster is {kind}, not a base64 "
            "string") in capsys.readouterr().err
    assert not out.exists()


def test_eval_prints_map_table(pipeline, capsys):
    assert run(["eval", "--pred", pipeline["preds"], "--data",
                pipeline["data"]]) == EXIT_OK
    out = capsys.readouterr().out
    for t in ("0.25", "0.50", "0.70", "0.75"):
        assert f"mAP@{t}" in out
    assert "class 1:" in out or "class 2:" in out


def test_render_writes_one_panel_per_scene(pipeline, tmp_path):
    out = str(tmp_path / "panels")
    assert run(["render", "--pred", pipeline["preds"], "--data",
                pipeline["data"], "--out", out]) == EXIT_OK
    panels = sorted(os.listdir(out))
    assert len(panels) == 2
    assert all(p.endswith(".ppm") for p in panels)
    with open(os.path.join(out, panels[0]), "rb") as fh:
        assert fh.read(2) == b"P6"


def test_usage_errors_exit_two(tmp_path, capsys):
    assert run([]) == EXIT_USAGE  # no subcommand
    assert run(["gen"]) == EXIT_USAGE  # missing --out
    assert run(["train", "--data", str(tmp_path / "missing"), "--out",
                str(tmp_path / "m")]) == EXIT_USAGE
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert run(["gen", "--config", str(bad),
                "--out", str(tmp_path / "d")]) == EXIT_USAGE
    capsys.readouterr()


def test_out_of_range_config_value_is_usage_error(tmp_path, pipeline,
                                                  capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(TINY_CONFIG, inference={"n_iters": -1})))
    code = run(["train", "--config", str(bad), "--data", pipeline["data"],
                "--out", str(tmp_path / "m")])
    assert code == EXIT_USAGE
    assert "n_iters" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_train_seed_other_than_the_seed_is_usage_error(tmp_path, pipeline,
                                                      capsys):
    # training runs at the top-level seed, so a different train.seed
    # would be read and then ignored
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(
        TINY_CONFIG, train=dict(TINY_CONFIG["train"], seed=7))))
    code = run(["train", "--config", str(bad), "--data", pipeline["data"],
                "--out", str(tmp_path / "m")])
    assert code == EXIT_USAGE
    assert "train: seed 7 differs from the top-level seed 0" in (
        capsys.readouterr().err)
    assert not (tmp_path / "m").exists()


SMOKE_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                            "smoke.json")


@pytest.mark.parametrize("noise_dim", [0, 4, 12])
def test_train_and_infer_honour_noise_dim(tmp_path, noise_dim, capsys):
    with open(SMOKE_CONFIG) as fh:
        cfg = json.load(fh)
    cfg["train"]["noise_dim"] = noise_dim
    cfg_path = tmp_path / "smoke.json"
    cfg_path.write_text(json.dumps(cfg))
    data, model = str(tmp_path / "data"), str(tmp_path / "model")
    assert run(["gen", "--config", str(cfg_path), "--out", data]) == EXIT_OK
    assert run(["train", "--config", str(cfg_path), "--data", data,
                "--out", model]) == EXIT_OK
    cond, _, _ = load_checkpoint(os.path.join(model, "checkpoint_final.json"))
    assert cond.shape[1] == feature_dim(cfg["scene"]["num_classes"]) + noise_dim
    assert run(["infer", "--model", model, "--data", data,
                "--out", str(tmp_path / "preds.json")]) == EXIT_OK
    capsys.readouterr()


def test_gen_rejects_inconsistent_scene_config(tmp_path, capsys):
    with open(SMOKE_CONFIG) as fh:
        cfg = json.load(fh)
    cfg["scene"]["min_objects"] = cfg["scene"]["max_objects"] + 1
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run(["gen", "--config", str(cfg_path),
                "--out", str(tmp_path / "data")])
    assert code == EXIT_USAGE
    assert "min_objects" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("section, key, value", [
    ("scene", "height", 16),  # smoke shapes need a 27 px frame
    ("scene", "min_objects", 0),  # could draw a scene with no objects
    ("scene", "min_extent", 1),  # an ell of extent 1 by 1 is empty
    # generator constants: the key is refused, whatever its value
    ("scene", "margin", -1),
    ("scene", "shape_families", []),
    ("scene", "shape_families", ["triangle"]),
    ("proposal", "distractor_extent", [1, 11]),
])
def test_gen_rejects_configs_it_cannot_draw(tmp_path, capsys, section, key,
                                            value):
    with open(SMOKE_CONFIG) as fh:
        cfg = json.load(fh)
    cfg[section][key] = value
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run(["gen", "--config", str(cfg_path),
                "--out", str(tmp_path / "data")])
    assert code == EXIT_USAGE
    assert key in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_model_config_with_retired_keys_is_usage_error(tmp_path, pipeline,
                                                       capsys):
    # a model directory written while optimizer, scorer_kind, aug_sign,
    # center_scores and w_cls were settings no longer loads
    model = tmp_path / "model"
    shutil.copytree(pipeline["model"], model)
    cfg = json.loads((model / "config.json").read_text())
    cfg["train"].update(optimizer="sgd", scorer_kind="linear", aug_sign=-1.0)
    cfg["inference"]["center_scores"] = False
    cfg["loss"]["w_cls"] = 1.0
    (model / "config.json").write_text(json.dumps(cfg))
    code = run(["infer", "--model", str(model), "--data", pipeline["data"],
                "--out", str(tmp_path / "preds.json")])
    assert code == EXIT_USAGE
    assert "unknown keys" in capsys.readouterr().err
    assert not (tmp_path / "preds.json").exists()


def test_model_config_with_a_retired_generator_key_is_usage_error(
        tmp_path, pipeline, capsys):
    # erode_px is a generator constant: a model config.json that sets it,
    # even at the constant's value, does not load
    model = tmp_path / "model"
    shutil.copytree(pipeline["model"], model)
    cfg = json.loads((model / "config.json").read_text())
    cfg["proposal"]["erode_px"] = 2
    (model / "config.json").write_text(json.dumps(cfg))
    code = run(["infer", "--model", str(model), "--data", pipeline["data"],
                "--out", str(tmp_path / "preds.json")])
    assert code == EXIT_USAGE
    assert "proposal: unknown keys ['erode_px']" in capsys.readouterr().err
    assert not (tmp_path / "preds.json").exists()


def test_box_regime_infer_samples_the_prepared_scene(tmp_path, capsys):
    with open(SMOKE_CONFIG) as fh:
        cfg = json.load(fh)
    cfg["train"]["supervision"] = "box"
    cfg_path = tmp_path / "box.json"
    cfg_path.write_text(json.dumps(cfg))
    data, model = tmp_path / "data", str(tmp_path / "model")
    preds = str(tmp_path / "preds.json")
    assert run(["gen", "--config", str(cfg_path), "--out", str(data)]) == EXIT_OK
    assert run(["train", "--config", str(cfg_path), "--data", str(data),
                "--out", model]) == EXIT_OK
    # a box that no proposal can cover, of a class the scene marks present,
    # makes the first held-out scene unusable; a scene whose two classes
    # need the same proposal makes every sampling raise
    lines = (data / "eval.jsonl").read_text().splitlines()
    scene = json.loads(lines[0])
    present = scene["annotation"]["presence"].index(1) + 1
    scene["annotation"]["boxes"].append([present, 0, 0, 1, 1])
    lines[0] = json.dumps(scene, separators=(",", ":"))
    hopeless = _hopeless_box_scene(900)
    hopeless.num_classes = cfg["scene"]["num_classes"]
    hopeless.annotation.presence = np.array([1, 1, 0], dtype=np.int8)
    lines.append(json.dumps(scene_to_obj(hopeless), separators=(",", ":")))
    (data / "eval.jsonl").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["infer", "--model", model, "--data", str(data),
                "--out", preds]) == EXIT_OK
    assert ("(2 without samples); 1 unusable, 1 with failed sampling"
            in capsys.readouterr().out)
    with open(preds) as fh:
        assert fh.read() == _preds_built_in_memory(
            model, str(data / "eval.jsonl"))

    run_cfg = load_config(os.path.join(model, "config.json"))
    tcfg = run_cfg.train
    cond, _, _ = load_checkpoint(os.path.join(model, "checkpoint_final.json"))
    with open(preds) as fh:
        by_id = {sc["scene_id"]: sc for sc in json.load(fh)["scenes"]}
    filtered = 0
    for rec in load_dataset(str(data / "eval.jsonl")):
        got = by_id[rec.scene_id]["final"]["samples"]
        prep = prepare_scene(rec, tcfg, run_cfg.inference)
        if prep is None or rec.scene_id == hopeless.scene_id:
            assert got == []
            continue
        z = scene_noise(run_cfg.seed, rec, tcfg.k, 0x7E57 + 0x99,
                        tcfg.noise_dim)
        samples = sample_k(cond, prep, z, run_cfg.inference,
                           term_mode=tcfg.term_mode)
        # the proposals whose tight box covers some box at box_rho
        rho = run_cfg.inference.box_rho
        keep = [i for i, m in enumerate(rec.pool)
                if any(box_iou(tight_box(m), b) >= rho
                       for _, *b in rec.annotation.boxes.tolist())]
        want = np.zeros((tcfg.k, rec.num_proposals), dtype=np.int64)
        want[:, keep] = samples.labels
        assert got == want.tolist()
        filtered += len(keep) < rec.num_proposals
    assert by_id[scene["scene_id"]]["final"]["samples"] == []
    assert all(it["samples"] == []
               for it in by_id[hopeless.scene_id]["iterations"])
    assert filtered > 0  # some pool was cut, so the index mapping is exercised


def test_infer_without_final_checkpoint_is_usage_error(tmp_path, pipeline,
                                                       capsys):
    model = tmp_path / "half_model"
    model.mkdir()
    with open(os.path.join(pipeline["model"], "config.json")) as fh:
        (model / "config.json").write_text(fh.read())
    code = run(["infer", "--model", str(model), "--data", pipeline["data"],
                "--out", str(tmp_path / "p.json")])
    assert code == EXIT_USAGE
    assert "checkpoint_final" in capsys.readouterr().err


def test_eval_rejects_malformed_predictions(tmp_path, pipeline, capsys):
    bad = tmp_path / "preds.json"
    bad.write_text("not json at all")
    assert run(["eval", "--pred", str(bad), "--data",
                pipeline["data"]]) == EXIT_USAGE
    bad.write_text(json.dumps({"format_version": 9, "scenes": []}))
    assert run(["eval", "--pred", str(bad), "--data",
                pipeline["data"]]) == EXIT_USAGE
    capsys.readouterr()


def _decoded(**fields):
    entry = {"proposal_index": 0, "class_id": 1, "confidence": 0.9, **fields}

    def edit(final, p):
        final["decode"] = [entry]
    return edit


def _labeling_of(extra):
    def edit(final, p):
        final["samples"] = [[0] * (p + extra)]
    return edit


def _label(value):
    def edit(final, p):
        final["samples"] = [[value] + [0] * (p - 1)]
    return edit


def _in_final(edit):
    """An edit of the first scene's final entry, as an edit of the file."""
    def edit_file(obj, p):
        edit(obj["scenes"][0]["final"], p)
        return obj
    return edit_file


_DROP = object()


def _at(*keys, value=_DROP):
    """An edit of the file that sets the entry at keys, or drops it."""
    def edit_file(obj, p):
        parent = obj
        for key in keys[:-1]:
            parent = parent[key]
        if value is _DROP:
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = value
        return obj
    return edit_file


_BAD_ENTRIES = [
    ("index-negative", "proposal_index", -1),
    ("index-past-pool", "proposal_index", 10**6),
    ("index-float", "proposal_index", 1.5),
    ("index-string", "proposal_index", "x"),
    ("index-bool", "proposal_index", True),
    ("class-bool", "class_id", True),
    ("class-float", "class_id", 1.0),
    ("class-past-classes", "class_id", 99),
    ("class-negative", "class_id", -1),
    ("class-background", "class_id", 0),
    ("confidence-string", "confidence", "high"),
    ("confidence-nan", "confidence", float("nan")),
    ("confidence-infinite", "confidence", float("inf")),
    ("confidence-bool", "confidence", True),
    ("confidence-above-one", "confidence", 1.5),
    ("confidence-negative", "confidence", -0.5),
]

_FINAL = ("scenes", 0, "final")
# (name, edit of the file, whether the message can name the scene)
_BAD_STRUCTURES = [
    ("top-level-list", lambda obj, p: [obj], False),
    ("scenes-not-a-list", _at("scenes", value={"0": 1}), False),
    ("scene-entry-not-an-object", _at("scenes", 0, value=[0]), False),
    ("scene-id-list", _at("scenes", 0, "scene_id", value=[0]), False),
    ("final-not-an-object", _at(*_FINAL, value=[]), True),
    ("no-final", _at(*_FINAL), True),
    ("decode-not-a-list", _at(*_FINAL, "decode", value=5), True),
    ("decoded-entry-not-an-object", _at(*_FINAL, "decode", value=[[0, 1]]),
     True),
    ("decoded-entry-without-index",
     _at(*_FINAL, "decode", value=[{"class_id": 1, "confidence": 0.9}]),
     True),
]
_BAD_SAMPLES = [
    ("iterations-not-a-list", _at("scenes", 0, "iterations", value={}), True),
    ("iteration-not-an-object", _at("scenes", 0, "iterations", value=[3]),
     True),
    ("samples-not-a-list", _at(*_FINAL, "samples", value=7), True),
    ("labeling-not-a-list", _at(*_FINAL, "samples", value=[7]), True),
    *[(f"label-{name}", _in_final(_label(v)), True) for name, v in [
        ("past-classes", 99), ("negative", -1), ("bool", True),
        ("float", 1.5), ("string", "a"), ("null", None)]],
]


@pytest.mark.parametrize("cmd, edit, names_scene", [
    *[(cmd, _in_final(_decoded(**{key: v})), True)
      for cmd in ("eval", "render") for _, key, v in _BAD_ENTRIES],
    ("render", _in_final(_labeling_of(1)), True),
    ("render", _in_final(_labeling_of(-1)), True),
    ("render", _in_final(lambda final, p: final["samples"].append([0, 0])),
     True),
    *[(cmd, edit, named) for cmd in ("eval", "render")
      for _, edit, named in _BAD_STRUCTURES],
    *[("render", edit, named) for _, edit, named in _BAD_SAMPLES],
], ids=[*[f"{cmd}-{name}" for cmd in ("eval", "render")
          for name, _, _ in _BAD_ENTRIES],
        "render-labeling-too-long", "render-labeling-too-short",
        "render-labeling-of-two",
        *[f"{cmd}-{name}" for cmd in ("eval", "render")
          for name, _, _ in _BAD_STRUCTURES],
        *[f"render-{name}" for name, _, _ in _BAD_SAMPLES]])
def test_eval_and_render_reject_malformed_predictions(tmp_path, pipeline,
                                                      capsys, cmd, edit,
                                                      names_scene):
    with open(pipeline["preds"]) as fh:
        obj = json.load(fh)
    sid = obj["scenes"][0]["scene_id"]
    p = {rec.scene_id: rec.num_proposals
         for rec in load_dataset(os.path.join(pipeline["data"],
                                              "eval.jsonl"))}[sid]
    bad = tmp_path / "preds.json"
    bad.write_text(json.dumps(edit(obj, p)))
    args = [cmd, "--pred", str(bad), "--data", pipeline["data"]]
    if cmd == "render":
        args += ["--out", str(tmp_path / "panels")]
    assert run(args) == EXIT_USAGE
    named = f"scene {sid}" if names_scene else str(bad)
    assert f"error: {named}: " in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["eval", "render"])
def test_a_predicted_scene_missing_from_the_split_is_a_dataset_error(
        tmp_path, pipeline, capsys, cmd):
    with open(pipeline["preds"]) as fh:
        obj = json.load(fh)
    obj["scenes"][-1]["scene_id"] = 999
    bad = tmp_path / "preds.json"
    bad.write_text(json.dumps(obj))
    args = [cmd, "--pred", str(bad), "--data", pipeline["data"]]
    if cmd == "render":
        args += ["--out", str(tmp_path / "panels")]
    assert run(args) == EXIT_USAGE
    assert "error: scene 999: predicted, but" in capsys.readouterr().err
    assert not (tmp_path / "panels").exists()


def test_render_leaves_no_new_panel_when_a_later_entry_is_malformed(
        tmp_path, pipeline, capsys):
    with open(pipeline["preds"]) as fh:
        obj = json.load(fh)
    assert len(obj["scenes"]) > 1
    obj["scenes"][-1]["final"]["decode"] = [
        {"proposal_index": -1, "class_id": 1, "confidence": 0.9}]
    bad = tmp_path / "preds.json"
    bad.write_text(json.dumps(obj))
    out = tmp_path / "panels"
    out.mkdir()
    (out / "keep.txt").write_text("earlier output")
    assert run(["render", "--pred", str(bad), "--data", pipeline["data"],
                "--out", str(out)]) == EXIT_USAGE
    assert "error: scene " in capsys.readouterr().err
    assert os.listdir(out) == ["keep.txt"]
    # nor does the temporary directory the panels were drawn in outlive it
    assert sorted(os.listdir(tmp_path)) == ["panels", "preds.json"]


def test_runtime_errors_exit_three(tmp_path, capsys):
    # a valid config under which no scene can be placed: the frame holds
    # one object of extent 20, centred, and a second always overlaps it
    cfg_path = tmp_path / "crowded.json"
    cfg_path.write_text(json.dumps({
        "n_scenes": 1, "n_eval_scenes": 0,
        "scene": {"height": 27, "width": 27, "min_objects": 2,
                  "max_objects": 2, "min_extent": 20, "max_extent": 20}}))
    code = run(["gen", "--config", str(cfg_path), "--out",
                str(tmp_path / "data")])
    assert code == EXIT_RUNTIME
    assert "error:" in capsys.readouterr().err


def test_ablate_rejects_non_integer_seeds_before_loading(tmp_path, capsys):
    # the split does not exist, so only --seeds can be the reported error
    for seeds in ("a,b", "x", "1,2.5", "0,"):
        assert run(["ablate", "--data", str(tmp_path / "missing"),
                    "--out", str(tmp_path / "t.csv"),
                    "--seeds", seeds]) == EXIT_USAGE
        assert f"--seeds {seeds!r}" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_console_script_is_installed():
    proc = subprocess.run(["annoconsist", "--help"], capture_output=True,
                          text=True)
    assert proc.returncode == 0
    for sub in ("gen", "train", "infer", "eval", "ablate", "render"):
        assert sub in proc.stdout
