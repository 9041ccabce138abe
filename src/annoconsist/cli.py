"""Command line entry point.

Subcommands: gen (synthesize a dataset), train (fit both distributions),
infer (dump samples and decoded predictions), eval (score predictions),
ablate (run the term/pointwise grid), render (draw sample-evolution
panels). Exit codes: 0 success, 2 bad usage or config, 3 runtime failure.
"""

import argparse
import collections
import contextlib
import glob
import json
import os
import sys

import numpy as np

from .ablation import ablation_run
from .condnet import InferenceError, sample_k
from .config import ConfigError, RunConfig, load_config, save_config
from .prednet import decode, decoded_prediction, predict
from .render import render_predictions
from .scenes import (DatasetFormatError, iter_dataset, load_dataset,
                     save_dataset)
from .scorer import feature_dim
from .synthgen import EmptyPoolError, PlacementError, make_scene
from .train import (CheckpointError, TrainingError, fit, load_checkpoint,
                    prepare_scene, sample_noise, save_checkpoint,
                    write_log_csv)
from .evaluate import evaluate_predictions
from .workers import forked_imap

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3


def _resolved_config(args) -> RunConfig:
    return load_config(args.config) if getattr(args, "config", None) else RunConfig()


def _dataset_path(data: str, split: str) -> str:
    if os.path.isdir(data):
        return os.path.join(data, f"{split}.jsonl")
    return data


def _load_split(data: str, split: str) -> list:
    return load_dataset(_dataset_path(data, split))


@contextlib.contextmanager
def _atomic_output(path: str):
    """Yield a temporary path next to `path`. The file written there
    replaces `path` when the block succeeds and is removed when it raises,
    so a failed run never leaves a partial output behind."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        yield tmp
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


def _gen_records(cfg: RunConfig, ids: range, jobs: int, pool_sizes: list):
    """The scenes of `ids` in order, made by up to `jobs` forked workers;
    appends each scene's pool size to pool_sizes."""
    for rec in forked_imap(make_scene, ids, jobs,
                           (cfg.scene, cfg.proposal, cfg.seed)):
        pool_sizes.append(rec.num_proposals)
        yield rec


def cmd_gen(args) -> int:
    cfg = _resolved_config(args)
    os.makedirs(args.out, exist_ok=True)
    train_ids = range(0, cfg.n_scenes)
    eval_ids = range(cfg.n_scenes, cfg.n_scenes + cfg.n_eval_scenes)
    pools = []
    # both splits replace their files only once every scene is written
    with _atomic_output(os.path.join(args.out, "train.jsonl")) as train_tmp, \
            _atomic_output(os.path.join(args.out, "eval.jsonl")) as eval_tmp:
        save_dataset(train_tmp, _gen_records(cfg, train_ids, args.jobs, pools))
        save_dataset(eval_tmp, _gen_records(cfg, eval_ids, args.jobs, pools))
    save_config(os.path.join(args.out, "config.json"), cfg)
    print(f"wrote {len(train_ids)} train + {len(eval_ids)} eval scenes to "
          f"{args.out} (pool sizes {min(pools)}..{max(pools)})")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _resolved_config(args)
    # fit reads the split one scene at a time and keeps only the prepared
    # scenes
    res = fit(iter_dataset(_dataset_path(args.data, args.split)), cfg.train,
              cfg.inference, cfg.loss, verbose=args.verbose)
    os.makedirs(args.out, exist_ok=True)
    for outer, (cond, pred) in enumerate(res.snapshots):
        last = outer == len(res.snapshots) - 1
        name = ("checkpoint_final.json" if last
                else f"checkpoint_iter{outer:02d}.json")
        save_checkpoint(os.path.join(args.out, name), cond, pred,
                        meta={"outer": outer})
    write_log_csv(os.path.join(args.out, "log.csv"), res.log)
    save_config(os.path.join(args.out, "config.json"), cfg)
    print(f"trained on {res.num_scenes} scenes "
          f"({res.skipped_scenes} skipped); "
          f"{res.inference_failures} scene inference failures; train map50="
          f"{res.final_map50:.4f}; wrote {args.out}")
    return EXIT_OK


def _sample_payload(rec, prep, cond, cfg, z) -> list:
    """K sample labelings of the prepared scene from a (K, d) noise block,
    over the scene's original pool indices. Raises InferenceError when
    sampling fails."""
    samples = sample_k(cond, prep, z, cfg.inference,
                       term_mode=cfg.train.term_mode)
    if prep.pool_index is None:
        labels = samples.labels
    else:
        labels = np.zeros((samples.k, rec.num_proposals), dtype=np.int64)
        labels[:, prep.pool_index] = samples.labels
    return [row.tolist() for row in labels]


def _decode_payload(pred, rec, cfg) -> list:
    state = predict(pred, rec)
    out = []
    for d in decode(state, rec, cfg.train.decode_thresh, cfg.train.decode_nms):
        out.append({"proposal_index": int(d.proposal_index),
                    "class_id": int(d.class_id),
                    "confidence": float(d.confidence)})
    return out


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _load_checked(path, cfg):
    """load_checkpoint of `path`, and a CheckpointError naming it unless
    its scorer is feature_dim(C) + cfg.train.noise_dim wide, C the
    checkpoint's class count."""
    cond, pred, meta = load_checkpoint(path)
    width = feature_dim(len(pred) - 1) + cfg.train.noise_dim
    if cond.shape[1] != width:
        raise CheckpointError(
            f"{path}: scorer of width {cond.shape[1]}, but the config's "
            f"noise_dim {cfg.train.noise_dim} needs {width}")
    return cond, pred, meta


def _infer_scene(rec, cfg, paths) -> tuple:
    """One scene's preds.json entry: samples and decoded predictions under
    every snapshot checkpoint, then the final one. A checkpoint whose
    sampling raises InferenceError gets no samples. Returns the entry and
    the scene's status: "unusable" when prepare_scene rejects it, "failed"
    when some sampling raised, else "ok". Raises CheckpointError when a
    checkpoint of `paths` fails _load_checked or its class count is not
    the scene's."""
    prep = prepare_scene(rec, cfg.train, cfg.inference)
    ckpts = [_load_checked(path, cfg) for path in paths]
    for path, (_, pred, _) in zip(paths, ckpts):
        if len(pred) != rec.num_classes + 1:
            raise CheckpointError(
                f"{path}: weights for {len(pred) - 1} classes, but scene "
                f"{rec.scene_id} has {rec.num_classes}")
    # a checkpoint without an outer index in its meta takes its position
    outers = [meta.get("outer", i) for i, (_, _, meta) in enumerate(ckpts)]
    if prep is not None:
        # every checkpoint's K draws in one block, keyed by its tag
        tags = [0x7E57 + outer for outer in outers[:-1]] + [0x7E57 + 0x99]
        z = sample_noise(cfg.train, rec.scene_id,
                         np.array(tags, dtype=object), cfg.train.k,
                         cfg.train.noise_dim)
    failed = False
    entries = []
    for i, ((cond, pred, _), outer) in enumerate(zip(ckpts, outers)):
        samples = []
        if prep is not None:
            try:
                samples = _sample_payload(rec, prep, cond, cfg, z[i])
            except InferenceError:
                failed = True
        entries.append({"outer": outer, "samples": samples,
                        "decode": _decode_payload(pred, rec, cfg)})
    status = "unusable" if prep is None else "failed" if failed else "ok"
    return {"scene_id": rec.scene_id, "iterations": entries[:-1],
            "final": entries[-1]}, status


def cmd_infer(args) -> int:
    cfg = load_config(os.path.join(args.model, "config.json"))
    final_path = os.path.join(args.model, "checkpoint_final.json")
    if not os.path.exists(final_path):
        raise ConfigError(f"{args.model}: missing checkpoint_final.json")
    paths = [*sorted(glob.glob(os.path.join(args.model,
                                            "checkpoint_iter*.json"))),
             final_path]
    counts = collections.Counter()
    # the bytes json.dump of the whole object would write (sort_keys puts
    # "scenes" last), one scene at a time
    head = _dump({"format_version": 1, "k": cfg.train.k, "scenes": []})
    with _atomic_output(args.out) as tmp, open(tmp, "w") as fh:
        fh.write(head[:-2])
        for n, rec in enumerate(iter_dataset(_dataset_path(args.data,
                                                           args.split))):
            entry, status = _infer_scene(rec, cfg, paths)
            fh.write(("," if n else "") + _dump(entry))
            counts[status] += 1
            counts["empty"] += not entry["final"]["samples"]
        if not counts:
            # no scene opened the checkpoints: check them here
            for path in paths:
                _load_checked(path, cfg)
        fh.write("]}\n")
    scenes = counts["ok"] + counts["unusable"] + counts["failed"]
    print(f"wrote predictions for {scenes} scenes to {args.out} "
          f"({counts['empty']} without samples); {counts['unusable']} "
          f"unusable, {counts['failed']} with failed sampling")
    return EXIT_OK


def _load_predictions(path: str, object_hook=None) -> dict:
    with open(path) as fh:
        try:
            obj = json.load(fh, object_hook=object_hook)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"{path}: invalid JSON ({exc})") from exc
    if obj.get("format_version") != 1:
        raise DatasetFormatError(f"{path}: unsupported prediction format")
    return obj


def _unsampled(obj: dict) -> dict:
    """json object hook that drops the sampled labelings, which eval never
    reads, as each object is parsed; they are most of a predictions file."""
    obj.pop("samples", None)
    obj.pop("iterations", None)
    return obj


def _check_scenes_found(ids, found, path: str) -> None:
    """Raise DatasetFormatError naming the first of the predicted scene
    `ids` that the split at `path` (whose ids are `found`) lacks."""
    for sid in ids:
        if sid not in found:
            raise DatasetFormatError(
                f"scene {sid}: predicted, but {path} holds no such scene")


def cmd_eval(args) -> int:
    obj = _load_predictions(args.pred, object_hook=_unsampled)
    # the last entry per scene id, in the order the file lists the ids
    decoded = {entry["scene_id"]: entry["final"]["decode"]
               for entry in obj["scenes"]}
    cfg = _resolved_config(args)
    # per predicted scene, the last record's ground-truth class ids and the
    # IoU table of its pool against them, so no mask outlives its scene
    kept = {}
    path = _dataset_path(args.data, args.split)
    for rec in iter_dataset(path):
        dets = decoded.get(rec.scene_id)
        if dets is not None:
            preds = [decoded_prediction(rec, d) for d in dets]
            kept[rec.scene_id] = ((rec.gt.class_ids, rec.gt_iou()), preds)
    _check_scenes_found(decoded, kept, path)
    preds_by_scene = {sid: kept[sid][1] for sid in decoded}
    truth_by_scene = {sid: kept[sid][0] for sid in preds_by_scene}
    res = evaluate_predictions(preds_by_scene, truth_by_scene,
                               cfg.eval.thresholds)
    for t in res.thresholds:
        print(f"mAP@{t:.2f}  {res.map_r[t]:.4f}")
    classes = sorted({j for (_, j) in res.per_class})
    for j in classes:
        row = "  ".join(f"{res.per_class[(t, j)]:.4f}" for t in res.thresholds)
        print(f"class {j}: {row}  (n={res.num_gt[j]})")
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = _resolved_config(args)
    try:
        seeds = (tuple(int(s) for s in args.seeds.split(","))
                 if args.seeds else None)
    except ValueError:
        raise ConfigError(f"--seeds {args.seeds!r} is not a comma-separated "
                          "list of integers") from None
    if seeds is not None and min(seeds) < 0:
        raise ConfigError("--seeds must be non-negative")
    train_recs = _load_split(args.data, "train")
    eval_recs = _load_split(args.data, "eval")
    result = ablation_run(train_recs, eval_recs, cfg.train, cfg.inference,
                          cfg.loss, seeds=seeds, verbose=args.verbose)
    result.to_csv(args.out)
    print(result.format_table())
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_render(args) -> int:
    obj = _load_predictions(args.pred)
    wanted = dict.fromkeys(entry["scene_id"] for entry in obj["scenes"])
    # the last record per predicted scene id; the others are dropped as the
    # split streams past
    path = _dataset_path(args.data, args.split)
    by_id = {rec.scene_id: rec for rec in iter_dataset(path)
             if rec.scene_id in wanted}
    _check_scenes_found(wanted, by_id, path)
    paths = render_predictions(obj, by_id, args.out)
    print(f"wrote {len(paths)} panels to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annoconsist",
        description="Annotation-consistent weakly supervised instance "
                    "segmentation on synthetic scenes.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--config", help="run config JSON (defaults used if omitted)")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="fit both distributions")
    p.add_argument("--config", help="run config JSON")
    p.add_argument("--data", required=True, help="dataset directory or file")
    p.add_argument("--out", required=True, help="model output directory")
    p.add_argument("--split", default="train", help="dataset split name")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="write samples and decoded predictions")
    p.add_argument("--model", required=True, help="model directory from train")
    p.add_argument("--data", required=True, help="dataset directory or file")
    p.add_argument("--out", required=True, help="output predictions JSON")
    p.add_argument("--split", default="eval", help="dataset split name")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score a predictions file")
    p.add_argument("--pred", required=True, help="predictions JSON from infer")
    p.add_argument("--data", required=True, help="dataset directory or file")
    p.add_argument("--split", default="eval", help="dataset split name")
    p.add_argument("--config", help="run config JSON (for eval thresholds)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the term/pointwise ablation grid")
    p.add_argument("--config", help="run config JSON")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output CSV table")
    p.add_argument("--seeds", help="comma-separated seeds for averaging")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("render", help="draw per-scene sample-evolution panels")
    p.add_argument("--pred", required=True, help="predictions JSON from infer")
    p.add_argument("--data", required=True, help="dataset directory or file")
    p.add_argument("--out", required=True, help="output image directory")
    p.add_argument("--split", default="eval", help="dataset split name")
    p.set_defaults(func=cmd_render)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return int(code)
    try:
        return args.func(args)
    except (ConfigError, DatasetFormatError, CheckpointError,
            FileNotFoundError, NotADirectoryError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingError, InferenceError, PlacementError, EmptyPoolError,
            ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    entry()
