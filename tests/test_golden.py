"""Golden outputs: the smoke pipeline's files hash to pinned values.

gen -> train -> infer -> eval runs in process on configs/smoke.json under
image supervision, box supervision and term mode U. Each output's sha256
must start with the pinned prefix, so a change that moves every output the
same way (which the run-twice determinism tests cannot see) fails here. A
change that moves outputs on purpose updates the pins and says why.
Float results may differ on other Python or numpy builds, so a failure
names both.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import numpy as np
import pytest

from annoconsist.cli import EXIT_OK, run

SMOKE = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                     "smoke.json")

# sha256 prefixes of the smoke data and eval table, the same under every
# run whose pins do not name them
DATA = {"train.jsonl": "ec9d8f355cb9", "eval.jsonl": "988c88400a47",
        "eval stdout": "da295e31423c"}

RUNS = {
    "image": ({}, {"checkpoint_final.json": "d9c892ac8a3e",
                   "log.csv": "2765b8de78db",
                   "preds.json": "5c1bd8a16e5e"}),
    "box": ({"supervision": "box"}, {"checkpoint_final.json": "5996fe6316b9",
                                     "log.csv": "e26f0e69a583",
                                     "preds.json": "23ef3bd62c87"}),
    "U": ({"term_mode": "U"}, {"checkpoint_final.json": "47ea4df5dc21",
                               "log.csv": "fe9314dd179d",
                               "preds.json": "34a315765f66"}),
    # at smoke's decode_thresh 0.7 every log row reads map50 0; threshold 0
    # decodes every scene, so log.csv pins predict -> decode -> map_at.
    # Training does not read the threshold: the checkpoint is image's.
    "decode0": ({"decode_thresh": 0.0},
                {"checkpoint_final.json": "d9c892ac8a3e",
                 "log.csv": "7a6cb8792945",
                 "preds.json": "95e69018d47b",
                 "eval stdout": "d27acb578968"}),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", list(RUNS))
def test_smoke_outputs_match_the_pinned_hashes(tmp_path, name):
    train_over, pins = RUNS[name]
    with open(SMOKE) as fh:
        cfg = json.load(fh)
    cfg["train"].update(train_over)
    cfg_path = str(tmp_path / "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    data, model = str(tmp_path / "data"), str(tmp_path / "model")
    preds = str(tmp_path / "preds.json")
    quiet = contextlib.redirect_stdout(io.StringIO())
    with quiet:
        assert run(["gen", "--config", cfg_path, "--out", data]) == EXIT_OK
        assert run(["train", "--config", cfg_path, "--data", data,
                    "--out", model]) == EXIT_OK
        assert run(["infer", "--model", model, "--data", data,
                    "--out", preds]) == EXIT_OK
    table = io.StringIO()
    with contextlib.redirect_stdout(table):
        assert run(["eval", "--pred", preds, "--data", data,
                    "--config", cfg_path]) == EXIT_OK

    got = {"eval stdout": _sha(table.getvalue().encode())}
    for file, path in [("train.jsonl", os.path.join(data, "train.jsonl")),
                       ("eval.jsonl", os.path.join(data, "eval.jsonl")),
                       ("checkpoint_final.json",
                        os.path.join(model, "checkpoint_final.json")),
                       ("log.csv", os.path.join(model, "log.csv")),
                       ("preds.json", preds)]:
        with open(path, "rb") as fh:
            got[file] = _sha(fh.read())
    moved = [f"{file}: pinned {want}, got {got[file][:len(want)]}"
             for file, want in {**DATA, **pins}.items()
             if not got[file].startswith(want)]
    assert not moved, (
        f"{name} run moved {'; '.join(moved)} (Python "
        f"{sys.version.split()[0]}, numpy {np.__version__})")
