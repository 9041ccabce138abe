"""Tests of the benchmark itself: python3 -m pytest -q pipebench"""

import json
import os
import statistics
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

sys.path.insert(0, os.path.join(run.ROOT, "src"))

SMOKE = {"base": "configs/smoke.json", "overrides": {}, "map_gate": None}


def test_self_time_subtracts_the_union_of_child_intervals():
    #  0: root    [0, 10]
    #  1:  a      [1, 4]      child of root
    #  2:   a1    [2, 3]      child of a
    #  3:  b      [5, 7]      child of root
    #  4:  c      [6, 8]      child of root, overlaps b
    #  5:  d      [9, 12]     child of root, runs past it
    parent = [-1, 0, 1, 0, 0, 0]
    start = [0.0, 1.0, 2.0, 5.0, 6.0, 9.0]
    end = [10.0, 4.0, 3.0, 7.0, 8.0, 12.0]
    own = tracing.self_times(parent, start, end)
    # root loses [1,4] + [5,8] + [9,10]
    assert own.tolist() == [3.0, 2.0, 1.0, 2.0, 2.0, 3.0]


def test_scaled_seconds_drops_sampling_time_and_uses_trimmed_mean_speed():
    nominal = speed.NOMINAL_CALIB_S
    # a 1.2 s interval holding ten samples that waited 3x nominal each.
    # Timed runs take 2x nominal in one half and 4x in the other, plus
    # one stray slow and one stray fast run that the trim drops; a sample
    # far from the interval is ignored.
    runs = [2, 2, 2, 2, 4, 4, 4, 4, 50, 0.5]
    samples = [(10.0 + 0.1 * i, 3 * nominal, r * nominal)
               for i, r in enumerate(runs)] + [(50.0, 3 * nominal, nominal)]
    out = speed.scaled_seconds(10.0, 11.2, samples)
    raw = 1.2 - 10 * 3 * nominal
    assert out["raw_s"] == pytest.approx(raw)
    assert out["slowdown"] == pytest.approx(1 / 0.375)  # mean of 1/2 and 1/4
    assert out["s"] == pytest.approx(raw * 0.375)
    assert out["samples"] == 10


def test_sampler_helper_answers_and_exits():
    cpus = os.sched_getaffinity(0)
    sampler = speed.SpeedSampler()
    with sampler:
        assert len(os.sched_getaffinity(0)) == 1
        sampler.sample(3)
        with sampler.periodic():
            deadline = time.perf_counter() + 5 * speed.PERIOD_S
            while time.perf_counter() < deadline:
                pass
    assert len(sampler.samples) >= 5
    assert all(spent >= probe > 0 for _, spent, probe in sampler.samples)
    assert sampler._proc.returncode == 0
    assert os.sched_getaffinity(0) == cpus


def test_tracer_records_nested_spans():
    tr = tracing.Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    summary = tr.summary()
    assert summary["outer"]["calls"] == 1
    assert summary["inner"]["calls"] == 2
    outer = summary["outer"]
    assert outer["self_s"] == pytest.approx(outer["s"] - summary["inner"]["s"])


def _package_bindings():
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if name == "annoconsist" or name.startswith("annoconsist.")
            for attr, value in vars(mod).items() if callable(value)}


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    from annoconsist import cli, scenes, train
    before = _package_bindings()
    geometry = scenes.SceneRecord.geometry
    tr = tracing.Tracer()
    tr.install()
    try:
        assert tracing.is_wrapped(train.greedy_infer)
        assert tracing.is_wrapped(cli.sample_k)
        cfg = os.path.join(run.ROOT, "configs", "smoke.json")
        assert cli.run(["gen", "--config", cfg, "--out", str(tmp_path)]) == 0
    finally:
        tr.uninstall()
    assert tr.summary()["synthgen.make_scene"]["calls"] == 9
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not any(tracing.is_wrapped(v) for v in after.values())
    assert scenes.SceneRecord.geometry is geometry


@pytest.mark.parametrize("trace", [False, True])
def test_harness_dry_run_on_smoke_config(tmp_path, trace):
    outcome = run.measure(run.ROOT, SMOKE, 0, 1.0, trace, str(tmp_path / "w"))
    assert outcome["problems"] == []
    result = outcome["result"]
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    listed = bench["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in listed)
    hashes = {json.dumps(r["hashes"], sort_keys=True) for r in outcome["reps"]}
    assert len(hashes) == 1


def test_closed_forms_match_the_reference_protocol():
    cfg = run.workload_config(run.ROOT, run.WORKLOADS["reference"], 0)
    counts = run.expected_counts(cfg, cfg["n_scenes"])
    assert counts["condnet.greedy_infer.dlm.calls"] == 8 * 50 * 90 + 4 * 3 * 50 * 100
    assert counts["condnet.greedy_infer.sample.calls"] == 12_500 + 600
    assert counts["loss.delta.calls"] == 540_000
    assert counts["train.load_checkpoint.calls"] == 5 * 12
