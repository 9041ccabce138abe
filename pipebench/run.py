"""End-to-end and per-layer benchmark of the annoconsist quick-start chain.

    python3 pipebench/run.py --workload reference --seed 0 --seconds 35 --trace 0

Runs gen -> train -> infer -> eval through `annoconsist.cli.run`, with
`src` put on the path (the package is not installed). Every pipeline
repetition and every set-up probe is a fresh process working on freshly
written files, because `train.prepare_records` warms per-record caches and
reused records would time a different program.

--trace 0  set-up probes, then pipeline repetitions while the next one is
           expected to end within --seconds (at least one); prints the
           end-to-end metrics as medians over repetitions.
--trace 1  one untraced and one traced repetition; prints the per-layer
           metrics and fails unless the traced call counts match their
           closed forms. Span times are raw seconds; stage times, and
           trace.overhead_s (traced minus untraced pipeline), are scaled.

Stage and set-up seconds are scaled to a nominal machine speed measured by
a calibration loop interleaved with the work (speed.py); each repetition
and set-up probe prints its raw seconds and the slowdown next to them, and
the raw medians of setup_s, train_s and pipeline_s are printed too.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
`attempted` counts pipeline stages run, `failed` the ones that exited
non-zero. The exit code is 0 only when every output check passed.
"""

import argparse
import copy
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "reference": {"base": "configs/reference.json", "overrides": {},
                  "map_gate": 0.80},
    "box": {"base": "configs/reference.json",
            "overrides": {"train": {"supervision": "box"}}, "map_gate": 0.80},
    "serve": {"base": "configs/reference.json",
              "overrides": {"n_scenes": 10, "n_eval_scenes": 300},
              "map_gate": None},
}

SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # every run must end well within 180 s
HASHED = ("data/train.jsonl", "data/eval.jsonl", "model/checkpoint_final.json",
          "preds.json")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")

# gen, infer and eval take well under a second on reference and box, and
# across seeds their times spread by up to 25% of the median there, so they
# are reported per layer (from the untraced repetition of a --trace 1 run).
# scene_ok_frac is 1 - failed_scene_frac: it is never 0, so a relative
# change against the parent is always defined.
END_TO_END = {
    "setup_s": "s", "train_s": "s", "pipeline_s": "s",
    "scene_ok_frac": "ratio", "peak_rss_mb": "MiB",
}
SHORT_STAGES = ("gen", "infer", "eval")

# (span name, fields reported); a field is calls, s, self_s, p50_us or p99.9_us
SPAN_METRICS = (
    ("condnet.greedy_infer.dlm", ("calls", "s", "p50_us", "p99.9_us")),
    ("condnet.greedy_infer.sample", ("calls", "s", "p50_us", "p99.9_us")),
    ("condnet.refine_stack", ("calls", "s")),
    ("condnet.refine_backward", ("calls", "s")),
    ("scorer.score_from_input", ("calls", "s")),
    ("scorer.score_vjp", ("calls", "s")),
    ("kernels.refine_forward", ("calls", "s")),
    ("kernels.refine_backward", ("calls", "s")),
    ("kernels.greedy_labels", ("calls", "s")),
    ("condnet.sample_k.train", ("calls", "s")),
    ("condnet.sample_k.infer", ("calls", "s")),
    ("condnet.higher_order_feasible", ("calls", "s")),
    ("train.cond_grad", ("calls", "self_s")),
    ("train.pred_grad", ("calls", "s")),
    ("train._epoch_metrics", ("calls", "self_s")),
    ("disco.div_cc", ("calls", "s")),
    ("disco.div_pc", ("s",)),
    ("disco.div_pp", ("s",)),
    ("train.prepare_records", ("s",)),
    ("train.save_checkpoint", ("calls", "s")),
    ("train.load_checkpoint", ("calls", "s")),
    ("scorer.features", ("s",)),
    ("synthgen.make_scene", ("calls", "s")),
    ("scenes.save_dataset", ("s",)),
    ("scenes.load_dataset", ("s",)),
    ("prednet.predict", ("calls", "s")),
    ("prednet.decode", ("calls", "s")),
    ("evaluate.evaluate_predictions", ("s",)),
    ("evaluate.map_at", ("calls", "s")),
    ("cli.gen", ("self_s",)),
    ("cli.train", ("self_s",)),
    ("cli.infer", ("self_s",)),
    ("cli.eval", ("self_s",)),
)
COUNTER_METRICS = ("condnet.greedy_infer.errors", "loss.delta.calls",
                   "train.prepare_records.skipped", "train.save_checkpoint.bytes",
                   "scenes.save_dataset.bytes", "scorer.features.misses",
                   "scenes.geometry.misses")
UNITS = {"calls": "count", "s": "s", "self_s": "s", "p50_us": "us",
         "p99.9_us": "us", "errors": "count", "skipped": "count",
         "bytes": "B", "misses": "count"}


class BenchError(Exception):
    pass


# -- inputs --------------------------------------------------------------

def merge(base: dict, overrides: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in overrides.items():
        if isinstance(value, dict):
            out[key] = merge(out.get(key, {}), value)
        else:
            out[key] = value
    return out


def workload_config(root: str, spec: dict, seed: int) -> dict:
    """The workload's run config; the seed drives generation and training."""
    with open(os.path.join(root, spec["base"])) as fh:
        cfg = merge(json.load(fh), spec["overrides"])
    cfg["seed"] = seed
    cfg["train"]["seed"] = seed
    return cfg


# -- processes -----------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ANNOCONSIST_SEED", None)  # would override the workload seed
    return env


def run_worker(root: str, extra: list, timeout: float) -> dict:
    cmd = [sys.executable, WORKER, "--src", os.path.join(root, "src")] + extra
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(timeout, 1.0), env=child_env(),
                              cwd=root)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed nothing:\n{proc.stderr}")
    out = json.loads(lines[-1])
    out["stderr"] = proc.stderr
    return out


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_rep(root: str, cfg_path: str, out: str, trace: bool,
            timeout: float) -> dict:
    os.makedirs(out)
    extra = ["--config", cfg_path, "--out", out] + (["--trace"] if trace else [])
    t = time.perf_counter()
    rep = run_worker(root, extra, timeout)
    rep["wall_s"] = time.perf_counter() - t
    stages = rep["stages"]
    rep["ok"] = len(stages) == 4 and all(s["rc"] == 0 for s in stages.values())
    if rep["ok"]:
        rep["pipeline_s"] = sum(s["s"] for s in stages.values())
        rep["hashes"] = {p: sha256(os.path.join(out, p)) for p in HASHED}
        rep.update(read_outputs(out, stages))
    return rep


def read_outputs(out: str, stages: dict) -> dict:
    """Held-out mAP@0.50 as eval prints it, and the failed-scene tally."""
    m = re.search(r"^mAP@0\.50\s+(\S+)$", stages["eval"]["stdout"], re.M)
    s = re.search(r"\((\d+) skipped\)", stages["train"]["stdout"])
    if m is None or s is None:
        raise BenchError("could not read eval mAP or train skip count")
    with open(os.path.join(out, "preds.json")) as fh:
        preds = json.load(fh)["scenes"]
    return {"map50": float(m.group(1)), "skipped": int(s.group(1)),
            "empty_heldout": sum(1 for sc in preds if not sc["final"]["samples"]),
            "n_preds": len(preds)}


# -- checks --------------------------------------------------------------

def expected_counts(cfg: dict, n_used: int) -> dict:
    """Closed-form call counts of one traced pipeline. n_used is the number
    of training scenes left after the supervision regime."""
    t = cfg["train"]
    if t["cond_pointwise"] or t["gamma"] == 0.0 or t["k"] < 2:
        raise BenchError("closed forms assume K >= 2 draws with the "
                         "pairwise diversity term on")
    k, n_eval = t["k"], cfg["n_eval_scenes"]
    pairs = k * (k - 1)
    cond_epochs = t["init_epochs"] + t["outer_iters"] * t["cond_epochs"]
    pred_phases = t["outer_iters"] + 1
    log_rows = cond_epochs + pred_phases * t["pred_epochs"]
    out = {
        # anchored init epochs skip the reference call: K(K-1) per scene;
        # regular cond epochs make K reference + K(K-1) pairwise calls
        "condnet.greedy_infer.dlm.calls": n_used * (
            t["init_epochs"] * pairs
            + t["outer_iters"] * t["cond_epochs"] * (k + pairs)),
        "condnet.sample_k.train.calls": n_used * (cond_epochs + pred_phases),
        "loss.delta.calls": log_rows * n_used * pairs,
        "train.load_checkpoint.calls": pred_phases * n_eval,
    }
    if t["supervision"] == "image":
        # box scenes whose filtered pool is empty never reach sample_k
        out["condnet.sample_k.infer.calls"] = pred_phases * n_eval
        out["condnet.greedy_infer.sample.calls"] = k * (
            out["condnet.sample_k.train.calls"] + pred_phases * n_eval)
    return out


def check_reps(reps: list, cfg: dict, spec: dict) -> list:
    problems = []
    for i, rep in enumerate(reps):
        if not rep["ok"]:
            bad = {n: s["rc"] for n, s in rep["stages"].items() if s["rc"] != 0}
            problems.append(f"rep {i}: stage exit codes {bad}\n{rep['stderr']}")
    ok = [r for r in reps if r["ok"]]
    if not ok:
        return problems or ["no repetition completed"]
    if any(r["hashes"] != ok[0]["hashes"] for r in ok):
        problems.append("output hashes differ between repetitions")
    if any(r["map50"] != ok[0]["map50"] for r in ok):
        problems.append("held-out mAP differs between repetitions")
    if ok[0]["n_preds"] != cfg["n_eval_scenes"]:
        problems.append(f"predictions cover {ok[0]['n_preds']} of "
                        f"{cfg['n_eval_scenes']} held-out scenes")
    gate = spec["map_gate"]
    if gate is not None and ok[0]["map50"] < gate:
        problems.append(f"held-out mAP@0.50 {ok[0]['map50']} below {gate}")
    return problems


def check_trace(traced: dict, cfg: dict) -> list:
    counts = dict(traced["counters"])
    for name, agg in traced["layers"].items():
        counts[f"{name}.calls"] = agg["calls"]
    problems = []
    if counts.get("trace.dlm_order_mismatch"):
        problems.append("cond_grad made an unexpected number of augmented calls")
    skipped = counts.get("train.prepare_records.skipped", 0)
    for name, want in expected_counts(cfg, cfg["n_scenes"] - skipped).items():
        got = counts.get(name, 0)
        if got != want:
            problems.append(f"{name} = {got}, closed form gives {want}")
    return problems


# -- metrics -------------------------------------------------------------

def scene_failures(rep: dict, cfg: dict) -> float:
    return (rep["skipped"] + rep["empty_heldout"]) / (
        cfg["n_scenes"] + cfg["n_eval_scenes"])


def end_to_end(reps: list, setup: list, cfg: dict) -> dict:
    med = statistics.median
    values = {
        "setup_s": med(p["s"] for p in setup),
        "pipeline_s": med(r["pipeline_s"] for r in reps),
        "scene_ok_frac": 1.0 - scene_failures(reps[0], cfg),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
    }
    values["train_s"] = med(r["stages"]["train"]["s"] for r in reps)
    return {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}


def raw_medians(reps: list, setup: list) -> dict:
    """Unscaled wall seconds of the timed end-to-end metrics, as a record
    next to the scaled ones."""
    med = statistics.median
    return {"setup_s": med(p["raw_s"] for p in setup),
            "train_s": med(r["stages"]["train"]["raw_s"] for r in reps),
            "pipeline_s": med(sum(st["raw_s"] for st in r["stages"].values())
                              for r in reps)}


def per_layer(traced: dict, plain: dict, cfg: dict) -> dict:
    layers, counters = traced["layers"], traced["counters"]
    out = {}
    for span, fields in SPAN_METRICS:
        agg = layers.get(span, {})
        for f in fields:
            value = agg.get(f, 0 if f == "calls" else 0.0)
            out[f"{span}.{f}"] = {"value": value, "unit": UNITS[f]}
    for name in COUNTER_METRICS:
        out[name] = {"value": counters.get(name, 0),
                     "unit": UNITS[name.rsplit(".", 1)[-1]]}
    dlm = layers.get("condnet.greedy_infer.dlm", {}).get("calls", 0)
    unchanged = counters.get("condnet.greedy_infer.dlm.unchanged", 0)
    out["condnet.greedy_infer.dlm.unchanged_frac"] = {
        "value": unchanged / dlm if dlm else 0.0, "unit": "ratio"}
    out["trace.overhead_s"] = {
        "value": traced["pipeline_s"] - plain["pipeline_s"], "unit": "s"}
    out["failed_scene_frac"] = {"value": scene_failures(traced, cfg),
                                "unit": "ratio"}
    out["heldout_map50"] = {"value": traced["map50"], "unit": "mAP"}
    for stage in SHORT_STAGES:
        out[f"{stage}_s"] = {"value": plain["stages"][stage]["s"], "unit": "s"}
    return out


# -- running -------------------------------------------------------------

def environment() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_1m_start": os.getloadavg()[0],
    }


def measure(root: str, spec: dict, seed: int, seconds: float, trace: bool,
            workdir: str) -> dict:
    """Run one workload. Returns the result object, the failed checks, the
    environment and per-repetition details, and writes them all to
    workdir/outcome.json."""
    t_start = time.perf_counter()
    env = environment()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - t_start)

    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cfg = workload_config(root, spec, seed)
    cfg_path = os.path.join(workdir, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)

    setup = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setup.append(run_worker(root, [], remaining())["setup"])

    reps = []
    loop_start = time.perf_counter()
    plan = [False, True] if trace else None
    while True:
        traced = plan[len(reps)] if trace else False
        out = os.path.join(workdir, f"rep{len(reps)}")
        reps.append(run_rep(root, cfg_path, out, traced, remaining()))
        setup.append(reps[-1]["setup"])
        if not reps[-1]["ok"]:
            break
        if trace:
            if len(reps) == len(plan):
                break
            continue
        typical = statistics.median(r["wall_s"] for r in reps)
        elapsed = time.perf_counter() - loop_start
        if elapsed + typical > seconds or typical * 1.3 > remaining():
            break

    problems = check_reps(reps, cfg, spec)
    ok = [r for r in reps if r["ok"]]
    metrics, raw = {}, {}
    if trace and len(ok) == 2:
        problems += check_trace(ok[1], cfg)
        metrics = per_layer(ok[1], ok[0], cfg)
    elif not trace and ok:
        metrics = end_to_end(ok, setup, cfg)
        raw = raw_medians(ok, setup)
    attempted = sum(len(r["stages"]) for r in reps)
    failed = sum(1 for r in reps for s in r["stages"].values() if s["rc"] != 0)
    env["kernel_backend"] = reps[0]["backend"]
    env["loadavg_1m_end"] = os.getloadavg()[0]
    outcome = {
        "result": {"correct": not problems and bool(metrics),
                   "attempted": attempted, "failed": failed, "metrics": metrics},
        "problems": problems,
        "env": env,
        "setup": setup,
        "raw": raw,
        "reps": [{"stages": {n: {k: s[k] for k in s if k != "stdout"}
                             for n, s in r["stages"].items()},
                  "hashes": r.get("hashes"), "map50": r.get("map50")}
                 for r in reps],
    }
    with open(os.path.join(workdir, "outcome.json"), "w") as fh:
        json.dump(outcome, fh, indent=1)
    return outcome


def report(name: str, seed: int, outcome: dict) -> None:
    print(f"workload {name}, seed {seed}")
    print("env " + json.dumps(outcome["env"], sort_keys=True))
    for i, rep in enumerate(outcome["reps"]):
        print(f"rep {i}:")
        for n, st in rep["stages"].items():
            print(f"  {n:<6} {st['s']:9.4f} s  raw {st['raw_s']:9.4f} s  "
                  f"slowdown {st['slowdown']:.3f}  exit {st['rc']}")
        for path, digest in (rep["hashes"] or {}).items():
            print(f"  sha256 {path} {digest}")
        if rep["map50"] is not None:
            print(f"  heldout_map50 {rep['map50']} mAP")
    for n, p in enumerate(outcome["setup"]):
        print(f"setup {n}: {p['s']:.4f} s  raw {p['raw_s']:.4f} s  "
              f"slowdown {p['slowdown']:.3f}")
    for mname, value in outcome["raw"].items():
        print(f"  raw {mname:<40} {value:>16.6g} s")
    for mname, m in outcome["result"]["metrics"].items():
        print(f"  {mname:<44} {m['value']:>16.6g} {m['unit']}")
    for p in outcome["problems"]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps(outcome["result"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = WORKLOADS[args.workload]
    needed = [os.path.join("src", "annoconsist", "cli.py"), spec["base"]]
    missing = [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not an annoconsist checkout, missing {missing}",
              file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, "_work", args.workload)
    try:
        outcome = measure(ROOT, spec, args.seed, args.seconds,
                          bool(args.trace), workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    report(args.workload, args.seed, outcome)
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
