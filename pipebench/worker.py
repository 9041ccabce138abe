"""One fresh process of the benchmark: set-up, then optionally one pipeline.

    python3 pipebench/worker.py --src SRC                        # set-up only
    python3 pipebench/worker.py --src SRC --config CFG --out DIR [--trace]

Set-up is `import annoconsist` (numpy included) plus `kernels.warmup()`;
this process has not imported numpy before it. The pipeline is the
quick-start chain gen -> train -> infer -> eval, each stage run once,
in-process through `annoconsist.cli.run`, on the files the previous stage
wrote.

Every time is given raw and scaled to nominal machine speed (see
speed.py). Untraced, calibration samples are taken throughout; with
--trace the tracer wraps the library and only bursts at stage edges are
sampled. The last line of standard output is one JSON object.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

from speed import SpeedSampler, scaled_seconds

STAGES = ("gen", "train", "infer", "eval")
BURST = 5  # calibration samples taken right before and after each stage


def stage_argv(stage: str, cfg: str, out: str) -> list:
    data = os.path.join(out, "data")
    model = os.path.join(out, "model")
    preds = os.path.join(out, "preds.json")
    return {
        "gen": ["gen", "--config", cfg, "--out", data],
        "train": ["train", "--config", cfg, "--data", data, "--out", model],
        "infer": ["infer", "--model", model, "--data", data, "--out", preds],
        "eval": ["eval", "--pred", preds, "--data", data, "--config", cfg],
    }[stage]


def run_pipeline(cli, cfg: str, out: str, sampler, tracer=None) -> dict:
    stages = {}
    for stage in STAGES:
        argv = stage_argv(stage, cfg, out)
        buf = io.StringIO()
        span = tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()
        sampler.sample(BURST)
        start = time.perf_counter()
        with span, contextlib.redirect_stdout(buf):
            rc = cli.run(argv)
        end = time.perf_counter()
        sampler.sample(BURST)
        stages[stage] = dict(scaled_seconds(start, end, sampler.samples), rc=rc,
                             stdout=buf.getvalue())
        if rc != 0:
            break
    return stages


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--config")
    ap.add_argument("--out")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)

    with SpeedSampler() as sampler:
        sampler.sample(BURST)
        t0 = time.perf_counter()
        import annoconsist  # noqa: F401
        from annoconsist import kernels
        kernels.warmup()
        t1 = time.perf_counter()
        sampler.sample(BURST)
        result = {"setup": scaled_seconds(t0, t1, sampler.samples),
                  "backend": kernels.backend_name()}
        if args.config:
            # a periodic sample landing inside a traced call would inflate
            # its span, so traced stages are scaled from their bracketing
            # bursts only
            with (contextlib.nullcontext() if args.trace
                  else sampler.periodic()):
                result.update(pipeline(args, sampler))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def pipeline(args, sampler) -> dict:
    from annoconsist import cli
    if not args.trace:
        return {"stages": run_pipeline(cli, args.config, args.out, sampler)}
    from tracing import Tracer
    tracer = Tracer(run_id=os.path.basename(args.out))
    tracer.install()
    try:
        stages = run_pipeline(cli, args.config, args.out, sampler, tracer)
    finally:
        tracer.uninstall()
    tracer.save(os.path.join(args.out, "spans.npz"))
    layers = {}
    for name, agg in tracer.summary().items():
        durations = agg.pop("durations_us")
        layers[name] = dict(agg, **percentiles(durations))
    return {"stages": stages, "layers": layers, "counters": tracer.counters}


def percentiles(durations_us) -> dict:
    import numpy as np
    if len(durations_us) == 0:
        return {"p50_us": 0.0, "p99.9_us": 0.0}
    return {"p50_us": float(np.percentile(durations_us, 50)),
            "p99.9_us": float(np.percentile(durations_us, 99.9))}


if __name__ == "__main__":
    sys.exit(main())
