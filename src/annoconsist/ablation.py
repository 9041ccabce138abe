"""Ablation grid: scoring-term modes crossed with pointwise variants.

Rows are the three term modes (unary only; unary + pairwise; all three).
Columns are the four self-diversity variants: both distributions
probabilistic, predictor pointwise, conditional pointwise (zero noise,
no sample-diversity term), and both pointwise. Every cell is a full
training run evaluated on held-out scenes, optionally averaged over
several seeds.
"""

import csv
import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .condnet import InferenceConfig, TERM_MODES
from .loss import LossConfig
from .train import TrainConfig, evaluate_params, fit
from .workers import forked_imap, usable_cpus

# (name, pred_pointwise, cond_pointwise)
VARIANTS = (
    ("full", False, False),
    ("pw-pred", True, False),
    ("pw-cond", False, True),
    ("pw-both", True, True),
)
VARIANT_NAMES = tuple(v[0] for v in VARIANTS)
DEFAULT_ABLATION_THRESHOLDS = (0.25, 0.50, 0.75)


@dataclass
class AblationResult:
    thresholds: tuple
    seeds: tuple
    cells: dict = field(default_factory=dict)  # (term, variant) -> {t: mAP}

    def format_table(self, thresh: float = 0.50) -> str:
        width = max(len(v) for v in VARIANT_NAMES) + 2
        head = "term".ljust(8) + "".join(v.rjust(width) for v in VARIANT_NAMES)
        lines = [f"mAP at mask IoU {thresh:.2f}", head]
        for tm in TERM_MODES:
            row = tm.ljust(8)
            for v in VARIANT_NAMES:
                row += f"{self.cells[(tm, v)][thresh]:.4f}".rjust(width)
            lines.append(row)
        return "\n".join(lines)

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["term_mode", "variant"]
                            + [f"map@{t:.2f}" for t in self.thresholds])
            for tm in TERM_MODES:
                for v in VARIANT_NAMES:
                    writer.writerow(
                        [tm, v] + [f"{self.cells[(tm, v)][t]:.6f}"
                                   for t in self.thresholds])


def _cell_maps(train_records, eval_records, inf_cfg, loss_cfg, thresholds,
               cfg) -> list:
    """One (cell, seed) task: fit under cfg, then held-out mAP per
    threshold."""
    res = fit(train_records, cfg, inf_cfg, loss_cfg)
    ev = evaluate_params(res.pred, eval_records, thresholds,
                         cfg.decode_thresh, cfg.decode_nms)
    return [ev.map_r[t] for t in thresholds]


def ablation_run(train_records: list, eval_records: list,
                 base_cfg: TrainConfig | None = None,
                 inf_cfg: InferenceConfig | None = None,
                 loss_cfg: LossConfig | None = None,
                 thresholds=DEFAULT_ABLATION_THRESHOLDS,
                 seeds: tuple | None = None,
                 verbose: bool = False) -> AblationResult:
    """Train and evaluate all twelve configurations on a fixed dataset.

    Every cell differs from base_cfg only in term_mode, the two pointwise
    flags and (when averaging) the seed, so the all-terms fully
    probabilistic cell reproduces a plain fit with the same seed exactly.
    The (cell, seed) fits run in one forked worker per usable CPU (in
    process when there is one); each fit is deterministic, so the result
    does not depend on the number of workers.
    """
    base = base_cfg or TrainConfig()
    lcfg = loss_cfg or LossConfig()
    icfg = inf_cfg or InferenceConfig()
    if seeds is None:
        seeds = (base.seed,)
    result = AblationResult(thresholds=tuple(thresholds), seeds=tuple(seeds))
    cells = [(tm, name, pw_p, pw_c) for tm in TERM_MODES
             for name, pw_p, pw_c in VARIANTS]
    tasks = [dataclasses.replace(base, term_mode=tm, pred_pointwise=pw_p,
                                 cond_pointwise=pw_c, seed=s)
             for tm, _, pw_p, pw_c in cells for s in seeds]
    shared = (train_records, eval_records, icfg, lcfg, result.thresholds)
    maps = forked_imap(_cell_maps, tasks, usable_cpus(), shared)
    for tm, name, _, _ in cells:
        per_seed = [next(maps) for _ in seeds]
        result.cells[(tm, name)] = {
            t: float(np.mean([m[i] for m in per_seed]))
            for i, t in enumerate(result.thresholds)}
        if verbose:
            at50 = result.cells[(tm, name)].get(0.50)
            shown = "n/a" if at50 is None else f"{at50:.4f}"
            print(f"[{tm:>6s} | {name:<8s}] map50={shown}")
    return result
