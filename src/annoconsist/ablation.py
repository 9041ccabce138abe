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
    """
    base = base_cfg or TrainConfig()
    lcfg = loss_cfg or LossConfig()
    icfg = inf_cfg or InferenceConfig()
    if seeds is None:
        seeds = (base.seed,)
    result = AblationResult(thresholds=tuple(thresholds), seeds=tuple(seeds))
    for tm in TERM_MODES:
        for name, pw_p, pw_c in VARIANTS:
            per_thresh = {t: [] for t in result.thresholds}
            for s in seeds:
                cfg = dataclasses.replace(
                    base, term_mode=tm, pred_pointwise=pw_p,
                    cond_pointwise=pw_c, seed=s)
                res = fit(train_records, cfg, icfg, lcfg)
                ev = evaluate_params(res.pred, eval_records,
                                     result.thresholds,
                                     cfg.decode_thresh, cfg.decode_nms)
                for t in result.thresholds:
                    per_thresh[t].append(ev.map_r[t])
            result.cells[(tm, name)] = {
                t: float(np.mean(v)) for t, v in per_thresh.items()}
            if verbose:
                at50 = result.cells[(tm, name)].get(0.50)
                shown = "n/a" if at50 is None else f"{at50:.4f}"
                print(f"[{tm:>6s} | {name:<8s}] map50={shown}")
    return result
