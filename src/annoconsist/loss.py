"""Task loss between two labelings of one scene's proposal pool.

Both labelings live on one shared pool, so proposal u is compared with
itself: a pair that agrees costs nothing, and any disagreement (between
two classes, or between a class and background) costs lambda_cls.
Delta is therefore a weighted Hamming distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class LossConfig:
    lambda_cls: float = 1.0


def cost_row(y_ref: np.ndarray, num_classes: int, cfg: LossConfig) -> np.ndarray:
    """(P, C+1) table of the cost of labeling proposal u with class c when
    the reference says y_ref[u], for every entry. A stack of labelings of
    shape (..., P) gives one table per labeling, (..., P, C+1)."""
    hit = y_ref[..., None] == np.arange(num_classes + 1)
    return np.where(hit, 0.0, float(cfg.lambda_cls))


def delta(y1: np.ndarray, y2: np.ndarray, cfg: LossConfig) -> float:
    """Dissimilarity between two labelings of one scene's pool."""
    return cfg.lambda_cls * int(np.count_nonzero(y1 != y2))
