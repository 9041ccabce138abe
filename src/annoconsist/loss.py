"""Task loss between two labelings of one scene's proposal pool.

Both labelings live on one shared pool, so proposal u is compared with
itself: a pair that agrees costs nothing, and any disagreement (between
two classes, or between a class and background) costs lambda_cls.
Delta is therefore a weighted Hamming distance.

delta compares labelings packed as one-hot bitsets by label_bits: one
Python int per labeling, with bit u*m + y_u set. Two labelings that
differ at a proposal differ in two of its bits, so the Hamming distance
is half the popcount of their XOR.
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


def label_bits(labels: np.ndarray) -> list:
    """The K labelings of a (K, P) stack of non-negative labels as K
    one-hot bitsets, comparable with each other by delta. The width m of
    a proposal's field is the stack's largest label plus one, so no label
    reaches into the next proposal's bits."""
    if labels.min() < 0:
        raise ValueError("label_bits needs non-negative labels")
    m = int(labels.max()) + 1
    onehot = labels[..., None] == np.arange(m)
    packed = np.packbits(onehot.reshape(len(labels), -1), axis=1,
                         bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def delta(b1: int, b2: int, cfg: LossConfig) -> float:
    """Dissimilarity between two labelings of one scene's pool, given as
    bitsets of one label_bits stack."""
    return cfg.lambda_cls * ((b1 ^ b2).bit_count() >> 1)
