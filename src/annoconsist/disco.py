"""Dissimilarity coefficient between the prediction and conditional sides.

All three diversity terms use the weighted Hamming task loss on the
shared pool. div_pc takes the exact expectation over the factorized
state and the empirical mean over the K samples; div_cc is the unbiased
k != k' sample estimator; div_pp is exact on both sides. The
coefficient is DIV(p,c) - gamma DIV(c,c) - (1-gamma) DIV(p,p); train's
epoch metrics combine the three terms.

div_pc and div_pp work on a stack of scenes: the (ΣP, C+1) predictor
states of several scenes one above the other, scene j's rows being
bounds[j]:bounds[j + 1]. Each computes its per-proposal terms over the
whole stack at once, then sums each scene's slice; they return one value
per scene, equal bit for bit to the term computed on that scene alone.
div_cc reads one scene's K labelings as the bitsets of loss.label_bits,
which a sample batch packs once for all its log rows.

On the predictor side the samples matter only through one (P, C+1)
class-frequency table q̄ per sample batch: train builds it once per batch
for the predictor gradient. div_pc itself sums per draw over the (K, ΣP)
label stack, so it matches the per-draw expectation bit for bit.
"""

from __future__ import annotations

from itertools import pairwise, permutations

import numpy as np

from .loss import LossConfig, delta


def div_pc(state: np.ndarray, labels: np.ndarray, bounds: list,
           cfg: LossConfig) -> list:
    """Per scene, (1/K) sum_k E_state Delta(y_p, y_c^k) over the scene's
    columns of the (K, ΣP) label stack, whose column u labels state row u.
    Draw k's term is lambda * sum_u (1 - state[u, y^k_u]) over the scene's
    proposals; the K terms are summed in draw order."""
    k, n = labels.shape
    miss = 1.0 - state[np.arange(n), labels]
    per_draw = cfg.lambda_cls * np.array(
        [miss[:, a:b].sum(axis=1) for a, b in pairwise(bounds)])
    return [sum(row) / k for row in per_draw.tolist()]


def div_cc(bits: list, cfg: LossConfig) -> float:
    """(1/(K(K-1))) sum_{k != k'} Delta(y^k, y^k') over one scene's K
    labelings, given as the bitsets of one label_bits stack. Needs
    K >= 2. The K(K-1) terms are summed from 0.0 in row-major
    (k, k' != k) order."""
    k = len(bits)
    if k < 2:
        raise ValueError("div_cc needs at least two samples")
    acc = 0.0
    for a, b in permutations(bits, 2):
        acc += delta(a, b, cfg)
    return acc / (k * (k - 1))


def div_pp(state: np.ndarray, bounds: list, cfg: LossConfig) -> list:
    """Per scene, E Delta(y, y') for two independent draws from its
    state."""
    spread = 1.0 - (state * state).sum(axis=1)
    return [float(cfg.lambda_cls * spread[a:b].sum())
            for a, b in pairwise(bounds)]
