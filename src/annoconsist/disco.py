"""Dissimilarity coefficient between the prediction and conditional sides.

All three diversity terms use the weighted Hamming task loss on the
shared pool. div_pc takes the exact expectation over the factorized
state and the empirical mean over the K samples; div_cc is the unbiased
k != k' sample estimator; div_pp is exact on both sides. The
coefficient is DIV(p,c) - gamma DIV(c,c) - (1-gamma) DIV(p,p); train's
epoch metrics combine the three terms.

On the predictor side the samples matter only through one (P, C+1)
class-frequency table q̄ per sample batch: train builds it once per batch
for the predictor gradient. div_pc itself sums per draw over the (K, P)
label stack, so it matches the per-draw expectation bit for bit.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .loss import LossConfig, delta, label_bits


def div_pc(state: np.ndarray, labels: np.ndarray, cfg: LossConfig) -> float:
    """(1/K) sum_k E_state Delta(y_p, y_c^k) over the (K, P) label stack.
    Draw k's term is lambda * sum_u (1 - state[u, y^k_u]); the K terms are
    summed in draw order."""
    k, p = labels.shape
    per_draw = cfg.lambda_cls * (1.0 - state[np.arange(p), labels]).sum(axis=1)
    return sum(per_draw.tolist()) / k


def div_cc(labels: np.ndarray, rec, cfg: LossConfig) -> float:
    """(1/(K(K-1))) sum_{k != k'} Delta(y^k, y^k'). Needs K >= 2. The
    labelings share rec's pool, so Delta does not read rec itself. The
    K rows are packed into bitsets once; the K(K-1) terms are summed in
    row-major (k, k' != k) order."""
    k = labels.shape[0]
    if k < 2:
        raise ValueError("div_cc needs at least two samples")
    acc = 0.0
    for a, b in permutations(label_bits(labels), 2):
        acc += delta(a, b, cfg)
    return acc / (k * (k - 1))


def div_pp(state: np.ndarray, cfg: LossConfig) -> float:
    """E Delta(y, y') for two independent draws from the state."""
    return float(cfg.lambda_cls * (1.0 - (state * state).sum(axis=1)).sum())
