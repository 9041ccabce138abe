"""Per-proposal features and the noise-conditioned scorer.

The scorer maps concat(features(u), z) to a row of C+1 scores (column 0
is background) through a single weight matrix. Feature layout, for C
classes:

    [area, cx, cy, mean_r, mean_g, mean_b, boundary_edge,
     seed_frac_class_1 .. seed_frac_class_C, 1.0]

seed_frac is |r ∩ s| / |r|, maximized over seeds of that class: the
fraction of the proposal covered by the seed. Seed-sized proposals score
near 1, full extents are diluted, so a scorer trained on seeds alone
prefers the discriminative part of an object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .masks import inner_boundary
from .scenes import SceneRecord

NOISE_DIM = 8


def feature_dim(num_classes: int) -> int:
    return 8 + num_classes


def features(rec: SceneRecord) -> np.ndarray:
    """(P, D) feature matrix; cached on the record."""
    if rec._features is not None:
        return rec._features
    p = rec.num_proposals
    d = feature_dim(rec.num_classes)
    out = np.zeros((p, d), dtype=np.float64)
    hw = rec.height * rec.width
    seeds_by_class = {}
    for s in rec.seeds:
        seeds_by_class.setdefault(s.class_id, []).append(s.mask)
    for i in range(p):
        m = rec.pool[i]
        ys, xs = np.nonzero(m)
        area = ys.size
        out[i, 0] = area / hw
        out[i, 1] = xs.mean() / rec.width
        out[i, 2] = ys.mean() / rec.height
        out[i, 3:6] = rec.image[m].mean(axis=0)
        ring = inner_boundary(m)
        out[i, 6] = rec.edges[ring].mean() if ring.any() else 0.0
        for j, seed_masks in seeds_by_class.items():
            best = max(np.count_nonzero(m & s) / area for s in seed_masks)
            out[i, 7 + j - 1] = best
        out[i, d - 1] = 1.0
    rec._features = out
    return out


@dataclass
class CondParams:
    """Scorer parameters: the linear map w of shape (C+1, D+d)."""

    w: np.ndarray

    def copy(self) -> "CondParams":
        return CondParams(w=self.w.copy())


def cond_init(num_classes: int, noise_dim: int = NOISE_DIM) -> CondParams:
    d_in = feature_dim(num_classes) + noise_dim
    return CondParams(w=np.zeros((num_classes + 1, d_in)))


def scorer_input(rec: SceneRecord, z: np.ndarray) -> np.ndarray:
    """(P, D+d) matrix: features with the shared noise row appended. A
    (K, d) stack of noise rows gives the (K, P, D+d) stack of matrices."""
    f = features(rec)
    out = np.empty(z.shape[:-1] + (f.shape[0], f.shape[1] + z.shape[-1]))
    out[..., :f.shape[1]] = f
    out[..., f.shape[1]:] = z[..., None, :]
    return out


def score_from_input(params: CondParams, x: np.ndarray) -> np.ndarray:
    return x @ params.w.T


def score_vjp(params: CondParams, x: np.ndarray, q: np.ndarray) -> CondParams:
    """Gradient of sum(q * F(x)) with respect to the parameters.

    q has the score table's shape; this is the only backward pass the
    trainer needs, since every loss term is a weighted sum of entries.
    """
    return CondParams(w=q.T @ x)


def draw_noise(seed: int, scene_id: int, k: int, extra: int = 0,
               dim: int = NOISE_DIM) -> np.ndarray:
    """U[0,1)^dim, deterministic in (seed, scene_id, k, extra).

    Generator.random gives the same values as uniform(0.0, 1.0), whose
    0.0 + 1.0 * r is exactly r, without uniform's per-call checks."""
    bits = np.random.PCG64(np.random.SeedSequence((seed, scene_id, k, extra)))
    return np.random.Generator(bits).random(dim)


def axpy(dst: CondParams, src: CondParams, alpha: float) -> None:
    """dst += alpha * src, in place."""
    dst.w += alpha * src.w
