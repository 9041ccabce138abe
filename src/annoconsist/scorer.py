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
    """(P, D) feature matrix; cached on the record.

    Areas, centroids and seed overlaps are exact integer counts over the
    pool stack, divided in the order a per-proposal pass divides them. The
    colour and ring-edge means stay per proposal, since they are float32
    reductions, each over its proposal's pixels in row-major order."""
    if rec._features is not None:
        return rec._features
    p = rec.num_proposals
    d = feature_dim(rec.num_classes)
    h, w = rec.height, rec.width
    out = np.zeros((p, d), dtype=np.float64)
    flat = rec.pool.reshape(p, h * w)
    area = np.count_nonzero(flat, axis=1)
    if not area.all():
        raise ValueError("pool contains an empty mask")
    out[:, 0] = area / (h * w)
    # the mean x of a mask is sum x / area, as np.mean of its coordinates
    out[:, 1] = rec.pool.sum(axis=1) @ np.arange(w) / area / w
    out[:, 2] = rec.pool.sum(axis=2) @ np.arange(h) / area / h
    image = rec.image.reshape(h * w, 3)
    for i, px in enumerate(_pixels_by_row(flat)):
        out[i, 3:6] = image[px].mean(axis=0)
    edges = rec.edges.reshape(h * w)
    for i, px in enumerate(_pixels_by_row(
            inner_boundary(rec.pool).reshape(p, h * w))):
        out[i, 6] = edges[px].mean() if px.size else 0.0
    for j in sorted({s.class_id for s in rec.seeds}):
        inter = np.stack([np.count_nonzero(flat & s.mask.reshape(h * w),
                                           axis=1)
                          for s in rec.seeds if s.class_id == j])
        out[:, 7 + j - 1] = (inter / area).max(axis=0)
    out[:, d - 1] = 1.0
    rec._features = out
    return out


def _pixels_by_row(flat: np.ndarray) -> list:
    """Per row of a (P, N) bool stack, its set column indices, ascending."""
    idx = np.flatnonzero(flat)
    idx %= flat.shape[1]
    return np.split(idx, np.cumsum(np.count_nonzero(flat, axis=1))[:-1])


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
