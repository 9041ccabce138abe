"""Conditional distribution over labelings: scoring, refinement, inference.

A labeling assigns each pool proposal a class id (0 = background). The
conditional side scores labelings as sum of per-proposal entries of a
refined score table plus a hard annotation-consistency term, and samples
by running greedy inference on K noise-perturbed tables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .scenes import Annotation, PoolGeometry, SceneRecord
from .scorer import feature_dim, features, score_from_input

TERM_MODES = ("U", "U+P", "U+P+H")


class InferenceError(Exception):
    pass


@dataclass
class InferenceConfig:
    delta: float = 8.0  # stabilizer in the pairwise update
    n_iters: int = 3  # refinement iterations
    overlap_t: float = 0.5  # greedy suppression threshold
    select_threshold: float = 0.0  # stop once the next score falls to/below this
    box_rho: float = 0.5  # box-IoU needed to count as covering a box

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ValueError("delta must be positive")
        if self.n_iters < 0:
            raise ValueError("n_iters must be non-negative")
        if not 0.0 <= self.overlap_t <= 1.0:
            raise ValueError("overlap_t must lie in [0, 1]")
        if not 0.0 <= self.box_rho <= 1.0:
            raise ValueError("box_rho must lie in [0, 1]")


def refine_stack(f: np.ndarray, adjacency, cfg: InferenceConfig) -> np.ndarray:
    """All refinement iterates of a (P, C+1) table, shape
    (n_iters+1, P, C+1).

    Each iteration adds, per neighbor pair, exp(-I_uv) / (gap^2 + delta);
    updates read the previous iterate only, so order never matters. Strong
    edges (large I_uv) gate the flow to nothing.
    """
    g0 = np.ascontiguousarray(f, dtype=np.float64)
    return kernels.refine_forward(g0, adjacency.kernel_edges(g0.shape[-1]),
                                  cfg.delta, cfg.n_iters)


def refine_backward(stack: np.ndarray, adjacency, cfg: InferenceConfig,
                    q_final: np.ndarray) -> np.ndarray:
    """Adjoint of refine_stack: gradient wrt the unrefined table."""
    return kernels.refine_backward(
        stack, adjacency.kernel_edges(q_final.shape[-1]), cfg.delta,
        np.ascontiguousarray(q_final, dtype=np.float64),
    )


def higher_order_feasible(labels: np.ndarray, ann: Annotation,
                          geom: PoolGeometry,
                          cfg: InferenceConfig) -> np.ndarray | bool:
    """Annotation consistency: every present class selected at least once;
    with boxes, every box covered by a selected proposal of its class whose
    tight box reaches IoU box_rho.

    labels is a (..., P) stack of labelings; the result holds one bool per
    labeling, shape (...). A single (P,) labeling gives one bool.
    """
    ok = np.ones(labels.shape[:-1], dtype=np.bool_)
    for j in ann.classes.tolist():
        ok &= (labels == j).any(axis=-1)
    if ann.boxes is not None:
        cover, _ = geom.covering(ann.boxes[:, 1:], cfg.box_rho)
        # (..., B, P): proposal u covers box b and carries b's class
        hit = cover & (labels[..., None, :] == ann.boxes[:, :1])
        ok &= hit.any(axis=-1).all(axis=-1)
    return ok if ok.ndim else bool(ok)


def greedy_infer(g: np.ndarray, ann: Annotation, geom: PoolGeometry,
                 cfg: InferenceConfig, enforce: bool = True,
                 memo: dict | None = None) -> np.ndarray:
    """Per-class greedy selection.

    Classes are visited in ascending id. Within a class, proposals are
    taken in descending score order (ties to the lower id); taking r_i
    drops every remaining r_l with ovl[i, l] = |r_i ∩ r_l| / |r_l| > t from
    that class's candidates. Selection stops once the next candidate's
    score is at or below the threshold; with enforce=True the first take
    per class ignores the threshold, and box annotations additionally get
    a covering proposal forced in when the threshold pass missed them.

    memo, when given, maps a table's bytes to the labels already computed
    for it, and must only be shared by calls with the same ann, geom, cfg
    and enforce. A request whose table bytes are in it returns the stored
    labels without computing; a computed result is stored. Greedy is a
    pure function of the table, so the answer is exact, ties and -0.0
    included. Labels that pass through the memo are read-only. An
    InferenceError is never stored, so it is raised on every request.
    Each request is one greedy_infer call; each computed one is one
    kernels.greedy_labels call.
    """
    g = np.ascontiguousarray(g, dtype=np.float64)
    if memo is not None:
        key = g.tobytes()
        labels = memo.get(key)
        if labels is not None:
            return labels
    labels, status = kernels.greedy_labels(
        g, ann.classes, float(cfg.select_threshold),
        geom.keep_masks(cfg.overlap_t), enforce)
    if status == kernels.EXHAUSTED:
        raise InferenceError(
            "no proposal left to select for an annotated class")
    if enforce and ann.boxes is not None:
        labels = _force_box_cover(g, labels, ann, geom, cfg)
    if memo is not None:
        labels.flags.writeable = False
        memo[key] = labels
    return labels


def _force_box_cover(g, labels, ann, geom, cfg):
    """Labels with, per box whose class selects no covering proposal, the
    best-scoring unselected covering proposal set to the box's class. The
    candidates are scanned in ascending id and replace the best only on a
    strictly higher score, so ties go to the lower id, and a -inf or NaN
    score is never taken. labels itself is not modified."""
    out = labels.tolist()
    forced = False
    _, ids = geom.covering(ann.boxes[:, 1:], cfg.box_rho)
    for j, cover in zip(ann.boxes[:, 0].tolist(), ids):
        if any(out[u] == j for u in cover):
            continue
        best = -1
        best_score = -np.inf
        for u in cover:
            if out[u] == 0 and g[u, j] > best_score:
                best = u
                best_score = g[u, j]
        if best < 0:
            raise InferenceError(f"no unselected proposal can cover a class-{j} box")
        out[best] = j
        forced = True
    return np.array(out, dtype=np.int64) if forced else labels


@dataclass
class SampleSet:
    """A scene's K noise draws, stacked along a leading draw axis, with
    everything the backward pass needs of them."""

    z: np.ndarray  # (K, d) noise rows
    stack: np.ndarray  # (n_iters+1, P, C+1) iterates of the noise-free table
    g: np.ndarray  # (K, P, C+1) final tables the inference ran on
    labels: np.ndarray  # (K, P)
    enforced: bool  # consistency forcing used when sampling

    @property
    def k(self) -> int:
        return self.labels.shape[0]


def forward_scores(w: np.ndarray, rec: SceneRecord, z: np.ndarray,
                   cfg: InferenceConfig) -> tuple:
    """Score tables under scorer weights w of K draws from their (K, d)
    noise, refined for cfg.n_iters iterations. Returns the refinement
    stack of the noise-free table, (n_iters+1, P, C+1), and the K final
    tables (K, P, C+1).

    The scorer is linear, so draw k's table is the noise-free table plus
    one offset per class column, b_k = w[:, D:] @ z_k, in every row.
    Refinement reads only gaps within a column, which that offset leaves
    alone, so it is refined once and each draw adds its offset to the
    final iterate. Each offset is reduced over its own noise row alone, so
    a draw's table does not depend on the other draws of the block.
    """
    d = feature_dim(rec.num_classes)
    stack = refine_stack(score_from_input(w[:, :d], features(rec)),
                         rec.adjacency, cfg)
    b = (z[:, None, :] * w[:, d:]).sum(axis=-1)
    return stack, stack[-1] + b[:, None, :]


def sample_k(w: np.ndarray, rec: SceneRecord, z: np.ndarray,
             cfg: InferenceConfig, term_mode: str = "U+P+H",
             enforce: bool | None = None) -> SampleSet:
    """K labelings under scorer weights w from a (K, d) block of noise
    rows, d the scorer's noise width (draw_noise of the scene's keys, or
    zeros in pointwise mode). The pairwise term enters only through
    refinement, so term mode "U" is "U+P" with zero refinement iterations.
    enforce overrides the term-mode default for annotation-consistency
    forcing (the seed-supervised initialization phase forces it in every
    mode).
    """
    if term_mode not in TERM_MODES:
        raise ValueError(f"term_mode must be one of {TERM_MODES}")
    dim = w.shape[1] - feature_dim(rec.num_classes)
    if z.ndim != 2 or z.shape[1] != dim:
        raise ValueError(f"noise block of shape {z.shape} for a scorer of "
                         f"noise width {dim}")
    k = z.shape[0]
    if term_mode == "U":
        cfg = replace(cfg, n_iters=0)
    if enforce is None:
        enforce = term_mode == "U+P+H"
    geom = rec.geometry()
    stack, g = forward_scores(w, rec, z, cfg)
    labels = np.zeros((k, rec.num_proposals), dtype=np.int64)
    for i in range(k):
        labels[i] = greedy_infer(g[i], rec.annotation, geom, cfg,
                                 enforce=enforce)
    return SampleSet(z=z, stack=stack, g=g, labels=labels, enforced=enforce)

