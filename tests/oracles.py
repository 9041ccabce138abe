"""Reference implementations that only tests call.

Brute-force and closed-form oracles, and single-mask or single-scene
conveniences over the library's stacked primitives. The pipeline never
runs them; tests check the library against them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from annoconsist.ablation import VARIANT_NAMES
from annoconsist.adjacency import build_adjacency
from annoconsist.condnet import (TERM_MODES, InferenceConfig, InferenceError,
                                 greedy_infer, higher_order_feasible,
                                 refine_backward, refine_stack)
from annoconsist.disco import div_cc, div_pc, div_pp
from annoconsist.evaluate import EvalResult, ap_from_flags
from annoconsist.loss import LossConfig, cost_row, label_bits
from annoconsist.masks import (iou_table, rle_decode_stack, rle_encode_stack,
                               tight_boxes)
from annoconsist.prednet import predict
from annoconsist.scenes import Annotation, PoolGeometry, SceneRecord
from annoconsist.scorer import (feature_dim, features, score_from_input,
                                score_vjp)
from annoconsist.synthgen import (DILATION, ProposalConfig, SceneConfig,
                                  gen_proposals, gen_scene, make_scene)
from annoconsist.train import (PreparedScene, TrainConfig, TrainingError,
                               empirical_distribution, seed_labeling,
                               selection_matrix)


def mask_iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection over union; two empty masks have IoU 0 by convention."""
    inter = np.count_nonzero(a & b)
    union = np.count_nonzero(a | b)
    if union == 0:
        return 0.0
    return inter / union


def mask_area(mask: np.ndarray) -> int:
    return int(np.count_nonzero(mask))


def overlap_fraction(a: np.ndarray, b: np.ndarray) -> float:
    """|a ∩ b| / |b|: the fraction of b covered by a. Not symmetric."""
    nb = np.count_nonzero(b)
    if nb == 0:
        raise ValueError("overlap_fraction: reference mask is empty")
    return np.count_nonzero(a & b) / nb


def tight_box(mask: np.ndarray) -> np.ndarray:
    """Smallest box containing every set pixel, as a (4,) row (x_min,
    y_min, x_max, y_max). Errors on an empty mask."""
    return tight_boxes(np.asarray(mask)[None])[0]


def box_iou(a, b) -> float:
    """IoU of two boxes (x_min, y_min, x_max, y_max) in inclusive pixel
    coordinates, one pair at a time in Python ints; 0 when they share no
    pixel."""
    ax0, ay0, ax1, ay1 = (int(v) for v in a)
    bx0, by0, bx1, by1 = (int(v) for v in b)
    ix = min(ax1, bx1) - max(ax0, bx0) + 1
    iy = min(ay1, by1) - max(ay0, by0) + 1
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    area_a = (ax1 - ax0 + 1) * (ay1 - ay0 + 1)
    area_b = (bx1 - bx0 + 1) * (by1 - by0 + 1)
    return inter / (area_a + area_b - inter)


def rle_encode(mask: np.ndarray) -> dict:
    """Row-major run-length encoding, counts starting with a zeros run."""
    return rle_encode_stack(np.asarray(mask, dtype=bool)[None])[0]


def rle_decode(rle: dict) -> np.ndarray:
    return rle_decode_stack([rle])[0]


def uniform_noise(seed: int, scene_id: int, k: int, extra: int,
                  dim: int) -> np.ndarray:
    """One noise draw by the per-draw construction: U[0,1)^dim from
    uniform(0.0, 1.0) of a generator seeded with (seed, scene_id, k,
    extra)."""
    rng = np.random.default_rng(
        np.random.SeedSequence((seed, scene_id, k, extra)))
    return rng.uniform(0.0, 1.0, size=dim)


def scene_noise(seed: int, rec, k: int, tag: int = 0,
                dim: int = 8) -> np.ndarray:
    """(k, dim) noise block of a scene's k draws under a tag, one
    uniform_noise draw at a time."""
    return np.stack([uniform_noise(seed, rec.scene_id, i, tag, dim)
                     for i in range(k)]).reshape(k, dim)


def edge_weight(adjacency, u: int, v: int) -> float:
    """I_uv of the directed edge u -> v; KeyError when u and v do not
    touch."""
    hit = np.flatnonzero((adjacency.edge_u == u) & (adjacency.edge_v == v))
    if hit.size == 0:
        raise KeyError(f"{u} and {v} are not neighbors")
    return float(adjacency.edge_w[hit[0]])


def num_edges(adjacency) -> int:
    """The number of undirected contact pairs of a graph."""
    return len(adjacency.edge_u) // 2


def pairwise_refine(f: np.ndarray, adjacency, cfg: InferenceConfig) -> np.ndarray:
    """Boundary-aware score smoothing, final table only."""
    return refine_stack(f, adjacency, cfg)[-1]


def scorer_input(rec, z: np.ndarray) -> np.ndarray:
    """(P, D+d) matrix: features with the shared noise row appended. A
    (K, d) stack of noise rows gives the (K, P, D+d) stack of matrices."""
    f = features(rec)
    out = np.empty(z.shape[:-1] + (f.shape[0], f.shape[1] + z.shape[-1]))
    out[..., :f.shape[1]] = f
    out[..., f.shape[1]:] = z[..., None, :]
    return out


# relative float64 bound between the shared refinement and the per-draw
# oracle below, of each result's largest entry: in float64 (F0 + b)
# refined and R(F0) + b differ by rounding only
PER_DRAW_RTOL = 1e-12


def assert_per_draw_close(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    assert float(np.abs(got - want).max(initial=0.0)) <= PER_DRAW_RTOL * scale


def per_draw_forward(w: np.ndarray, rec, z: np.ndarray,
                     cfg: InferenceConfig) -> tuple:
    """Each of K draws scored on its own (P, D+d) input and refined on its
    own: the scorer inputs (K, P, D+d), the refinement iterates
    (n_iters+1, K, P, C+1) and the final tables (K, P, C+1)."""
    x = scorer_input(rec, z)
    stacks = np.stack([refine_stack(score_from_input(w, xk), rec.adjacency,
                                    cfg) for xk in x], axis=1)
    return x, stacks, stacks[-1]


def per_draw_backward(w: np.ndarray, rec, z: np.ndarray, q: np.ndarray,
                      cfg: InferenceConfig) -> np.ndarray:
    """Gradient wrt the scorer weights w of sum_k sum(q_k * G_k), with draw
    k's final table G_k from per_draw_forward: one refinement adjoint and
    one scorer backward per draw, summed in draw order."""
    x, stacks, _ = per_draw_forward(w, rec, z, cfg)
    total = np.zeros_like(w)
    for k in range(len(x)):
        total += score_vjp(x[k], refine_backward(
            np.ascontiguousarray(stacks[:, k]), rec.adjacency, cfg, q[k]))
    return total


def dense_cond_grad(params: np.ndarray, rec, samples, y_ref: np.ndarray,
                    train_cfg: TrainConfig, inf_cfg: InferenceConfig,
                    loss_cfg: LossConfig, anchor: bool = False) -> np.ndarray:
    """cond_grad with the dense coefficient formula on every step, the zero
    step included: the one-hot selection tables of the draws, of the
    reference labelings and of the (K, K) pairwise labelings, accumulated
    in k2 order, then the same backward pass of their sums. Each greedy
    request is computed alone, in cond_grad's order."""
    kk = samples.k
    m = rec.num_classes + 1
    eps = -train_cfg.epsilon
    gamma = 0.0 if train_cfg.cond_pointwise else train_cfg.gamma
    pairs = gamma != 0.0 and kk >= 2

    def infer(k, y):
        aug = eps * cost_row(y, rec.num_classes, loss_cfg)
        return greedy_infer(samples.g[k] + aug, rec.annotation,
                            rec.geometry(), inf_cfg, enforce=samples.enforced)

    y_a = np.empty_like(samples.labels)
    y_b = np.zeros((kk,) + samples.labels.shape, dtype=np.int64)
    for k in range(kk):
        if not anchor:
            y_a[k] = infer(k, y_ref)
        if pairs:
            for k2 in range(kk):
                if k2 != k:
                    y_b[k, k2] = infer(k, samples.labels[k2])
    m_c = selection_matrix(samples.labels, m)
    m_a = selection_matrix(y_ref if anchor else y_a, m)
    q = (m_a - m_c) / (kk * eps)
    if pairs:
        pair_coef = 2.0 * gamma / (kk * (kk - 1) * eps)
        d = pair_coef * (m_c[:, None] - selection_matrix(y_b, m))
        for k2 in range(kk):
            q[:k2] += d[:k2, k2]
            q[k2 + 1:] += d[k2 + 1:, k2]
    total = np.zeros_like(params)
    n_feat = feature_dim(rec.num_classes)
    q_feat = q.sum(axis=0)
    if q_feat.any():
        q_feat = refine_backward(samples.stack, rec.adjacency, inf_cfg,
                                 q_feat)
        total[:, :n_feat] = score_vjp(features(rec), q_feat)
    total[:, n_feat:] = score_vjp(samples.z, q.sum(axis=1))
    return total


def unfused_pred_grad(w: np.ndarray, rec, qbar: np.ndarray,
                      loss_cfg: LossConfig, gamma: float,
                      pointwise: bool) -> np.ndarray:
    """train.pred_grad computing each product where it is used: predict
    reads the features, p * qbar and p * p are formed twice each, and the
    features are read again for the weight gradient."""
    p = predict(w, rec)
    lam = loss_cfg.lambda_cls
    pdotq = np.sum(p * qbar, axis=1, keepdims=True)
    dz = -(p * qbar - p * pdotq)
    if not pointwise:
        nrm = np.sum(p * p, axis=1, keepdims=True)
        dz += (1.0 - gamma) * 2.0 * (p * p - p * nrm)
    dz *= lam
    return dz.T @ features(rec)


def numpy_sgd_step(w, g, lr: float, clip: float = 0.0) -> float:
    """train.sgd_step with its norm taken and checked by numpy's sqrt and
    isfinite."""
    norm = float(np.sqrt(float(np.sum(g * g))))
    if not np.isfinite(norm):
        raise TrainingError("non-finite gradient; stopping")
    if clip > 0.0 and norm > clip:
        g = g * (clip / norm)
    w -= lr * g
    return norm


def total_score(g: np.ndarray, labels: np.ndarray, ann: Annotation,
                geom: PoolGeometry, cfg: InferenceConfig) -> float:
    """Sum of selected table entries, or -inf when annotation-inconsistent."""
    if not higher_order_feasible(labels, ann, geom, cfg):
        return float("-inf")
    return float(g[np.arange(g.shape[0]), labels].sum())


def decision_key(g: np.ndarray, ann: Annotation, cfg: InferenceConfig):
    """What greedy inference reads of one (P, C+1) table, as a tuple: per
    keyed column (each annotated class and each box class, ascending), the
    proposals in descending score order with ties to the lower index, and
    which entries are at or below select_threshold. None when a keyed
    entry is not finite. Two tables of one memo share condnet's
    decision_keys entry exactly when they share this tuple."""
    cols = set(ann.classes.tolist())
    if ann.boxes is not None:
        cols |= set(ann.boxes[:, 0].tolist())
    key = []
    for j in sorted(cols):
        col = g[:, j].tolist()
        if not all(np.isfinite(col)):
            return None
        order = sorted(range(len(col)), key=lambda u: (-col[u], u))
        key.append((tuple(order),
                    tuple(v <= cfg.select_threshold for v in col)))
    return tuple(key)


MAX_EXACT_PROPOSALS = 12
_EXACT_CHUNK = 1 << 18


def exact_infer(g: np.ndarray, ann: Annotation, geom: PoolGeometry,
                cfg: InferenceConfig) -> np.ndarray:
    """Brute-force argmax of total_score over the restricted family:
    labels drawn from {0} ∪ annotated classes, all selected pairs mutually
    non-overlapping (overlap ≤ t in both directions). Ties go to the
    lexicographically smallest labeling. Only for P ≤ 12.
    """
    p = g.shape[0]
    if p > MAX_EXACT_PROPOSALS:
        raise InferenceError(f"exact_infer supports at most {MAX_EXACT_PROPOSALS} proposals")
    classes = np.asarray(ann.classes, dtype=np.int64)
    alphabet = np.concatenate(([0], classes))
    a = alphabet.shape[0]
    forbidden = []
    for u in range(p):
        for v in range(u + 1, p):
            if geom.ovl[u, v] > cfg.overlap_t or geom.ovl[v, u] > cfg.overlap_t:
                forbidden.append((u, v))
    box_compat = None
    if ann.boxes is not None:
        box_compat = [
            (j, np.array([box_iou(geom.boxes[u], b) >= cfg.box_rho for u in range(p)]))
            for j, *b in ann.boxes.tolist()
        ]

    total = a**p
    best_score = -np.inf
    best_labels = None
    radix = a ** np.arange(p, dtype=np.int64)
    for lo in range(0, total, _EXACT_CHUNK):
        hi = min(lo + _EXACT_CHUNK, total)
        codes = np.arange(lo, hi, dtype=np.int64)
        digits = (codes[:, None] // radix[None, :]) % a
        labels = alphabet[digits]
        valid = np.ones(hi - lo, dtype=bool)
        for j in classes:
            valid &= (labels == j).any(axis=1)
        for u, v in forbidden:
            valid &= ~((labels[:, u] != 0) & (labels[:, v] != 0))
        if box_compat is not None:
            for j, compat in box_compat:
                valid &= ((labels == j) & compat[None, :]).any(axis=1)
        if not valid.any():
            continue
        scores = g[np.arange(p)[None, :], labels].sum(axis=1)
        scores[~valid] = -np.inf
        i = int(np.argmax(scores))
        cand_score = scores[i]
        ties = np.nonzero(scores == cand_score)[0]
        cand = min(tuple(labels[t]) for t in ties)
        if cand_score > best_score or (
            cand_score == best_score and cand < tuple(best_labels)
        ):
            best_score = cand_score
            best_labels = np.array(cand, dtype=np.int64)
    if best_labels is None:
        raise InferenceError("no annotation-consistent labeling exists in the search family")
    return best_labels


def delta_arrays(y1: np.ndarray, y2: np.ndarray, cfg: LossConfig) -> float:
    """Delta of two labelings as label arrays: lambda times the number of
    proposals whose labels differ."""
    return cfg.lambda_cls * int(np.count_nonzero(y1 != y2))


def div_cc_pairs(labels: np.ndarray, cfg: LossConfig) -> float:
    """div_cc as the loop over the ordered pairs (i, j != i) of the rows
    of a (K, P) label stack, in row-major order, with delta_arrays."""
    k = labels.shape[0]
    acc = 0.0
    for i in range(k):
        for j in range(k):
            if i != j:
                acc += delta_arrays(labels[i], labels[j], cfg)
    return acc / (k * (k - 1))


def div_pc_scene(state: np.ndarray, labels: np.ndarray,
                 cfg: LossConfig) -> float:
    """disco.div_pc of one scene's (P, C+1) state and (K, P) label stack:
    draw k's term is lambda * sum_u (1 - state[u, y^k_u]); the K terms are
    summed in draw order."""
    k, p = labels.shape
    per_draw = cfg.lambda_cls * (1.0 - state[np.arange(p), labels]).sum(axis=1)
    return sum(per_draw.tolist()) / k


def div_pp_scene(state: np.ndarray, cfg: LossConfig) -> float:
    """disco.div_pp of one scene's (P, C+1) state."""
    return float(cfg.lambda_cls * (1.0 - (state * state).sum(axis=1)).sum())


class DiscParts(NamedTuple):
    disc: float
    div_pc: float
    div_cc: float
    div_pp: float


def disc(state: np.ndarray, labels: np.ndarray, cfg: LossConfig,
         gamma: float = 0.5) -> DiscParts:
    """Jensen-style difference DIV(p,c) - gamma DIV(c,c) - (1-gamma) DIV(p,p)
    of one scene's (P, C+1) state and (K, P) label stack, K >= 2, from the
    disco terms over a one-scene stack."""
    bounds = [0, len(state)]
    pc = div_pc(state, labels, bounds, cfg)[0]
    cc = div_cc(label_bits(labels), cfg)
    pp = div_pp(state, bounds, cfg)[0]
    return DiscParts(pc - gamma * cc - (1.0 - gamma) * pp, pc, cc, pp)


def expected_loss_vs_sample(state: np.ndarray, y: np.ndarray,
                            cfg: LossConfig) -> float:
    """E over the factorized state of Delta(y_p, y).

    Per-proposal expectation of the mismatch cost has the closed form
    lambda * (1 - p_u(y_u)).
    """
    p_target = state[np.arange(state.shape[0]), y]
    return float(cfg.lambda_cls * (1.0 - p_target).sum())


def pred_objective(state: np.ndarray, labels: np.ndarray,
                   loss_cfg: LossConfig, gamma: float,
                   pointwise: bool) -> float:
    """Predictor block of the dissimilarity coefficient, closed form.

    Sum over proposals of expected disagreement with the sample set,
    minus (1 - gamma) times the predictor's self-diversity (dropped in
    the pointwise variant).
    """
    lam = loss_cfg.lambda_cls
    qbar = empirical_distribution(labels, state.shape[1])
    val = float(np.sum(1.0 - np.sum(state * qbar, axis=1)))
    if not pointwise:
        val -= (1.0 - gamma) * float(np.sum(1.0 - np.sum(state * state, axis=1)))
    return lam * val


def make_dataset(scene_cfg: SceneConfig, prop_cfg: ProposalConfig, n: int, seed: int, start_id: int = 0) -> list:
    return [make_scene(scene_cfg, prop_cfg, seed, start_id + i) for i in range(n)]


def gen_scene_record(scene_cfg: SceneConfig, seed: int,
                     scene_id: int = 0) -> SceneRecord:
    """The drawn scene of (seed, scene_id) as a record of its own, with an
    empty pool and graph: the first of the two records the two-step
    construction built."""
    gt, image, edges, seeds = gen_scene(scene_cfg, seed, scene_id)
    presence = np.zeros(scene_cfg.num_classes, dtype=np.int8)
    presence[gt.class_ids - 1] = 1
    empty = np.zeros((0, scene_cfg.height, scene_cfg.width), dtype=bool)
    return SceneRecord(
        scene_id=scene_id, width=scene_cfg.width, height=scene_cfg.height,
        num_classes=scene_cfg.num_classes, image=image, edges=edges, gt=gt,
        annotation=Annotation(presence=presence, boxes=np.column_stack(
            [gt.class_ids, tight_boxes(gt.masks)])),
        seeds=seeds, pool=empty, adjacency=build_adjacency(empty, edges))


def attach_proposals(rec: SceneRecord, prop_cfg: ProposalConfig,
                     seed: int) -> SceneRecord:
    """A copy of rec holding the proposal pool of its scene and the pool's
    contact graph: the second record of the two-step construction."""
    pool = gen_proposals(rec.gt, rec.seeds, prop_cfg, seed, rec.scene_id)
    return replace(rec, pool=pool,
                   adjacency=build_adjacency(pool, rec.edges,
                                             dilation=DILATION),
                   _geom=None, _features=None)


def rebuild_with_pool(rec: SceneRecord, keep: np.ndarray) -> SceneRecord:
    """A copy of rec whose pool is cut to the ascending proposal ids
    `keep`, with the subgraph of rec's graph that keep induces. Its
    geometry and features start cold: they are built from the cut pool's
    pixels, not taken from rec's."""
    return replace(rec, pool=rec.pool[keep],
                   adjacency=rec.adjacency.restrict(keep), _geom=None,
                   _features=None)


def cut_record(rec: SceneRecord, train_cfg: TrainConfig,
               inf_cfg: InferenceConfig):
    """prepare_scene's supervision regime as a pixel copy: (record, keep)
    with keep the kept proposal ids, or None when the scene is skipped.
    The image regime copies rec without its boxes (keep None); the box
    regime copies it with its pool cut to the proposals whose tight box
    reaches IoU box_rho with some box. Every copy starts cold."""
    if train_cfg.supervision == "image":
        return replace(rec, annotation=rec.annotation.without_boxes(),
                       _geom=None, _features=None), None
    boxes = rec.annotation.boxes
    if boxes is None:
        raise ValueError("scene has no box annotations")
    cover = np.array([[box_iou(tb, b) >= inf_cfg.box_rho
                       for tb in tight_boxes(rec.pool)]
                      for b in boxes[:, 1:]], dtype=bool).reshape(
                          len(boxes), rec.num_proposals)
    if not len(boxes) or not cover.any(axis=1).all():
        return None
    keep = np.flatnonzero(cover.any(axis=0))
    return rebuild_with_pool(rec, keep), keep


def prepare_scene_by_copy(rec: SceneRecord, train_cfg: TrainConfig,
                          inf_cfg: InferenceConfig):
    """train.prepare_scene with every table computed on cut_record's pixel
    copy: features, geometry, seed anchors and IoU table of the cut pool
    itself. None when the scene is skipped."""
    cut = cut_record(rec, train_cfg, inf_cfg)
    if cut is None:
        return None
    sub, keep = cut
    return PreparedScene(
        scene_id=sub.scene_id, num_classes=sub.num_classes,
        num_proposals=sub.num_proposals, annotation=sub.annotation,
        adjacency=sub.adjacency, pool_index=keep,
        seed_labels=seed_labeling(sub), gt_class_ids=sub.gt.class_ids,
        gt_iou=iou_table(sub.pool, sub.gt.masks), _features=features(sub),
        _geom=sub.geometry())


def summary(res) -> str:
    """One line of an EvalResult's mAP at every threshold."""
    parts = [f"mAP@{t:.2f}={res.map_r[t]:.4f}" for t in res.thresholds]
    return "  ".join(parts)


def cell(result, term_mode: str, variant: str) -> dict:
    """An AblationResult cell: threshold -> mAP."""
    return result.cells[(term_mode, variant)]


def term_trend_holds(result, variant: str = "full",
                     thresh: float = 0.50) -> bool:
    """mAP is non-decreasing as score terms are added."""
    vals = [result.cells[(tm, variant)][thresh] for tm in TERM_MODES]
    return vals[0] <= vals[1] + 1e-12 and vals[1] <= vals[2] + 1e-12


def pointwise_trend_holds(result, term_mode: str = "U+P+H",
                          thresh: float = 0.50) -> bool:
    """The fully probabilistic pair dominates every pointwise variant."""
    full = result.cells[(term_mode, "full")][thresh]
    return all(result.cells[(term_mode, v)][thresh] <= full + 1e-12
               for v in VARIANT_NAMES[1:])


class MaskPrediction(NamedTuple):
    """A decoded instance that carries its own mask."""
    proposal_index: int
    class_id: int
    confidence: float
    mask: np.ndarray


def decode_loop(state: np.ndarray, rec, score_thresh: float,
                nms_t: float) -> list:
    """prednet.decode as a loop over numpy scalars, each instance carrying
    its pool mask."""
    geom = rec.geometry()
    fg = state[:, 1:]
    conf = fg.max(axis=1)
    cls = fg.argmax(axis=1) + 1
    cand = np.nonzero(conf >= score_thresh)[0]
    order = cand[np.argsort(-conf[cand], kind="stable")]
    out = []
    suppressed = np.zeros(state.shape[0], dtype=bool)
    for u in order:
        if suppressed[u]:
            continue
        out.append(MaskPrediction(int(u), int(cls[u]), float(conf[u]),
                                  rec.pool[u]))
        for v in cand:
            if (v != u and not suppressed[v] and cls[v] == cls[u]
                    and geom.ovl[u, v] > nms_t):
                suppressed[v] = True
    return out


def _match_masks(entries: list, gt_masks: dict, thresh: float) -> np.ndarray:
    """Greedy matching of (confidence, scene_id, order, mask) entries to
    the masks of gt_masks (scene_id -> masks of one class), by mask_iou;
    the hit flags in descending confidence order."""
    ordered = sorted(entries, key=lambda e: (-e[0], e[1], e[2]))
    used = {sid: np.zeros(len(ms), dtype=bool) for sid, ms in gt_masks.items()}
    flags = np.zeros(len(ordered), dtype=bool)
    for i, (_, sid, _, mask) in enumerate(ordered):
        cands = gt_masks.get(sid)
        if cands is None:
            continue
        best_iou, best_j = 0.0, -1
        for j, gm in enumerate(cands):
            if used[sid][j]:
                continue
            iou = mask_iou(mask, gm)
            if iou > best_iou:
                best_iou, best_j = iou, j
        if best_j >= 0 and best_iou >= thresh:
            used[sid][best_j] = True
            flags[i] = True
    return flags


def evaluate_masks(preds_by_scene: dict, gts_by_scene: dict,
                   thresholds) -> EvalResult:
    """evaluate.evaluate_predictions by mask IoU: preds carry .mask, and
    gts_by_scene maps scene ids to their ground-truth Instances."""
    res = EvalResult(thresholds=tuple(thresholds))
    class_gt: dict = {}
    for sid, gt in gts_by_scene.items():
        for c, mask in zip(gt.class_ids.tolist(), gt.masks):
            class_gt.setdefault(c, {}).setdefault(sid, []).append(mask)
    for j, per_scene in class_gt.items():
        res.num_gt[j] = sum(len(v) for v in per_scene.values())
    class_preds: dict = {j: [] for j in class_gt}
    for sid, preds in preds_by_scene.items():
        for order, p in enumerate(preds):
            if p.class_id in class_preds:
                class_preds[p.class_id].append(
                    (float(p.confidence), sid, order, p.mask))
    for t in res.thresholds:
        aps = {}
        for j, per_scene in class_gt.items():
            flags = _match_masks(class_preds[j], per_scene, t)
            aps[j] = ap_from_flags(flags, res.num_gt[j])
            res.per_class[(t, j)] = aps[j]
        res.map_r[t] = float(np.mean(list(aps.values()))) if aps else 0.0
    return res


def epoch_metrics_per_scene(records, pred, labels, feas, train_cfg,
                            loss_cfg, grad_norms) -> dict:
    """train._epoch_metrics one scene at a time: predict per record, the
    per-scene diversity terms, the loop decode and mask-IoU matching.
    records are the used ones, labels their (K, P) label stacks."""
    pcs, ccs, pps = [], [], []
    preds_by_scene, gts_by_scene = {}, {}
    for rec, y in zip(records, labels):
        state = predict(pred, rec)
        pcs.append(div_pc_scene(state, y, loss_cfg))
        ccs.append(div_cc_pairs(y, loss_cfg) if len(y) >= 2 else 0.0)
        pps.append(div_pp_scene(state, loss_cfg))
        preds_by_scene[rec.scene_id] = decode_loop(
            state, rec, train_cfg.decode_thresh, train_cfg.decode_nms)
        gts_by_scene[rec.scene_id] = rec.gt
    g = train_cfg.gamma
    pc, cc, pp = float(np.mean(pcs)), float(np.mean(ccs)), float(np.mean(pps))
    return {
        "disc": pc - g * cc - (1.0 - g) * pp,
        "div_pc": pc,
        "div_cc": cc,
        "div_pp": pp,
        "map50": evaluate_masks(preds_by_scene, gts_by_scene,
                                (0.5,)).map_r[0.5],
        "feasible": float(np.mean(feas)),
        "grad_norm": float(np.mean(grad_norms)) if grad_norms else 0.0,
    }
