"""Joint training of the two distributions by block coordinate descent.

The conditional scorer is trained by direct loss minimization: each
gradient comes from comparing the greedy labeling of a score table with
the greedy labeling of the same table augmented by a scaled dissimilarity
row. The prediction distribution has a closed-form gradient because it
factorizes over proposals. That gradient reads a sample batch only
through one (P, C+1) class-frequency table q̄ per scene
(empirical_distribution), which a pred phase builds once after sampling
and shares across its epochs.

The schedule is: an initialization phase that anchors the conditional to
seed-derived labelings, then alternating predictor / conditional phases,
then one final predictor phase so decoded predictions always reflect the
final conditional.
"""

import base64
import csv
import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .adjacency import Adjacency
from .condnet import (
    TERM_MODES,
    InferenceConfig,
    InferenceError,
    SampleSet,
    greedy_infer,
    higher_order_feasible,
    refine_backward,
    sample_k,
)
from .disco import div_cc, div_pc, div_pp
from .evaluate import EvalResult, evaluate_predictions, map_at
from .loss import LossConfig, cost_row
from .prednet import (argmax_labeling, decode, pred_init, predict,
                      softmax_rows)
from .scenes import Annotation, PoolGeometry, rebuild_with_pool
from .scorer import cond_init, draw_noise, feature_dim, features, score_vjp


class TrainingError(Exception):
    pass


class CheckpointError(ValueError):
    """A checkpoint file that does not hold what save_checkpoint writes."""


@dataclass
class TrainConfig:
    k: int = 10  # noise draws per scene per step
    gamma: float = 0.5  # diversity trade-off weight
    epsilon: float = 1.0  # loss-augmentation scale
    lr_init: float = 0.1  # conditional lr during the seed-anchored phase
    lr_cond: float = 0.02
    lr_pred: float = 1.0
    clip_grad: float = 25.0  # l2 cap per update; 0 disables clipping
    init_epochs: int = 8
    cond_epochs: int = 3
    pred_epochs: int = 20
    outer_iters: int = 4
    term_mode: str = "U+P+H"  # scoring terms used by the conditional
    cond_pointwise: bool = False  # zero noise, no pairwise sample term
    pred_pointwise: bool = False  # drop the predictor self-diversity term
    supervision: str = "image"  # "image" (presence only) or "box"
    decode_thresh: float = 0.7
    decode_nms: float = 0.5
    noise_dim: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.supervision not in ("image", "box"):
            raise ValueError("supervision must be 'image' or 'box'")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.noise_dim < 0:
            raise ValueError("noise_dim must be non-negative")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        # a negative count would silently act as 0, or write a checkpoint
        # of negative outer index; a negative rate turns descent into ascent
        for name in ("init_epochs", "cond_epochs", "pred_epochs",
                     "outer_iters", "clip_grad", "lr_init", "lr_cond",
                     "lr_pred"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        # outside [0, 1] gamma flips the sign of a diversity term
        for name in ("gamma", "decode_thresh", "decode_nms"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.term_mode not in TERM_MODES:
            raise ValueError(f"term_mode must be one of {TERM_MODES}")


@dataclass
class FitResult:
    pred: np.ndarray  # final predictor weights
    log: list = field(default_factory=list)  # one dict per epoch
    # (cond, pred) weights after outer iteration i, at position i; the last
    # pair is the final predictor phase's
    snapshots: list = field(default_factory=list)
    num_scenes: int = 0  # scenes read, skipped ones included
    skipped_scenes: int = 0
    # scenes left out of a cond epoch's update or a pred phase's batch
    # because their inference raised, counted once per epoch or phase
    inference_failures: int = 0

    @property
    def final_map50(self) -> float:
        return self.log[-1]["map50"] if self.log else 0.0


def sgd_step(w, g, lr: float, clip: float = 0.0) -> float:
    """One SGD update of the weights w in place; the gradient g is scaled
    down to l2 norm clip when longer (clip 0 disables clipping). Returns
    the raw gradient l2 norm."""
    norm = float(np.sqrt(float(np.sum(g * g))))
    if not np.isfinite(norm):
        raise TrainingError("non-finite gradient; stopping")
    if clip > 0.0 and norm > clip:
        g = g * (clip / norm)
    w -= lr * g
    return norm


def seed_labeling(rec) -> np.ndarray:
    """Anchor labeling for the initialization phase: each seed labels one
    proposal; everything else stays background.

    The anchor score of a proposal for a seed is the fraction of seed
    pixels the mask covers times (0.05 + mean edge strength along the
    mask's inner boundary). Coverage alone would favor any superset of
    the seed, and raw seed IoU would favor shrunken masks; weighting
    coverage by boundary alignment singles out masks whose outline
    follows image evidence. Ties keep the lowest proposal index."""
    p = rec.num_proposals
    labels = np.zeros(p, dtype=np.int64)
    ring_edge = features(rec)[:, 6]  # the scorer's boundary_edge column
    flat = rec.pool.reshape(p, -1)
    for c, mask in zip(rec.seeds.class_ids.tolist(), rec.seeds.masks):
        seed_area = float(np.count_nonzero(mask))
        if seed_area == 0.0:
            continue
        cover = np.count_nonzero(flat & mask.reshape(-1), axis=1) / seed_area
        score = cover * (0.05 + ring_edge)
        u = int(np.argmax(score))
        if score[u] > 0.0:
            labels[u] = c
    return labels


def selection_matrix(labels: np.ndarray, m: int) -> np.ndarray:
    """One-hot rows of shape labels.shape + (C+1,); for one (P,) labeling,
    sum(sel * G) is its total score."""
    return (labels[..., None] == np.arange(m)).astype(np.float64)


def cond_grad(params: np.ndarray, rec, samples: SampleSet, y_ref: np.ndarray,
              train_cfg: TrainConfig, inf_cfg: InferenceConfig,
              loss_cfg: LossConfig, anchor: bool = False) -> np.ndarray:
    """Direct-loss-minimization gradient of the dissimilarity coefficient
    with respect to the scorer weights `params`, for one scene.

    Per draw k the contributions of the reference term and of every
    pairwise sample term are collected into a single coefficient table
    q_k. The draws share one refinement (see condnet.forward_scores), so
    one backward pass of sum_k q_k gives the feature block, and a
    zero-cost configuration yields an exactly zero gradient.

    Augmentation pulls toward the compared labeling: each table is
    augmented by -epsilon times its cost row, so entries that disagree
    with the labeling are penalized (the loss-augmented estimator of Song
    et al., ICML 2016).

    With anchor=True the reference term skips the augmented inference and
    uses y_ref itself as the augmented labeling. This is the saturated
    limit of pulled augmentation (the penalty on disagreeing entries
    outgrows every score gap, so the feasible minimum-cost labeling wins)
    and turns the reference term into a margin update that raises the
    reference labeling's score above the current samples'. y_ref must be
    feasible; the initialization phase uses this with the seed anchors.

    The greedy requests keep their order and number: per draw, the
    reference request unless anchored, then one per other draw k2 when
    the diversity term is on. Draw k's pairwise table depends on k2 only
    through draw k2's labeling, and draws seldom differ in labeling, so
    one memo per call (see greedy_infer) answers repeated tables without
    computing them again; it is freed when the call returns.
    """
    kk = samples.k
    m = rec.num_classes + 1
    geom = rec.geometry()
    eps = -train_cfg.epsilon
    gamma = 0.0 if train_cfg.cond_pointwise else train_cfg.gamma
    enforce = samples.enforced
    pairs = gamma != 0.0 and kk >= 2
    if not anchor:
        ref_tables = samples.g + eps * cost_row(y_ref, rec.num_classes,
                                                loss_cfg)
    if pairs:
        # row k2 augments toward draw k2's labeling
        aug_pairs = eps * cost_row(samples.labels, rec.num_classes, loss_cfg)
        pair_tables = samples.g[:, None] + aug_pairs[None, :]
        pair_coef = 2.0 * gamma / (kk * (kk - 1) * eps)
    # greedy requests in draw-major order: the reference call, then k2
    # ascending, skipping the draw itself; the memo computes each distinct
    # table once
    memo = {}
    y_a = np.empty_like(samples.labels)
    y_b = np.zeros((kk,) + samples.labels.shape, dtype=np.int64)
    for k in range(kk):
        if not anchor:
            y_a[k] = greedy_infer(ref_tables[k], rec.annotation, geom,
                                  inf_cfg, enforce=enforce, memo=memo)
        if pairs:
            for k2 in range(kk):
                if k2 != k:
                    y_b[k, k2] = greedy_infer(pair_tables[k, k2],
                                              rec.annotation, geom, inf_cfg,
                                              enforce=enforce, memo=memo)
    m_c = selection_matrix(samples.labels, m)
    m_a = selection_matrix(y_ref if anchor else y_a, m)
    q = (m_a - m_c) / (kk * eps)
    if pairs:
        d = pair_coef * (m_c[:, None] - selection_matrix(y_b, m))
        # each draw's table gets its pairwise terms in k2 order; draw k2
        # takes none from itself
        for k2 in range(kk):
            q[:k2] += d[:k2, k2]
            q[k2 + 1:] += d[k2 + 1:, k2]
    # every draw's table is the shared noise-free one plus its column
    # offsets, which refinement carries through unchanged: the adjoint is
    # the same for every draw and keeps each column's sum, so the feature
    # block needs one backward pass of the draws' summed coefficients, and
    # draw k's offset row takes q_k's column sums. A ±0 sum adds only ±0
    # to the +0-started block, so its backward pass is skipped.
    total = np.zeros_like(params)
    n_feat = feature_dim(rec.num_classes)
    q_feat = q.sum(axis=0)
    if q_feat.any():
        q_feat = refine_backward(samples.stack, rec.adjacency, inf_cfg,
                                 q_feat)
        total[:, :n_feat] = score_vjp(features(rec), q_feat)
    total[:, n_feat:] = score_vjp(samples.z, q.sum(axis=1))
    return total


def empirical_distribution(labels: np.ndarray, m: int) -> np.ndarray:
    """(P, C+1) per-proposal class frequencies q̄ = n / K of a (K, P) label
    stack, where n[u, c] counts the draws that give proposal u class c.
    The counts are exact, so q̄ equals adding 1.0 per draw and dividing by
    K, bit for bit."""
    kk, p = labels.shape
    n = np.bincount((np.arange(p) * m + labels).ravel(), minlength=p * m)
    return n.reshape(p, m) / kk


def pred_grad(w: np.ndarray, rec, qbar: np.ndarray,
              loss_cfg: LossConfig, gamma: float,
              pointwise: bool) -> np.ndarray:
    """Exact gradient for one scene of the predictor block of the
    dissimilarity coefficient, lambda * sum_u [(1 - p_u . q̄_u)
    - (1 - gamma) (1 - p_u . p_u)], the second term dropped in the
    pointwise variant. qbar is the sample batch's empirical_distribution,
    the only thing the gradient reads of the samples."""
    p = predict(w, rec)
    lam = loss_cfg.lambda_cls
    pdotq = np.sum(p * qbar, axis=1, keepdims=True)
    dz = -(p * qbar - p * pdotq)
    if not pointwise:
        nrm = np.sum(p * p, axis=1, keepdims=True)
        dz += (1.0 - gamma) * 2.0 * (p * p - p * nrm)
    dz *= lam
    return dz.T @ features(rec)


def prepare_scene(rec, train_cfg: TrainConfig, inf_cfg: InferenceConfig):
    """Apply the supervision regime to one scene; fit and infer share it.

    Image regime drops the boxes from the working annotation. Box regime
    uses the higher-order term's covering test: a proposal whose tight box
    reaches IoU box_rho with no box can never be foreground, so the pool
    and its graph are cut to the proposals that cover some box. Returns
    the prepared record, or None when the scene has no box or some box
    has no covering proposal.
    """
    if train_cfg.supervision == "image":
        # warm the caches on the source record first so the shallow copy,
        # and later fits or decodes over the source, share them
        rec.geometry()
        features(rec)
        return dataclasses.replace(
            rec, annotation=rec.annotation.without_boxes())
    boxes = rec.annotation.boxes
    if boxes is None:
        raise ValueError("scene has no box annotations")
    cover, _ = rec.geometry().covering(boxes[:, 1:], inf_cfg.box_rho)
    if not len(boxes) or not cover.any(axis=1).all():
        return None
    return rebuild_with_pool(rec, np.flatnonzero(cover.any(axis=0)))


def sample_noise(train_cfg: TrainConfig, scene_id, tag, k: int,
                 dim: int) -> np.ndarray:
    """The noise of a sample batch, shape (..., k, dim) over the broadcast
    shape of scene_id and tag: draw i of a scene under a tag is
    draw_noise(seed, scene_id, i, tag), zeros in pointwise mode. It does
    not depend on the parameters, so fit and infer draw a whole batch's
    noise before sampling its scenes."""
    scene_id = np.asarray(scene_id)[..., None]
    tag = np.asarray(tag)[..., None]
    if train_cfg.cond_pointwise:
        shape = np.broadcast_shapes(scene_id.shape, tag.shape)[:-1]
        return np.zeros(shape + (k, dim))
    return draw_noise(train_cfg.seed, scene_id, np.arange(k), tag, dim=dim)


@dataclass
class PreparedScene:
    """A training scene as fit keeps it: what fit reads once prepare_scene
    has applied the supervision regime, and no pixels. Every term of both
    distributions reads per-proposal tables (features, contact graph,
    overlaps, covering boxes); the train-set map50 column reads the ground
    truth only through its class ids and IoU table. The attribute names
    are those of SceneRecord that sample_k, cond_grad, decode and predict
    read."""

    scene_id: int
    num_classes: int
    num_proposals: int
    annotation: Annotation
    adjacency: Adjacency
    # indices of the proposals in the scene's own pool; None when the
    # regime kept the whole pool
    pool_index: np.ndarray | None
    seed_labels: np.ndarray  # (P,) seed_labeling, the init phase's anchors
    gt_class_ids: np.ndarray  # (G,)
    gt_iou: np.ndarray  # (P, G) SceneRecord.gt_iou
    _features: np.ndarray  # (P, D) scorer.features
    _geom: PoolGeometry  # ovl built, so it holds no pool

    def geometry(self) -> PoolGeometry:
        return self._geom

    @staticmethod
    def from_record(rec, inf_cfg: InferenceConfig) -> "PreparedScene":
        """The tables of a prepared record. Its geometry builds the keep
        masks every greedy call reads, and with them ovl, which lets go of
        the pool; nothing else of rec's pixels stays reachable."""
        geom = rec.geometry()
        geom.keep_masks(inf_cfg.overlap_t)
        return PreparedScene(
            scene_id=rec.scene_id, num_classes=rec.num_classes,
            num_proposals=rec.num_proposals, annotation=rec.annotation,
            adjacency=rec.adjacency, pool_index=rec.pool_index,
            seed_labels=seed_labeling(rec), gt_class_ids=rec.gt.class_ids,
            gt_iou=rec.gt_iou(), _features=features(rec), _geom=geom)


def prepare_records(records, train_cfg: TrainConfig,
                    inf_cfg: InferenceConfig) -> tuple:
    """prepare_scene over `records`, any iterable of scenes, consumed one
    scene at a time; of each usable scene only its PreparedScene is kept.
    Returns (prepared scenes, num_skipped)."""
    out = []
    skipped = 0
    for rec in records:
        prep = prepare_scene(rec, train_cfg, inf_cfg)
        if prep is None:
            skipped += 1
        else:
            out.append(PreparedScene.from_record(prep, inf_cfg))
    if not out:
        raise TrainingError("no usable scenes after applying supervision")
    return out, skipped


def _feasible_fractions(records, used, labels, inf_cfg) -> list:
    """Per used scene, the fraction of the K labelings of its (K, P) label
    stack that are annotation-consistent. used holds record indices."""
    return [np.mean(higher_order_feasible(y, records[i].annotation,
                                          records[i].geometry(), inf_cfg))
            for i, y in zip(used, labels)]


def _epoch_metrics(records, feats, bounds, used, pred, labels, feas,
                   train_cfg, loss_cfg, grad_norms):
    """One log row: divergence parts, train-set mAP at 0.5, feasibility.

    feats is the (ΣP, D) stack of the records' features, record i's rows
    being bounds[i]:bounds[i + 1], so one pass gives every predictor
    state; row by row it equals predict. used holds the indices of the
    records whose (K, P) label stacks are labels; feas is their
    _feasible_fractions, which the pred epochs share."""
    state = softmax_rows(feats @ pred.T)
    pcs, ccs, pps = [], [], []
    preds_by_scene, truth_by_scene = {}, {}
    for i, y in zip(used, labels):
        rec = records[i]
        rec_state = state[bounds[i]:bounds[i + 1]]
        pcs.append(div_pc(rec_state, y, loss_cfg))
        ccs.append(div_cc(y, rec, loss_cfg) if len(y) >= 2 else 0.0)
        pps.append(div_pp(rec_state, loss_cfg))
        preds_by_scene[rec.scene_id] = decode(
            rec_state, rec, train_cfg.decode_thresh, train_cfg.decode_nms)
        truth_by_scene[rec.scene_id] = (rec.gt_class_ids, rec.gt_iou)
    g = train_cfg.gamma
    pc, cc, pp = float(np.mean(pcs)), float(np.mean(ccs)), float(np.mean(pps))
    return {
        "disc": pc - g * cc - (1.0 - g) * pp,
        "div_pc": pc,
        "div_cc": cc,
        "div_pp": pp,
        "map50": map_at(preds_by_scene, truth_by_scene, 0.5),
        "feasible": float(np.mean(feas)),
        "grad_norm": float(np.mean(grad_norms)) if grad_norms else 0.0,
    }


def fit(records, train_cfg: TrainConfig | None = None,
        inf_cfg: InferenceConfig | None = None,
        loss_cfg: LossConfig | None = None,
        verbose: bool = False) -> FitResult:
    """Block coordinate descent on the dissimilarity coefficient.

    records is any iterable of scenes; prepare_records consumes it one
    scene at a time, and fit keeps only each scene's PreparedScene, its
    tables without pixels, and, per sample batch, each scene's (K, P)
    label stack: a scene's SampleSet lives only through that scene's step.

    Deterministic for fixed configs and records: all noise is derived
    from train_cfg.seed together with scene ids and phase tags. A scene
    whose inference raises InferenceError sits out that cond epoch's
    update or that pred phase's batch, and FitResult.inference_failures
    counts it; fit fails only when every scene fails at once.
    """
    tcfg = train_cfg or TrainConfig()
    icfg = inf_cfg or InferenceConfig()
    lcfg = loss_cfg or LossConfig()
    records, skipped = prepare_records(records, tcfg, icfg)
    num_scenes = len(records) + skipped
    c = records[0].num_classes

    cond = cond_init(c, tcfg.noise_dim)
    pred = pred_init(c)
    # the log rows' predictor states come from one stacked pass
    feats = np.concatenate([features(rec) for rec in records])
    bounds = np.cumsum([0] + [rec.num_proposals for rec in records]).tolist()
    k_eff = 1 if tcfg.cond_pointwise else tcfg.k
    # object dtype keeps every id an exact int, however large
    ids = np.array([rec.scene_id for rec in records], dtype=object)
    seeds_ref = [rec.seed_labels for rec in records]
    log: list = []
    snapshots: list = []
    failures = 0  # InferenceErrors, one per scene and epoch or pred phase

    def run_cond_epoch(phase, outer, epoch, refs, tag):
        nonlocal failures
        # The init phase forces annotation consistency in every term mode;
        # without it low-score early tables select nothing and no positive
        # signal ever reaches the scorer. Regular phases honor the mode.
        anchor = phase == "init"
        enforce = True if anchor else None
        lr = tcfg.lr_init if anchor else tcfg.lr_cond
        norms, used, labels = [], [], []
        z = sample_noise(tcfg, ids, tag, k_eff, tcfg.noise_dim)
        for i, rec in enumerate(records):
            # a scene whose inference fails gets no update this epoch; its
            # labelings still enter the metrics when sampling succeeded.
            # They are all that outlives the scene's step.
            try:
                samples = sample_k(cond, rec, z[i], icfg,
                                   term_mode=tcfg.term_mode, enforce=enforce)
            except InferenceError:
                failures += 1
                continue
            used.append(i)
            labels.append(samples.labels)
            try:
                grad = cond_grad(cond, rec, samples, refs[i], tcfg, icfg,
                                 lcfg, anchor=anchor)
            except InferenceError:
                failures += 1
                continue
            finally:
                del samples
            norms.append(sgd_step(cond, grad, lr, tcfg.clip_grad))
        _require_samples(used, phase, outer, epoch)
        row = {"phase": phase, "outer": outer, "epoch": epoch}
        row.update(_epoch_metrics(
            records, feats, bounds, used, pred, labels,
            _feasible_fractions(records, used, labels, icfg), tcfg, lcfg,
            norms))
        log.append(row)
        if verbose:
            print(_format_row(row))

    def run_pred_phase(phase, outer, tag):
        nonlocal failures
        # a scene whose sampling fails is left out of this phase's batch;
        # of each sample batch only its labelings are kept
        used, labels = [], []
        z = sample_noise(tcfg, ids, tag, k_eff, tcfg.noise_dim)
        for i, rec in enumerate(records):
            try:
                labels.append(sample_k(cond, rec, z[i], icfg,
                                       term_mode=tcfg.term_mode).labels)
            except InferenceError:
                failures += 1
                continue
            used.append(i)
        _require_samples(used, phase, outer, 0)
        feas = _feasible_fractions(records, used, labels, icfg)
        qbars = [empirical_distribution(y, c + 1) for y in labels]
        for epoch in range(tcfg.pred_epochs):
            norms = []
            for i, qbar in zip(used, qbars):
                grad = pred_grad(pred, records[i], qbar, lcfg, tcfg.gamma,
                                 tcfg.pred_pointwise)
                norms.append(sgd_step(pred, grad, tcfg.lr_pred,
                                      tcfg.clip_grad))
            row = {"phase": phase, "outer": outer, "epoch": epoch}
            row.update(_epoch_metrics(records, feats, bounds, used, pred,
                                      labels, feas, tcfg, lcfg, norms))
            log.append(row)
            if verbose:
                print(_format_row(row))

    for epoch in range(tcfg.init_epochs):
        run_cond_epoch("init", -1, epoch, seeds_ref, 0x10000 + epoch)

    for outer in range(tcfg.outer_iters):
        run_pred_phase("pred", outer, 0x30000 + outer)
        refs = [argmax_labeling(predict(pred, rec)) for rec in records]
        for epoch in range(tcfg.cond_epochs):
            run_cond_epoch("cond", outer, epoch, refs,
                           0x20000 + outer * 0x100 + epoch)
        snapshots.append((cond.copy(), pred.copy()))

    run_pred_phase("final", tcfg.outer_iters, 0x30000 + tcfg.outer_iters)
    snapshots.append((cond.copy(), pred.copy()))
    return FitResult(pred=pred, log=log, snapshots=snapshots,
                     num_scenes=num_scenes, skipped_scenes=skipped,
                     inference_failures=failures)


def _require_samples(used, phase, outer, epoch):
    if not used:
        raise TrainingError(f"inference failed on every scene in {phase} "
                            f"{outer}.{epoch}")


def evaluate_params(pred: np.ndarray, records: list, thresholds,
                    decode_thresh: float, decode_nms: float) -> EvalResult:
    """Decode every scene with the predictor weights pred and score against
    ground truth."""
    preds_by_scene = {
        rec.scene_id: decode(predict(pred, rec), rec, decode_thresh,
                             decode_nms)
        for rec in records
    }
    truth_by_scene = {rec.scene_id: (rec.gt.class_ids, rec.gt_iou())
                      for rec in records}
    return evaluate_predictions(preds_by_scene, truth_by_scene, thresholds)


def _format_row(row: dict) -> str:
    return (f"[{row['phase']:>5s} {row['outer']:>2d}.{row['epoch']:<2d}] "
            f"disc={row['disc']:+.4f} pc={row['div_pc']:.4f} "
            f"cc={row['div_cc']:.4f} pp={row['div_pp']:.4f} "
            f"map50={row['map50']:.3f} feas={row['feasible']:.2f} "
            f"|g|={row['grad_norm']:.3f}")


LOG_COLUMNS = ("phase", "outer", "epoch", "disc", "div_pc", "div_cc",
               "div_pp", "map50", "feasible", "grad_norm")


def write_log_csv(path: str, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=LOG_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in LOG_COLUMNS})


def _arr_to_obj(a: np.ndarray) -> dict:
    return {
        "shape": list(a.shape),
        "data": base64.b64encode(
            np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii"),
    }


def _arr_from_obj(obj: dict) -> np.ndarray:
    """The finite 2-D float64 array _arr_to_obj wrote; ValueError if the
    shape is not two non-negative ints that fit the data's length."""
    shape = obj["shape"]
    if (not isinstance(shape, list) or len(shape) != 2
            or any(type(n) is not int or n < 0 for n in shape)):
        raise ValueError(f"shape {shape!r} is not two non-negative ints")
    raw = base64.b64decode(obj["data"], validate=True)
    if len(raw) != 8 * shape[0] * shape[1]:
        raise ValueError(f"{len(raw)} data bytes for shape {shape}")
    a = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(a).all():
        raise ValueError("a weight is not finite")
    return a


def save_checkpoint(path: str, cond: np.ndarray, pred: np.ndarray,
                    meta: dict | None = None) -> None:
    obj = {
        "format_version": 1,
        "cond": {"kind": "linear", "arrays": {"w": _arr_to_obj(cond)}},
        "pred": {"arrays": {"w": _arr_to_obj(pred)}},
        "meta": meta or {},
    }
    with open(path, "w") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def load_checkpoint(path: str) -> tuple:
    """Returns the scorer and predictor weights and the meta object,
    (cond, pred, meta), parsing the file once. Raises
    CheckpointError naming the file unless it holds what save_checkpoint
    writes: format version 1, a linear scorer, finite weights of C+1 rows
    for some class count C (the predictor's feature_dim(C) columns wide,
    the scorer's at least that wide), and a meta object whose "outer",
    when given, is a non-negative int."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
            if obj.get("format_version") != 1:
                raise ValueError("unsupported checkpoint version")
            kind = obj["cond"].get("kind")
            if kind != "linear":
                raise ValueError(
                    f"unsupported checkpoint scorer kind {kind!r}")
            cond = _arr_from_obj(obj["cond"]["arrays"]["w"])
            pred = _arr_from_obj(obj["pred"]["arrays"]["w"])
            m, d = pred.shape
            if (m < 2 or d != feature_dim(m - 1) or cond.shape[0] != m
                    or cond.shape[1] < d):
                raise ValueError(
                    f"scorer weights of shape {list(cond.shape)} and "
                    f"predictor weights of shape {list(pred.shape)} do "
                    "not fit one class count")
            meta = obj.get("meta", {})
            outer = meta.get("outer", 0)
            if type(outer) is not int or outer < 0:
                raise ValueError(
                    f"meta outer {outer!r} is not a non-negative int")
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise CheckpointError(
                f"{path}: malformed checkpoint: {exc}") from exc
    return cond, pred, meta
