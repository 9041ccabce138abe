"""Acceptance suite: one test per headline guarantee of the package.

Each test prints a single PASS line with its measured quantities, so a
plain ``pytest -v tests/test_acceptance.py`` doubles as the release
report. The slow end-to-end checks share one reference training run via
a module fixture; everything else builds its own tiny fixtures inline.
"""

import dataclasses
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from annoconsist import kernels
from annoconsist.ablation import ablation_run
from annoconsist.condnet import (
    TERM_MODES,
    InferenceConfig,
    SampleSet,
    forward_scores,
    greedy_infer,
    higher_order_feasible,
    refine_stack,
)
from annoconsist.config import load_config
from annoconsist.disco import div_pc, div_pp
from annoconsist.evaluate import DEFAULT_THRESHOLDS, ap_from_flags, evaluate_predictions
from annoconsist.loss import LossConfig
from annoconsist.masks import iou_table
from annoconsist.prednet import (
    InstancePrediction,
    argmax_labeling,
    predict,
)
from annoconsist.scorer import (
    cond_init,
    feature_dim,
    features,
    score_from_input,
    score_vjp,
)
from annoconsist.train import (
    TrainConfig,
    cond_grad,
    empirical_distribution,
    evaluate_params,
    fit,
    pred_grad,
    sgd_step,
)

from conftest import make_record, rect_mask
from oracles import (DiscParts, cell, disc, edge_weight, exact_infer,
                     make_dataset, num_edges, pairwise_refine,
                     pointwise_trend_holds, pred_objective, scorer_input,
                     term_trend_holds, total_score)

CONFIG_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "configs", "reference.json")


def _report(line: str) -> None:
    print(f"\n[PASS] {line}")


# ---------------------------------------------------------------------------
# greedy inference vs the brute-force oracle


def _slot_mask(rng, slot: int) -> np.ndarray:
    # one rectangle strictly inside cell `slot` of a 2 x 4 partition of a
    # 16 x 16 canvas; masks from different slots can never touch
    r, c = divmod(slot, 4)
    y0 = 8 * r + int(rng.integers(0, 2))
    y1 = 8 * r + 8 - int(rng.integers(0, 2))
    x0 = 4 * c + int(rng.integers(0, 1 + 1))
    x1 = 4 * c + 4 - int(rng.integers(0, 1 + 1))
    if x1 <= x0:
        x1 = x0 + 1
    return rect_mask(16, 16, y0, y1, x0, x1)


def _random_mask(rng) -> np.ndarray:
    y0 = int(rng.integers(0, 13))
    x0 = int(rng.integers(0, 13))
    y1 = y0 + int(rng.integers(2, 17 - y0 - 1))
    x1 = x0 + int(rng.integers(2, 17 - x0 - 1))
    return rect_mask(16, 16, y0, y1, x0, x1)


def _disjoint_instance(rng, n_classes: int, p: int):
    """Pairwise-disjoint pool with a one-positive-class-per-proposal table:
    selecting exactly the positive entries is the unique optimum, so greedy
    and exhaustive search must agree to the last bit."""
    masks = [_slot_mask(rng, slot) for slot in range(p)]
    pos = np.zeros(p, dtype=np.int64)
    pos[:n_classes] = np.arange(1, n_classes + 1)  # every class covered
    pos[n_classes:] = rng.integers(0, n_classes + 1, size=p - n_classes)
    g = np.zeros((p, n_classes + 1))
    for u in range(p):
        for j in range(1, n_classes + 1):
            if pos[u] == j:
                g[u, j] = rng.uniform(0.5, 2.0)
            else:
                g[u, j] = -rng.uniform(0.5, 2.0)
    rec = make_record(masks, range(1, n_classes + 1), num_classes=n_classes)
    return rec, g


def _generic_instance(rng, n_classes: int, p: int):
    """Free-form pool and table; one disjoint anchor proposal per class is
    reserved (large negative score everywhere else) so an annotation-
    consistent positive-score labeling always exists."""
    masks = [_slot_mask(rng, slot) for slot in range(n_classes)]
    masks += [_random_mask(rng) for _ in range(p - n_classes)]
    g = rng.normal(-0.2, 1.0, size=(p, n_classes + 1))
    g[:, 0] = 0.0
    for j in range(1, n_classes + 1):
        u = j - 1
        g[u, j] = abs(rng.normal()) + 0.1
        for jj in range(1, n_classes + 1):
            if jj != j:
                g[u, jj] = -3.0 - abs(rng.normal())
    rec = make_record(masks, range(1, n_classes + 1), num_classes=n_classes)
    return rec, g


def test_greedy_inference_is_consistent_and_near_exact():
    # 200 seeded random instances with at most 8 proposals. Greedy output
    # must be annotation-consistent on all of them, must equal the
    # exhaustive argmax score exactly whenever the pool is pairwise
    # disjoint with single-class positives, and must land within 5% of the
    # exhaustive score on average overall.
    kernels.warmup()
    rng = np.random.default_rng(1207)
    cfg = InferenceConfig()
    n_instances = 200
    ratios = []
    consistent = 0
    exact_matches = 0
    disjoint_total = 0
    t0 = time.perf_counter()
    for i in range(n_instances):
        n_classes = int(rng.integers(1, 3))
        p = int(rng.integers(n_classes + 2, 9))
        on_disjoint_family = i % 3 == 0
        if on_disjoint_family:
            rec, g = _disjoint_instance(rng, n_classes, p)
        else:
            rec, g = _generic_instance(rng, n_classes, p)
        ann, geom = rec.annotation, rec.geometry()

        y_greedy = greedy_infer(g, ann, geom, cfg)
        assert higher_order_feasible(y_greedy, ann, geom, cfg)
        consistent += 1

        y_exact = exact_infer(g, ann, geom, cfg)
        s_greedy = total_score(g, y_greedy, ann, geom, cfg)
        s_exact = total_score(g, y_exact, ann, geom, cfg)
        assert s_exact > 0.0  # by construction, so the ratio is meaningful
        ratios.append(s_greedy / s_exact)
        if on_disjoint_family:
            disjoint_total += 1
            assert s_greedy == s_exact
            exact_matches += 1
    elapsed = time.perf_counter() - t0

    mean_ratio = float(np.mean(ratios))
    assert consistent == n_instances
    assert exact_matches == disjoint_total
    assert mean_ratio > 0.95
    assert elapsed < 60.0
    _report(
        f"greedy inference: {consistent}/{n_instances} annotation-consistent, "
        f"exact-score match on {exact_matches}/{disjoint_total} disjoint pools, "
        f"mean greedy/exact score ratio {mean_ratio:.4f} ({elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# diversity estimators vs Monte Carlo


def _sample_from_state(rng, state: np.ndarray, n: int) -> np.ndarray:
    cum = np.cumsum(state, axis=1)
    r = rng.random((n, state.shape[0]))
    return (r[:, :, None] > cum[None, :, :]).sum(axis=2)


def test_diversity_estimators_match_monte_carlo():
    # closed-form div_pc and div_pp agree with 1e5-draw Monte-Carlo
    # estimates within three standard errors on 20 random predictive
    # states, and the coefficient is exactly zero for a deterministic
    # state paired with its own labeling.
    kernels.warmup()
    rng = np.random.default_rng(42)
    lcfg = LossConfig()
    lam = lcfg.lambda_cls
    n_draws = 100_000
    worst_pc = worst_pp = 0.0
    t0 = time.perf_counter()
    for _ in range(20):
        p = int(rng.integers(3, 7))
        m = int(rng.integers(3, 5))
        state = rng.random((p, m)) + 0.05
        state /= state.sum(axis=1, keepdims=True)
        labels = rng.integers(0, m, size=(4, p))

        draws = _sample_from_state(rng, state, n_draws)
        per_draw = lam * (draws[:, None, :] != labels[None, :, :]).sum(axis=2).mean(axis=1)
        mc = float(per_draw.mean())
        se = float(per_draw.std(ddof=1) / np.sqrt(n_draws))
        err = abs(div_pc(state, labels, [0, p], lcfg)[0] - mc)
        assert err <= 3.0 * se + 1e-12
        worst_pc = max(worst_pc, err / se)

        draws_b = _sample_from_state(rng, state, n_draws)
        per_pair = lam * (draws != draws_b).sum(axis=1).astype(np.float64)
        mc = float(per_pair.mean())
        se = float(per_pair.std(ddof=1) / np.sqrt(n_draws))
        err = abs(div_pp(state, [0, p], lcfg)[0] - mc)
        assert err <= 3.0 * se + 1e-12
        worst_pp = max(worst_pp, err / se)
    elapsed = time.perf_counter() - t0

    # deterministic matched pair: every divergence term vanishes exactly
    state = np.array([[0.0, 1.0], [1.0, 0.0]])
    y = argmax_labeling(state)
    labels = np.stack([y, y, y])
    assert disc(state, labels, lcfg) == DiscParts(0.0, 0.0, 0.0, 0.0)

    assert elapsed < 60.0
    _report(
        f"diversity estimators: div_pc/div_pp within 3 standard errors of "
        f"1e5-draw Monte Carlo on 20 states (worst {worst_pc:.2f}/"
        f"{worst_pp:.2f} se), matched deterministic pair scores exactly "
        f"zero ({elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# analytic gradients vs finite differences


def _fd_grad(fun, arr: np.ndarray, h: float = 1e-5) -> np.ndarray:
    g = np.zeros_like(arr)
    flat, gflat = arr.ravel(), g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fun()
        flat[i] = orig - h
        fm = fun()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def _micro_record(rng):
    masks = [_slot_mask(rng, s) for s in rng.choice(8, size=3, replace=False)]
    return make_record(masks, [1, 2], num_classes=2)


def test_analytic_gradients_match_finite_differences():
    # scorer backward pass and prediction-objective gradient against
    # central finite differences on 50 random micro-instances; the
    # conditional gradient is exactly zero when the task loss vanishes;
    # a fully hand-derived two-proposal update matches to 1e-9.
    kernels.warmup()
    rng = np.random.default_rng(7)
    noise_dim = 4
    checked = 0
    t0 = time.perf_counter()
    for i in range(50):
        rec = _micro_record(rng)
        if i % 2 == 0:
            params = cond_init(2, noise_dim)
            params[...] = rng.normal(0.0, 0.5, size=params.shape)
            x = scorer_input(rec, rng.normal(0.0, 1.0, size=noise_dim))
            q = rng.normal(size=(x.shape[0], 3))
            analytic = score_vjp(x, q)
            fd = _fd_grad(
                lambda: float((score_from_input(params, x) * q).sum()), params)
            np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-8)
        else:
            params = rng.normal(0.0, 0.5, size=(3, feature_dim(2)))
            labels = rng.integers(0, 3, size=(3, rec.num_proposals))
            pointwise = i % 4 == 3
            qbar = empirical_distribution(labels, rec.num_classes + 1)
            analytic = pred_grad(params, rec, qbar, LossConfig(), 0.5, pointwise)
            fd = _fd_grad(
                lambda: pred_objective(predict(params, rec), labels,
                                       LossConfig(), 0.5, pointwise),
                params,
            )
            np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-8)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 50

    # vanishing task loss -> exactly zero conditional gradient
    a = rect_mask(12, 12, 1, 6, 1, 6)
    b = rect_mask(12, 12, 7, 12, 7, 12)
    rec = make_record([a, b], [1], num_classes=1, size=(12, 12))
    table = np.array([[0.0, 2.0], [0.0, 0.5]])
    f = features(rec)
    sol, *_ = np.linalg.lstsq(f, table, rcond=None)
    params = cond_init(1, 8)
    params[:, : f.shape[1]] = sol.T
    icfg = InferenceConfig()
    unrefined = dataclasses.replace(icfg, n_iters=0)
    z = np.zeros((2, 8))
    stack, g = forward_scores(params, rec, z, unrefined)
    np.testing.assert_allclose(g[0], table, atol=1e-9)
    y = greedy_infer(g[0], rec.annotation, rec.geometry(), icfg)
    samples = SampleSet(z=z, stack=stack, g=g, labels=np.stack([y, y]),
                        enforced=True)
    zero_grad = cond_grad(params, rec, samples, np.array([1, 0]),
                          TrainConfig(k=2), icfg, LossConfig(lambda_cls=0.0))
    assert (zero_grad == 0.0).all()

    # hand-derived direct-loss step: table [[0,2],[0,.5]], reference
    # [1,0], both draws [1,1]. Pulled augmentation flips only the second
    # proposal, so the gradient is 2 * q^T x with q = [[0,0],[-.5,.5]].
    np.testing.assert_array_equal(samples.labels, [[1, 1], [1, 1]])
    tcfg = TrainConfig(k=2, gamma=0.5, epsilon=1.0)
    grad = cond_grad(params, rec, samples, np.array([1, 0]), tcfg, icfg,
                     LossConfig())
    q_hand = np.array([[0.0, 0.0], [-0.5, 0.5]])
    x = scorer_input(rec, samples.z[0])
    np.testing.assert_allclose(grad, 2.0 * (q_hand.T @ x), atol=1e-9)
    sgd_step(params, grad, 0.05)
    g_new = forward_scores(params, rec, z[:1], unrefined)[1][0]
    assert g_new[1, 1] < table[1, 1] and g_new[1, 0] > table[1, 0]

    assert elapsed < 60.0
    _report(
        f"gradients: analytic vs central differences on 50 micro-instances "
        f"at rtol 1e-4, zero-loss gradient exactly zero, hand-derived "
        f"update matches to 1e-9 ({elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# pairwise refinement semantics


def test_pairwise_refinement_hand_iteration_and_edge_gating():
    # two abutting unit-score proposals with a free boundary gain exactly
    # 10 per iteration (gap 0, stabilizer 0.1), landing on (31, 31) after
    # three rounds; a strength-50 boundary gates the flow below
    # 3 * exp(-50) / delta.
    a = rect_mask(8, 8, 2, 6, 0, 4)
    b = rect_mask(8, 8, 2, 6, 4, 8)
    rec = make_record([a, b], [1])
    assert num_edges(rec.adjacency) == 1
    cfg = InferenceConfig(delta=0.1, n_iters=3)
    stack = refine_stack(np.ones((2, 2)), rec.adjacency, cfg)
    np.testing.assert_array_equal(stack[1], np.full((2, 2), 11.0))
    np.testing.assert_array_equal(stack[2], np.full((2, 2), 21.0))
    np.testing.assert_array_equal(stack[3], np.full((2, 2), 31.0))
    assert (stack[3][0, 1], stack[3][1, 1]) == (31.0, 31.0)

    edges = np.zeros((8, 8), dtype=np.float32)
    edges[2:6, 3] = 6.25
    edges[2:6, 4] = 6.25
    rec_strong = make_record([a, b], [1], edges=edges)
    assert edge_weight(rec_strong.adjacency, 0, 1) == pytest.approx(50.0)
    f = np.array([[1.0, 0.3], [0.2, 0.9]])
    out = pairwise_refine(f, rec_strong.adjacency, cfg)
    bound = 3.0 * np.exp(-50.0) / cfg.delta
    deviation = float(np.abs(out - f).max())
    assert deviation < bound
    _report(
        f"refinement: free boundary iterates 1 -> 11 -> 21 -> 31 exactly, "
        f"strength-50 boundary deviation {deviation:.2e} < {bound:.2e}"
    )


# ---------------------------------------------------------------------------
# reference benchmark (shared by the end-to-end checks)


@pytest.fixture(scope="module")
def reference_run():
    kernels.warmup()
    cfg = load_config(CONFIG_PATH)
    train_recs = make_dataset(cfg.scene, cfg.proposal, cfg.n_scenes, cfg.seed)
    heldout = make_dataset(cfg.scene, cfg.proposal, cfg.n_eval_scenes,
                           cfg.seed, start_id=cfg.n_scenes)
    t0 = time.perf_counter()
    res = fit(train_recs, cfg.train, cfg.inference, cfg.loss)
    ev = evaluate_params(res.pred, heldout, DEFAULT_THRESHOLDS,
                         cfg.train.decode_thresh, cfg.train.decode_nms)
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(cfg=cfg, train=train_recs, heldout=heldout,
                           res=res, ev=ev, elapsed=elapsed)


def test_reference_benchmark_reaches_target_map(reference_run):
    # the shipped reference protocol (50 scenes, 10 samples per scene,
    # gamma 0.5, pulled augmentation, 4 outer iterations) reaches held-out
    # mAP at mask IoU 0.5 of at least 0.80 in under ten minutes.
    r = reference_run
    assert r.cfg.train.k == 10
    assert r.cfg.train.gamma == 0.5
    assert r.cfg.train.epsilon == 1.0
    assert r.cfg.train.outer_iters == 4
    assert len(r.train) == 50 and len(r.heldout) == 12
    map50 = r.ev.map_r[0.50]
    assert map50 >= 0.80
    assert r.elapsed < 600.0
    _report(
        f"reference benchmark: held-out mAP@0.50 = {map50:.4f} "
        f"(target 0.80), fit + eval in {r.elapsed:.1f}s of the 600s budget"
    )


def test_ablation_trends_hold_across_terms_and_variants(reference_run):
    # adding score terms never hurts (unary <= +pairwise <= +higher-order)
    # and the fully probabilistic pair beats every pointwise ablation,
    # averaged over three seeds to break ties.
    r = reference_run
    t0 = time.perf_counter()
    result = ablation_run(r.train, r.heldout, base_cfg=r.cfg.train,
                          inf_cfg=r.cfg.inference, loss_cfg=r.cfg.loss,
                          thresholds=(0.50,), seeds=(0, 1, 2))
    elapsed = time.perf_counter() - t0
    assert term_trend_holds(result, variant="full", thresh=0.50)
    assert pointwise_trend_holds(result, term_mode="U+P+H", thresh=0.50)
    terms = [cell(result, tm, "full")[0.50] for tm in TERM_MODES]
    pw = [cell(result, "U+P+H", v)[0.50]
          for v in ("pw-pred", "pw-cond", "pw-both")]
    _report(
        f"ablations: term trend {terms[0]:.4f} <= {terms[1]:.4f} <= "
        f"{terms[2]:.4f}, full {terms[2]:.4f} >= pointwise "
        f"{max(pw):.4f} (3-seed means, {elapsed:.1f}s)"
    )


def test_box_supervision_matches_or_beats_image_level(reference_run):
    # tightening supervision from image-level presence to boxes must not
    # lose accuracy on the same scenes within the same runtime budget.
    r = reference_run
    cfg_box = dataclasses.replace(r.cfg.train, supervision="box")
    t0 = time.perf_counter()
    res_box = fit(r.train, cfg_box, r.cfg.inference, r.cfg.loss)
    ev_box = evaluate_params(res_box.pred, r.heldout, DEFAULT_THRESHOLDS,
                             cfg_box.decode_thresh, cfg_box.decode_nms)
    elapsed = time.perf_counter() - t0
    map_box = ev_box.map_r[0.50]
    map_image = r.ev.map_r[0.50]
    assert map_box >= map_image
    assert elapsed < 600.0
    _report(
        f"box regime: mAP@0.50 = {map_box:.4f} >= image regime "
        f"{map_image:.4f}, fit + eval in {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# metric sanity


def test_metric_reports_perfect_predictions_and_hand_curve(reference_run):
    # ground truth replayed as predictions scores 1.0 at every threshold,
    # and the three-prediction hand example reproduces the all-point
    # interpolated area exactly. The reference pools include every
    # ground-truth mask, so each object is replayed as its own proposal.
    preds, truth = {}, {}
    for rec in reference_run.heldout:
        iou = iou_table(rec.pool, rec.gt.masks)
        truth[rec.scene_id] = (rec.gt.class_ids, iou)
        own = iou.argmax(axis=0)
        assert (iou[own, np.arange(len(own))] == 1.0).all()
        preds[rec.scene_id] = [
            InstancePrediction(proposal_index=int(u), class_id=c,
                               confidence=1.0)
            for u, c in zip(own, rec.gt.class_ids.tolist())
        ]
    ev = evaluate_predictions(preds, truth, DEFAULT_THRESHOLDS)
    for t in DEFAULT_THRESHOLDS:
        assert ev.map_r[t] == 1.0

    assert ap_from_flags([True], npos=1) == 1.0
    assert ap_from_flags([False, True], npos=1) == 0.5
    assert ap_from_flags([True, False, True], npos=2) == 0.5 + 0.5 * (2.0 / 3.0)
    _report(
        "metric: perfect predictions score 1.0 at thresholds "
        "{0.25, 0.50, 0.70, 0.75}; hand-computed precision-recall areas "
        "match exactly"
    )
