import csv
import dataclasses
import functools
import gc
import json
import os
import re
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from annoconsist.adjacency import build_adjacency
from annoconsist import train as train_mod
from annoconsist import kernels
from annoconsist.config import load_config
from annoconsist.condnet import (
    InferenceConfig,
    InferenceError,
    SampleSet,
    forward_scores,
    greedy_infer,
    refine_backward,
    sample_k,
)
from annoconsist.disco import div_pc, div_pp
from annoconsist.loss import LossConfig, cost_row
from annoconsist.masks import inner_boundary
from annoconsist.prednet import pred_init, predict
from annoconsist.scenes import Instances
from annoconsist.scorer import cond_init, feature_dim, features, score_vjp
from annoconsist.synthgen import ProposalConfig, SceneConfig
from annoconsist.train import (
    CheckpointError,
    PreparedScene,
    TrainConfig,
    TrainingError,
    cond_grad,
    empirical_distribution,
    fit,
    load_checkpoint,
    pred_grad,
    prepare_records,
    prepare_scene,
    save_checkpoint,
    seed_labeling,
    selection_matrix,
    sgd_step,
    write_log_csv,
)

from conftest import instances, make_record, rect_mask
from oracles import (assert_per_draw_close, epoch_metrics_per_scene,
                     make_dataset, num_edges, per_draw_backward,
                     pred_objective, scene_noise, scorer_input, tight_box)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(supervision="pixel")
    with pytest.raises(ValueError):
        TrainConfig(k=0)
    with pytest.raises(ValueError):
        TrainConfig(epsilon=0.0)


def test_optimizer_sgd_step_and_raw_norm():
    params = np.array([[1.0, 2.0]])
    grad = np.array([[3.0, 4.0]])
    norm = sgd_step(params, grad, 0.1)
    assert norm == pytest.approx(5.0)
    np.testing.assert_allclose(params, [[1.0 - 0.3, 2.0 - 0.4]])


def test_optimizer_clips_update_but_reports_raw_norm():
    params = np.array([[0.0, 0.0]])
    grad = np.array([[3.0, 4.0]])
    norm = sgd_step(params, grad, 1.0, clip=1.0)
    assert norm == pytest.approx(5.0)
    # update direction preserved, length capped at clip
    np.testing.assert_allclose(params, [[-0.6, -0.8]])


def test_optimizer_rejects_non_finite_gradients():
    params = np.array([[0.0]])
    grad = np.array([[np.nan]])
    with pytest.raises(TrainingError):
        sgd_step(params, grad, 0.1)


def test_empirical_distribution_counts_frequencies():
    labels = np.array([[1, 0], [1, 2], [0, 2], [1, 2]])
    out = empirical_distribution(labels, 3)
    np.testing.assert_allclose(out, [[0.25, 0.75, 0.0], [0.25, 0.0, 0.75]])
    np.testing.assert_allclose(out.sum(axis=1), 1.0)


def _per_draw_distribution(labels, m):
    """q̄ by adding 1.0 per draw, then dividing by K."""
    kk, p = labels.shape
    out = np.zeros((p, m), dtype=np.float64)
    for k in range(kk):
        out[np.arange(p), labels[k]] += 1.0
    return out / kk


@st.composite
def _label_stack(draw, p=None, m=None):
    p = p or draw(st.integers(1, 70))
    m = m or draw(st.integers(2, 6))
    k = draw(st.integers(1, 12))
    return draw(arrays(np.int64, (k, p), elements=st.integers(0, m - 1))), m


@settings(max_examples=200, deadline=None)
@given(_label_stack())
def test_empirical_distribution_is_bit_identical_to_a_per_draw_loop(stack):
    labels, m = stack
    got = empirical_distribution(labels, m)
    assert got.shape == (labels.shape[1], m) and got.dtype == np.float64
    assert got.tobytes() == _per_draw_distribution(labels, m).tobytes()


@settings(max_examples=50, deadline=None)
@given(_label_stack(p=3, m=4), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.4, 1.0]), st.booleans())
def test_pred_grad_given_qbar_is_bit_identical_to_the_per_draw_table(
        stack, seed, gamma, pointwise):
    labels, m = stack
    rec = _pred_record()
    params = np.random.default_rng(seed).normal(
        scale=0.5, size=pred_init(rec.num_classes).shape)
    lcfg = LossConfig(lambda_cls=0.75)
    got = pred_grad(params, rec, empirical_distribution(labels, m), lcfg,
                    gamma, pointwise)
    want = pred_grad(params, rec, _per_draw_distribution(labels, m), lcfg,
                     gamma, pointwise)
    assert got.tobytes() == want.tobytes()


def test_selection_matrix_is_one_hot_score_selector():
    labels = np.array([2, 0, 1])
    sel = selection_matrix(labels, 3)
    g = np.arange(9.0).reshape(3, 3)
    assert float((sel * g).sum()) == g[0, 2] + g[1, 0] + g[2, 1]


def test_selection_matrix_stacks_over_leading_axes():
    labels = np.array([[[2, 0, 1], [1, 1, 0]], [[0, 0, 0], [2, 2, 1]]])
    sel = selection_matrix(labels, 3)
    assert sel.shape == (2, 2, 3, 3) and sel.dtype == np.float64
    for idx in np.ndindex(2, 2):
        assert sel[idx].tobytes() == selection_matrix(labels[idx], 3).tobytes()


def _pred_record():
    masks = [rect_mask(16, 16, 4 * i, 4 * i + 3, 0, 4) for i in range(3)]
    return make_record(masks, [1, 2], size=(16, 16))


def test_pred_objective_matches_diversity_terms():
    rng = np.random.default_rng(2)
    rec = _pred_record()
    lcfg = LossConfig(lambda_cls=0.75)
    labels = rng.integers(0, 3, size=(4, 3))
    state = np.exp(rng.normal(size=(3, 3)))
    state /= state.sum(axis=1, keepdims=True)
    for gamma in (0.0, 0.5, 1.0):
        want = div_pc(state, labels, lcfg) - (1 - gamma) * div_pp(state, lcfg)
        got = pred_objective(state, labels, lcfg, gamma, pointwise=False)
        assert got == pytest.approx(want)
    # pointwise drops the self-diversity term entirely
    got = pred_objective(state, labels, lcfg, 0.5, pointwise=True)
    assert got == pytest.approx(div_pc(state, labels, lcfg))


@pytest.mark.parametrize("pointwise", [False, True])
def test_pred_grad_matches_finite_differences(pointwise):
    rng = np.random.default_rng(5)
    rec = _pred_record()
    lcfg = LossConfig()
    gamma = 0.4
    labels = rng.integers(0, 3, size=(5, 3))
    params = rng.normal(scale=0.3, size=pred_init(rec.num_classes).shape)
    qbar = empirical_distribution(labels, rec.num_classes + 1)
    grad = pred_grad(params, rec, qbar, lcfg, gamma, pointwise)

    def objective(w):
        return pred_objective(predict(w, rec), labels, lcfg, gamma, pointwise)

    h = 1e-5
    idx = [(i, j) for i in range(params.shape[0]) for j in range(params.shape[1])]
    for i, j in idx:
        wp = params.copy()
        wm = params.copy()
        wp[i, j] += h
        wm[i, j] -= h
        fd = (objective(wp) - objective(wm)) / (2 * h)
        assert grad[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def _cond_record():
    a = rect_mask(12, 12, 1, 6, 1, 6)
    b = rect_mask(12, 12, 7, 12, 7, 12)
    return make_record([a, b], [1], num_classes=1, size=(12, 12))


def _params_for_table(rec, table, noise_dim=8):
    """Linear scorer parameters whose zero-noise score table equals the
    given target on this record (least squares in the feature block)."""
    f = features(rec)
    sol, *_ = np.linalg.lstsq(f, table, rcond=None)
    params = cond_init(rec.num_classes, noise_dim)
    params[:, : f.shape[1]] = sol.T
    return params


def _zero_noise_table(params, rec, icfg):
    return forward_scores(params, rec, np.zeros((1, 8)),
                          dataclasses.replace(icfg, n_iters=0))[1][0]


def _manual_samples(params, rec, table, k, icfg, enforce=True):
    """K identical zero-noise draws on the unrefined table, which zero
    refinement iterations leave."""
    z = np.zeros((k, 8))
    stack, g = forward_scores(params, rec, z,
                              dataclasses.replace(icfg, n_iters=0))
    np.testing.assert_allclose(g[0], table, atol=1e-9)
    y = greedy_infer(g[0], rec.annotation, rec.geometry(), icfg, enforce=enforce)
    return SampleSet(z=z, stack=stack, g=g, labels=np.stack([y] * k),
                     enforced=enforce)


def test_cond_grad_is_exactly_zero_when_the_task_loss_vanishes():
    rec = _cond_record()
    table = np.array([[0.0, 2.0], [0.0, 0.5]])
    params = _params_for_table(rec, table)
    icfg = InferenceConfig()
    samples = _manual_samples(params, rec, table, k=3, icfg=icfg)
    tcfg = TrainConfig(k=3)
    lcfg = LossConfig(lambda_cls=0.0)  # every dissimilarity row is zero
    grad = cond_grad(params, rec, samples, np.array([1, 0]), tcfg, icfg, lcfg)
    assert (grad == 0.0).all()


def test_cond_grad_hand_case_two_proposals_one_class_two_draws():
    # fully hand-derived direct-loss-minimization step. Table
    #   g = [[0, 2], [0, 0.5]], reference [1, 0], samples both [1, 1].
    # Pulled augmentation subtracts the cost row [[1,0],[0,1]]:
    #   aug = [[-1, 2], [0, -0.5]] -> augmented labeling [1, 0].
    # Reference term per draw: (m_a - m_c) / (K * -eps)
    #   = [[0,0],[1,-1]] / -2 = [[0,0],[-0.5,0.5]].
    # Pairwise term: augmenting with the other draw's own labeling leaves
    # the argmax at [1, 1] = the sample itself, so it contributes zero.
    rec = _cond_record()
    table = np.array([[0.0, 2.0], [0.0, 0.5]])
    params = _params_for_table(rec, table)
    icfg = InferenceConfig()
    samples = _manual_samples(params, rec, table, k=2, icfg=icfg)
    np.testing.assert_array_equal(samples.labels, [[1, 1], [1, 1]])
    y_ref = np.array([1, 0])
    tcfg = TrainConfig(k=2, gamma=0.5, epsilon=1.0)
    grad = cond_grad(params, rec, samples, y_ref, tcfg, icfg, LossConfig())
    q = np.array([[0.0, 0.0], [-0.5, 0.5]])
    x = scorer_input(rec, samples.z[0])
    want = 2.0 * (q.T @ x)  # two identical draws
    np.testing.assert_allclose(grad, want, atol=1e-9)

    # one descent step must demote the disputed entry g[1, 1] and promote
    # its background alternative
    sgd_step(params, grad, 0.05)
    g_new = _zero_noise_table(params, rec, icfg)
    assert g_new[1, 1] < table[1, 1]
    assert g_new[1, 0] > table[1, 0]
    # the undisputed proposal keeps its selection (features are shared, so
    # its entries drift, but the margin stays decisive)
    assert g_new[0, 1] > g_new[0, 0]


def test_cond_grad_anchor_mode_is_a_margin_update_toward_the_reference():
    # anchor mode replaces augmented inference with the reference itself;
    # repeated steps must raise the reference labeling's total score above
    # the sampled labeling's
    rec = _cond_record()
    table = np.array([[0.0, 2.0], [0.0, 0.5]])
    params = _params_for_table(rec, table)
    icfg = InferenceConfig()
    y_ref = np.array([1, 0])
    tcfg = TrainConfig(k=2, gamma=0.0, epsilon=1.0)
    for _ in range(12):
        samples = _manual_samples(params, rec,
                                  _zero_noise_table(params, rec, icfg), 2, icfg)
        grad = cond_grad(params, rec, samples, y_ref, tcfg, icfg, LossConfig(),
                         anchor=True)
        sgd_step(params, grad, 0.1)
    g = _zero_noise_table(params, rec, icfg)
    y = greedy_infer(g, rec.annotation, rec.geometry(), icfg)
    np.testing.assert_array_equal(y, y_ref)


def _per_draw_cond_grad(params, rec, samples, y_ref, tcfg, icfg, lcfg,
                        anchor, calls, results=None, coef=None):
    """cond_grad one draw at a time: each draw's coefficient table, then its
    own refinement and scorer backward from per_draw_backward. Appends
    every greedy input table to calls, in call order, and each greedy
    result to results when given. Every greedy request is computed: there
    is no memo. coef, when given, gets the (K, P, C+1) coefficient
    tables."""
    kk = samples.k
    m = rec.num_classes + 1
    eye = np.eye(m)
    eps = -tcfg.epsilon
    gamma = 0.0 if tcfg.cond_pointwise else tcfg.gamma

    def infer(table):
        calls.append(table.tobytes())
        out = greedy_infer(table, rec.annotation, rec.geometry(), icfg,
                           enforce=samples.enforced)
        if results is not None:
            results.append(out.tobytes())
        return out

    aug_ref = eps * cost_row(y_ref, rec.num_classes, lcfg)
    aug_pairs = None
    if gamma != 0.0 and kk >= 2:
        aug_pairs = [eps * cost_row(samples.labels[k2], rec.num_classes, lcfg)
                     for k2 in range(kk)]
        pair_coef = 2.0 * gamma / (kk * (kk - 1) * eps)
    qs = np.zeros(samples.g.shape)
    for k in range(kk):
        g = samples.g[k]
        m_c = eye[samples.labels[k]]
        m_a = eye[y_ref] if anchor else eye[infer(g + aug_ref)]
        q = (m_a - m_c) / (kk * eps)
        if aug_pairs is not None:
            for k2 in range(kk):
                if k2 != k:
                    q += pair_coef * (m_c - eye[infer(g + aug_pairs[k2])])
        qs[k] = q
    if coef is not None:
        coef.append(qs)
    # the refinement the samples were drawn under: none in term mode U
    cfg = dataclasses.replace(icfg, n_iters=samples.stack.shape[0] - 1)
    return per_draw_backward(params, rec, samples.z, qs, cfg)


@pytest.mark.parametrize("anchor", [False, True])
@pytest.mark.parametrize("gamma", [0.0, 0.5])
@pytest.mark.parametrize("term_mode", ["U", "U+P", "U+P+H"])
def test_cond_grad_on_the_draw_stack_matches_a_per_draw_loop(
        monkeypatch, anchor, gamma, term_mode):
    _check_cond_grad_against_the_per_draw_loop(
        monkeypatch, anchor, TrainConfig(k=4, gamma=gamma,
                                         term_mode=term_mode))


@pytest.mark.parametrize("anchor", [False, True])
@pytest.mark.parametrize("term_mode", ["U", "U+P", "U+P+H"])
@pytest.mark.parametrize("k,noise_dim", [(1, 8), (4, 0), (1, 0)])
def test_cond_grad_matches_a_per_draw_loop_with_one_draw_or_no_noise(
        monkeypatch, anchor, term_mode, k, noise_dim):
    _check_cond_grad_against_the_per_draw_loop(
        monkeypatch, anchor, TrainConfig(k=k, term_mode=term_mode,
                                         noise_dim=noise_dim))


def _check_cond_grad_against_the_per_draw_loop(monkeypatch, anchor, tcfg):
    # the greedy requests are those of the per-draw loop, byte for byte,
    # and the gradient is the per-draw one up to rounding
    icfg = InferenceConfig(delta=8.0)
    lcfg = LossConfig()
    rng = np.random.default_rng(11)
    got_calls = []

    def traced(table, *args, **kwargs):
        got_calls.append(np.ascontiguousarray(table).tobytes())
        return greedy_infer(table, *args, **kwargs)

    monkeypatch.setattr(train_mod, "greedy_infer", traced)
    for i, rec in enumerate(_tiny_dataset(n=3)):
        rec = prepare_scene(rec, tcfg, icfg)
        params = cond_init(rec.num_classes, tcfg.noise_dim)
        params += rng.normal(0.0, 0.5, size=params.shape)
        samples = sample_k(params, rec,
                           scene_noise(0, rec, tcfg.k, i, tcfg.noise_dim),
                           icfg, term_mode=tcfg.term_mode,
                           enforce=True if anchor else None)
        iterates = 1 if tcfg.term_mode == "U" else icfg.n_iters + 1
        assert samples.stack.shape == (iterates,) + samples.g.shape[1:]
        if anchor:
            y_ref = seed_labeling(rec)
        else:
            y_ref = rng.integers(0, rec.num_classes + 1, rec.num_proposals)
        want_calls = []
        want = _per_draw_cond_grad(params, rec, samples, y_ref, tcfg, icfg,
                                   lcfg, anchor, want_calls)
        del got_calls[:]
        got = cond_grad(params, rec, samples, y_ref, tcfg, icfg, lcfg,
                        anchor=anchor)
        assert_per_draw_close(got, want)
        assert got_calls == want_calls
        pairs = tcfg.k - 1 if tcfg.gamma else 0
        per_draw = (0 if anchor else 1) + pairs
        assert len(got_calls) == tcfg.k * per_draw


@functools.lru_cache(maxsize=None)
def _prepared_scenes(supervision):
    tcfg, icfg = TrainConfig(supervision=supervision), InferenceConfig()
    prepared = [prepare_scene(rec, tcfg, icfg) for rec in _tiny_dataset(n=3)]
    return tuple(rec for rec in prepared if rec is not None)


@settings(max_examples=60, deadline=None)
@given(scene=st.integers(0, 2), supervision=st.sampled_from(["image", "box"]),
       anchor=st.booleans(), gamma=st.sampled_from([0.0, 0.5]),
       term_mode=st.sampled_from(["U", "U+P+H"]), k=st.integers(2, 5),
       noise_scale=st.sampled_from([0.0, 0.05, 0.5]),
       seed=st.integers(0, 2**32 - 1))
def test_cond_grad_with_the_memo_equals_a_memo_free_loop(
        scene, supervision, anchor, gamma, term_mode, k, noise_scale, seed):
    # small noise weights make draws share labelings, so pairwise tables
    # repeat and the memo answers them; every request's result must be
    # that of computing it, and the gradient the per-draw loop's
    recs = _prepared_scenes(supervision)
    assume(recs)
    rec = recs[scene % len(recs)]
    tcfg = TrainConfig(k=k, gamma=gamma, term_mode=term_mode,
                       supervision=supervision)
    icfg, lcfg = InferenceConfig(delta=8.0), LossConfig()
    rng = np.random.default_rng(seed)
    params = cond_init(rec.num_classes, 8)
    params += rng.normal(0.0, 0.5, size=params.shape)
    params[:, feature_dim(rec.num_classes):] *= noise_scale / 0.5
    try:
        samples = sample_k(params, rec, scene_noise(seed % 97, rec, k), icfg,
                           term_mode=term_mode,
                           enforce=True if anchor else None)
    except InferenceError:
        assume(False)
    y_ref = (seed_labeling(rec) if anchor else
             rng.integers(0, rec.num_classes + 1, rec.num_proposals))
    want_calls, want_results = [], []
    try:
        want = _per_draw_cond_grad(params, rec, samples, y_ref, tcfg, icfg,
                                   lcfg, anchor, want_calls, want_results)
    except InferenceError:
        want = None
    got_calls, got_results, computed = [], [], []

    def traced(table, *args, **kwargs):
        got_calls.append(np.ascontiguousarray(table).tobytes())
        out = greedy_infer(table, *args, **kwargs)
        got_results.append(out.tobytes())
        return out

    def counted(*args):
        computed.append(1)
        return orig_kernel(*args)

    orig_kernel = kernels.greedy_labels
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(train_mod, "greedy_infer", traced)
        mp.setattr(kernels, "greedy_labels", counted)
        if want is None:
            # the same requests, up to the one that raises
            with pytest.raises(InferenceError):
                cond_grad(params, rec, samples, y_ref, tcfg, icfg, lcfg,
                          anchor=anchor)
            assert got_calls == want_calls
            return
        got = cond_grad(params, rec, samples, y_ref, tcfg, icfg, lcfg,
                        anchor=anchor)
    assert_per_draw_close(got, want)
    assert got_calls == want_calls
    assert got_results == want_results
    # each distinct table is computed once
    assert len(computed) == len(set(got_calls))


@settings(max_examples=60, deadline=None)
@given(scene=st.integers(0, 2), supervision=st.sampled_from(["image", "box"]),
       anchor=st.booleans(), gamma=st.sampled_from([0.0, 0.5]),
       term_mode=st.sampled_from(["U", "U+P+H"]), k=st.integers(2, 5),
       noise_scale=st.sampled_from([0.0, 0.05, 0.5]),
       seed=st.integers(0, 2**32 - 1))
def test_cond_grad_runs_one_backward_pass_of_the_summed_coefficients(
        scene, supervision, anchor, gamma, term_mode, k, noise_scale, seed):
    # the draws share one refinement, so cond_grad runs its adjoint once,
    # on the sum of the draws' coefficient tables, and skips it when that
    # sum is all ±0; the noise block reads the draws' noise rows. The
    # gradient is the per-draw backward's up to rounding
    recs = _prepared_scenes(supervision)
    assume(recs)
    rec = recs[scene % len(recs)]
    tcfg = TrainConfig(k=k, gamma=gamma, term_mode=term_mode,
                       supervision=supervision)
    icfg, lcfg = InferenceConfig(delta=8.0), LossConfig()
    rng = np.random.default_rng(seed)
    params = cond_init(rec.num_classes, 8)
    params += rng.normal(0.0, 0.5, size=params.shape)
    params[:, feature_dim(rec.num_classes):] *= noise_scale / 0.5
    try:
        samples = sample_k(params, rec, scene_noise(seed % 97, rec, k), icfg,
                           term_mode=term_mode,
                           enforce=True if anchor else None)
    except InferenceError:
        assume(False)
    # a reference equal to a draw's labeling leaves that draw's table at
    # zero more often than a random one
    y_ref = (seed_labeling(rec) if anchor else
             samples.labels[seed % k] if seed % 2 else
             rng.integers(0, rec.num_classes + 1, rec.num_proposals))
    coef = []
    try:
        want = _per_draw_cond_grad(params, rec, samples, y_ref, tcfg, icfg,
                                   lcfg, anchor, [], coef=coef)
    except InferenceError:
        assume(False)
    vjp_inputs, vjp_coefs, adjoint_inputs = [], [], []

    def traced_vjp(x, q):
        vjp_inputs.append(x.tobytes())
        vjp_coefs.append(q.tobytes())
        return score_vjp(x, q)

    def traced_adjoint(stack, adjacency, cfg, q):
        adjoint_inputs.append((stack.tobytes(), q.tobytes()))
        return refine_backward(stack, adjacency, cfg, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(train_mod, "score_vjp", traced_vjp)
        mp.setattr(train_mod, "refine_backward", traced_adjoint)
        got = cond_grad(params, rec, samples, y_ref, tcfg, icfg, lcfg,
                        anchor=anchor)
    assert_per_draw_close(got, want)
    # the coefficient tables are the per-draw loop's, bit for bit: the
    # noise block reads their sums over proposals
    assert vjp_coefs[-1] == coef[0].sum(axis=1).tobytes()
    q_sum = coef[0].sum(axis=0)
    if q_sum.any():
        assert adjoint_inputs == [(samples.stack.tobytes(), q_sum.tobytes())]
        assert vjp_inputs == [features(rec).tobytes(), samples.z.tobytes()]
    else:
        assert adjoint_inputs == []
        assert vjp_inputs == [samples.z.tobytes()]


def _hopeless_box_scene(scene_id):
    """A two-class box scene whose enforced inference always raises. Both
    classes have a box on m0's extent, and class 2 also has one on m1's.
    m0 is the only proposal that covers the shared box: whichever class
    takes it, the other class's box there cannot be covered."""
    m0 = rect_mask(16, 16, 2, 8, 2, 8)
    m1 = rect_mask(16, 16, 2, 8, 5, 11)  # box IoU with m0 is 1/3
    boxes = [(1, *tight_box(m0)), (2, *tight_box(m0)), (2, *tight_box(m1))]
    return make_record([m0, m1], [1, 2], num_classes=2, size=(16, 16),
                       boxes=boxes, scene_id=scene_id)


def test_hopeless_box_scene_raises_after_class_one_takes_the_shared_cover():
    tcfg, icfg = TrainConfig(supervision="box"), InferenceConfig()
    rec = prepare_scene(_hopeless_box_scene(7), tcfg, icfg)
    assert rec is not None and rec.num_proposals == 2
    # all-zero scores: class 1 takes m0 (ties go to the lower id), class 2
    # then takes m1, and the class-2 box on m0 is left uncovered
    g = np.zeros((2, 3))
    assert kernels.greedy_labels(
        g, rec.annotation.classes, 0.0, rec.geometry().keep_masks(0.5),
        True)[0].tolist() == [1, 2]
    with pytest.raises(InferenceError, match="class-2 box"):
        greedy_infer(g, rec.annotation, rec.geometry(), icfg)


def test_fit_leaves_out_a_scene_whose_inference_fails():
    # the hopeless scene fails in every cond epoch and pred phase; it then
    # contributes nothing, so the fit equals the fit without it, bit for bit
    good = _tiny_dataset(n=2)
    tcfg = _tiny_train_cfg(supervision="box")
    icfg = InferenceConfig(delta=8.0)
    base = fit(good, tcfg, icfg)
    assert base.inference_failures == 0
    res = fit(good + [_hopeless_box_scene(99)], tcfg, icfg)
    phases = (tcfg.init_epochs + tcfg.outer_iters * tcfg.cond_epochs
              + tcfg.outer_iters + 1)
    assert res.inference_failures == phases
    assert res.skipped_scenes == base.skipped_scenes
    assert res.snapshots[-1][0].tobytes() == base.snapshots[-1][0].tobytes()
    assert res.pred.tobytes() == base.pred.tobytes()
    assert res.log == base.log
    with pytest.raises(TrainingError, match="every scene"):
        fit([_hopeless_box_scene(99)], tcfg, icfg)


def test_fit_skips_the_update_of_a_scene_whose_gradient_fails(monkeypatch):
    # sampling succeeds, the direct-loss gradient raises: no update for
    # that scene, but its samples still count in the epoch's metrics
    records = _tiny_dataset(n=2)
    tcfg = _tiny_train_cfg()
    icfg = InferenceConfig(delta=8.0)
    orig = train_mod.cond_grad
    failing = records[1].scene_id

    def flaky(params, rec, *args, **kwargs):
        if rec.scene_id == failing:
            raise InferenceError("injected")
        return orig(params, rec, *args, **kwargs)

    monkeypatch.setattr(train_mod, "cond_grad", flaky)
    res = fit(records, tcfg, icfg)
    cond_epochs = tcfg.init_epochs + tcfg.outer_iters * tcfg.cond_epochs
    assert res.inference_failures == cond_epochs
    assert len(res.log) == cond_epochs + (tcfg.outer_iters + 1) * tcfg.pred_epochs
    only_good = fit(records[:1], tcfg, icfg)
    # the first cond epoch updates on scene 0 alone in both fits; its
    # metrics still read both scenes' samples in the flaky fit
    assert res.log[0]["grad_norm"] == only_good.log[0]["grad_norm"]
    assert res.log[0]["feasible"] == 1.0


@pytest.mark.parametrize("kw", [{}, {"supervision": "box"},
                                {"term_mode": "U"}], ids=["image", "box", "U"])
def test_no_sample_set_outlives_its_scene_step(monkeypatch, kw):
    # fit keeps only each batch's label stacks: a scene's SampleSet is gone
    # before the next scene samples and when a log row is computed, also
    # after its gradient or (for the hopeless box scene) its sampling raised
    records = _tiny_dataset(n=3)
    if kw:
        records.append(_hopeless_box_scene(99))
    failing = records[1].scene_id
    alive = []
    rows = []
    orig_sample = train_mod.sample_k
    orig_grad = train_mod.cond_grad
    orig_metrics = train_mod._epoch_metrics

    def live():
        return sum(ref() is not None for ref in alive)

    def tracked(*args, **kwargs):
        assert live() == 0
        samples = orig_sample(*args, **kwargs)
        alive.append(weakref.ref(samples))
        return samples

    def flaky(params, rec, *args, **kwargs):
        grad = orig_grad(params, rec, *args, **kwargs)
        if rec.scene_id == failing:
            raise InferenceError("injected")
        return grad

    def metrics(*args, **kwargs):
        rows.append(live())
        return orig_metrics(*args, **kwargs)

    monkeypatch.setattr(train_mod, "sample_k", tracked)
    monkeypatch.setattr(train_mod, "cond_grad", flaky)
    monkeypatch.setattr(train_mod, "_epoch_metrics", metrics)
    res = fit(records, _tiny_train_cfg(**kw), InferenceConfig(delta=8.0))
    assert res.inference_failures > 0
    assert rows == [0] * len(res.log)


def test_fit_consumes_any_iterable_of_scenes_once():
    records = _tiny_dataset(n=2)
    tcfg = _tiny_train_cfg(supervision="box")
    icfg = InferenceConfig(delta=8.0)
    want = fit(records, tcfg, icfg)
    got = fit(iter(records), tcfg, icfg)
    assert got.num_scenes == want.num_scenes == 2
    assert got.pred.tobytes() == want.pred.tobytes()
    assert got.log == want.log


SMOKE = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                     "smoke.json")


@pytest.mark.parametrize("supervision", ["image", "box"])
def test_training_never_reads_ground_truth(supervision):
    # with every training scene's ground truth emptied, every snapshot is
    # the same to the byte; only the train-set mAP column of the log moves.
    # decode_thresh sets only which predictions that mAP scores; at 0 it is
    # above 0 at smoke size, so the emptied ground truth shows in the log
    cfg = load_config(SMOKE)
    tcfg = dataclasses.replace(cfg.train, supervision=supervision,
                               decode_thresh=0.0)
    records = make_dataset(cfg.scene, cfg.proposal, cfg.n_scenes, cfg.seed)
    blind = [dataclasses.replace(rec, gt=Instances(
        np.zeros(0, dtype=np.int64),
        np.zeros((0, rec.height, rec.width), dtype=bool))) for rec in records]
    want = fit(records, tcfg, cfg.inference, cfg.loss)
    got = fit(blind, tcfg, cfg.inference, cfg.loss)
    assert len(got.snapshots) == len(want.snapshots)
    for (got_cond, got_pred), (cond, pred) in zip(got.snapshots,
                                                  want.snapshots):
        assert got_cond.tobytes() == cond.tobytes()
        assert got_pred.tobytes() == pred.tobytes()

    def without_map(log):
        return [{k: v for k, v in row.items() if k != "map50"} for row in log]

    assert without_map(got.log) == without_map(want.log)
    assert any(row["map50"] > 0.0 for row in want.log)
    assert all(row["map50"] == 0.0 for row in got.log)


@functools.lru_cache(maxsize=None)
def _smoke_scenes(supervision):
    """The smoke config's training scenes under a regime (box cuts and
    rebuilds the pools): prepare_scene's records, their PreparedScenes as
    fit keeps them, and the stacked features and row bounds fit builds."""
    cfg = load_config(SMOKE)
    tcfg = dataclasses.replace(cfg.train, supervision=supervision)
    cut = [prep for rec in make_dataset(cfg.scene, cfg.proposal, cfg.n_scenes,
                                        cfg.seed)
           if (prep := prepare_scene(rec, tcfg, cfg.inference)) is not None]
    records = [PreparedScene.from_record(rec, cfg.inference) for rec in cut]
    feats = np.concatenate([features(rec) for rec in records])
    bounds = np.cumsum([0] + [rec.num_proposals for rec in records]).tolist()
    return tuple(cut), tuple(records), feats, bounds


@settings(max_examples=60, deadline=None)
@given(supervision=st.sampled_from(["image", "box"]),
       seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 2, 3, 5]),
       scale=st.sampled_from([0.0, 0.5, 3.0]),
       decode_thresh=st.sampled_from([0.0, 0.5, 0.7]),
       decode_nms=st.sampled_from([0.0, 0.5, 1.0]))
def test_epoch_metrics_equal_the_per_scene_row(supervision, seed, k, scale,
                                               decode_thresh, decode_nms):
    # one stacked predictor pass, the list decode and matching through the
    # IoU table give the per-scene row bit for bit, over any used subset
    # (the others failed inference), K = 1 included
    cut, records, feats, bounds = _smoke_scenes(supervision)
    assert any(rec.pool_index is not None for rec in records) == (
        supervision == "box")
    rng = np.random.default_rng(seed)
    c = records[0].num_classes
    pred = pred_init(c) + rng.normal(0.0, scale, (c + 1, feats.shape[1]))
    n_used = int(rng.integers(1, len(records) + 1))
    used = sorted(rng.choice(len(records), n_used, replace=False).tolist())
    labels = [rng.integers(0, c + 1, (k, records[i].num_proposals))
              for i in used]
    feas = rng.random(len(used)).tolist()
    norms = rng.random(int(rng.integers(0, 3))).tolist()
    tcfg = TrainConfig(decode_thresh=decode_thresh, decode_nms=decode_nms)
    lcfg = LossConfig()
    got = train_mod._epoch_metrics(records, feats, bounds, used, pred,
                                   labels, feas, tcfg, lcfg, norms)
    want = epoch_metrics_per_scene([cut[i] for i in used], pred, labels,
                                   feas, tcfg, lcfg, norms)
    assert got == want


def _seed_labeling_loop(rec):
    """seed_labeling with its own ring-edge loop, as it was before it read
    the scorer's boundary_edge feature column."""
    labels = np.zeros(rec.num_proposals, dtype=np.int64)
    ring_edge = np.zeros(rec.num_proposals, dtype=np.float64)
    for u in range(rec.num_proposals):
        ring = inner_boundary(rec.pool[u])
        ring_edge[u] = rec.edges[ring].mean() if ring.any() else 0.0
    for class_id, mask in zip(rec.seeds.class_ids.tolist(), rec.seeds.masks):
        seed_area = float(np.count_nonzero(mask))
        if seed_area == 0.0:
            continue
        best_score, best_u = 0.0, -1
        for u in range(rec.num_proposals):
            cover = np.count_nonzero(mask & rec.pool[u]) / seed_area
            score = cover * (0.05 + ring_edge[u])
            if score > best_score:
                best_score, best_u = score, u
        if best_u >= 0:
            labels[best_u] = class_id
    return labels, ring_edge


@pytest.mark.parametrize("supervision", ["image", "box"])
def test_seed_labeling_equals_its_ring_edge_loop(supervision):
    tcfg, icfg = TrainConfig(supervision=supervision), InferenceConfig()
    seen = 0
    for rec in _tiny_dataset(n=6, seed=3):
        prep = prepare_scene(rec, tcfg, icfg)
        if prep is None:
            continue
        want, ring_edge = _seed_labeling_loop(prep)
        np.testing.assert_array_equal(seed_labeling(prep), want)
        assert features(prep)[:, 6].tobytes() == ring_edge.tobytes()
        seen += int(want.any())
    assert seen > 0


def test_seed_labeling_prefers_boundary_aligned_extent():
    # candidate masks: the true extent, a dilated superset, an eroded
    # subset; all of them fully cover the seed. Only the true extent's
    # inner boundary runs along the edge map, so it must win.
    exact = rect_mask(14, 14, 3, 10, 3, 10)
    superset = rect_mask(14, 14, 2, 11, 2, 11)
    subset = rect_mask(14, 14, 4, 9, 4, 9)
    edges = np.zeros((14, 14), dtype=np.float32)
    edges[inner_boundary(exact)] = 1.0
    seeds = instances([(2, rect_mask(14, 14, 5, 8, 5, 8))], (14, 14))
    rec = make_record([superset, exact, subset], [2], size=(14, 14),
                      edges=edges, seeds=seeds)
    labels = seed_labeling(rec)
    np.testing.assert_array_equal(labels, [0, 2, 0])


def test_seed_labeling_weights_coverage_and_handles_multiple_seeds():
    # a mask that covers half the seed needs twice the boundary evidence
    half = rect_mask(14, 14, 3, 10, 3, 7)   # covers left half of the seed
    full = rect_mask(14, 14, 3, 10, 3, 11)  # covers all of it
    other = rect_mask(14, 14, 0, 3, 10, 14)
    edges = np.zeros((14, 14), dtype=np.float32)
    edges[inner_boundary(full)] = 0.3
    edges[inner_boundary(half)] = 0.3
    seeds = instances([(1, rect_mask(14, 14, 5, 8, 4, 8)),
                       (3, rect_mask(14, 14, 0, 3, 10, 14))], (14, 14))
    rec = make_record([half, full, other], [1, 3], size=(14, 14),
                      edges=edges, seeds=seeds)
    labels = seed_labeling(rec)
    assert labels[1] == 1  # full coverage beats half coverage at equal edges
    assert labels[0] == 0
    assert labels[2] == 3
    # no seeds -> everything background
    rec_empty = make_record([half, full], [1], size=(14, 14))
    np.testing.assert_array_equal(seed_labeling(rec_empty), [0, 0])


def _boxed_record(scene_id=0, with_far_box=False):
    good = rect_mask(16, 16, 2, 8, 2, 8)
    junk = rect_mask(16, 16, 10, 14, 10, 14)
    boxes = [(1, *tight_box(good))]
    if with_far_box:
        boxes.append((2, *tight_box(rect_mask(16, 16, 0, 2, 13, 16))))
    presence = [1, 2] if with_far_box else [1]
    return make_record([good, junk], presence, size=(16, 16), boxes=boxes,
                       scene_id=scene_id)


def test_prepare_records_image_regime_strips_boxes():
    recs = [_boxed_record(0), _boxed_record(1)]
    out, skipped = prepare_records(recs, TrainConfig(supervision="image"),
                                   InferenceConfig())
    assert skipped == 0
    assert len(out) == 2
    for rec in out:
        assert rec.annotation.boxes is None
        assert rec.num_proposals == 2  # pool untouched
    assert recs[0].annotation.boxes is not None  # originals untouched


def test_prepare_records_box_regime_filters_pool_and_skips_uncoverable():
    usable = _boxed_record(0)
    hopeless = _boxed_record(1, with_far_box=True)  # class-2 box unreachable
    out, skipped = prepare_records([usable, hopeless],
                                   TrainConfig(supervision="box"),
                                   InferenceConfig())
    assert skipped == 1
    assert len(out) == 1
    assert out[0].num_proposals == 1  # junk proposal filtered out
    assert out[0].annotation.boxes is not None
    with pytest.raises(TrainingError):
        prepare_records([hopeless], TrainConfig(supervision="box"),
                        InferenceConfig())


def test_prepare_records_box_regime_keeps_the_datasets_own_graph():
    # each pool carries a dilation-2 contact graph, so its box-regime
    # sub-pool must carry the dilation-2 graph, not one rebuilt at another
    # dilation
    recs = [dataclasses.replace(
        rec, adjacency=build_adjacency(rec.pool, rec.edges, dilation=2))
        for rec in make_dataset(SceneConfig(), ProposalConfig(), 6, seed=0)]
    out, skipped = prepare_records(recs, TrainConfig(supervision="box"),
                                   InferenceConfig())
    assert skipped == 0
    lost = 0
    for rec, br in zip(recs, out):
        pool = rec.pool[br.pool_index]
        want = build_adjacency(pool, rec.edges, dilation=2)
        for name in ("edge_u", "edge_v", "edge_w"):
            assert (getattr(br.adjacency, name).tobytes()
                    == getattr(want, name).tobytes()), name
        lost += num_edges(want) - num_edges(build_adjacency(pool, rec.edges))
    assert lost > 0  # dilation 1 would have dropped edges here


def _reachable_array_bytes(root) -> int:
    """Bytes of the ndarray buffers reachable from root through containers,
    instance dicts and array bases, each buffer counted once."""
    seen, counted, total, todo = set(), set(), 0, [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            if id(obj) not in counted:
                counted.add(id(obj))
                total += obj.nbytes
            continue
        todo.extend(gc.get_referents(obj))
    return total


@pytest.mark.parametrize("supervision", ["image", "box"])
def test_prepared_scenes_hold_no_pixels(supervision):
    # what fit keeps of a scene is its tables: no raster, pool or mask
    # stack stays reachable from prepare_records' output
    scenes = make_dataset(SceneConfig(), ProposalConfig(), 8, seed=4)
    pixels = sum(rec.image.nbytes + rec.edges.nbytes + rec.pool.nbytes
                 + rec.gt.masks.nbytes + rec.seeds.masks.nbytes
                 for rec in scenes)
    out = prepare_records(scenes, TrainConfig(supervision=supervision),
                          InferenceConfig())
    assert len(out[0]) + out[1] == len(scenes) and len(out[0]) > 0
    assert _reachable_array_bytes(out) < 0.25 * pixels


@pytest.mark.parametrize("supervision", ["image", "box"])
def test_prepared_scenes_keep_the_anchors_and_iou_of_their_records(
        supervision):
    # the seed anchors and the IoU table are those of the unprepared
    # record (image) or of the cut one (box), computed on a cold copy
    tcfg, icfg = TrainConfig(supervision=supervision), InferenceConfig()
    out, skipped = prepare_records(
        make_dataset(SceneConfig(), ProposalConfig(), 8, seed=5), tcfg, icfg)
    refs = [rec if supervision == "image" else prepare_scene(rec, tcfg, icfg)
            for rec in make_dataset(SceneConfig(), ProposalConfig(), 8,
                                    seed=5)]
    refs = [ref for ref in refs if ref is not None]
    assert len(refs) == len(out) and len(out) + skipped == 8
    assert any(prep.seed_labels.any() for prep in out)
    for prep, ref in zip(out, refs):
        assert prep.scene_id == ref.scene_id
        assert prep.num_proposals == ref.num_proposals
        assert prep.seed_labels.tobytes() == seed_labeling(ref).tobytes()
        assert prep.gt_class_ids.tobytes() == ref.gt.class_ids.tobytes()
        assert prep.gt_iou.shape == (ref.num_proposals, len(ref.gt.class_ids))
        assert prep.gt_iou.tobytes() == ref.gt_iou().tobytes()
        assert prep._features.tobytes() == features(ref).tobytes()
        geom = prep.geometry()
        assert geom.pool is None
        assert geom.ovl.tobytes() == ref.geometry().ovl.tobytes()
        assert geom.boxes.tobytes() == ref.geometry().boxes.tobytes()


def _tiny_dataset(n=2, seed=0):
    scfg = SceneConfig(height=32, width=32, num_classes=2, max_objects=2,
                       min_extent=8, max_extent=12)
    pcfg = ProposalConfig()
    return make_dataset(scfg, pcfg, n, seed)


def _tiny_train_cfg(**kw):
    base = dict(k=2, init_epochs=2, cond_epochs=1, pred_epochs=3,
                outer_iters=1, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_fit_is_bit_reproducible_and_logs_every_epoch():
    records = _tiny_dataset()
    tcfg = _tiny_train_cfg()
    icfg = InferenceConfig(delta=8.0)
    r1 = fit(records, tcfg, icfg)
    r2 = fit(records, tcfg, icfg)
    assert r1.snapshots[-1][0].tobytes() == r2.snapshots[-1][0].tobytes()
    assert r1.pred.tobytes() == r2.pred.tobytes()
    assert [row["map50"] for row in r1.log] == [row["map50"] for row in r2.log]
    # init + outer * (pred + cond) + final pred
    want_rows = 2 + 1 * (3 + 1) + 3
    assert len(r1.log) == want_rows
    assert r1.final_map50 == r1.log[-1]["map50"]
    for row in r1.log:
        assert set(row) >= {"phase", "outer", "epoch", "disc", "div_pc",
                            "div_cc", "div_pp", "map50", "feasible", "grad_norm"}


@pytest.mark.parametrize("pointwise", [False, True])
def test_fit_samples_each_batch_with_its_scenes_per_draw_noise(monkeypatch,
                                                               pointwise):
    # the block drawn per batch gives every scene the rows one draw at a
    # time gives, under the batch's tag: init epochs 0x10000 + epoch, pred
    # phases 0x30000 + outer, cond epochs 0x20000 + outer * 0x100 + epoch
    records = [dataclasses.replace(rec, scene_id=sid) for rec, sid in
               zip(_tiny_dataset(n=2), (3, 2**64 + 1))]
    tcfg = _tiny_train_cfg(seed=2**32, cond_pointwise=pointwise)
    seen = []

    def recording(params, rec, z, *args, **kwargs):
        seen.append((rec.scene_id, z.copy()))
        return sample_k(params, rec, z, *args, **kwargs)

    monkeypatch.setattr(train_mod, "sample_k", recording)
    fit(records, tcfg, InferenceConfig(delta=8.0))
    tags = [0x10000, 0x10001, 0x30000, 0x20000, 0x30001]
    assert len(seen) == len(tags) * len(records)
    for n, (sid, z) in enumerate(seen):
        tag = tags[n // len(records)]
        assert sid == records[n % len(records)].scene_id
        if pointwise:
            want = np.zeros((1, tcfg.noise_dim))
        else:
            want = scene_noise(tcfg.seed, records[n % len(records)], tcfg.k,
                               tag, tcfg.noise_dim)
        assert z.tobytes() == want.tobytes()


def test_fit_snapshots_are_independent_copies():
    records = _tiny_dataset()
    result = fit(records, _tiny_train_cfg(), InferenceConfig(delta=8.0))
    assert len(result.snapshots) == 2  # one per outer iter plus the final
    first, last = result.snapshots
    np.testing.assert_array_equal(last[1], result.pred)
    result.pred += 1.0
    assert not np.array_equal(last[1], result.pred)
    for a, b in zip(first, last):
        assert not np.shares_memory(a, b)


def test_fit_pointwise_variants_run_and_stay_finite():
    records = _tiny_dataset()
    icfg = InferenceConfig(delta=8.0)
    for kw in ({"cond_pointwise": True}, {"pred_pointwise": True},
               {"term_mode": "U"}, {"term_mode": "U+P"}):
        result = fit(records, _tiny_train_cfg(**kw), icfg)
        for row in result.log:
            assert np.isfinite(row["disc"])
            assert np.isfinite(row["grad_norm"])


def test_checkpoint_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(7)
    cond = rng.normal(size=cond_init(3, 8).shape)
    pred = rng.normal(size=pred_init(3).shape)
    path = tmp_path / "ckpt.json"
    save_checkpoint(str(path), cond, pred, meta={"outer": 3})
    assert json.loads(path.read_text())["cond"]["kind"] == "linear"
    cond2, pred2, meta = load_checkpoint(str(path))
    for got, want in ((cond2, cond), (pred2, pred)):
        assert got.dtype == np.float64 and got.flags.writeable
        assert got.tobytes() == want.tobytes()
    assert meta == {"outer": 3}


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(str(path), cond_init(2, 8), pred_init(2))
    obj = json.loads(path.read_text())
    obj["format_version"] = 99
    path.write_text(json.dumps(obj))
    with pytest.raises(CheckpointError, match=re.escape(
            f"{path}: malformed checkpoint: unsupported checkpoint version")):
        load_checkpoint(str(path))


def test_write_log_csv_roundtrip(tmp_path):
    rows = [
        {"phase": "init", "outer": -1, "epoch": 0, "disc": 0.5, "div_pc": 1.0,
         "div_cc": 0.5, "div_pp": 0.5, "map50": 0.25, "feasible": 1.0,
         "grad_norm": 2.0},
        {"phase": "pred", "outer": 0, "epoch": 1, "disc": 0.1, "div_pc": 0.6,
         "div_cc": 0.4, "div_pp": 0.6, "map50": 0.75, "feasible": 1.0,
         "grad_norm": 0.5},
    ]
    path = tmp_path / "log.csv"
    write_log_csv(str(path), rows)
    with open(path) as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == 2
    assert back[0]["phase"] == "init"
    assert float(back[1]["map50"]) == 0.75
    assert list(back[0]) == ["phase", "outer", "epoch", "disc", "div_pc",
                             "div_cc", "div_pp", "map50", "feasible",
                             "grad_norm"]
