import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annoconsist.disco import div_pp
from annoconsist.loss import LossConfig
from annoconsist.prednet import (
    argmax_labeling,
    decode,
    pred_init,
    predict,
    softmax_rows,
)

from conftest import make_record, rect_mask
from oracles import decode_loop, delta_arrays, expected_loss_vs_sample


def test_softmax_rows_hand_case_and_shift_invariance():
    logits = np.array([[0.0, np.log(3.0)], [100.0, 100.0]])
    out = softmax_rows(logits)
    np.testing.assert_allclose(out[0], [0.25, 0.75])
    np.testing.assert_allclose(out[1], [0.5, 0.5])
    shifted = softmax_rows(logits + 123.0)
    np.testing.assert_allclose(shifted, out, atol=1e-12)
    np.testing.assert_allclose(out.sum(axis=1), 1.0)


def test_zero_init_predicts_uniform_rows():
    rec = make_record([rect_mask(8, 8, 0, 4, 0, 4),
                       rect_mask(8, 8, 4, 8, 4, 8)], [1], num_classes=3)
    state = predict(pred_init(rec.num_classes), rec)
    assert state.shape == (2, 4)
    np.testing.assert_allclose(state, 0.25)


def test_predict_is_feature_linear_softmax():
    rec = make_record([rect_mask(8, 8, 0, 4, 0, 4)], [1], num_classes=2)
    rng = np.random.default_rng(4)
    params = rng.normal(size=pred_init(rec.num_classes).shape)
    from annoconsist.scorer import features

    want = softmax_rows(features(rec) @ params.T)
    np.testing.assert_allclose(predict(params, rec), want)


def test_argmax_labeling_background_wins_ties():
    state = np.array([
        [0.5, 0.5, 0.0],  # tie with background -> background
        [0.2, 0.5, 0.3],
        [0.1, 0.45, 0.45],  # tie between classes -> lower class id
    ])
    np.testing.assert_array_equal(argmax_labeling(state), [0, 1, 1])


def _mc_expected_loss(state, y, cfg, n_draws, seed):
    rng = np.random.default_rng(seed)
    p, m = state.shape
    total = 0.0
    cum = state.cumsum(axis=1)
    u = rng.random(size=(n_draws, p))
    draws = (u[:, :, None] > cum[None, :, :]).sum(axis=2)
    mism = (draws != y[None, :]).sum(axis=1).astype(np.float64)
    vals = cfg.lambda_cls * mism
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_draws))


def test_expected_loss_closed_form_matches_monte_carlo():
    rng = np.random.default_rng(17)
    cfg = LossConfig(lambda_cls=1.0)
    for seed in range(3):
        state = softmax_rows(rng.normal(size=(4, 3)))
        y = rng.integers(0, 3, size=4)
        exact = expected_loss_vs_sample(state, y, cfg)
        mc, se = _mc_expected_loss(state, y, cfg, 100_000, seed)
        assert abs(exact - mc) < 3.0 * se


def test_self_diversity_closed_form_matches_monte_carlo():
    rng = np.random.default_rng(29)
    cfg = LossConfig()
    state = softmax_rows(rng.normal(size=(5, 4)))
    n = 100_000
    cum = state.cumsum(axis=1)
    u = rng.random(size=(2, n, 5))
    draws = (u[:, :, :, None] > cum[None, None, :, :]).sum(axis=3)
    vals = (draws[0] != draws[1]).sum(axis=1).astype(np.float64)
    mc = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(n))
    [exact] = div_pp(state, [0, 5], cfg)
    assert abs(exact - mc) < 3.0 * se


def test_expected_loss_agrees_with_identity_delta_on_point_masses():
    # a deterministic state makes the expectation a single delta evaluation
    state = np.zeros((2, 3))
    state[0, 1] = 1.0
    state[1, 0] = 1.0
    y = np.array([1, 2])
    cfg = LossConfig()
    want = delta_arrays(np.array([1, 0]), y, cfg)
    assert expected_loss_vs_sample(state, y, cfg) == pytest.approx(want)
    # and the self diversity of a point mass is zero
    assert div_pp(state, [0, 2], cfg) == pytest.approx([0.0])


def test_self_diversity_maximal_at_uniform():
    uniform = np.full((3, 4), 0.25)
    cfg = LossConfig()
    [top] = div_pp(uniform, [0, 3], cfg)
    assert top == pytest.approx(3 * (1 - 0.25))
    rng = np.random.default_rng(3)
    # one stack of five scenes, each scored on its own
    others = softmax_rows(rng.normal(size=(15, 4)))
    for value in div_pp(others, [0, 3, 6, 9, 12, 15], cfg):
        assert value <= top + 1e-12


def _decode_record():
    m0 = rect_mask(8, 8, 0, 4, 0, 4)
    m1 = rect_mask(8, 8, 0, 4, 0, 2)  # inside m0
    m2 = rect_mask(8, 8, 4, 8, 4, 8)  # disjoint
    return make_record([m0, m1, m2], [1, 2])


def test_decode_threshold_and_class_and_confidence():
    rec = _decode_record()
    state = np.array([
        [0.1, 0.8, 0.1],
        [0.9, 0.05, 0.05],  # below threshold
        [0.2, 0.1, 0.7],
    ])
    out = decode(state, rec, score_thresh=0.7, nms_t=0.5)
    assert [(o.proposal_index, o.class_id) for o in out] == [(0, 1), (2, 2)]
    assert out[0].confidence == pytest.approx(0.8)
    assert out[1].confidence == pytest.approx(0.7)
    # plain Python values, as infer writes them
    for o in out:
        assert type(o.proposal_index) is int and type(o.class_id) is int
        assert type(o.confidence) is float


def test_decode_nms_suppresses_same_class_only():
    rec = _decode_record()
    # m1 is fully covered by m0; same class -> suppressed
    state = np.array([
        [0.0, 0.9, 0.1],
        [0.0, 0.8, 0.2],
        [1.0, 0.0, 0.0],
    ])
    out = decode(state, rec, score_thresh=0.5, nms_t=0.5)
    assert [o.proposal_index for o in out] == [0]
    # different classes -> both kept
    state[1] = [0.0, 0.2, 0.8]
    out = decode(state, rec, score_thresh=0.5, nms_t=0.5)
    assert [(o.proposal_index, o.class_id) for o in out] == [(0, 1), (1, 2)]


def test_decode_orders_by_descending_confidence():
    rec = _decode_record()
    state = np.array([
        [0.2, 0.75, 0.05],
        [0.9, 0.05, 0.05],
        [0.05, 0.9, 0.05],
    ])
    out = decode(state, rec, score_thresh=0.5, nms_t=2.0)  # nms off
    assert [o.proposal_index for o in out] == [2, 0]
    assert out[0].confidence >= out[1].confidence


def test_decode_is_idempotent():
    rec = _decode_record()
    rng = np.random.default_rng(8)
    state = softmax_rows(rng.normal(size=(3, 3)))
    first = decode(state, rec, score_thresh=0.3, nms_t=0.5)
    kept = [o.proposal_index for o in first]
    # zero out everything the first pass dropped and decode again
    state2 = np.zeros_like(state)
    state2[:, 0] = 1.0
    for u in kept:
        state2[u] = state[u]
    second = decode(state2, rec, score_thresh=0.3, nms_t=0.5)
    assert [o.proposal_index for o in second] == kept
    assert [o.class_id for o in second] == [o.class_id for o in first]


# probability rows with ties between proposals, and between classes within
# a row (argmax takes the lower class)
_ROWS = ([0.1, 0.8, 0.1], [0.9, 0.05, 0.05], [0.2, 0.4, 0.4],
         [0.3, 0.0, 0.7], [0.0, 0.5, 0.5], [1.0, 0.0, 0.0])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 9),
       score_thresh=st.sampled_from([0.0, 0.4, 0.5, 0.7, 1.0]),
       nms_t=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
def test_decode_equals_the_numpy_scalar_loop(seed, p, score_thresh, nms_t):
    rng = np.random.default_rng(seed)
    masks = []
    for _ in range(p):
        y0, x0 = (int(v) for v in rng.integers(0, 6, 2))
        masks.append(rect_mask(8, 8, y0, int(rng.integers(y0 + 1, 9)),
                               x0, int(rng.integers(x0 + 1, 9))))
    rec = make_record(masks, [1, 2], num_classes=2)
    state = np.array([_ROWS[i] for i in rng.integers(0, len(_ROWS), p)])
    got = decode(state, rec, score_thresh, nms_t)
    want = decode_loop(state, rec, score_thresh, nms_t)
    assert [(o.proposal_index, o.class_id, o.confidence) for o in got] == [
        (o.proposal_index, o.class_id, o.confidence) for o in want]
