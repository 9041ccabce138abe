import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from annoconsist.disco import div_cc, div_pc, div_pp
from annoconsist.loss import LossConfig
from annoconsist.prednet import softmax_rows

from conftest import make_record, rect_mask
from oracles import DiscParts, disc, div_cc_pairs, expected_loss_vs_sample


def _record(p=3):
    masks = [rect_mask(16, 16, 4 * i, 4 * i + 3, 0, 3) for i in range(p)]
    return make_record(masks, [1, 2], size=(16, 16))


def _sample_state_labels(state, n_draws, rng):
    cum = state.cumsum(axis=1)
    u = rng.random(size=(n_draws, state.shape[0]))
    return (u[:, :, None] > cum[None, :, :]).sum(axis=2)


def test_div_pc_matches_monte_carlo_over_prediction_draws():
    rng = np.random.default_rng(31)
    cfg = LossConfig()
    rec = _record()
    state = softmax_rows(rng.normal(size=(3, 3)))
    labels = rng.integers(0, 3, size=(4, 3))
    exact = div_pc(state, labels, cfg)
    n = 100_000
    draws = _sample_state_labels(state, n, rng)
    # for each prediction draw, average the identity loss over the K labels
    per_draw = np.zeros(n)
    for k in range(labels.shape[0]):
        per_draw += (draws != labels[k][None, :]).sum(axis=1)
    per_draw /= labels.shape[0]
    mc = float(per_draw.mean())
    se = float(per_draw.std(ddof=1) / np.sqrt(n))
    assert abs(exact - mc) < 3.0 * se


def test_div_pp_matches_monte_carlo_pair_draws():
    rng = np.random.default_rng(37)
    cfg = LossConfig()
    state = softmax_rows(rng.normal(size=(4, 3)))
    exact = div_pp(state, cfg)
    n = 100_000
    a = _sample_state_labels(state, n, rng)
    b = _sample_state_labels(state, n, rng)
    vals = (a != b).sum(axis=1).astype(np.float64)
    mc = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(n))
    assert abs(exact - mc) < 3.0 * se


def test_div_cc_is_unbiased_pairwise_mean():
    rec = _record()
    cfg = LossConfig()
    labels = np.array([[1, 0, 2], [1, 2, 2], [0, 0, 2]])
    assert div_cc(labels, rec, cfg) == div_cc_pairs(labels, cfg)
    # hand value: hamming distances (1,2), (1,3), (2,3) are 1, 1, 2 and
    # each unordered pair appears twice
    assert div_cc(labels, rec, cfg) == pytest.approx((1 + 1 + 2) * 2 / 6)


def test_div_cc_requires_two_samples():
    rec = _record()
    with pytest.raises(ValueError):
        div_cc(np.array([[1, 0, 2]]), rec, LossConfig())


def test_disc_zero_for_matched_deterministic_distributions():
    # point-mass prediction equal to every conditional sample: all three
    # diversity terms vanish and the difference is exactly zero
    rec = _record()
    cfg = LossConfig()
    y = np.array([1, 2, 0])
    state = np.zeros((3, 3))
    state[np.arange(3), y] = 1.0
    labels = np.stack([y, y, y])
    parts = disc(state, labels, rec, cfg, gamma=0.5)
    assert parts == DiscParts(0.0, 0.0, 0.0, 0.0)
    assert parts.disc == 0.0  # exact, not approximate


def test_disc_combines_terms_with_gamma():
    rng = np.random.default_rng(41)
    rec = _record()
    cfg = LossConfig()
    state = softmax_rows(rng.normal(size=(3, 3)))
    labels = rng.integers(0, 3, size=(5, 3))
    for gamma in (0.0, 0.3, 1.0):
        parts = disc(state, labels, rec, cfg, gamma=gamma)
        assert parts.disc == pytest.approx(
            parts.div_pc - gamma * parts.div_cc - (1 - gamma) * parts.div_pp
        )
    # the diversity terms themselves do not depend on gamma
    a = disc(state, labels, rec, cfg, gamma=0.0)
    b = disc(state, labels, rec, cfg, gamma=1.0)
    assert a.div_pc == b.div_pc and a.div_cc == b.div_cc and a.div_pp == b.div_pp


def test_div_pc_symmetric_under_sample_permutation():
    rng = np.random.default_rng(43)
    cfg = LossConfig()
    state = softmax_rows(rng.normal(size=(3, 3)))
    labels = rng.integers(0, 3, size=(4, 3))
    perm = labels[[2, 0, 3, 1]]
    assert div_pc(state, labels, cfg) == pytest.approx(div_pc(state, perm, cfg))
    rec = _record()
    assert div_cc(labels, rec, cfg) == pytest.approx(div_cc(perm, rec, cfg))


def test_identical_samples_have_zero_conditional_diversity():
    rec = _record()
    cfg = LossConfig()
    y = np.array([2, 1, 0])
    labels = np.stack([y] * 4)
    assert div_cc(labels, rec, cfg) == 0.0


@st.composite
def _state_and_label_stack(draw):
    # pools up to 140 proposals, past numpy's 8-wide unrolled and 128-long
    # pairwise summation blocks
    p = draw(st.integers(1, 140))
    m = draw(st.integers(2, 6))
    k = draw(st.integers(1, 12))
    logits = draw(arrays(np.float64, (p, m),
                         elements=st.floats(-30.0, 30.0)))
    labels = draw(arrays(np.int64, (k, p), elements=st.integers(0, m - 1)))
    return softmax_rows(logits), labels


@settings(max_examples=300, deadline=None)
@given(_state_and_label_stack(), st.sampled_from([1.0, 0.75, 2.5, 3]))
def test_div_pc_over_the_label_stack_is_bit_identical_to_a_per_draw_loop(
        state_labels, lam):
    state, labels = state_labels
    cfg = LossConfig(lambda_cls=lam)
    k = labels.shape[0]
    want = sum(expected_loss_vs_sample(state, labels[i], cfg)
               for i in range(k)) / k
    assert div_pc(state, labels, cfg) == want
