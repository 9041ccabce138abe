from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from annoconsist.disco import div_cc, div_pc, div_pp
from annoconsist.loss import LossConfig, label_bits
from annoconsist.prednet import candidates, nms, softmax_rows

from oracles import (DiscParts, decode_loop, disc, div_cc_pairs,
                     div_pc_scene, div_pp_scene, expected_loss_vs_sample)


def _one(state):
    """The bounds of a one-scene stack."""
    return [0, len(state)]


def _sample_state_labels(state, n_draws, rng):
    cum = state.cumsum(axis=1)
    u = rng.random(size=(n_draws, state.shape[0]))
    return (u[:, :, None] > cum[None, :, :]).sum(axis=2)


def test_div_pc_matches_monte_carlo_over_prediction_draws():
    rng = np.random.default_rng(31)
    cfg = LossConfig()
    state = softmax_rows(rng.normal(size=(3, 3)))
    labels = rng.integers(0, 3, size=(4, 3))
    [exact] = div_pc(state, labels, _one(state), cfg)
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
    [exact] = div_pp(state, _one(state), cfg)
    n = 100_000
    a = _sample_state_labels(state, n, rng)
    b = _sample_state_labels(state, n, rng)
    vals = (a != b).sum(axis=1).astype(np.float64)
    mc = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(n))
    assert abs(exact - mc) < 3.0 * se


def test_div_cc_is_unbiased_pairwise_mean():
    cfg = LossConfig()
    labels = np.array([[1, 0, 2], [1, 2, 2], [0, 0, 2]])
    bits = label_bits(labels)
    assert div_cc(bits, cfg) == div_cc_pairs(labels, cfg)
    # hand value: hamming distances (1,2), (1,3), (2,3) are 1, 1, 2 and
    # each unordered pair appears twice
    assert div_cc(bits, cfg) == pytest.approx((1 + 1 + 2) * 2 / 6)


def test_div_cc_requires_two_samples():
    with pytest.raises(ValueError):
        div_cc(label_bits(np.array([[1, 0, 2]])), LossConfig())


def test_disc_zero_for_matched_deterministic_distributions():
    # point-mass prediction equal to every conditional sample: all three
    # diversity terms vanish and the difference is exactly zero
    cfg = LossConfig()
    y = np.array([1, 2, 0])
    state = np.zeros((3, 3))
    state[np.arange(3), y] = 1.0
    labels = np.stack([y, y, y])
    parts = disc(state, labels, cfg, gamma=0.5)
    assert parts == DiscParts(0.0, 0.0, 0.0, 0.0)
    assert parts.disc == 0.0  # exact, not approximate


def test_disc_combines_terms_with_gamma():
    rng = np.random.default_rng(41)
    cfg = LossConfig()
    state = softmax_rows(rng.normal(size=(3, 3)))
    labels = rng.integers(0, 3, size=(5, 3))
    for gamma in (0.0, 0.3, 1.0):
        parts = disc(state, labels, cfg, gamma=gamma)
        assert parts.disc == pytest.approx(
            parts.div_pc - gamma * parts.div_cc - (1 - gamma) * parts.div_pp
        )
    # the diversity terms themselves do not depend on gamma
    a = disc(state, labels, cfg, gamma=0.0)
    b = disc(state, labels, cfg, gamma=1.0)
    assert a.div_pc == b.div_pc and a.div_cc == b.div_cc and a.div_pp == b.div_pp


def test_div_pc_symmetric_under_sample_permutation():
    rng = np.random.default_rng(43)
    cfg = LossConfig()
    state = softmax_rows(rng.normal(size=(3, 3)))
    labels = rng.integers(0, 3, size=(4, 3))
    perm = labels[[2, 0, 3, 1]]
    assert div_pc(state, labels, _one(state), cfg) == pytest.approx(
        div_pc(state, perm, _one(state), cfg))
    assert div_cc(label_bits(labels), cfg) == pytest.approx(
        div_cc(label_bits(perm), cfg))


def test_identical_samples_have_zero_conditional_diversity():
    cfg = LossConfig()
    y = np.array([2, 1, 0])
    labels = np.stack([y] * 4)
    assert div_cc(label_bits(labels), cfg) == 0.0


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
    assert div_pc_scene(state, labels, cfg) == want
    assert div_pc(state, labels, _one(state), cfg) == [want]


@st.composite
def _scene_stack(draw):
    """A stack of 1-6 scenes with one class count, of 1-24 proposals or
    of 120-140 (past numpy's 8-wide unrolled and 128-long pairwise
    summation blocks), a non-empty subset of them used in order, and each
    used scene's (K, P) labels and (P, P) overlap table. Logits and
    overlaps come from small sets, so confidences tie and sit exactly on
    the thresholds."""
    m = draw(st.integers(2, 5))
    k = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 24) | st.integers(120, 140),
                          min_size=1, max_size=6))
    used = sorted(draw(st.sets(st.integers(0, len(sizes) - 1), min_size=1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.choice([-30.0, -1.0, 0.0, 0.5, 1.0, 30.0], (sum(sizes), m))
    labels = [rng.integers(0, m, (k, sizes[i])) for i in used]
    ovls = [rng.choice([0.0, 0.25, 0.5, 1.0], (sizes[i], sizes[i]))
            for i in used]
    return softmax_rows(logits), sizes, used, labels, ovls


def _scene(ovl):
    """What decode_loop reads of a scene: its geometry's overlap table and
    a pool for its instances to carry."""
    geom = SimpleNamespace(ovl=ovl)
    return SimpleNamespace(pool=np.zeros((len(ovl), 1, 1), dtype=bool),
                           geometry=lambda: geom)


@settings(max_examples=300, deadline=None)
@given(_scene_stack(), st.sampled_from([0.75, 1.0, 3.0]),
       st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.0, 0.5, 1.0]))
def test_stacked_terms_and_candidate_step_equal_the_per_scene_oracles(
        stack, lam, score_thresh, nms_t):
    # the used scenes' rows gathered into one stack, as a log row does:
    # div_pc, div_pp and decode's candidate step over the stack, reduced
    # per scene, equal each scene computed alone, bit for bit
    state, sizes, used, labels, ovls = stack
    cfg = LossConfig(lambda_cls=lam)
    starts = np.cumsum([0] + sizes).tolist()
    rows = np.concatenate([np.arange(starts[i], starts[i + 1]) for i in used])
    sub = state[rows]
    bounds = np.cumsum([0] + [sizes[i] for i in used]).tolist()
    pcs = div_pc(sub, np.concatenate(labels, axis=1), bounds, cfg)
    pps = div_pp(sub, bounds, cfg)
    conf, cls, keep = candidates(sub, score_thresh)
    assert len(pcs) == len(pps) == len(used)
    for j, (i, y, ovl) in enumerate(zip(used, labels, ovls)):
        own = state[starts[i]:starts[i + 1]]
        a, b = bounds[j], bounds[j + 1]
        assert pcs[j].hex() == div_pc_scene(own, y, cfg).hex()
        assert pps[j].hex() == div_pp_scene(own, cfg).hex()
        scene = _scene(ovl)
        got = nms(conf[a:b], cls[a:b], keep[a:b], scene.geometry(), nms_t)
        want = decode_loop(own, scene, score_thresh, nms_t)
        assert [(d.proposal_index, d.class_id, d.confidence.hex())
                for d in got] == [(d.proposal_index, d.class_id,
                                   d.confidence.hex()) for d in want]
        assert all(type(d.confidence) is float for d in got)
