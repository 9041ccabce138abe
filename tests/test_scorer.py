import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annoconsist.prednet import pred_init
from annoconsist.scorer import (
    cond_init,
    draw_noise,
    feature_dim,
    features,
    score_from_input,
    score_vjp,
)
from annoconsist.train import TrainConfig, load_checkpoint, save_checkpoint

from conftest import make_record, rect_mask
from oracles import scorer_input, uniform_noise

NOISE_DIM = TrainConfig().noise_dim


def _record():
    rng = np.random.default_rng(21)
    masks = [rect_mask(16, 16, 2, 8, 2, 8), rect_mask(16, 16, 6, 12, 6, 12),
             rect_mask(16, 16, 10, 15, 1, 6)]
    edges = rng.random((16, 16)).astype(np.float32)
    image = rng.random((16, 16, 3)).astype(np.float32)
    return make_record(masks, [1, 2], edges=edges, image=image)


def test_feature_matrix_shape_and_bias():
    rec = _record()
    f = features(rec)
    assert f.shape == (3, feature_dim(rec.num_classes))
    np.testing.assert_allclose(f[:, -1], 1.0)
    assert features(rec) is f  # cached on the record


def test_feature_values_match_direct_computation():
    rec = _record()
    f = features(rec)
    m = rec.pool[0]
    assert f[0, 0] == pytest.approx(m.sum() / (16 * 16))
    ys, xs = np.nonzero(m)
    assert f[0, 1] == pytest.approx(xs.mean() / 16)
    assert f[0, 2] == pytest.approx(ys.mean() / 16)
    np.testing.assert_allclose(f[0, 3:6], rec.image[m].mean(axis=0), atol=1e-6)


def test_scorer_input_appends_shared_noise_row():
    rec = _record()
    z = np.arange(NOISE_DIM, dtype=np.float64) / 10.0
    x = scorer_input(rec, z)
    assert x.shape == (3, feature_dim(rec.num_classes) + NOISE_DIM)
    for u in range(3):
        np.testing.assert_array_equal(x[u, -NOISE_DIM:], z)


def test_linear_scorer_zero_init_scores_zero():
    rec = _record()
    params = cond_init(rec.num_classes, NOISE_DIM)
    z = draw_noise(0, rec.scene_id, 0, 0, NOISE_DIM)
    np.testing.assert_array_equal(
        score_from_input(params, scorer_input(rec, z)), 0.0)


def test_score_vjp_matches_finite_differences():
    rng = np.random.default_rng(31)
    rec = _record()
    params = cond_init(rec.num_classes, NOISE_DIM)
    params += rng.normal(0.0, 0.3, size=params.shape)
    z = draw_noise(3, rec.scene_id, 1, 0, NOISE_DIM)
    x = scorer_input(rec, z)
    q = rng.normal(size=(3, rec.num_classes + 1))

    def loss(p):
        return float(np.sum(q * score_from_input(p, x)))

    grad = score_vjp(x, q)
    h = 1e-6
    it = np.nditer(params, flags=["multi_index"])
    checked = 0
    for _ in it:
        idx = it.multi_index
        pert = params.copy()
        pert[idx] += h
        up = loss(pert)
        pert[idx] -= 2 * h
        dn = loss(pert)
        fd = (up - dn) / (2 * h)
        assert abs(fd - grad[idx]) <= 1e-4 * max(1.0, abs(fd))
        checked += 1
        if checked >= 40:  # spot-check large arrays
            break


def test_score_grad_picks_single_entry():
    # the gradient of the single entry F[u, c], in closed form
    rng = np.random.default_rng(33)
    rec = _record()
    params = cond_init(rec.num_classes, NOISE_DIM)
    params += rng.normal(0.0, 0.2, size=params.shape)
    x = scorer_input(rec, draw_noise(1, rec.scene_id, 0, 0, NOISE_DIM))
    u, c = 1, 2
    q = np.zeros((3, rec.num_classes + 1))
    q[u, c] = 1.0
    grad = score_vjp(x, q)
    want = np.zeros_like(params)
    want[c] = x[u]
    np.testing.assert_allclose(grad, want)


def test_draw_noise_deterministic_and_uniform_range():
    a = draw_noise(5, 7, 2, 9, NOISE_DIM)
    b = draw_noise(5, 7, 2, 9, NOISE_DIM)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (NOISE_DIM,)
    assert (a >= 0.0).all() and (a < 1.0).all()
    # every component of the key matters
    assert not np.array_equal(a, draw_noise(6, 7, 2, 9, NOISE_DIM))
    assert not np.array_equal(a, draw_noise(5, 8, 2, 9, NOISE_DIM))
    assert not np.array_equal(a, draw_noise(5, 7, 3, 9, NOISE_DIM))
    assert not np.array_equal(a, draw_noise(5, 7, 2, 10, NOISE_DIM))


# the ints where SeedSequence's split into 32-bit words changes length
_WORD_EDGES = (0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 1)
_keys = st.one_of(st.sampled_from(_WORD_EDGES), st.integers(0, 2**70))


@settings(max_examples=150, deadline=None)
@given(_keys, st.lists(_keys, min_size=1, max_size=4), st.integers(1, 5),
       st.lists(st.integers(0, 2**40), min_size=1, max_size=3),
       st.integers(0, 33))
def test_draw_noise_is_bit_identical_to_uniform(seed, ids, k, tags, dim):
    # ids (S, 1, 1), draws (1, K, 1) and tags (T,) broadcast to (S, K, T)
    got = draw_noise(seed, np.array(ids, dtype=object)[:, None, None],
                     np.arange(k)[:, None], np.array(tags), dim=dim)
    assert got.dtype == np.float64 and got.shape == (len(ids), k, len(tags),
                                                     dim)
    for (i, s), j, (t, tag) in itertools.product(enumerate(ids), range(k),
                                                 enumerate(tags)):
        want = uniform_noise(seed, s, j, tag, dim)
        assert got[i, j, t].tobytes() == want.tobytes()
    # a scalar key is the broadcast shape ()
    one = draw_noise(seed, ids[0], 0, tags[0], dim=dim)
    assert one.shape == (dim,)
    assert one.tobytes() == got[0, 0, 0].tobytes()


@pytest.mark.parametrize("dim", [0, 33])
def test_draw_noise_at_the_entropy_word_edges(dim):
    # every pair of word edges for seed and scene id, in one call per seed,
    # with the ids as one integer array and the other keys mixed in
    ids = np.array(_WORD_EDGES, dtype=object)
    for seed in _WORD_EDGES:
        got = draw_noise(seed, ids[:, None], [0, 2**32], 7, dim=dim)
        assert got.shape == (len(ids), 2, dim)
        for (i, s), (j, k) in itertools.product(enumerate(_WORD_EDGES),
                                                enumerate([0, 2**32])):
            want = uniform_noise(seed, s, k, 7, dim)
            assert got[i, j].tobytes() == want.tobytes()


def test_draw_noise_integer_arrays_match_exact_ints():
    # int64 and uint64 arrays give the words the same ints give as objects
    small = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]
    want = draw_noise(3, np.array(small, dtype=object), 5, 9, NOISE_DIM)
    for dtype in (np.int64, np.uint64):
        got = draw_noise(3, np.array(small, dtype=dtype), 5, 9, NOISE_DIM)
        assert got.tobytes() == want.tobytes()
    big = np.array([2**63, 2**64 - 1], dtype=np.uint64)
    assert draw_noise(3, big, 5, 9, NOISE_DIM).tobytes() == draw_noise(
        3, np.array([2**63, 2**64 - 1], dtype=object), 5, 9,
        NOISE_DIM).tobytes()


def test_draw_noise_of_a_shorter_width_is_a_prefix():
    wide = draw_noise(11, np.arange(3)[:, None], np.arange(4), 0x7E57, dim=33)
    for d in range(34):
        narrow = draw_noise(11, np.arange(3)[:, None], np.arange(4), 0x7E57,
                            dim=d)
        assert narrow.tobytes() == wide[..., :d].tobytes()


@pytest.mark.parametrize("pos", range(4))
def test_draw_noise_rejects_negative_and_non_integer_keys(pos):
    def call(bad):
        args = [1, 2, 3, 4]
        args[pos] = bad
        return draw_noise(*args, dim=NOISE_DIM)

    for bad in (-1, -2**70, np.array([3, -1]), np.array([3, -1], dtype=object)):
        with pytest.raises(ValueError, match="non-negative"):
            call(bad)
    for bad in (True, 1.5, "7", np.array([1.0]), np.array([True]),
                np.array([1, 2.5], dtype=object)):
        with pytest.raises(TypeError):
            call(bad)
    with pytest.raises(ValueError, match="dim"):
        draw_noise(1, 2, 3, 4, dim=-1)


def test_draw_noise_of_no_keys_is_empty():
    assert draw_noise(0, np.zeros((0, 3), dtype=np.int64), 1, 0,
                      NOISE_DIM).shape == (0, 3, NOISE_DIM)
    assert draw_noise(0, np.array([], dtype=object), 1, 0,
                      dim=2).shape == (0, 2)


def test_unknown_scorer_kind_rejected(tmp_path):
    # the scorer is linear; a checkpoint of any other kind does not load
    path = tmp_path / "ckpt.json"
    save_checkpoint(str(path), cond_init(3, NOISE_DIM), pred_init(3))
    obj = json.loads(path.read_text())
    for kind in ("mlp", "rbf"):
        obj["cond"]["kind"] = kind
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="scorer kind"):
            load_checkpoint(str(path))
