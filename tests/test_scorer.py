import numpy as np
import pytest

from annoconsist.scorer import (
    NOISE_DIM,
    CondParams,
    axpy,
    cond_init,
    draw_noise,
    feature_dim,
    features,
    score_from_input,
    score_vjp,
    scorer_input,
)

from conftest import make_record, rect_mask


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
    params = cond_init(rec.num_classes)
    z = draw_noise(0, rec.scene_id, 0)
    np.testing.assert_array_equal(
        score_from_input(params, scorer_input(rec, z)), 0.0)


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_score_vjp_matches_finite_differences(kind):
    rng = np.random.default_rng(31)
    rec = _record()
    params = cond_init(rec.num_classes, kind=kind, rng=rng)
    for name, arr in params.arrays().items():
        arr += rng.normal(0.0, 0.3, size=arr.shape)
    z = draw_noise(3, rec.scene_id, 1)
    x = scorer_input(rec, z)
    q = rng.normal(size=(3, rec.num_classes + 1))

    def loss(p):
        return float(np.sum(q * score_from_input(p, x)))

    grad = score_vjp(params, x, q)
    h = 1e-6
    for name, arr in params.arrays().items():
        g = grad.arrays()[name]
        it = np.nditer(arr, flags=["multi_index"])
        checked = 0
        for _ in it:
            idx = it.multi_index
            pert = params.copy()
            pert.arrays()[name][idx] += h
            up = loss(pert)
            pert.arrays()[name][idx] -= 2 * h
            dn = loss(pert)
            fd = (up - dn) / (2 * h)
            assert abs(fd - g[idx]) <= 1e-4 * max(1.0, abs(fd))
            checked += 1
            if checked >= 40:  # spot-check large arrays
                break


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_score_grad_picks_single_entry(kind):
    # the gradient of the single entry F[u, c], in closed form
    rng = np.random.default_rng(33)
    rec = _record()
    params = cond_init(rec.num_classes, kind=kind, rng=rng)
    for _, arr in params.arrays().items():
        arr += rng.normal(0.0, 0.2, size=arr.shape)
    x = scorer_input(rec, draw_noise(1, rec.scene_id, 0))
    u, c = 1, 2
    q = np.zeros((3, rec.num_classes + 1))
    q[u, c] = 1.0
    grad = score_vjp(params, x, q)
    if kind == "linear":
        want = np.zeros_like(params.w)
        want[c] = x[u]
        np.testing.assert_allclose(grad.w, want)
        return
    h = np.tanh(params.w1 @ x[u])
    want_w2 = np.zeros_like(params.w2)
    want_w2[c] = h
    np.testing.assert_allclose(grad.w2, want_w2)
    np.testing.assert_allclose(
        grad.w1, np.outer(params.w2[c] * (1.0 - h * h), x[u]))


def test_draw_noise_deterministic_and_uniform_range():
    a = draw_noise(5, 7, 2, extra=9)
    b = draw_noise(5, 7, 2, extra=9)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (NOISE_DIM,)
    assert (a >= 0.0).all() and (a < 1.0).all()
    # every component of the key matters
    assert not np.array_equal(a, draw_noise(6, 7, 2, extra=9))
    assert not np.array_equal(a, draw_noise(5, 8, 2, extra=9))
    assert not np.array_equal(a, draw_noise(5, 7, 3, extra=9))
    assert not np.array_equal(a, draw_noise(5, 7, 2, extra=10))


def test_axpy_accumulates_in_place():
    a = CondParams(kind="linear", w=np.ones((2, 3)))
    b = CondParams(kind="linear", w=np.full((2, 3), 2.0))
    axpy(a, b, 0.5)
    np.testing.assert_allclose(a.w, 2.0)


def test_cond_init_mlp_needs_rng_symmetry_break():
    p = cond_init(3, kind="mlp", rng=np.random.default_rng(0))
    assert p.w1.std() > 0.0
    np.testing.assert_array_equal(p.w2, 0.0)


def test_unknown_scorer_kind_rejected():
    with pytest.raises(ValueError):
        cond_init(3, kind="rbf")
