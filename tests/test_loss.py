import numpy as np
import pytest

from annoconsist.loss import LossConfig, cost_row, delta


def test_per_proposal_cost_is_scaled_mismatch_indicator():
    # Delta on one-proposal labelings is the cost of that single entry
    cfg = LossConfig()
    assert delta(np.array([0]), np.array([0]), cfg) == 0.0
    assert delta(np.array([2]), np.array([2]), cfg) == 0.0
    assert delta(np.array([1]), np.array([2]), cfg) == 1.0
    assert delta(np.array([0]), np.array([1]), cfg) == 1.0  # background miss counts fully
    cfg = LossConfig(lambda_cls=1.0)
    assert delta(np.array([1]), np.array([0]), cfg) == 1.0
    # and it is the matching entry of the cost table
    for c1 in range(3):
        for c2 in range(3):
            row = cost_row(np.array([c2]), num_classes=2, cfg=cfg)
            assert delta(np.array([c1]), np.array([c2]), cfg) == row[0, c1]


def test_cost_row_zero_on_reference_entry_everywhere_else_lambda():
    y_ref = np.array([0, 2, 1])
    row = cost_row(y_ref, num_classes=2, cfg=LossConfig(lambda_cls=6.0))
    want = np.full((3, 3), 6.0)
    want[0, 0] = 0.0
    want[1, 2] = 0.0
    want[2, 1] = 0.0
    np.testing.assert_array_equal(row, want)


def test_identity_matching_is_weighted_hamming():
    cfg = LossConfig(lambda_cls=3.0)
    same = delta(np.array([1, 2]), np.array([1, 2]), cfg)
    assert same == 0.0
    assert isinstance(same, float)
    assert delta(np.array([1, 2]), np.array([1, 0]), cfg) == pytest.approx(3.0)
    assert delta(np.array([2, 1]), np.array([1, 2]), cfg) == pytest.approx(6.0)


@pytest.mark.parametrize("lam", [0.75, 1])
def test_cost_row_over_a_label_stack_matches_each_labeling(lam):
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 4, size=(5, 7))
    cfg = LossConfig(lambda_cls=lam)
    stack = cost_row(labels, num_classes=3, cfg=cfg)
    assert stack.shape == (5, 7, 4) and stack.dtype == np.float64
    for k in range(5):
        want = np.full((7, 4), lam, dtype=np.float64)
        want[np.arange(7), labels[k]] = 0.0
        assert stack[k].tobytes() == want.tobytes()
        assert cost_row(labels[k], 3, cfg).tobytes() == want.tobytes()
