import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from annoconsist.disco import div_cc
from annoconsist.loss import LossConfig, cost_row, delta, label_bits

from oracles import delta_arrays, div_cc_pairs


def _delta(y1, y2, cfg):
    """delta of two label lists of one pool, packed as one stack."""
    b1, b2 = label_bits(np.array([y1, y2]))
    return delta(b1, b2, cfg)


def test_per_proposal_cost_is_scaled_mismatch_indicator():
    # Delta on one-proposal labelings is the cost of that single entry
    cfg = LossConfig()
    assert _delta([0], [0], cfg) == 0.0
    assert _delta([2], [2], cfg) == 0.0
    assert _delta([1], [2], cfg) == 1.0
    assert _delta([0], [1], cfg) == 1.0  # background miss counts fully
    cfg = LossConfig(lambda_cls=1.0)
    assert _delta([1], [0], cfg) == 1.0
    # and it is the matching entry of the cost table
    for c1 in range(3):
        for c2 in range(3):
            row = cost_row(np.array([c2]), num_classes=2, cfg=cfg)
            assert _delta([c1], [c2], cfg) == row[0, c1]


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
    same = _delta([1, 2], [1, 2], cfg)
    assert same == 0.0
    assert isinstance(same, float)
    assert _delta([1, 2], [1, 0], cfg) == 3.0
    assert _delta([2, 1], [1, 2], cfg) == 6.0


def test_label_bits_sets_one_bit_per_proposal():
    # bit u * m + y_u, with m = 3 from the stack's largest label
    assert label_bits(np.array([[0, 2], [1, 0]])) == [
        (1 << 0) | (1 << 5), (1 << 1) | (1 << 3)]
    with pytest.raises(ValueError):
        label_bits(np.array([[0, -1], [1, 0]]))


@st.composite
def _label_stack(draw):
    """(K, P) labels in 0..5 whose rows are free, copies of row 0, or
    row 0 shifted by a non-zero residue mod 6, so differing at every
    proposal."""
    k = draw(st.integers(2, 12))
    p = draw(st.integers(1, 64))
    labels = draw(arrays(np.int64, (k, p), elements=st.integers(0, 5)))
    for i in range(1, k):
        kind = draw(st.sampled_from(["free", "copy", "shift"]))
        if kind == "copy":
            labels[i] = labels[0]
        elif kind == "shift":
            labels[i] = (labels[0] + draw(st.integers(1, 5))) % 6
    return labels


@settings(max_examples=200, deadline=None)
@given(_label_stack(), st.sampled_from([0, 0.75, 1, 3]))
def test_delta_over_label_bits_is_the_scaled_mismatch_count(labels, lam):
    cfg = LossConfig(lambda_cls=lam)
    bits = label_bits(labels)
    assert len(bits) == len(labels)
    for i, y_i in enumerate(labels):
        for j, y_j in enumerate(labels):
            got = delta(bits[i], bits[j], cfg)
            want = delta_arrays(y_i, y_j, cfg)
            assert type(got) is type(want) and got == want


@settings(max_examples=200, deadline=None)
@given(_label_stack(), st.sampled_from([0, 0.75, 1, 3]))
def test_div_cc_is_bit_identical_to_the_array_pair_loop(labels, lam):
    cfg = LossConfig(lambda_cls=lam)
    got, want = div_cc(label_bits(labels), cfg), div_cc_pairs(labels, cfg)
    assert got.hex() == want.hex()


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
