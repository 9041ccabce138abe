import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annoconsist.adjacency import build_adjacency

from conftest import rect_mask
from oracles import edge_weight, num_edges


def test_abutting_rectangles_edge_weight_hand_case():
    # A fills cols 0..3, B cols 4..7, rows 2..5. With dilation 1 the contact
    # band is col 4 (dilate(A) into B) plus col 3 (dilate(B) into A), rows
    # 2..5. Edge map: 1.0 on col 3, 0.5 on col 4 -> I = 4*1 + 4*0.5 = 6.0.
    a = rect_mask(8, 8, 2, 6, 0, 4)
    b = rect_mask(8, 8, 2, 6, 4, 8)
    edges = np.zeros((8, 8), dtype=np.float32)
    edges[2:6, 3] = 1.0
    edges[2:6, 4] = 0.5
    adj = build_adjacency(np.stack([a, b]), edges)
    assert num_edges(adj) == 1
    assert edge_weight(adj, 0, 1) == pytest.approx(6.0)
    assert edge_weight(adj, 1, 0) == pytest.approx(6.0)


def test_weights_are_raw_sums_not_normalized():
    # doubling the contact length doubles I
    a_short = rect_mask(10, 10, 4, 6, 0, 5)
    b_short = rect_mask(10, 10, 4, 6, 5, 10)
    a_long = rect_mask(10, 10, 2, 6, 0, 5)
    b_long = rect_mask(10, 10, 2, 6, 5, 10)
    edges = np.ones((10, 10), dtype=np.float32)
    w_short = edge_weight(build_adjacency(np.stack([a_short, b_short]), edges), 0, 1)
    w_long = edge_weight(build_adjacency(np.stack([a_long, b_long]), edges), 0, 1)
    assert w_long == pytest.approx(2.0 * w_short)


def test_gap_of_two_is_not_adjacent_at_dilation_one():
    a = rect_mask(8, 8, 2, 6, 0, 3)  # cols 0..2
    b = rect_mask(8, 8, 2, 6, 4, 7)  # cols 4..6, gap col 3
    edges = np.zeros((8, 8), dtype=np.float32)
    adj1 = build_adjacency(np.stack([a, b]), edges, dilation=1)
    assert num_edges(adj1) == 0
    with pytest.raises(KeyError):
        edge_weight(adj1, 0, 1)
    adj2 = build_adjacency(np.stack([a, b]), edges, dilation=2)
    assert num_edges(adj2) == 1


def test_directed_arrays_list_each_pair_twice():
    a = rect_mask(6, 6, 1, 5, 0, 3)
    b = rect_mask(6, 6, 1, 5, 3, 6)
    c = rect_mask(6, 6, 1, 5, 0, 6)  # touches both
    adj = build_adjacency(np.stack([a, b, c]), np.zeros((6, 6), dtype=np.float32))
    assert num_edges(adj) == 3
    assert len(adj.edge_u) == 6
    pairs = set(zip(adj.edge_u.tolist(), adj.edge_v.tolist()))
    assert (0, 1) in pairs and (1, 0) in pairs
    assert (0, 2) in pairs and (2, 0) in pairs
    assert (1, 2) in pairs and (2, 1) in pairs
    assert all(u != v for u, v in pairs)


def test_overlapping_masks_are_neighbors():
    a = rect_mask(8, 8, 1, 5, 1, 5)
    b = rect_mask(8, 8, 3, 7, 3, 7)
    adj = build_adjacency(np.stack([a, b]), np.zeros((8, 8), dtype=np.float32))
    assert num_edges(adj) == 1


def test_neighbor_lists_are_symmetric():
    rng = np.random.default_rng(5)
    masks = []
    while len(masks) < 6:
        y, x = rng.integers(0, 8, size=2)
        m = rect_mask(12, 12, int(y), int(y) + 4, int(x), int(x) + 4)
        masks.append(m)
    adj = build_adjacency(np.stack(masks), np.zeros((12, 12), dtype=np.float32))
    assert num_edges(adj) > 0
    pairs = list(zip(adj.edge_u.tolist(), adj.edge_v.tolist()))
    assert len(set(pairs)) == len(pairs)
    for u, v in pairs:
        assert (v, u) in pairs
        assert edge_weight(adj, u, v) == edge_weight(adj, v, u)


def _assert_same_graph(got, want):
    for name in ("edge_u", "edge_v", "edge_w"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@st.composite
def _pools(draw):
    h = w = 12
    n = draw(st.integers(0, 7))
    masks = []
    for _ in range(n):
        y0 = draw(st.integers(0, h - 2))
        x0 = draw(st.integers(0, w - 2))
        masks.append(rect_mask(h, w, y0, draw(st.integers(y0 + 1, h)),
                               x0, draw(st.integers(x0 + 1, w))))
    pool = np.zeros((0, h, w), dtype=bool) if n == 0 else np.stack(masks)
    seed = draw(st.integers(0, 2**32 - 1))
    edges = np.random.default_rng(seed).random((h, w)).astype(np.float32)
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return pool, edges, np.flatnonzero(np.array(keep, dtype=bool))


@settings(max_examples=150, deadline=None)
@given(_pools(), st.sampled_from([1, 2]))
def test_restrict_equals_build_on_the_sub_pool_bitwise(case, dilation):
    pool, edges, keep = case
    full = build_adjacency(pool, edges, dilation=dilation)
    for sub in (keep, np.arange(0), np.arange(pool.shape[0])):
        _assert_same_graph(full.restrict(sub),
                           build_adjacency(pool[sub], edges, dilation=dilation))
