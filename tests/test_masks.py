import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from annoconsist.masks import (
    box_iou,
    dilate,
    erode,
    inner_boundary,
    intersection_counts,
    iou_table,
    overlap_fraction_matrix,
)

from conftest import rect_mask
from oracles import (mask_area, mask_iou, overlap_fraction, rle_decode,
                     rle_encode, tight_box)
from oracles import box_iou as scalar_box_iou


def test_iou_table_hand_cases():
    a = rect_mask(8, 8, 2, 4, 2, 4)
    b = rect_mask(8, 8, 5, 7, 5, 7)
    # 2x2 square against itself shifted one column: inter 2, union 6
    c = rect_mask(8, 8, 2, 4, 3, 5)
    table = iou_table(np.stack([a, b]), np.stack([a, b, c]))
    assert table.tolist() == [[1.0, 0.0, 2.0 / 6.0], [0.0, 1.0, 0.0]]


def test_iou_table_of_empty_masks_is_zero():
    e = np.zeros((1, 4, 4), dtype=bool)
    assert iou_table(e, e).tolist() == [[0.0]]
    assert iou_table(e, np.zeros((0, 4, 4), dtype=bool)).shape == (1, 0)


@given(st.integers(0, 2**32 - 1), st.integers(0, 5), st.integers(0, 5),
       st.sampled_from([0.0, 0.1, 0.4, 0.9]))
def test_iou_table_is_bit_equal_to_mask_iou(seed, n_a, n_b, density):
    rng = np.random.default_rng(seed)
    a = rng.random((n_a, 9, 7)) < density
    b = rng.random((n_b, 9, 7)) < density
    table = iou_table(a, b)
    assert table.shape == (n_a, n_b)
    for i in range(n_a):
        for j in range(n_b):
            assert table[i, j] == mask_iou(a[i], b[j])
            assert mask_iou(a[i], b[j]) == mask_iou(b[j], a[i])


def test_overlap_fraction_is_directional():
    big = rect_mask(8, 8, 0, 4, 0, 4)
    small = rect_mask(8, 8, 0, 2, 0, 2)
    assert overlap_fraction(big, small) == 1.0
    assert overlap_fraction(small, big) == pytest.approx(4.0 / 16.0)


def test_overlap_fraction_empty_reference_raises():
    a = rect_mask(4, 4, 0, 2, 0, 2)
    with pytest.raises(ValueError):
        overlap_fraction(a, np.zeros((4, 4), dtype=bool))


def test_tight_box_and_iou():
    m = rect_mask(10, 10, 2, 5, 3, 9)
    b = tight_box(m)
    assert b.dtype == np.int64
    assert b.tolist() == [3, 2, 8, 4]
    assert box_iou(b[None], b[None]).tolist() == [[1.0]]
    # 3x3 boxes offset by one: inter 2x2 = 4, union 9 + 9 - 4 = 14
    iou = box_iou(np.array([[0, 0, 2, 2]]), np.array([[1, 1, 3, 3], [3, 0, 5, 2]]))
    assert iou.tolist() == [[4.0 / 14.0, 0.0]]


def _box(x0, y0, w, h):
    return (x0, y0, x0 + w - 1, y0 + h - 1)


# one-pixel, identical, nested, corner-sharing, touching and disjoint boxes
HAND_BOXES = [(0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 3, 3), (1, 1, 2, 2),
              (3, 3, 5, 5), (4, 0, 6, 3), (9, 9, 9, 9)]
# a coarse grid makes those relations common; wide boxes test exactness
_coord = st.integers(0, 6) | st.integers(0, 5000)
_side = st.integers(1, 4) | st.integers(1, 5000)
_boxes = st.lists(st.builds(_box, _coord, _coord, _side, _side), max_size=6)


@given(_boxes, _boxes)
def test_box_iou_matrix_equals_the_scalar_oracle_bitwise(a, b):
    a = np.array(HAND_BOXES + a, dtype=np.int64)
    b = np.array(b, dtype=np.int64).reshape(-1, 4)
    got = box_iou(a, b)
    want = np.array([[scalar_box_iou(x, y) for y in b] for x in a],
                    dtype=np.float64).reshape(len(a), len(b))
    assert got.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_tight_box_empty_raises():
    with pytest.raises(ValueError):
        tight_box(np.zeros((4, 4), dtype=bool))


def test_dilate_single_pixel_grows_8_connected():
    m = np.zeros((5, 5), dtype=bool)
    m[2, 2] = True
    d = dilate(m)
    assert mask_area(d) == 9
    assert d[1:4, 1:4].all()


def test_erode_inverts_dilate_on_blocks():
    m = rect_mask(7, 7, 2, 5, 2, 5)
    assert np.array_equal(erode(m), rect_mask(7, 7, 3, 4, 3, 4))


def test_erode_removes_border_pixels():
    m = np.ones((5, 5), dtype=bool)
    e = erode(m)
    assert not e[0].any() and not e[-1].any()
    assert not e[:, 0].any() and not e[:, -1].any()
    assert e[1:4, 1:4].all()


def test_inner_boundary_of_block_is_ring():
    m = rect_mask(7, 7, 2, 5, 2, 5)
    ring = inner_boundary(m)
    assert mask_area(ring) == 8
    assert not ring[3, 3]


def test_rle_roundtrip_random_masks():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = rng.random((9, 13)) < rng.uniform(0.1, 0.9)
        rle = rle_encode(m)
        assert sum(rle["counts"]) == m.size
        assert np.array_equal(rle_decode(rle), m)


def test_rle_first_count_is_zeros_run():
    m = np.zeros((3, 3), dtype=bool)
    m[0, 0] = True
    assert rle_encode(m)["counts"][0] == 0
    full = np.ones((2, 2), dtype=bool)
    assert rle_encode(full)["counts"] == [0, 4]


def test_rle_decode_rejects_bad_length():
    with pytest.raises(ValueError):
        rle_decode({"size": [4, 4], "counts": [0, 3]})


def test_intersection_counts_matches_loop():
    rng = np.random.default_rng(7)
    masks = [rng.random((8, 8)) < 0.5 for _ in range(6)]
    pool = np.stack(masks)
    counts = intersection_counts(pool, pool[:4])
    assert counts.shape == (6, 4)
    for i in range(6):
        for j in range(4):
            assert counts[i, j] == np.count_nonzero(masks[i] & masks[j])


def test_overlap_fraction_matrix_matches_pairwise():
    rng = np.random.default_rng(13)
    masks = []
    while len(masks) < 5:
        m = rng.random((8, 8)) < 0.5
        if m.any():
            masks.append(m)
    pool = np.stack(masks)
    ovl = overlap_fraction_matrix(pool)
    for i in range(5):
        for j in range(5):
            assert ovl[i, j] == pytest.approx(overlap_fraction(masks[i], masks[j]))


def test_overlap_fraction_matrix_rejects_empty_mask():
    pool = np.stack([rect_mask(4, 4, 0, 2, 0, 2), np.zeros((4, 4), dtype=bool)])
    with pytest.raises(ValueError):
        overlap_fraction_matrix(pool)
