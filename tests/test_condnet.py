import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annoconsist import condnet, kernels
from annoconsist.condnet import (
    InferenceConfig,
    InferenceError,
    forward_scores,
    greedy_infer,
    higher_order_feasible,
    refine_backward,
    refine_stack,
    sample_k,
)
from annoconsist.scorer import (cond_init, feature_dim, features,
                                score_from_input)

from conftest import make_record, rect_mask
from oracles import (assert_per_draw_close, box_iou, edge_weight, exact_infer,
                     num_edges, pairwise_refine, per_draw_forward,
                     scene_noise, total_score)


def _two_neighbor_record(edges=None):
    # abutting rectangles: contact band is cols 3 and 4, rows 2..5
    a = rect_mask(8, 8, 2, 6, 0, 4)
    b = rect_mask(8, 8, 2, 6, 4, 8)
    return make_record([a, b], [1], edges=edges)


def test_refine_two_neighbor_hand_iteration_is_exact():
    # zero edge map -> I = 0 -> pair weight exp(0) = 1. Both scores start
    # at 1.0, so the gap is 0 and each iteration adds 1 / (0 + 0.1) = 10
    # to both rows: 1 -> 11 -> 21 -> 31, exactly.
    rec = _two_neighbor_record()
    assert num_edges(rec.adjacency) == 1
    f = np.ones((2, 2))
    cfg = InferenceConfig(delta=0.1, n_iters=3)
    stack = refine_stack(f, rec.adjacency, cfg)
    assert stack.shape == (4, 2, 2)
    assert (stack[0] == 1.0).all()
    assert (stack[1] == 11.0).all()
    assert (stack[2] == 21.0).all()
    assert (stack[3] == 31.0).all()
    np.testing.assert_array_equal(pairwise_refine(f, rec.adjacency, cfg), stack[3])


def test_strong_edge_gates_refinement_to_nothing():
    # the 8-pixel contact band carries edge value 6.25 everywhere, so
    # I = 50 and the pair weight collapses to exp(-50). Three iterations
    # can then move any entry by strictly less than 3 * exp(-50) / delta.
    edges = np.zeros((8, 8), dtype=np.float32)
    edges[2:6, 3] = 6.25
    edges[2:6, 4] = 6.25
    rec = _two_neighbor_record(edges=edges)
    assert edge_weight(rec.adjacency, 0, 1) == pytest.approx(50.0)
    f = np.array([[1.0, 0.3], [0.2, 0.9]])
    cfg = InferenceConfig(delta=0.1, n_iters=3)
    out = pairwise_refine(f, rec.adjacency, cfg)
    # the per-iteration flow exp(-50) / delta is ~2e-21: far below the
    # bound and below double resolution next to entries of order one
    assert np.abs(out - f).max() < 3.0 * np.exp(-50.0) / cfg.delta


def test_refine_without_neighbors_is_identity():
    a = rect_mask(10, 10, 1, 4, 1, 4)
    b = rect_mask(10, 10, 6, 9, 6, 9)  # far apart, no contact
    rec = make_record([a, b], [1])
    assert num_edges(rec.adjacency) == 0
    cfg = InferenceConfig(delta=0.1, n_iters=3)
    rng = np.random.default_rng(4)
    # two tables, and signed zeros, which an added 0.0 would turn
    # positive: every iterate and the adjoint equal their input bit for
    # bit, and the adjoint is a fresh array
    for f in (np.array([[2.0, -1.0], [0.5, 3.0]]), rng.normal(size=(2, 4)),
              np.array([[-0.0, 0.0], [0.0, -0.0]])):
        stack = refine_stack(f, rec.adjacency, cfg)
        assert stack.shape == (cfg.n_iters + 1,) + f.shape
        for i in range(stack.shape[0]):
            assert stack[i].tobytes() == f.tobytes()
        for q in (-f, rng.normal(size=f.shape)):
            got = refine_backward(stack, rec.adjacency, cfg, q)
            assert got.dtype == np.float64 and got.tobytes() == q.tobytes()
            assert not np.shares_memory(got, q)


def test_refine_backward_matches_finite_differences_through_adjacency():
    # chain of three touching rectangles with a nonuniform edge map, so the
    # pair weights exp(-I) actually differ between edges
    a = rect_mask(9, 12, 2, 7, 0, 4)
    b = rect_mask(9, 12, 2, 7, 4, 8)
    c = rect_mask(9, 12, 2, 7, 8, 12)
    rng = np.random.default_rng(11)
    edges = rng.uniform(0.0, 0.4, size=(9, 12)).astype(np.float32)
    rec = make_record([a, b, c], [1], edges=edges)
    assert num_edges(rec.adjacency) == 2
    cfg = InferenceConfig(delta=0.3, n_iters=3)
    f = rng.normal(size=(3, 2))
    probe = rng.normal(size=(3, 2))

    def loss(x):
        return float((probe * refine_stack(x, rec.adjacency, cfg)[-1]).sum())

    grad = refine_backward(refine_stack(f, rec.adjacency, cfg), rec.adjacency, cfg, probe)
    h = 1e-6
    for i in range(3):
        for j in range(2):
            fp = f.copy()
            fm = f.copy()
            fp[i, j] += h
            fm[i, j] -= h
            fd = (loss(fp) - loss(fm)) / (2 * h)
            assert grad[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def _greedy_record():
    # m2 sits inside m0 (fully covered once m0 is taken); m1 overlaps m0 by
    # exactly half of itself, which is NOT above the 0.5 threshold
    m0 = rect_mask(8, 8, 0, 4, 0, 4)
    m1 = rect_mask(8, 8, 0, 4, 2, 6)
    m2 = rect_mask(8, 8, 0, 4, 0, 2)
    return make_record([m0, m1, m2], [1])


def test_greedy_threshold_and_suppression_hand_case():
    rec = _greedy_record()
    geom = rec.geometry()
    assert geom.ovl[0, 2] == pytest.approx(1.0)
    assert geom.ovl[0, 1] == pytest.approx(0.5)
    g = np.array([[0.0, 5.0], [0.0, 4.0], [0.0, 3.0]])
    labels = greedy_infer(g, rec.annotation, geom, InferenceConfig())
    # m0 first (highest), m2 suppressed by m0, m1 survives the 0.5 rule
    np.testing.assert_array_equal(labels, [1, 1, 0])
    # raising the stop threshold cuts the second take
    labels = greedy_infer(g, rec.annotation, geom,
                          InferenceConfig(select_threshold=4.5))
    np.testing.assert_array_equal(labels, [1, 0, 0])


def test_greedy_visits_classes_in_ascending_order():
    # both classes prefer m0; class 1 runs first and takes it, so class 2
    # falls back to its next-best proposal
    m0 = rect_mask(8, 8, 0, 4, 0, 4)
    m1 = rect_mask(8, 8, 4, 8, 4, 8)
    rec = make_record([m0, m1], [1, 2])
    g = np.array([[0.0, 5.0, 9.0], [0.0, -1.0, 2.0]])
    labels = greedy_infer(g, rec.annotation, rec.geometry(), InferenceConfig())
    np.testing.assert_array_equal(labels, [1, 2])


def test_greedy_enforce_controls_below_threshold_takes():
    rec = make_record([rect_mask(8, 8, 0, 4, 0, 4)], [1])
    g = np.array([[0.0, -2.0]])
    geom = rec.geometry()
    labels = greedy_infer(g, rec.annotation, geom, InferenceConfig(), enforce=True)
    np.testing.assert_array_equal(labels, [1])
    labels = greedy_infer(g, rec.annotation, geom, InferenceConfig(), enforce=False)
    np.testing.assert_array_equal(labels, [0])


def test_greedy_raises_when_a_class_runs_out_of_proposals():
    rec = make_record([rect_mask(8, 8, 0, 4, 0, 4)], [1, 2])
    g = np.array([[0.0, 1.0, 1.0]])
    with pytest.raises(InferenceError):
        greedy_infer(g, rec.annotation, rec.geometry(), InferenceConfig())


def test_greedy_box_post_pass_forces_a_covering_proposal():
    # class 1 prefers m0 by score, but the annotation box matches m1; the
    # post-pass must add m1 (background until then) to cover the box
    m0 = rect_mask(12, 12, 0, 4, 0, 4)
    m1 = rect_mask(12, 12, 7, 11, 7, 11)
    box = (7, 7, 10, 10)
    assert box_iou(box, box) == 1.0
    rec = make_record([m0, m1], [1], boxes=[(1, *box)],
                      size=(12, 12))
    # m1 scores below the stop threshold so only the post-pass can add it
    g = np.array([[0.0, 5.0], [0.0, -1.0]])
    labels = greedy_infer(g, rec.annotation, rec.geometry(), InferenceConfig())
    np.testing.assert_array_equal(labels, [1, 1])
    # without enforcement the post-pass is skipped entirely
    labels = greedy_infer(g, rec.annotation, rec.geometry(), InferenceConfig(),
                          enforce=False)
    np.testing.assert_array_equal(labels, [1, 0])


def test_greedy_box_post_pass_raises_when_nothing_covers():
    m0 = rect_mask(12, 12, 0, 4, 0, 4)
    rec = make_record([m0], [1], boxes=[(1, 7, 7, 10, 10)], size=(12, 12))
    g = np.array([[0.0, 5.0]])
    with pytest.raises(InferenceError):
        greedy_infer(g, rec.annotation, rec.geometry(), InferenceConfig())


def test_higher_order_feasibility_checks_presence_and_boxes():
    m0 = rect_mask(12, 12, 0, 4, 0, 4)
    m1 = rect_mask(12, 12, 7, 11, 7, 11)
    rec = make_record([m0, m1], [1, 2], boxes=[(2, 7, 7, 10, 10)],
                      size=(12, 12))
    geom = rec.geometry()
    cfg = InferenceConfig()
    ann = rec.annotation
    assert higher_order_feasible(np.array([1, 2]), ann, geom, cfg)
    # class 2 missing
    assert not higher_order_feasible(np.array([1, 0]), ann, geom, cfg)
    # class 2 present but on a proposal that does not cover its box
    assert not higher_order_feasible(np.array([2, 1]), ann, geom, cfg)
    # box check is dropped with the boxes stripped
    assert higher_order_feasible(np.array([2, 1]), ann.without_boxes(), geom, cfg)


def _loop_force_box_cover(g, labels, ann, geom, cfg):
    """Reference box post-pass: box_iou for every proposal and box."""
    labels = labels.copy()
    for j, *b in ann.boxes.tolist():
        if any(box_iou(geom.boxes[u], b) >= cfg.box_rho
               for u in np.nonzero(labels == j)[0]):
            continue
        best, best_score = -1, -np.inf
        for u in range(g.shape[0]):
            if labels[u] == 0 and box_iou(geom.boxes[u], b) >= cfg.box_rho \
                    and g[u, j] > best_score:
                best, best_score = u, g[u, j]
        if best < 0:
            raise InferenceError("no cover")
        labels[best] = j
    return labels


def _loop_feasible(labels, ann, geom, cfg):
    """Reference consistency check: box_iou for every selected proposal."""
    return all((labels == j).any() for j in ann.classes) and all(
        any(box_iou(geom.boxes[u], b) >= cfg.box_rho
            for u in np.nonzero(labels == j)[0])
        for j, *b in ann.boxes.tolist())


# rectangles on a coarse grid, repeated ones and boxes taken from the pool,
# so a box is often covered by several proposals with tied scores
_rect = st.tuples(st.sampled_from([0, 3, 6]), st.sampled_from([0, 3, 6]),
                  st.sampled_from([4, 6]), st.sampled_from([4, 6]))


@settings(max_examples=200, deadline=None)
@given(st.lists(_rect, min_size=1, max_size=7),
       st.lists(st.integers(0, 6), max_size=3),
       st.lists(st.tuples(st.integers(1, 2), st.one_of(_rect, st.integers(0, 9))),
                min_size=1, max_size=3),
       st.integers(0, 2**32 - 1), st.sampled_from([0.3, 0.5, 0.8]))
def test_box_checks_match_per_proposal_box_iou_loops(rects, repeats, boxes,
                                                      seed, rho):
    rects = rects + [rects[i % len(rects)] for i in repeats]
    masks = [rect_mask(12, 12, y, y + h, x, x + w) for y, x, h, w in rects]
    boxes = [(j, rects[r % len(rects)] if isinstance(r, int) else r)
             for j, r in boxes]
    ann_boxes = [(j, x, y, x + w - 1, y + h - 1)
                 for j, (y, x, h, w) in boxes]
    rec = make_record(masks, sorted({b[0] for b in ann_boxes}), num_classes=2,
                      boxes=ann_boxes, size=(12, 12))
    geom, ann = rec.geometry(), rec.annotation
    cfg = InferenceConfig(box_rho=rho)
    rng = np.random.default_rng(seed)
    g = rng.choice([-1.0, 0.0, 2.0], size=(len(masks), 3))
    try:
        want = _loop_force_box_cover(
            g, greedy_infer(g, ann.without_boxes(), geom, cfg), ann, geom, cfg)
    except InferenceError:
        with pytest.raises(InferenceError):
            greedy_infer(g, ann, geom, cfg)
    else:
        np.testing.assert_array_equal(greedy_infer(g, ann, geom, cfg), want)
    for labels in rng.integers(0, 3, size=(8, len(masks))):
        assert higher_order_feasible(labels, ann, geom, cfg) == \
            _loop_feasible(labels, ann, geom, cfg)


def _mask_force_box_cover(g, labels, ann, geom, cfg):
    """The box post-pass on boolean covering masks: per box, an ascending
    scan of the unselected covering proposals with a strict >."""
    labels = labels.copy()
    cover, _ = geom.covering(ann.boxes[:, 1:], cfg.box_rho)
    for j, covering in zip(ann.boxes[:, 0].tolist(), cover):
        if (covering & (labels == j)).any():
            continue
        best = -1
        best_score = -np.inf
        for u in np.flatnonzero(covering & (labels == 0)).tolist():
            if g[u, j] > best_score:
                best = u
                best_score = g[u, j]
        if best < 0:
            raise InferenceError(f"no unselected proposal can cover a class-{j} box")
        labels[best] = j
    return labels


@settings(max_examples=300, deadline=None)
@given(st.lists(_rect, min_size=1, max_size=7),
       st.lists(st.integers(0, 6), max_size=3),
       st.lists(st.tuples(st.integers(1, 2), st.one_of(_rect, st.integers(0, 9))),
                min_size=1, max_size=4),
       st.integers(0, 2**32 - 1), st.sampled_from([0.3, 0.5, 0.8]))
def test_box_post_pass_on_id_lists_matches_the_mask_scan(rects, repeats, boxes,
                                                          seed, rho):
    # any labeling, not only greedy's: boxes already covered, two boxes of
    # one class, ties, -inf and NaN scores, and boxes nothing can cover
    rects = rects + [rects[i % len(rects)] for i in repeats]
    masks = [rect_mask(12, 12, y, y + h, x, x + w) for y, x, h, w in rects]
    boxes = [(j, rects[r % len(rects)] if isinstance(r, int) else r)
             for j, r in boxes]
    ann_boxes = [(j, x, y, x + w - 1, y + h - 1)
                 for j, (y, x, h, w) in boxes]
    rec = make_record(masks, sorted({b[0] for b in ann_boxes}), num_classes=2,
                      boxes=ann_boxes, size=(12, 12))
    geom, ann = rec.geometry(), rec.annotation
    cfg = InferenceConfig(box_rho=rho)
    rng = np.random.default_rng(seed)
    for _ in range(6):
        g = rng.choice([-np.inf, np.nan, -1.0, 0.0, 2.0], size=(len(masks), 3))
        labels = rng.integers(0, 3, size=len(masks))
        before = labels.tobytes()
        try:
            want = _mask_force_box_cover(g, labels, ann, geom, cfg)
        except InferenceError as exc:
            with pytest.raises(InferenceError, match=str(exc)):
                condnet._force_box_cover(g, labels, ann, geom, cfg)
        else:
            got = condnet._force_box_cover(g, labels, ann, geom, cfg)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert labels.tobytes() == before


@settings(max_examples=200, deadline=None)
@given(st.lists(_rect, min_size=1, max_size=7),
       st.lists(st.tuples(st.integers(1, 2), st.one_of(_rect, st.integers(0, 9))),
                max_size=3),
       st.booleans(), st.integers(0, 2**32 - 1),
       st.sampled_from([(), (5,), (2, 3)]), st.sampled_from([0.3, 0.5, 0.8]))
def test_stacked_feasibility_equals_the_per_row_call(rects, boxes, with_boxes,
                                                     seed, lead, rho):
    masks = [rect_mask(12, 12, y, y + h, x, x + w) for y, x, h, w in rects]
    picks = [(j, rects[r % len(rects)] if isinstance(r, int) else r)
             for j, r in boxes]
    ann_boxes = [(j, x, y, x + w - 1, y + h - 1)
                 for j, (y, x, h, w) in picks]
    present = sorted({b[0] for b in ann_boxes}) or [1]
    rec = make_record(masks, present, num_classes=2,
                      boxes=ann_boxes if with_boxes else None, size=(12, 12))
    geom, ann = rec.geometry(), rec.annotation
    cfg = InferenceConfig(box_rho=rho)
    stack = np.random.default_rng(seed).integers(0, 3, size=lead + (len(masks),))
    got = higher_order_feasible(stack, ann, geom, cfg)
    rows = stack.reshape(-1, len(masks))
    want = [_loop_feasible(row, ann, geom, cfg) if with_boxes
            else all((row == j).any() for j in ann.classes) for row in rows]
    if not lead:
        assert type(got) is bool and got == want[0]
        return
    assert got.shape == lead and got.dtype == np.bool_
    assert got.reshape(-1).tolist() == want
    assert got.reshape(-1).tolist() == [
        higher_order_feasible(row, ann, geom, cfg) for row in rows]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_greedy_result_is_consistent_and_respects_suppression(data):
    # under enforce, every result that does not raise is annotation-
    # consistent, with boxes or without; and a proposal taken by the
    # threshold pass never covers a later take of its class by more than
    # overlap_t. Box-forced covers ignore suppression, so the overlap check
    # reads results that have none: no boxes, or enforce off.
    rects = data.draw(st.lists(_rect, min_size=1, max_size=8))
    masks = [rect_mask(12, 12, y, y + h, x, x + w) for y, x, h, w in rects]
    present = data.draw(st.lists(st.integers(1, 2), min_size=1, max_size=2,
                                 unique=True))
    boxes = None
    if data.draw(st.booleans()):
        picks = data.draw(st.lists(
            st.tuples(st.sampled_from(present),
                      st.one_of(_rect, st.integers(0, len(rects) - 1))),
            min_size=1, max_size=3))
        boxes = []
        for j, r in picks:
            y, x, h, w = rects[r] if isinstance(r, int) else r
            boxes.append((j, x, y, x + w - 1, y + h - 1))
    rec = make_record(masks, present, num_classes=2, boxes=boxes,
                      size=(12, 12))
    geom, ann = rec.geometry(), rec.annotation
    cfg = InferenceConfig(
        overlap_t=data.draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
        box_rho=data.draw(st.sampled_from([0.3, 0.5, 0.8])),
        select_threshold=data.draw(st.sampled_from([-1.0, 0.0, 1.0])))
    g = np.array(data.draw(st.lists(
        st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-3, 3),
                 min_size=3, max_size=3),
        min_size=len(masks), max_size=len(masks))))
    for enforce in (True, False):
        try:
            labels = greedy_infer(g, ann, geom, cfg, enforce=enforce)
        except InferenceError:
            assert enforce  # only the enforced passes can run out
            continue
        assert set(labels.tolist()) <= {0, *present}
        if enforce:
            assert higher_order_feasible(labels, ann, geom, cfg)
        if boxes is not None and enforce:
            continue
        for j in present:
            # take order: descending score, ties to the lower id
            order = np.argsort(-g[:, j], kind="stable")
            taken = [u for u in order.tolist() if labels[u] == j]
            for a, i in enumerate(taken):
                for l in taken[a + 1:]:
                    assert geom.ovl[i, l] <= cfg.overlap_t


def test_total_score_sums_selected_entries_or_is_minus_inf():
    rec = make_record([rect_mask(8, 8, 0, 4, 0, 4),
                       rect_mask(8, 8, 4, 8, 4, 8)], [1])
    geom = rec.geometry()
    cfg = InferenceConfig()
    g = np.array([[0.5, 2.0], [-0.25, 1.0]])
    assert total_score(g, np.array([1, 0]), rec.annotation, geom, cfg) == pytest.approx(1.75)
    assert total_score(g, np.array([1, 1]), rec.annotation, geom, cfg) == pytest.approx(3.0)
    assert total_score(g, np.array([0, 0]), rec.annotation, geom, cfg) == float("-inf")


def _brute_force_exact(g, ann, geom, cfg):
    """Independent oracle: enumerate every labeling over {0} + annotated
    classes, keep mutually non-overlapping consistent ones, break score
    ties toward the lexicographically smallest tuple."""
    p = g.shape[0]
    classes = [int(j) for j in ann.classes]
    forbidden = [
        (u, v)
        for u in range(p)
        for v in range(u + 1, p)
        if geom.ovl[u, v] > cfg.overlap_t or geom.ovl[v, u] > cfg.overlap_t
    ]
    best = None
    best_score = -np.inf
    for labels in itertools.product([0] + classes, repeat=p):
        arr = np.array(labels, dtype=np.int64)
        if any(arr[u] != 0 and arr[v] != 0 for u, v in forbidden):
            continue
        if not all((arr == j).any() for j in classes):
            continue
        if ann.boxes is not None:
            ok = True
            for j, *b in ann.boxes.tolist():
                if not any(arr[u] == j and box_iou(geom.boxes[u], b) >= cfg.box_rho
                           for u in range(p)):
                    ok = False
                    break
            if not ok:
                continue
        s = float(g[np.arange(p), arr].sum())
        if best is None or s > best_score or (s == best_score and labels < best):
            best = labels
            best_score = s
    return np.array(best, dtype=np.int64), best_score


def _random_pool_record(rng, boxes=None):
    # two disjoint anchors guarantee a consistent labeling always exists
    masks = [rect_mask(12, 12, 0, 5, 0, 5), rect_mask(12, 12, 6, 12, 6, 12)]
    for _ in range(3):
        y0 = int(rng.integers(0, 8))
        x0 = int(rng.integers(0, 8))
        h = int(rng.integers(2, 5))
        w = int(rng.integers(2, 5))
        masks.append(rect_mask(12, 12, y0, y0 + h, x0, x0 + w))
    return make_record(masks, [1, 2], boxes=boxes, size=(12, 12))


def test_exact_inference_matches_brute_force_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rec = _random_pool_record(rng)
        geom = rec.geometry()
        cfg = InferenceConfig()
        g = rng.normal(size=(5, 3))
        got = exact_infer(g, rec.annotation, geom, cfg)
        want, want_score = _brute_force_exact(g, rec.annotation, geom, cfg)
        np.testing.assert_array_equal(got, want)
        assert total_score(g, got, rec.annotation, geom, cfg) == pytest.approx(want_score)


def test_exact_inference_respects_box_constraints():
    rng = np.random.default_rng(19)
    # the class-2 box matches the second anchor's tight box exactly
    boxes = [(2, 6, 6, 11, 11)]
    for _ in range(8):
        rec = _random_pool_record(rng, boxes=boxes)
        geom = rec.geometry()
        cfg = InferenceConfig()
        g = rng.normal(size=(5, 3))
        got = exact_infer(g, rec.annotation, geom, cfg)
        want, _ = _brute_force_exact(g, rec.annotation, geom, cfg)
        np.testing.assert_array_equal(got, want)
        assert higher_order_feasible(got, rec.annotation, geom, cfg)


def test_exact_inference_prefers_lexicographically_smallest_tie():
    # two copies of the same mask cannot both be selected, so (1, 0) and
    # (0, 1) tie at score 2; the smaller tuple (0, 1) must win
    m = rect_mask(8, 8, 0, 4, 0, 4)
    rec = make_record([m, m.copy()], [1])
    g = np.array([[0.0, 2.0], [0.0, 2.0]])
    got = exact_infer(g, rec.annotation, rec.geometry(), InferenceConfig())
    np.testing.assert_array_equal(got, [0, 1])


def test_exact_inference_rejects_oversized_pools_and_infeasible_scenes():
    masks = [rect_mask(16, 16, 0, 4, i, i + 4) for i in range(13)]
    rec = make_record(masks, [1], size=(16, 16))
    g = np.zeros((13, 2))
    with pytest.raises(InferenceError):
        exact_infer(g, rec.annotation, rec.geometry(), InferenceConfig())
    # one proposal cannot host two classes at once
    rec = make_record([rect_mask(8, 8, 0, 4, 0, 4)], [1, 2])
    with pytest.raises(InferenceError):
        exact_infer(np.zeros((1, 3)), rec.annotation, rec.geometry(), InferenceConfig())


def test_greedy_matches_exact_on_disjoint_single_class_tables():
    # restricted family where greedy is provably optimal: disjoint masks,
    # zero background column, each proposal positive for at most one class,
    # every annotated class positive somewhere. Selecting exactly the
    # positive entries is then the unique argmax, and greedy finds it.
    masks = [rect_mask(16, 16, 4 * i, 4 * i + 3, 0, 3) for i in range(4)]
    rec = make_record(masks, [1, 2], size=(16, 16))
    geom = rec.geometry()
    cfg = InferenceConfig()
    rng = np.random.default_rng(23)
    for _ in range(10):
        g = np.zeros((4, 3))
        pos_class = np.array([1, 2, 0, 0])
        pos_class[2:] = rng.integers(1, 3, size=2)
        for u, j in enumerate(pos_class):
            g[u, j] = rng.uniform(0.5, 2.0)
            g[u, 3 - j] = -rng.uniform(0.5, 2.0)
        greedy = greedy_infer(g, rec.annotation, geom, cfg)
        exact = exact_infer(g, rec.annotation, geom, cfg)
        np.testing.assert_array_equal(greedy, pos_class)
        np.testing.assert_array_equal(exact, pos_class)
        s_greedy = total_score(g, greedy, rec.annotation, geom, cfg)
        s_exact = total_score(g, exact, rec.annotation, geom, cfg)
        assert s_greedy == s_exact


def _sampling_record():
    a = rect_mask(10, 10, 0, 5, 0, 5)
    b = rect_mask(10, 10, 5, 10, 5, 10)
    c = rect_mask(10, 10, 0, 5, 5, 10)
    rec = make_record([a, b, c], [1, 2], size=(10, 10), scene_id=3)
    return rec


def test_forward_scores_refinement_toggle():
    rec = _sampling_record()
    params = cond_init(rec.num_classes, 8)
    rng = np.random.default_rng(2)
    params += rng.normal(size=params.shape)
    z = np.stack([np.zeros(8), np.full(8, 0.5)])
    cfg = InferenceConfig()
    d = feature_dim(rec.num_classes)
    f0 = score_from_input(params[:, :d], features(rec))
    # zero iterations leave the scorer's own noise-free table, the stack's
    # only iterate
    raw_stack, raw_g = forward_scores(params, rec, z,
                                      dataclasses.replace(cfg, n_iters=0))
    assert raw_g.shape == (2, rec.num_proposals, rec.num_classes + 1)
    assert raw_stack.shape == (1,) + raw_g.shape[1:]
    assert raw_stack[0].tobytes() == f0.tobytes()
    stack, g = forward_scores(params, rec, z, cfg)
    assert stack.shape == (cfg.n_iters + 1,) + raw_g.shape[1:]
    assert stack.tobytes() == refine_stack(f0, rec.adjacency, cfg).tobytes()
    # each draw's table is the one its own noise row gives
    for i in range(2):
        one_stack, one_g = forward_scores(params, rec, z[i:i + 1], cfg)
        assert one_g[0].tobytes() == g[i].tobytes()
        assert one_stack.tobytes() == stack.tobytes()


@pytest.mark.parametrize("noise_dim", [0, 3, 8])
@pytest.mark.parametrize("n_iters", [0, 3])
@pytest.mark.parametrize("k", [1, 4])
def test_draw_tables_are_the_shared_final_iterate_plus_their_offsets(
        noise_dim, n_iters, k):
    # draw k's table is stack[-1] + b[k], bit for bit, where b[k] is
    # w[:, D:] @ z[k] reduced over draw k's noise row alone
    rec = _sampling_record()
    rng = np.random.default_rng(noise_dim * 10 + n_iters + k)
    params = cond_init(rec.num_classes, noise_dim)
    params += rng.normal(size=params.shape)
    z = rng.uniform(size=(k, noise_dim))
    stack, g = forward_scores(params, rec, z,
                              InferenceConfig(delta=0.5, n_iters=n_iters))
    w_noise = params[:, feature_dim(rec.num_classes):]
    for i in range(k):
        b = (w_noise * z[i]).sum(axis=1)
        assert b.shape == (rec.num_classes + 1,)
        assert g[i].tobytes() == (stack[-1] + b).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.1, 1.0, 5.0]),
       st.sampled_from([0.5, 8.0]), st.integers(0, 4),
       st.integers(1, 5), st.sampled_from([0, 1, 8]))
def test_draw_tables_match_the_per_draw_refinement(seed, scale, delta,
                                                   n_iters, k, noise_dim):
    # refining each draw's own table gives the shared refinement's tables
    # up to rounding. The pipeline's delta is 8; a small delta amplifies
    # the offset's rounding of each gap (see test_kernels), and at 0.1 the
    # difference reaches a third of the bound
    rec = _sampling_record()
    rng = np.random.default_rng(seed)
    params = cond_init(rec.num_classes, noise_dim)
    params += rng.normal(0.0, scale, size=params.shape)
    z = rng.uniform(size=(k, noise_dim))
    cfg = InferenceConfig(delta=delta, n_iters=n_iters)
    _, g = forward_scores(params, rec, z, cfg)
    assert_per_draw_close(g, per_draw_forward(params, rec, z, cfg)[2])


def test_sampling_is_deterministic_and_tag_sensitive():
    rec = _sampling_record()
    params = cond_init(rec.num_classes, 8)
    rng = np.random.default_rng(5)
    params += rng.normal(size=params.shape)
    cfg = InferenceConfig(select_threshold=100.0)
    s1 = sample_k(params, rec, scene_noise(9, rec, 4), cfg=cfg)
    s2 = sample_k(params, rec, scene_noise(9, rec, 4), cfg=cfg)
    np.testing.assert_array_equal(s1.labels, s2.labels)
    z1 = s1.z
    np.testing.assert_array_equal(z1, s2.z)
    # noise draws must differ across draw index and across tags
    assert not np.array_equal(z1[0], z1[1])
    s3 = sample_k(params, rec, scene_noise(9, rec, 4, tag=1), cfg=cfg)
    assert not np.array_equal(z1[0], s3.z[0])


def test_sampling_zero_noise_collapses_to_one_labeling():
    rec = _sampling_record()
    params = cond_init(rec.num_classes, 8)
    rng = np.random.default_rng(6)
    params += rng.normal(size=params.shape)
    s = sample_k(params, rec, np.zeros((3, 8)),
                 cfg=InferenceConfig(select_threshold=100.0))
    assert s.z.shape == (3, 8) and (s.z == 0.0).all()
    np.testing.assert_array_equal(s.labels[0], s.labels[1])
    np.testing.assert_array_equal(s.labels[0], s.labels[2])


def test_sampling_term_modes_control_refinement_and_enforcement():
    rec = _sampling_record()
    params = cond_init(rec.num_classes, 8)
    # a high stop threshold keeps each class to its one forced take, so the
    # pool can host both classes in every mode
    cfg = InferenceConfig(select_threshold=100.0)
    z = scene_noise(1, rec, 2)
    # mode U is refinement with zero iterations: its tables are the
    # scorer's own, and the noise-free table is the stack's only iterate
    s_u = sample_k(params, rec, z, cfg=cfg, term_mode="U")
    assert not s_u.enforced and s_u.stack.shape == (1,) + s_u.g.shape[1:]
    raw = forward_scores(params, rec, z, dataclasses.replace(cfg, n_iters=0))
    assert s_u.stack.tobytes() == raw[0].tobytes()
    assert s_u.g.tobytes() == raw[1].tobytes()
    s_up = sample_k(params, rec, z, cfg=cfg, term_mode="U+P")
    assert not s_up.enforced
    assert s_up.stack.shape == (cfg.n_iters + 1,) + s_up.g.shape[1:]
    s_uph = sample_k(params, rec, z, cfg=cfg, term_mode="U+P+H")
    assert s_uph.enforced
    assert s_uph.stack.shape == (cfg.n_iters + 1,) + s_uph.g.shape[1:]
    assert s_uph.g.tobytes() == s_up.g.tobytes()
    # every labeling under the full mode is annotation-consistent
    geom = rec.geometry()
    for row in s_uph.labels:
        assert higher_order_feasible(row, rec.annotation, geom, cfg)
    # explicit override: the initialization phase forces consistency in U mode
    s_forced = sample_k(params, rec, z, cfg=cfg, term_mode="U", enforce=True)
    assert s_forced.enforced
    for row in s_forced.labels:
        assert higher_order_feasible(row, rec.annotation, geom, cfg)
    with pytest.raises(ValueError):
        sample_k(params, rec, z, cfg=cfg, term_mode="U+H")


def test_sampling_checks_the_noise_width_against_the_scorer():
    rec = _sampling_record()
    params = cond_init(rec.num_classes, 8)
    cfg = InferenceConfig(select_threshold=100.0)
    for z in (np.zeros((2, 7)), np.zeros((2, 9)), np.zeros(8),
              np.zeros((1, 2, 8))):
        with pytest.raises(ValueError, match="noise width 8"):
            sample_k(params, rec, z, cfg=cfg)
    assert sample_k(params, rec, np.zeros((5, 8)), cfg=cfg).k == 5


def _counting_kernel(monkeypatch):
    calls = []
    orig = kernels.greedy_labels

    def counted(*args):
        calls.append(args[0].tobytes())
        return orig(*args)

    monkeypatch.setattr(kernels, "greedy_labels", counted)
    return calls


def test_memo_answers_a_repeated_table_without_computing(monkeypatch):
    rec = _sampling_record()
    geom, cfg = rec.geometry(), InferenceConfig()
    calls = _counting_kernel(monkeypatch)
    g = np.array([[0.0, 2.0, -1.0], [0.0, -0.5, 3.0], [0.0, -1.0, 1.0]])
    memo = {}
    first = greedy_infer(g, rec.annotation, geom, cfg, memo=memo)
    again = greedy_infer(g.copy(), rec.annotation, geom, cfg, memo=memo)
    assert len(calls) == 1
    assert again is first and not first.flags.writeable
    assert first.tobytes() == greedy_infer(g, rec.annotation, geom,
                                           cfg).tobytes()
    assert len(calls) == 2  # no memo, so computed
    # a table that differs in any byte is computed, -0.0 against 0.0 too
    g2 = g.copy()
    g2[0, 0] = -0.0
    greedy_infer(g2, rec.annotation, geom, cfg, memo=memo)
    assert len(calls) == 3 and len(memo) == 2
    # one ulp above the stop threshold takes another proposal for class 1
    g3 = g.copy()
    g3[2, 1] = np.nextafter(0.0, 1.0)
    g3[2, 2] = -1.0
    g4 = g3.copy()
    g4[2, 1] = 0.0
    got3 = greedy_infer(g3, rec.annotation, geom, cfg, memo=memo)
    got4 = greedy_infer(g4, rec.annotation, geom, cfg, memo=memo)
    assert got3.tolist() == [1, 2, 1] and got4.tolist() == [1, 2, 0]


def test_memo_hit_skips_the_box_post_pass(monkeypatch):
    m0 = rect_mask(12, 12, 0, 4, 0, 4)
    m1 = rect_mask(12, 12, 7, 11, 7, 11)
    rec = make_record([m0, m1], [1], boxes=[(1, 7, 7, 10, 10)],
                      size=(12, 12))
    geom, cfg = rec.geometry(), InferenceConfig()
    calls = _counting_kernel(monkeypatch)
    post = []
    orig = condnet._force_box_cover
    monkeypatch.setattr(condnet, "_force_box_cover",
                        lambda *a: post.append(1) or orig(*a))
    g = np.array([[0.0, 5.0], [0.0, -1.0]])
    memo = {}
    for _ in range(3):
        labels = greedy_infer(g, rec.annotation, geom, cfg, memo=memo)
        np.testing.assert_array_equal(labels, [1, 1])  # m1 forced in
    assert len(calls) == 1 and len(post) == 1


def test_memo_never_stores_an_inference_error(monkeypatch):
    # the box post-pass raises and so does an exhausted class: each request
    # is computed again and raises again
    m0 = rect_mask(12, 12, 0, 4, 0, 4)
    boxed = make_record([m0], [1], boxes=[(1, 7, 7, 10, 10)],
                        size=(12, 12))
    short = make_record([rect_mask(8, 8, 0, 4, 0, 4)], [1, 2])
    calls = _counting_kernel(monkeypatch)
    for rec, g in ((boxed, np.array([[0.0, 5.0]])),
                   (short, np.array([[0.0, 1.0, 1.0]]))):
        memo = {}
        del calls[:]
        for n in range(1, 4):
            with pytest.raises(InferenceError):
                greedy_infer(g, rec.annotation, rec.geometry(),
                             InferenceConfig(), memo=memo)
            assert len(calls) == n
        assert memo == {}


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.1, 1.0, 5.0]),
       st.booleans(), st.integers(2, 5))
def test_draw_tables_differ_by_a_constant_per_class_column(seed, scale,
                                                           refine, k):
    # the linear scorer adds z_k @ W_noise^T to every row of draw k's table,
    # and refinement reads only in-column gaps u - v, which such a shift
    # leaves alone. So two draws' tables differ by one offset per class
    # column, up to rounding: noise can move a column's entries past the
    # stop threshold together, but cannot reorder a column's proposals.
    rec = _sampling_record()
    rng = np.random.default_rng(seed)
    params = cond_init(rec.num_classes, 8)
    params += rng.normal(0.0, scale, size=params.shape)
    z = rng.uniform(0.0, 1.0, size=(k, params.shape[1]
                                    - feature_dim(rec.num_classes)))
    _, g = forward_scores(params, rec, z, InferenceConfig(
        delta=0.5, n_iters=3 if refine else 0))
    diff = g - g[:1]  # (K, P, C+1)
    offset = diff[:, :1]  # each draw's offset per column, read off row 0
    tol = 1e-9 * max(1.0, float(np.abs(g).max()))
    assert np.abs(diff - offset).max() <= tol
