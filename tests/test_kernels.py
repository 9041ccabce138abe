import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from annoconsist import kernels
from annoconsist.kernels import (
    EXHAUSTED,
    OK,
    Edges,
    backend_name,
    greedy_labels,
    keep_masks,
    refine_backward,
    refine_forward,
)


def _scatter_refine_forward(g0, eu, ev, w, delta, n_iters):
    """Reference refinement: one np.add.at over table rows per iteration."""
    stack = np.empty((n_iters + 1,) + g0.shape, dtype=np.float64)
    stack[0] = g0
    for n in range(1, n_iters + 1):
        prev = stack[n - 1]
        d = prev[eu, :] - prev[ev, :]
        contrib = w[:, None] / (d * d + delta)
        cur = prev.copy()
        np.add.at(cur, eu, contrib)
        stack[n] = cur
    return stack


def _scatter_refine_backward(stack, eu, ev, w, delta, q_final):
    """Reference adjoint: np.subtract.at / np.add.at over table rows."""
    q = q_final.astype(np.float64).copy()
    for n in range(stack.shape[0] - 1, 0, -1):
        prev = stack[n - 1]
        d = prev[eu, :] - prev[ev, :]
        denom = d * d + delta
        coef = 2.0 * w[:, None] * d / (denom * denom)
        pull = coef * q[eu, :]
        q_new = q.copy()
        np.subtract.at(q_new, eu, pull)
        np.add.at(q_new, ev, pull)
        q = q_new
    return q


def _loop_greedy_labels(g, ann_classes, tau, ovl, t, enforce):
    """Reference greedy selection: marks suppressed proposals one by one."""
    p = g.shape[0]
    labels = np.zeros(p, dtype=np.int64)
    selected = np.zeros(p, dtype=np.bool_)
    for idx in range(ann_classes.shape[0]):
        j = ann_classes[idx]
        order = np.argsort(-g[:, j], kind="stable")
        suppressed = np.zeros(p, dtype=np.bool_)
        taken = 0
        for i in order:
            if selected[i] or suppressed[i]:
                continue
            if taken > 0 and g[i, j] <= tau:
                break
            if taken == 0 and not enforce and g[i, j] <= tau:
                break
            labels[i] = j
            selected[i] = True
            taken += 1
            for l in range(p):
                if not selected[l] and ovl[i, l] > t:
                    suppressed[l] = True
        if taken == 0 and enforce:
            return labels, EXHAUSTED
    return labels, OK


@st.composite
def _graphs(draw):
    """A table and a directed edge list over it. Pairs may repeat (the
    same edge twice), nodes may have no edges, and the list may be empty."""
    p = draw(st.integers(1, 8))
    m = draw(st.integers(1, 4))
    node = st.integers(0, p - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]),
                          max_size=12)) if p > 1 else []
    if pairs and draw(st.booleans()):
        pairs = pairs + draw(st.lists(st.sampled_from(pairs), max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eu = np.array([u for u, _ in pairs], dtype=np.int64)
    ev = np.array([v for _, v in pairs], dtype=np.int64)
    w = rng.uniform(0.1, 1.0, size=len(pairs))
    g0 = rng.normal(size=(p, m))
    return g0, eu, ev, w, rng


def test_backend_name_reports_active_kernel():
    assert backend_name() == "numpy"


@settings(max_examples=200, deadline=None)
@given(_graphs(), st.sampled_from([0.1, 0.3, 8.0]), st.integers(0, 4))
def test_refine_forward_matches_row_scatter_bitwise(graph, delta, n_iters):
    g0, eu, ev, w, _ = graph
    edges = Edges.from_arrays(eu, ev, w, g0.shape[1])
    got = refine_forward(g0, edges, delta, n_iters)
    want = _scatter_refine_forward(g0, eu, ev, w, delta, n_iters)
    assert got.shape == (n_iters + 1,) + g0.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(_graphs(), st.sampled_from([0.1, 0.3, 8.0]), st.integers(0, 4))
def test_refine_backward_matches_row_scatter_bitwise(graph, delta, n_iters):
    g0, eu, ev, w, rng = graph
    stack = _scatter_refine_forward(g0, eu, ev, w, delta, n_iters)
    q = rng.normal(size=g0.shape)
    edges = Edges.from_arrays(eu, ev, w, g0.shape[1])
    got = refine_backward(stack, edges, delta, q)
    want = _scatter_refine_backward(stack, eu, ev, w, delta, q)
    assert got.tobytes() == want.tobytes()


def _scale(*arrays):
    return max(1.0, *(float(np.abs(a).max(initial=0.0)) for a in arrays))


@settings(max_examples=200, deadline=None)
@given(_graphs(), st.sampled_from([0.1, 0.3, 8.0]), st.integers(0, 4))
def test_refine_backward_preserves_column_sums(graph, delta, n_iters):
    # each edge term moves a coefficient from one row to another within its
    # column, so the adjoint keeps every column's sum, up to rounding: the
    # premise of sharing one refinement across draws that differ by a
    # per-column offset
    g0, eu, ev, w, rng = graph
    edges = Edges.from_arrays(eu, ev, w, g0.shape[1])
    q = rng.normal(size=g0.shape)
    got = refine_backward(refine_forward(g0, edges, delta, n_iters), edges,
                          delta, q)
    assert (np.abs(got.sum(axis=0) - q.sum(axis=0)).max()
            <= 1e-12 * _scale(q, got))


@settings(max_examples=200, deadline=None)
@given(_graphs(), st.sampled_from([0.5, 8.0]), st.integers(0, 4),
       st.floats(-5.0, 5.0))
def test_refine_forward_carries_a_column_offset_through(graph, delta,
                                                        n_iters, scale):
    # refinement reads only in-column gaps, so adding one offset per column
    # to the table adds it to every iterate, up to rounding. The offset
    # rounds each gap, and an edge term amplifies that by up to about
    # 0.65 / delta^1.5, so a small delta such as 0.1 is left out: it sits
    # within a few times the bound
    g0, eu, ev, w, rng = graph
    edges = Edges.from_arrays(eu, ev, w, g0.shape[1])
    t = scale * rng.normal(size=g0.shape[1])
    want = refine_forward(g0, edges, delta, n_iters) + t
    got = refine_forward(g0 + t, edges, delta, n_iters)
    assert np.abs(got - want).max() <= 1e-12 * _scale(want)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_greedy_matches_per_proposal_loop_bitwise(data):
    p = data.draw(st.integers(1, 20))  # keep rows span several bytes
    c = data.draw(st.integers(1, 4))
    # scores and overlaps from small grids, so ties, scores equal to the
    # threshold and overlaps equal to t all occur
    g = np.array(data.draw(st.lists(
        st.lists(st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0]),
                 min_size=c + 1, max_size=c + 1),
        min_size=p, max_size=p)))
    classes = np.array(sorted(data.draw(st.sets(st.integers(1, c), min_size=1))),
                       dtype=np.int64)
    tau = data.draw(st.sampled_from([-1.0, 0.0, 0.5]))
    ovl = np.array(data.draw(st.lists(
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                 min_size=p, max_size=p),
        min_size=p, max_size=p)))
    np.fill_diagonal(ovl, 1.0)
    t = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    enforce = data.draw(st.booleans())
    got_labels, got_status = greedy_labels(g, classes, tau,
                                           keep_masks(ovl, t), enforce)
    want_labels, want_status = _loop_greedy_labels(g, classes, tau, ovl, t,
                                                   enforce)
    assert got_status == want_status
    assert got_labels.dtype == want_labels.dtype
    assert got_labels.tobytes() == want_labels.tobytes()


def test_refine_forward_single_pair_hand_case():
    # equal scores, zero gap: each node gains w / delta = 1 / 0.1 = 10
    g0 = np.array([[1.0], [1.0]])
    edges = Edges.from_arrays([0, 1], [1, 0], np.ones(2), 1)
    stack = refine_forward(g0, edges, 0.1, 3)
    np.testing.assert_allclose(stack[1], [[11.0], [11.0]])
    np.testing.assert_allclose(stack[2], [[21.0], [21.0]])
    np.testing.assert_allclose(stack[3], [[31.0], [31.0]])


def test_refine_forward_updates_are_synchronous():
    # node 1 must read node 0's PREVIOUS value, not the updated one
    g0 = np.array([[0.0], [1.0]])
    edges = Edges.from_arrays([0, 1], [1, 0], np.ones(2), 1)
    stack = refine_forward(g0, edges, 1.0, 1)
    # gap^2 + delta = 1 + 1 = 2 for both directions
    np.testing.assert_allclose(stack[1], [[0.5], [1.5]])


def test_refine_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    p, m = 5, 3
    g0 = rng.normal(size=(p, m))
    eu = np.array([0, 1, 1, 3, 2, 4, 4, 0], dtype=np.int64)
    ev = np.array([1, 0, 3, 1, 4, 2, 0, 4], dtype=np.int64)
    edges = Edges.from_arrays(eu, ev, rng.uniform(0.1, 1.0, size=eu.size), m)
    q = rng.normal(size=(p, m))
    delta, n_iters = 0.3, 3

    def loss(x):
        return float(np.sum(refine_forward(x, edges, delta, n_iters)[-1] * q))

    stack = refine_forward(g0, edges, delta, n_iters)
    grad = refine_backward(stack, edges, delta, q)
    h = 1e-6
    for u in range(p):
        for c in range(m):
            gp = g0.copy()
            gp[u, c] += h
            gm = g0.copy()
            gm[u, c] -= h
            fd = (loss(gp) - loss(gm)) / (2 * h)
            assert abs(fd - grad[u, c]) <= 1e-5 * max(1.0, abs(fd))


def _ovl(p):
    o = np.zeros((p, p))
    np.fill_diagonal(o, 1.0)
    return o


def _keep(p):
    return keep_masks(_ovl(p), 0.5)


def test_greedy_takes_descending_until_threshold():
    g = np.array([[0.0, 5.0], [0.0, 3.0], [0.0, -1.0]])
    labels, status = greedy_labels(g, np.array([1], dtype=np.int64),
                                   0.0, _keep(3), False)
    assert status == OK
    np.testing.assert_array_equal(labels, [1, 1, 0])


def test_greedy_threshold_is_strict():
    g = np.array([[0.0, 2.0], [0.0, 0.0]])
    labels, _ = greedy_labels(g, np.array([1], dtype=np.int64), 0.0,
                              _keep(2), False)
    np.testing.assert_array_equal(labels, [1, 0])


def test_greedy_suppression_is_class_local_and_one_directional():
    # selecting 0 suppresses 1 for the same class only (ovl[0,1] > t);
    # class 2 can still take proposal 1
    g = np.array([[0.0, 5.0, 0.1], [0.0, 4.0, 6.0], [0.0, 3.0, -1.0]])
    ovl = _ovl(3)
    ovl[0, 1] = 0.8
    labels, status = greedy_labels(g, np.array([1, 2], dtype=np.int64),
                                   0.0, keep_masks(ovl, 0.5), False)
    assert status == OK
    np.testing.assert_array_equal(labels, [1, 2, 1])


def test_greedy_selected_proposals_excluded_globally():
    # class 1 takes proposal 0; class 2's best is also 0 but must take 1
    g = np.array([[0.0, 5.0, 9.0], [0.0, -1.0, 2.0]])
    labels, status = greedy_labels(g, np.array([1, 2], dtype=np.int64),
                                   0.0, _keep(2), False)
    assert status == OK
    np.testing.assert_array_equal(labels, [1, 2])


def test_greedy_tie_goes_to_lower_index():
    g = np.array([[0.0, 3.0], [0.0, 3.0]])
    ovl = _ovl(2)
    ovl[0, 1] = 0.9
    ovl[1, 0] = 0.9
    labels, _ = greedy_labels(g, np.array([1], dtype=np.int64), 0.0,
                              keep_masks(ovl, 0.5), False)
    np.testing.assert_array_equal(labels, [1, 0])


def test_greedy_enforce_forces_first_take_below_threshold():
    g = np.array([[0.0, -2.0], [0.0, -5.0]])
    labels, status = greedy_labels(g, np.array([1], dtype=np.int64),
                                   0.0, _keep(2), True)
    assert status == OK
    np.testing.assert_array_equal(labels, [1, 0])


def test_greedy_without_enforce_takes_nothing_below_threshold():
    g = np.array([[0.0, -2.0], [0.0, -5.0]])
    labels, status = greedy_labels(g, np.array([1], dtype=np.int64),
                                   0.0, _keep(2), False)
    assert status == OK
    np.testing.assert_array_equal(labels, [0, 0])


def test_greedy_exhausted_when_no_proposal_left_for_class():
    # one proposal, two annotated classes: class 1 takes it, class 2 starves
    g = np.array([[0.0, 4.0, 4.0]])
    labels, status = greedy_labels(g, np.array([1, 2], dtype=np.int64),
                                   0.0, _keep(1), True)
    assert status == EXHAUSTED


def test_warmup_runs_both_kernels():
    kernels.warmup()  # idempotent
