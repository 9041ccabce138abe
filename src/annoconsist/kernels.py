"""Hot numeric kernels: pairwise score refinement, its adjoint, and greedy
per-class selection.

Greedy selection runs once per loss-augmented inference on a small table
(tens of proposals by a few classes), so per-call overhead weighs as much
as arithmetic. Refinement scatters over the flattened (P, M) table, which
adds each entry's edge terms in the same order as `np.add.at` over the
table's rows, so its result is bit-identical to that row scatter; the
tests keep it and the per-proposal greedy loop as reference
implementations.
"""

from dataclasses import dataclass

import numpy as np

# greedy status codes
OK = 0
EXHAUSTED = 1  # an annotated class found no available proposal to force


@dataclass(frozen=True)
class Edges:
    """Directed edges u[e] -> v[e] with weights w[e], for tables of M columns.

    flat_u[e*M + c] is the position of entry (u[e], c) in the flattened
    (P, M) table, and flat_v likewise for v[e]. A scatter over the
    flattened table adds the terms of each entry in edge order, the order
    np.add.at over table rows uses, and takes numpy's faster 1-D path.
    """

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    flat_u: np.ndarray
    flat_v: np.ndarray

    @staticmethod
    def from_arrays(u: np.ndarray, v: np.ndarray, w: np.ndarray,
                    m: int) -> "Edges":
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        cols = np.arange(m, dtype=np.int64)
        return Edges(u=u, v=v, w=np.asarray(w, dtype=np.float64),
                     flat_u=(u[:, None] * m + cols).ravel(),
                     flat_v=(v[:, None] * m + cols).ravel())


def refine_forward(g0, edges: Edges, delta, n_iters):
    """Iterate g[u,c] += w_uv / ((g[u,c]-g[v,c])^2 + delta) over directed edges.

    g0 is one (P, M) table. Updates are synchronous: every iteration reads
    the previous table only. Returns the full (n_iters+1, P, M) stack; the
    stack is what the adjoint needs, and P is small enough that keeping it
    is free.
    """
    stack = np.empty((n_iters + 1,) + g0.shape, dtype=np.float64)
    stack[0] = g0
    w = edges.w[:, None]
    for n in range(1, n_iters + 1):
        prev = stack[n - 1]
        d = np.take(prev, edges.u, axis=0)
        d -= np.take(prev, edges.v, axis=0)
        d *= d
        d += delta
        contrib = np.divide(w, d, out=d)
        cur = stack[n]
        cur[...] = prev
        np.add.at(cur.reshape(-1), edges.flat_u, contrib.reshape(-1))
    return stack


def refine_backward(stack, edges: Edges, delta, q_final):
    """Adjoint of refine_forward: push d(loss)/dG_n back to d(loss)/dG_0
    for the (P, M) table whose iterates `stack` holds."""
    w2 = 2.0 * edges.w[:, None]
    q = q_final.astype(np.float64).copy()
    n_iters = stack.shape[0] - 1
    for n in range(n_iters, 0, -1):
        prev = stack[n - 1]
        d = np.take(prev, edges.u, axis=0)
        d -= np.take(prev, edges.v, axis=0)
        denom = d * d
        denom += delta
        denom *= denom
        pull = w2 * d
        pull /= denom
        pull *= np.take(q, edges.u, axis=0)
        np.subtract.at(q.reshape(-1), edges.flat_u, pull.reshape(-1))
        np.add.at(q.reshape(-1), edges.flat_v, pull.reshape(-1))
    return q


def keep_masks(ovl, t) -> list:
    """Per proposal i, an int whose bit l is set iff ovl[i, l] <= t: the
    proposals that selecting i leaves available to the current class."""
    packed = np.packbits(ovl <= t, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def greedy_labels(g, ann_classes, tau, keep, enforce):
    """Greedy per-class selection. See condnet.greedy_infer for semantics.

    tau is the score threshold, shared by every class.

    keep is keep_masks(ovl, t), where ovl[i, l] is the fraction of proposal
    l covered by proposal i: selecting i removes every remaining l with
    ovl[i, l] > t from the current class's candidate list only. Selected
    proposals are excluded globally.
    """
    p = g.shape[0]
    labels = [0] * p
    free = (1 << p) - 1  # bit i set while no class has selected proposal i
    for j in ann_classes.tolist():
        scores = g[:, j]
        order = (-scores).argsort(kind="stable").tolist()
        scores = scores.tolist()
        avail = free
        taken = False
        for i in order:
            if not (avail >> i) & 1:
                continue
            if scores[i] <= tau and (taken or not enforce):
                break
            labels[i] = j
            free ^= 1 << i
            avail &= keep[i]
            taken = True
        if enforce and not taken:
            return np.array(labels, dtype=np.int64), EXHAUSTED
    return np.array(labels, dtype=np.int64), OK


def backend_name():
    return "numpy"


def warmup():
    """Run each kernel once on a tiny input, so the first timed call pays
    no one-off set-up."""
    g = np.zeros((2, 2))
    edges = Edges.from_arrays(np.array([0, 1]), np.array([1, 0]), np.ones(2), 2)
    stack = refine_forward(g, edges, 0.1, 1)
    refine_backward(stack, edges, 0.1, g)
    greedy_labels(
        g,
        np.array([1], dtype=np.int64),
        0.0,
        keep_masks(np.zeros((2, 2)), 0.5),
        True,
    )
