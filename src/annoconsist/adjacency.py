"""Proposal adjacency graph with edge-aware contact weights."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .masks import dilate


@dataclass
class Adjacency:
    """Symmetric contact graph over a proposal pool, as directed edges.

    Proposals u != v are neighbors iff dilate(mask_u) ∩ mask_v is
    nonempty; edge e runs edge_u[e] -> edge_v[e] with weight edge_w[e] =
    I_uv, the raw sum of edge-map values over the contact band
    (dilate(u) ∩ v) ∪ (dilate(v) ∩ u). Each pair u < v is listed as
    (u, v) then (v, u).
    """

    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_w: np.ndarray
    _kernel_edges: dict = field(default_factory=dict, repr=False,
                                compare=False)

    def kernel_edges(self, m: int) -> kernels.Edges:
        """The directed edges with weights exp(-I_uv), laid out for the
        refinement kernels on tables of m columns; built on first use."""
        edges = self._kernel_edges.get(m)
        if edges is None:
            edges = self._kernel_edges[m] = kernels.Edges.from_arrays(
                self.edge_u, self.edge_v, np.exp(-self.edge_w), m)
        return edges

    def restrict(self, keep: np.ndarray) -> "Adjacency":
        """The subgraph induced by the ascending node indices `keep`, with
        node keep[i] renumbered i. Edge order carries over, so on a pool
        built with this graph's dilation the result equals
        build_adjacency(pool[keep], edges, dilation)."""
        inside = np.isin(self.edge_u, keep) & np.isin(self.edge_v, keep)
        return Adjacency(
            edge_u=np.searchsorted(keep, self.edge_u[inside]),
            edge_v=np.searchsorted(keep, self.edge_v[inside]),
            edge_w=self.edge_w[inside],
        )


def build_adjacency(pool: np.ndarray, edges: np.ndarray, dilation: int = 1) -> Adjacency:
    """Build the contact graph for a stacked (P, H, W) pool.

    Two proposals are neighbors iff their masks come within `dilation`
    pixels (Chebyshev). I_uv sums raw edge values over the contact band;
    no normalization by band length.
    """
    p, h, w = pool.shape
    dil = dilate(pool, dilation)
    # u and v can only touch where dilate(u) shares rows and columns with v
    near = (_shared(dil.any(axis=2), pool.any(axis=2))
            & _shared(dil.any(axis=1), pool.any(axis=1)))
    us, vs = np.nonzero(np.triu(near | near.T, 1))  # row-major (u, v)
    dil = dil.reshape(p, h * w)
    flat = pool.reshape(p, h * w)
    edges = edges.reshape(h * w)
    # the bands of up to P pairs at a time; a pair touches iff its band is
    # not empty. I_uv is the float32 sum of the band's edge values in
    # row-major pixel order, as edges[band].sum() adds them.
    touch, ew = [], []
    for lo in range(0, us.size, max(p, 1)):
        u, v = us[lo:lo + p], vs[lo:lo + p]
        band = (dil[u] & flat[v]) | (dil[v] & flat[u])
        size = np.count_nonzero(band, axis=1)
        pixels = np.flatnonzero(band)
        pixels %= h * w
        values = edges[pixels]
        ends = np.cumsum(size).tolist()
        for k, (a, b) in enumerate(zip([0] + ends[:-1], ends)):
            if b > a:
                touch.append(lo + k)
                ew.append(float(values[a:b].sum()))
    us, vs = us[touch], vs[touch]
    return Adjacency(
        edge_u=np.stack([us, vs], axis=1).reshape(-1),
        edge_v=np.stack([vs, us], axis=1).reshape(-1),
        edge_w=np.repeat(np.array(ew, dtype=np.float64), 2),
    )


def _shared(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(P, P) bool: whether row u of a and row v of b share a set entry."""
    return (a.astype(np.float32) @ b.T.astype(np.float32)) > 0
