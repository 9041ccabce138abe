"""Proposal adjacency graph with edge-aware contact weights."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .masks import dilate


@dataclass
class Adjacency:
    """Symmetric neighbor structure over a proposal pool.

    neighbors[u] lists v with dilate(mask_u) ∩ mask_v nonempty (u != v);
    weights[u][i] is I_uv, the raw sum of edge-map values over the contact
    band (dilate(u) ∩ v) ∪ (dilate(v) ∩ u). Directed edge arrays (each
    undirected pair twice) are kept for the kernels.
    """

    neighbors: list
    weights: list
    edge_u: np.ndarray = field(repr=False)
    edge_v: np.ndarray = field(repr=False)
    edge_w: np.ndarray = field(repr=False)
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

    def edge_weight(self, u: int, v: int) -> float:
        for i, n in enumerate(self.neighbors[u]):
            if n == v:
                return float(self.weights[u][i])
        raise KeyError(f"{u} and {v} are not neighbors")

    def restrict(self, keep: np.ndarray) -> "Adjacency":
        """The subgraph induced by the ascending node indices `keep`, with
        node keep[i] renumbered i. Edge and neighbor order carry over, so
        on a pool built with this graph's dilation the result equals
        build_adjacency(pool[keep], edges, dilation)."""
        new = np.full(len(self.neighbors), -1, dtype=np.int64)
        new[keep] = np.arange(len(keep))
        inside = (new[self.edge_u] >= 0) & (new[self.edge_v] >= 0)
        neighbors, weights = [], []
        for u in keep:
            mask = new[self.neighbors[u]] >= 0
            neighbors.append(new[self.neighbors[u][mask]])
            weights.append(self.weights[u][mask])
        return Adjacency(
            neighbors=neighbors,
            weights=weights,
            edge_u=new[self.edge_u[inside]],
            edge_v=new[self.edge_v[inside]],
            edge_w=self.edge_w[inside],
        )

    @property
    def num_edges(self) -> int:
        return len(self.edge_u) // 2


def build_adjacency(pool: np.ndarray, edges: np.ndarray, dilation: int = 1) -> Adjacency:
    """Build the contact graph for a stacked (P, H, W) pool.

    Two proposals are neighbors iff their masks come within `dilation`
    pixels (Chebyshev). I_uv sums raw edge values over the contact band;
    no normalization by band length.
    """
    p = pool.shape[0]
    dil = [dilate(pool[u], dilation) for u in range(p)]
    neighbors = [[] for _ in range(p)]
    weights = [[] for _ in range(p)]
    eu, ev, ew = [], [], []
    for u in range(p):
        for v in range(u + 1, p):
            band_uv = dil[u] & pool[v]
            band_vu = dil[v] & pool[u]
            if not (band_uv.any() or band_vu.any()):
                continue
            w = float(edges[band_uv | band_vu].sum())
            neighbors[u].append(v)
            weights[u].append(w)
            neighbors[v].append(u)
            weights[v].append(w)
            eu.extend((u, v))
            ev.extend((v, u))
            ew.extend((w, w))
    return Adjacency(
        neighbors=[np.array(n, dtype=np.int64) for n in neighbors],
        weights=[np.array(w, dtype=np.float64) for w in weights],
        edge_u=np.array(eu, dtype=np.int64),
        edge_v=np.array(ev, dtype=np.int64),
        edge_w=np.array(ew, dtype=np.float64),
    )
