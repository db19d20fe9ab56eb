"""Brandes' betweenness-centrality algorithm for unweighted graphs.

BFS from each source builds shortest-path counts and a level structure; a
reverse sweep accumulates dependencies.  ``sources`` restricts the outer loop,
which is exactly the unit of work the paper's BC code partitions across
places ("each place is responsible for computing the centrality measure for
all its vertices; these computations are local and independent").
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.kernels.bc.rmat import Graph


def brandes_betweenness(
    graph: Graph, sources: Optional[Sequence[int]] = None, return_work: bool = False
):
    """Betweenness centrality contributions from ``sources`` (default: all).

    For undirected graphs the full-source result is halved, matching
    ``networkx.betweenness_centrality(G, normalized=False)``.  Partial-source
    calls return raw dependency sums (divide by two after reducing over all
    sources).

    With ``return_work`` the edge-traversal count is returned as well; the
    per-source cost varies wildly on skewed graphs (a source in a tiny
    component costs almost nothing), which is the imbalance the paper
    discusses.
    """
    n = graph.n
    centrality = np.zeros(n)
    work = 0
    src_list = range(n) if sources is None else sources
    for s in src_list:
        delta, touched = _single_source_dependencies(graph, int(s))
        centrality += delta
        work += touched
    if sources is None:
        centrality /= 2.0
    if return_work:
        return centrality, work
    return centrality


def _single_source_dependencies(graph: Graph, s: int):
    """One BFS + dependency accumulation (the inner loop of Brandes).

    Returns (dependency vector, edges touched).
    """
    n = graph.n
    dist = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n)
    delta = np.zeros(n)
    dist[s] = 0
    sigma[s] = 1.0
    frontier = np.array([s], dtype=np.int64)
    levels = [frontier]
    work = 0
    # forward BFS, level-synchronous and vectorized over the frontier
    while len(frontier):
        neigh_all = []
        for v in frontier:
            nbrs = graph.neighbors(v)
            work += len(nbrs)
            # all of these land on the next level; CSR neighbour lists hold
            # unique indices, so a fancy-index += adds exactly once each
            fresh = nbrs[dist[nbrs] == -1]
            if len(fresh):
                sigma[fresh] += sigma[v]
                neigh_all.append(fresh)
        if neigh_all:
            nxt = np.unique(np.concatenate(neigh_all))
        else:
            nxt = np.empty(0, dtype=np.int64)
        if len(nxt):
            dist[nxt] = dist[frontier[0]] + 1
            levels.append(nxt)
        frontier = nxt
    # reverse accumulation
    for level in reversed(levels[1:]):
        for w in level:
            nbrs = graph.neighbors(w)
            work += len(nbrs)
            preds = nbrs[dist[nbrs] == dist[w] - 1]
            if len(preds):
                share = (sigma[preds] / sigma[w]) * (1.0 + delta[w])
                delta[preds] += share  # preds are unique, as above
    delta[s] = 0.0
    return delta, work
