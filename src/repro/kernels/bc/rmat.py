"""R-MAT recursive-matrix graph generator (Chakrabarti, Zhan, Faloutsos).

Each edge picks one quadrant of the adjacency matrix per scale bit with
probabilities (a, b, c, d); the result is the skewed, community-ish degree
structure the paper's BC benchmark runs on.  The generated graph is made
undirected, deduplicated, and stripped of self-loops, then stored in CSR form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import KernelError
from repro.sim.rng import RngStream


@dataclass(frozen=True)
class Graph:
    """Compressed-sparse-row undirected graph."""

    n: int
    indptr: np.ndarray  # int64, len n+1
    indices: np.ndarray  # int64, len 2m

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self.indices) // 2

    def degree(self, v: int) -> int:
        """Number of neighbors of ``v``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """The adjacency slice of ``v`` (a CSR view)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]


def rmat_graph(
    scale: int,
    edge_factor: int = 8,
    seed: int = 0,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> Graph:
    """An undirected R-MAT graph with ``2**scale`` vertices.

    ``edge_factor`` edges are *sampled* per vertex; self-loops and duplicates
    are removed, so the final edge count is somewhat smaller.
    """
    if scale < 1 or scale > 30:
        raise KernelError("scale must be in 1..30")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise KernelError("R-MAT probabilities must be non-negative and sum <= 1")
    n = 1 << scale
    m = n * edge_factor
    rng = RngStream(seed, "bc/rmat")
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for bit in range(scale):
        r = rng.uniform(size=m)
        # quadrant: a -> (0,0), b -> (0,1), c -> (1,0), d -> (1,1)
        right = ((r >= a) & (r < a + b)) | (r >= a + b + c)
        down = r >= a + b
        src = (src << 1) | down.astype(np.int64)
        dst = (dst << 1) | right.astype(np.int64)
    return _to_csr(n, src, dst)


def _to_csr(n: int, src: np.ndarray, dst: np.ndarray) -> Graph:
    keep = src != dst  # drop self-loops
    src, dst = src[keep], dst[keep]
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    packed = np.unique(lo * n + hi)  # dedup undirected pairs
    lo, hi = packed // n, packed % n
    # symmetrize
    heads = np.concatenate([lo, hi])
    tails = np.concatenate([hi, lo])
    order = np.argsort(heads, kind="stable")
    heads, tails = heads[order], tails[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.bincount(heads, minlength=n)
    np.cumsum(indptr, out=indptr)
    return Graph(n=n, indptr=indptr, indices=tails.astype(np.int64))


def graph_from_edges(n: int, edges) -> Graph:
    """Build a Graph from an explicit undirected edge list (for tests)."""
    if len(edges) == 0:
        return Graph(n=n, indptr=np.zeros(n + 1, dtype=np.int64), indices=np.empty(0, dtype=np.int64))
    arr = np.asarray(edges, dtype=np.int64)
    return _to_csr(n, arr[:, 0], arr[:, 1])
