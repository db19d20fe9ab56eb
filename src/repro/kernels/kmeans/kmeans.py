"""K-Means: Lloyd's algorithm (paper Section 7).

Points are partitioned across places.  In parallel at each place we classify
the points by nearest centroid and compute the average positions of the
per-place points in each cluster; two All-Reduce collectives then compute the
global sums and counts, providing updated centroids for the next iteration.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import KernelError
from repro.harness.calibration import DEFAULT_CALIBRATION, Calibration
from repro.harness.results import KernelResult, checksum_bytes
from repro.resilient import CheckpointHooks, EpochCoordinator, ResilientStore
from repro.runtime import PlaceGroup, Team, broadcast_spawn
from repro.runtime.runtime import ApgasRuntime
from repro.sim.rng import RngStream

#: flops per point-centroid pair in the classify step (sub, mul, add per dim)
FLOPS_PER_PAIR_PER_DIM = 3

#: most points classified per GEMM: a block's distances stay in cache, and
#: at the simulated shape (256 x 12 x 64) each GEMM stays below OpenBLAS's
#: threading threshold, so no second BLAS thread spins between calls
CLASSIFY_BLOCK = 256


def generate_points(seed: int, place: int, n: int, dim: int) -> np.ndarray:
    """The point block owned by ``place`` (deterministic in (seed, place))."""
    # random() draws the bits of uniform(0.0, 1.0) (0 + 1 * u) in one pass
    rng = RngStream(seed, f"kmeans/points/{place}")
    return rng.random((n, dim))


def initial_centroids(seed: int, k: int, dim: int) -> np.ndarray:
    """Arbitrary initial centroids, identical at every place."""
    rng = RngStream(seed, "kmeans/centroids")
    return rng.random((k, dim))


def nearest_centroid(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Label each point with the first index minimising ``||c||^2 - 2 x.c``."""
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2; the x^2 term is constant per point.
    # Per block of points: one GEMM against (-2 c)^T, laid out like
    # ``points @ centroids.T`` so BLAS sums each dot product in the same
    # order, then one contiguous add of a pre-tiled ||c||^2 block.  Scaling
    # by -2 is exact and the add rounds once, so every distance has the bits
    # of ||c||^2 - 2 x.c computed over the whole array.  Blocks are sized
    # evenly: a 1-row tail would go to GEMV, which sums in another order.
    n = points.shape[0]
    blocks = max(1, -(-n // CLASSIFY_BLOCK))
    rows = max(1, -(-n // blocks))
    w = np.multiply(centroids, -2.0).T
    c_sq = np.empty((rows, centroids.shape[0]))
    c_sq[:] = np.einsum("kd,kd->k", centroids, centroids)
    dist = np.empty_like(c_sq)
    labels = np.empty(n, dtype=np.intp)
    for b in range(blocks):
        s, e = b * n // blocks, (b + 1) * n // blocks
        block = dist[: e - s]
        np.matmul(points[s:e], w, out=block)
        np.add(block, c_sq[: e - s], out=block)
        block.argmin(axis=1, out=labels[s:e])
    return labels


def assign_and_accumulate(points: np.ndarray, centroids: np.ndarray):
    """Classify points by nearest centroid; returns (sums k x d, counts k).

    Exactness contract (relied on by the golden corpus, sim-vs-procs
    conformance and resilient recovery checksums): labels come from
    :func:`nearest_centroid`, so argmin ties go to the first index, and each
    ``sums[c, j]`` is a float64 sum that starts at zero and adds
    ``points[i, j]`` in point order.  Inputs are not modified.
    """
    labels = nearest_centroid(points, centroids)
    k, d = centroids.shape
    sums = np.empty((k, d))
    for j in range(d):
        sums[:, j] = np.bincount(labels, weights=points[:, j], minlength=k)
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    return sums, counts


def update_centroids(centroids: np.ndarray, sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """New centroids = cluster means; empty clusters keep their centroid.

    Each non-empty row is ``sums[c] / counts[c]``, the same IEEE division as
    a masked ``out[mask] = sums[mask] / counts[mask, None]``, written in
    place without gathering or scattering the selected rows.
    """
    out = centroids.copy()
    np.divide(sums, counts[:, None], out=out, where=(counts > 0)[:, None])
    return out


def kmeans_reference(points: np.ndarray, centroids: np.ndarray, iterations: int) -> np.ndarray:
    """Single-node Lloyd's, used as the correctness oracle."""
    c = centroids.copy()
    for _ in range(iterations):
        sums, counts = assign_and_accumulate(points, c)
        c = update_centroids(c, sums, counts)
    return c


def build_kmeans(
    rt: ApgasRuntime,
    points_per_place: int,
    k: int = 4096,
    dim: int = 12,
    iterations: int = 5,
    seed: int = 0,
    actual_points: Optional[int] = None,
    actual_k: Optional[int] = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
    resilient: bool = False,
    respawn_delay: float = 2e-3,
    group: Optional[PlaceGroup] = None,
):
    """Build the K-Means program over ``group``; returns ``(main, finalize)``.

    Point blocks are generated by group *rank*, so the converged centroids
    depend only on the parameters and the group width.
    """
    if min(points_per_place, k, dim, iterations) < 1:
        raise KernelError("kmeans parameters must be positive")
    pg = PlaceGroup.world(rt) if group is None else group
    places = list(pg)
    rank_of = {p: i for i, p in enumerate(places)}
    if resilient and places != list(range(rt.n_places)):
        raise KernelError("resilient kmeans requires the whole-machine place group")
    real_n = min(points_per_place, 4096) if actual_points is None else actual_points
    real_k = min(k, 64) if actual_k is None else actual_k
    team = Team(rt, places)
    final = {}
    flops_per_iter = points_per_place * k * dim * FLOPS_PER_PAIR_PER_DIM

    def iterate(ctx, points, centroids):
        sums, counts = assign_and_accumulate(points, centroids)
        yield ctx.compute(flops=flops_per_iter, flop_rate=calibration.kmeans_flops)
        # two All-Reduce collectives compute the global averages
        global_sums = yield team.allreduce(ctx, sums)
        global_counts = yield team.allreduce(ctx, counts)
        return update_centroids(centroids, global_sums, global_counts)

    if resilient:
        main = _make_resilient_main(
            rt, iterate, real_n=real_n, real_k=real_k, dim=dim, seed=seed,
            iterations=iterations, points_per_place=points_per_place, k=k,
            final=final, respawn_delay=respawn_delay,
        )
    else:

        def body(ctx):
            points = generate_points(seed, rank_of[ctx.here], real_n, dim)
            centroids = initial_centroids(seed, real_k, dim)
            for _ in range(iterations):
                centroids = yield from iterate(ctx, points, centroids)
            final[ctx.here] = centroids

        def main(ctx):
            yield from broadcast_spawn(ctx, pg, body)

    def finalize(elapsed: Optional[float] = None) -> KernelResult:
        t = rt.now if elapsed is None else elapsed
        centroids = final[places[0]]
        agreement = all(np.array_equal(final[p], centroids) for p in final)
        return KernelResult(
            kernel="kmeans",
            places=len(places),
            sim_time=t,
            value=t,
            unit="s",
            per_core=t,  # the paper reports run time; efficiency is time-based
            verified=agreement,
            extra={
                "centroids": centroids,
                "iterations": iterations,
                "checksum": checksum_bytes(np.ascontiguousarray(centroids).tobytes()),
            },
        )

    return main, finalize


def run_kmeans(
    rt: ApgasRuntime,
    points_per_place: int,
    k: int = 4096,
    dim: int = 12,
    iterations: int = 5,
    seed: int = 0,
    actual_points: Optional[int] = None,
    actual_k: Optional[int] = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
    resilient: bool = False,
    respawn_delay: float = 2e-3,
    group: Optional[PlaceGroup] = None,
) -> KernelResult:
    """Weak-scaling distributed K-Means; paper parameters are the defaults.

    ``actual_points`` / ``actual_k`` bound the real math at scale while time
    is charged for the modeled ``points_per_place`` x ``k`` problem.

    With ``resilient`` every iteration is a checkpoint epoch: each place's
    point partition (epoch 0) and rank 0's centroids (every epoch) go to the
    replicated store, so a chaos kill costs one re-executed iteration and the
    final centroids are bit-identical to the fault-free run.
    """
    main, finalize = build_kmeans(
        rt,
        points_per_place,
        k=k,
        dim=dim,
        iterations=iterations,
        seed=seed,
        actual_points=actual_points,
        actual_k=actual_k,
        calibration=calibration,
        resilient=resilient,
        respawn_delay=respawn_delay,
        group=group,
    )
    rt.run(main)
    return finalize()


def _make_resilient_main(
    rt, iterate, *, real_n, real_k, dim, seed, iterations,
    points_per_place, k, final, respawn_delay,
):
    """Build the epoch-coordinated main for the resilient K-Means variant."""
    store = ResilientStore(rt, name="kmeans")
    part: dict[int, dict] = {}  # the simulated PGAS-local state per place
    points_nbytes = points_per_place * dim * 8  # modeled partition size
    centroids_nbytes = k * dim * 8

    def checkpoint(ctx, epoch, st):
        here = ctx.here
        if epoch == 0:
            # the input partition is written once; restores quorum-read it
            yield from st.put(
                ctx, f"points/{here}", part[here]["points"], epoch,
                nbytes=points_nbytes,
            )
        if here == 0:
            yield from st.put(
                ctx, "centroids", part[here]["centroids"], epoch,
                nbytes=centroids_nbytes,
            )

    def restore(ctx, epoch, st):
        here = ctx.here
        if epoch < 0:
            # before any commit: (re)initialize from the deterministic seeds
            part[here] = {
                "points": generate_points(seed, here, real_n, dim),
                "centroids": initial_centroids(seed, real_k, dim),
            }
            return
        state = part.get(here)
        if state is None or "points" not in state:
            _version, points = yield from st.get(ctx, f"points/{here}")
            if points is None:  # written at epoch 0, so always committed here
                points = generate_points(seed, here, real_n, dim)
            part[here] = state = {"points": points}
        _version, centroids = yield from st.get(ctx, "centroids")
        state["centroids"] = centroids

    hooks = CheckpointHooks(checkpoint=checkpoint, restore=restore)
    coordinator = EpochCoordinator(rt, store, hooks, respawn_delay=respawn_delay)

    def epoch_body(ctx, epoch):
        state = part[ctx.here]
        state["centroids"] = yield from iterate(
            ctx, state["points"], state["centroids"]
        )

    def main(ctx):
        yield from coordinator.run(ctx, iterations, epoch_body)
        for place, state in part.items():
            final[place] = state["centroids"]

    return main
