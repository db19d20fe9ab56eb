"""Tests for distributed K-Means."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.kernels.kmeans import (
    assign_and_accumulate,
    generate_points,
    initial_centroids,
    kmeans_reference,
    run_kmeans,
)
from repro.kernels.kmeans.kmeans import nearest_centroid, update_centroids

from tests.kernels.conftest import make_rt


def test_assign_and_accumulate_counts_points():
    points = np.array([[0.0, 0.0], [1.0, 1.0], [0.1, 0.0]])
    centroids = np.array([[0.0, 0.0], [1.0, 1.0]])
    sums, counts = assign_and_accumulate(points, centroids)
    np.testing.assert_array_equal(counts, [2, 1])
    np.testing.assert_allclose(sums[0], [0.1, 0.0])
    np.testing.assert_allclose(sums[1], [1.0, 1.0])


def _assign_and_accumulate_oracle(points, centroids):
    """The original formulation: fresh temporaries and unbuffered ``np.add.at``."""
    cross = points @ centroids.T
    c_sq = np.einsum("kd,kd->k", centroids, centroids)
    labels = np.argmin(c_sq[None, :] - 2.0 * cross, axis=1)
    k, d = centroids.shape
    sums = np.zeros((k, d))
    np.add.at(sums, labels, points)
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    return sums, counts, labels


def _assert_matches_oracle(points, centroids):
    points_before, centroids_before = points.copy(), centroids.copy()
    sums, counts = assign_and_accumulate(points, centroids)
    want_sums, want_counts, labels = _assign_and_accumulate_oracle(points, centroids)
    # the inputs are left untouched
    assert points.tobytes() == points_before.tobytes()
    assert centroids.tobytes() == centroids_before.tobytes()
    assert sums.dtype == want_sums.dtype and sums.shape == want_sums.shape
    assert sums.tobytes() == want_sums.tobytes()
    assert counts.dtype == want_counts.dtype
    assert counts.tobytes() == want_counts.tobytes()
    got = nearest_centroid(points, centroids)
    assert got.dtype == labels.dtype and got.tobytes() == labels.tobytes()
    return labels


_EXACT_SHAPES = [
    (4096, 64, 12),  # the simulated kernel's real-math shape
    (256, 8, 4),  # the portable/procs program's shape
    (1, 5, 3),  # a single point
    (50, 1, 3),  # a single centroid
    (40, 6, 1),  # one dimension
    (3, 10, 2),  # fewer points than centroids: empty clusters
    # straddling the classify block (CLASSIFY_BLOCK = 256 points)
    (255, 64, 12),
    (256, 64, 12),
    (257, 64, 12),
    (4097, 64, 12),
    # K = 13 and 16 dot products, with centroid counts that are not a
    # multiple of the BLAS kernel's unroll
    (600, 33, 13),
    (600, 33, 16),
    (300, 64, 16),
]


@pytest.mark.parametrize("n,k,dim", _EXACT_SHAPES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_assign_and_accumulate_is_bit_identical_to_add_at(n, k, dim, seed):
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.0, 1.0, size=(n, dim)) * rng.uniform(0.1, 1e3)
    centroids = points[rng.integers(0, n, size=k)] + rng.normal(0.0, 0.1, size=(k, dim))
    _assert_matches_oracle(points, centroids)


def test_assign_and_accumulate_breaks_ties_on_first_index():
    """Duplicated centroids tie exactly; argmin must keep the first."""
    rng = np.random.default_rng(3)
    points = rng.uniform(0.0, 1.0, size=(200, 3))
    base = rng.uniform(0.0, 1.0, size=(4, 3))
    centroids = np.vstack([base, base[::-1], base])  # every centroid thrice
    labels = _assert_matches_oracle(points, centroids)
    assert labels.max() < 4  # later duplicates never win
    # integer-valued inputs: points exactly midway between two centroids
    points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    centroids = np.array([[2.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
    labels = _assert_matches_oracle(points, centroids)
    np.testing.assert_array_equal(labels, [1, 0, 0, 0])  # (1,0) ties c0 and c1


@pytest.mark.parametrize("n", [255, 256, 257, 513, 4097])
@pytest.mark.parametrize("dim", [3, 12, 13, 16])
def test_ties_across_block_boundaries_go_to_the_first_index(n, dim):
    """Every centroid thrice, so every point ties exactly in every block:
    the earliest duplicate must win wherever the point falls."""
    rng = np.random.default_rng(n * 100 + dim)
    points = rng.uniform(0.0, 1.0, size=(n, dim))
    base = rng.uniform(0.0, 1.0, size=(11, dim))
    centroids = np.vstack([base, base[::-1], base])  # k = 33
    labels = _assert_matches_oracle(points, centroids)
    assert labels.max() < 11  # later duplicates never win
    # the same centroids as the first and last of a 64-wide row
    centroids = rng.uniform(0.0, 1.0, size=(64, dim))
    centroids[63] = centroids[0]
    centroids[32] = centroids[1]
    labels = _assert_matches_oracle(points, centroids)
    assert not np.isin(labels, [32, 63]).any()


def test_empty_cluster_keeps_centroid():
    centroids = np.array([[0.0, 0.0], [5.0, 5.0]])
    sums = np.array([[2.0, 2.0], [0.0, 0.0]])
    counts = np.array([2.0, 0.0])
    out = update_centroids(centroids, sums, counts)
    np.testing.assert_allclose(out[0], [1.0, 1.0])
    np.testing.assert_allclose(out[1], [5.0, 5.0])  # unchanged


def _masked_update(centroids, sums, counts):
    """The masked-assignment formulation, kept as the byte-equality oracle."""
    out = centroids.copy()
    mask = counts > 0
    out[mask] = sums[mask] / counts[mask, None]
    return out


def _update_cases():
    for seed in range(3):
        for n, k, dim in ((256, 8, 4), (4096, 64, 12), (5, 1, 3), (3, 9, 2)):
            rng = np.random.default_rng(seed)
            points = rng.uniform(0.0, 1.0, size=(n, dim))
            centroids = rng.uniform(0.0, 1.0, size=(k, dim))
            sums, counts = assign_and_accumulate(points, centroids)
            yield f"seed{seed}-{n}x{k}x{dim}", centroids, sums, counts
    # hand-made empty clusters, and every cluster empty
    centroids = np.arange(12.0).reshape(4, 3) / 7.0
    sums = np.arange(12.0).reshape(4, 3) / 3.0
    yield "some-empty", centroids, sums, np.array([3.0, 0.0, 7.0, 0.0])
    yield "all-empty", centroids, np.zeros((4, 3)), np.zeros(4)
    yield "k1-empty", centroids[:1], np.zeros((1, 3)), np.zeros(1)


def test_update_centroids_is_byte_equal_to_the_masked_form():
    """Same IEEE division per non-empty row, same untouched empty rows: the
    bytes must match the masked formulation exactly, inputs unmodified."""
    cases = list(_update_cases())
    assert any((counts == 0).any() for _, _, _, counts in cases[:12])  # seeded empties
    for name, centroids, sums, counts in cases:
        before = (centroids.tobytes(), sums.tobytes(), counts.tobytes())
        out = update_centroids(centroids, sums, counts)
        expected = _masked_update(centroids, sums, counts)
        assert out.dtype == expected.dtype and out.shape == expected.shape, name
        assert out.tobytes() == expected.tobytes(), name
        assert (centroids.tobytes(), sums.tobytes(), counts.tobytes()) == before, name
        assert out is not centroids


def test_reference_converges_on_separated_clusters():
    rng = np.random.default_rng(0)
    blob_a = rng.normal(0.0, 0.05, size=(100, 2))
    blob_b = rng.normal(5.0, 0.05, size=(100, 2))
    points = np.vstack([blob_a, blob_b])
    start = np.array([[0.5, 0.5], [4.0, 4.0]])
    final = kmeans_reference(points, start, iterations=10)
    np.testing.assert_allclose(sorted(final[:, 0]), [0.0, 5.0], atol=0.05)


def test_distributed_matches_reference_exactly():
    """Distributed Lloyd's with All-Reduce converges to the same centroids as
    single-node Lloyd's on the concatenated points, up to 1e-9.  The
    per-place partial sums are combined in a different order than the
    single-node sum, so only agreement to rounding is asserted."""
    places, n, k, dim, iters, seed = 4, 50, 8, 3, 4, 7
    rt = make_rt(places=places)
    result = run_kmeans(
        rt, points_per_place=n, k=k, dim=dim, iterations=iters, seed=seed,
        actual_points=n, actual_k=k,
    )
    assert result.verified
    all_points = np.vstack([generate_points(seed, p, n, dim) for p in range(places)])
    expected = kmeans_reference(all_points, initial_centroids(seed, k, dim), iters)
    np.testing.assert_allclose(result.extra["centroids"], expected, atol=1e-9)


def test_all_places_agree_on_centroids():
    rt = make_rt(places=8)
    result = run_kmeans(rt, points_per_place=40, k=4, dim=2, iterations=3, actual_points=40, actual_k=4)
    assert result.verified


def test_weak_scaling_run_time_nearly_flat():
    """Paper: 6.13 s at 1 place -> 6.27 s at 47,040 (>= 97% efficiency)."""

    def run_at(places):
        rt = make_rt(places=places)
        return run_kmeans(rt, points_per_place=40_000, k=512, dim=12, iterations=3).value

    t1 = run_at(1)
    t64 = run_at(64)
    assert t64 / t1 < 1.12  # allreduce overhead stays small


def test_invalid_parameters_rejected():
    rt = make_rt()
    with pytest.raises(KernelError):
        run_kmeans(rt, points_per_place=0)
