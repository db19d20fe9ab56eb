"""Unit and property tests for reproducible RNG streams."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RngStream


def test_same_key_same_draws():
    a = RngStream(7, "net")
    b = RngStream(7, "net")
    assert np.array_equal(a.integers(0, 1 << 30, size=100), b.integers(0, 1 << 30, size=100))


def test_different_names_differ():
    a = RngStream(7, "net")
    b = RngStream(7, "glb")
    assert not np.array_equal(a.integers(0, 1 << 30, size=100), b.integers(0, 1 << 30, size=100))


def test_different_seeds_differ():
    a = RngStream(1, "net")
    b = RngStream(2, "net")
    assert not np.array_equal(a.integers(0, 1 << 30, size=100), b.integers(0, 1 << 30, size=100))


def test_child_streams_reproducible_and_distinct():
    parent = RngStream(3, "root")
    c1 = parent.child("a")
    c2 = parent.child("b")
    c1_again = RngStream(3, "root").child("a")
    assert np.array_equal(c1.uniform(size=50), c1_again.uniform(size=50))
    assert not np.array_equal(
        RngStream(3, "root/a").uniform(size=50), c2.uniform(size=50)
    )


def test_child_key_is_hierarchical_not_concatenation_collision():
    # "a/b" from root "r" must equal stream named "r/a/b"
    via_child = RngStream(5, "r").child("a").child("b")
    direct = RngStream(5, "r/a/b")
    assert np.array_equal(via_child.uniform(size=10), direct.uniform(size=10))


@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=0, max_size=40))
@settings(max_examples=30, deadline=None)
def test_streams_are_pure_functions_of_seed_and_name(seed, name):
    a = RngStream(seed, name).uniform(size=8)
    b = RngStream(seed, name).uniform(size=8)
    assert np.array_equal(a, b)


def test_uniform_bounds_and_exponential_positive():
    s = RngStream(11, "bounds")
    u = s.uniform(2.0, 3.0, size=1000)
    assert (u >= 2.0).all() and (u < 3.0).all()
    e = s.exponential(0.5, size=1000)
    assert (e >= 0).all()


def test_random_is_byte_equal_to_unit_uniform():
    """``random`` is ``uniform(0.0, 1.0)`` without the ``0 + 1 * u`` pass:
    K-Means draws its points with it and relies on the same bits."""
    for seed in range(5):
        for place in range(20):
            name = f"kmeans/points/{place}"
            want = RngStream(seed, name).uniform(0.0, 1.0, size=(37, 12))
            got = RngStream(seed, name).random((37, 12))
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    # the stream position advances identically, so later draws agree too
    a, b = RngStream(9, "s"), RngStream(9, "s")
    a.uniform(0.0, 1.0, size=5)
    b.random(5)
    assert a.integers(0, 1 << 30, size=10).tobytes() == b.integers(0, 1 << 30, size=10).tobytes()
