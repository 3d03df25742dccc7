"""Tests for reproducible named RNG streams."""

import numpy as np

from repro.sim import RngRegistry


def test_same_name_same_stream_object():
    reg = RngRegistry(seed=1)
    assert reg.stream("a") is reg.stream("a")


def test_streams_reproducible_across_registries():
    a = RngRegistry(seed=7).stream("channel.awgn").random(8)
    b = RngRegistry(seed=7).stream("channel.awgn").random(8)
    np.testing.assert_array_equal(a, b)


def test_streams_independent_of_creation_order():
    r1 = RngRegistry(seed=3)
    r1.stream("x")
    a = r1.stream("y").random(4)
    r2 = RngRegistry(seed=3)
    b = r2.stream("y").random(4)  # "y" created first here
    np.testing.assert_array_equal(a, b)


def test_different_names_give_different_draws():
    reg = RngRegistry(seed=5)
    a = reg.stream("a").random(16)
    b = reg.stream("b").random(16)
    assert not np.array_equal(a, b)


def test_different_seeds_give_different_draws():
    a = RngRegistry(seed=1).stream("s").random(16)
    b = RngRegistry(seed=2).stream("s").random(16)
    assert not np.array_equal(a, b)

