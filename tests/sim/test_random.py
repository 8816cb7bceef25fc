"""Unit tests for named reproducible RNG streams."""

import numpy as np

from repro.sim import RngStreams


def test_same_seed_same_name_same_draws():
    a = RngStreams(7).stream("x")
    b = RngStreams(7).stream("x")
    assert np.array_equal(a.random(16), b.random(16))


def test_different_names_independent():
    s = RngStreams(7)
    a = s.stream("a").random(16)
    b = s.stream("b").random(16)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = RngStreams(1).stream("x").random(16)
    b = RngStreams(2).stream("x").random(16)
    assert not np.array_equal(a, b)


def test_stream_is_cached_and_stateful():
    s = RngStreams(0)
    g1 = s.stream("x")
    first = g1.random(4)
    g2 = s.stream("x")
    assert g1 is g2
    second = g2.random(4)
    assert not np.array_equal(first, second)  # state advanced


def test_adding_new_stream_does_not_perturb_existing():
    s1 = RngStreams(5)
    draw_before = s1.stream("existing").random(8)

    s2 = RngStreams(5)
    s2.stream("newcomer").random(8)  # a new consumer appears first
    draw_after = s2.stream("existing").random(8)
    assert np.array_equal(draw_before, draw_after)
