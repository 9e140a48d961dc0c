"""Metric space basics: windows, configurations, distance, cylinders."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equidyn import (
    Alphabet,
    CirclePoint,
    Configuration,
    Cylinder,
    IncompatibleConfigurations,
    InsufficientRadius,
    ball_cylinder,
    count_words,
    iter_words,
    window_cells,
    window_size,
    word_from_str,
    word_to_str,
)
from oracles import as_configuration, cantor_distance, circle_distance, compare_cylinders, contains

A2 = Alphabet(2)
A3 = Alphabet(3)


@pytest.mark.parametrize("sided,n,size,cells", [
    ("one", 0, 1, [0]),
    ("one", 3, 4, [0, 1, 2, 3]),
    ("two", 0, 1, [0]),
    ("two", 2, 5, [-2, -1, 0, 1, 2]),
])
def test_window_shape(sided, n, size, cells):
    assert window_size(sided, n) == size
    assert list(window_cells(sided, n)) == cells


def test_window_rejects_negative_radius():
    with pytest.raises(ValueError):
        window_size("one", -1)


def test_alphabet_bounds():
    with pytest.raises(ValueError):
        Alphabet(1)
    with pytest.raises(ValueError):
        Alphabet(257)
    assert Alphabet(256).size == 256


class TestConfiguration:
    def test_radius_one_sided(self):
        x = Configuration(A2, "one", (0, 1, 1))
        assert x.radius == 2
        assert x.at(0) == 0 and x.at(2) == 1

    def test_radius_two_sided(self):
        x = Configuration(A2, "two", (1, 0, 1, 1, 0))
        assert x.radius == 2
        assert x.at(0) == 1
        assert x.at(-2) == 1 and x.at(2) == 0

    def test_two_sided_needs_odd_length(self):
        with pytest.raises(ValueError):
            Configuration(A2, "two", (0, 1))

    def test_out_of_alphabet_symbol(self):
        with pytest.raises(ValueError):
            Configuration(A2, "one", (0, 2))

    def test_at_outside_window(self):
        x = Configuration(A2, "one", (0, 1))
        with pytest.raises(InsufficientRadius):
            x.at(5)

    def test_window(self):
        x = Configuration(A3, "two", (2, 1, 0, 1, 2))
        assert x.window(1) == (1, 0, 1)
        assert x.window(0) == (0,)
        with pytest.raises(InsufficientRadius):
            x.window(3)


class TestDistance:
    """Pinned values of the truncated Cantor metric."""

    def test_origin_mismatch_is_two(self):
        x = Configuration(A2, "one", (0, 1, 1, 0))
        y = Configuration(A2, "one", (1, 1, 1, 0))
        assert cantor_distance(x, y) == 2

    def test_window_zero_agreement(self):
        # agree at the origin only: strictly between 1 and 2
        x = Configuration(A2, "one", (0, 1, 1, 0))
        z = Configuration(A2, "one", (0, 0, 1, 0))
        assert cantor_distance(x, z) == Fraction(3, 2)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_reciprocal_levels(self, level):
        word = [0] * 5
        other = list(word)
        other[level + 1] = 1
        d = cantor_distance(
            Configuration(A2, "one", word), Configuration(A2, "one", other)
        )
        assert d == Fraction(1, level)

    def test_identical_truncations(self):
        x = Configuration(A2, "one", (0, 1, 1, 0))
        assert cantor_distance(x, Configuration(A2, "one", (0, 1, 1, 0))) == 0

    def test_radius_zero_identical(self):
        x = Configuration(A2, "one", (1,))
        assert cantor_distance(x, Configuration(A2, "one", (1,))) == 0

    def test_two_sided_negative_side_counts(self):
        x = Configuration(A2, "two", (0, 0, 0, 0, 0))
        y = Configuration(A2, "two", (1, 0, 0, 0, 0))
        # windows W_0 and W_1 agree; W_2 differs at index -2
        assert cantor_distance(x, y) == 1

    def test_agreement_beyond_shared_radius_raises(self):
        x = Configuration(A2, "one", (0, 1))
        y = Configuration(A2, "one", (0, 1, 0))
        with pytest.raises(InsufficientRadius):
            cantor_distance(x, y)

    def test_incompatible_operands(self):
        x = Configuration(A2, "one", (0,))
        y = Configuration(A2, "two", (0,))
        with pytest.raises(IncompatibleConfigurations):
            cantor_distance(x, y)
        with pytest.raises(IncompatibleConfigurations):
            cantor_distance(x, Configuration(A3, "one", (0,)))


@settings(max_examples=200)
@given(
    st.lists(st.integers(0, 1), min_size=5, max_size=5),
    st.lists(st.integers(0, 1), min_size=5, max_size=5),
    st.lists(st.integers(0, 1), min_size=5, max_size=5),
)
def test_ultrametric_on_equal_radius(a, b, c):
    """d(x,z) <= max(d(x,y), d(y,z)) and symmetry, on radius-4 words."""
    x = Configuration(A2, "one", a)
    y = Configuration(A2, "one", b)
    z = Configuration(A2, "one", c)
    dxy = cantor_distance(x, y)
    assert dxy == cantor_distance(y, x)
    assert cantor_distance(x, z) <= max(dxy, cantor_distance(y, z))
    assert (dxy == 0) == (a == b)


@pytest.mark.parametrize("sided", ["one", "two"])
def test_ball_equals_cylinder_exhaustive(sided):
    """d(x,y) <= 1/n exactly matches word agreement on W_n (n >= 1), |A| = 2."""
    radius = 3 if sided == "one" else 2
    width = window_size(sided, radius)
    words = list(itertools.product(range(2), repeat=width))
    for wx in words:
        x = Configuration(A2, sided, wx)
        for n in (1, 2):
            ball = ball_cylinder(x, n)
            for wy in words:
                y = Configuration(A2, sided, wy)
                inside = cantor_distance(x, y) <= Fraction(1, n)
                assert inside == contains(ball, y)


def test_ball_cylinder_requires_positive_radius():
    x = Configuration(A2, "one", (0, 1))
    with pytest.raises(ValueError):
        ball_cylinder(x, 0)
    with pytest.raises(InsufficientRadius):
        ball_cylinder(x, 2)


class TestCylinders:
    def test_contains(self):
        c = Cylinder(A2, "one", 1, (0, 1))
        assert contains(c, Configuration(A2, "one", (0, 1, 1)))
        assert not contains(c, Configuration(A2, "one", (1, 1, 1)))

    def test_word_length_checked(self):
        with pytest.raises(ValueError):
            Cylinder(A2, "one", 1, (0, 1, 1))

    @pytest.mark.parametrize("wa,wb,rel", [
        ((0, 1), (0, 1), "equal"),
        ((0, 1, 1), (0, 1), "a_in_b"),
        ((0, 1), (0, 1, 0), "b_in_a"),
        ((0, 1), (1, 1), "disjoint"),
    ])
    def test_compare(self, wa, wb, rel):
        a = Cylinder(A2, "one", len(wa) - 1, wa)
        b = Cylinder(A2, "one", len(wb) - 1, wb)
        assert compare_cylinders(a, b) == rel

    def test_as_configuration_roundtrip(self):
        c = Cylinder(A3, "two", 1, (2, 0, 1))
        x = as_configuration(c)
        assert x.symbols == (2, 0, 1) and x.radius == 1


def test_word_enumeration():
    assert count_words([2, 3, 2]) == 12
    seen = list(iter_words([2, 2]))
    assert seen == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert list(iter_words([])) == [()]


def test_word_string_roundtrip_small_alphabet():
    w = (0, 1, 1, 0)
    s = word_to_str(w, A2)
    assert s == "0110"
    assert word_from_str(s, A2) == w


def test_word_string_roundtrip_large_alphabet():
    big = Alphabet(16)
    w = (0, 15, 3)
    s = word_to_str(w, big)
    assert word_from_str(s, big) == w


def test_circle_distance_wraps():
    a = CirclePoint(Fraction(1, 10))
    b = CirclePoint(Fraction(9, 10))
    assert circle_distance(a, b) == Fraction(1, 5)
    assert circle_distance(a, a) == 0
    assert CirclePoint(Fraction(7, 3)).angle == Fraction(1, 3)
