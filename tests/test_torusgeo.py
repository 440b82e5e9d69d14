"""Tests for torus lines, aliasing, and the shortest-vector search."""

from fractions import Fraction

import pytest

from stitchlab.dances import PlanetDance
from stitchlab.kernel import TorusPoint, wrap
from stitchlab.torusgeo import (
    TorusLine,
    intersection_count,
    line_contains,
    minimal_vectors,
    natural_alias,
    shortest_sample_vector,
)


def _pt(x, y):
    return TorusPoint(wrap(Fraction(*x)), wrap(Fraction(*y)))


def test_torus_line_validation():
    with pytest.raises(ValueError):
        TorusLine(PlanetDance(6, 4), Fraction(0))
    with pytest.raises(ValueError):
        TorusLine(PlanetDance(1, 2), Fraction(3, 2))


def test_line_contains_through_origin():
    line = TorusLine(PlanetDance(3, 2), Fraction(0))
    assert line_contains(line, _pt((0, 1), (0, 1)))
    assert line_contains(line, _pt((3, 206), (2, 206)))
    assert line_contains(line, _pt((1, 3), (8, 9)))  # x wraps once at t=4/9
    assert not line_contains(line, _pt((3, 206), (105, 206)))
    assert not line_contains(line, _pt((1, 2), (1, 6)))


def test_line_contains_with_offset():
    line = TorusLine(PlanetDance(2, 1), Fraction(1, 6))
    # y = x/2 + 1/6 at x = 1/3 gives y = 1/3
    assert line_contains(line, _pt((1, 3), (1, 3)))
    assert not line_contains(line, _pt((1, 3), (1, 6)))


def test_line_contains_vertical():
    line = TorusLine(PlanetDance(0, 1), Fraction(1, 4))
    assert line_contains(line, _pt((1, 4), (2, 3)))
    assert not line_contains(line, _pt((1, 3), (2, 3)))


def test_intersection_count():
    assert intersection_count(PlanetDance(1, 2), PlanetDance(3, 2)) == 4
    assert intersection_count(PlanetDance(1, 0), PlanetDance(0, 1)) == 1
    assert intersection_count(PlanetDance(3, 2), PlanetDance(3, 2)) == 0


def test_intersection_count_requires_reduced():
    with pytest.raises(ValueError):
        intersection_count(PlanetDance(6, 4), PlanetDance(1, 0))
    with pytest.raises(ValueError):
        intersection_count(PlanetDance(0, 0), PlanetDance(1, 0))


def test_shortest_vector_known_cases():
    assert shortest_sample_vector(206, 35) == (6, 4)
    assert shortest_sample_vector(207, 35) == (6, 3)
    assert shortest_sample_vector(100, 34) == (3, 2)
    assert shortest_sample_vector(100, 2) == (1, 2)


def test_shortest_vector_trivial_modulus():
    # for m = 1 every integer pair is a lattice vector
    assert shortest_sample_vector(1, 0) == (1, 0)


def test_tie_detection():
    # (5, 2): (1, 2) and (2, -1) share the minimal norm
    analysis = natural_alias(5, 2)
    assert analysis.tie
    assert analysis.shortest_vector == (1, 2)
    assert len(minimal_vectors(5, 2)) > 1
    assert not natural_alias(206, 35).tie


def test_natural_alias_halved_graph():
    analysis = natural_alias(206, 35)
    assert analysis.reduced_dance == PlanetDance(3, 2)
    assert analysis.coset_count == 2
    assert analysis.reduced_rate == 103


def test_natural_alias_thirds_graph():
    analysis = natural_alias(207, 35)
    assert analysis.reduced_dance == PlanetDance(2, 1)
    assert analysis.coset_count == 3
    assert analysis.reduced_rate == 69


def test_natural_alias_axial_and_diagonal():
    axial = natural_alias(50, 25)
    assert axial.reduced_dance == PlanetDance(1, 0)
    assert axial.coset_count == 2
    diagonal = natural_alias(100, 51)
    assert diagonal.reduced_dance == PlanetDance(1, 1)
    assert diagonal.coset_count == 2


def test_natural_alias_validates():
    with pytest.raises(ValueError):
        natural_alias(0, 1)

