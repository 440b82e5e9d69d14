"""Tests for torus lines, aliasing, and the shortest-vector search."""

import pytest

from stitchlab.dances import PlanetDance
from stitchlab.torusgeo import (
    intersection_count,
    minimal_vectors,
    natural_alias,
)


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
    assert natural_alias(206, 35).shortest_vector == (6, 4)
    assert natural_alias(207, 35).shortest_vector == (6, 3)
    assert natural_alias(100, 34).shortest_vector == (3, 2)
    assert natural_alias(100, 2).shortest_vector == (1, 2)


def test_shortest_vector_trivial_modulus():
    # for m = 1 every integer pair is a lattice vector
    assert natural_alias(1, 0).shortest_vector == (1, 0)


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

