"""Tests for torus lines, aliasing, and the shortest-vector search."""

from itertools import permutations
from math import gcd

import pytest

from stitchlab import dances, torusgeo
from stitchlab.dances import PlanetDance
from stitchlab.torusgeo import (
    intersection_count,
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



def _norm2(v):
    return v[0] * v[0] + v[1] * v[1]


def _orient(v):
    p, q = v
    if p < 0 or (p == 0 and q < 0):
        return (-p, -q)
    return (p, q)


def _reference_alias(m, a):
    """The helper chain that `natural_alias` replaced: minimal vectors from
    a Lagrange-Gauss reduction, the tie-break, the gcd reduction of the
    vector's dance and the rate, as (vector, dance, d, m', tie, half).
    Its quotient rounds halves away from zero; `half` marks a reduction
    that met a quotient -(j + 1/2), which `natural_alias` rounds up."""
    a %= m
    b1, b2 = (1, a), (0, m)
    if _norm2(b1) > _norm2(b2):
        b1, b2 = b2, b1
    half = False
    while True:
        n1 = _norm2(b1)
        dot = b1[0] * b2[0] + b1[1] * b2[1]
        half |= dot < 0 and 2 * dot % (2 * n1) == n1
        mu = (2 * dot + n1) // (2 * n1) if dot >= 0 else -((2 * -dot + n1) // (2 * n1))
        b2 = (b2[0] - mu * b1[0], b2[1] - mu * b1[1])
        if _norm2(b2) >= _norm2(b1):
            break
        b1, b2 = b2, b1
    candidates = [b1, b2, (b1[0] + b2[0], b1[1] + b2[1]),
                  (b1[0] - b2[0], b1[1] - b2[1])]
    minima = sorted({_orient(v) for v in candidates if _norm2(v) == _norm2(b1)})
    pool = [v for v in minima if v[0] * v[1] > 0] or minima
    p, q = min(pool, key=lambda v: abs(v[1]))
    dance = PlanetDance(p, q)
    g = gcd(abs(dance.alpha), abs(dance.beta))
    if g > 1:
        dance = PlanetDance(dance.alpha // g, dance.beta // g)
    rate = gcd(dance.alpha * a - dance.beta, m)
    return (p, q), dance, m // rate, rate, len(minima) > 1, half


def test_natural_alias_matches_reference_chain():
    halves = []
    for m in range(1, 301):
        for a in range(m):
            analysis = natural_alias(m, a)
            found = (analysis.shortest_vector, analysis.reduced_dance,
                     analysis.coset_count, analysis.reduced_rate, analysis.tie)
            *reference, half = _reference_alias(m, a)
            assert found == tuple(reference), (m, a)
            if half:
                halves.append((m, a))
            assert analysis.m == m and analysis.a == a
            assert type(analysis.reduced_dance) is PlanetDance
    # the two roundings differ on these, and any nearest integer leaves a
    # reduced basis, which holds every shortest vector
    assert len(halves) == 524 and halves[0] == (4, 2)
    # a multiplier outside [0, m) is reduced first
    assert natural_alias(100, -66) == natural_alias(100, 34)


def test_pick_is_the_same_in_any_order(monkeypatch):
    # two canonical minima of equal |q| are (p, q) and (p, -q), and p*q > 0
    # keeps one, so every order of a graph's minima gives its vector
    seen = []
    real = torusgeo._pick
    monkeypatch.setattr(torusgeo, "_pick", lambda minima: seen.append(minima) or real(minima))
    ties = 0
    for m in range(1, 301):
        for a in range(m):
            seen.clear()
            vector = natural_alias(m, a).shortest_vector
            (minima,) = seen
            assert {real(list(order)) for order in permutations(minima)} == {vector}, (m, a)
            ties += len(minima) > 1
    assert ties > 0


def test_natural_alias_checks_input_size_once(monkeypatch):
    # m through check_size and a through check_input_size, once each, then
    # the reduced dance's two speeds through the PlanetDance it builds
    calls = []
    for name in ("check_size", "check_input_size"):
        def counted(*values, real=getattr(torusgeo, name), name=name):
            calls.append((name, *values))
            real(*values)

        monkeypatch.setattr(torusgeo, name, counted)
        monkeypatch.setattr(dances, name, counted)
    for m, a, speeds in [(1, 0, (1, 0)), (5, 2, (1, 2)), (206, 35, (3, 2)),
                         (1000000, 999999, (1, -1))]:
        calls.clear()
        natural_alias(m, a)
        assert calls == [("check_size", "modulus", m), ("check_input_size", a),
                         ("check_input_size", *speeds)]
    with pytest.raises(ValueError, match="exceeds the cap"):
        natural_alias(1000001, 3)
