"""Tests for the rotated-overlay decomposition and family predictions."""

import math
from fractions import Fraction

import pytest

from stitchlab.dances import PlanetDance, StitchGraph, mmt_chords
from stitchlab.overlay import overlay_decompose, predict_family
from stitchlab.torusgeo import natural_alias


def offsets(dec):
    return [dec.offset(k) for k in range(len(dec.numerators))]


def rotations(dec):
    return [dec.rotation(k) for k in range(len(dec.numerators))]


def reference_cosets(m, a):
    """(offset, rotation) of each coset of MMT(m, a), from the two
    `Fraction`s per coset that the decomposition once stored."""
    analysis = natural_alias(m, a)
    alpha, beta = analysis.reduced_dance.alpha, analysis.reduced_dance.beta
    span = abs(alpha - beta)
    cosets = []
    for k in range(analysis.coset_count):
        n = (alpha * analysis.a - beta) * k % m
        # -n/(m*span) when alpha < beta, brought into [0, 1/span)
        rotation = (Fraction(n if alpha > beta else -n % m, m * span)
                    if span else None)
        cosets.append((Fraction(n, alpha * m), rotation))
    return cosets


@pytest.mark.parametrize("graphs", [
    [(m, a) for m in range(1, 61) for a in range(m)],
    [(10**6, 1000)],  # d = 1000
], ids=["m<=60", "MMT(1e6,1000)"])
def test_offsets_and_rotations_match_the_fraction_loop(graphs):
    for m, a in graphs:
        dec = overlay_decompose(m, a)
        assert all(type(n) is int for n in dec.numerators)
        assert list(zip(offsets(dec), rotations(dec))) == reference_cosets(m, a), (m, a)


def test_decomposition_passes_the_alias_analysis_through():
    # `analyze` prints the decomposition's analysis; the shortest_vector
    # suite checks natural_alias itself, so the two must agree
    for m in range(1, 61):
        for a in range(m):
            assert overlay_decompose(m, a).analysis == natural_alias(m, a), (m, a)


def test_overlay_halved_graph():
    dec = overlay_decompose(206, 35)
    assert dec.numerators == (0, 103)
    assert rotations(dec) == [Fraction(0), Fraction(1, 2)]
    assert offsets(dec) == [Fraction(0), Fraction(1, 6)]


def test_overlay_thirds_graph():
    dec = overlay_decompose(207, 35)
    assert rotations(dec) == [
        Fraction(0), Fraction(1, 3), Fraction(2, 3)
    ]
    assert offsets(dec) == [
        Fraction(0), Fraction(1, 6), Fraction(1, 3)
    ]


def test_overlay_coset_membership_is_exact():
    # chord (k/m, e/m) lies on the line in direction (alpha, beta) with
    # offset p/q iff beta*k/m - alpha*e/m + alpha*p/q is an integer
    for m, a in [(206, 35), (207, 35), (9, 6), (100, 51), (1, 0)]:
        dec = overlay_decompose(m, a)
        d = dec.analysis.coset_count
        chords = mmt_chords(StitchGraph(m, a))
        assert chords.den == m
        alpha, beta = dec.analysis.reduced_dance.alpha, dec.analysis.reduced_dance.beta
        for index, offset in enumerate(offsets(dec)):
            p, q = offset.numerator, offset.denominator
            assert 0 <= alpha * p < q
            for k, e in chords.rows[index::d].tolist():
                assert (q * (beta * k - alpha * e) + alpha * p * m) % (m * q) == 0


def test_overlay_permuted_offsets():
    # (9, 6) aliases <1, 0> with d = 3, but coset 1 does not land on the
    # offset-1/3 line: the coset-to-offset assignment is a permutation.
    dec = overlay_decompose(9, 6)
    assert dec.analysis.reduced_dance == PlanetDance(1, 0)
    assert dec.analysis.coset_count == 3
    assert dec.numerators == (0, 6, 3)
    assert offsets(dec) == [
        Fraction(0), Fraction(2, 3), Fraction(1, 3)
    ]
    assert rotations(dec) == offsets(dec)  # <1, 0>: n/m both


def test_overlay_diagonal_has_no_rotation():
    dec = overlay_decompose(100, 51)
    assert dec.analysis.reduced_dance == PlanetDance(1, 1)
    assert rotations(dec) == [None, None]
    assert offsets(dec) == [Fraction(0), Fraction(1, 2)]


def test_predict_ceiling_family():
    # m = 207, b = 6: r = 3, a = ceil(207/6) = 35
    pred = predict_family(207, 6, "ceiling")
    r = 207 % 6
    assert (pred.a, pred.d) == (35, 3)
    assert pred.dance == PlanetDance(2, 1)
    assert pred.rotation_step == Fraction(1, r) == Fraction(1, 3)
    dec = overlay_decompose(207, pred.a)
    assert dec.analysis.coset_count == pred.d
    assert dec.analysis.reduced_dance == pred.dance
    assert rotations(dec) == [Fraction(0), Fraction(1, 3), Fraction(2, 3)]


def test_predict_floor_family():
    pred = predict_family(207, 6, "floor")
    r = 207 % 6
    assert (pred.a, pred.d) == (34, 3)
    assert pred.dance == PlanetDance(2, -1)
    assert pred.rotation_step == Fraction(1, 6 + r) == Fraction(1, 9)  # 1/(b + r)
    dec = overlay_decompose(207, pred.a)
    assert dec.analysis.coset_count == pred.d
    assert dec.analysis.reduced_dance == pred.dance
    assert rotations(dec) == [Fraction(0), Fraction(1, 9), Fraction(2, 9)]


def test_predict_family_multiplier_by_integer_division():
    for m in range(3, 2001):
        for b in range(2, min(m, 13)):
            if m % b:
                assert predict_family(m, b, "ceiling").a == math.ceil(m / b), (m, b)
                assert predict_family(m, b, "floor").a == math.floor(m / b), (m, b)


def test_predict_family_validation():
    # m / b in floating point is 2 short of the ceiling at 10**17 + 1 and
    # overflows at 10**400; both are past the input cap
    for m in (10**17 + 1, 10**400):
        with pytest.raises(ValueError, match="exceeds the cap"):
            predict_family(m, 3, "ceiling")
    with pytest.raises(ValueError):
        predict_family(207, 6, "round")
    with pytest.raises(ValueError):
        predict_family(12, 6, "ceiling")  # 6 divides 12
    with pytest.raises(ValueError):
        predict_family(5, 6, "ceiling")
