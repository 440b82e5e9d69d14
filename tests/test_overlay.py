"""Tests for the rotated-overlay decomposition and family predictions."""

from fractions import Fraction

import pytest

from stitchlab.dances import PlanetDance, StitchGraph, mmt_chords
from stitchlab.overlay import overlay_decompose, predict_family


def test_overlay_halved_graph():
    dec = overlay_decompose(206, 35)
    assert [c.rotation for c in dec.cosets] == [Fraction(0), Fraction(1, 2)]
    assert [c.offset for c in dec.cosets] == [Fraction(0), Fraction(1, 6)]


def test_overlay_thirds_graph():
    dec = overlay_decompose(207, 35)
    assert [c.rotation for c in dec.cosets] == [
        Fraction(0), Fraction(1, 3), Fraction(2, 3)
    ]
    assert [c.offset for c in dec.cosets] == [
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
        for coset in dec.cosets:
            p, q = coset.offset.numerator, coset.offset.denominator
            assert 0 <= alpha * p < q
            for k, e in chords.rows[coset.index::d].tolist():
                assert (q * (beta * k - alpha * e) + alpha * p * m) % (m * q) == 0


def test_overlay_permuted_offsets():
    # (9, 6) aliases <1, 0> with d = 3, but coset 1 does not land on the
    # offset-1/3 line: the coset-to-offset assignment is a permutation.
    dec = overlay_decompose(9, 6)
    assert dec.analysis.reduced_dance == PlanetDance(1, 0)
    assert dec.analysis.coset_count == 3
    assert [c.offset for c in dec.cosets] == [
        Fraction(0), Fraction(2, 3), Fraction(1, 3)
    ]


def test_overlay_diagonal_has_no_rotation():
    dec = overlay_decompose(100, 51)
    assert dec.analysis.reduced_dance == PlanetDance(1, 1)
    assert [c.rotation for c in dec.cosets] == [None, None]
    assert [c.offset for c in dec.cosets] == [Fraction(0), Fraction(1, 2)]


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
    assert [c.rotation for c in dec.cosets] == [Fraction(0), Fraction(1, 3), Fraction(2, 3)]


def test_predict_floor_family():
    pred = predict_family(207, 6, "floor")
    r = 207 % 6
    assert (pred.a, pred.d) == (34, 3)
    assert pred.dance == PlanetDance(2, -1)
    assert pred.rotation_step == Fraction(1, 6 + r) == Fraction(1, 9)  # 1/(b + r)
    dec = overlay_decompose(207, pred.a)
    assert dec.analysis.coset_count == pred.d
    assert dec.analysis.reduced_dance == pred.dance
    assert [c.rotation for c in dec.cosets] == [Fraction(0), Fraction(1, 9), Fraction(2, 9)]


def test_predict_family_validation():
    with pytest.raises(ValueError):
        predict_family(207, 6, "round")
    with pytest.raises(ValueError):
        predict_family(12, 6, "ceiling")  # 6 divides 12
    with pytest.raises(ValueError):
        predict_family(5, 6, "ceiling")
