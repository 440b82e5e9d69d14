"""Tests for the rotated-overlay decomposition and family predictions."""

from fractions import Fraction

import pytest

from stitchlab.dances import PlanetDance, StitchGraph, mmt_chords
from stitchlab.kernel import ChordSet, TorusPoint, wrap
from stitchlab.overlay import line_through, overlay_decompose, predict_family
from stitchlab.torusgeo import line_contains


def test_line_through_point():
    line = line_through(PlanetDance(2, 1), Fraction(1, 207), Fraction(35, 207))
    assert line_contains(line, TorusPoint(wrap(Fraction(1, 207)),
                                          wrap(Fraction(35, 207))))
    assert line.offset == Fraction(1, 6)


def test_overlay_halved_graph():
    dec = overlay_decompose(206, 35)
    assert [c.rotation for c in dec.cosets] == [Fraction(0), Fraction(1, 2)]
    assert [c.line.offset for c in dec.cosets] == [Fraction(0), Fraction(1, 6)]


def test_overlay_thirds_graph():
    dec = overlay_decompose(207, 35)
    assert [c.rotation for c in dec.cosets] == [
        Fraction(0), Fraction(1, 3), Fraction(2, 3)
    ]
    assert [c.line.offset for c in dec.cosets] == [
        Fraction(0), Fraction(1, 6), Fraction(1, 3)
    ]


def test_overlay_coset_membership_is_exact():
    for m, a in [(206, 35), (207, 35), (9, 6), (100, 51)]:
        dec = overlay_decompose(m, a)
        d = dec.analysis.coset_count
        rows = mmt_chords(StitchGraph(m, a)).rows
        for coset in dec.cosets:
            for chord in ChordSet.from_rows(m, rows[coset.index::d]):
                pt = TorusPoint(chord.start, chord.end)
                assert line_contains(coset.line, pt)


def test_overlay_permuted_offsets():
    # (9, 6) aliases <1, 0> with d = 3, but coset 1 does not land on the
    # offset-1/3 line: the coset-to-offset assignment is a permutation.
    dec = overlay_decompose(9, 6)
    assert dec.analysis.reduced_dance == PlanetDance(1, 0)
    assert dec.analysis.coset_count == 3
    assert [c.line.offset for c in dec.cosets] == [
        Fraction(0), Fraction(2, 3), Fraction(1, 3)
    ]


def test_overlay_diagonal_has_no_rotation():
    dec = overlay_decompose(100, 51)
    assert dec.analysis.reduced_dance == PlanetDance(1, 1)
    assert [c.rotation for c in dec.cosets] == [None, None]
    assert [c.line.offset for c in dec.cosets] == [Fraction(0), Fraction(1, 2)]


def test_predict_ceiling_family():
    # m = 207, b = 6: r = 3, a = ceil(207/6) = 35
    pred = predict_family(207, 6, "ceiling")
    assert (pred.r, pred.a, pred.d) == (3, 35, 3)
    assert pred.dance == PlanetDance(2, 1)
    dec = overlay_decompose(207, pred.a)
    assert dec.analysis.coset_count == pred.d
    assert dec.analysis.reduced_dance == pred.dance


def test_predict_floor_family():
    pred = predict_family(207, 6, "floor")
    assert (pred.r, pred.a, pred.d) == (3, 34, 3)
    assert pred.dance == PlanetDance(2, -1)
    dec = overlay_decompose(207, pred.a)
    assert dec.analysis.coset_count == pred.d
    assert dec.analysis.reduced_dance == pred.dance


def test_predict_family_validation():
    with pytest.raises(ValueError):
        predict_family(207, 6, "round")
    with pytest.raises(ValueError):
        predict_family(12, 6, "ceiling")  # 6 divides 12
    with pytest.raises(ValueError):
        predict_family(5, 6, "ceiling")
