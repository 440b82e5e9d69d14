"""Tests for cycloid classification, evaluation, and envelope checks."""

import math
from fractions import Fraction

import pytest

from stitchlab.cycloid import (
    DegenerateCurveError,
    classify,
    cycloid_point,
    offset_family_radius,
    tangency_point,
    verify_envelope,
)
from stitchlab.dances import PlanetDance


def test_classify_cardioid():
    spec = classify(PlanetDance(1, 2))
    assert spec.kind == "epicycloid"
    assert spec.fixed_radius == Fraction(1, 3)
    assert spec.rolling_radius == Fraction(1, 3)


def test_classify_single_cusp_epicycloid():
    spec = classify(PlanetDance(3, 2))
    assert spec.kind == "epicycloid"
    assert spec.fixed_radius == Fraction(1, 5)
    assert spec.rolling_radius == Fraction(2, 5)


def test_classify_hypocycloid():
    spec = classify(PlanetDance(5, -3))
    assert spec.kind == "hypocycloid"
    assert spec.fixed_radius == Fraction(4)
    assert spec.rolling_radius == Fraction(3, 2)


def test_classify_degenerate_kinds():
    assert classify(PlanetDance(0, 0)).kind == "point"
    assert classify(PlanetDance(1, -1)).kind == "degenerate_diameter"
    assert classify(PlanetDance(1, 1)).kind == "diagonal"
    assert classify(PlanetDance(3, 3)).kind == "diagonal"
    axial = classify(PlanetDance(1, 0))
    assert axial.kind == "epicycloid"
    assert axial.rolling_radius == 0


def test_cycloid_point_degenerate_errors():
    with pytest.raises(DegenerateCurveError):
        cycloid_point(classify(PlanetDance(0, 0)), 0.1)
    with pytest.raises(DegenerateCurveError):
        cycloid_point(classify(PlanetDance(1, -1)), 0.1)


def test_cycloid_point_cardioid_extremes():
    spec = classify(PlanetDance(1, 2))
    # the curve touches the circle at s = 0 and half a turn later sits at
    # its sharp point on the fixed circle of radius 1/3
    assert cycloid_point(spec, 0.0) == pytest.approx((1.0, 0.0))
    x, y = cycloid_point(spec, 0.5)
    assert (x, y) == pytest.approx((-1.0 / 3.0, 0.0))


def test_cycloid_point_stays_in_reach():
    for d in [PlanetDance(1, 2), PlanetDance(3, 2), PlanetDance(5, -3)]:
        spec = classify(d)
        reach = float(spec.fixed_radius + 2 * spec.rolling_radius)
        for i in range(97):
            x, y = cycloid_point(spec, i / 97)
            assert math.hypot(x, y) <= reach + 1e-9


def test_cusps_lie_on_circle():
    for d in [PlanetDance(1, 3), PlanetDance(5, -3), PlanetDance(3, 2)]:
        spec = classify(d)
        n = abs(d.alpha - d.beta)
        for s in [Fraction(j, n) for j in range(n)]:
            x, y = cycloid_point(spec, s)
            assert math.hypot(x, y) == pytest.approx(1.0, abs=1e-12)


def test_tangency_point_matches_curve():
    for d in [PlanetDance(1, 2), PlanetDance(3, 2), PlanetDance(5, -3)]:
        spec = classify(d)
        for s in [Fraction(1, 7), Fraction(3, 11), Fraction(9, 13)]:
            tp = tangency_point(d, s)
            cp = cycloid_point(spec, s)
            assert tp == pytest.approx(cp, abs=1e-12)


def test_tangency_point_degenerate_chord():
    assert tangency_point(PlanetDance(3, 2), Fraction(0)) is None
    assert tangency_point(PlanetDance(1, 3), Fraction(1, 2)) is None
    with pytest.raises(DegenerateCurveError):
        tangency_point(PlanetDance(1, -1), Fraction(1, 7))


def test_verify_envelope_passes():
    report = verify_envelope(PlanetDance(1, 2), 720)
    assert report.passed()
    assert report.samples == 719
    assert report.skipped_degenerate == 1


def test_verify_envelope_skip_count():
    # 720 is a multiple of |alpha - beta| = 4, so exactly 4 samples fall
    # on cusps
    report = verify_envelope(PlanetDance(7, 11), 720)
    assert report.skipped_degenerate == 4
    assert report.passed()


def test_verify_envelope_degenerate_family():
    report = verify_envelope(PlanetDance(1, 1), 10)
    assert report.samples == 0
    assert not report.passed()


def test_verify_envelope_validation():
    with pytest.raises(DegenerateCurveError):
        verify_envelope(PlanetDance(1, -1), 10)
    with pytest.raises(ValueError):
        verify_envelope(PlanetDance(1, 2), 0)


def test_offset_family_radius():
    assert offset_family_radius(Fraction(1, 2)) == 0.0
    assert offset_family_radius(Fraction(0)) == 1.0
    assert offset_family_radius(Fraction(1, 3)) == pytest.approx(0.5)
