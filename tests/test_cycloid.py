"""Tests for cycloid classification, evaluation, and envelope checks."""

import math
from fractions import Fraction

import numpy as np
import pytest

from stitchlab.cycloid import (
    DegenerateCurveError,
    classify,
    cycloid_point,
    offset_family_radius,
    verify_envelope,
)
from stitchlab.dances import PlanetDance
from stitchlab.kernel import MAX_INPUT
from stitchlab.oracle import reduced_dances


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


def _rolling_circle_radii(alpha, beta):
    """The two rolling-circle constructions, one per kind: an epicycloid's
    speeds sorted, lo <= hi, put a circle of radius lo/(hi+lo) outside one
    of radius (hi-lo)/(hi+lo); a hypocycloid's circle of radius
    |beta|/|alpha+beta| rolls inside one of radius (alpha-beta)/|alpha+beta|."""
    if beta < 0:
        s = abs(alpha + beta)
        return Fraction(alpha - beta, s), Fraction(abs(beta), s)
    hi, lo = max(alpha, beta), min(alpha, beta)
    return Fraction(hi - lo, hi + lo), Fraction(lo, hi + lo)


def test_classify_radii_follow_the_rolling_circle_constructions():
    # every cycloid with speeds up to 12, reduced or not; a rolling radius of
    # min(alpha, |beta|)/|alpha+beta| would give <1,-3> 1/2, not 3/2
    kinds = {"epicycloid": 0, "hypocycloid": 0}
    for alpha in range(13):
        for beta in range(-12, 13):
            spec = classify(PlanetDance(alpha, beta))
            if spec.kind not in kinds:
                continue
            kinds[spec.kind] += 1
            assert spec.kind == ("hypocycloid" if spec.beta < 0 else "epicycloid")
            radii = _rolling_circle_radii(spec.alpha, spec.beta)
            assert (spec.fixed_radius, spec.rolling_radius) == radii, spec
    assert kinds == {"epicycloid": 168, "hypocycloid": 132}
    assert classify(PlanetDance(1, -3))[3:] == (2, Fraction(3, 2))


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
        cycloid_point(classify(PlanetDance(0, 0)), np.array([0.1]))
    with pytest.raises(DegenerateCurveError):
        cycloid_point(classify(PlanetDance(1, -1)), np.array([0.1]))


def test_cycloid_point_cardioid_extremes():
    spec = classify(PlanetDance(1, 2))
    # the curve touches the circle at s = 0 and half a turn later sits at
    # its sharp point on the fixed circle of radius 1/3
    x, y = cycloid_point(spec, np.array([0.0, 0.5]))
    assert (x[0], y[0]) == pytest.approx((1.0, 0.0))
    assert (x[1], y[1]) == pytest.approx((-1.0 / 3.0, 0.0))


def test_cycloid_point_stays_in_reach():
    for d in [PlanetDance(1, 2), PlanetDance(3, 2), PlanetDance(5, -3)]:
        spec = classify(d)
        reach = float(spec.fixed_radius + 2 * spec.rolling_radius)
        x, y = cycloid_point(spec, np.arange(97) / 97)
        assert len(x) == len(y) == 97
        assert (np.hypot(x, y) <= reach + 1e-9).all()


def test_touch_points_lie_on_circle():
    # at s = j/|alpha - beta| the chord degenerates and the curve touches
    # the unit circle; the cusps lie elsewhere, at the chords' diameters
    for d in [PlanetDance(1, 3), PlanetDance(5, -3), PlanetDance(3, 2)]:
        spec = classify(d)
        n = abs(d.alpha - d.beta)
        x, y = cycloid_point(spec, np.array([float(Fraction(j, n)) for j in range(n)]))
        assert np.hypot(x, y) == pytest.approx(np.ones(n), abs=1e-12)


def test_tangency_point_matches_curve():
    # the chord at s touches the curve at (beta*A + alpha*B)/(alpha + beta)
    for d in [PlanetDance(1, 2), PlanetDance(3, 2), PlanetDance(5, -3)]:
        spec = classify(d)
        params = [Fraction(1, 7), Fraction(3, 11), Fraction(9, 13)]
        x, y = cycloid_point(spec, np.array([float(s) for s in params]))
        for i, s in enumerate(params):
            (ax, ay), (bx, by) = [(math.cos(2 * math.pi * float(v * s)),
                                   math.sin(2 * math.pi * float(v * s)))
                                  for v in (d.alpha, d.beta)]
            tp = ((d.beta * ax + d.alpha * bx) / (d.alpha + d.beta),
                  (d.beta * ay + d.alpha * by) / (d.alpha + d.beta))
            assert tp == pytest.approx((x[i], y[i]), abs=1e-12)


def test_verify_envelope_passes():
    report = verify_envelope(PlanetDance(1, 2), 720)
    assert report.passed()
    assert report.samples == 720 - 1  # the chord at k = 0 is a point


def test_verify_envelope_defect_is_rounding_error_on_the_library_curve():
    # every dance with speeds up to 12 at the suite's 720 samples, its
    # diameter chords (A + B near zero) included
    worst = 0.0
    for alpha, beta in reduced_dances(12):
        if alpha + beta != 0:
            report = verify_envelope(PlanetDance(alpha, beta), 720)
            assert report.max_parallelism_defect < 1e-12, (alpha, beta, report)
            worst = max(worst, report.max_line_distance)
    assert worst < 1e-12


def test_verify_envelope_skip_count():
    # 720 is a multiple of |alpha - beta| = 4, so exactly 4 samples fall
    # on cusps
    report = verify_envelope(PlanetDance(7, 11), 720)
    assert report.samples == 720 - 4
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


@pytest.mark.parametrize("n", [MAX_INPUT + 1, 4 * 10**9, 0])
def test_verify_envelope_rejects_a_sample_count_past_the_cap(monkeypatch, n):
    def no_array(*args, **kwargs):
        raise AssertionError("an array was allocated")

    monkeypatch.setattr(np, "arange", no_array)
    with pytest.raises(ValueError):
        verify_envelope(PlanetDance(3, 2), n)


def test_offset_family_radius():
    assert offset_family_radius(Fraction(1, 2)) == 0.0
    assert offset_family_radius(Fraction(0)) == 1.0
    assert offset_family_radius(Fraction(1, 3)) == pytest.approx(0.5)
