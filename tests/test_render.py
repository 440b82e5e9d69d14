"""Tests for deterministic SVG output."""

import os
import re

import pytest

from stitchlab.dances import PlanetDance, StitchGraph, mmt_chords
from stitchlab.render import (
    GridCell,
    RenderStyle,
    fmt,
    nearest_congruent,
    render_dance_with_curve,
    render_gallery_pair,
    render_grid,
    render_stitch,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def test_fmt_fixed_width():
    assert fmt(1.0) == "1.000000"
    assert fmt(0.1234567) == "0.123457"
    assert fmt(-2.5) == "-2.500000"


def test_fmt_negative_zero():
    assert fmt(-0.0) == "0.000000"
    assert fmt(-1e-9) == "0.000000"


def test_style_validation():
    with pytest.raises(ValueError):
        RenderStyle(canvas_px=0)
    with pytest.raises(ValueError):
        RenderStyle(stroke_width=0)
    with pytest.raises(ValueError):
        RenderStyle(coset_palette=("red",))


def test_stitch_deterministic():
    chords = mmt_chords(StitchGraph(100, 34))
    a = render_stitch(chords, RenderStyle())
    b = render_stitch(chords, RenderStyle())
    assert a.data == b.data


def test_stitch_golden_file():
    with open(os.path.join(GOLDEN_DIR, "mmt_100_34.svg"), "rb") as fh:
        golden = fh.read()
    doc = render_stitch(mmt_chords(StitchGraph(100, 34)), RenderStyle())
    assert doc.data == golden


def test_stitch_element_counts():
    # 34*k = k (mod 100) only at k = 0, so exactly one degenerate chord
    doc = render_stitch(mmt_chords(StitchGraph(100, 34)), RenderStyle())
    lines = doc.text.count("<line ")
    dots = doc.text.count('r="2.500000"')  # degenerate chords drawn as dots
    outline = doc.text.count('fill="none"')
    degenerate = sum(c.degenerate for c in mmt_chords(StitchGraph(100, 34)))
    assert degenerate == 1
    assert lines == 100 - degenerate
    assert dots == degenerate
    assert outline == 1  # the circle outline


def test_svg_structure():
    doc = render_stitch(mmt_chords(StitchGraph(12, 2)), RenderStyle())
    text = doc.text
    assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg" ')
    assert 'viewBox="0 0 800 800"' in text
    assert text.endswith("</svg>\n")


def test_canvas_size_applies():
    doc = render_stitch(
        mmt_chords(StitchGraph(12, 2)), RenderStyle(canvas_px=200)
    )
    assert 'width="200" height="200"' in doc.text


def test_coordinates_stay_in_canvas():
    style = RenderStyle(canvas_px=400, extend_lines=True)
    doc = render_dance_with_curve(PlanetDance(5, -3), 60, style)
    for sx, sy in re.findall(r'x1="([-\d.]+)" y1="([-\d.]+)"', doc.text):
        assert -1e-6 <= float(sx) <= 400 + 1e-6
        assert -1e-6 <= float(sy) <= 400 + 1e-6


def test_dance_curve_presence():
    with_curve = render_dance_with_curve(PlanetDance(3, 2), 50, RenderStyle())
    assert "<polyline " in with_curve.text
    no_curve = render_dance_with_curve(PlanetDance(1, -1), 50, RenderStyle())
    assert "<polyline " not in no_curve.text


def test_dance_all_degenerate():
    doc = render_dance_with_curve(PlanetDance(1, 1), 10, RenderStyle())
    assert doc.text.count("<line ") == 0
    assert doc.text.count('r="2.500000"') == 10  # one dot per sample


def test_torus_render_has_samples():
    doc = render_gallery_pair(206, 35, RenderStyle())
    assert doc.text.count('r="2.000000"') == 206


def test_overlay_uses_palette():
    # one torus line per coset, colored by coset index; d = 2 here
    doc = render_gallery_pair(206, 35, RenderStyle())
    palette = RenderStyle().coset_palette
    assert palette[0] in doc.text
    assert palette[1] in doc.text
    assert palette[2] not in doc.text


def test_nearest_congruent():
    assert nearest_congruent(200, 1, 2) == 199  # tie between 199 and 201
    assert nearest_congruent(200, 3, 6) == 201
    assert nearest_congruent(200, 21, 100) == 221
    assert nearest_congruent(4, 1, 5) % 5 == 1


def test_grid_shape():
    cells = render_grid(200, 9, "ceiling", RenderStyle(canvas_px=120))
    assert len(cells) == 36
    assert [(c.b, c.r) for c in cells[:3]] == [(2, 1), (3, 1), (3, 2)]
    for c in cells:
        assert isinstance(c, GridCell)
        assert c.m % c.b == c.r


def test_grid_validation():
    with pytest.raises(ValueError):
        render_grid(200, 1, "ceiling")
    with pytest.raises(ValueError):
        render_grid(200, 4, "nearest")


def test_gallery_pair_is_double_wide():
    doc = render_gallery_pair(100, 34, RenderStyle(canvas_px=300))
    assert 'width="600" height="300"' in doc.text

