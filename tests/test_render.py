"""Tests for deterministic SVG output."""

import math
import os
import re

import numpy as np
import pytest

from stitchlab import render
from stitchlab.dances import PlanetDance, StitchGraph, mmt_chords
from stitchlab.render import (
    GridCell,
    RenderStyle,
    _CircleScene,
    _clip_infinite,
    _format_block,
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


def _block_text(values):
    """Each value's text as `_format_block` writes it."""
    rows = _format_block(np.asarray(values, dtype=np.float64))
    return [row.tobytes().replace(b"\0", b"").decode() for row in rows]


# odd multiples of 1/128 are exactly the doubles whose x * 10^6 is a tie
TIES = [400.0078125, 0.0078125, -0.0078125, 1.0234375, 123.4921875,
        -1999.9921875, 1599.5546875]
EDGES = [-0.0, 0.0, -1e-9, -4e-7, -5e-7, 5e-7, -2.5, 1.0, 0.1234567,
         1234.5678912, -1234.5678912, 9999.9999995, 1e9, -1e9, 1e15, 1e300,
         math.inf, -math.inf, math.nan]


def _format_cases():
    ties = np.array(TIES)
    rng = np.random.default_rng(20240607)
    return np.concatenate([
        ties, np.nextafter(ties, math.inf), np.nextafter(ties, -math.inf),
        EDGES, rng.uniform(-2000.0, 2000.0, 10**5),
    ])


def test_format_block_known_values():
    assert _block_text([400.0078125, 1.0234375]) == ["400.007812", "1.023438"]
    assert _block_text([-0.0, -1e-9, -4e-7]) == ["0.000000"] * 3
    assert _block_text([-2.5, 1234.5, 1e9]) == ["-2.500000", "1234.500000",
                                                "1000000000.000000"]


@pytest.mark.filterwarnings("error")  # no overflow or invalid cast on the way
def test_format_block_equals_fmt():
    values = _format_cases()
    assert _block_text(values) == [fmt(v) for v in values.tolist()]


def test_format_block_fallback_equals_fast_path(monkeypatch):
    values = _format_cases()
    fast = _format_block(values)
    monkeypatch.setattr(render, "_EXACT_LIMIT", 0.0)  # every value through fmt
    slow = _format_block(values)
    assert [r.tobytes().replace(b"\0", b"") for r in fast] == \
        [r.tobytes().replace(b"\0", b"") for r in slow]


def test_golden_file_through_fallback(monkeypatch):
    monkeypatch.setattr(render, "_EXACT_LIMIT", 0.0)
    with open(os.path.join(GOLDEN_DIR, "mmt_100_34.svg"), "rb") as fh:
        golden = fh.read()
    assert render_stitch(mmt_chords(StitchGraph(100, 34)), RenderStyle()).data == golden


def test_at_turns_is_the_scalar_map():
    scene = _CircleScene(RenderStyle(canvas_px=160), ox=160.0)
    for den in (1, 7, 360, 10007):
        xs, ys = scene.at_turns(np.arange(den), den)
        for n in range(den):
            angle = 2.0 * math.pi * (n / den)
            assert xs[n] == scene.cx + scene.radius * math.cos(angle)
            assert ys[n] == scene.cy - scene.radius * math.sin(angle)


def _clip_scalar(ax, ay, bx, by, x0, y0, x1, y1):
    """The per-line clip that `_clip_infinite` vectorizes."""
    dx, dy = bx - ax, by - ay
    tmin, tmax = -math.inf, math.inf
    for delta, lo, hi, start in ((dx, x0, x1, ax), (dy, y0, y1, ay)):
        if delta == 0.0:
            if not (lo <= start <= hi):
                return None
            continue
        t0, t1 = (lo - start) / delta, (hi - start) / delta
        if t0 > t1:
            t0, t1 = t1, t0
        tmin, tmax = max(tmin, t0), min(tmax, t1)
    if tmin >= tmax:
        return None
    return (ax + tmin * dx, ay + tmin * dy, ax + tmax * dx, ay + tmax * dy)


def test_clip_infinite_matches_scalar_clip():
    box = (10.0, 0.0, 170.0, 160)
    rng = np.random.default_rng(7)
    ends = rng.uniform(-50.0, 250.0, (2000, 4))
    ends[:100, 2] = ends[:100, 0]  # vertical, some outside the box
    ends[100:200, 3] = ends[100:200, 1]  # horizontal
    ends[200:300] = np.round(ends[200:300])  # integer corners and edges
    ends[300, :] = (10.0, 0.0, 170.0, 160.0)  # the diagonal
    ends = ends[(ends[:, 0] != ends[:, 2]) | (ends[:, 1] != ends[:, 3])]
    *clipped, hit = _clip_infinite(*ends.T, *box)
    expected = [_clip_scalar(*row, *box) for row in ends.tolist()]
    assert hit.tolist() == [e is not None for e in expected]
    kept = np.array([e for e in expected if e is not None])
    assert np.column_stack(clipped).tobytes() == kept.tobytes()  # bit for bit
    assert 0 < hit.sum() < len(ends)


def test_style_validation():
    with pytest.raises(ValueError):
        RenderStyle(canvas_px=0)
    with pytest.raises(ValueError, match="it must exceed 80"):
        RenderStyle(canvas_px=80)  # no room inside the 40 px margins
    assert RenderStyle(canvas_px=81).canvas_px == 81
    with pytest.raises(ValueError):
        RenderStyle(canvas_px=20, margin_px=10)
    with pytest.raises(ValueError):
        RenderStyle(coset_palette=("#12345g",))
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
    # a target at the cap never rounds up past it
    assert nearest_congruent(10**6, 2, 3) == 999998
    assert nearest_congruent(10**6, 1, 4) == 999997
    assert nearest_congruent(10**6 - 1, 2, 3) == 999998


def test_grid_shape():
    cells = render_grid(200, 9, "ceiling", RenderStyle(canvas_px=120))
    assert len(cells) == 36
    assert [(c.b, c.r) for c in cells[:3]] == [(2, 1), (3, 1), (3, 2)]
    for c in cells:
        assert isinstance(c, GridCell)
        assert c.m % c.b == c.r


def test_grid_chord_cap():
    # every cell draws m chords; 3 and 6 cells of about 10^6 stay within
    # the 10^7 cap, 15 do not, and a huge b_max is refused at once
    assert len(render_grid(10**6, 3, "ceiling")) == 3
    assert len(render_grid(10**6, 4, "floor")) == 6
    for m_target, b_max in ((10**6, 6), (1, 10**9)):
        with pytest.raises(ValueError, match="more than 10000000 chords"):
            render_grid(m_target, b_max, "ceiling")


def test_document_is_made_in_chunks(monkeypatch, tmp_path):
    monkeypatch.setattr(render, "_CHUNK_ROWS", 7)
    chords = mmt_chords(StitchGraph(100, 34))
    style = RenderStyle(show_points=True, extend_lines=True)
    small = render_stitch(chords, style)
    path = tmp_path / "s.svg"
    small.save(path)
    monkeypatch.undo()
    assert path.read_bytes() == small.data == render_stitch(chords, style).data


def test_grid_validation():
    with pytest.raises(ValueError):
        render_grid(200, 1, "ceiling")
    with pytest.raises(ValueError):
        render_grid(200, 4, "nearest")
    with pytest.raises(ValueError, match="target modulus must be positive"):
        render_grid(0, 3, "ceiling")


def test_gallery_pair_is_double_wide():
    doc = render_gallery_pair(100, 34, RenderStyle(canvas_px=300))
    assert 'width="600" height="300"' in doc.text

