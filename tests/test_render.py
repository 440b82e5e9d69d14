"""Tests for deterministic SVG output."""

import math
import os
import random
import re
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from stitchlab import cycloid, render
from stitchlab.dances import PlanetDance, Sampling, StitchGraph, mmt_chords, sample
from stitchlab.kernel import cos_sin
from stitchlab.overlay import overlay_decompose
from stitchlab.render import (
    GridCell,
    RenderStyle,
    SvgDocument,
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


@pytest.mark.parametrize("values, width", [
    ([400.0078125, 1.0234375, 0.0, 759.999929], 10),  # all positive: no sign column
    ([-2.5, 1234.5678912, 0.1234567, -0.0], 12),
    ([-0.0, -1e-9, -4e-7, -0.0], 8),  # negative zeros print unsigned
])
def test_format_block_writes_a_sign_column_only_for_negative_values(values, width):
    assert _format_block(np.array(values)).shape[1] == width
    assert _block_text(values) == [fmt(v) for v in values]


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
    # the angles of the scalar formula, their cosines and sines from the
    # one trig routine that draws (whose error `test_trig_tolerance` bounds)
    scene = _CircleScene(160, ox=160.0)
    for den in (1, 7, 360, 10007):
        xs, ys = scene.at_turns(np.arange(den), den)
        cos, sin = cos_sin(np.array([2.0 * math.pi * (n / den) for n in range(den)]))
        for n, (c, s) in enumerate(zip(cos.tolist(), sin.tolist())):
            assert xs[n] == scene.cx + scene.radius * c
            assert ys[n] == scene.cy - scene.radius * s


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
    # the chords that scenes extend, at each canvas and in the gallery's
    # right half
    for scene in (_CircleScene(81), _CircleScene(160), _CircleScene(800),
                  _CircleScene(400, ox=400.0)):
        for m, a in ((2, 0), (7, 3), (100, 34), (1009, 500), (10007, 4321)):
            xs, ys = scene.at_turns(np.arange(m), m)
            start, end = mmt_chords(StitchGraph(m, a)).rows.T
            start, end = start[start != end], end[start != end]
            ends = np.column_stack((xs[start], ys[start], xs[end], ys[end]))
            expected = [_clip_scalar(*row, *scene.box) for row in ends.tolist()]
            assert None not in expected  # every chord's line crosses its box
            clipped = _clip_infinite(*ends.T, *scene.box)
            assert np.column_stack(clipped).tobytes() == np.array(expected).tobytes()
    # ends inside the box on vertical and horizontal lines, at integer
    # points and at the box's corners
    box = (10.0, 0.0, 170.0, 160)
    rng = np.random.default_rng(7)
    ends = rng.uniform((10.0, 0.0, 10.0, 0.0), (170.0, 160.0, 170.0, 160.0), (2000, 4))
    ends[:100, 2] = ends[:100, 0]  # vertical
    ends[100:200, 3] = ends[100:200, 1]  # horizontal
    ends[200:300] = np.round(ends[200:300])  # integer corners and edges
    ends[300, :] = (10.0, 0.0, 170.0, 160.0)  # the diagonal
    ends = ends[(ends[:, 0] != ends[:, 2]) | (ends[:, 1] != ends[:, 3])]
    expected = [_clip_scalar(*row, *box) for row in ends.tolist()]
    assert None not in expected
    assert np.column_stack(_clip_infinite(*ends.T, *box)).tobytes() == (
        np.array(expected).tobytes())  # bit for bit


def _unroll_segments(alpha, beta, c):
    """The `Fraction` unrolling that `render._torus_segments` replaced:
    one period of y = (beta/alpha) x + c, alpha >= 1, as unit-square
    segments between the sorted exact cuts, each moved into the square
    by the integer parts at its midpoint."""
    cuts = {Fraction(0), Fraction(1)}
    cuts.update(Fraction(i, alpha) for i in range(1, alpha))
    if beta != 0:
        lo = min(c, beta + c)
        hi = max(c, beta + c)
        j = math.ceil(lo)
        while j <= math.floor(hi):
            t = Fraction(j - c, beta)
            if 0 < t < 1:
                cuts.add(t)
            j += 1
    ts = sorted(cuts)
    segments = []
    for t0, t1 in zip(ts, ts[1:]):
        tm = (t0 + t1) / 2
        ox = math.floor(alpha * tm)
        oy = math.floor(beta * tm + c)
        segments.append(
            (
                (alpha * t0 - ox, beta * t0 + c - oy),
                (alpha * t1 - ox, beta * t1 + c - oy),
            )
        )
    return segments


def _integer_segments(alpha, beta, offset):
    """The segments of `_torus_segments` with `Fraction` endpoints, and
    its block lengths."""
    segments, blocks = [], []
    for ends, den in render._torus_segments(alpha, beta, offset):
        blocks.append(len(ends))
        segments += [((Fraction(x0, den), Fraction(y0, den)),
                      (Fraction(x1, den), Fraction(y1, den)))
                     for x0, y0, x1, y1 in ends.tolist()]
    return segments, blocks


def _seeded_lines():
    """Lines with alpha <= 40, |beta| <= 40 and offsets n/(alpha*m) in
    [0, 1/alpha), as coset lines have, and fundamental lines <1, a>."""
    rng = random.Random(20261018)
    lines = [(1, a, 0) for a in (0, 1, 2, 3, 35, 99, 115, 1000)]
    for _ in range(300):
        alpha, beta, m = rng.randint(1, 40), rng.randint(-40, 40), rng.randint(1, 10**6)
        lines.append((alpha, beta, Fraction(rng.randrange(m), alpha * m)))
    return lines


@pytest.mark.parametrize("chunk", [None, 7])
def test_torus_segments_match_fraction_reference(chunk, monkeypatch):
    if chunk:  # blocks of at most 7 segments split every line but the shortest
        monkeypatch.setattr(render, "_CHUNK_ROWS", chunk)
    split = 0
    for alpha, beta, offset in _seeded_lines():
        segments, blocks = _integer_segments(alpha, beta, offset)
        assert segments == _unroll_segments(alpha, beta, Fraction(offset)), \
            (alpha, beta, offset)
        assert max(blocks) <= render._CHUNK_ROWS
        split += len(blocks) > 1
    assert split > 250 if chunk else split == 0


def test_torus_segments_let_go_of_their_window():
    # while a block is drawn the generator holds no array of its window
    # (cuts, coordinates, integer parts), and nothing but the caller holds
    # the block
    segments = render._torus_segments(1, 99999, 0)
    for _ in range(3):
        ends, _ = next(segments)
        block = weakref.ref(ends)
        del ends
        assert block() is None
        held = {name: value.size for name, value in segments.gi_frame.f_locals.items()
                if isinstance(value, np.ndarray)}
        assert all(size <= 1 for size in held.values()), held


def test_torus_segments_at_the_int64_extremes():
    # <1, 999999> has the most cuts of any line the gallery draws: segment
    # j runs from (j, 0) to (j + 1, 1) over 999999
    j = np.arange(999999)
    blocks = list(render._torus_segments(1, 999999, 0))
    assert {den for _, den in blocks} == {999999}
    assert max(len(ends) for ends, _ in blocks) <= render._CHUNK_ROWS
    assert np.array_equal(np.concatenate([ends for ends, _ in blocks]),
                          np.column_stack((j, np.zeros_like(j), j + 1,
                                           np.full_like(j, 999999))))
    # MMT(999963, 609639) aliases <766, 753>, the largest alpha*|beta|*m
    # found for 10^6 - 3000 < m <= 10^6; it is within 0.1% of the bound
    # m^2/sqrt(3) that a shortest lattice vector puts on alpha*|beta|*m
    dec = overlay_decompose(999963, 609639)
    alias = dec.analysis.reduced_dance
    assert (alias.alpha, alias.beta) == (766, 753)
    for k in range(len(dec.numerators)):
        segments, _ = _integer_segments(766, 753, dec.offset(k))
        assert segments == _unroll_segments(766, 753, dec.offset(k))
    # a line too fine for exact int64 cuts is refused, not drawn wrong
    with pytest.raises(ValueError, match="too fine"):
        next(render._torus_segments(1, 1 << 30, 0))


def _block_bytes():
    """The bytes of one block of the widest element rows: lines whose four
    coordinates are as wide as the default canvas."""
    edge = np.full((4, 1), float(RenderStyle().canvas_px))
    line = render._line_kind(render.CHORD_COLOR)
    return render._CHUNK_ROWS * len(render._RowBuffer().element_rows(*render._block(line, edge)))


#: The blocks of element rows that drawing a chord figure may hold on top
#: of its chord rows, whatever its size: the document's row buffer, which
#: every block resizes in place to its own rows, and a block's text
#: without NUL padding, bound while the next block is made; and one for a
#: block's coordinates and formatting scratch.  Each of these adds about
#: one more: a row buffer per block, text kept after it is written, a copy
#: of the rows before their NULs are stripped.
WORKING_SET_BLOCKS = 3


def _working_set(doc, chords, path):
    """The traced peak of making the document `doc()` and saving it to
    `path`, less the bytes of the chord rows `chords()` that it draws."""
    rows = chords().rows.nbytes
    tracemalloc.start()
    try:
        doc().save(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - rows


@pytest.mark.parametrize("m, a, extend, points", [
    *(pytest.param(m, a, extend, False, id=f"{m}-extend" if extend else f"{m}")
      for extend in (False, True)
      for m, a in [(1 << 15, 377), (1 << 17, 377), (100000, 35911), (10**6, 999999)]),
    *(pytest.param(m, a, False, True, id=f"{m}-points")
      for m, a in [(100000, 35911), (10**6, 999999)]),
])
def test_stitch_working_set_is_bounded(m, a, extend, points, tmp_path):
    # every block of MMT(2^15, 377) and 10 of the 25 of MMT(100000, 35911)
    # hold both lines and dots
    def chords():
        return mmt_chords(StitchGraph(m, a))

    style = RenderStyle(show_points=points, extend_lines=extend)
    extra = _working_set(lambda: render_stitch(chords(), style), chords, tmp_path / "s.svg")
    # the boundary dots add the m-long bool mask of the used positions
    assert extra < WORKING_SET_BLOCKS * _block_bytes() + points * m


@pytest.mark.parametrize("doc, chords", [
    pytest.param(lambda: render_gallery_pair(100000, 35911, RenderStyle()),
                 lambda: mmt_chords(StitchGraph(100000, 35911)), id="gallery-100000-35911"),
    *(pytest.param(lambda d=d: render_dance_with_curve(d, 10**5, RenderStyle()),
                   lambda d=d: sample(Sampling(d, 10**5)),
                   id=f"dance-{d.alpha}-{d.beta}-n100000")
      for d in (PlanetDance(6, -5), PlanetDance(7, 3))),
])
def test_figure_working_set_is_bounded(doc, chords, tmp_path):
    # a gallery pair and a dance make their own chord rows, as many as these
    extra = _working_set(doc, chords, tmp_path / "f.svg")
    assert extra < WORKING_SET_BLOCKS * _block_bytes()


def test_style_validation():
    with pytest.raises(ValueError):
        RenderStyle(canvas_px=0)
    with pytest.raises(ValueError, match="it must exceed 80"):
        RenderStyle(canvas_px=80)  # no room inside the 40 px margins
    assert RenderStyle(canvas_px=81).canvas_px == 81


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
    text = doc.data.decode("utf-8")
    lines = text.count("<line ")
    dots = text.count('r="2.500000"')  # degenerate chords drawn as dots
    outline = text.count('fill="none"')
    degenerate = sum(c.start == c.end for c in mmt_chords(StitchGraph(100, 34)))
    assert degenerate == 1
    assert lines == 100 - degenerate
    assert dots == degenerate
    assert outline == 1  # the circle outline


def test_blocks_format_only_the_kinds_they_hold(monkeypatch):
    # chord k of MMT(m, a) is a dot iff (a - 1)*k = 0 (mod m): MMT(100000,
    # 35911) has 10 dots, k = 0 (mod 10000), in 10 of its 25 blocks
    made = []  # the rows of each kind that each `element_rows` call lays out
    formatted = []  # the numbers per row of each `_format_block` call
    real_rows, real_format = render._RowBuffer.element_rows, render._format_block

    def rows_counted(rows, kinds, kind, values):
        made.append({kinds[k].head: int((kind == k).sum())
                     for k in range(len(kinds)) if (kind == k).any()})
        return real_rows(rows, kinds, kind, values)

    def format_counted(values):
        formatted.append(len(values))
        return real_format(values)

    monkeypatch.setattr(render._RowBuffer, "element_rows", rows_counted)
    monkeypatch.setattr(render, "_format_block", format_counted)
    line, dot = b'<line x1="', b'<circle cx="'
    blocks = -(-100000 // render._CHUNK_ROWS)
    doc = render_stitch(mmt_chords(StitchGraph(100000, 35911)), RenderStyle())
    assert doc.data.count(b"<circle ") == 1 + 10
    assert [b[dot] for b in made if dot in b] == [1] * 10
    lines = [b[line] for b in made if line in b]
    assert len(lines) == blocks and sum(lines) == 100000 - 10
    assert formatted == [4] * blocks  # a dot's centre is formatted twice only beside lines
    # MMT(m, 1) has no regular chord, so no block lays out or formats a line
    made.clear()
    formatted.clear()
    doc = render_stitch(mmt_chords(StitchGraph(100000, 1)), RenderStyle(extend_lines=True))
    assert doc.data.count(b"<circle ") == 1 + 100000
    assert [b for b in made if line in b] == []
    assert sum(b[dot] for b in made) == 100000 and len(made) == blocks
    assert formatted == [2] * blocks


@pytest.mark.parametrize("doc, blocks", [
    pytest.param(lambda: render_stitch(mmt_chords(StitchGraph(100000, 35911)), RenderStyle()),
                 25, id="stitch-100000-35911"),
    pytest.param(lambda: render_dance_with_curve(PlanetDance(7, 3), 10**5, RenderStyle()),
                 26, id="dance-7-3-n100000"),
    # torus blocks of different lengths, and the circle half drawn right of
    # x = 800 with wider coordinates
    pytest.param(lambda: render_gallery_pair(100000, 35911, RenderStyle()),
                 60, id="gallery-100000-35911"),
])
def test_document_makes_its_row_buffer_once(doc, blocks, monkeypatch, tmp_path):
    # every block of a document is laid out in one row buffer, resized in
    # place to each block: render makes no sized bytearray for rows, not
    # even for a block larger than all before it
    buffers = []
    real_init = render._RowBuffer.__init__
    monkeypatch.setattr(render._RowBuffer, "__init__",
                        lambda self: buffers.append(self) or real_init(self))
    sized = []
    monkeypatch.setattr(render, "bytearray",
                        lambda *args: sized.append(args) or bytearray(*args), raising=False)
    chunks = []
    real = render._RowBuffer.element_rows
    monkeypatch.setattr(render._RowBuffer, "element_rows",
                        lambda self, *block: chunks.append(len(block[1])) or real(self, *block))
    doc().save(tmp_path / "d.svg")
    assert len(buffers) == 1 and len(chunks) == blocks
    assert [args for args in sized if args and args[0]] == []


def test_row_buffer_holds_only_the_block_it_lays_out():
    # a dance's curve is a short block laid out after the chords' long ones
    edge = np.full((4, render._CHUNK_ROWS), float(RenderStyle().canvas_px))
    lines = render._block(render._line_kind(render.CHORD_COLOR), edge)
    _, curve = render._polyline(*_scalar_curve(PlanetDance(6, -5), RenderStyle().canvas_px))
    fresh = render._RowBuffer()
    alone = fresh.element_rows(*curve)
    rows = render._RowBuffer()
    rows.element_rows(*lines)
    assert rows.element_rows(*curve) == alone
    assert rows._data == fresh._data


def test_svg_structure():
    doc = render_stitch(mmt_chords(StitchGraph(12, 2)), RenderStyle())
    text = doc.data.decode("utf-8")
    assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg" ')
    assert 'viewBox="0 0 800 800"' in text
    assert text.endswith("</svg>\n")


def test_canvas_size_applies():
    doc = render_stitch(
        mmt_chords(StitchGraph(12, 2)), RenderStyle(canvas_px=200)
    )
    assert 'width="200" height="200"' in doc.data.decode("utf-8")


def test_coordinates_stay_in_canvas():
    style = RenderStyle(canvas_px=400, extend_lines=True)
    doc = render_dance_with_curve(PlanetDance(5, -3), 60, style)
    text = doc.data.decode("utf-8")
    for sx, sy in re.findall(r'x1="([-\d.]+)" y1="([-\d.]+)"', text):
        assert -1e-6 <= float(sx) <= 400 + 1e-6
        assert -1e-6 <= float(sy) <= 400 + 1e-6


def test_dance_curve_presence():
    with_curve = render_dance_with_curve(PlanetDance(3, 2), 50, RenderStyle())
    assert "<polyline " in with_curve.data.decode("utf-8")
    no_curve = render_dance_with_curve(PlanetDance(1, -1), 50, RenderStyle())
    assert "<polyline " not in no_curve.data.decode("utf-8")


def _scalar_curve(d, px):
    """The per-point loop that drew the dance's curve before: the scalar
    curve formula and canvas map at s = i/CURVE_SEGMENTS."""
    cx = cy = px / 2.0
    radius = px / 2.0 - render.MARGIN_PX
    ss = [i / render.CURVE_SEGMENTS for i in range(render.CURVE_SEGMENTS + 1)]
    cos_a, sin_a = cos_sin(np.array([2.0 * math.pi * d.alpha * float(s) for s in ss]))
    cos_b, sin_b = cos_sin(np.array([2.0 * math.pi * d.beta * float(s) for s in ss]))
    xs, ys = [], []
    for ca, sa, cb, sb in zip(*(v.tolist() for v in (cos_a, sin_a, cos_b, sin_b))):
        denom = d.alpha + d.beta
        x = (d.alpha * cb + d.beta * ca) / denom
        y = (d.alpha * sb + d.beta * sa) / denom
        xs.append(cx + radius * x)
        ys.append(cy - radius * y)
    return np.array(xs), np.array(ys)


@pytest.mark.parametrize("alpha,beta", [(3, 2), (6, -5), (7, 3), (1, 1)])
def test_dance_curve_is_the_scalar_loop(alpha, beta, monkeypatch):
    drawn = []
    real = render._polyline

    def capture(xs, ys):
        drawn.append((xs.copy(), ys.copy()))
        return real(xs, ys)

    monkeypatch.setattr(render, "_polyline", capture)
    d = PlanetDance(alpha, beta)
    assert b"<polyline " in render_dance_with_curve(d, 10, RenderStyle(canvas_px=300)).data
    (xs, ys), = drawn
    ref_x, ref_y = _scalar_curve(d, 300)
    assert xs.tobytes() == ref_x.tobytes() and ys.tobytes() == ref_y.tobytes()


def test_dance_all_degenerate():
    doc = render_dance_with_curve(PlanetDance(1, 1), 10, RenderStyle())
    text = doc.data.decode("utf-8")
    assert text.count("<line ") == 0
    assert text.count('r="2.500000"') == 10  # one dot per sample


def test_torus_render_has_samples():
    doc = render_gallery_pair(206, 35, RenderStyle())
    assert doc.data.decode("utf-8").count('r="2.000000"') == 206


def test_overlay_uses_palette():
    # one torus line per coset, colored by coset index; d = 2 here
    doc = render_gallery_pair(206, 35, RenderStyle())
    text = doc.data.decode("utf-8")
    palette = render.COSET_PALETTE
    assert palette[0] in text
    assert palette[1] in text
    assert palette[2] not in text


def test_nearest_congruent():
    assert nearest_congruent(200, 1, 2) == 199  # tie between 199 and 201
    assert nearest_congruent(200, 3, 6) == 201
    assert nearest_congruent(200, 21, 100) == 221
    assert nearest_congruent(4, 1, 5) % 5 == 1
    # a target at the cap never rounds up past it
    assert nearest_congruent(10**6, 2, 3) == 999998
    assert nearest_congruent(10**6, 1, 4) == 999997
    assert nearest_congruent(10**6 - 1, 2, 3) == 999998


@pytest.mark.parametrize("b", [0, -3])
def test_nearest_congruent_refuses_a_step_below_one(b):
    with pytest.raises(ValueError, match=f"step must be positive, got {b}"):
        nearest_congruent(10, 1, b)


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
    style = RenderStyle()
    assert len(render_grid(10**6, 3, "ceiling", style)) == 3
    assert len(render_grid(10**6, 4, "floor", style)) == 6
    for m_target, b_max in ((10**6, 6), (1, 10**9)):
        with pytest.raises(ValueError, match="more than 10000000 chords"):
            render_grid(m_target, b_max, "ceiling", style)


def test_document_is_made_in_chunks(monkeypatch, tmp_path):
    monkeypatch.setattr(render, "_CHUNK_ROWS", 7)
    chords = mmt_chords(StitchGraph(100, 34))
    style = RenderStyle(show_points=True, extend_lines=True)
    small = render_stitch(chords, style)
    path = tmp_path / "s.svg"
    small.save(path)
    gallery = render_gallery_pair(207, 34, style).data
    monkeypatch.undo()
    assert path.read_bytes() == small.data == render_stitch(chords, style).data
    assert gallery == render_gallery_pair(207, 34, style).data


def test_no_block_holds_more_than_chunk_rows(monkeypatch):
    # every emitter, the dance's 1,025-point curve included, yields blocks
    # of at most `_CHUNK_ROWS` rows, and the bytes do not depend on it
    style = RenderStyle(show_points=True)
    drawings = [
        lambda: render_stitch(mmt_chords(StitchGraph(1000, 377)), style),
        lambda: render_dance_with_curve(PlanetDance(6, -5), 1000, style),
        *(lambda cell=cell: cell.doc for cell in render_grid(200, 4, "ceiling", style)),
        lambda: render_gallery_pair(206, 35, style),
    ]
    default = [draw().data for draw in drawings]
    rows = []  # the rows of each block that the document lays out
    real = render._RowBuffer.element_rows
    monkeypatch.setattr(render, "_CHUNK_ROWS", 64)
    monkeypatch.setattr(render._RowBuffer, "element_rows",
                        lambda self, *block: rows.append(len(block[1])) or real(self, *block))
    assert [draw().data for draw in drawings] == default
    assert max(rows) == 64


class _Chunk(bytearray):
    """Bytes that a weak reference can watch."""


def test_save_holds_no_written_chunk_while_it_makes_the_next(tmp_path):
    made = []  # a weak reference to each chunk the body has made
    blocks = []  # and to the numbers of the block it yields after them

    def body():
        for i in range(3):
            if made:
                assert made[-1]() is None, "save still holds the written chunk"
            box = [_Chunk(b'<g id="%d"/>\n' % i)]
            made.append(weakref.ref(box[0]))
            yield box.pop()  # the body keeps no reference of its own
        box = [np.array([[1.0], [2.0]])]
        blocks.append(weakref.ref(box[0]))
        yield render._block(render._dot_kind(0.5), box.pop())
        assert blocks[-1]() is None, "save still holds the laid-out block"

    SvgDocument(10, 10, body).save(tmp_path / "s.svg")
    assert len(made) == 3 and len(blocks) == 1
    # the document lays out the block in its own row buffer
    assert (tmp_path / "s.svg").read_bytes().splitlines()[1:] == [
        b'<g id="0"/>', b'<g id="1"/>', b'<g id="2"/>',
        b'<circle cx="1.000000" cy="2.000000" r="0.500000" fill="#000000"/>', b"</svg>"]


@pytest.mark.parametrize("build", [
    pytest.param(lambda: render_stitch(mmt_chords(StitchGraph(100, 34)),
                                       RenderStyle(show_points=True)), id="stitch-points"),
    pytest.param(lambda: render_dance_with_curve(PlanetDance(3, 2), 60, RenderStyle()),
                 id="epicycloid-3-2"),
    pytest.param(lambda: render_dance_with_curve(PlanetDance(2, -1), 60, RenderStyle()),
                 id="hypocycloid-2--1"),
    pytest.param(lambda: render_dance_with_curve(PlanetDance(2, 2), 60, RenderStyle()),
                 id="diagonal-2-2"),
    pytest.param(lambda: render_grid(200, 3, "ceiling", RenderStyle())[-1].doc, id="grid-cell"),
    pytest.param(lambda: render_gallery_pair(206, 35, RenderStyle()), id="gallery-206-35"),
])
def test_building_a_document_computes_no_coordinate(build, monkeypatch):
    # a document checks its inputs when it is built, but takes no cosine or
    # sine, the first step of every drawn coordinate, until it is written
    calls = []

    def counted(angles):
        calls.append(len(angles))
        return cos_sin(angles)

    for module in (render, cycloid):
        monkeypatch.setattr(module, "cos_sin", counted)
    doc = build()
    assert calls == []
    doc.data
    assert calls


@pytest.mark.parametrize("points", [False, True])
@pytest.mark.parametrize("chords", [
    pytest.param(mmt_chords(StitchGraph(10000, 4321)), id="mmt-10000-4321"),
    pytest.param(sample(Sampling(PlanetDance(2, 3), 6)), id="dance-2-3-n6"),
])
def test_each_chord_maps_its_own_ends(chords, points, monkeypatch):
    # no table of positions: one angle per used position for the boundary
    # dots, two per line chord and one per dot chord
    angles = []

    def counted(values):
        angles.append(len(values))
        return cos_sin(values)

    monkeypatch.setattr(render, "cos_sin", counted)
    render_stitch(chords, RenderStyle(show_points=points)).data
    start, end = chords.rows.T
    used = len(np.unique(chords.rows)) if points else 0
    assert sum(angles) == used + 2 * int((start != end).sum()) + int((start == end).sum())


def test_points_mark_only_the_used_positions_before_the_chords():
    # <2,3> sampled 6 times starts at 0, 2, 4 and ends at 0, 3
    chords = sample(Sampling(PlanetDance(2, 3), 6))
    plain = render_stitch(chords, RenderStyle()).data.splitlines()
    dotted = render_stitch(chords, RenderStyle(show_points=True)).data.splitlines()
    xs, ys = _CircleScene(800).at_turns(np.array([0, 2, 3, 4]), 6)
    dots = [f'<circle cx="{fmt(x)}" cy="{fmt(y)}" r="2.500000" fill="#000000"/>'.encode()
            for x, y in zip(xs.tolist(), ys.tolist())]
    assert dotted == plain[:2] + dots + plain[2:]


def test_points_window_without_a_used_position():
    # <17,241> sampled 4097 times uses the multiples of 17 and of 241, so
    # the last window of positions, [4096, 4097), holds none: it adds no dot
    chords = sample(Sampling(PlanetDance(17, 241), 4097))
    used = np.unique(chords.rows)
    assert used[-1] < 4096
    dots = int((chords.rows[:, 0] == chords.rows[:, 1]).sum())
    text = render_stitch(chords, RenderStyle(show_points=True)).data
    assert text.count(b'r="2.500000"') == len(used) + dots


def test_grid_validation():
    style = RenderStyle()
    with pytest.raises(ValueError):
        render_grid(200, 1, "ceiling", style)
    with pytest.raises(ValueError, match="kind must be 'ceiling' or 'floor'"):
        render_grid(200, 4, "nearest", style)
    with pytest.raises(ValueError, match="target modulus must be positive"):
        render_grid(0, 3, "ceiling", style)


def test_gallery_pair_is_double_wide():
    doc = render_gallery_pair(100, 34, RenderStyle(canvas_px=300))
    assert 'width="600" height="300"' in doc.data.decode("utf-8")

