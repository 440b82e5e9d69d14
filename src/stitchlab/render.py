"""Deterministic SVG scenes for chord sets, torus lines, and cycloids.

Every coordinate is printed with exactly six decimal places (negative
zero normalized), element order is fixed, and attribute order is fixed,
so identical inputs yield byte-identical documents suitable for
golden-file comparison.

Elements are made in blocks of up to `_CHUNK_ROWS`: numpy computes
their coordinates and formats them (`_format_block`, equal to `fmt` on
every value) into rows of bytes, and a document is written block by
block, so writing it never holds all of it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

import numpy as np

from .cycloid import classify, cycloid_point
from .dances import PlanetDance, Sampling, StitchGraph, mmt_chords, sample
from .kernel import (MAX_INPUT, ChordSet, brief_int, check_input_size, cos_sin,
                     make_checked)
from .overlay import nearest_congruent, overlay_decompose, predict_family

if TYPE_CHECKING:
    import numbers

#: Torus line colors of the gallery's overlay cosets, by coset index.
COSET_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
)
CHORD_COLOR = "#000000"
CURVE_COLOR = "#cc2222"
FUNDAMENTAL_COLOR = "#e6a23c"
POINT_RADIUS = 2.5
MARGIN_PX = 40
STROKE_WIDTH = 0.75
SAMPLE_DOT_RADIUS = 2.0
CURVE_SEGMENTS = 1024
#: Elements made (and angles evaluated) per block; bounds the memory
#: that writing a document takes, whatever its size.
_CHUNK_ROWS = 1 << 12
#: `_format_block` rounds |x·10^6| below this with `np.rint`; larger and
#: non-finite values go through `fmt`.
_EXACT_LIMIT = 1e15
#: The most chords one `render_grid` call may draw over all its cells.
_GRID_CHORD_CAP = 10 * MAX_INPUT


class _RenderStyle(NamedTuple):
    canvas_px: int
    show_points: bool
    extend_lines: bool


class RenderStyle(_RenderStyle):
    __slots__ = ()
    _make = classmethod(make_checked)

    def __new__(cls, canvas_px: int = 800, show_points: bool = False,
                extend_lines: bool = False) -> RenderStyle:
        if canvas_px <= 2 * MARGIN_PX:
            raise ValueError(
                f"canvas size {brief_int(canvas_px)} leaves no room inside the "
                f"{MARGIN_PX} px margins; it must exceed {2 * MARGIN_PX}"
            )
        check_input_size(canvas_px)
        return super().__new__(cls, canvas_px, show_points, extend_lines)


class SvgDocument:
    """A stand-alone UTF-8 SVG 1.1 document, made on demand in chunks.

    `body` returns an iterator over the bytes of the elements, each
    ending in a newline.  `save` writes every chunk as soon as it is
    made; `data` joins them.
    """

    __slots__ = ("_width", "_height", "_body")

    def __init__(self, width: int, height: int,
                 body: Callable[[], Iterator[bytes]]):
        self._width = width
        self._height = height
        self._body = body

    def _chunks(self) -> Iterator[bytes]:
        w, h = self._width, self._height
        yield _element(
            '<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">'
        )
        yield from self._body()
        yield b"</svg>\n"

    @property
    def data(self) -> bytes:
        return b"".join(self._chunks())

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            for chunk in self._chunks():
                fh.write(chunk)


class GridCell(NamedTuple):
    """One cell of a family grid; its document is drawn when read."""

    b: int
    r: int
    m: int
    a: int
    style: RenderStyle

    @property
    def doc(self) -> SvgDocument:
        return render_stitch(mmt_chords(StitchGraph(self.m, self.a)), self.style)


def fmt(x: float) -> str:
    """Fixed 6-decimal formatting with negative zero normalized."""
    out = f"{x:.6f}"
    return "0.000000" if out == "-0.000000" else out


def _element(text: str) -> bytes:
    return (text + "\n").encode("utf-8")


def _format_block(values: np.ndarray) -> np.ndarray:
    """`fmt(v)` of every float v, as uint8 rows of one width padded with NULs.

    The result has shape ``values.shape + (width,)``.  The float product
    v·10^6 lies within half a spacing of the exact one, so `np.rint`
    rounds it to the integer that `fmt` prints unless a rounding tie lies
    within one spacing of it.  Values that near a tie (judged with the
    spacing of the block's largest magnitude, which is never smaller),
    values at or beyond `_EXACT_LIMIT` and values that are not finite
    are formatted by `fmt` itself.
    """
    flat = np.ravel(values)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = flat * 1e6
    slow = ~(np.abs(scaled) < _EXACT_LIMIT)
    if slow.any():
        scaled[slow] = 0.0
    rounded = np.rint(scaled)
    digits = np.abs(rounded).astype(np.int64)
    top = int(digits.max(initial=0))
    slow |= np.abs(scaled - rounded) >= 0.5 - np.spacing(float(top))
    texts = {i: fmt(float(flat[i])).encode() for i in np.flatnonzero(slow).tolist()}
    units = digits // 10**6
    frac = (digits - units * 10**6).astype(np.int32)
    units = units.astype(np.int32)
    point = len(str(top // 10**6)) + 1
    out = np.zeros((flat.size, max([point + 7, *map(len, texts.values())])), np.uint8)
    out[:, 0] = (rounded < 0).view(np.uint8) * ord("-")
    out[:, point] = ord(".")
    for col in range(point + 6, point, -1):
        rest = frac // 10
        out[:, col] = frac - rest * 10 + ord("0")
        frac = rest
    for col in range(point - 1, 0, -1):
        rest = units // 10
        digit = units - rest * 10 + ord("0")
        if col < point - 1:
            digit[units == 0] = 0  # a leading zero stays NUL
        out[:, col] = digit
        units = rest
    for i, text in texts.items():
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out.reshape(np.shape(values) + (out.shape[1],))


def _rows(*pieces: bytes | np.ndarray) -> np.ndarray:
    """One uint8 row per element: literal pieces (bytes) with formatted
    numbers (float arrays of one length, a value per element) between."""
    numbers = _format_block(np.stack([p for p in pieces if not isinstance(p, bytes)],
                                     axis=1))
    n = len(numbers)
    fields = iter(np.moveaxis(numbers, 1, 0))  # the numbers' columns in order
    return np.concatenate(
        [np.broadcast_to(np.frombuffer(p, np.uint8), (n, len(p)))
         if isinstance(p, bytes) else next(fields) for p in pieces],
        axis=1,
    )


def _text(rows: np.ndarray) -> bytes:
    """The bytes of uint8 rows, NUL padding removed."""
    return rows.tobytes().replace(b"\0", b"")


def _place(n: int, *placed: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The rows of n elements from (positions, rows) pairs; an element
    that no pair places stays empty."""
    placed = [(at, rows) for at, rows in placed if len(at)]
    if len(placed) == 1 and len(placed[0][0]) == n:  # one kind, all present
        return placed[0][1]
    out = np.zeros((n, max((rows.shape[1] for _, rows in placed), default=0)),
                   np.uint8)
    for at, rows in placed:
        out[at, :rows.shape[1]] = rows
    return out


def _lines(x1, y1, x2, y2, color: str) -> np.ndarray:
    return _rows(b'<line x1="', x1, b'" y1="', y1, b'" x2="', x2, b'" y2="', y2,
                 _element(f'" stroke="{color}" stroke-width="{fmt(STROKE_WIDTH)}"/>'))


def _dots(cx, cy, r: float, color: str) -> np.ndarray:
    return _rows(b'<circle cx="', cx, b'" cy="', cy,
                 _element(f'" r="{fmt(r)}" fill="{color}"/>'))


def _polyline(xs, ys, color: str) -> bytes:
    points = _text(_rows(xs, b",", ys, b" "))[:-1]
    return (b'<polyline points="' + points + _element(
        f'" fill="none" stroke="{color}" stroke-width="{fmt(STROKE_WIDTH)}"/>'))


def _clip_infinite(ax, ay, bx, by, x0, y0, x1, y1):
    """Clip the infinite lines through (a, b) to a rectangle, elementwise.

    Returns the clipped endpoints of the lines that meet the box and the
    mask of those lines.  Each line takes the float operations of a
    scalar Liang-Barsky clip in the same order, with `max`/`min` keeping
    the earlier operand on ties, so the endpoints match it bit for bit.
    """
    dx, dy = bx - ax, by - ay
    tmin = np.full(len(dx), -math.inf)
    tmax = np.full(len(dx), math.inf)
    hit = np.ones(len(dx), bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for delta, lo, hi, start in ((dx, x0, x1, ax), (dy, y0, y1, ay)):
            moving = delta != 0.0
            hit &= moving | ((lo <= start) & (start <= hi))
            t0, t1 = (lo - start) / delta, (hi - start) / delta
            t0, t1 = np.where(t0 > t1, t1, t0), np.where(t0 > t1, t0, t1)
            tmin = np.where(moving & (t0 > tmin), t0, tmin)
            tmax = np.where(moving & (t1 < tmax), t1, tmax)
    hit &= tmin < tmax
    ax, ay, dx, dy, tmin, tmax = (v[hit] for v in (ax, ay, dx, dy, tmin, tmax))
    return ax + tmin * dx, ay + tmin * dy, ax + tmax * dx, ay + tmax * dy, hit


def _to_canvas(x: np.ndarray, y: np.ndarray, ox: float, oy: float,
               scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Canvas x and y of the points (x, y) of a cell whose origin is drawn
    at (ox, oy) and whose unit is `scale` pixels, y up, computed in place
    as ox + scale * x and oy - scale * y."""
    np.multiply(scale, x, out=x)
    np.add(ox, x, out=x)
    np.multiply(scale, y, out=y)
    np.subtract(oy, y, out=y)
    return x, y


class _CircleScene:
    """Maps unit-circle geometry into a square canvas cell."""

    def __init__(self, px: int, ox: float = 0.0):
        self.cx = ox + px / 2.0
        self.cy = px / 2.0
        self.radius = px / 2.0 - MARGIN_PX
        self.box = (ox, 0.0, ox + px, px)

    def at_turns(self, n: np.ndarray, den: int) -> tuple[np.ndarray, np.ndarray]:
        """Canvas x and y of the turns n/den, for an int array n.

        The angle 2π·(n/den) is rounded as for a Python int n (true
        division of exactly converted operands), and its cosine and sine
        come from `math.cos`/`math.sin` one at a time (`cos_sin`).
        """
        return _to_canvas(*cos_sin(2.0 * math.pi * (n / den)),
                          self.cx, self.cy, self.radius)

    def outline(self) -> bytes:
        return _element(
            f'<circle cx="{fmt(self.cx)}" cy="{fmt(self.cy)}" '
            f'r="{fmt(self.radius)}" fill="none" stroke="{CHORD_COLOR}" '
            f'stroke-width="{fmt(STROKE_WIDTH)}"/>'
        )

    def chord_elements(self, chords: ChordSet, color: str, extend: bool,
                       points: bool = False) -> Iterator[bytes]:
        """With `points`, a dot at each position that a chord uses, in
        position order as the position table is filled; then lines for
        regular chords and dots for degenerate ones, in row order.  An
        extended line that misses the canvas is left out."""
        xs, ys = np.zeros(chords.den), np.empty(chords.den)
        if points:
            xs[chords.rows] = 1.0  # marks the used positions until filled
        for lo in range(0, chords.den, _CHUNK_ROWS):
            turns = np.arange(lo, min(lo + _CHUNK_ROWS, chords.den))
            x, y = self.at_turns(turns, chords.den)
            if points:
                at = np.flatnonzero(xs[lo:lo + len(turns)])
                yield _text(_dots(x[at], y[at], POINT_RADIUS, color))
            xs[lo:lo + len(turns)], ys[lo:lo + len(turns)] = x, y
        for lo in range(0, len(chords.rows), _CHUNK_ROWS):
            start, end = chords.rows[lo:lo + _CHUNK_ROWS].T
            line = np.flatnonzero(start != end)
            dot = np.flatnonzero(start == end)
            a, b = start[line], end[line]
            ax, ay, bx, by = xs[a], ys[a], xs[b], ys[b]
            if extend:
                ax, ay, bx, by, hit = _clip_infinite(ax, ay, bx, by, *self.box)
                line = line[hit]
            yield _text(_place(
                len(start),
                (line, _lines(ax, ay, bx, by, color)),
                (dot, _dots(xs[start[dot]], ys[start[dot]], POINT_RADIUS, color)),
            ))


class _TorusScene:
    """Maps the unit square torus into a square canvas cell."""

    def __init__(self, px: int):
        self.x0 = MARGIN_PX
        self.y0 = px - MARGIN_PX
        self.scale = px - 2 * MARGIN_PX

    def outline(self) -> bytes:
        side = fmt(self.scale)
        return _element(
            f'<rect x="{fmt(self.x0)}" y="{fmt(self.y0 - self.scale)}" '
            f'width="{side}" height="{side}" fill="none" '
            f'stroke="{CHORD_COLOR}" stroke-width="{fmt(STROKE_WIDTH)}"/>'
        )

    def line_elements(self, alpha: int, beta: int, offset: numbers.Rational,
                      color: str) -> Iterator[bytes]:
        """The segments of one period of a torus line, block by block."""
        for ends, den in _torus_segments(alpha, beta, offset):
            ends = ends / den
            ax, ay, bx, by = ends.T
            _to_canvas(ax, ay, self.x0, self.y0, self.scale)
            _to_canvas(bx, by, self.x0, self.y0, self.scale)
            yield _text(_lines(ax, ay, bx, by, color))

    def sample_dots(self, chords: ChordSet) -> Iterator[bytes]:
        """A dot at (x, y) for each chord from x to y, in row order."""
        for lo in range(0, len(chords.rows), _CHUNK_ROWS):
            start, end = chords.rows[lo:lo + _CHUNK_ROWS].T
            x, y = _to_canvas(start / chords.den, end / chords.den,
                              self.x0, self.y0, self.scale)
            yield _text(_dots(x, y, SAMPLE_DOT_RADIUS, CHORD_COLOR))


def _torus_segments(alpha: int, beta: int, offset: numbers.Rational
                    ) -> Iterator[tuple[np.ndarray, int]]:
    """Break one period of the torus line y = (beta/alpha) x + offset,
    alpha >= 1, into unit-square segments, in blocks of up to `_CHUNK_ROWS`.

    The line is traced as (alpha·t, beta·t + c), c = p/q the offset, for
    t in [0, 1].  With s = max(|beta|, 1) and den = alpha·s·q, it is cut
    where a coordinate is an integer, at t = u/den: alpha·t at the
    multiples u of s·q, and beta·t + c at the u congruent to -alpha·p
    (beta > 0) or alpha·p (beta < 0) modulo alpha·q.  The two
    progressions are merged window by window, each window short enough
    to hold at most `_CHUNK_ROWS` cuts.  The segment from one cut to the
    next is moved into the square by the integer parts of the lower ends
    of its coordinates.  Each block is (ends, den): per segment, in t
    order, an int64 row (x0, y0, x1, y1) of endpoint numerators in
    [0, den] over den.

    Every intermediate is below (max(alpha, s) + 2)·den in magnitude,
    which is checked to be below 2^53, so the integers are exact and so
    are the endpoints' floats.  The gallery's lines stay far below it.
    The fundamental line <1, a> has den = a < m.  A coset line has
    q | alpha·d, and d·(alpha, beta) is no longer than the shortest
    lattice vector, whose squared norm is at most 2m/sqrt(3); so
    alpha, |beta| <= 1075 and den <= (2m/sqrt(3))^(3/2), about 1.24·10^9,
    at m = 10^6.
    """
    p, q = offset.numerator, offset.denominator
    s = max(abs(beta), 1)
    den = alpha * s * q
    if (max(alpha, s) + 2) * den >= 1 << 53:
        raise ValueError(f"torus line <{alpha}, {beta}> + {offset} is too "
                         "fine for exact int64 cuts")
    # (first cut, step) of each progression; a window of width w holds at
    # most w/step + 1 cuts of a progression, which has den/step in all
    progressions = [(0, s * q)]
    if beta:
        progressions.append((alpha * ((p if beta < 0 else -p) % q), alpha * q))
    width = max((_CHUNK_ROWS - len(progressions)) * den
                // sum(den // step for _, step in progressions),
                min(step for _, step in progressions))
    cuts = np.empty(0, np.int64)
    for lo in range(0, den + 1, width):
        hi = min(lo + width, den + 1)
        # the last cut so far, then first + k·step in [lo, hi) for each
        cuts = np.sort(np.concatenate([cuts[-1:]] + [
            np.arange(-((first - lo) // step), -((first - hi) // step),
                      dtype=np.int64) * step + first
            for first, step in progressions]))
        cuts = cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]
        x = alpha * cuts
        y = beta * cuts + p * alpha * s
        ox = x[:-1] // den * den
        oy = np.minimum(y[:-1], y[1:]) // den * den
        yield np.column_stack((x[:-1] - ox, y[:-1] - oy, x[1:] - ox, y[1:] - oy)), den


def render_stitch(chords: ChordSet, style: RenderStyle) -> SvgDocument:
    """Circle outline, optional boundary dots, and the chord family."""
    scene = _CircleScene(style.canvas_px)

    def body() -> Iterator[bytes]:
        yield scene.outline()
        yield from scene.chord_elements(chords, CHORD_COLOR, style.extend_lines,
                                        style.show_points)

    return SvgDocument(style.canvas_px, style.canvas_px, body)


def render_dance_with_curve(d: PlanetDance, n: int,
                            style: RenderStyle) -> SvgDocument:
    """n sampled chords of a dance plus its cycloid, when drawable.

    Hypocycloids only touch the extended chords, so extension is forced
    on for them.
    """
    spec = classify(d)
    extend = style.extend_lines or spec.kind == "hypocycloid"
    scene = _CircleScene(style.canvas_px)
    chords = sample(Sampling(d, n))
    curve = None
    # a diagonal <c, c> draws the unit circle, its offset-0 family's envelope
    if spec.kind in ("epicycloid", "hypocycloid", "diagonal"):
        curve = _to_canvas(*cycloid_point(
            spec, np.arange(CURVE_SEGMENTS + 1) / CURVE_SEGMENTS),
            scene.cx, scene.cy, scene.radius)

    def body() -> Iterator[bytes]:
        yield scene.outline()
        yield from scene.chord_elements(chords, CHORD_COLOR, extend)
        if curve is not None:
            yield _polyline(*curve, CURVE_COLOR)

    return SvgDocument(style.canvas_px, style.canvas_px, body)


def render_grid(m_target: int, b_max: int, kind: str,
                style: RenderStyle) -> list[GridCell]:
    """One stitch graph per (b, r): rows b = 2..b_max, columns r = 1..b-1.

    A grid that would draw more than `_GRID_CHORD_CAP` chords in all is
    rejected; every cell draws m chords, and m > b.
    """
    if m_target < 1:
        raise ValueError(f"target modulus must be positive, got {brief_int(m_target)}")
    check_input_size(m_target)
    if b_max < 2:
        raise ValueError(f"b_max must be at least 2, got {brief_int(b_max)}")
    cells = []
    chords = 0
    for b in range(2, b_max + 1):
        for r in range(1, b):
            m = nearest_congruent(m_target, r, b)
            chords += m
            if chords > _GRID_CHORD_CAP:
                raise ValueError(
                    f"a grid near m = {m_target} with b up to {brief_int(b_max)} "
                    f"draws more than {_GRID_CHORD_CAP} chords"
                )
            # m = r (mod b) and m > b, so only a bad kind can raise here
            a = predict_family(m, b, kind).a
            cells.append(GridCell(b=b, r=r, m=m, a=a, style=style))
    return cells


def render_gallery_pair(m: int, a: int, style: RenderStyle) -> SvgDocument:
    """Side-by-side torus diagram and stitch graph for one (m, a).

    The torus half draws the fundamental line, one line per alias coset
    (colored by coset index) and the m sample points.
    """
    px = style.canvas_px
    dec = overlay_decompose(m, a)
    a = dec.analysis.a
    alias = dec.analysis.reduced_dance
    lines = [(1, a, 0, FUNDAMENTAL_COLOR)]
    lines += [(*alias, dec.offset(k), COSET_PALETTE[k % len(COSET_PALETTE)])
              for k in range(len(dec.numerators))]
    torus = _TorusScene(px)
    scene = _CircleScene(px, ox=float(px))

    def body() -> Iterator[bytes]:
        # chord k of MMT(m, a) runs from k/m to a*k/m: the sample (k/m, a*k/m)
        chords = mmt_chords(StitchGraph(m, a))
        yield torus.outline()
        for line in lines:
            yield from torus.line_elements(*line)
        yield from torus.sample_dots(chords)
        yield scene.outline()
        yield from scene.chord_elements(chords, CHORD_COLOR, style.extend_lines)

    return SvgDocument(2 * px, px, body)
