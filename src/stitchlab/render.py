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
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterator

from .cycloid import classify, cycloid_point
from .dances import PlanetDance, StitchGraph, mmt_chords, sample_dance, sample_pairs
from .kernel import MAX_INPUT, ChordSet, check_input_size
from .overlay import nearest_congruent, overlay_decompose
from .torusgeo import TorusLine

if TYPE_CHECKING:
    import numpy as np

DEFAULT_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
)
CHORD_COLOR = "#000000"
CURVE_COLOR = "#cc2222"
FUNDAMENTAL_COLOR = "#e6a23c"
POINT_RADIUS = 2.5
SAMPLE_DOT_RADIUS = 2.0
CURVE_SEGMENTS = 1024
#: Elements made (and angles evaluated) per block; bounds the memory
#: that writing a document takes, whatever its size.
_CHUNK_ROWS = 1 << 14
#: `_format_block` rounds |x·10^6| below this with `np.rint`; larger and
#: non-finite values go through `fmt`.
_EXACT_LIMIT = 1e15
#: The most chords one `render_grid` call may draw over all its cells.
_GRID_CHORD_CAP = 10 * MAX_INPUT
#: Palette colors are copied into element rows as they are, where a NUL
#: byte would be taken for padding, so only hex digits are accepted.
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


@dataclass(frozen=True)
class RenderStyle:
    canvas_px: int = 800
    margin_px: int = 40
    stroke_width: float = 0.75
    show_points: bool = False
    extend_lines: bool = False
    coset_palette: tuple[str, ...] = DEFAULT_PALETTE

    def __post_init__(self) -> None:
        if self.canvas_px < 1:
            raise ValueError("canvas size must be positive")
        if self.margin_px < 0:
            raise ValueError("margin must be nonnegative")
        if self.canvas_px <= 2 * self.margin_px:
            raise ValueError(
                f"canvas size {self.canvas_px} leaves no room inside the "
                f"{self.margin_px} px margins; it must exceed {2 * self.margin_px}"
            )
        if self.stroke_width <= 0:
            raise ValueError("stroke width must be positive")
        if len(self.coset_palette) < 1:
            raise ValueError("palette must have at least one color")
        for color in self.coset_palette:
            if (len(color) != 7 or color[0] != "#"
                    or not _HEX_DIGITS.issuperset(color[1:])):
                raise ValueError(f"not a 6-digit hex color: {color!r}")


class SvgDocument:
    """A stand-alone UTF-8 SVG 1.1 document, made on demand in chunks.

    `body` returns an iterator over the bytes of the elements, each
    ending in a newline.  `save` writes every chunk as soon as it is
    made; `data` and `text` join them.
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

    @property
    def text(self) -> str:
        return self.data.decode("utf-8")

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            for chunk in self._chunks():
                fh.write(chunk)


@dataclass(frozen=True)
class GridCell:
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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

    placed = [(at, rows) for at, rows in placed if len(at)]
    if len(placed) == 1 and len(placed[0][0]) == n:  # one kind, all present
        return placed[0][1]
    out = np.zeros((n, max((rows.shape[1] for _, rows in placed), default=0)),
                   np.uint8)
    for at, rows in placed:
        out[at, :rows.shape[1]] = rows
    return out


def _lines(x1, y1, x2, y2, color: str, width: float) -> np.ndarray:
    return _rows(b'<line x1="', x1, b'" y1="', y1, b'" x2="', x2, b'" y2="', y2,
                 _element(f'" stroke="{color}" stroke-width="{fmt(width)}"/>'))


def _dots(cx, cy, r: float, color: str) -> np.ndarray:
    return _rows(b'<circle cx="', cx, b'" cy="', cy,
                 _element(f'" r="{fmt(r)}" fill="{color}"/>'))


def _polyline(xs, ys, color: str, width: float) -> bytes:
    points = _text(_rows(xs, b",", ys, b" "))[:-1]
    return (b'<polyline points="' + points
            + _element(f'" fill="none" stroke="{color}" stroke-width="{fmt(width)}"/>'))


def _clip_infinite(ax, ay, bx, by, x0, y0, x1, y1):
    """Clip the infinite lines through (a, b) to a rectangle, elementwise.

    Returns the clipped endpoints of the lines that meet the box and the
    mask of those lines.  Each line takes the float operations of a
    scalar Liang-Barsky clip in the same order, with `max`/`min` keeping
    the earlier operand on ties, so the endpoints match it bit for bit.
    """
    import numpy as np

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


class _CircleScene:
    """Maps unit-circle geometry into a square canvas cell."""

    def __init__(self, style: RenderStyle, ox: float = 0.0):
        self.style = style
        px = style.canvas_px
        self.cx = ox + px / 2.0
        self.cy = px / 2.0
        self.radius = px / 2.0 - style.margin_px
        self.box = (ox, 0.0, ox + px, px)

    def to_canvas(self, p: tuple[float, float]) -> tuple[float, float]:
        return (self.cx + self.radius * p[0], self.cy - self.radius * p[1])

    def at_turns(self, n: np.ndarray, den: int) -> tuple[np.ndarray, np.ndarray]:
        """Canvas x and y of the turns n/den, for an int array n.

        The angle 2π·(n/den) is rounded as for a Python int n (true
        division of exactly converted operands), and its cosine and sine
        come from `math.cos`/`math.sin` one at a time, so the result does
        not depend on numpy's vectorized trigonometry.
        """
        import numpy as np

        cos, sin = np.empty(len(n)), np.empty(len(n))
        for lo in range(0, len(n), _CHUNK_ROWS):
            angles = (2.0 * math.pi * (n[lo:lo + _CHUNK_ROWS] / den)).tolist()
            end = lo + len(angles)
            cos[lo:end] = np.fromiter(map(math.cos, angles), float, len(angles))
            sin[lo:end] = np.fromiter(map(math.sin, angles), float, len(angles))
        # in place, as self.cx + self.radius * cos and self.cy - self.radius * sin
        np.multiply(self.radius, cos, out=cos)
        np.add(self.cx, cos, out=cos)
        np.multiply(self.radius, sin, out=sin)
        np.subtract(self.cy, sin, out=sin)
        return cos, sin

    def outline(self) -> bytes:
        return _element(
            f'<circle cx="{fmt(self.cx)}" cy="{fmt(self.cy)}" '
            f'r="{fmt(self.radius)}" fill="none" stroke="{CHORD_COLOR}" '
            f'stroke-width="{fmt(self.style.stroke_width)}"/>'
        )

    def chord_elements(self, chords: ChordSet, color: str,
                       extend: bool) -> Iterator[bytes]:
        """Lines for regular chords, dots for degenerate ones, in row
        order; an extended line that misses the canvas is left out."""
        import numpy as np

        xs, ys = self.at_turns(np.arange(chords.den), chords.den)
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
                (line, _lines(ax, ay, bx, by, color, self.style.stroke_width)),
                (dot, _dots(xs[start[dot]], ys[start[dot]], POINT_RADIUS, color)),
            ))

    def boundary_dots(self, chords: ChordSet) -> Iterator[bytes]:
        import numpy as np

        used = np.zeros(chords.den, bool)  # np.unique is 100x slower here
        used[chords.rows] = True
        points = np.flatnonzero(used)
        for lo in range(0, len(points), _CHUNK_ROWS):
            x, y = self.at_turns(points[lo:lo + _CHUNK_ROWS], chords.den)
            yield _text(_dots(x, y, POINT_RADIUS, CHORD_COLOR))


class _TorusScene:
    """Maps the unit square torus into a square canvas cell."""

    def __init__(self, style: RenderStyle):
        self.style = style
        px = style.canvas_px
        self.x0 = style.margin_px
        self.y0 = px - style.margin_px
        self.scale = px - 2 * style.margin_px

    def to_canvas(self, x, y):
        return (self.x0 + self.scale * x, self.y0 - self.scale * y)

    def outline(self) -> bytes:
        side = fmt(self.scale)
        return _element(
            f'<rect x="{fmt(self.x0)}" y="{fmt(self.y0 - self.scale)}" '
            f'width="{side}" height="{side}" fill="none" '
            f'stroke="{CHORD_COLOR}" stroke-width="{fmt(self.style.stroke_width)}"/>'
        )

    def line_elements(self, line: TorusLine, color: str) -> bytes:
        import numpy as np

        ends = np.array([[float(v) for end in segment for v in end]
                         for segment in _unroll_segments(line)])
        ax, ay = self.to_canvas(ends[:, 0], ends[:, 1])
        bx, by = self.to_canvas(ends[:, 2], ends[:, 3])
        return _text(_lines(ax, ay, bx, by, color, self.style.stroke_width))

    def sample_dots(self, m: int, a: int) -> Iterator[bytes]:
        pairs = sample_pairs(1, a, m)
        for lo in range(0, m, _CHUNK_ROWS):
            k, ak = pairs[lo:lo + _CHUNK_ROWS].T
            x, y = self.to_canvas(k / m, ak / m)
            yield _text(_dots(x, y, SAMPLE_DOT_RADIUS, CHORD_COLOR))


def _unroll_segments(line: TorusLine):
    """Break one period of a torus line into unit-square segments.

    Breakpoints are computed exactly so segment order and endpoints are
    deterministic; each piece is translated into the square by the
    integer parts at its midpoint.
    """
    alpha, beta = line.direction.alpha, line.direction.beta
    c = line.offset
    if alpha == 0:
        return [((c, Fraction(0)), (c, Fraction(1)))]
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


def render_stitch(chords: ChordSet, style: RenderStyle) -> SvgDocument:
    """Circle outline, optional boundary dots, and the chord family."""
    scene = _CircleScene(style)

    def body() -> Iterator[bytes]:
        yield scene.outline()
        if style.show_points:
            yield from scene.boundary_dots(chords)
        yield from scene.chord_elements(chords, CHORD_COLOR, style.extend_lines)

    return SvgDocument(style.canvas_px, style.canvas_px, body)


def render_dance_with_curve(d: PlanetDance, n: int,
                            style: RenderStyle) -> SvgDocument:
    """n sampled chords of a dance plus its cycloid, when drawable.

    Hypocycloids only touch the extended chords, so extension is forced
    on for them.
    """
    import numpy as np

    spec = classify(d)
    extend = style.extend_lines or spec.kind == "hypocycloid"
    scene = _CircleScene(style)
    chords = sample_dance(d.alpha, d.beta, n)
    curve = None
    # a diagonal <c, c> draws the unit circle, its offset-0 family's envelope
    if spec.kind in ("epicycloid", "hypocycloid", "diagonal"):
        curve = np.array([scene.to_canvas(cycloid_point(spec, i / CURVE_SEGMENTS))
                          for i in range(CURVE_SEGMENTS + 1)])

    def body() -> Iterator[bytes]:
        yield scene.outline()
        yield from scene.chord_elements(chords, CHORD_COLOR, extend)
        if curve is not None:
            yield _polyline(curve[:, 0], curve[:, 1], CURVE_COLOR, style.stroke_width)

    return SvgDocument(style.canvas_px, style.canvas_px, body)


def render_grid(m_target: int, b_max: int, kind: str,
                style: RenderStyle | None = None) -> list[GridCell]:
    """One stitch graph per (b, r): rows b = 2..b_max, columns r = 1..b-1.

    A grid that would draw more than `_GRID_CHORD_CAP` chords in all is
    rejected; every cell draws m chords, and m > b.
    """
    if m_target < 1:
        raise ValueError(f"target modulus must be positive, got {m_target}")
    check_input_size(m_target)
    if b_max < 2:
        raise ValueError(f"b_max must be at least 2, got {b_max}")
    if kind not in ("ceiling", "floor"):
        raise ValueError(f"kind must be 'ceiling' or 'floor', got {kind!r}")
    style = style or RenderStyle()
    cells = []
    chords = 0
    for b in range(2, b_max + 1):
        for r in range(1, b):
            m = nearest_congruent(m_target, r, b)
            chords += m
            if chords > _GRID_CHORD_CAP:
                raise ValueError(
                    f"a grid near m = {m_target} with b up to {b_max} draws "
                    f"more than {_GRID_CHORD_CAP} chords"
                )
            a = math.ceil(m / b) if kind == "ceiling" else math.floor(m / b)
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
    palette = style.coset_palette
    lines = [(TorusLine(PlanetDance(1, a), Fraction(0)), FUNDAMENTAL_COLOR)]
    lines += [(c.line, palette[c.index % len(palette)]) for c in dec.cosets]
    torus = _TorusScene(style)
    scene = _CircleScene(style, ox=float(px))

    def body() -> Iterator[bytes]:
        yield torus.outline()
        for line, color in lines:
            yield torus.line_elements(line, color)
        yield from torus.sample_dots(m, a)
        yield scene.outline()
        yield from scene.chord_elements(
            mmt_chords(StitchGraph(m, a)), CHORD_COLOR, style.extend_lines
        )

    return SvgDocument(2 * px, px, body)
