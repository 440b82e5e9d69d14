"""Deterministic SVG scenes for chord sets, torus lines, and cycloids.

Every coordinate is printed with exactly six decimal places (negative
zero normalized), element order is fixed, and attribute order is fixed,
so identical inputs yield byte-identical documents suitable for
golden-file comparison.  Coordinates take their cosines and sines from
`kernel.cos_sin` (numpy).  The pinned drawings are tested to keep their
bytes when every one of those values moves by up to 2 ULP, as far as two
routines within numpy's 1-ULP accuracy can differ, so they do not depend
on which routine numpy picks for the CPU.

Each figure has one emitter: the circle with its dots and chords
(`_CircleScene.chord_elements`), the gallery's torus half
(`_torus_elements`) and the dance's curve (`_polyline`).  An emitter
yields element text and blocks ``(kinds, kind, values)`` of up to
`_CHUNK_ROWS` elements whose numbers numpy computes.  The document lays
out each block in the one row buffer (`_RowBuffer`) it makes per write,
the numbers formatted by `_format_block` (equal to `fmt` on every value)
between the literal pieces of their kind (`_Kind`); the text is the
block's chunk.  Building a document checks its inputs and computes no
coordinate: the emitters run when it is written, block by block, so
writing it never holds all of it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .cycloid import classify, cycloid_point
from .dances import PlanetDance, Sampling, StitchGraph, mmt_chords, sample
from .kernel import (MAX_INPUT, ChordSet, brief_int, check_input_size, check_size,
                     cos_sin, make_checked)
from .overlay import (OverlayDecomposition, nearest_congruent, overlay_decompose,
                      predict_family)

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
    """Canvas size in pixels (`canvas_px`), dots at chord ends
    (`show_points`) and chords drawn as full lines (`extend_lines`).
    Only `render_stitch`, and grid cells through it, read `show_points`:
    dances and gallery pairs draw no endpoint dots, whatever the style."""

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

    `body` returns an iterator over the elements: bytes ending in a
    newline, or blocks ``(kinds, kind, values)`` that each write lays out
    in the one row buffer it makes.  Each write calls `body` anew, so a
    document computes no coordinate until it is written.  `save` hands
    the chunks to `writelines`, which writes each as soon as it is made;
    neither it nor the document holds an element, a block or a chunk
    while the next is made, so a drawing holds at most one block of text
    besides the buffer.  `data` joins them.
    """

    __slots__ = ("_width", "_height", "_body")

    def __init__(self, width: int, height: int,
                 body: Callable[[], Iterator[bytes | tuple]]):
        self._width = width
        self._height = height
        self._body = body

    def _chunks(self) -> Iterator[bytes]:
        w, h = self._width, self._height
        yield _element(
            '<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">'
        )
        rows = _RowBuffer()
        for part in self._body():
            yield rows.element_rows(*part) if isinstance(part, tuple) else part
            del part  # before the body makes the next
        yield b"</svg>\n"

    @property
    def data(self) -> bytes:
        return b"".join(self._chunks())

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.writelines(self._chunks())


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
    negative = rounded < 0  # a value printed as zero has no sign
    # in place, so that a block's scratch stays a few arrays of its values:
    # the rounding errors and the magnitudes
    scaled -= rounded
    np.abs(scaled, out=scaled)
    np.abs(rounded, out=rounded)
    top = int(rounded.max(initial=0))
    slow |= scaled >= 0.5 - np.spacing(float(top))
    del scaled
    texts = {i: fmt(float(flat[i])).encode() for i in np.flatnonzero(slow).tolist()}
    digits = rounded.astype(np.int64)
    del rounded
    units = (digits // 10**6).astype(np.int32)
    digits %= 10**6
    frac = digits.astype(np.int32)
    del digits  # the digits are written from units and frac alone
    sign = int(negative.any())  # a sign column only when some value needs one
    point = len(str(top // 10**6)) + sign
    out = np.zeros((flat.size, max([point + 7, *map(len, texts.values())])), np.uint8)
    if sign:
        out[:, 0] = negative.view(np.uint8) * ord("-")
    out[:, point] = ord(".")
    for col in range(point + 6, point, -1):
        rest = frac // 10
        frac -= rest * 10
        frac += ord("0")
        out[:, col] = frac
        frac = rest
    del frac
    for col in range(point - 1, sign - 1, -1):
        rest = units // 10
        lead = units == 0  # a leading zero stays NUL
        units -= rest * 10
        units += ord("0")
        if col < point - 1:
            units[lead] = 0
        out[:, col] = units
        units = rest
    for i, text in texts.items():
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out.reshape(np.shape(values) + (out.shape[1],))


class _Kind(NamedTuple):
    """The literal pieces of one kind of element row around its numbers:
    `head` before the first, `seps` between each two, all of one length,
    and `tail` after the last."""

    head: bytes
    seps: tuple[bytes, ...]
    tail: bytes


def _line_kind(color: str) -> _Kind:
    return _Kind(b'<line x1="', (b'" y1="', b'" x2="', b'" y2="'),
                 _element(f'" stroke="{color}" stroke-width="{fmt(STROKE_WIDTH)}"/>'))


def _dot_kind(r: float) -> _Kind:
    return _Kind(b'<circle cx="', (b'" cy="',),
                 _element(f'" r="{fmt(r)}" fill="{CHORD_COLOR}"/>'))


#: A point of a polyline's points attribute, and its last, which closes it.
_POINT = _Kind(b"", (b",",), b" ")
_LAST_POINT = _Kind(b"", (b",",), _element(
    f'" fill="none" stroke="{CURVE_COLOR}" stroke-width="{fmt(STROKE_WIDTH)}"/>'))


class _RowBuffer:
    """The bytearray in which one write of a document lays out the element
    rows of all its blocks.  It is made anew only for a block larger than
    every one before, so it ends the size of the document's largest block.
    """

    __slots__ = ("_data",)

    def __init__(self):
        self._data = bytearray()

    def element_rows(self, kinds: tuple[_Kind, ...], kind: np.ndarray,
                     values: np.ndarray) -> bytearray:
        """The text of a block of elements: row i is of kind ``kinds[kind[i]]``
        around as many of the numbers ``values[:, i]`` as it holds.

        The rows are laid out in the buffer's first bytes: the literal
        pieces of every row by one `np.take` from a table of one row per
        kind, then the numbers that `_format_block` made for every row by
        one strided copy.  So every kind puts its numbers in the same
        columns: its head ends where the longest head of the kinds in the
        block does (NULs pad it in front), and the numbers are one field
        and one separator apart.  A kind with fewer numbers than another in
        the block has its tail written again, in its own rows, over the
        numbers that it does not hold.  The text, without NULs, is a new
        bytearray: the one thing a block makes that outlives it.
        """
        held = np.flatnonzero(np.bincount(kind, minlength=len(kinds))).tolist()
        if not held:
            return bytearray()
        count = max(len(kinds[k].seps) + 1 for k in held)
        fields = _format_block(values[:count])
        _, n, width = fields.shape
        step = width + len(kinds[held[0]].seps[0])
        head = max(len(kinds[k].head) for k in held)
        tails = [head + len(kd.seps) * step + width for kd in kinds]  # where each tail starts
        table = np.zeros((len(kinds), max(tails[k] + len(kinds[k].tail) for k in held)),
                         np.uint8)
        for k in held:
            pieces = [(head - len(kinds[k].head), kinds[k].head), (tails[k], kinds[k].tail)]
            pieces += [(head + j * step + width, sep) for j, sep in enumerate(kinds[k].seps)]
            for at, piece in pieces:
                table[k, at:at + len(piece)] = np.frombuffer(piece, np.uint8)
        size = n * table.shape[1]
        if size > len(self._data):
            self._data = bytearray()  # let go of the old one before making the new
            self._data = bytearray(size)
        view = np.frombuffer(self._data, np.uint8, size).reshape(n, table.shape[1])
        np.take(table, kind, axis=0, out=view, mode="clip")  # "raise" would write via a copy
        as_strided(view[:, head:], (count, n, width), (step, view.strides[0], 1))[...] = fields
        del fields
        for k in held:
            if len(kinds[k].seps) + 1 < count:
                view[kind == k, tails[k]:] = table[k, tails[k]:]
        # `replace` reads the whole buffer, so the bytes past the block are
        # made spaces: they come through as one run, cut off the text
        tail = len(self._data) - size
        np.frombuffer(self._data, np.uint8)[size:] = ord(" ")
        text = self._data.replace(b"\0", b"")
        del text[len(text) - tail:]
        return text


def _block(kind: _Kind, values: np.ndarray) -> tuple:
    """A block of elements of one kind, row i around the numbers
    ``values[:, i]``."""
    return (kind,), np.zeros(values.shape[1], np.uint8), values


def _polyline(xs: np.ndarray, ys: np.ndarray) -> Iterator[bytes | tuple]:
    """A polyline through the points (xs[i], ys[i]): its head, then its
    points in blocks, the last point closing the element."""
    yield b'<polyline points="'
    for lo in range(0, len(xs), _CHUNK_ROWS):
        at = np.arange(lo, min(lo + _CHUNK_ROWS, len(xs)))
        yield (_POINT, _LAST_POINT), (at == len(xs) - 1).view(np.uint8), np.stack((xs[at], ys[at]))


def _clip_infinite(ax, ay, bx, by, x0, y0, x1, y1):
    """Clip the infinite lines through (a, b) to a rectangle, elementwise.

    Both ends a != b of every line must lie inside the box, so by
    convexity every line crosses it; returns the clipped endpoints.  Each
    line takes the float operations of a scalar Liang-Barsky clip in the
    same order, with `max`/`min` keeping the earlier operand on ties, so
    the endpoints match it bit for bit.
    """
    dx, dy = bx - ax, by - ay
    tmin = np.full(len(dx), -math.inf)
    tmax = np.full(len(dx), math.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for delta, lo, hi, start in ((dx, x0, x1, ax), (dy, y0, y1, ay)):
            moving = delta != 0.0
            t0, t1 = (lo - start) / delta, (hi - start) / delta
            t0, t1 = np.where(t0 > t1, t1, t0), np.where(t0 > t1, t0, t1)
            tmin = np.where(moving & (t0 > tmin), t0, tmin)
            tmax = np.where(moving & (t1 < tmax), t1, tmax)
    return ax + tmin * dx, ay + tmin * dy, ax + tmax * dx, ay + tmax * dy


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
        come from `cos_sin`.  So a position's coordinates depend on the
        position alone, whichever chord or block asks for them.
        """
        return _to_canvas(*cos_sin(2.0 * math.pi * (n / den)),
                          self.cx, self.cy, self.radius)

    def chord_elements(self, chords: ChordSet, extend: bool,
                       points: bool = False) -> Iterator[bytes | tuple]:
        """The circle's outline, as element text; with `points`, a dot at
        each position that a chord uses, in position order; then lines for
        regular chords and dots for degenerate ones, in row order.  Each
        block of rows maps the ends of its own chords (`at_turns`): every
        row's start, which is a dot's centre, and each line's end.  So
        drawing holds no table of all positions: only the rows, a den-long
        bool mask of the used positions with `points`, the row buffer and
        one block's working set.  Every chord's ends lie on the circle,
        inside the canvas box, so an extended line crosses the box and no
        chord is left out.  A block holds lines and dots together, in row
        order; a dot's numbers are its centre twice, and the second pair,
        formatted only when the block holds a line, is written over."""
        yield _element(
            f'<circle cx="{fmt(self.cx)}" cy="{fmt(self.cy)}" '
            f'r="{fmt(self.radius)}" fill="none" stroke="{CHORD_COLOR}" '
            f'stroke-width="{fmt(STROKE_WIDTH)}"/>'
        )
        den = chords.den
        kinds = (_line_kind(CHORD_COLOR), _dot_kind(POINT_RADIUS))
        if points:
            used = np.zeros(den, bool)
            used[chords.rows] = True
            for lo in range(0, den, _CHUNK_ROWS):
                at = np.flatnonzero(used[lo:lo + _CHUNK_ROWS]) + lo
                yield _block(kinds[1], np.stack(self.at_turns(at, den)))
        for lo in range(0, len(chords.rows), _CHUNK_ROWS):
            start, end = chords.rows[lo:lo + _CHUNK_ROWS].T
            dot = start == end
            line = np.flatnonzero(~dot)
            coords = np.empty((4, len(start)))  # x1, y1, x2, y2 of each row
            coords[0], coords[1] = self.at_turns(start, den)
            coords[2:] = coords[:2]
            coords[2, line], coords[3, line] = self.at_turns(end[line], den)
            if extend:
                coords[:, line] = _clip_infinite(*coords[:, line], *self.box)
            yield kinds, dot.view(np.uint8), coords


def _torus_elements(px: int, dec: OverlayDecomposition,
                    chords: ChordSet) -> Iterator[bytes | tuple]:
    """The torus half of a gallery pair, the unit square drawn in a px-wide
    cell: its outline, as element text; one period of the fundamental
    line <1, a> and of each alias coset's line, in coset order and colored
    from `COSET_PALETTE` by coset index, block by block; then a dot at
    (x, y) for each chord from x to y, in row order."""
    x0, y0, scale = MARGIN_PX, px - MARGIN_PX, px - 2 * MARGIN_PX
    yield _element(
        f'<rect x="{fmt(x0)}" y="{fmt(y0 - scale)}" width="{fmt(scale)}" '
        f'height="{fmt(scale)}" fill="none" stroke="{CHORD_COLOR}" '
        f'stroke-width="{fmt(STROKE_WIDTH)}"/>'
    )
    lines = [(1, dec.analysis.a, 0, FUNDAMENTAL_COLOR)]
    lines += [(*dec.analysis.reduced_dance, dec.offset(k),
               COSET_PALETTE[k % len(COSET_PALETTE)]) for k in range(len(dec.numerators))]
    for alpha, beta, offset, color in lines:
        for ends, den in _torus_segments(alpha, beta, offset):
            ends = np.ascontiguousarray(ends.T, np.float64)  # x0, y0, x1, y1 rows
            ends /= den
            _to_canvas(ends[0], ends[1], x0, y0, scale)
            _to_canvas(ends[2], ends[3], x0, y0, scale)
            yield _block(_line_kind(color), ends)
    for lo in range(0, len(chords.rows), _CHUNK_ROWS):
        start, end = chords.rows[lo:lo + _CHUNK_ROWS].T
        yield _block(_dot_kind(SAMPLE_DOT_RADIUS), np.stack(_to_canvas(
            start / chords.den, end / chords.den, x0, y0, scale)))


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
    to hold at most `_CHUNK_ROWS` cuts, and a window's cuts start with
    the last cut before it.  The segment from one cut to the
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

    def window(lo: int) -> tuple[np.ndarray, int]:
        hi = min(lo + width, den + 1)
        # the last cut before lo (the largest member below lo of either
        # progression), then first + k·step in [lo, hi) for each
        last = [max(first + (lo - 1 - first) // step * step
                    for first, step in progressions if first < lo)] if lo else []
        cuts = np.sort(np.concatenate([np.array(last, np.int64)] + [
            np.arange(-((first - lo) // step), -((first - hi) // step),
                      dtype=np.int64) * step + first
            for first, step in progressions]))
        cuts = cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]
        x = alpha * cuts
        y = beta * cuts + p * alpha * s
        ox = x[:-1] // den * den
        oy = np.minimum(y[:-1], y[1:]) // den * den
        return np.column_stack((x[:-1] - ox, y[:-1] - oy, x[1:] - ox, y[1:] - oy)), den

    # each window's arrays are gone by the time its block is drawn
    yield from map(window, range(0, den + 1, width))


def render_stitch(chords: ChordSet, style: RenderStyle) -> SvgDocument:
    """Circle outline, optional boundary dots, and the chord family."""
    scene = _CircleScene(style.canvas_px)
    return SvgDocument(style.canvas_px, style.canvas_px, lambda: scene.chord_elements(
        chords, style.extend_lines, style.show_points))


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

    def body() -> Iterator[bytes | tuple]:
        yield from scene.chord_elements(chords, extend)
        # a diagonal <c, c> draws the unit circle, its offset-0 family's envelope
        if spec.kind in ("epicycloid", "hypocycloid", "diagonal"):
            yield from _polyline(*_to_canvas(*cycloid_point(
                spec, np.arange(CURVE_SEGMENTS + 1) / CURVE_SEGMENTS),
                scene.cx, scene.cy, scene.radius))

    return SvgDocument(style.canvas_px, style.canvas_px, body)


def render_grid(m_target: int, b_max: int, kind: str,
                style: RenderStyle) -> list[GridCell]:
    """One stitch graph per (b, r): rows b = 2..b_max, columns r = 1..b-1.

    A grid that would draw more than `_GRID_CHORD_CAP` chords in all is
    rejected; every cell draws m chords, and m > b.
    """
    check_size("target modulus", m_target)
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
    scene = _CircleScene(px, ox=float(px))

    def body() -> Iterator[bytes | tuple]:
        # chord k of MMT(m, a) runs from k/m to a*k/m: the sample (k/m, a*k/m)
        chords = mmt_chords(StitchGraph(m, dec.analysis.a))
        yield from _torus_elements(px, dec, chords)
        yield from scene.chord_elements(chords, style.extend_lines)

    return SvgDocument(2 * px, px, body)
