"""Deterministic SVG scenes for chord sets, torus lines, and cycloids.

Every coordinate is printed with exactly six decimal places (negative
zero normalized), element order is fixed, and attribute order is fixed,
so identical inputs yield byte-identical documents suitable for
golden-file comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cycloid import classify, cycloid_point
from .dances import PlanetDance, StitchGraph, mmt_chords, sample_dance, sample_pairs
from .kernel import MAX_INPUT, ChordSet, check_input_size
from .overlay import overlay_decompose
from .torusgeo import TorusLine

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
        if self.stroke_width <= 0:
            raise ValueError("stroke width must be positive")
        if len(self.coset_palette) < 1:
            raise ValueError("palette must have at least one color")
        for color in self.coset_palette:
            if len(color) != 7 or color[0] != "#":
                raise ValueError(f"not a 6-digit hex color: {color!r}")


@dataclass(frozen=True)
class SvgDocument:
    """A stand-alone UTF-8 SVG 1.1 document."""

    data: bytes

    @property
    def text(self) -> str:
        return self.data.decode("utf-8")

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.data)


@dataclass(frozen=True)
class GridCell:
    b: int
    r: int
    m: int
    a: int
    doc: SvgDocument


def fmt(x: float) -> str:
    """Fixed 6-decimal formatting with negative zero normalized."""
    out = f"{x:.6f}"
    return "0.000000" if out == "-0.000000" else out


def _document(width: int, height: int, elements: list[str]) -> SvgDocument:
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    )
    body = "\n".join([head, *elements, "</svg>"]) + "\n"
    return SvgDocument(body.encode("utf-8"))


def _line_el(x1, y1, x2, y2, color: str, width: float) -> str:
    return (
        f'<line x1="{fmt(x1)}" y1="{fmt(y1)}" x2="{fmt(x2)}" y2="{fmt(y2)}" '
        f'stroke="{color}" stroke-width="{fmt(width)}"/>'
    )


def _dot_el(cx, cy, r: float, color: str) -> str:
    return f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="{fmt(r)}" fill="{color}"/>'


def _clip_infinite(ax, ay, bx, by, x0, y0, x1, y1):
    """Clip the infinite line through (a, b) to a rectangle.

    Returns segment endpoints or None when the line misses the box.
    """
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

    def at_turn(self, n: int, den: int) -> tuple[float, float]:
        """Canvas position of n/den turns (n/den rounds as Fraction would)."""
        angle = 2.0 * math.pi * (n / den)
        return self.to_canvas((math.cos(angle), math.sin(angle)))

    def outline(self) -> str:
        return (
            f'<circle cx="{fmt(self.cx)}" cy="{fmt(self.cy)}" '
            f'r="{fmt(self.radius)}" fill="none" stroke="{CHORD_COLOR}" '
            f'stroke-width="{fmt(self.style.stroke_width)}"/>'
        )

    def chord_elements(self, chords: ChordSet, color: str,
                       extend: bool) -> list[str]:
        """Lines for regular chords, dots for degenerate ones."""
        out = []
        for start, end in chords.rows.tolist():
            if start == end:
                x, y = self.at_turn(start, chords.den)
                out.append(_dot_el(x, y, POINT_RADIUS, color))
                continue
            ax, ay = self.at_turn(start, chords.den)
            bx, by = self.at_turn(end, chords.den)
            if extend:
                seg = _clip_infinite(ax, ay, bx, by, *self.box)
                if seg is None:
                    continue
                ax, ay, bx, by = seg
            out.append(_line_el(ax, ay, bx, by, color, self.style.stroke_width))
        return out

    def boundary_dots(self, chords: ChordSet) -> list[str]:
        points = sorted(set(chords.rows.ravel().tolist()))
        return [
            _dot_el(*self.at_turn(n, chords.den), POINT_RADIUS, CHORD_COLOR)
            for n in points
        ]


class _TorusScene:
    """Maps the unit square torus into a square canvas cell."""

    def __init__(self, style: RenderStyle):
        self.style = style
        px = style.canvas_px
        self.x0 = style.margin_px
        self.y0 = px - style.margin_px
        self.scale = px - 2 * style.margin_px

    def to_canvas(self, x: float, y: float) -> tuple[float, float]:
        return (self.x0 + self.scale * x, self.y0 - self.scale * y)

    def outline(self) -> str:
        side = fmt(self.scale)
        return (
            f'<rect x="{fmt(self.x0)}" y="{fmt(self.y0 - self.scale)}" '
            f'width="{side}" height="{side}" fill="none" '
            f'stroke="{CHORD_COLOR}" stroke-width="{fmt(self.style.stroke_width)}"/>'
        )

    def line_elements(self, line: TorusLine, color: str) -> list[str]:
        out = []
        for (x1, y1), (x2, y2) in _unroll_segments(line):
            ax, ay = self.to_canvas(float(x1), float(y1))
            bx, by = self.to_canvas(float(x2), float(y2))
            out.append(_line_el(ax, ay, bx, by, color, self.style.stroke_width))
        return out

    def sample_dots(self, m: int, a: int) -> list[str]:
        out = []
        for k, ak in sample_pairs(1, a, m).tolist():
            x, y = self.to_canvas(k / m, ak / m)
            out.append(_dot_el(x, y, SAMPLE_DOT_RADIUS, CHORD_COLOR))
        return out


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
    elements = [scene.outline()]
    if style.show_points:
        elements.extend(scene.boundary_dots(chords))
    elements.extend(
        scene.chord_elements(chords, CHORD_COLOR, style.extend_lines)
    )
    return _document(style.canvas_px, style.canvas_px, elements)


def render_dance_with_curve(d: PlanetDance, n: int,
                            style: RenderStyle) -> SvgDocument:
    """n sampled chords of a dance plus its cycloid, when drawable.

    Hypocycloids only touch the extended chords, so extension is forced
    on for them.
    """
    spec = classify(d)
    extend = style.extend_lines or spec.kind == "hypocycloid"
    scene = _CircleScene(style)
    elements = [scene.outline()]
    chords = sample_dance(d.alpha, d.beta, n)
    elements.extend(scene.chord_elements(chords, CHORD_COLOR, extend))
    # a diagonal <c, c> draws the unit circle, its offset-0 family's envelope
    if spec.kind in ("epicycloid", "hypocycloid", "diagonal"):
        points = []
        for i in range(CURVE_SEGMENTS + 1):
            x, y = scene.to_canvas(cycloid_point(spec, i / CURVE_SEGMENTS))
            points.append(f"{fmt(x)},{fmt(y)}")
        elements.append(
            f'<polyline points="{" ".join(points)}" fill="none" '
            f'stroke="{CURVE_COLOR}" stroke-width="{fmt(style.stroke_width)}"/>'
        )
    return _document(style.canvas_px, style.canvas_px, elements)


def nearest_congruent(target: int, r: int, b: int) -> int:
    """The modulus closest to target with remainder r mod b (ties go low),
    never above the input cap when target is within it."""
    below = target - (target - r) % b
    if below <= b:  # keep b < m so the family is defined
        below = r + b
    above = below + b
    if below >= target or above > MAX_INPUT:
        return below
    return below if target - below <= above - target else above


def render_grid(m_target: int, b_max: int, kind: str,
                style: RenderStyle | None = None) -> list[GridCell]:
    """One stitch graph per (b, r): rows b = 2..b_max, columns r = 1..b-1."""
    if m_target < 1:
        raise ValueError(f"target modulus must be positive, got {m_target}")
    check_input_size(m_target)
    if b_max < 2:
        raise ValueError(f"b_max must be at least 2, got {b_max}")
    if kind not in ("ceiling", "floor"):
        raise ValueError(f"kind must be 'ceiling' or 'floor', got {kind!r}")
    style = style or RenderStyle()
    cells = []
    for b in range(2, b_max + 1):
        for r in range(1, b):
            m = nearest_congruent(m_target, r, b)
            a = math.ceil(m / b) if kind == "ceiling" else math.floor(m / b)
            doc = render_stitch(mmt_chords(StitchGraph(m, a)), style)
            cells.append(GridCell(b=b, r=r, m=m, a=a, doc=doc))
    return cells


def render_gallery_pair(m: int, a: int, style: RenderStyle) -> SvgDocument:
    """Side-by-side torus diagram and stitch graph for one (m, a).

    The torus half draws the fundamental line, one line per alias coset
    (colored by coset index) and the m sample points.
    """
    px = style.canvas_px
    dec = overlay_decompose(m, a)
    a = dec.analysis.a
    torus = _TorusScene(style)
    elements = [torus.outline()]
    elements.extend(
        torus.line_elements(
            TorusLine(PlanetDance(1, a), Fraction(0)), FUNDAMENTAL_COLOR
        )
    )
    palette = style.coset_palette
    for c in dec.cosets:
        elements.extend(torus.line_elements(c.line, palette[c.index % len(palette)]))
    elements.extend(torus.sample_dots(m, a))
    scene = _CircleScene(style, ox=float(px))
    elements.append(scene.outline())
    elements.extend(
        scene.chord_elements(
            mmt_chords(StitchGraph(m, a)), CHORD_COLOR, style.extend_lines
        )
    )
    return _document(2 * px, px, elements)
