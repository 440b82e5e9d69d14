"""Output checkers for the stitchlab benchmark.

Every expectation here is recomputed from the inputs with the standard
library and numpy alone; nothing is imported from stitchlab and nothing
is compared against a stored copy of earlier output.  Each checker
returns a list of problems (empty when the output is right).  Problems
caused by a fault the benchmark knows about are returned separately, so
the run can count them as failed operations instead of wrong output.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np

#: Geometry of the default canvas: 800 px square, 40 px margin.
CANVAS_PX = 800
MARGIN_PX = 40
#: Largest distance, in pixels, between a drawn and a computed point.
PX_TOL = 1e-5
#: Parameter steps of the drawn cycloid polyline.
CURVE_SEGMENTS = 1024

#: Label of the known fault: a diagonal natural dance <c,c> describes
#: constant-separation chord families, not a cycloid.
DIAGONAL_FAULT = "diagonal natural dance reported as a cycloid"

_ELEMENT = re.compile(r"<(line|circle|polyline|rect)\b([^>]*)/>")
_ATTR = re.compile(r'([\w-]+)="([^"]*)"')


def elements(svg: str) -> list[tuple[str, dict[str, str]]]:
    """The drawable elements of an SVG document, in document order."""
    return [(tag, dict(_ATTR.findall(body))) for tag, body in _ELEMENT.findall(svg)]


def is_mark(tag: str, attrs: dict[str, str]) -> bool:
    """A chord mark: a line, or a filled dot."""
    return tag == "line" or (tag == "circle" and attrs.get("fill") != "none")


def count_marks(svg: str) -> int:
    """Number of <line> elements plus filled dots in a document."""
    return sum(is_mark(tag, attrs) for tag, attrs in elements(svg))


def _circle_px(turns: np.ndarray, cx: float) -> tuple[np.ndarray, np.ndarray]:
    radius = CANVAS_PX / 2 - MARGIN_PX
    angle = 2.0 * np.pi * turns
    return cx + radius * np.cos(angle), CANVAS_PX / 2 - radius * np.sin(angle)


def _far(got: list[float], want: np.ndarray) -> int:
    """How many coordinates differ from the expected ones by more than PX_TOL."""
    return int((np.abs(np.asarray(got, dtype=float) - want) > PX_TOL).sum())


def check_stitch_marks(marks: list[tuple[str, dict[str, str]]], m: int, a: int,
                       cx: float = CANVAS_PX / 2) -> list[str]:
    """Chord marks of MMT(m, a) drawn on a circle centred at (cx, 400).

    Chord k joins k/m to (a*k mod m)/m.  Sorted by start point, the
    marks run k = 0..m-1; the gcd(a-1, m) chords with a*k = k (mod m)
    are dots, the other m - gcd(a-1, m) are lines.
    """
    k = np.arange(m, dtype=np.int64)
    end = (a % m) * k % m
    dot = end == k
    want_dots = gcd(a - 1, m)
    lines = [attrs for tag, attrs in marks if tag == "line"]
    dots = [attrs for tag, attrs in marks if tag == "circle"]
    problems = []
    if len(lines) != m - want_dots:
        problems.append(f"MMT({m},{a}): {len(lines)} lines, expected {m - want_dots}")
    if len(dots) != want_dots:
        problems.append(f"MMT({m},{a}): {len(dots)} dots, expected {want_dots}")
    if problems:
        return problems
    if [tag == "circle" for tag, _ in marks] != dot.tolist():
        problems.append(f"MMT({m},{a}): lines and dots out of chord order")
    x1, y1 = _circle_px(k[~dot] / m, cx)
    x2, y2 = _circle_px(end[~dot] / m, cx)
    off = sum(
        _far([float(e[key]) for e in lines], want)
        for key, want in (("x1", x1), ("y1", y1), ("x2", x2), ("y2", y2))
    )
    dx, dy = _circle_px(k[dot] / m, cx)
    off += _far([float(e["cx"]) for e in dots], dx)
    off += _far([float(e["cy"]) for e in dots], dy)
    if off:
        problems.append(f"MMT({m},{a}): {off} coordinates off by more than {PX_TOL} px")
    return problems


def check_stitch_svg(svg: str, m: int, a: int) -> list[str]:
    """A `stitch` document: the circle outline, then the chord marks."""
    els = elements(svg)
    if not els or els[0][0] != "circle" or els[0][1].get("fill") != "none":
        return [f"MMT({m},{a}): document does not start with the circle outline"]
    return check_stitch_marks(els[1:], m, a)


def _distinct_pairs(alpha: int, beta: int, n: int) -> int:
    k = np.arange(n, dtype=np.int64)
    return len(set(zip(((alpha * k) % n).tolist(), ((beta * k) % n).tolist())))


def check_dance_svg(svg: str, alpha: int, beta: int, n: int) -> list[str]:
    """A `dance` document: one mark per distinct sampled chord, and a
    polyline on the envelope.

    The envelope point of the chord from e(alpha*s) to e(beta*s), with
    e(t) = (cos 2*pi*t, sin 2*pi*t), is the weighted endpoint average
    (beta*e(alpha*s) + alpha*e(beta*s)) / (alpha + beta).
    """
    name = f"<{alpha},{beta}> n={n}"
    els = elements(svg)
    problems = []
    marks = sum(is_mark(tag, attrs) for tag, attrs in els)
    want = _distinct_pairs(alpha, beta, n)
    if marks != want:
        problems.append(f"dance {name}: {marks} chord marks, expected {want}")
    curves = [attrs for tag, attrs in els if tag == "polyline"]
    if len(curves) != 1:
        return problems + [f"dance {name}: {len(curves)} curves, expected 1"]
    pts = np.array(
        [p.split(",") for p in curves[0]["points"].split()], dtype=float
    )
    if pts.shape != (CURVE_SEGMENTS + 1, 2):
        return problems + [f"dance {name}: curve has {len(pts)} points"]
    s = np.arange(CURVE_SEGMENTS + 1) / CURVE_SEGMENTS
    ax, ay = np.cos(2 * np.pi * alpha * s), np.sin(2 * np.pi * alpha * s)
    bx, by = np.cos(2 * np.pi * beta * s), np.sin(2 * np.pi * beta * s)
    radius = CANVAS_PX / 2 - MARGIN_PX
    ex = CANVAS_PX / 2 + radius * (beta * ax + alpha * bx) / (alpha + beta)
    ey = CANVAS_PX / 2 - radius * (beta * ay + alpha * by) / (alpha + beta)
    off = _far(pts[:, 0], ex) + _far(pts[:, 1], ey)
    if off:
        problems.append(f"dance {name}: {off} curve coordinates off the cycloid")
    return problems


def check_grid(out_dir: Path, m_target: int, b_max: int) -> list[str]:
    """A ceiling-family `grid`: one cell per 2 <= b <= b_max, 1 <= r < b,
    with m = r (mod b) near the target and a = ceil(m/b), each drawn as
    a correct stitch graph."""
    try:
        index = json.loads((out_dir / "index.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"grid: unreadable index ({exc})"]
    cells = index.get("cells", [])
    want = {(b, r) for b in range(2, b_max + 1) for r in range(1, b)}
    got = {(c["b"], c["r"]) for c in cells}
    problems = []
    if got != want or len(cells) != len(want):
        problems.append(f"grid: {len(cells)} cells, expected {len(want)} (b, r) cells")
    for c in cells:
        b, r, m, a = c["b"], c["r"], c["m"], c["a"]
        if m % b != r or abs(m - m_target) > b or a != -(-m // b):
            problems.append(f"grid cell b={b} r={r}: m={m} a={a} is not the "
                            f"ceiling graph near {m_target}")
            continue
        try:
            svg = (out_dir / c["file"]).read_text(encoding="utf-8")
        except OSError as exc:
            problems.append(f"grid cell b={b} r={r}: {exc}")
            continue
        problems += check_stitch_svg(svg, m, a)
    return problems


def check_gallery(out_dir: Path, pairs: list[tuple[int, int]]) -> list[str]:
    """A `gallery`: per pair, a torus panel with the m sample points of
    MMT(m, a) at (k/m, a*k/m), then the stitch graph in the right panel."""
    names = sorted(p.name for p in out_dir.glob("*.svg"))
    want = sorted(f"mmt_{m}_{a}.svg" for m, a in pairs)
    if names != want:
        return [f"gallery: files {names}, expected {want}"]
    side = CANVAS_PX - 2 * MARGIN_PX
    problems = []
    for m, a in pairs:
        els = elements((out_dir / f"mmt_{m}_{a}.svg").read_text(encoding="utf-8"))
        split = [i for i, (tag, attrs) in enumerate(els)
                 if tag == "circle" and attrs.get("fill") == "none"]
        if len(split) != 1:
            problems.append(f"gallery ({m},{a}): {len(split)} circle outlines")
            continue
        samples = [attrs for tag, attrs in els[:split[0]] if tag == "circle"]
        k = np.arange(m)
        if len(samples) != m:
            problems.append(f"gallery ({m},{a}): {len(samples)} torus samples, expected {m}")
        else:
            off = _far([float(e["cx"]) for e in samples], MARGIN_PX + side * k / m)
            off += _far([float(e["cy"]) for e in samples],
                        CANVAS_PX - MARGIN_PX - side * ((a * k) % m) / m)
            if off:
                problems.append(f"gallery ({m},{a}): {off} torus sample coordinates off")
        problems += check_stitch_marks(els[split[0] + 1:], m, a, cx=1.5 * CANVAS_PX)
    return problems


def _centered(v: np.ndarray, m: int) -> np.ndarray:
    return np.where(2 * v <= m, v, v - m)


def nearest_sample_vectors(m: int, a: int) -> tuple[int, list[tuple[int, int]]]:
    """Brute-force nearest sample points of MMT(m, a) on the torus.

    Scans every k = 1..m-1, lifts (k/m, a*k/m) to the representative
    nearest the origin (scaled by m), and returns the minimal squared
    norm with every minimizing vector, oriented so p > 0, or p = 0 and
    q > 0.
    """
    if m == 1:
        return 1, [(1, 0)]
    k = np.arange(1, m, dtype=np.int64)
    p = _centered(k, m)
    q = _centered((a % m) * k % m, m)
    flip = (p < 0) | ((p == 0) & (q < 0))
    p, q = np.where(flip, -p, p), np.where(flip, -q, q)
    norm = p * p + q * q
    best = int(norm.min())
    hit = norm == best
    return best, sorted(set(zip(p[hit].tolist(), q[hit].tolist())))


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _on_line(alpha: int, beta: int, c: Fraction, m: int, a: int, js: range) -> bool:
    """Exact integer test that every sample point j in js lies on the
    torus line of direction (alpha, beta) and offset c.

    For alpha != 0 the line is beta*x - alpha*y + alpha*c = 0 (mod 1);
    for alpha = 0 it is x = c (mod 1).  With x = j/m and y = (a*j mod
    m)/m, both sides are scaled by m * den(c).
    """
    num, den = c.numerator, c.denominator
    mod = m * den
    for j in js:
        if alpha == 0:
            value = j * den - num * m
        else:
            value = (beta * j - alpha * (a * j % m)) * den + alpha * num * m
        if value % mod:
            return False
    return True


def check_analyze(report: dict, m: int, a: int) -> tuple[list[str], list[str]]:
    """An `analyze --json` report for MMT(m, a).

    Returns (problems, known faults).
    """
    name = f"MMT({m},{a})"
    problems: list[str] = []
    faults: list[str] = []
    a %= m
    if report.get("m") != m or report.get("a") != a:
        return [f"{name}: report is for ({report.get('m')},{report.get('a')})"], faults
    p, q = report["shortest_vector"]
    best, _ = nearest_sample_vectors(m, a)
    if (q - a * p) % m or p * p + q * q != best:
        problems.append(f"{name}: shortest vector ({p},{q}) is not a sample "
                        f"vector of squared norm {best}")
    alpha, beta = report["natural_dance"]["alpha"], report["natural_dance"]["beta"]
    if gcd(alpha, beta) != 1 or alpha * q != beta * p or alpha < 0:
        problems.append(f"{name}: natural dance <{alpha},{beta}> is not the "
                        f"reduced direction of ({p},{q})")
    reduced_rate = gcd(alpha * a - beta, m)
    d = report["d"]
    if d * reduced_rate != m or report["reduced_rate"] != reduced_rate:
        problems.append(f"{name}: d={d}, m'={report['reduced_rate']}, but "
                        f"m' = gcd(alpha*a - beta, m) = {reduced_rate}")
        return problems, faults
    cosets = report["cosets"]
    if [c["k"] for c in cosets] != list(range(d)):
        problems.append(f"{name}: cosets {[c['k'] for c in cosets]}, expected 0..{d - 1}")
        return problems, faults
    for c in cosets:
        k, offset = c["k"], _frac(c["line_offset"])
        if not (0 <= offset < 1) or not _on_line(alpha, beta, offset, m, a,
                                                 range(k, m, d)):
            problems.append(f"{name}: coset {k} is not on the line of offset {offset}")
        rho = c["rotation"]
        if alpha == beta:
            if rho is not None:
                problems.append(f"{name}: diagonal coset {k} has rotation {rho}")
            continue
        if rho is None:
            problems.append(f"{name}: coset {k} has no rotation")
            continue
        rho = _frac(rho)
        if ((alpha - beta) * rho - alpha * offset).denominator != 1 or not (
            0 <= rho < Fraction(1, abs(alpha - beta))
        ):
            problems.append(f"{name}: coset {k} rotation {rho} does not solve "
                            f"(alpha-beta)*rho = alpha*{offset} (mod 1)")
    env = report["envelope"]
    if alpha == beta:
        if env["kind"] in ("epicycloid", "hypocycloid"):
            faults.append(f"{name}: {DIAGONAL_FAULT} (<{alpha},{beta}> as {env['kind']})")
        return problems, faults
    kind = ("degenerate_diameter" if alpha + beta == 0
            else "hypocycloid" if beta < 0 else "epicycloid")
    if env["kind"] != kind:
        problems.append(f"{name}: envelope {env['kind']} for <{alpha},{beta}>, expected {kind}")
    elif kind != "degenerate_diameter":
        # chords at t = i/n with n a multiple of |alpha - beta|; the
        # degenerate ones are the cusps
        n = 4 * abs(alpha - beta)
        i = np.arange(n, dtype=np.int64)
        cusps = int(((alpha * i - beta * i) % n == 0).sum())
        if env["cusps"] != cusps:
            problems.append(f"{name}: {env['cusps']} cusps, enumeration finds {cusps}")
    return problems, faults


def _reduced_dance_count(bound: int) -> int:
    """Reduced speed pairs in [-bound, bound]^2, one per orientation:
    (0, 1) and every alpha >= 1 with gcd(alpha, |beta|) = 1."""
    return 1 + sum(gcd(al, abs(be)) == 1 for al in range(1, bound + 1)
                   for be in range(-bound, bound + 1))


def _triangle(n: int) -> int:
    return n * (n + 1) // 2


def expected_verify_cases(max_m: int, bound: int) -> dict[str, int]:
    """Fewest cases each `verify` suite must run at the given bounds.

    Derived from what each suite covers: every graph up to max_m, every
    pair of reduced dances up to bound, the 36 (b, r) family cells in
    two kinds, and the drawable dances with speeds up to min(bound, 6).
    """
    n = _reduced_dance_count(bound)
    top = min(max_m, 60)
    small = min(bound, 6)
    drawable = [(al, be) for al in range(1, small + 1)
                for be in range(-small, small + 1)
                if gcd(al, abs(be)) == 1 and al != be]
    return {
        "stitch_sampling_correspondence": _triangle(max_m) + _triangle(min(max_m, 40)),
        "alias_sampling_equality": n * (n - 1) // 2,
        "intersection_counts": _triangle(n),
        "sampling_identities": 20 * 41 * top + 12 * _triangle(top),
        "shortest_vector": _triangle(max_m),
        "overlay_partition": _triangle(max_m),
        "family_predictions": 2 * _triangle(8),
        "envelope": sum(al + be != 0 for al, be in drawable),
        "cusp_count": len(drawable),
    }


def check_verify(payload: list, returncode: int, max_m: int, bound: int) -> list[str]:
    """A `verify --json` run: exit 0, every suite passed, no expected
    suite missing, and each suite ran at least its derived case count."""
    problems = []
    if returncode != 0:
        problems.append(f"verify: exit code {returncode}")
    got = {r["suite"]: r for r in payload}
    for suite, want in expected_verify_cases(max_m, bound).items():
        if suite not in got:
            problems.append(f"verify: suite {suite} missing")
        elif got[suite]["cases_run"] < want:
            problems.append(f"verify: {suite} ran {got[suite]['cases_run']} "
                            f"cases, expected at least {want}")
    for suite, r in got.items():
        if not r["passed"] or r["failures"]:
            problems.append(f"verify: suite {suite} failed: {r['failures'][:3]}")
    return problems


def cases_run(payload: list) -> int:
    return sum(r["cases_run"] for r in payload)
