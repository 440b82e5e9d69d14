"""Cycloid curves enveloped by planet dances, and numeric verification.

Curve parameters are measured in turns (s in [0, 1)); the 2*pi factor is
applied inside evaluation so the curve parameter and the dance time
coincide, making "tangent at the chord's own parameter" literal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dances import PlanetDance
from .kernel import embed, wrap

#: default tolerance for exact-formula checks (double precision headroom)
FORMULA_TOL = 1e-9
#: looser tolerance when comparing against the grid-search oracle
ORACLE_TOL = 1e-6

TWO_PI = 2.0 * math.pi


class DegenerateCurveError(ValueError):
    """The parametric equations divide by alpha + beta = 0."""


@dataclass(frozen=True)
class CycloidSpec:
    """Curve classification and rolling/fixed radii for a speed pair.

    Radii follow the rolling-circle construction: for an epicycloid with
    speeds sorted so beta' <= alpha', a circle of radius
    beta'/(alpha'+beta') rolls outside one of radius
    (alpha'-beta')/(alpha'+beta'); for a hypocycloid the rolling radius
    is |beta|/|alpha+beta| inside a circle of radius
    (alpha-beta)/|alpha+beta|.
    """

    alpha: int
    beta: int
    kind: str
    fixed_radius: Fraction | None
    rolling_radius: Fraction | None


@dataclass(frozen=True)
class EnvelopeReport:
    """Numeric tangency summary over one sampled chord family."""

    samples: int
    max_line_distance: float
    max_parallelism_defect: float
    skipped_degenerate: int

    def passed(self, tol: float = FORMULA_TOL) -> bool:
        return (
            self.samples > 0
            and self.max_line_distance < tol
            and self.max_parallelism_defect < tol
        )


def classify(d: PlanetDance) -> CycloidSpec:
    """Sort a speed pair into epicycloid / hypocycloid / degenerate kinds.

    A pair with one zero speed traces a single point; it is reported as
    the limiting epicycloid with rolling radius 0 and fixed radius 1.
    Equal speeds are "diagonal": their aliases are constant-separation
    chord families (see :func:`offset_family_radius`), not cycloids.
    """
    alpha, beta = d.alpha, d.beta  # canonical: alpha >= 0
    if alpha == 0 and beta == 0:
        return CycloidSpec(alpha, beta, "point", None, None)
    if alpha + beta == 0:
        return CycloidSpec(alpha, beta, "degenerate_diameter", None, None)
    if alpha == beta:
        return CycloidSpec(alpha, beta, "diagonal", None, None)
    if beta < 0:
        s = abs(alpha + beta)
        return CycloidSpec(
            alpha, beta, "hypocycloid",
            fixed_radius=Fraction(alpha - beta, s),
            rolling_radius=Fraction(abs(beta), s),
        )
    hi, lo = max(alpha, beta), min(alpha, beta)
    return CycloidSpec(
        alpha, beta, "epicycloid",
        fixed_radius=Fraction(hi - lo, hi + lo),
        rolling_radius=Fraction(lo, hi + lo),
    )


def cycloid_point(spec: CycloidSpec, s: Fraction | float) -> tuple[float, float]:
    """Evaluate the parametric curve at parameter s (in turns)."""
    alpha, beta = spec.alpha, spec.beta
    if alpha == 0 and beta == 0:
        raise DegenerateCurveError("the point curve has no parametrization")
    if alpha + beta == 0:
        raise DegenerateCurveError(
            "alpha + beta = 0: the parametric equations degenerate"
        )
    ta = TWO_PI * alpha * float(s)
    tb = TWO_PI * beta * float(s)
    denom = alpha + beta
    return (
        (alpha * math.cos(tb) + beta * math.cos(ta)) / denom,
        (alpha * math.sin(tb) + beta * math.sin(ta)) / denom,
    )


def tangency_point(d: PlanetDance, s: Fraction) -> tuple[float, float] | None:
    """The point where the chord at parameter s touches the curve.

    Computed as the affine combination (beta*A + alpha*B)/(alpha+beta) of
    the chord endpoints, which lies on the chord line by construction and
    agrees with the parametric curve at the same parameter (checked
    against the grid-search oracle).  Returns None for a degenerate
    chord.
    """
    alpha, beta = d.alpha, d.beta
    if alpha + beta == 0:
        raise DegenerateCurveError("alpha + beta = 0")
    if (Fraction(s) * (alpha - beta)).denominator == 1:
        return None
    ax, ay = embed(wrap(alpha * Fraction(s)))
    bx, by = embed(wrap(beta * Fraction(s)))
    denom = alpha + beta
    return ((beta * ax + alpha * bx) / denom, (beta * ay + alpha * by) / denom)


def offset_family_radius(c: Fraction) -> float:
    """Envelope radius of the constant-separation chord family x -> x + c.

    Chords joining t to t + c all stay at distance |cos(pi c)| from the
    center, so the family envelopes a concentric circle.  This describes
    the diagonal-alias cosets that the rotated-copy picture cannot.  The
    exact lift of c into [-1/2, 1/2] makes dots 1.0 and diameters 0.0.
    """
    c = Fraction(c) % 1
    return math.sin(math.pi * float(Fraction(1, 2) - min(c, 1 - c)))


def verify_envelope(d: PlanetDance, n: int, tol: float = FORMULA_TOL) -> EnvelopeReport:
    """Check tangency numerically over the n-sampled chord family.

    For each non-degenerate chord at s = k/n, measures the distance from
    the curve point to the infinite chord line and the cross product of
    unit chord and unit curve-tangent directions, reporting the maxima.
    """
    alpha, beta = d.alpha, d.beta
    if alpha + beta == 0:
        raise DegenerateCurveError("alpha + beta = 0")
    if n < 1:
        raise ValueError(f"sample count must be positive, got {n}")
    k = np.arange(n)
    keep = (k * (alpha - beta)) % n != 0
    skipped = int(n - keep.sum())
    if not keep.any():
        return EnvelopeReport(0, 0.0, 0.0, skipped)
    s = k[keep] / n
    ta = TWO_PI * alpha * s
    tb = TWO_PI * beta * s
    ax, ay = np.cos(ta), np.sin(ta)
    bx, by = np.cos(tb), np.sin(tb)
    denom = alpha + beta
    px = (alpha * np.cos(tb) + beta * np.cos(ta)) / denom
    py = (alpha * np.sin(tb) + beta * np.sin(ta)) / denom
    # distance from curve point to the infinite chord line
    cx, cy = bx - ax, by - ay
    clen = np.hypot(cx, cy)
    line_dist = np.abs(cx * (py - ay) - cy * (px - ax)) / clen
    # curve tangent vs chord direction
    tx = -(alpha * beta * np.sin(tb) + beta * alpha * np.sin(ta))
    ty = alpha * beta * np.cos(tb) + beta * alpha * np.cos(ta)
    tlen = np.hypot(tx, ty)
    moving = tlen > 1e-12  # a point curve is tangent to every line through it
    defect = np.zeros_like(tlen)
    defect[moving] = np.abs(
        cx[moving] * ty[moving] - cy[moving] * tx[moving]
    ) / (clen[moving] * tlen[moving])
    return EnvelopeReport(
        samples=int(keep.sum()),
        max_line_distance=float(line_dist.max()),
        max_parallelism_defect=float(defect.max()),
        skipped_degenerate=skipped,
    )
