"""Cycloid curves enveloped by planet dances, and numeric verification.

Curve parameters are measured in turns (s in [0, 1)); the 2*pi factor is
applied inside evaluation so the curve parameter and the dance time
coincide, making "tangent at the chord's own parameter" literal.

:func:`cycloid_point` is the one place the curve formula lives: `render`
draws its values and :func:`verify_envelope` checks them against chords
built independently, from the cosine and sine of the sample angles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .dances import PlanetDance
from .kernel import check_size, cos_sin

if TYPE_CHECKING:
    import numpy as np

#: tolerance of `EnvelopeReport.passed` (double precision headroom)
FORMULA_TOL = 1e-9

TWO_PI = 2.0 * math.pi


class DegenerateCurveError(ValueError):
    """The parametric equations divide by alpha + beta = 0."""


class CycloidSpec(NamedTuple):
    """Curve classification and rolling/fixed radii for a speed pair.

    Radii follow the rolling-circle construction, one formula for both
    kinds: a circle of radius |min(alpha, beta)|/|alpha+beta| rolls on a
    fixed circle of radius |alpha-beta|/|alpha+beta|, inside it for a
    hypocycloid (beta < 0, so the rolling radius is |beta|/|alpha+beta|)
    and outside it for an epicycloid (the slower speed over the sum).
    """

    alpha: int
    beta: int
    kind: str
    fixed_radius: Fraction | None
    rolling_radius: Fraction | None


class EnvelopeReport(NamedTuple):
    """Numeric tangency summary over one sampled chord family."""

    samples: int
    max_line_distance: float
    max_parallelism_defect: float

    def passed(self) -> bool:
        return (
            self.samples > 0
            and self.max_line_distance < FORMULA_TOL
            and self.max_parallelism_defect < FORMULA_TOL
        )


def classify(d: PlanetDance) -> CycloidSpec:
    """Sort a speed pair into epicycloid / hypocycloid / degenerate kinds,
    with the radii of :class:`CycloidSpec`.

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
    s = abs(alpha + beta)
    return CycloidSpec(
        alpha, beta, "hypocycloid" if beta < 0 else "epicycloid",
        fixed_radius=Fraction(abs(alpha - beta), s),
        rolling_radius=Fraction(abs(min(alpha, beta)), s),
    )


def cycloid_point(spec: CycloidSpec, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The x and y of the curve at each parameter of the 1-D float array s
    (in turns): the scalar formula's float operations, in the same order,
    with `kernel.cos_sin` (numpy's cosine and sine) for the trigonometry."""
    alpha, beta = spec.alpha, spec.beta
    if alpha + beta == 0:  # the point <0,0> included
        raise DegenerateCurveError(
            "alpha + beta = 0: the parametric equations degenerate"
        )
    cos_a, sin_a = cos_sin(TWO_PI * alpha * s)
    cos_b, sin_b = cos_sin(TWO_PI * beta * s)
    denom = alpha + beta
    return (
        (alpha * cos_b + beta * cos_a) / denom,
        (alpha * sin_b + beta * sin_a) / denom,
    )


def offset_family_radius(c: Fraction) -> float:
    """Envelope radius of the constant-separation chord family x -> x + c.

    Chords joining t to t + c all stay at distance |cos(pi c)| from the
    center, so the family envelopes a concentric circle.  This describes
    the diagonal-alias cosets that the rotated-copy picture cannot.  The
    exact lift of c into [-1/2, 1/2] makes dots 1.0 and diameters 0.0.
    """
    c = Fraction(c) % 1
    return math.sin(math.pi * float(Fraction(1, 2) - min(c, 1 - c)))


def verify_envelope(d: PlanetDance, n: int) -> EnvelopeReport:
    """Check tangency numerically over the n-sampled chord family.

    For each non-degenerate chord from A to B at s = k/n, with P the curve
    point :func:`cycloid_point` at s, reports the largest distance from P
    to the chord line and the largest |dF/ds| / (|B - A| |B' - A'|) of
    F = (P - A) x (B - A) at fixed P: both vanish where a line touches its
    envelope.  A, B, A' and B' come from numpy's cos and sin, not from the
    curve.  The library's curve passes for speeds below 10 up to n = 10^4;
    <100,-99> at n = 10^6 does not.
    """
    alpha, beta = d.alpha, d.beta
    if alpha + beta == 0:
        raise DegenerateCurveError("alpha + beta = 0")
    check_size("sample count", n)
    import numpy as np

    k = np.arange(n)
    keep = (k * (alpha - beta)) % n != 0
    if not keep.any():
        return EnvelopeReport(0, 0.0, 0.0)
    s = k[keep] / n
    ta = TWO_PI * alpha * s
    tb = TWO_PI * beta * s
    ax, ay = np.cos(ta), np.sin(ta)
    bx, by = np.cos(tb), np.sin(tb)
    px, py = cycloid_point(classify(d), s)
    # distance from curve point to the infinite chord line
    cx, cy = bx - ax, by - ay
    clen = np.hypot(cx, cy)
    line_dist = np.abs(cx * (py - ay) - cy * (px - ax)) / clen
    # dF/ds = (P - A) x (B' - A') - A' x (B - A), A' = 2*pi*alpha*(-ay, ax)
    dax, day = -TWO_PI * alpha * ay, TWO_PI * alpha * ax
    ux, uy = -TWO_PI * beta * by - dax, TWO_PI * beta * bx - day
    defect = np.abs((px - ax) * uy - (py - ay) * ux - (dax * cy - day * cx)) / (
        clen * np.hypot(ux, uy))
    return EnvelopeReport(
        samples=int(keep.sum()),
        max_line_distance=float(line_dist.max()),
        max_parallelism_defect=float(defect.max()),
    )
