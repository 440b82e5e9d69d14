"""Dances as lines on the flat torus, aliasing, and the natural alias.

The nearest-sample-point question is solved exactly as a shortest-vector
problem in the rank-2 integer lattice generated by (1, a) and (0, m);
Lagrange-Gauss reduction finds the minimum, and the candidate set around
the reduced basis resolves ties deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .dances import PlanetDance, reduce_dance
from .kernel import TorusPoint, check_input_size

Vec = tuple[int, int]


@dataclass(frozen=True)
class TorusLine:
    """A closed line on the unit square torus.

    For a direction (alpha, beta) with alpha != 0 the offset is the
    y-intercept c of y = (beta/alpha) x + c; for alpha = 0 it is the
    x-intercept of the vertical line.
    """

    direction: PlanetDance
    offset: Fraction

    def __post_init__(self) -> None:
        if not self.direction.reduced:
            raise ValueError(f"line direction {self.direction} is not reduced")
        if not (0 <= self.offset < 1):
            raise ValueError(f"line offset {self.offset} outside [0, 1)")


@dataclass(frozen=True)
class AliasAnalysis:
    """The dance a stitch graph most naturally samples.

    ``shortest_vector`` is the nonzero lattice vector (p, q), q = a*p
    (mod m), of minimal Euclidean norm; ``reduced_dance`` is its reduced
    direction.  The through-origin line in that direction passes through
    ``reduced_rate`` = m / ``coset_count`` of the sample points.  ``tie``
    marks that a second, non-equivalent direction achieved the same norm.
    """

    m: int
    a: int
    shortest_vector: Vec
    reduced_dance: PlanetDance
    coset_count: int
    reduced_rate: int
    tie: bool


def line_contains(line: TorusLine, pt: TorusPoint) -> bool:
    """Exact membership test of a torus point on a torus line."""
    alpha, beta = line.direction.alpha, line.direction.beta
    x, y = pt.x.turn, pt.y.turn
    if alpha == 0:
        return (x - line.offset).denominator == 1
    value = beta * x - alpha * y + alpha * line.offset
    return value.denominator == 1


def intersection_count(d1: PlanetDance, d2: PlanetDance) -> int:
    """How many times the two through-origin lines cross on the torus.

    Both directions must be reduced.  The count is |alpha*delta -
    beta*gamma|; zero signals coincident lines.
    """
    for d in (d1, d2):
        if not d.reduced:
            raise ValueError(f"dance {d} is not in reduced form")
        if d.alpha == 0 and d.beta == 0:
            raise ValueError("dance (0, 0) has no torus line")
    return abs(d1.alpha * d2.beta - d1.beta * d2.alpha)


def _norm2(v: Vec) -> int:
    return v[0] * v[0] + v[1] * v[1]


def _lagrange_gauss(b1: Vec, b2: Vec) -> tuple[Vec, Vec]:
    """Reduce a 2D integer basis so b1 is a shortest lattice vector."""
    if _norm2(b1) > _norm2(b2):
        b1, b2 = b2, b1
    while True:
        n1 = _norm2(b1)
        dot = b1[0] * b2[0] + b1[1] * b2[1]
        # nearest-integer quotient, half away from zero
        mu = (2 * dot + n1) // (2 * n1) if dot >= 0 else -((2 * -dot + n1) // (2 * n1))
        b2 = (b2[0] - mu * b1[0], b2[1] - mu * b1[1])
        if _norm2(b2) >= _norm2(b1):
            return b1, b2
        b1, b2 = b2, b1


def _orient(v: Vec) -> Vec:
    p, q = v
    if p < 0 or (p == 0 and q < 0):
        return (-p, -q)
    return (p, q)


def minimal_vectors(m: int, a: int) -> list[Vec]:
    """All shortest nonzero vectors of the lattice {(p, q): q = a*p mod m},
    one representative per +/- pair, in canonical orientation."""
    b1, b2 = _lagrange_gauss((1, a), (0, m))
    candidates = [
        b1,
        b2,
        (b1[0] + b2[0], b1[1] + b2[1]),
        (b1[0] - b2[0], b1[1] - b2[1]),
    ]
    best = _norm2(b1)
    return sorted({_orient(v) for v in candidates if _norm2(v) == best})


def _pick(minima: list[Vec]) -> Vec:
    """Tie-break among minimal vectors: prefer p*q > 0, then smaller |q|."""
    pool = [v for v in minima if v[0] * v[1] > 0] or minima
    return min(pool, key=lambda v: abs(v[1]))


def shortest_sample_vector(m: int, a: int) -> Vec:
    """The lattice vector realizing the sample point nearest the origin."""
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    check_input_size(m, a)
    return _pick(minimal_vectors(m, a))


def natural_alias(m: int, a: int) -> AliasAnalysis:
    """The full answer for one stitch graph: alias dance, coset count, tie."""
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    check_input_size(m, a)
    a %= m
    minima = minimal_vectors(m, a)
    p, q = _pick(minima)
    dance = reduce_dance(PlanetDance(p, q))
    reduced_rate = gcd(dance.alpha * a - dance.beta, m)
    return AliasAnalysis(
        m=m,
        a=a,
        shortest_vector=(p, q),
        reduced_dance=dance,
        coset_count=m // reduced_rate,
        reduced_rate=reduced_rate,
        tie=len(minima) > 1,
    )

