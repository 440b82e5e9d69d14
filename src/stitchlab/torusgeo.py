"""Dances as lines on the flat torus, aliasing, and the natural alias.

The nearest-sample-point question is solved exactly as a shortest-vector
problem in the rank-2 integer lattice generated by (1, a) and (0, m);
Lagrange-Gauss reduction finds the minimum, and the candidate set around
the reduced basis resolves ties deterministically.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .dances import PlanetDance
from .kernel import check_input_size, check_size

Vec = tuple[int, int]


class AliasAnalysis(NamedTuple):
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


def _pick(minima: set[Vec]) -> Vec:
    """Tie-break among canonical minimal vectors: prefer p*q > 0, then
    smaller |q|.  Two minima of equal |q| are (p, q) and (p, -q), p > 0,
    and p*q > 0 keeps one of them, so the pick is the same in any order."""
    pool = [v for v in minima if v[0] * v[1] > 0] or minima
    return min(pool, key=lambda v: abs(v[1]))


def natural_alias(m: int, a: int) -> AliasAnalysis:
    """The full answer for one stitch graph: alias dance, coset count, tie.

    Lagrange-Gauss reduction of the basis (1, a), (0, m), with any nearest
    integer as quotient, leaves a reduced basis b1 = (p1, q1), b2 = (p2, q2)
    of the lattice {(p, q): q = a*p mod m}, so every shortest vector is, up
    to sign, one of b1, b2, b1 + b2 and b1 - b2.  Those of b1's norm, in
    canonical orientation (p > 0, or p = 0 < q), are the set of minima that
    :func:`_pick` chooses among, in no order; a second one is a tie.
    """
    check_size("modulus", m)
    check_input_size(a)
    a %= m
    # 1 + a*a <= m*m, so the reduction starts from (1, a) as b1
    p1, q1, n1 = 1, a, 1 + a * a
    p2, q2 = 0, m
    while True:
        dot = p1 * p2 + q1 * q2
        mu = (2 * dot + n1) // (2 * n1)  # a nearest integer to dot / n1
        p2, q2 = p2 - mu * p1, q2 - mu * q1
        n2 = p2 * p2 + q2 * q2
        if n2 >= n1:
            break
        p1, q1, n1, p2, q2 = p2, q2, n2, p1, q1
    minima = {(p, q) if p > 0 or (p == 0 and q > 0) else (-p, -q)
              for p, q in ((p1, q1), (p2, q2), (p1 + p2, q1 + q2), (p1 - p2, q1 - q2))
              if p * p + q * q == n1}
    p, q = _pick(minima)
    g = gcd(p, q)
    dance = PlanetDance(p // g, q // g)
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
