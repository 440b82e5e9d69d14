"""Decompose a stitch graph into rotated copies of its alias dance.

A graph whose alias analysis yields d cosets splits by sample-index
residue mod d; each coset lies exactly on one offset copy of the alias
line on the torus, the line through its first sample k.  The copies
share the alias direction, so a coset is only its offset and its
rotation, each a closed form in n = (alpha*a - beta)*k mod m.  The
uniform offset k/(d*alpha) for coset k holds whenever
(alpha*a - beta) / reduced_rate = 1 (mod d) -- true for every
ceiling/floor family -- but not universally (MMT(9, 6) sends coset 1 to
offset 2/3, not 1/3).
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, gcd
from typing import NamedTuple

from .dances import PlanetDance
from .kernel import MAX_INPUT
from .torusgeo import AliasAnalysis, natural_alias


class Coset(NamedTuple):
    """One residue class of chords and the torus line carrying it.

    Coset k's chords are rows ``[k::d]`` of
    ``mmt_chords(StitchGraph(m, a)).rows``.  Its line runs in the alias
    direction ``dec.analysis.reduced_dance``, (alpha, beta) with
    alpha >= 1, through sample k, (k/m, a*k/m).  ``offset`` is the
    line's y-intercept c, of y = (beta/alpha) x + c: n/(alpha*m) with
    n = (alpha*a - beta)*k mod m.  It lies in [0, 1/alpha), which holds
    one intercept of each line in that direction.  ``rotation`` is the
    turn by which the base dance is rotated to cover this coset: where
    the line meets the diagonal, n/(m*(alpha - beta)), taken in
    [0, 1/|alpha - beta|) since the dance has that rotational symmetry.
    It is absent for diagonal aliases (alpha = beta), where the coset is
    a constant-separation chord family instead.
    """

    index: int
    offset: Fraction
    rotation: Fraction | None


class OverlayDecomposition(NamedTuple):
    analysis: AliasAnalysis
    cosets: tuple[Coset, ...]


class FamilyPrediction(NamedTuple):
    """Closed-form decomposition for the ceiling/floor graph families."""

    a: int
    d: int
    dance: PlanetDance
    rotation_step: Fraction


def overlay_decompose(m: int, a: int) -> OverlayDecomposition:
    """Split MMT(m, a) into its d alias cosets with offsets and rotations."""
    analysis = natural_alias(m, a)
    # alpha >= 1: the shortest vector is never (0, m), and at m = 1 the
    # tie-break picks (1, 0) over (0, 1)
    alpha, beta = analysis.reduced_dance.alpha, analysis.reduced_dance.beta
    span = abs(alpha - beta)
    cosets = []
    for k in range(analysis.coset_count):
        n = (alpha * analysis.a - beta) * k % m
        # -n/(m*span) when alpha < beta, brought into [0, 1/span)
        rotation = (Fraction(n if alpha > beta else -n % m, m * span)
                    if span else None)
        cosets.append(Coset(index=k, offset=Fraction(n, alpha * m), rotation=rotation))
    return OverlayDecomposition(analysis=analysis, cosets=tuple(cosets))


def predict_family(m: int, b: int, kind: str) -> FamilyPrediction:
    """Closed-form coset structure for multiplier ceil(m/b) or floor(m/b).

    Coset k is rotated by k*rotation_step (mod 1), where the step is 1/r
    for the ceiling family and 1/(b + r) for the floor family; the
    `family_predictions` suite of :mod:`stitchlab.oracle` checks this
    against the computed decomposition.
    """
    if kind not in ("ceiling", "floor"):
        raise ValueError(f"kind must be 'ceiling' or 'floor', got {kind!r}")
    if not (2 <= b < m):
        raise ValueError(f"need 2 <= b < m, got b={b}, m={m}")
    r = m % b
    if r == 0:
        raise ValueError(f"{b} divides {m}; the family needs a remainder")
    d = gcd(b, r)
    if kind == "ceiling":
        a = ceil(m / b)
        dance = PlanetDance(b // d, (b - r) // d)
        step = Fraction(1, r)
    else:
        a = floor(m / b)
        dance = PlanetDance(b // d, -(r // d))
        step = Fraction(1, b + r)
    return FamilyPrediction(a=a, d=d, dance=dance, rotation_step=step)


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
