"""Decompose a stitch graph into rotated copies of its alias dance.

A graph whose alias analysis yields d cosets splits by sample-index
residue mod d; each coset lies exactly on one offset copy of the alias
line on the torus.  The uniform offset formula k/(d*alpha) for coset k
holds whenever (alpha*a - beta) / reduced_rate = 1 (mod d) -- true for
every ceiling/floor family -- but not universally (MMT(9, 6) sends coset
1 to offset 2/3, not 1/3), so offsets are computed from the cosets
themselves and stay exact either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd

from .dances import PlanetDance
from .kernel import MAX_INPUT
from .torusgeo import AliasAnalysis, TorusLine, natural_alias


@dataclass(frozen=True)
class Coset:
    """One residue class of chords and the torus line carrying it.

    Coset k's chords are rows ``[k::d]`` of
    ``mmt_chords(StitchGraph(m, a)).rows``.  ``rotation`` is the turn by
    which the base dance is rotated to cover this coset; it is absent for
    diagonal aliases (alpha = beta), where the coset is a
    constant-separation chord family instead.
    """

    index: int
    line: TorusLine
    rotation: Fraction | None


@dataclass(frozen=True)
class OverlayDecomposition:
    analysis: AliasAnalysis
    cosets: tuple[Coset, ...]


@dataclass(frozen=True)
class FamilyPrediction:
    """Closed-form decomposition for the ceiling/floor graph families."""

    b: int
    r: int
    kind: str
    a: int
    d: int
    dance: PlanetDance
    rotation_step: Fraction


def line_through(direction: PlanetDance, x: Fraction, y: Fraction) -> TorusLine:
    """The torus line in the given direction through (x, y), with the
    minimal nonnegative offset."""
    alpha, beta = direction.alpha, direction.beta
    if alpha == 0:
        return TorusLine(direction, x % 1)
    # alpha * c = alpha*y - beta*x (mod 1); smallest c >= 0
    return TorusLine(direction, ((alpha * y - beta * x) % 1) / alpha)


def _rotation_of(line: TorusLine) -> Fraction | None:
    """Where the line meets the diagonal: the rotation of the base dance.

    The dance has |alpha - beta|-fold rotational symmetry, so the
    smallest nonnegative diagonal crossing is reported.
    """
    alpha, beta = line.direction.alpha, line.direction.beta
    if alpha == beta:
        return None
    # (alpha - beta) * rho = alpha * offset (mod 1)
    rho = (alpha * line.offset % 1) / (alpha - beta)
    return (rho % 1) % Fraction(1, abs(alpha - beta))


def overlay_decompose(m: int, a: int) -> OverlayDecomposition:
    """Split MMT(m, a) into its d alias cosets with lines and rotations."""
    analysis = natural_alias(m, a)
    a = analysis.a
    dance = analysis.reduced_dance
    cosets = []
    for k in range(analysis.coset_count):
        # sample k is the first of its coset and lies on the coset's line
        line = line_through(dance, Fraction(k, m), Fraction(a * k, m))
        cosets.append(Coset(index=k, line=line, rotation=_rotation_of(line)))
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
    return FamilyPrediction(
        b=b, r=r, kind=kind, a=a, d=d, dance=dance, rotation_step=step
    )


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
