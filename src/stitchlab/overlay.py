"""Decompose a stitch graph into rotated copies of its alias dance.

A graph whose alias analysis yields d cosets splits by sample-index
residue mod d.  The cosets lie on parallel copies of the alias line on
the torus, so each is one integer n, its offset and rotation closed forms
in n.  The uniform offset k/(d*alpha) for coset k holds whenever
(alpha*a - beta) / reduced_rate = 1 (mod d) -- true for every
ceiling/floor family -- but not universally (MMT(9, 6) sends coset 1 to
offset 2/3, not 1/3).

:func:`report` and :func:`report_text` give the report `stitchlab analyze` prints.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .cycloid import classify, offset_family_radius
from .dances import PlanetDance
from .kernel import MAX_INPUT, brief_int, check_input_size
from .torusgeo import AliasAnalysis, natural_alias


class OverlayDecomposition(NamedTuple):
    """MMT(m, a) as d rotated copies of its alias dance.

    Coset k's chords are rows ``[k::d]`` of
    ``mmt_chords(StitchGraph(m, a)).rows``.  Its line runs in the alias
    direction ``analysis.reduced_dance``, (alpha, beta) with alpha >= 1,
    through sample k, (k/m, a*k/m).  ``numerators[k]`` is
    n = (alpha*a - beta)*k mod m, in [0, m), from which :meth:`offset`
    and :meth:`rotation` follow.
    """

    analysis: AliasAnalysis
    numerators: tuple[int, ...]

    def offset(self, k: int) -> Fraction:
        """Coset k's line's y-intercept c, of y = (beta/alpha) x + c:
        n/(alpha*m).  It lies in [0, 1/alpha), which holds one intercept
        of each line in that direction."""
        analysis = self.analysis
        return Fraction(self.numerators[k], analysis.reduced_dance.alpha * analysis.m)

    def rotation(self, k: int) -> Fraction | None:
        """The turn by which the base dance is rotated to cover coset k:
        where its line meets the diagonal, n/(m*(alpha - beta)), taken in
        [0, 1/|alpha - beta|) since the dance has that rotational symmetry.
        None for a diagonal alias (alpha = beta), whose coset is a
        constant-separation chord family instead."""
        alpha, beta = self.analysis.reduced_dance
        if alpha == beta:
            return None
        n, m = self.numerators[k], self.analysis.m
        # -n/(m*span) when alpha < beta, brought into [0, 1/span)
        return Fraction(n if alpha > beta else -n % m, m * abs(alpha - beta))


def _frac(f: Fraction | None) -> str | None:
    return None if f is None else f"{f.numerator}/{f.denominator}"


def report(dec: OverlayDecomposition) -> dict:
    """The analysis of a decomposition as one JSON-ready dictionary.

    All rationals are "num/den" strings and the key order is fixed, so
    serializing the dictionary is byte-stable.
    """
    analysis = dec.analysis
    cosets = range(len(dec.numerators))
    dance = analysis.reduced_dance
    spec = classify(dance)
    if spec.kind in ("epicycloid", "hypocycloid"):
        envelope = {
            "kind": spec.kind,
            "fixed_radius": _frac(spec.fixed_radius),
            "rolling_radius": _frac(spec.rolling_radius),
            "cusps": abs(dance.alpha - dance.beta),
        }
    elif spec.kind == "diagonal":
        envelope = {
            "kind": spec.kind,
            # at the text form's 6 decimals, so 1/2 prints as 0.5
            "radii": [round(offset_family_radius(dec.offset(k)), 6) for k in cosets],
        }
    else:
        envelope = {"kind": spec.kind}
    return {
        "m": analysis.m,
        "a": analysis.a,
        "fundamental_dance": {"alpha": 1, "beta": analysis.a},
        "shortest_vector": list(analysis.shortest_vector),
        "natural_dance": {"alpha": dance.alpha, "beta": dance.beta},
        "tie": analysis.tie,
        "d": analysis.coset_count,
        "reduced_rate": analysis.reduced_rate,
        "cosets": [
            {
                "k": k,
                "rotation": _frac(dec.rotation(k)),
                "line_offset": _frac(dec.offset(k)),
            }
            for k in cosets
        ],
        "envelope": envelope,
    }


def report_text(report: dict) -> str:
    """:func:`report`'s dictionary as the lines `stitchlab analyze` prints."""
    lines = [
        f"MMT({report['m']},{report['a']})",
        f"  fundamental dance: <1,{report['fundamental_dance']['beta']}>",
        f"  shortest sample vector: {tuple(report['shortest_vector'])}"
        + (" (tie)" if report["tie"] else ""),
        f"  natural dance: <{report['natural_dance']['alpha']},"
        f"{report['natural_dance']['beta']}>",
        f"  copies: d = {report['d']}, reduced rate m' = {report['reduced_rate']}",
    ]
    for c in report["cosets"]:
        rot = "-" if c["rotation"] is None else c["rotation"]
        lines.append(
            f"    coset {c['k']}: line offset {c['line_offset']}, rotation {rot}"
        )
    env = report["envelope"]
    if "cusps" in env:
        lines.append(
            f"  envelope: {env['kind']}, fixed radius {env['fixed_radius']}, "
            f"rolling radius {env['rolling_radius']}, {env['cusps']} cusp(s)"
        )
    elif "radii" in env:
        radii = ", ".join(f"{r:.6f}" for r in env["radii"])
        lines.append(f"  envelope: {env['kind']}, coset radii {radii}")
    else:
        lines.append(f"  envelope: {env['kind']}")
    return "\n".join(lines)


class FamilyPrediction(NamedTuple):
    """Closed-form decomposition for the ceiling/floor graph families."""

    a: int
    d: int
    dance: PlanetDance
    rotation_step: Fraction


def overlay_decompose(m: int, a: int) -> OverlayDecomposition:
    """Split MMT(m, a) into its d alias cosets, one numerator n each."""
    analysis = natural_alias(m, a)
    # alpha >= 1: the shortest vector is never (0, m), and at m = 1 the
    # tie-break picks (1, 0) over (0, 1)
    step = analysis.reduced_dance.alpha * analysis.a - analysis.reduced_dance.beta
    return OverlayDecomposition(
        analysis, tuple(step * k % m for k in range(analysis.coset_count)))


def predict_family(m: int, b: int, kind: str) -> FamilyPrediction:
    """Closed-form coset structure for multiplier ceil(m/b) or floor(m/b).

    Coset k is rotated by k*rotation_step (mod 1), where the step is 1/r
    for the ceiling family and 1/(b + r) for the floor family; the
    `family_predictions` suite of :mod:`stitchlab.oracle` checks this
    against the computed decomposition.
    """
    check_input_size(m, b)
    if kind not in ("ceiling", "floor"):
        raise ValueError(f"kind must be 'ceiling' or 'floor', got {kind!r}")
    if not (2 <= b < m):
        raise ValueError(f"need 2 <= b < m, got b={b}, m={m}")
    r = m % b
    if r == 0:
        raise ValueError(f"{b} divides {m}; the family needs a remainder")
    d = gcd(b, r)
    if kind == "ceiling":
        a = -(-m // b)
        dance = PlanetDance(b // d, (b - r) // d)
        step = Fraction(1, r)
    else:
        a = m // b
        dance = PlanetDance(b // d, -(r // d))
        step = Fraction(1, b + r)
    return FamilyPrediction(a=a, d=d, dance=dance, rotation_step=step)


def nearest_congruent(target: int, r: int, b: int) -> int:
    """The modulus closest to target with remainder r mod b (ties go low),
    never above the input cap when target is within it."""
    if b < 1:
        raise ValueError(f"step must be positive, got {brief_int(b)}")
    below = target - (target - r) % b
    if below <= b:  # keep b < m so the family is defined
        below = r + b
    above = below + b
    if below >= target or above > MAX_INPUT:
        return below
    return below if target - below <= above - target else above
