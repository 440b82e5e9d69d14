"""Modular stitch graphs, planet dances, and their discrete samplings."""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING, NamedTuple

from .kernel import ChordSet, check_input_size, check_size, make_checked

if TYPE_CHECKING:
    import numpy as np

#: Rows of `sample_pairs` whose int64 products are made at once.
_WINDOW = 1 << 14


class _PlanetDance(NamedTuple):
    alpha: int
    beta: int


class PlanetDance(_PlanetDance):
    """A pair of integer orbital speeds.

    The chord family traced by speeds (alpha, beta) equals the one traced
    by (-alpha, -beta), so construction flips signs into the canonical
    orientation alpha >= 0 (and beta >= 0 when alpha is zero).
    """

    __slots__ = ()
    _make = classmethod(make_checked)

    def __new__(cls, alpha: int, beta: int) -> PlanetDance:
        check_input_size(alpha, beta)
        if alpha < 0 or (alpha == 0 and beta < 0):
            alpha, beta = -alpha, -beta
        return super().__new__(cls, alpha, beta)

    @property
    def reduced(self) -> bool:
        return gcd(abs(self.alpha), abs(self.beta)) == 1 or (
            self.alpha == 0 and self.beta == 0
        )


class _StitchGraph(NamedTuple):
    m: int
    a: int


class StitchGraph(_StitchGraph):
    """Chord pattern parameters: modulus m and multiplier a.

    The multiplier is normalized into [0, m) at construction; congruent
    multipliers give the same set of chords.
    """

    __slots__ = ()
    _make = classmethod(make_checked)

    def __new__(cls, m: int, a: int) -> StitchGraph:
        check_size("modulus", m)
        check_input_size(a)
        return super().__new__(cls, m, a % m)


class _Sampling(NamedTuple):
    dance: PlanetDance
    rate: int


class Sampling(_Sampling):
    """A planet dance together with a positive sampling rate."""

    __slots__ = ()
    _make = classmethod(make_checked)

    def __new__(cls, dance: PlanetDance, rate: int) -> Sampling:
        check_size("sampling rate", rate)
        return super().__new__(cls, dance, rate)


def mmt_chords(g: StitchGraph) -> ChordSet:
    """All m chords of the graph: index k runs from k/m to (a*k mod m)/m.
    They are the m-sampling of the dance <1, a>, over den = m, since
    gcd(1, a, m) = 1."""
    return sample(Sampling(PlanetDance(1, g.a), g.m))


def sample(s: Sampling) -> ChordSet:
    """The canonical chord set of the dance at times k/rate, k = 0..rate-1,
    in lowest terms: sampled from the triple divided by g = gcd(alpha, beta,
    rate), whose row k = 1 shares no factor with rate/g (<0,0>: (0, 0)/1)."""
    alpha, beta = s.dance
    g = gcd(alpha, beta, s.rate)
    return ChordSet._from_rows(s.rate // g, sample_pairs(alpha // g, beta // g, s.rate // g))


def sample_pairs(alpha: int, beta: int, m: int) -> np.ndarray:
    """The m-sampling of the dance (alpha, beta) as integer rows.

    Returns the sorted unique pairs (alpha*k mod m, beta*k mod m),
    k = 0..m-1, as an (n, 2) int32 array of endpoint numerators over m;
    every chord set of the package is built here.  The starts are g*j,
    j < q, for g = gcd(alpha, m) and q = m/g, each reached at k = j times
    (alpha/g)^-1 mod q plus multiples of q, which add beta*q to the end.
    So row j*(m/h) + l is (g*j, c*j mod h + h*l), l < m/h, with
    h = gcd(beta*q, m) and c = beta*(alpha/g)^-1 mod h, for any triple:
    sorted and distinct with no sort.  Windows of about `_WINDOW` rows make
    c*j in int64 (below 2^63, and every numerator below 2^31, as
    m <= ``MAX_INPUT``) and make each end l in [s, 2s) as end l - s plus s*h.
    """
    check_size("modulus", m)
    import numpy as np

    g = gcd(alpha, m)
    q = m // g
    h = gcd(beta * q, m)
    ends = m // h
    c = beta * pow(alpha // g, -1, q) % h
    rows = np.empty((q * ends, 2), np.int32)
    grid = rows.reshape(q, ends, 2)  # grid[j, l]: row j*(m/h) + l
    step = _WINDOW // ends or 1
    for lo in range(0, q, step):
        hi = min(lo + step, q)
        grid[lo:hi, :, 0] = np.arange(lo * g, hi * g, g, dtype=np.int32)[:, None]
        grid[lo:hi, 0, 1] = np.arange(lo, hi, dtype=np.int64) * c % h
        s = 1
        while s < ends:
            np.add(grid[lo:hi, :min(s, ends - s), 1], s * h, out=grid[lo:hi, s:2 * s, 1])
            s *= 2
    return rows
