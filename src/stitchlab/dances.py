"""Modular stitch graphs, planet dances, and their discrete samplings."""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING, NamedTuple

from .kernel import ChordSet, check_input_size, check_size, make_checked

if TYPE_CHECKING:
    import numpy as np

#: Samples whose int64 products `sample_pairs` makes at once.
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
    k = 0..m-1, as an (n, 2) int32 array of endpoint numerators over m.
    Every chord set of the package is built here.  Sample k + count
    repeats sample k, count = m / gcd(alpha, beta, m), so the samples
    k < count are the distinct pairs; their keys x*m + y, which order like
    the rows, are sorted.  When alpha = 1 (mod m), count = m and the keys
    k*m + (beta*k mod m) already are sorted, so row k is built directly.
    m <= ``MAX_INPUT`` keeps every numerator below 2^31 and every product
    and key below 2^63: the products are made in int64, `_WINDOW` samples
    at a time, so besides the rows only the keys are count long.
    """
    check_size("modulus", m)
    import numpy as np

    if alpha % m == 1 % m:
        rows = np.empty((m, 2), np.int32)
        for lo in range(0, m, _WINDOW):
            k = np.arange(lo, min(lo + _WINDOW, m), dtype=np.int64)
            rows[lo:lo + _WINDOW, 0] = k
            k *= beta % m
            k %= m
            rows[lo:lo + _WINDOW, 1] = k
        return rows
    count = m // gcd(alpha, beta, m)  # the period of the samples
    keys = np.arange(count, dtype=np.int64)
    keys *= alpha % m
    keys %= m
    keys *= m
    for lo in range(0, count, _WINDOW):
        k = np.arange(lo, min(lo + _WINDOW, count), dtype=np.int64)
        k *= beta % m
        k %= m
        keys[lo:lo + _WINDOW] += k
    keys.sort()
    rows = np.empty((count, 2), np.int32)
    for lo in range(0, count, _WINDOW):
        rows[lo:lo + _WINDOW, 0], rows[lo:lo + _WINDOW, 1] = np.divmod(keys[lo:lo + _WINDOW], m)
    return rows
