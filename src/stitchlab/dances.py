"""Modular stitch graphs, planet dances, and their discrete samplings."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import TYPE_CHECKING

from .kernel import ChordSet, check_input_size

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class PlanetDance:
    """A pair of integer orbital speeds.

    The chord family traced by speeds (alpha, beta) equals the one traced
    by (-alpha, -beta), so construction flips signs into the canonical
    orientation alpha >= 0 (and beta >= 0 when alpha is zero).
    """

    alpha: int
    beta: int

    def __post_init__(self) -> None:
        check_input_size(self.alpha, self.beta)
        if self.alpha < 0 or (self.alpha == 0 and self.beta < 0):
            object.__setattr__(self, "alpha", -self.alpha)
            object.__setattr__(self, "beta", -self.beta)

    @property
    def reduced(self) -> bool:
        return gcd(abs(self.alpha), abs(self.beta)) == 1 or (
            self.alpha == 0 and self.beta == 0
        )


@dataclass(frozen=True)
class StitchGraph:
    """Chord pattern parameters: modulus m and multiplier a.

    The multiplier is normalized into [0, m) at construction; congruent
    multipliers give the same set of chords.
    """

    m: int
    a: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"modulus must be positive, got {self.m}")
        check_input_size(self.m, self.a)
        object.__setattr__(self, "a", self.a % self.m)


@dataclass(frozen=True)
class Sampling:
    """A planet dance together with a positive sampling rate."""

    dance: PlanetDance
    rate: int

    def __post_init__(self) -> None:
        if self.rate < 1:
            raise ValueError(f"sampling rate must be positive, got {self.rate}")
        check_input_size(self.rate)


def mmt_chords(g: StitchGraph) -> ChordSet:
    """All m chords of the graph: index k runs from k/m to (a*k mod m)/m."""
    return ChordSet.from_rows(g.m, sample_pairs(1, g.a, g.m))


def sample(s: Sampling) -> ChordSet:
    """The canonical chord set of the dance at times k/rate, k = 0..rate-1."""
    return ChordSet.from_rows(s.rate, sample_pairs(s.dance.alpha, s.dance.beta, s.rate))


def sample_pairs(alpha: int, beta: int, m: int) -> np.ndarray:
    """The m-sampling of the dance (alpha, beta) as integer rows.

    Returns the sorted unique pairs (alpha*k mod m, beta*k mod m),
    k = 0..m-1, as an (n, 2) int64 array of endpoint numerators over m.
    Every chord set of the package is built here.  Sorting and removing
    duplicates go through the 1-D keys x*m + y, which order like the
    rows.  For alpha = 1 the rows are indexed by the sample index k.
    The arithmetic runs in place, so at most two m-long arrays of keys
    or coordinates are alive at once besides the result.
    """
    import numpy as np

    keys = np.arange(m, dtype=np.int64)
    keys *= alpha % m
    keys %= m
    keys *= m
    y = np.arange(m, dtype=np.int64)
    y *= beta % m
    y %= m
    keys += y
    del y
    keys.sort()
    repeat = keys[1:] == keys[:-1]
    if repeat.any():  # repeats dropped by hand: np.unique took 10-50x longer
        keys = keys[np.concatenate(([True], ~repeat))]
    del repeat
    rows = np.empty((len(keys), 2), np.int64)
    np.divmod(keys, m, out=(rows[:, 0], rows[:, 1]))
    return rows
