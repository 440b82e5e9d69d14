"""Brute-force counterparts of the closed forms, run as the `verify` suites.

Each suite checks library code against a counterpart that shares no code
with it:

- ``stitch_sampling_correspondence``: the rows of ``sample_pairs(1, a, m)``
  against endpoints built as running sums e_k = e_(k-1) + a (mod m), and
  for m <= 40 the ``den`` and rows of ``mmt_chords(StitchGraph(m, a - m))``
  against m and the same sums;
- ``alias_sampling_equality``: ``sample_pairs`` of two dances whose
  determinant is m;
- ``intersection_counts``: ``intersection_count`` against
  :func:`brute_intersections`;
- ``sampling_identities``: the shift and invertibility identities on keys
  (alpha*k mod m)*m + (beta*k mod m) that :func:`_sample_keys` builds as
  one int32 batch per modulus; a shifted dance is compared with its base
  dance chord by chord, and invertibility rows are compared sorted, since
  a sampling visits each key of its image equally often;
- ``shortest_vector``: the vector and ``tie`` of ``natural_alias(m, a)``
  against :func:`brute_shortest_vectors`;
- ``overlay_partition``: d cosets on d distinct lines, each chord on its
  ``overlay_decompose`` coset line and on its coset's rotated dance, its
  line numerator mod m read once and compared with the coset's n and
  with the integer t that the rotation names, the alias direction
  reduced, each offset in [0, 1/alpha) and equal to n/(alpha*m), the
  intercept of the coset's line, each rotation in
  [0, 1/|alpha - beta|), and diagonal radii against center distances;
- ``family_predictions``: ``predict_family`` against ``overlay_decompose``;
- ``envelope``: ``verify_envelope``, the library's curve
  (``cycloid_point``) at each chord's own parameter on the chord line
  and where the moving line touches it, the chords and their derivatives
  built from numpy's cosine and sine of the sample angles;
- ``cusp_count``: |alpha - beta| against the degenerate rows of
  ``sample_pairs``.

``overlay_partition`` decomposes every graph MMT(m, a) up to max_m, once
each, and ``family_predictions`` the graphs of its 72 cases.  Three
suites check less than the bounds name, and each says so in its
``info``: ``sampling_identities`` stops at m = 60, the correspondence
suite's ``mmt_chords`` check at m = 40, and ``family_predictions`` takes
no bound.
Each of the four max_m suites is a unit of one modulus, which returns
its piece (failures, cases, *counts), and a join, which adds up the
cases and counts of the pieces, joins their failures in m order, cuts
them to 20 and makes the suite's report; ``_suite_*(max_m)`` runs its
units in order through its join.
:func:`verify_all` hands one list of jobs to :func:`_run_suites`: the
five suites that take the dance bound, each whole, then every unit by m,
largest first.  Where
``os.fork`` exists, the calling process and a forked child each take the
next job that neither has started.  Each job's wall time, taken in the
process that ran it, comes back beside its result, and a max_m suite's
time is the sum of its units' times, from both processes.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from itertools import chain, combinations, combinations_with_replacement, islice
from math import gcd, isqrt
from typing import NamedTuple

import numpy as np

from .cycloid import offset_family_radius, verify_envelope
from .dances import PlanetDance, StitchGraph, mmt_chords, sample_pairs
from .kernel import brief_int
from .overlay import nearest_congruent, overlay_decompose, predict_family
from .torusgeo import intersection_count, natural_alias


class VerificationReport(NamedTuple):
    """Outcome of one suite: a passed suite has no failures."""

    suite: str
    cases_run: int
    failures: tuple[tuple[str, str, str], ...] = ()
    info: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures


#: The largest bounds `verify_all` accepts, and so the largest sizes the
#: brute-force counterparts take.  The max_m suites check max_m^2/2
#: graphs; at 600 the two processes share the units of overlay_partition
#: (5.4 s in all), the correspondence suite (4.1 s) and shortest_vector
#: (1.5 s), and the command took 6.1 s.  The bound suites, which grow
#: about as bound^4, took 0.9 s at 12 (2-core Xeon, Python 3.11, numpy
#: 2.4, medians of 5 runs).  At both limits the job list must still fit
#: one pipe page (see :func:`_run_suites`).
_MAX_M = 600
_MAX_BOUND = 12


def brute_shortest_vectors(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Shortest sample vector and tie flag of MMT(m, a) for every 0 <= a < m.

    Enumerates every lattice vector (p, q), q = a*p (mod m), with
    0 <= p <= min(H, h) and |q| <= h = max(m // 2, 1), oriented so p > 0
    or p = 0 < q; H is the largest integer with 3*H^4 <= 4*m^2, and q runs
    over a*p mod m shifted by -m, 0 and +m, which holds every q with
    |q| <= h.  The box holds every shortest vector.  For m >= 2,
    (p -/+ m, q) and (p, q -/+ m) are shorter lattice vectors when |p| or
    |q| exceeds m/2, and nonzero except for (+/-m, 0) and (0, +/-m), which
    are longer than (1, a lifted into [-m/2, m/2]); for m = 1, |p|, |q| <= h
    holds both unit vectors.  And the lattice has determinant m, and
    Hermite's constant in dimension 2 is 2/sqrt(3), so a shortest vector
    has p^2 + q^2 <= 2*m/sqrt(3), so 3*p^4 <= 4*m^2 and p <= H.
    Among the minima p*q > 0 is preferred, then the smaller |q|, then the
    smaller (p, q); a tie is a second minimum.  Returns the (m, 2) vectors
    and the (m,) tie flags.  m runs from 1 to ``_MAX_M``.
    """
    if not 1 <= m <= _MAX_M:
        raise ValueError(f"m must be in 1..{_MAX_M}, got {brief_int(m)}")
    h = max(m // 2, 1)
    top = min(isqrt(isqrt(4 * m * m // 3)), h)  # floor((4*m^2/3)^(1/4)) is H
    a = np.arange(m, dtype=np.int64)[:, None, None]
    p = np.arange(top + 1, dtype=np.int64)[None, :, None]
    q = (a * p % m + np.array([-m, 0, m], dtype=np.int64)).reshape(m, -1)
    p = np.broadcast_to(p, (m, top + 1, 3)).reshape(m, -1)
    big = np.iinfo(np.int64).max
    norm = np.where((np.abs(q) <= h) & ((p > 0) | (q > 0)), p * p + q * q, big)
    minimal = norm == norm.min(axis=1, keepdims=True)
    # lexicographic tie-break key (p*q <= 0, |q|, p, q)
    key = (((p * q <= 0) * (m + 1) + np.abs(q)) * (m + 1) + p) * (2 * m + 1) + q + m
    best = np.where(minimal, key, big).argmin(axis=1)
    rows = np.arange(m)
    return np.column_stack((p[rows, best], q[rows, best])), minimal.sum(axis=1) > 1


def brute_intersections(d1: PlanetDance, d2: PlanetDance) -> int:
    """Count torus-line crossings by enumeration.

    A crossing is a pair (t, s) in [0, 1)^2 with (alpha1*t - alpha2*s,
    beta1*t - beta2*s) = (u, v) integral.  Every such (u, v) lies in the
    box spanned by the images of the unit square's corners; each integer
    point of the box is solved for (t, s) by Cramer's rule, in integers,
    and counted when both lie in [0, 1).  Coincident lines (det = 0)
    count 0: no point has 0 <= t < |det|.  Speeds run up to
    ``_MAX_BOUND`` in absolute value.
    """
    for d in (d1, d2):
        if not d.reduced or (d.alpha == 0 and d.beta == 0):
            raise ValueError(f"dance {d} is not a reduced torus direction")
        if max(abs(d.alpha), abs(d.beta)) > _MAX_BOUND:
            raise ValueError(f"dance {d} has a speed past {_MAX_BOUND}")
    a1, b1, a2, b2 = d1.alpha, d1.beta, -d2.alpha, -d2.beta
    det = a1 * b2 - a2 * b1
    u = np.arange(min(a1, 0) + min(a2, 0), max(a1, 0) + max(a2, 0) + 1)[:, None]
    v = np.arange(min(b1, 0) + min(b2, 0), max(b1, 0) + max(b2, 0) + 1)[None, :]
    sign = 1 if det > 0 else -1
    t = sign * (u * b2 - v * a2)  # t = (u*b2 - v*a2) / det
    s = sign * (v * a1 - u * b1)  # s = (v*a1 - u*b1) / det
    size = abs(det)
    return int(((t >= 0) & (t < size) & (s >= 0) & (s < size)).sum())


def reduced_dances(bound: int) -> list[tuple[int, int]]:
    """All reduced speed pairs with coordinates in [-bound, bound], one
    per canonical orientation; bound runs up to ``_MAX_BOUND``."""
    if bound > _MAX_BOUND:
        raise ValueError(f"bound must be at most {_MAX_BOUND}, got {brief_int(bound)}")
    out = [(0, 1)]
    for alpha in range(1, bound + 1):
        for beta in range(-bound, bound + 1):
            if gcd(alpha, abs(beta)) == 1:
                out.append((alpha, beta))
    return out


#: The correspondence suite checks ``mmt_chords`` up to this modulus.
_API_MAX_M = 40


def _correspondence_failures(m: int) -> tuple[list, int]:
    """The correspondence suite's piece at m: (failures, cases)."""
    # expected[a, k] = (k, e_k), chord k of MMT(m, a), with the endpoint
    # a*k mod m built as the running sum e_0 = 0, e_k = e_(k-1) + a (mod m)
    k = np.arange(m, dtype=np.int64)
    steps = np.broadcast_to(k[:, None], (m, m))
    ends = (np.cumsum(steps, axis=1) - steps) % m
    expected = np.stack((np.broadcast_to(k, (m, m)), ends), axis=-1)
    failures = [(f"MMT({m},{a})", "equal chord sets", "differs") for a in range(m)
                if not np.array_equal(sample_pairs(1, a, m), expected[a])]
    if m > _API_MAX_M:
        return failures, m
    # the full API on the small prefix, from a congruent negative multiplier
    for a in range(m):
        chords = mmt_chords(StitchGraph(m, a - m))
        if chords.den != m or not np.array_equal(chords.rows, expected[a]):
            failures.append((f"MMT({m},{a}) API", "equal chord sets", "differs"))
    return failures, 2 * m


def _joined(pieces) -> tuple:
    """The pieces of one suite's units, in m order, as one: their failures
    joined and cut to 20, then their cases and each count summed."""
    failures, *totals = zip(*pieces)
    return (tuple(islice(chain.from_iterable(failures), 20)), *map(sum, totals))


def _join_correspondence(pieces, max_m: int) -> VerificationReport:
    failures, cases = _joined(pieces)
    return VerificationReport("stitch_sampling_correspondence", cases, failures,
                              (f"mmt_chords for m <= {min(max_m, _API_MAX_M)} of max_m {max_m}",))


def _suite_correspondence(max_m: int) -> VerificationReport:
    return _join_correspondence(map(_correspondence_failures, range(1, max_m + 1)), max_m)


def _suite_aliasing(bound: int) -> VerificationReport:
    pairs = list(combinations(reduced_dances(bound), 2))
    failures = []
    for (a1, b1), (a2, b2) in pairs:
        m = abs(a1 * b2 - b1 * a2)  # >= 1: no two reduced dances are parallel
        if not np.array_equal(sample_pairs(a1, b1, m), sample_pairs(a2, b2, m)):
            failures.append((f"<{a1},{b1}> vs <{a2},{b2}> at m={m}",
                             "equal samplings", "differs"))
    return VerificationReport("alias_sampling_equality", len(pairs), tuple(failures[:20]))


def _suite_intersections(bound: int) -> VerificationReport:
    pairs = list(combinations_with_replacement(reduced_dances(bound), 2))
    failures = []
    for (a1, b1), (a2, b2) in pairs:
        formula = intersection_count(PlanetDance(a1, b1), PlanetDance(a2, b2))
        brute = brute_intersections(PlanetDance(a1, b1), PlanetDance(a2, b2))
        if formula != brute:
            failures.append((f"<{a1},{b1}> vs <{a2},{b2}>", str(formula), str(brute)))
    return VerificationReport("intersection_counts", len(pairs), tuple(failures[:20]))


#: The sampling-identities suite's bounds: speeds -_SPEED.._SPEED, alpha
#: 1.._SHIFT_ALPHAS for the shift identity and 1.._INVERT_ALPHAS for
#: invertibility, moduli up to _IDENTITIES_MAX_M.  Every intermediate fits
#: in int32: a shift speed has |beta +/- m| <= 20*20 + 60 = 460, so
#: |(beta +/- m)*k| <= 460*59 = 27,140; an invertibility speed alpha*a
#: <= 12*59 = 708 gives alpha*a*k <= 708*59 = 41,772; alpha*k <= 20*59;
#: and keys stay below m*m <= 3,600.  Widening any bound means checking
#: the dtype again.
_SPEED = 20
_SHIFT_ALPHAS = 20
_INVERT_ALPHAS = 12
_IDENTITIES_MAX_M = 60


def _sample_keys(alphas: np.ndarray, betas: np.ndarray, m: int) -> np.ndarray:
    """keys[..., k] = (alpha*k mod m)*m + (beta*k mod m), k = 0..m-1.

    The int32 ``alphas`` broadcast against the int32 ``betas``; each row
    of keys is the m-sampling of <alpha, beta>, chord k encoded as one
    integer.  The alpha half is computed once per alpha and broadcast;
    beta*k is reduced mod m for each k, never beta first.
    """
    k = np.arange(m, dtype=np.int32)
    keys = betas[..., None] * k
    keys %= m
    keys += alphas[..., None] * k % m * m
    return keys


def _same_sets(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Whether each row of lhs holds the same keys as the row of rhs, the
    two broadcast against each other.

    A row is an m-sampling k -> (alpha*k mod m, beta*k mod m), a group
    homomorphism from Z_m, so it visits each key of its image m/|image|
    times: two rows hold the same set iff they are equal once sorted.
    """
    return (np.sort(lhs, axis=-1) == np.sort(rhs, axis=-1)).all(axis=-1)


def _shift_failures(betas: np.ndarray, m: int) -> list:
    """Failures of the shift identity at m: row alpha - 1 of ``betas``
    holds the speeds beta of <alpha, beta>, and each dance must sample
    the same chords, k by k, as <alpha, beta + m>, then as
    <alpha, beta - m>, since (beta +/- m)*k = beta*k (mod m)."""
    alphas = np.arange(1, len(betas) + 1, dtype=np.int32)[:, None]
    keys = _sample_keys(alphas, np.concatenate((betas, betas + m, betas - m), axis=1), m)
    base, *others = np.split(keys, 3, axis=1)
    return [(f"shift <{j + 1},{int(betas[j, i]) + shift}> m={m}", "equal", "differs")
            for shift, other in zip((m, -m), others)
            for j, i in zip(*np.nonzero((base != other).any(axis=-1)))]


def _invertibility_failures(m: int) -> list:
    """Failures of invertibility at m, by alpha, then a: <1, a> and
    <alpha, alpha*a> sample the same set iff gcd(alpha, m) = 1."""
    alphas = np.arange(1, _INVERT_ALPHAS + 1, dtype=np.int32)[:, None]
    a = np.arange(m, dtype=np.int32)
    same = _same_sets(_sample_keys(np.int32(1), a, m), _sample_keys(alphas, alphas * a, m))
    invertible = [gcd(alpha, m) == 1 for alpha in range(1, _INVERT_ALPHAS + 1)]
    return [(f"invertibility alpha={j + 1} m={m} a={i}",
             str(invertible[j]), str(bool(same[j, i])))
            for j, i in zip(*np.nonzero(same != np.array(invertible)[:, None]))]


def _identities_failures(m: int) -> tuple[list, int]:
    """The sampling-identities suite's piece at m: (failures, cases), one
    batch per identity, freed before the next is built."""
    speeds = np.arange(-_SPEED, _SPEED + 1, dtype=np.int32)
    betas = np.arange(1, _SHIFT_ALPHAS + 1, dtype=np.int32)[:, None] * speeds
    return _shift_failures(betas, m) + _invertibility_failures(m), betas.size + _INVERT_ALPHAS * m


def _join_identities(pieces, max_m: int) -> VerificationReport:
    failures, cases = _joined(pieces)
    return VerificationReport("sampling_identities", cases, failures,
                              (f"m <= {min(max_m, _IDENTITIES_MAX_M)} of max_m {max_m}",))


def _suite_identities(max_m: int) -> VerificationReport:
    top = min(max_m, _IDENTITIES_MAX_M)
    return _join_identities(map(_identities_failures, range(1, top + 1)), max_m)


def _partition_failures(m: int) -> tuple[list, int, int, int]:
    """overlay_partition's piece at m: its failures, its m cases, and its
    counts of graphs with a permuted coset-to-offset assignment and of
    diagonal graphs.

    Each graph MMT(m, a) is decomposed once.  A decomposition that raises
    is reported first, in the order of a.  Then a graph that fails
    d*m' = m, or whose numerators are not d cosets on d distinct lines
    (n mod m), is reported, in the order of a, and left out of the
    batch.  The other checks run as one 2-D batch over
    the graphs of m: the failures of a direction (alpha, beta) that is
    not reduced, of an offset outside [0, 1/alpha), of an offset p/q
    other than n/(alpha*m), alpha*m*p != n*q, of a rotation outside
    [0, 1/|alpha - beta|), of membership and of rotated dances that miss
    their cosets, each in the order of a, and last those of diagonal
    radii, in the order of a and then of the chord.

    Chord i is the torus point (i/m, e/m), e = a*i mod m, in coset i mod
    d with numerator n.  It lies on the coset's line, of offset n/(alpha*m)
    in direction (alpha, beta), iff beta*i - alpha*e + n = 0 (mod m).  n
    and n + m name the same line, so 0 <= n < m pins each coset's n, and
    the uniform assignment, coset i at offset i/(d*alpha), is n*d = i*m.
    The dance turned by the rotation u/v covers chord i iff
    (i/m - u/v, e/m - u/v) lies on the line through the origin, that is
    iff v*(beta*i - alpha*e) + (alpha - beta)*u*m = 0 (mod m*v), iff v
    divides (alpha - beta)*u*m into a line numerator t of the chord, as n
    is: beta*i - alpha*e + t = 0 (mod m).  A turn by 1/|alpha - beta| is a
    symmetry of the dance, so 0 <= |alpha - beta|*u < v pins each
    rotation.  Diagonal aliases (alpha = beta) have no rotation; their
    cosets' radii are checked instead, on the diagonal rows of the same
    batch, against the center distances of the chords, all from one table
    of the cosines and sines of the m sample angles.
    """
    failures = []
    decs = []
    for a in range(m):
        try:
            decs.append(overlay_decompose(m, a))
        except Exception as exc:  # a library fault, reported as a failure
            failures.append((f"(m,a)=({m},{a})", "a decomposition",
                             f"{type(exc).__name__}: {exc}"))
    graphs = []
    for dec in decs:
        d, mp = dec.analysis.coset_count, dec.analysis.reduced_rate
        lines = len({x % m for x in dec.numerators})
        if d * mp != m:
            failures.append((f"(m,a)=({m},{dec.analysis.a})", "d*m' = m", f"{d}*{mp}"))
        elif len(dec.numerators) != d or lines != d:
            failures.append((f"(m,a)=({m},{dec.analysis.a})", "d cosets on d distinct lines",
                             f"{len(dec.numerators)} cosets on {lines} lines"))
        else:
            graphs.append(dec)
    # graph j's cosets are rows first[j] .. first[j] + d[j] - 1
    graph = np.array([(dec.analysis.a, *dec.analysis.reduced_dance) for dec in graphs],
                     dtype=np.int64).reshape(-1, 3)
    d = np.array([len(dec.numerators) for dec in graphs], dtype=np.int64)
    n = np.array([x for dec in graphs for x in dec.numerators], dtype=np.int64)
    # the rotation u/v of each coset, 0/1 for a diagonal alias, which has
    # none, and its line numerator t, or -1, no line's, where v does not divide
    turns = [dec.rotation(k) for dec in graphs for k in range(len(dec.numerators))]
    u, v = np.array([(0, 1) if r is None else (r.numerator, r.denominator) for r in turns],
                    dtype=np.int64).reshape(-1, 2).T
    # the offset p/q of each coset, which names its line iff alpha*m*p = n*q
    offsets = [dec.offset(k) for dec in graphs for k in range(len(dec.numerators))]
    p, q = np.array([(c.numerator, c.denominator) for c in offsets],
                    dtype=np.int64).reshape(-1, 2).T
    first = np.cumsum(d) - d
    _, alpha, beta = graph.T
    rotated = alpha != beta
    span = np.repeat(alpha - beta, d)
    t, rest = np.divmod(span * u * m, v)
    t = np.where(rest == 0, t % m, -1)
    names = [f"(m,a)=({m},{a})" for a in graph[:, 0].tolist()]
    for j in np.flatnonzero(np.gcd(alpha, beta) != 1).tolist():
        failures.append((names[j], "a reduced direction", f"<{alpha[j]},{beta[j]}>"))
    outside = np.logical_or.reduceat((n < 0) | (n >= m), first)
    for j in np.flatnonzero(outside).tolist():
        failures.append((names[j], "offsets in [0, 1/alpha)", "offset out of range"))
    off_line = np.logical_or.reduceat(np.repeat(alpha, d) * m * p != n * q, first)
    for j in np.flatnonzero(off_line).tolist():
        failures.append((names[j], "offsets n/(alpha*m)", "offset off its line"))
    i = np.arange(len(n)) - np.repeat(first, d)
    nonstandard = int(np.logical_or.reduceat(n * np.repeat(d, d) != i * m, first).sum())
    outside = np.logical_or.reduceat(np.abs(span) * u // v != 0, first)  # not in [0, v)
    for j in np.flatnonzero(outside).tolist():
        failures.append((names[j], "rotations in [0, 1/|alpha-beta|)",
                         "rotation out of range"))
    # chord i of graph j, a row per graph and a column per chord
    k = np.arange(m, dtype=np.int64)
    chord_row = first[:, None] + k % d[:, None]
    a, alpha, beta = graph.T[:, :, None]
    e = a * k % m
    numerator = (alpha * e - beta * k) % m  # of the line through the chord
    for j in np.flatnonzero((numerator != (n % m)[chord_row]).any(axis=1)).tolist():
        failures.append((names[j], "all cosets on their lines", "membership fails"))
    cover = (numerator != t[chord_row]).any(axis=1) & rotated
    for j in np.flatnonzero(cover).tolist():
        failures.append((names[j], "rotated dances on their cosets", "rotation fails"))
    # the diagonal rows: chord i from angle 2*pi*i/m to 2*pi*e/m, a dot
    # where e = i, at a center distance of its coset's radius
    diagonal = np.flatnonzero(~rotated)
    e = e[diagonal]
    angle = 2 * np.pi * k / m
    cos, sin = np.cos(angle), np.sin(angle)
    bx, by = cos[e], sin[e]
    dist = np.broadcast_to(np.hypot(cos, sin), e.shape).copy()
    line = e != k
    dist[line] = np.abs(cos * by - sin * bx)[line] / np.hypot(bx - cos, by - sin)[line]
    radius = np.zeros(len(n))
    on_diagonal = np.repeat(~rotated, d)
    radius[on_diagonal] = [offset_family_radius(c)
                           for c, on in zip(offsets, on_diagonal.tolist()) if on]
    expected = radius[chord_row[diagonal]]
    for j, i in np.argwhere(np.abs(dist - expected) > 1e-12).tolist():
        failures.append((f"{names[diagonal[j]]} chord {i}",
                         f"radius {float(expected[j, i])!r}",
                         f"distance {float(dist[j, i])!r}"))
    return failures, m, nonstandard, len(diagonal)


def _shortest_vector_failures(m: int) -> tuple[list, int]:
    """The shortest_vector suite's piece at m: (failures, cases), the
    vector and ``tie`` of ``natural_alias(m, a)`` for every a against
    :func:`brute_shortest_vectors`; an analysis that raises fails."""
    failures = []
    vectors, ties = brute_shortest_vectors(m)
    for a, (vector, tie) in enumerate(zip(vectors.tolist(), ties.tolist())):
        try:
            analysis = natural_alias(m, a)
        except Exception as exc:  # a library fault, reported as a failure
            failures.append((f"(m,a)=({m},{a})", "an alias analysis",
                             f"{type(exc).__name__}: {exc}"))
            continue
        found = (analysis.shortest_vector, analysis.tie)
        if found != (tuple(vector), tie):
            failures.append((f"(m,a)=({m},{a})", f"{tuple(vector)} tie={tie}",
                             f"{found[0]} tie={found[1]}"))
    return failures, m


def _join_shortest_vector(pieces) -> VerificationReport:
    failures, cases = _joined(pieces)
    return VerificationReport("shortest_vector", cases, failures)


def _suite_shortest_vector(max_m: int) -> VerificationReport:
    return _join_shortest_vector(map(_shortest_vector_failures, range(1, max_m + 1)))


def _join_overlay(pieces) -> VerificationReport:
    failures, cases, nonstandard, diagonal = _joined(pieces)
    return VerificationReport("overlay_partition", cases, failures, (
        f"{nonstandard} of {cases} graphs need the permuted coset-to-offset "
        "assignment (offset (s*k mod d)/(d*alpha) with s = (alpha*a-beta)/m')",
        f"{diagonal} graphs alias <1,1>; each coset's radius matches its "
        "chords' center distances within 1e-12"))


def _suite_overlay(max_m: int) -> VerificationReport:
    """Every graph's cosets on their lines and rotations (see
    :func:`_partition_failures`)."""
    return _join_overlay(map(_partition_failures, range(1, max_m + 1)))


#: The family-predictions suite checks the cells near this modulus.
_FAMILY_M = 200


def _suite_families() -> VerificationReport:
    """Each (b, r) cell near `_FAMILY_M` against its family prediction: the
    coset count, the dance, and the rotations {k*rotation_step mod 1 : k < d}."""
    failures = []
    cases = 0
    for b in range(2, 10):
        for r in range(1, b):
            m = nearest_congruent(_FAMILY_M, r, b)
            for kind in ("ceiling", "floor"):
                cases += 1
                pred = predict_family(m, b, kind)
                dec = overlay_decompose(m, pred.a)
                cell = f"{kind} b={b} r={r} m={m}"
                if dec.analysis.coset_count != pred.d:
                    failures.append((cell, f"d={pred.d}", f"d={dec.analysis.coset_count}"))
                    continue
                if dec.analysis.reduced_dance != pred.dance:
                    failures.append((cell, str(pred.dance), str(dec.analysis.reduced_dance)))
                    continue
                computed = set(map(dec.rotation, range(len(dec.numerators))))
                claimed = {k * pred.rotation_step % 1 for k in range(pred.d)}
                if computed != claimed:
                    shown = ["rotations " + " ".join(map(str, sorted(rotations)))
                             for rotations in (claimed, computed)]
                    failures.append((cell, *shown))
    return VerificationReport("family_predictions", cases, tuple(failures[:20]),
                              (f"b <= 9 near m = {_FAMILY_M}, both kinds, "
                               "whatever max_m and bound",))


def _suite_envelope(bound: int) -> VerificationReport:
    dances = [(alpha, beta) for alpha, beta in reduced_dances(bound)
              if alpha != 0 and alpha + beta != 0 and alpha != beta]
    failures = []
    for alpha, beta in dances:
        report = verify_envelope(PlanetDance(alpha, beta), 720)
        if not report.passed():
            failures.append(
                (f"<{alpha},{beta}>", "tangency within 1e-9",
                 f"dist={report.max_line_distance:.3g} "
                 f"defect={report.max_parallelism_defect:.3g}")
            )
    return VerificationReport("envelope", len(dances), tuple(failures[:20]))


def _suite_cusps(bound: int) -> VerificationReport:
    """The degenerate rows of each dance's 5*|alpha - beta|-sampling.

    Sample k is degenerate iff (alpha - beta)*k = 0 (mod 5*|alpha - beta|),
    at |alpha - beta| of the k; the samples are distinct rows since
    gcd(alpha, alpha - beta) = 1.
    """
    dances = [(alpha, beta) for alpha, beta in reduced_dances(bound)
              if alpha != 0 and alpha != beta]
    failures = []
    for alpha, beta in dances:
        span = abs(alpha - beta)
        rows = sample_pairs(alpha, beta, 5 * span)
        degenerate = int((rows[:, 0] == rows[:, 1]).sum())
        if degenerate != span:
            failures.append((f"<{alpha},{beta}>", str(span), str(degenerate)))
    return VerificationReport("cusp_count", len(dances), tuple(failures[:20]))


def _take(jobs: list[tuple], queue) -> dict[int, tuple]:
    """Run the jobs whose numbers this process reads from ``queue``, two
    bytes each, until it is empty: {number: (result, seconds)}, each job
    timed where it ran."""
    done = {}
    while record := queue.read(2):
        number = int.from_bytes(record, "big")
        job, *args = jobs[number]
        start = time.perf_counter()
        done[number] = (job(*args), time.perf_counter() - start)
    return done


def _run_suites(jobs: list[tuple]) -> dict[int, tuple]:
    """Run each (job, *args) once: {number: (result, seconds)}, by the
    job's place in ``jobs``.

    The jobs' numbers are written to a pipe, two bytes each, before a
    child is forked; this process and the child each take the next
    number that neither has taken.  Nothing reads the pipe while it is
    written, and pipe(7) lets a pipe hold as little as one page, 4,096
    bytes, so the list must stay within 2,048 jobs.  The child sends its results, or the
    exception a job raised, back pickled over a second pipe and leaves
    with ``os._exit``, so it never returns into the caller.  An exception
    here kills the child; either way it is reaped before this returns.
    Without ``os.fork`` this process takes every job, in order.
    """
    queue_fd, numbers_fd = os.pipe()
    os.write(numbers_fd, b"".join(number.to_bytes(2, "big") for number in range(len(jobs))))
    os.close(numbers_fd)
    # unbuffered, so that each read takes one record from the pipe itself
    with open(queue_fd, "rb", buffering=0) as queue:
        if not hasattr(os, "fork"):
            return _take(jobs, queue)
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child
            status = 1
            try:
                os.close(read_fd)
                try:
                    outcome = (_take(jobs, queue), None)
                except Exception as exc:
                    outcome = (None, exc)
                with open(write_fd, "wb") as pipe:
                    pickle.dump(outcome, pipe)
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        with open(read_fd, "rb") as pipe:
            try:
                ours = _take(jobs, queue)
                sent = pipe.read()
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not sent:
        raise RuntimeError(f"the forked verify process exited with status {code} "
                           "without sending its reports")
    theirs, error = pickle.loads(sent)
    if error is not None:
        raise error
    return ours | theirs


def verify_all(max_m: int, dance_bound: int) -> list[tuple[VerificationReport, float]]:
    """Run and time every suite within the given bounds: (report, seconds)
    pairs by suite name.

    The five suites that take the dance bound run whole; the four max_m
    suites run as units of one modulus, each suite's join makes its
    report from their pieces, and its time is the sum of theirs.  The
    whole suites come first and the units follow by m, largest first, so that the last to
    start are short; :func:`_run_suites` runs the list, in two processes
    where ``os.fork`` exists.  A library caller should set ``OPENBLAS_NUM_THREADS=1``
    before it imports numpy, as the CLI does, or the fork is made from two threads.
    """
    if max_m < 1 or dance_bound < 1:
        raise ValueError("bounds must be at least 1")
    if max_m > _MAX_M:
        raise ValueError(f"max_m must be at most {_MAX_M}, got {brief_int(max_m)}")
    if dance_bound > _MAX_BOUND:
        raise ValueError(
            f"the dance bound must be at most {_MAX_BOUND}, "
            f"got {brief_int(dance_bound)}")
    suites = [(_suite_intersections, dance_bound), (_suite_aliasing, dance_bound),
              (_suite_envelope, dance_bound), (_suite_families,), (_suite_cusps, dance_bound)]
    # each max_m suite's largest modulus, unit, join and what else its
    # join reads, longest suite first
    joins = [(max_m, _partition_failures, _join_overlay),
             (min(max_m, _IDENTITIES_MAX_M), _identities_failures, _join_identities, max_m),
             (max_m, _correspondence_failures, _join_correspondence, max_m),
             (max_m, _shortest_vector_failures, _join_shortest_vector)]
    jobs = suites + [(unit, m) for m in range(max_m, 0, -1) for top, unit, *_ in joins if m <= top]
    done = _run_suites(jobs)
    pairs = [done[number] for number in range(len(suites))]
    for _, unit, join, *args in joins:
        mine = [done[number] for number, job in enumerate(jobs) if job[0] is unit]
        pieces, seconds = zip(*reversed(mine))  # in m order
        pairs.append((join(pieces, *args), sum(seconds)))
    return sorted(pairs, key=lambda pair: pair[0].suite)
