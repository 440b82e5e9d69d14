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
  one int32 batch per modulus; rows that differ term by term are compared
  as sets in a canonical form, and rows equal term by term need no more;
- ``shortest_vector``: the vector and ``tie`` of each graph's alias
  analysis against :func:`brute_shortest_vectors`;
- ``overlay_partition``: each chord on its ``overlay_decompose`` coset
  line and on its coset's rotated dance, by two congruences, the alias
  direction reduced, each offset in [0, 1/alpha), each rotation in
  [0, 1/|alpha - beta|), and diagonal radii against center distances;
- ``family_predictions``: ``predict_family`` against ``overlay_decompose``;
- ``envelope``: ``verify_envelope``, the library's curve
  (``cycloid_point``) at each chord's own parameter on the chord and
  parallel to it, the chords built from numpy's cosine and sine of the
  sample angles;
- ``cusp_count``: |alpha - beta| against the degenerate rows of
  ``sample_pairs``.

``shortest_vector`` and ``overlay_partition`` each decompose every graph
MMT(m, a) themselves.  :func:`verify_all` hands one list of the suites,
longest first, to :func:`_run_suites`: where ``os.fork`` exists, the
calling process and a forked child each take the next suite that neither
has started.  Each suite's wall time, taken in the process that ran it,
comes back beside its report as a (report, seconds) pair.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from math import gcd, isqrt
from typing import NamedTuple

import numpy as np

from .cycloid import offset_family_radius, verify_envelope
from .dances import PlanetDance, StitchGraph, mmt_chords, sample_pairs
from .kernel import brief_int
from .overlay import (OverlayDecomposition, nearest_congruent, overlay_decompose,
                      predict_family)
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
    and the (m,) tie flags.
    """
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


def brute_intersections(d1: PlanetDance, d2: PlanetDance) -> int | None:
    """Count torus-line crossings by enumeration; None means coincident.

    A crossing is a pair (t, s) in [0, 1)^2 with (alpha1*t - alpha2*s,
    beta1*t - beta2*s) = (u, v) integral.  Every such (u, v) lies in the
    box spanned by the images of the unit square's corners; each integer
    point of the box is solved for (t, s) by Cramer's rule, in integers,
    and counted when both lie in [0, 1).
    """
    for d in (d1, d2):
        if not d.reduced or (d.alpha == 0 and d.beta == 0):
            raise ValueError(f"dance {d} is not a reduced torus direction")
    a1, b1, a2, b2 = d1.alpha, d1.beta, -d2.alpha, -d2.beta
    det = a1 * b2 - a2 * b1
    if det == 0:
        return None
    u = np.arange(min(a1, 0) + min(a2, 0), max(a1, 0) + max(a2, 0) + 1)[:, None]
    v = np.arange(min(b1, 0) + min(b2, 0), max(b1, 0) + max(b2, 0) + 1)[None, :]
    sign = 1 if det > 0 else -1
    t = sign * (u * b2 - v * a2)  # t = (u*b2 - v*a2) / det
    s = sign * (v * a1 - u * b1)  # s = (v*a1 - u*b1) / det
    size = abs(det)
    return int(((t >= 0) & (t < size) & (s >= 0) & (s < size)).sum())


def reduced_dances(bound: int) -> list[tuple[int, int]]:
    """All reduced speed pairs with coordinates in [-bound, bound], one
    per canonical orientation."""
    out = [(0, 1)]
    for alpha in range(1, bound + 1):
        for beta in range(-bound, bound + 1):
            if gcd(alpha, abs(beta)) == 1:
                out.append((alpha, beta))
    return out


def _suite_correspondence(max_m: int) -> VerificationReport:
    failures = []
    cases = 0
    for m in range(1, max_m + 1):
        # expected[a, k] = (k, e_k), chord k of MMT(m, a), with the endpoint
        # a*k mod m built as the running sum e_0 = 0, e_k = e_(k-1) + a (mod m)
        k = np.arange(m, dtype=np.int64)
        steps = np.broadcast_to(k[:, None], (m, m))
        ends = (np.cumsum(steps, axis=1) - steps) % m
        expected = np.stack((np.broadcast_to(k, (m, m)), ends), axis=-1)
        for a in range(m):
            cases += 1
            if not np.array_equal(sample_pairs(1, a, m), expected[a]):
                failures.append((f"MMT({m},{a})", "equal chord sets", "differs"))
        if m > 40:
            continue
        # the full API on the small prefix, from a congruent negative multiplier
        for a in range(m):
            cases += 1
            chords = mmt_chords(StitchGraph(m, a - m))
            if chords.den != m or not np.array_equal(chords.rows, expected[a]):
                failures.append((f"MMT({m},{a}) API", "equal chord sets", "differs"))
    return VerificationReport("stitch_sampling_correspondence", cases, tuple(failures[:20]))


def _suite_aliasing(bound: int) -> VerificationReport:
    dances = reduced_dances(bound)
    failures = []
    cases = 0
    for i, (a1, b1) in enumerate(dances):
        for a2, b2 in dances[i + 1:]:
            m = abs(a1 * b2 - b1 * a2)
            if m < 1:
                continue
            cases += 1
            s1 = sample_pairs(a1, b1, m)
            s2 = sample_pairs(a2, b2, m)
            if s1.shape != s2.shape or not (s1 == s2).all():
                failures.append(
                    (f"<{a1},{b1}> vs <{a2},{b2}> at m={m}",
                     "equal samplings", "differs")
                )
    return VerificationReport("alias_sampling_equality", cases, tuple(failures[:20]))


def _suite_intersections(bound: int) -> VerificationReport:
    dances = reduced_dances(bound)
    failures = []
    cases = 0
    for i, (a1, b1) in enumerate(dances):
        for a2, b2 in dances[i:]:
            cases += 1
            formula = intersection_count(PlanetDance(a1, b1), PlanetDance(a2, b2))
            brute = brute_intersections(PlanetDance(a1, b1), PlanetDance(a2, b2))
            brute_count = 0 if brute is None else brute
            if formula != brute_count:
                failures.append(
                    (f"<{a1},{b1}> vs <{a2},{b2}>", str(formula), str(brute_count))
                )
    return VerificationReport("intersection_counts", cases, tuple(failures[:20]))


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


def _canonical(keys: np.ndarray, m: int) -> np.ndarray:
    """Rows of keys as sets: sorted, every key equal to its left neighbour
    replaced by the sentinel m*m, and sorted again, so two rows are equal
    iff they hold the same keys."""
    keys = np.sort(keys, axis=-1)
    keys[..., 1:][keys[..., 1:] == keys[..., :-1]] = m * m
    keys.sort(axis=-1)
    return keys


def _same_sets(lhs: np.ndarray, rhs: np.ndarray, m: int) -> np.ndarray:
    """Whether each row of lhs holds the same keys as the row of rhs.

    Rows equal term by term hold the same set, so only the rows that
    differ term by term are brought to the canonical form.
    """
    lhs, rhs = np.broadcast_arrays(lhs, rhs)
    same = (lhs == rhs).all(axis=-1)
    differ = ~same
    if differ.any():
        same[differ] = (_canonical(lhs[differ], m)
                        == _canonical(rhs[differ], m)).all(axis=-1)
    return same


def _shift_failures(betas: np.ndarray, m: int) -> list:
    """Failures of the shift identity at m, keyed (alpha - 1, i, m, sign):
    row alpha - 1 of ``betas`` holds the speeds beta of <alpha, beta>, and
    each dance must sample the same set as <alpha, beta + m> (sign 0) and
    <alpha, beta - m> (sign 1)."""
    alphas = np.arange(1, len(betas) + 1, dtype=np.int32)[:, None]
    keys = _sample_keys(alphas, np.concatenate((betas, betas + m, betas - m), axis=1), m)
    base, *others = np.split(keys, 3, axis=1)
    found = []
    for sign, other in enumerate(others):
        for j, i in zip(*np.nonzero(~_same_sets(base, other, m))):
            shifted = int(betas[j, i]) + (m, -m)[sign]
            found.append(((j, i, m, sign),
                          (f"shift <{j + 1},{shifted}> m={m}", "equal", "differs")))
    return found


def _invertibility_failures(m: int) -> list:
    """Failures of invertibility at m, keyed (alpha - 1, m, a): <1, a> and
    <alpha, alpha*a> sample the same set iff gcd(alpha, m) = 1."""
    alphas = np.arange(1, _INVERT_ALPHAS + 1, dtype=np.int32)[:, None]
    a = np.arange(m, dtype=np.int32)
    same = _same_sets(_sample_keys(np.int32(1), a, m),
                      _sample_keys(alphas, alphas * a, m), m)
    invertible = [gcd(alpha, m) == 1 for alpha in range(1, _INVERT_ALPHAS + 1)]
    return [((j, m, i), (f"invertibility alpha={j + 1} m={m} a={i}",
                         str(invertible[j]), str(bool(same[j, i]))))
            for j, i in zip(*np.nonzero(same != np.array(invertible)[:, None]))]


def _suite_identities(max_m: int) -> VerificationReport:
    speeds = np.arange(-_SPEED, _SPEED + 1, dtype=np.int32)
    betas = np.arange(1, _SHIFT_ALPHAS + 1, dtype=np.int32)[:, None] * speeds
    shifts, inverts = [], []
    cases = 0
    # one batch per modulus and identity, freed before the next is built
    for m in range(1, min(max_m, _IDENTITIES_MAX_M) + 1):
        cases += betas.size + _INVERT_ALPHAS * m
        shifts += _shift_failures(betas, m)
        inverts += _invertibility_failures(m)
    # the keys sort failures in the order of a loop over one dance at a
    # time: alpha, speed, m, sign, then alpha, m, a
    failures = [failure for _, failure in sorted(shifts) + sorted(inverts)]
    return VerificationReport("sampling_identities", cases, tuple(failures[:20]))


def _diagonal_radius_failures(dec: OverlayDecomposition, cos: np.ndarray,
                              sin: np.ndarray) -> list[tuple[str, str, str]]:
    """Compare each coset's reported radius of a <1,1>-aliased graph with
    the center-to-chord-line distances of the coset's chords.

    Chord k joins k/m to a*k/m and belongs to coset k mod d; a
    degenerate chord is a dot, whose distance is its radius.  ``cos``
    and ``sin`` hold cos(2*pi*k/m) and sin(2*pi*k/m) for k = 0..m-1.
    """
    m, a = dec.analysis.m, dec.analysis.a
    radii = [offset_family_radius(dec.offset(k)) for k in range(len(dec.numerators))]
    k = np.arange(m, dtype=np.int64)
    e = (a * k) % m
    bx, by = cos[e], sin[e]
    dist = np.hypot(cos, sin)
    line = e != k
    dist[line] = np.abs(cos * by - sin * bx)[line] / np.hypot(bx - cos, by - sin)[line]
    expected = np.array(radii)[k % len(radii)]
    return [
        (f"(m,a)=({m},{a}) chord {i}", f"radius {float(expected[i])!r}",
         f"distance {float(dist[i])!r}")
        for i in np.flatnonzero(np.abs(dist - expected) > 1e-12).tolist()
    ]


def _partition_failures(m: int, decs: list[OverlayDecomposition]) -> tuple[list, int, int]:
    """overlay_partition's failures at m, and its counts of graphs with a
    permuted coset-to-offset assignment and of diagonal graphs.

    The checks run as one 2-D batch over the graphs of m.  The failures
    of d*m' = m come first, then those of a direction (alpha, beta) that
    is not reduced, of an offset outside [0, 1/alpha), of a rotation
    outside [0, 1/|alpha - beta|), of membership, of rotated dances that
    miss their cosets and of diagonal radii, each in the order of a.

    Chord i is the torus point (i/m, e/m), e = a*i mod m, in coset i mod
    d with numerator n.  It lies on the coset's line, of offset n/(alpha*m)
    in direction (alpha, beta), iff beta*i - alpha*e + n = 0 (mod m).  n
    and n + m name the same line, so 0 <= n < m pins each coset's n, and
    the uniform assignment, coset i at offset i/(d*alpha), is n*d = i*m.
    The dance turned by the rotation u/v covers chord i iff
    (i/m - u/v, e/m - u/v) lies on the line through the origin, that is
    iff v*(beta*i - alpha*e) + (alpha - beta)*u*m = 0 (mod m*v); a turn by
    1/|alpha - beta| is a symmetry of the dance, so 0 <= |alpha - beta|*u
    < v pins each rotation.  Diagonal aliases (alpha = beta) have no
    rotation; their cosets' radii are checked against the chords' center
    distances instead.
    """
    failures = []
    graphs = []
    for dec in decs:
        d, mp = dec.analysis.coset_count, dec.analysis.reduced_rate
        if d * mp == m:
            graphs.append(dec)
        else:
            failures.append((f"(m,a)=({m},{dec.analysis.a})", "d*m' = m", f"{d}*{mp}"))
    # graph j's cosets are rows first[j] .. first[j] + d[j] - 1
    graph = np.array([(dec.analysis.a, *dec.analysis.reduced_dance) for dec in graphs],
                     dtype=np.int64).reshape(-1, 3)
    d = np.array([len(dec.numerators) for dec in graphs], dtype=np.int64)
    n = np.array([x for dec in graphs for x in dec.numerators], dtype=np.int64)
    # the rotation u/v of each coset; a diagonal alias, which has no
    # rotation, gets 0/1 and is left out of the rotation checks
    turns = [dec.rotation(k) for dec in graphs for k in range(len(dec.numerators))]
    u, v = np.array([(0, 1) if t is None else (t.numerator, t.denominator) for t in turns],
                    dtype=np.int64).reshape(-1, 2).T
    first = np.cumsum(d) - d
    _, alpha, beta = graph.T
    rotated = alpha != beta

    def name(j):
        return f"(m,a)=({m},{graph[j, 0]})"

    for j in np.flatnonzero(np.gcd(alpha, beta) != 1).tolist():
        failures.append((name(j), "a reduced direction", f"<{alpha[j]},{beta[j]}>"))
    outside = np.logical_or.reduceat((n < 0) | (n >= m), first)
    for j in np.flatnonzero(outside).tolist():
        failures.append((name(j), "offsets in [0, 1/alpha)", "offset out of range"))
    i = np.arange(len(n)) - np.repeat(first, d)
    nonstandard = int(np.logical_or.reduceat(n * np.repeat(d, d) != i * m, first).sum())
    turned = np.repeat(np.abs(alpha - beta), d) * u  # |alpha - beta|*u of each coset
    outside = np.logical_or.reduceat((turned < 0) | (turned >= v), first) & rotated
    for j in np.flatnonzero(outside).tolist():
        failures.append((name(j), "rotations in [0, 1/|alpha-beta|)",
                         "rotation out of range"))
    # chord i of graph j, a row per graph and a column per chord
    k = np.arange(m, dtype=np.int64)
    chord_row = first[:, None] + k % d[:, None]
    n, u, v = (np.take(x, chord_row) for x in (n, u, v))
    a, alpha, beta = graph.T[:, :, None]
    cross = beta * k - alpha * (a * k % m)
    for j in np.flatnonzero(((cross + n) % m).any(axis=1)).tolist():
        failures.append((name(j), "all cosets on their lines", "membership fails"))
    cover = ((v * cross + (alpha - beta) * u * m) % (m * v)).any(axis=1) & rotated
    for j in np.flatnonzero(cover).tolist():
        failures.append((name(j), "rotated dances on their cosets", "rotation fails"))
    # one table of the m sample angles serves every diagonal graph of m
    angle = 2 * np.pi * k / m
    cos, sin = np.cos(angle), np.sin(angle)
    diagonal = [dec for dec, turns in zip(graphs, rotated.tolist()) if not turns]
    for dec in diagonal:
        failures.extend(_diagonal_radius_failures(dec, cos, sin))
    return failures, nonstandard, len(diagonal)


def _suite_shortest_vector(max_m: int) -> VerificationReport:
    """The vector and ``tie`` of every graph's alias analysis, read inside
    ``overlay_decompose(m, a)``, against :func:`brute_shortest_vectors`.

    Where the decomposition raises, which overlay_partition reports, the
    analysis comes from ``natural_alias(m, a)``, so it is checked all the
    same.
    """
    failures = []
    cases = 0
    for m in range(1, max_m + 1):
        vectors, ties = brute_shortest_vectors(m)
        for a, (vector, tie) in enumerate(zip(vectors.tolist(), ties.tolist())):
            try:
                analysis = overlay_decompose(m, a).analysis
            except Exception:  # an overlay_partition failure
                analysis = natural_alias(m, a)
            found = (analysis.shortest_vector, analysis.tie)
            if found != (tuple(vector), tie):
                failures.append((f"(m,a)=({m},{a})", f"{tuple(vector)} tie={tie}",
                                 f"{found[0]} tie={found[1]}"))
        cases += m
    return VerificationReport("shortest_vector", cases, tuple(failures[:20]))


def _suite_overlay(max_m: int) -> VerificationReport:
    """Every graph's cosets on their lines and rotations (see
    :func:`_partition_failures`).

    A decomposition that raises is a failure, reported for each m before
    those of :func:`_partition_failures`.
    """
    failures = []
    cases = nonstandard = diagonal = 0
    for m in range(1, max_m + 1):
        decs = []
        for a in range(m):
            try:
                decs.append(overlay_decompose(m, a))
            except Exception as exc:  # a library fault, reported as a failure
                failures.append((f"(m,a)=({m},{a})", "a decomposition",
                                 f"{type(exc).__name__}: {exc}"))
        cases += m
        found, permuted, diagonals = _partition_failures(m, decs)
        failures += found
        nonstandard += permuted
        diagonal += diagonals
    info = (
        f"{nonstandard} of {cases} graphs need the permuted coset-to-offset "
        "assignment (offset (s*k mod d)/(d*alpha) with s = (alpha*a-beta)/m')",
        f"{diagonal} graphs alias <1,1>; each coset's radius matches its "
        "chords' center distances within 1e-12",
    )
    return VerificationReport("overlay_partition", cases, tuple(failures[:20]), info)


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
    return VerificationReport("family_predictions", cases, tuple(failures[:20]))


def _suite_envelope(bound: int) -> VerificationReport:
    failures = []
    cases = 0
    for alpha, beta in reduced_dances(min(bound, 6)):
        if alpha == 0 or alpha + beta == 0 or alpha == beta:
            continue
        cases += 1
        report = verify_envelope(PlanetDance(alpha, beta), 720)
        if not report.passed():
            failures.append(
                (f"<{alpha},{beta}>", "tangency within 1e-9",
                 f"dist={report.max_line_distance:.3g} "
                 f"defect={report.max_parallelism_defect:.3g}")
            )
    return VerificationReport("envelope", cases, tuple(failures[:20]))


def _suite_cusps(bound: int) -> VerificationReport:
    """The degenerate rows of each dance's 5*|alpha - beta|-sampling.

    Sample k is degenerate iff (alpha - beta)*k = 0 (mod 5*|alpha - beta|),
    at |alpha - beta| of the k; the samples are distinct rows since
    gcd(alpha, alpha - beta) = 1.
    """
    failures = []
    cases = 0
    for alpha, beta in reduced_dances(min(bound, 6)):
        if alpha == 0 or alpha == beta:
            continue
        cases += 1
        span = abs(alpha - beta)
        rows = sample_pairs(alpha, beta, 5 * span)
        degenerate = int((rows[:, 0] == rows[:, 1]).sum())
        if degenerate != span:
            failures.append((f"<{alpha},{beta}>", str(span), str(degenerate)))
    return VerificationReport("cusp_count", cases, tuple(failures[:20]))


#: The largest bounds `verify_all` accepts.  The max_m suites check
#: max_m^2/2 graphs; at 600, overlay_partition took 13.0 s, about the
#: whole command, while the other process ran the correspondence suite
#: (5.2 s), shortest_vector (2.7 s) and the rest.  The bound suites, which
#: grow about as bound^4, took 1.5 s at 12 (2-core Xeon, Python 3.11,
#: medians of 5 runs).
_MAX_M = 600
_MAX_BOUND = 12


def _take(suites: list[tuple], queue) -> list[tuple[VerificationReport, float]]:
    """Run the suites whose numbers this process reads from ``queue``, one
    byte each, until it is empty: (report, seconds) pairs, each suite timed
    where it ran."""
    pairs = []
    while job := queue.read(1):
        suite, *args = suites[job[0]]
        start = time.perf_counter()
        report = suite(*args)
        pairs.append((report, time.perf_counter() - start))
    return pairs


def _run_suites(suites: list[tuple]) -> list[tuple[VerificationReport, float]]:
    """Run each (suite, *args) once: (report, seconds) pairs.

    The suites' numbers are written to a pipe before a child is forked;
    this process and the child each take the next number that neither has
    taken.  The child sends its pairs, or the exception a suite raised,
    back pickled over a second pipe and leaves with ``os._exit``, so it
    never returns into the caller.  An exception here kills the child;
    either way it is reaped before this returns.  Without ``os.fork``
    this process takes every suite, in order.
    """
    queue_fd, numbers_fd = os.pipe()
    os.write(numbers_fd, bytes(range(len(suites))))
    os.close(numbers_fd)
    # unbuffered, so that each read takes one byte from the pipe itself
    with open(queue_fd, "rb", buffering=0) as queue:
        if not hasattr(os, "fork"):
            return _take(suites, queue)
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child
            status = 1
            try:
                os.close(read_fd)
                try:
                    outcome = (_take(suites, queue), None)
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
                ours = _take(suites, queue)
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
    return ours + theirs


def verify_all(max_m: int, dance_bound: int) -> list[tuple[VerificationReport, float]]:
    """Run and time every suite within the given bounds: (report, seconds)
    pairs by suite name.

    The suites are listed longest first, so that the last to start are
    short, and run by :func:`_run_suites`, in two processes where
    ``os.fork`` exists.
    """
    if max_m < 1 or dance_bound < 1:
        raise ValueError("bounds must be at least 1")
    if max_m > _MAX_M:
        raise ValueError(f"max_m must be at most {_MAX_M}, got {brief_int(max_m)}")
    if dance_bound > _MAX_BOUND:
        raise ValueError(
            f"the dance bound must be at most {_MAX_BOUND}, "
            f"got {brief_int(dance_bound)}")
    suites = [
        (_suite_overlay, max_m),
        (_suite_identities, max_m),
        (_suite_correspondence, max_m),
        (_suite_shortest_vector, max_m),
        (_suite_intersections, dance_bound),
        (_suite_aliasing, dance_bound),
        (_suite_envelope, dance_bound),
        (_suite_families,),
        (_suite_cusps, dance_bound),
    ]
    return sorted(_run_suites(suites), key=lambda pair: pair[0].suite)
