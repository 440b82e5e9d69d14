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
- ``shortest_vector``: the vector and ``tie`` of ``natural_alias`` against
  :func:`brute_shortest_vectors`;
- ``overlay_partition``: each chord on its ``overlay_decompose`` coset
  line, by a congruence, the alias direction reduced, each offset in
  [0, 1/alpha), and diagonal radii against center distances;
- ``family_predictions``: ``predict_family`` against ``overlay_decompose``;
- ``envelope``: ``verify_envelope``, the curve at each chord's own
  parameter on the chord and parallel to it;
- ``cusp_count``: |alpha - beta| against the degenerate rows of
  ``sample_pairs``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from math import gcd

import numpy as np

from .cycloid import offset_family_radius, verify_envelope
from .dances import PlanetDance, StitchGraph, mmt_chords, sample_pairs
from .overlay import (OverlayDecomposition, nearest_congruent, overlay_decompose,
                      predict_family)
from .torusgeo import intersection_count, natural_alias


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one suite: a passed suite has no failures.

    ``elapsed_s``, the suite's wall time in :func:`verify_all`, is not compared.
    """

    suite: str
    cases_run: int
    failures: tuple[tuple[str, str, str], ...] = ()
    info: tuple[str, ...] = ()
    elapsed_s: float = field(default=0.0, compare=False)

    @property
    def passed(self) -> bool:
        return not self.failures


def brute_shortest_vectors(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Shortest sample vector and tie flag of MMT(m, a) for every 0 <= a < m.

    Enumerates every lattice vector (p, q), q = a*p (mod m), with |p|, |q|
    <= h = max(m // 2, 1), oriented so p > 0 or p = 0 < q.  The box holds
    every shortest vector: for m >= 2, (p -/+ m, q) and (p, q -/+ m) are
    shorter lattice vectors when |p| or |q| exceeds m/2, and nonzero except
    for (+/-m, 0) and (0, +/-m), which are longer than (1, a lifted into
    [-m/2, m/2]); for m = 1 the box holds both unit vectors.  Among the
    minima p*q > 0 is preferred, then the smaller |q|, then the smaller
    (p, q); a tie is a second minimum.  Returns the (m, 2) vectors and the
    (m,) tie flags.
    """
    h = max(m // 2, 1)
    a = np.arange(m, dtype=np.int64)[:, None, None]
    p = np.arange(h + 1, dtype=np.int64)[None, :, None]
    q = (a * p % m + np.array([-m, 0, m], dtype=np.int64)).reshape(m, -1)
    p = np.broadcast_to(p, (m, h + 1, 3)).reshape(m, -1)
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


def _suite_shortest_vector(max_m: int) -> VerificationReport:
    failures = []
    cases = 0
    for m in range(1, max_m + 1):
        vectors, ties = brute_shortest_vectors(m)
        for a, (vector, tie) in enumerate(zip(vectors.tolist(), ties.tolist())):
            cases += 1
            analysis = natural_alias(m, a)
            found = (analysis.shortest_vector, analysis.tie)
            if found != (tuple(vector), tie):
                failures.append((f"(m,a)=({m},{a})", f"{tuple(vector)} tie={tie}",
                                 f"{found[0]} tie={found[1]}"))
    return VerificationReport("shortest_vector", cases, tuple(failures[:20]))


def _diagonal_radius_failures(dec: OverlayDecomposition) -> list[tuple[str, str, str]]:
    """Compare each coset's reported radius of a <1,1>-aliased graph with
    the center-to-chord-line distances of the coset's chords.

    Chord k joins k/m to a*k/m and belongs to coset k mod d; a
    degenerate chord is a dot, whose distance is its radius.
    """
    m, a = dec.analysis.m, dec.analysis.a
    radii = [offset_family_radius(c.offset) for c in dec.cosets]
    k = np.arange(m, dtype=np.int64)
    e = (a * k) % m
    ax, ay = np.cos(2 * np.pi * k / m), np.sin(2 * np.pi * k / m)
    bx, by = np.cos(2 * np.pi * e / m), np.sin(2 * np.pi * e / m)
    dist = np.hypot(ax, ay)
    line = e != k
    dist[line] = np.abs(ax * by - ay * bx)[line] / np.hypot(bx - ax, by - ay)[line]
    expected = np.array(radii)[k % len(radii)]
    return [
        (f"(m,a)=({m},{a}) chord {i}", f"radius {float(expected[i])!r}",
         f"distance {float(dist[i])!r}")
        for i in np.flatnonzero(np.abs(dist - expected) > 1e-12).tolist()
    ]


def _suite_overlay(max_m: int) -> VerificationReport:
    """Every chord k of every graph on ``overlay_decompose``'s line for
    coset k mod d, by an integer congruence, one 2-D batch per m.  For
    each m the failures of d*m' = m come first, then those of a
    direction (alpha, beta) that is not reduced, of an offset outside
    [0, 1/alpha), of membership and of diagonal radii, each in the order
    of a.

    Chord k is the torus point (k/m, e/m), e = a*k mod m.  It lies on the
    line in direction (alpha, beta), alpha >= 1, with offset p/q iff
    q*(beta*k - alpha*e) + alpha*p*m = 0 (mod m*q).  (A vertical line,
    alpha = 0, fails this for every k != 0, though no alias has one.)
    The offsets p/q and p/q + 1/alpha name the same line, so the range
    check 0 <= alpha*p < q is what pins each reported offset.
    """
    failures = []
    cases = 0
    nonstandard = 0
    diagonal = 0
    for m in range(1, max_m + 1):
        graphs = []
        for a in range(m):
            cases += 1
            dec = overlay_decompose(m, a)
            d, mp = dec.analysis.coset_count, dec.analysis.reduced_rate
            if d * mp == m:
                graphs.append(dec)
            else:
                failures.append((f"(m,a)=({m},{a})", "d*m' = m", f"{d}*{mp}"))
        # graph j's cosets are offsets first[j] .. first[j] + d[j] - 1
        graph = np.array([(dec.analysis.a, dec.analysis.reduced_dance.alpha,
                           dec.analysis.reduced_dance.beta) for dec in graphs],
                         dtype=np.int64).reshape(-1, 3)
        d = np.array([len(dec.cosets) for dec in graphs], dtype=np.int64)
        p, q = np.array([c.offset.as_integer_ratio()
                         for dec in graphs for c in dec.cosets],
                        dtype=np.int64).reshape(-1, 2).T
        first = np.cumsum(d) - d
        names = [f"(m,a)=({m},{dec.analysis.a})" for dec in graphs]
        _, alpha, beta = graph.T
        for j in np.flatnonzero(np.gcd(alpha, beta) != 1).tolist():
            failures.append((names[j], "a reduced direction",
                             f"<{alpha[j]},{beta[j]}>"))
        scaled = np.repeat(alpha, d) * p  # alpha*p of each coset
        outside = (scaled < 0) | (scaled >= q)
        for j in np.flatnonzero(np.logical_or.reduceat(outside, first)).tolist():
            failures.append((names[j], "offsets in [0, 1/alpha)",
                             "offset out of range"))
        # the uniform assignment puts coset i at offset i/(d*alpha)
        i = np.arange(len(p)) - np.repeat(first, d)
        nonstandard += int(np.logical_or.reduceat(scaled * np.repeat(d, d) != i * q,
                                                  first).sum())
        k = np.arange(m, dtype=np.int64)
        chord_row = first[:, None] + k % d[:, None]
        p, q = np.take(p, chord_row), np.take(q, chord_row)
        a, alpha, beta = graph.T[:, :, None]  # a row per graph, a column per k
        value = q * (beta * k - alpha * (a * k % m)) + alpha * p * m
        for j in np.flatnonzero((value % (m * q)).any(axis=1)).tolist():
            failures.append((names[j], "all cosets on their lines",
                             "membership fails"))
        for dec in graphs:
            if dec.analysis.reduced_dance.alpha == dec.analysis.reduced_dance.beta == 1:
                diagonal += 1
                failures.extend(_diagonal_radius_failures(dec))
    info = (
        f"{nonstandard} of {cases} graphs need the permuted coset-to-offset "
        "assignment (offset (s*k mod d)/(d*alpha) with s = (alpha*a-beta)/m')",
        f"{diagonal} graphs alias <1,1>; each coset's radius matches its "
        "chords' center distances within 1e-12",
    )
    return VerificationReport("overlay_partition", cases, tuple(failures[:20]), info)


def _suite_families(m_target: int = 200) -> VerificationReport:
    """Each (b, r) cell near m_target against its family prediction: the
    coset count, the dance, and the rotations {k*rotation_step mod 1 : k < d}."""
    failures = []
    cases = 0
    for b in range(2, 10):
        for r in range(1, b):
            m = nearest_congruent(m_target, r, b)
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
                computed = {c.rotation for c in dec.cosets}
                claimed = {k * pred.rotation_step % 1 for k in range(pred.d)}
                if computed != claimed:
                    shown = ["rotations " + " ".join(map(str, sorted(rotations)))
                             for rotations in (claimed, computed)]
                    failures.append((cell, *shown))
    return VerificationReport("family_predictions", cases, tuple(failures[:20]))


def _suite_envelope(bound: int) -> VerificationReport:
    failures = []
    cases = 0
    top = min(bound, 6)
    for alpha in range(1, top + 1):
        for beta in range(-top, top + 1):
            if gcd(alpha, abs(beta)) != 1 or alpha + beta == 0 or alpha == beta:
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
    top = min(bound, 6)
    for alpha in range(1, top + 1):
        for beta in range(-top, top + 1):
            if gcd(alpha, abs(beta)) != 1 or alpha == beta:
                continue
            cases += 1
            span = abs(alpha - beta)
            rows = sample_pairs(alpha, beta, 5 * span)
            degenerate = int((rows[:, 0] == rows[:, 1]).sum())
            if degenerate != span:
                failures.append((f"<{alpha},{beta}>", str(span), str(degenerate)))
    return VerificationReport("cusp_count", cases, tuple(failures[:20]))


#: The largest bounds `verify_all` accepts.  The max_m suites grow as
#: max_m^2 and took 16 s in all at 600; the bound suites, which grow
#: about as bound^4, took 0.8 s at 12 (2-core Xeon, Python 3.11).
_MAX_M = 600
_MAX_BOUND = 12


def verify_all(max_m: int, dance_bound: int) -> list[VerificationReport]:
    """Run and time every suite within the given bounds, by suite name."""
    if max_m < 1 or dance_bound < 1:
        raise ValueError("bounds must be at least 1")
    if max_m > _MAX_M:
        raise ValueError(f"max_m must be at most {_MAX_M}, got {max_m}")
    if dance_bound > _MAX_BOUND:
        raise ValueError(
            f"the dance bound must be at most {_MAX_BOUND}, got {dance_bound}")
    suites = [
        (_suite_correspondence, (max_m,)),
        (_suite_aliasing, (dance_bound,)),
        (_suite_intersections, (dance_bound,)),
        (_suite_identities, (max_m,)),
        (_suite_shortest_vector, (max_m,)),
        (_suite_overlay, (max_m,)),
        (_suite_families, ()),
        (_suite_envelope, (dance_bound,)),
        (_suite_cusps, (dance_bound,)),
    ]
    reports = []
    for suite, args in suites:
        start = time.perf_counter()
        reports.append(replace(suite(*args), elapsed_s=time.perf_counter() - start))
    return sorted(reports, key=lambda r: r.suite)
