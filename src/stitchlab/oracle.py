"""Brute-force counterparts of the closed forms, run as the `verify` suites.

Each suite checks library code against a counterpart that shares no code
with it:

- ``stitch_sampling_correspondence``: the rows of ``sample_pairs(1, a, m)``
  against endpoints built as running sums e_k = e_(k-1) + a (mod m), and
  ``mmt_chords`` against ``sample`` for m <= 40;
- ``alias_sampling_equality``: ``sample_pairs`` of two dances whose
  determinant is m;
- ``intersection_counts``: ``intersection_count`` against
  :func:`brute_intersections`;
- ``sampling_identities``: the shift and invertibility identities on keys
  (alpha*k mod m)*m + (beta*k mod m) that :func:`_sampled_sets` builds for
  a whole batch of dances at once;
- ``shortest_vector``: the vector and ``tie`` of ``natural_alias`` against
  :func:`brute_shortest_vectors`;
- ``overlay_partition``: each chord on its ``overlay_decompose`` coset
  line, by a congruence, and diagonal radii against center distances;
- ``family_predictions``: ``predict_family`` against ``overlay_decompose``;
- ``envelope``: ``verify_envelope``, the curve at each chord's own
  parameter on the chord and parallel to it;
- ``cusp_count``: |alpha - beta| against a count of degenerate chords.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd

import numpy as np

from .cycloid import offset_family_radius, verify_envelope
from .dances import (
    PlanetDance,
    Sampling,
    StitchGraph,
    mmt_chords,
    sample,
    sample_pairs,
)
from .kernel import TorusPoint, wrap
from .overlay import nearest_congruent, overlay_decompose, predict_family
from .torusgeo import TorusLine, intersection_count, line_contains, natural_alias


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

    Walks the first line at the candidate parameters i/D (D the expected
    period count) and counts the distinct points that also satisfy exact
    membership on the second line.
    """
    for d in (d1, d2):
        if not d.reduced or (d.alpha == 0 and d.beta == 0):
            raise ValueError(f"dance {d} is not a reduced torus direction")
    det = d1.alpha * d2.beta - d1.beta * d2.alpha
    if det == 0:
        return None
    line2 = TorusLine(PlanetDance(d2.alpha, d2.beta), Fraction(0))
    hits: set[tuple[Fraction, Fraction]] = set()
    for i in range(abs(det)):
        t = Fraction(i, abs(det))
        pt = TorusPoint(wrap(d1.alpha * t), wrap(d1.beta * t))
        if line_contains(line2, pt):
            hits.add((pt.x.turn, pt.y.turn))
    return len(hits)


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
    # full-API spot check on the small prefix
    for m in range(1, min(max_m, 40) + 1):
        for a in range(m):
            cases += 1
            if mmt_chords(StitchGraph(m, a)) != sample(Sampling(PlanetDance(1, a), m)):
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


def _sampled_sets(alpha: int, betas: np.ndarray, m: int) -> np.ndarray:
    """Row i: the m-sampling of <alpha, betas[i]> as a set in canonical form.

    The keys (alpha*k mod m)*m + (beta*k mod m), k = 0..m-1, are sorted,
    every key equal to its left neighbour becomes the sentinel m*m, and
    the row is sorted again, so two rows are equal iff their dances sample
    the same chord set.
    """
    k = np.arange(m, dtype=np.int64)
    keys = np.sort(alpha * k % m * m + betas[:, None] * k % m, axis=1)
    keys[:, 1:][keys[:, 1:] == keys[:, :-1]] = m * m
    return np.sort(keys, axis=1)


def _suite_identities(max_m: int) -> VerificationReport:
    failures = []
    cases = 0
    top = min(max_m, 60)
    speeds = np.arange(-20, 21, dtype=np.int64)
    for alpha in range(1, 21):
        betas = alpha * speeds
        found = []
        for m in range(1, top + 1):
            cases += len(speeds)
            rows = _sampled_sets(alpha, np.concatenate((betas, betas + m, betas - m)), m)
            base, *others = np.split(rows, 3)
            for j, other in enumerate(others):
                for i in np.flatnonzero((base != other).any(axis=1)):
                    shifted = int(betas[i]) + (m, -m)[j]
                    found.append(((i, m, j), (f"shift <{alpha},{shifted}> m={m}",
                                              "equal", "differs")))
        # failures keep the order of a loop over a, then m, then the sign
        failures.extend(failure for _, failure in sorted(found))
    for alpha in range(1, 13):
        for m in range(1, top + 1):
            a = np.arange(m, dtype=np.int64)
            cases += m
            lhs, rhs = _sampled_sets(1, a, m), _sampled_sets(alpha, alpha * a, m)
            equal = (lhs == rhs).all(axis=1)
            invertible = gcd(alpha, m) == 1
            for i in np.flatnonzero(equal != invertible):
                failures.append((f"invertibility alpha={alpha} m={m} a={i}",
                                 str(invertible), str(bool(equal[i]))))
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


def _diagonal_radius_failures(m: int, a: int) -> list[tuple[str, str, str]]:
    """Compare each coset's reported radius of a <1,1>-aliased graph with
    the center-to-chord-line distances of the coset's chords.

    Chord k joins k/m to a*k/m and belongs to coset k mod d; a
    degenerate chord is a dot, whose distance is its radius.
    """
    radii = [offset_family_radius(c.line.offset)
             for c in overlay_decompose(m, a).cosets]
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
    failures = []
    cases = 0
    nonstandard = 0
    diagonal = 0
    for m in range(1, max_m + 1):
        for a in range(m):
            cases += 1
            analysis = natural_alias(m, a)
            alpha, beta = analysis.reduced_dance.alpha, analysis.reduced_dance.beta
            d, mp = analysis.coset_count, analysis.reduced_rate
            if d * mp != m:
                failures.append((f"(m,a)=({m},{a})", "d*m' = m", f"{d}*{mp}"))
                continue
            w = alpha * a - beta
            s = (w // mp) % d if w != 0 else 1 % d
            if s != 1 % d:
                nonstandard += 1
            k = np.arange(m, dtype=np.int64)
            n = (s * (k % d)) % d
            # membership of (k/m, ak/m) on the coset line with
            # offset n/(d*alpha):  d*(beta - alpha*a)*k + m*n = 0 (mod d*m)
            ok = ((d * (beta - alpha * a) * k + m * n) % (d * m) == 0).all()
            if not ok:
                failures.append(
                    (f"(m,a)=({m},{a})", "all cosets on their lines", "membership fails")
                )
            if alpha == beta == 1:
                diagonal += 1
                failures.extend(_diagonal_radius_failures(m, a))
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
            report = verify_envelope(PlanetDance(alpha, beta), 720, 1e-9)
            if not report.passed(1e-9):
                failures.append(
                    (f"<{alpha},{beta}>", "tangency within 1e-9",
                     f"dist={report.max_line_distance:.3g} "
                     f"defect={report.max_parallelism_defect:.3g}")
                )
    return VerificationReport("envelope", cases, tuple(failures[:20]))


def _suite_cusps(bound: int) -> VerificationReport:
    failures = []
    cases = 0
    top = min(bound, 6)
    for alpha in range(1, top + 1):
        for beta in range(-top, top + 1):
            if gcd(alpha, abs(beta)) != 1 or alpha == beta:
                continue
            cases += 1
            span = abs(alpha - beta)
            n = span * 5
            k = np.arange(n, dtype=np.int64)
            degenerate = int((((alpha - beta) * k) % n == 0).sum())
            if degenerate != span:
                failures.append((f"<{alpha},{beta}>", str(span), str(degenerate)))
    return VerificationReport("cusp_count", cases, tuple(failures[:20]))


#: The largest bounds `verify_all` accepts.  The max_m suites grow as
#: max_m^2 and took 30 s in all at 600; `_suite_intersections`, which
#: grows about as bound^4, took 39 s at 12 (2-core Xeon, Python 3.11).
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
