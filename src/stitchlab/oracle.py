"""Brute-force and exhaustive checks shipped alongside the closed forms.

Each oracle recomputes a result by enumeration or search, sharing no code
with the closed form it validates.  The sampling-identities suite builds
its own keys (alpha*k mod m)*m + (beta*k mod m) for a whole batch of
dances at once instead of calling :func:`~stitchlab.dances.sample_pairs`.
The suites in :func:`verify_all` are surfaced through the command line so
the claims can be re-verified on demand.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd

import numpy as np

from .cycloid import classify, cycloid_point, offset_family_radius, verify_envelope
from .dances import (
    PlanetDance,
    Sampling,
    StitchGraph,
    mmt_chords,
    sample,
    sample_pairs,
)
from .kernel import TorusPoint, wrap
from .overlay import overlay_decompose, predict_family
from .render import nearest_congruent
from .torusgeo import (
    TorusLine,
    intersection_count,
    line_contains,
    natural_alias,
    shortest_sample_vector,
)


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


def _centered(k: int, m: int) -> int:
    """Integer centered lift of k/m scaled by m, in (-m/2, m/2]."""
    k %= m
    return k if 2 * k <= m else k - m


def brute_nearest(m: int, a: int) -> tuple[int, int]:
    """Exhaustive nearest-sample-point search over k = 1..m-1.

    Applies the same orientation and tie-break conventions as the
    lattice-reduction search.  For m = 1 the only sample point is the
    origin itself and its nearest nonzero lift (1, 0) is returned.
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    if m == 1:
        return (1, 0)
    best_norm: int | None = None
    minima: set[tuple[int, int]] = set()
    for k in range(1, m):
        p, q = _centered(k, m), _centered(a * k, m)
        if p < 0 or (p == 0 and q < 0):
            p, q = -p, -q
        n = p * p + q * q
        if best_norm is None or n < best_norm:
            best_norm, minima = n, {(p, q)}
        elif n == best_norm:
            minima.add((p, q))
    pool = [v for v in minima if v[0] * v[1] > 0] or sorted(minima)
    return min(pool, key=lambda v: abs(v[1]))


def brute_minimal_norms(m: int) -> np.ndarray:
    """Minimum squared sample-point norm for every multiplier 0 <= a < m.

    Vectorized companion of :func:`brute_nearest` used by the exhaustive
    sweep; for m = 1 the nearest nonzero lift has norm 1.
    """
    if m == 1:
        return np.array([1], dtype=np.int64)
    k = np.arange(1, m, dtype=np.int64)
    p = np.where(2 * k <= m, k, k - m)
    a = np.arange(m, dtype=np.int64)
    q = (a[:, None] * k[None, :]) % m
    q = np.where(2 * q <= m, q, q - m)
    return (p[None, :] ** 2 + q**2).min(axis=1)


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


def brute_tangency(d: PlanetDance, s: Fraction) -> tuple[float, float] | None:
    """Search the curve for the point nearest the chord line at time s.

    Scans a 4096-point parameter grid for the distance minimizer, then
    refines by bisecting the signed chord/tangent cross product, which
    crosses zero at the tangency.  Returns None for a degenerate chord.
    """
    alpha, beta = d.alpha, d.beta
    if alpha + beta == 0:
        raise ValueError("alpha + beta = 0: no curve to search")
    if (Fraction(s) * (alpha - beta)).denominator == 1:
        return None
    spec = classify(d)
    ax, ay = np.cos(2 * np.pi * alpha * float(s)), np.sin(2 * np.pi * alpha * float(s))
    bx, by = np.cos(2 * np.pi * beta * float(s)), np.sin(2 * np.pi * beta * float(s))
    cx, cy = bx - ax, by - ay
    clen = float(np.hypot(cx, cy))

    def dist(t: float) -> float:
        px, py = cycloid_point(spec, t)
        return abs(cx * (py - ay) - cy * (px - ax)) / clen

    def cross(t: float) -> float:
        # chord direction x curve tangent; zero and sign-changing where
        # the curve runs parallel to the chord
        ta, tb = 2 * np.pi * alpha * t, 2 * np.pi * beta * t
        tx = -(np.sin(tb) + np.sin(ta))
        ty = np.cos(tb) + np.cos(ta)
        return cx * ty - cy * tx

    grid = np.arange(4096) / 4096.0
    values = [dist(t) for t in grid]
    i = int(np.argmin(values))
    lo, hi = (i - 1) / 4096.0, (i + 1) / 4096.0
    glo, ghi = cross(lo), cross(hi)
    if glo * ghi > 0:  # flat spot; fall back to the grid point
        return cycloid_point(spec, i / 4096.0)
    for _ in range(80):
        mid = (lo + hi) / 2.0
        gm = cross(mid)
        if glo * gm <= 0:
            hi, ghi = mid, gm
        else:
            lo, glo = mid, gm
    return cycloid_point(spec, (lo + hi) / 2.0)


def reduced_dances(bound: int) -> list[tuple[int, int]]:
    """All reduced speed pairs with coordinates in [-bound, bound], one
    per canonical orientation."""
    out = [(0, 1)]
    for alpha in range(1, bound + 1):
        for beta in range(-bound, bound + 1):
            if gcd(alpha, abs(beta)) == 1:
                out.append((alpha, beta))
    return out


def _mmt_pairs_reduced(m: int, a: int) -> np.ndarray:
    """MMT chords as reduced fraction rows (indexed by k), from the
    p -> a*p rule."""
    k = np.arange(m, dtype=np.int64)
    e = (a * k) % m
    g1, g2 = np.gcd(k, m), np.gcd(e, m)
    return np.column_stack((k // g1, m // g1, e // g2, m // g2))


def _dance_pairs_reduced(alpha: int, beta: int, m: int) -> np.ndarray:
    """Dance sampling as reduced fraction rows (indexed by k), from
    wrap(alpha*t), wrap(beta*t) at t = k/m."""
    k = np.arange(m, dtype=np.int64)
    x = (alpha * k) % m
    y = (beta * k) % m
    g1, g2 = np.gcd(x, m), np.gcd(y, m)
    return np.column_stack((x // g1, m // g1, y // g2, m // g2))


def _suite_correspondence(max_m: int) -> VerificationReport:
    failures = []
    cases = 0
    for m in range(1, max_m + 1):
        for a in range(m):
            cases += 1
            if not np.array_equal(_mmt_pairs_reduced(m, a),
                                  _dance_pairs_reduced(1, a, m)):
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
        brute = brute_minimal_norms(m)
        for a in range(m):
            cases += 1
            p, q = shortest_sample_vector(m, a)
            if p * p + q * q != int(brute[a]):
                failures.append(
                    (f"(m,a)=({m},{a})", str(int(brute[a])), str(p * p + q * q))
                )
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
    failures = []
    info = []
    cases = 0
    ceil_mismatch = floor_mismatch = rot_cases = 0
    for b in range(2, 10):
        for r in range(1, b):
            m = nearest_congruent(m_target, r, b)
            for kind in ("ceiling", "floor"):
                cases += 1
                pred = predict_family(m, b, kind)
                dec = overlay_decompose(m, pred.a)
                if dec.analysis.coset_count != pred.d:
                    failures.append(
                        (f"{kind} b={b} r={r} m={m}", f"d={pred.d}",
                         f"d={dec.analysis.coset_count}")
                    )
                    continue
                if dec.analysis.reduced_dance != pred.dance:
                    failures.append(
                        (f"{kind} b={b} r={r} m={m}", str(pred.dance),
                         str(dec.analysis.reduced_dance))
                    )
                    continue
                if pred.d > 1:
                    rot_cases += 1
                    computed = {c.rotation for c in dec.cosets}
                    claimed = {Fraction(k, r) % 1 for k in range(pred.d)}
                    if computed != claimed:
                        if kind == "ceiling":
                            ceil_mismatch += 1
                        else:
                            floor_mismatch += 1
    info.append(
        f"rotation sets: ceiling families match k/r in {rot_cases - ceil_mismatch}"
        f"/{rot_cases} cases with d > 1; floor families match k/r in "
        f"{rot_cases - floor_mismatch}/{rot_cases} (the floor rotations step "
        "by 1/(b+r), not 1/r)"
    )
    return VerificationReport("family_predictions", cases, tuple(failures[:20]), tuple(info))


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


def verify_all(max_m: int, dance_bound: int) -> list[VerificationReport]:
    """Run and time every suite within the given bounds, by suite name."""
    if max_m < 1 or dance_bound < 1:
        raise ValueError("bounds must be at least 1")
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
