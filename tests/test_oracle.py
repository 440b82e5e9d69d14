"""Tests pinning the closed forms to their brute-force oracles."""

import math
import os
import pickle
import time
from fractions import Fraction

import numpy as np
import pytest

from stitchlab import cycloid, oracle, overlay, torusgeo
from stitchlab.dances import PlanetDance, sample_pairs
from stitchlab.kernel import ChordSet
from stitchlab.oracle import (
    VerificationReport,
    brute_intersections,
    brute_shortest_vectors,
    reduced_dances,
    verify_all,
)
from stitchlab.overlay import OverlayDecomposition, overlay_decompose
from stitchlab.torusgeo import intersection_count, natural_alias


def test_brute_nearest_known_cases():
    for m, a, vector, tie in [
        (206, 35, (6, 4), False),
        (207, 35, (6, 3), False),
        (100, 34, (3, 2), False),
        (50, 25, (2, 0), False),
        (1, 0, (1, 0), True),    # (1, 0) and (0, 1)
        (2, 1, (1, 1), True),    # (1, 1) and (1, -1), which a centered lift misses
        (5, 2, (1, 2), True),    # (1, 2) and (2, -1)
        (156, 96, (5, 12), True),  # p*q > 0 wins over the smaller |q| of (13, 0)
    ]:
        vectors, ties = brute_shortest_vectors(m)
        assert (tuple(vectors[a].tolist()), bool(ties[a])) == (vector, tie), (m, a)


def test_brute_nearest_agrees_with_search():
    # full vector agreement, tie-breaks and tie flags included
    for m in range(1, 80):
        vectors, ties = brute_shortest_vectors(m)
        for a in range(m):
            analysis = natural_alias(m, a)
            assert (tuple(vectors[a].tolist()), bool(ties[a])) == (
                analysis.shortest_vector, analysis.tie), (m, a)


def reference_shortest_vectors(m):
    """`brute_shortest_vectors` as it was before Hermite's bound narrowed
    its box: every p in [0, max(m // 2, 1)]."""
    h = max(m // 2, 1)
    a = np.arange(m, dtype=np.int64)[:, None, None]
    p = np.arange(h + 1, dtype=np.int64)[None, :, None]
    q = (a * p % m + np.array([-m, 0, m], dtype=np.int64)).reshape(m, -1)
    p = np.broadcast_to(p, (m, h + 1, 3)).reshape(m, -1)
    big = np.iinfo(np.int64).max
    norm = np.where((np.abs(q) <= h) & ((p > 0) | (q > 0)), p * p + q * q, big)
    minimal = norm == norm.min(axis=1, keepdims=True)
    key = (((p * q <= 0) * (m + 1) + np.abs(q)) * (m + 1) + p) * (2 * m + 1) + q + m
    best = np.where(minimal, key, big).argmin(axis=1)
    rows = np.arange(m)
    return np.column_stack((p[rows, best], q[rows, best])), minimal.sum(axis=1) > 1


def test_brute_hermite_box_matches_the_half_modulus_box():
    # vectors and tie flags, so every minimum the m/2 box finds is inside
    for m in range(1, 151):
        vectors, ties = brute_shortest_vectors(m)
        expected_vectors, expected_ties = reference_shortest_vectors(m)
        assert np.array_equal(vectors, expected_vectors), m
        assert np.array_equal(ties, expected_ties), m


def test_brute_minimal_norms():
    # a box of twice the width holds no shorter vector and no further minimum
    for m in (1, 2, 9, 37):
        vectors, ties = brute_shortest_vectors(m)
        for a in range(m):
            lattice = [(p, q) for p in range(0, 2 * m + 1)
                       for q in range(-2 * m, 2 * m + 1)
                       if (q - a * p) % m == 0 and (p > 0 or q > 0)]
            best = min(p * p + q * q for p, q in lattice)
            minima = [v for v in lattice if v[0] ** 2 + v[1] ** 2 == best]
            p, q = vectors[a].tolist()
            assert p * p + q * q == best and bool(ties[a]) == (len(minima) > 1)


def test_suite_shortest_vector_checks_vector_and_tie(monkeypatch):
    assert oracle._suite_shortest_vector(12).passed
    # the tie-break preferring the larger |q|: same norms, other vectors
    monkeypatch.setattr(torusgeo, "_pick", lambda minima: max(
        [v for v in minima if v[0] * v[1] > 0] or minima, key=lambda v: abs(v[1])))
    report = oracle._suite_shortest_vector(5)
    assert report.failures[0] == ("(m,a)=(1,0)", "(1, 0) tie=True", "(0, 1) tie=True")
    monkeypatch.undo()
    # the tie flag flipped in the analysis that the sweep's decompositions read
    real = torusgeo.natural_alias

    def flipped(m, a):
        analysis = real(m, a)
        return analysis._replace(tie=not analysis.tie)

    monkeypatch.setattr(overlay, "natural_alias", flipped)
    report = oracle._suite_shortest_vector(3)
    assert report.cases_run == 6 and len(report.failures) == 6
    assert report.failures[1] == ("(m,a)=(2,0)", "(1, 0) tie=False", "(1, 0) tie=True")


def test_suite_correspondence_checks_library_rows(monkeypatch):
    assert oracle._suite_correspondence(12).cases_run == 78 + 78
    # one graph's rows off by one
    real = oracle.sample_pairs

    def off_by_one(alpha, beta, m):
        rows = real(alpha, beta, m)
        return rows + 1 if (alpha, beta, m) == (1, 5, 11) else rows

    monkeypatch.setattr(oracle, "sample_pairs", off_by_one)
    report = oracle._suite_correspondence(12)
    assert report.failures == (("MMT(11,5)", "equal chord sets", "differs"),)


def test_suite_correspondence_spot_check_catches_lost_chord(monkeypatch):
    # every chord set of den 11 loses its last row, whichever path builds it
    real = ChordSet.from_rows.__func__

    def drop_last(cls, den, rows):
        return real(cls, den, rows[:-1] if den == 11 else rows)

    monkeypatch.setattr(ChordSet, "from_rows", classmethod(drop_last))
    report = oracle._suite_correspondence(12)
    assert report.cases_run == 78 + 78
    assert report.failures == tuple(
        (f"MMT(11,{a}) API", "equal chord sets", "differs") for a in range(11))


def test_suite_families_checks_rotation_step(monkeypatch):
    assert oracle._suite_families().passed
    # the floor rotations step by 1/(b + r), not by 1/r
    real = oracle.predict_family
    monkeypatch.setattr(oracle, "predict_family", lambda m, b, kind: real(
        m, b, kind)._replace(rotation_step=Fraction(1, m % b)))
    report = oracle._suite_families()
    assert len(report.failures) == 9
    assert all(cell.startswith("floor") for cell, _, _ in report.failures)
    assert report.failures[0] == ("floor b=4 r=2 m=198", "rotations 0 1/2",
                                  "rotations 0 1/6")


def test_brute_intersections_counts():
    assert brute_intersections(PlanetDance(1, 2), PlanetDance(3, 2)) == 4
    assert brute_intersections(PlanetDance(1, 0), PlanetDance(0, 1)) == 1
    assert brute_intersections(PlanetDance(2, 1), PlanetDance(1, -1)) == 3
    assert brute_intersections(PlanetDance(1, 1), PlanetDance(1, -1)) == 2
    assert brute_intersections(PlanetDance(3, 2), PlanetDance(3, 2)) is None


def test_suite_overlay_reads_library_lines(monkeypatch):
    assert oracle._suite_overlay(12).passed
    # coset 1's n moved by 1 off its line; diagonal aliases are left alone,
    # since their radii are read from the lines as well
    real = oracle.overlay_decompose

    def moved(m, a):
        dec = real(m, a)
        if len(dec.numerators) < 2 or dec.analysis.reduced_dance == PlanetDance(1, 1):
            return dec
        first, one, *rest = dec.numerators
        # kept in [0, m), so that only membership and the rotation that
        # is read from the same n fail
        return dec._replace(numerators=(first, (one + 1) % m, *rest))

    monkeypatch.setattr(oracle, "overlay_decompose", moved)
    report = oracle._suite_overlay(12)
    assert report.failures[0] == ("(m,a)=(4,2)", "all cosets on their lines",
                                  "membership fails")
    assert {expected for _, expected, _ in report.failures} == {
        "all cosets on their lines", "rotated dances on their cosets"}


def test_suite_overlay_checks_offset_range(monkeypatch):
    # n and n + m name the same torus line (offsets c and c + 1/alpha), so
    # moving coset 0's n by m keeps every chord on its line; only the range
    # checks see it
    real = oracle.overlay_decompose

    def shifted(m, a):
        dec = real(m, a)
        if dec.analysis.reduced_dance.alpha < 2:
            return dec
        zero, *rest = dec.numerators
        return dec._replace(numerators=(zero + m, *rest))

    monkeypatch.setattr(oracle, "overlay_decompose", shifted)
    shifted_graphs = {5: [3], 7: [3, 4], 9: [4, 5], 10: [7], 11: [4, 5, 6, 7]}
    expected = []
    for m, multipliers in shifted_graphs.items():
        names = [f"(m,a)=({m},{a})" for a in multipliers]
        expected += [(name, "offsets in [0, 1/alpha)", "offset out of range")
                     for name in names]
        # all ten have alpha > beta, so the rotation n/(m*(alpha - beta))
        # moves by 1/(alpha - beta), a symmetry of the dance
        expected += [(name, "rotations in [0, 1/|alpha-beta|)", "rotation out of range")
                     for name in names]
    assert oracle._suite_overlay(12).failures == tuple(expected)


def test_suite_overlay_checks_reduced_direction(monkeypatch):
    # the doubled direction (2*alpha, 2*beta) passes the membership
    # congruence wherever (alpha, beta) does; every graph of m = 7 has
    # d = 1, so its one offset, 0, stays in range
    real = oracle.overlay_decompose

    def doubled(m, a):
        dec = real(m, a)
        if m != 7:
            return dec
        alias = dec.analysis.reduced_dance
        analysis = dec.analysis._replace(
            reduced_dance=PlanetDance(2 * alias.alpha, 2 * alias.beta))
        return dec._replace(analysis=analysis)

    monkeypatch.setattr(oracle, "overlay_decompose", doubled)
    expected = []
    for a in range(7):
        alias = natural_alias(7, a).reduced_dance
        expected.append((f"(m,a)=(7,{a})", "a reduced direction",
                         f"<{2 * alias.alpha},{2 * alias.beta}>"))
    assert oracle._suite_overlay(12).failures == tuple(expected)


#: The library's rotation, which the fault tests below wrap.
_ROTATION = OverlayDecomposition.rotation


def _turn_last_coset(monkeypatch, m, a, turn):
    """Make the last coset of MMT(m, a) report its rotation plus turn."""
    def turned(dec, k):
        rotation = _ROTATION(dec, k)
        if (dec.analysis.m, dec.analysis.a, k) == (m, a, len(dec.numerators) - 1):
            return rotation + turn
        return rotation

    monkeypatch.setattr(OverlayDecomposition, "rotation", turned)


def _rotation_faults(m, a):
    """The two turns of the last coset of MMT(m, a), with what each must
    fail: 1/(2*d*|alpha - beta|) moves the dance off its chords, and
    1/|alpha - beta|, a symmetry of the dance, only out of range."""
    analysis = natural_alias(m, a)
    span = abs(analysis.reduced_dance.alpha - analysis.reduced_dance.beta)
    name = f"(m,a)=({m},{a})"
    return [
        (Fraction(1, 2 * analysis.coset_count * span),
         (name, "rotated dances on their cosets", "rotation fails")),
        (Fraction(1, span),
         (name, "rotations in [0, 1/|alpha-beta|)", "rotation out of range")),
    ]


def test_suite_overlay_checks_rotations(monkeypatch):
    for turn, failure in _rotation_faults(206, 35):
        _turn_last_coset(monkeypatch, 206, 35, turn)
        report = oracle._suite_overlay(206)
        assert report.failures == (failure,)
        assert report.cases_run == sum(range(1, 207))


@pytest.mark.parametrize("m, a", [(207, 35), (207, 34), (9, 6)])
def test_rotation_checks_other_graphs(m, a, monkeypatch):
    decs = [overlay_decompose(m, b) for b in range(m)]
    assert oracle._partition_failures(m, decs)[0] == []
    for turn, failure in _rotation_faults(m, a):
        _turn_last_coset(monkeypatch, m, a, turn)
        assert oracle._partition_failures(m, decs)[0] == [failure]


def test_suite_overlay_checks_the_rotation_sign(monkeypatch):
    # n/(m*|alpha - beta|) in place of (-n mod m)/(m*|alpha - beta|) when
    # alpha < beta turns the dance the wrong way; at m <= 60 only the
    # <1,2> graphs with d = 3 have a coset where the two differ
    def unsigned(dec, k):
        alpha, beta = dec.analysis.reduced_dance
        if alpha == beta:
            return None
        return Fraction(dec.numerators[k], dec.analysis.m * abs(alpha - beta))

    monkeypatch.setattr(OverlayDecomposition, "rotation", unsigned)
    graphs = [(42, 30)] + [(m, a) for m in range(45, 61, 3)
                           for a in (m // 3 + 2, 2 * m // 3 + 2)]
    assert oracle._suite_overlay(60).failures == tuple(
        (f"(m,a)=({m},{a})", "rotated dances on their cosets", "rotation fails")
        for m, a in graphs)
    assert all(natural_alias(m, a).reduced_dance == PlanetDance(1, 2) for m, a in graphs)


def test_suite_overlay_reports_a_decomposition_that_raises(monkeypatch):
    real = oracle.overlay_decompose

    def broken(m, a):
        if (m, a) == (5, 2):
            raise ZeroDivisionError("Fraction(0, 0)")
        return real(m, a)

    monkeypatch.setattr(oracle, "overlay_decompose", broken)
    vectors, overlay_report = oracle._suite_shortest_vector(6), oracle._suite_overlay(6)
    assert overlay_report.failures == (
        ("(m,a)=(5,2)", "a decomposition", "ZeroDivisionError: Fraction(0, 0)"),)
    # the graph's alias analysis is checked all the same
    assert vectors.passed and vectors.cases_run == overlay_report.cases_run == 21


def _own_trig_radius_failures(dec):
    """`oracle._diagonal_radius_failures` as it was before the sweep shared
    one trig table per modulus: four trig arrays of its own per graph."""
    m, a = dec.analysis.m, dec.analysis.a
    radii = [oracle.offset_family_radius(dec.offset(k)) for k in range(len(dec.numerators))]
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


def test_diagonal_radii_from_shared_table_are_bit_identical(monkeypatch):
    # every radius off by one, so that each chord's distance is printed
    real = oracle.offset_family_radius
    monkeypatch.setattr(oracle, "offset_family_radius", lambda c: real(c) + 1)
    graphs = 0
    for m in range(1, 121):
        angle = 2 * np.pi * np.arange(m, dtype=np.int64) / m
        cos, sin = np.cos(angle), np.sin(angle)
        for a in range(m):
            dec = overlay_decompose(m, a)
            if dec.analysis.reduced_dance == PlanetDance(1, 1):
                graphs += 1
                found = oracle._diagonal_radius_failures(dec, cos, sin)
                assert len(found) == m and found == _own_trig_radius_failures(dec)
    assert graphs > 0


def test_suite_cusps_counts_library_rows(monkeypatch):
    report = oracle._suite_cusps(6)
    assert report.passed and report.cases_run == 46
    # <3,1> sampled at m = 10 loses one of its two degenerate rows
    real = oracle.sample_pairs

    def dropped(alpha, beta, m):
        rows = real(alpha, beta, m)
        if (alpha, beta) != (3, 1):
            return rows
        return np.delete(rows, np.flatnonzero(rows[:, 0] == rows[:, 1])[-1], axis=0)

    monkeypatch.setattr(oracle, "sample_pairs", dropped)
    assert oracle._suite_cusps(6).failures == (("<3,1>", "2", "1"),)


def test_suite_envelope_checks_the_library_curve(monkeypatch):
    report = oracle._suite_envelope(4)
    assert report.passed and report.cases_run == 21
    # the curve that render draws, shifted by half of the suite's 1/720 step
    real = cycloid.cycloid_point
    monkeypatch.setattr(cycloid, "cycloid_point",
                        lambda spec, s: real(spec, s + 1 / 1440))
    report = oracle._suite_envelope(4)
    # every dance but <1,0>, whose curve is one point that no shift moves
    assert report.cases_run == 21 and len(report.failures) == 20
    assert "<1,0>" not in [case for case, _, _ in report.failures]
    assert report.failures[0][:2] == ("<1,-4>", "tangency within 1e-9")


def test_brute_intersections_validation():
    with pytest.raises(ValueError):
        brute_intersections(PlanetDance(6, 4), PlanetDance(1, 0))


def test_intersection_formula_small_range():
    dances = reduced_dances(3)
    for i, (a1, b1) in enumerate(dances):
        for a2, b2 in dances[i:]:
            formula = intersection_count(PlanetDance(a1, b1), PlanetDance(a2, b2))
            brute = brute_intersections(PlanetDance(a1, b1), PlanetDance(a2, b2))
            assert formula == (0 if brute is None else brute)


def test_reduced_dances_contents():
    dances = reduced_dances(2)
    assert (0, 1) in dances
    assert (1, -2) in dances
    assert (2, 2) not in dances
    assert all(PlanetDance(a, b).reduced for a, b in dances)


def _sampled_sets(alpha, betas, m):
    """Row i: the m-sampling of <alpha, betas[i]> as a set in canonical
    form, in int64; how the identities suite made its keys before they
    were batched per modulus."""
    k = np.arange(m, dtype=np.int64)
    keys = np.sort(alpha * k % m * m + betas[:, None] * k % m, axis=1)
    keys[:, 1:][keys[:, 1:] == keys[:, :-1]] = m * m
    return np.sort(keys, axis=1)


def _reference_identities(max_m, sampled_sets=_sampled_sets):
    """`oracle._suite_identities` as one loop per (alpha, m), the reference
    for the batched suite; reads `oracle.gcd`, so a fault injected there
    reaches both."""
    failures = []
    cases = 0
    top = min(max_m, 60)
    speeds = np.arange(-20, 21, dtype=np.int64)
    for alpha in range(1, 21):
        betas = alpha * speeds
        found = []
        for m in range(1, top + 1):
            cases += len(speeds)
            rows = sampled_sets(alpha, np.concatenate((betas, betas + m, betas - m)), m)
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
            lhs, rhs = sampled_sets(1, a, m), sampled_sets(alpha, alpha * a, m)
            equal = (lhs == rhs).all(axis=1)
            invertible = oracle.gcd(alpha, m) == 1
            for i in np.flatnonzero(equal != invertible):
                failures.append((f"invertibility alpha={alpha} m={m} a={i}",
                                 str(invertible), str(bool(equal[i]))))
    return VerificationReport("sampling_identities", cases, tuple(failures[:20]))


def _minus_rows_off_by_one(keys):
    """`keys` with the last third of its speeds, the beta - m rows of the
    shift identity, off by one."""
    def wrong(alpha, betas, m):
        betas = betas.copy()
        betas[..., 2 * (betas.shape[-1] // 3):] += 1
        return keys(alpha, betas, m)
    return wrong


def _gcd_flipped_at_7(x, m):
    return 2 if m == 7 else math.gcd(x, m)


def test_sampled_sets_agree_with_sample_pairs():
    # the invertibility pairs <1,a> and <alpha,alpha*a> of the identities suite
    unequal = 0
    alphas = np.arange(1, 13, dtype=np.int32)[:, None]
    for m in range(1, 31):
        a = np.arange(m, dtype=np.int32)
        batched = oracle._same_sets(oracle._sample_keys(np.int32(1), a, m),
                                    oracle._sample_keys(alphas, alphas * a, m), m)
        for alpha in range(1, 13):
            for i in range(m):
                one, other = sample_pairs(1, i, m), sample_pairs(alpha, alpha * i, m)
                assert batched[alpha - 1, i] == np.array_equal(one, other), (alpha, m, i)
        unequal += int((~batched).sum())
    assert unequal > 0


def test_sampled_sets_canonical_form():
    # <2,0> and <2,2> at m=4 share (0,0) and differ in one pair
    keys = oracle._sample_keys(np.int32(2), np.array([0, 2, 6], dtype=np.int32), 4)
    rows = oracle._canonical(keys, 4)
    assert rows.dtype == np.int32
    assert rows.tolist() == [[0, 8, 16, 16], [0, 10, 16, 16], [0, 10, 16, 16]]
    # <2,2> visits each key twice; its row holds the set once, then sentinels
    keys = sample_pairs(2, 2, 4) @ np.array([4, 1])
    assert rows[1, :len(keys)].tolist() == keys.tolist()


def test_suite_identities_cases_and_failures(monkeypatch):
    report = oracle._suite_identities(60)
    assert report.passed and report.cases_run == 71160
    # an expectation flipped at one modulus fails every alpha there
    monkeypatch.setattr(oracle, "gcd", _gcd_flipped_at_7)
    report = oracle._suite_identities(8)
    assert len(report.failures) == 20
    assert report.failures[0] == ("invertibility alpha=1 m=7 a=0", "False", "True")
    monkeypatch.undo()
    # the -m rows off by one: failures come in the order of a, then m
    monkeypatch.setattr(oracle, "_sample_keys", _minus_rows_off_by_one(oracle._sample_keys))
    report = oracle._suite_identities(3)
    assert report.failures[:2] == (("shift <1,-22> m=2", "equal", "differs"),
                                   ("shift <1,-23> m=3", "equal", "differs"))


@pytest.mark.parametrize("max_m", [1, 2, 3, 8, 60])
def test_suite_identities_matches_reference(monkeypatch, max_m):
    assert oracle._suite_identities(max_m) == _reference_identities(max_m)
    monkeypatch.setattr(oracle, "gcd", _gcd_flipped_at_7)
    assert oracle._suite_identities(max_m) == _reference_identities(max_m)
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "_sample_keys", _minus_rows_off_by_one(oracle._sample_keys))
    assert oracle._suite_identities(max_m) == _reference_identities(
        max_m, _minus_rows_off_by_one(_sampled_sets))


def test_same_sets_short_cut(monkeypatch):
    m = 7
    canonical = []
    real = oracle._canonical

    def counted(keys, m):
        canonical.append(len(keys))
        return real(keys, m)

    monkeypatch.setattr(oracle, "_canonical", counted)
    # <3,5> at m=7 samples m distinct keys
    row = oracle._sample_keys(np.int32(3), np.array([5], dtype=np.int32), m)
    assert len(set(row[0].tolist())) == m
    assert oracle._same_sets(row, row.copy(), m).tolist() == [True]
    assert canonical == []
    # the same set in another order compares equal, through the canonical form
    assert oracle._same_sets(row, row[:, ::-1], m).tolist() == [True]
    assert canonical == [1, 1]
    # one key changed compares unequal
    changed = row.copy()
    changed[0, 2] = min(set(range(m * m)) - set(row[0].tolist()))
    assert oracle._same_sets(row, changed, m).tolist() == [False]
    # the invertible pairs <1,a> and <alpha,alpha*a> differ term by term for
    # alpha > 1 and are equal as sets
    canonical.clear()
    alphas = np.arange(2, m, dtype=np.int32)[:, None]
    a = np.arange(m, dtype=np.int32)
    lhs, rhs = oracle._sample_keys(np.int32(1), a, m), oracle._sample_keys(alphas, alphas * a, m)
    assert not (lhs == rhs).all(axis=-1).any()
    assert oracle._same_sets(lhs, rhs, m).all()
    assert canonical == [rhs.shape[0] * m] * 2


def test_identities_keys_fit_int32():
    top = oracle._IDENTITIES_MAX_M
    speed = oracle._SHIFT_ALPHAS * oracle._SPEED + top  # |beta +/- m|
    invert_speed = oracle._INVERT_ALPHAS * (top - 1)  # alpha*a
    bound = max(speed * (top - 1), invert_speed * (top - 1), top * top)
    assert bound == 41772 and bound < 2 ** 31
    # the keys at the extreme speeds, against Python integers
    alpha = oracle._SHIFT_ALPHAS
    betas = np.array([speed, -speed, invert_speed], dtype=np.int32)
    keys = oracle._sample_keys(np.int32(alpha), betas, top)
    assert keys.dtype == np.int32
    assert keys.tolist() == [[alpha * k % top * top + beta * k % top for k in range(top)]
                             for beta in betas.tolist()]


def test_verify_all_trivial_bounds():
    reports = [report for report, _ in verify_all(1, 1)]
    assert all(isinstance(r, VerificationReport) for r in reports)
    assert all(r.passed for r in reports)
    assert [r.suite for r in reports] == sorted(r.suite for r in reports)


def test_verify_all_moderate_bounds():
    reports = [report for report, _ in verify_all(20, 3)]
    assert all(r.passed for r in reports)
    by_name = {r.suite: r for r in reports}
    assert by_name["stitch_sampling_correspondence"].cases_run > 0
    assert by_name["shortest_vector"].cases_run == sum(range(1, 21))


def test_verify_all_validation():
    with pytest.raises(ValueError):
        verify_all(0, 1)
    # the suites cost about max_m^2 and bound^4: the limits are 600 and 12
    with pytest.raises(ValueError, match="at most 600"):
        verify_all(601, 1)
    with pytest.raises(ValueError, match="at most 12"):
        verify_all(1, 13)


def _one_by_one(max_m, bound):
    """The nine suites run one after another in this process, by name."""
    reports = [
        oracle._suite_correspondence(max_m), oracle._suite_aliasing(bound),
        oracle._suite_intersections(bound), oracle._suite_identities(max_m),
        oracle._suite_shortest_vector(max_m), oracle._suite_overlay(max_m),
        oracle._suite_families(), oracle._suite_envelope(bound),
        oracle._suite_cusps(bound),
    ]
    return sorted(reports, key=lambda r: r.suite)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


forks = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@pytest.mark.parametrize("max_m, bound", [(1, 1), (20, 3), (60, 4)])
def test_verify_all_matches_suites_one_by_one(monkeypatch, max_m, bound):
    expected = _one_by_one(max_m, bound)
    reports, seconds = zip(*verify_all(max_m, bound))
    assert list(reports) == expected and len(reports) == 9
    assert all(s > 0 for s in seconds)
    _assert_no_child_left()
    # without os.fork every suite runs here, with the same reports
    monkeypatch.delattr(os, "fork", raising=False)
    reports, seconds = zip(*verify_all(max_m, bound))
    assert list(reports) == expected and all(s > 0 for s in seconds)


#: Every suite that `verify_all` runs.
_SUITES = ["_suite_overlay", "_suite_identities", "_suite_correspondence",
           "_suite_shortest_vector", "_suite_intersections", "_suite_aliasing",
           "_suite_envelope", "_suite_families", "_suite_cusps"]


def _patch_suites(monkeypatch, suite):
    """Replace every suite by ``suite(real, args)``, where real is the
    suite it replaces."""
    for name in _SUITES:
        real = getattr(oracle, name)
        monkeypatch.setattr(oracle, name,
                            lambda *args, real=real: suite(real, args))


def _fault_in(monkeypatch, child, fault):
    """Make every suite call ``fault()`` in the forked child (``child``) or
    in this process (not ``child``) and, in the other process, wait 50 ms
    before it runs, so that the faulting process takes a suite whichever
    split the two processes make."""
    caller = os.getpid()

    def suite(real, args):
        if (os.getpid() != caller) == child:
            fault()
        time.sleep(0.05)
        return real(*args)

    _patch_suites(monkeypatch, suite)


def test_verify_all_runs_every_suite_once_in_either_process(monkeypatch, tmp_path):
    log = tmp_path / "ran"

    def suite(real, args):
        report = real(*args)
        time.sleep(0.02)  # so that neither process can take every suite
        with open(log, "a") as f:  # one short append per suite
            f.write(f"{report.suite} {os.getpid()}\n")
        return report

    _patch_suites(monkeypatch, suite)
    pairs = verify_all(60, 4)
    _assert_no_child_left()
    ran = dict(line.split() for line in log.read_text().splitlines())
    assert len(log.read_text().splitlines()) == len(ran) == 9
    assert sorted(ran) == [report.suite for report, _ in pairs]
    if hasattr(os, "fork"):
        assert len(set(ran.values())) == 2 and str(os.getpid()) in ran.values()
    assert all(seconds >= 0.02 for _, seconds in pairs)
    # without os.fork this process runs the list in order
    log.unlink()
    monkeypatch.delattr(os, "fork", raising=False)
    pairs = verify_all(60, 4)
    lines = [line.split() for line in log.read_text().splitlines()]
    assert [name for name, _ in lines] == [
        "overlay_partition", "sampling_identities", "stitch_sampling_correspondence",
        "shortest_vector", "intersection_counts", "alias_sampling_equality",
        "envelope", "family_predictions", "cusp_count"]
    assert {pid for _, pid in lines} == {str(os.getpid())}
    assert all(seconds >= 0.02 for _, seconds in pairs)


@forks
@pytest.mark.parametrize("error", [ValueError("no such modulus: 7"),
                                   ZeroDivisionError("Fraction(0, 0)")])
def test_verify_all_reraises_a_child_suite_error(monkeypatch, error):
    def fault():
        raise error

    _fault_in(monkeypatch, True, fault)
    with pytest.raises(type(error)) as raised:
        verify_all(3, 1)
    assert type(raised.value) is type(error) and str(raised.value) == str(error)
    _assert_no_child_left()


@forks
def test_verify_all_names_a_silent_child_exit(monkeypatch):
    # the child leaves at once, without sending anything
    _fault_in(monkeypatch, True, lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with status 3"):
        verify_all(3, 1)
    _assert_no_child_left()


@forks
def test_verify_all_reaps_the_child_when_this_side_raises(monkeypatch):
    def fault():
        raise KeyError("this side")

    _fault_in(monkeypatch, False, fault)
    with pytest.raises(KeyError, match="this side"):
        verify_all(60, 1)
    _assert_no_child_left()


@forks
def test_verify_all_names_a_child_that_dies_mid_send(monkeypatch):
    def torn(outcome, pipe):
        pipe.write(pickle.dumps(outcome)[:5])
        raise OSError("pipe torn")

    # only the child pickles, whatever it ran: it sends five bytes and
    # leaves with status 1
    monkeypatch.setattr(pickle, "dump", torn)
    with pytest.raises(RuntimeError, match="exited with status 1"):
        verify_all(3, 1)
    _assert_no_child_left()
