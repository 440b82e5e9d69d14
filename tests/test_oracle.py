"""Tests pinning the closed forms to their brute-force oracles."""

import math
import os
import pickle
import select
import time
from fractions import Fraction

import numpy as np
import pytest

from stitchlab import cycloid, oracle, torusgeo
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
    # the tie flag flipped in the analysis that the suite reads
    real = torusgeo.natural_alias

    def flipped(m, a):
        analysis = real(m, a)
        return analysis._replace(tie=not analysis.tie)

    monkeypatch.setattr(oracle, "natural_alias", flipped)
    report = oracle._suite_shortest_vector(3)
    assert report.cases_run == 6 and len(report.failures) == 6
    assert report.failures[1] == ("(m,a)=(2,0)", "(1, 0) tie=False", "(1, 0) tie=True")


def test_suite_shortest_vector_reports_an_analysis_that_raises(monkeypatch):
    real = oracle.natural_alias

    def broken(m, a):
        if (m, a) == (5, 2):
            raise ZeroDivisionError("integer division or modulo by zero")
        return real(m, a)

    monkeypatch.setattr(oracle, "natural_alias", broken)
    report = oracle._suite_shortest_vector(6)
    assert report.failures == (
        ("(m,a)=(5,2)", "an alias analysis",
         "ZeroDivisionError: integer division or modulo by zero"),)
    assert report.cases_run == 21


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
    real = ChordSet._from_rows.__func__

    def drop_last(cls, den, rows):
        return real(cls, den, rows[:-1] if den == 11 else rows)

    monkeypatch.setattr(ChordSet, "_from_rows", classmethod(drop_last))
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


def test_suite_families_reports_a_coset_count_and_a_dance_mismatch(monkeypatch):
    # one cell's prediction off: first its coset count, then its dance swapped
    real = oracle.predict_family

    def off(field, wrong):
        def predict(m, b, kind):
            pred = real(m, b, kind)
            if (m, b, kind) == (199, 3, "ceiling"):
                return pred._replace(**{field: wrong(pred)})
            return pred
        return predict

    monkeypatch.setattr(oracle, "predict_family", off("d", lambda pred: pred.d + 1))
    report = oracle._suite_families()
    assert report.cases_run == 72
    assert report.failures == (("ceiling b=3 r=1 m=199", "d=2", "d=1"),)
    monkeypatch.setattr(oracle, "predict_family", off(
        "dance", lambda pred: PlanetDance(pred.dance.beta, pred.dance.alpha)))
    assert oracle._suite_families().failures == (
        ("ceiling b=3 r=1 m=199", "PlanetDance(alpha=2, beta=3)",
         "PlanetDance(alpha=3, beta=2)"),)


def test_suite_aliasing_reports_unequal_samplings(monkeypatch):
    # <2,1>, the last reduced dance at bound 2, sampled one off: every pair
    # with it fails, in the order of the other dance
    real = oracle.sample_pairs
    monkeypatch.setattr(oracle, "sample_pairs", lambda alpha, beta, m: real(
        alpha, beta, m) + ((alpha, beta) == (2, 1)))
    report = oracle._suite_aliasing(2)
    assert report.cases_run == 28
    assert report.failures == tuple(
        (f"<{a},{b}> vs <2,1> at m={m}", "equal samplings", "differs")
        for a, b, m in [(0, 1, 2), (1, -2, 5), (1, -1, 3), (1, 0, 1), (1, 1, 1),
                        (1, 2, 3), (2, -1, 4)])


def test_suite_aliasing_runs_every_pair(monkeypatch):
    # reduced dances in canonical orientation are pairwise non-parallel, so
    # every pair has a determinant m >= 1 and is a case
    monkeypatch.setattr(oracle, "sample_pairs", lambda alpha, beta, m: np.zeros((m, 2)))
    for bound in range(1, oracle._MAX_BOUND + 1):
        alpha, beta = np.array(reduced_dances(bound)).T
        det = np.multiply.outer(alpha, beta) - np.multiply.outer(beta, alpha)
        n = len(alpha)
        assert (det[np.triu_indices(n, 1)] != 0).all(), bound
        assert oracle._suite_aliasing(bound).cases_run == n * (n - 1) // 2
    assert len(reduced_dances(4)) == 24 and len(reduced_dances(12)) == 184


def test_suite_intersections_reports_a_wrong_count(monkeypatch):
    # a line counted as crossing itself once
    real = oracle.intersection_count
    monkeypatch.setattr(oracle, "intersection_count",
                        lambda d1, d2: real(d1, d2) + (d1 == d2))
    report = oracle._suite_intersections(1)
    assert report.cases_run == 10
    assert report.failures == tuple((f"<{a},{b}> vs <{a},{b}>", "1", "0")
                                    for a, b in [(0, 1), (1, -1), (1, 0), (1, 1)])


def test_brute_intersections_counts():
    assert brute_intersections(PlanetDance(1, 2), PlanetDance(3, 2)) == 4
    assert brute_intersections(PlanetDance(1, 0), PlanetDance(0, 1)) == 1
    assert brute_intersections(PlanetDance(2, 1), PlanetDance(1, -1)) == 3
    assert brute_intersections(PlanetDance(1, 1), PlanetDance(1, -1)) == 2
    assert brute_intersections(PlanetDance(3, 2), PlanetDance(3, 2)) == 0


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


#: The library's offset, which the fault tests below wrap.
_OFFSET = OverlayDecomposition.offset


def _offset_over_m(dec, k):
    """n/m in place of n/(alpha*m) for a coset that is not diagonal: the
    offset of another line wherever alpha > 1 and n > 0, while n, and so
    membership and the rotation, stay right."""
    alpha, beta = dec.analysis.reduced_dance
    if alpha == beta:
        return _OFFSET(dec, k)
    return Fraction(dec.numerators[k], dec.analysis.m)


def test_suite_overlay_checks_offsets(monkeypatch):
    monkeypatch.setattr(OverlayDecomposition, "offset", _offset_over_m)
    expected = []
    for m in range(1, 31):
        for a in range(m):
            alpha, beta = natural_alias(m, a).reduced_dance
            if alpha != beta and alpha > 1 and natural_alias(m, a).coset_count > 1:
                expected.append((f"(m,a)=({m},{a})", "offsets n/(alpha*m)",
                                 "offset off its line"))
    assert expected[0][0] == "(m,a)=(22,5)"
    assert oracle._suite_overlay(30).failures == tuple(expected)


def test_offset_failures_come_after_range_failures(monkeypatch):
    # at m = 22, a = 5 aliases <2,-1> in two cosets; coset 0's n moved by m
    # is out of range and turns the dance by 1/(alpha - beta), a symmetry
    shifted = overlay_decompose(22, 5)
    zero, *rest = shifted.numerators
    shifted = shifted._replace(numerators=(zero + 22, *rest))
    monkeypatch.setattr(oracle, "overlay_decompose", lambda m, a: shifted
                        if (m, a) == (22, 5) else overlay_decompose(m, a))
    monkeypatch.setattr(OverlayDecomposition, "offset", _offset_over_m)
    name = "(m,a)=(22,5)"
    assert oracle._partition_failures(22)[0] == [
        (name, "offsets in [0, 1/alpha)", "offset out of range"),
        (name, "offsets n/(alpha*m)", "offset off its line"),
        ("(m,a)=(22,6)", "offsets n/(alpha*m)", "offset off its line"),
        ("(m,a)=(22,16)", "offsets n/(alpha*m)", "offset off its line"),
        ("(m,a)=(22,17)", "offsets n/(alpha*m)", "offset off its line"),
        (name, "rotations in [0, 1/|alpha-beta|)", "rotation out of range"),
    ]


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


def test_suite_overlay_checks_one_line_per_coset(monkeypatch):
    # 2d numerators by the same formula: step*d = 0 (mod m), so coset k + d
    # repeats coset k's line and every chord stays on a line of its coset
    real = oracle.overlay_decompose

    def doubled(m, a):
        dec = real(m, a)
        if m != 9:
            return dec
        alpha, beta = dec.analysis.reduced_dance
        numerators = ((alpha * a - beta) * k % m for k in range(2 * dec.analysis.coset_count))
        return dec._replace(numerators=tuple(numerators))

    monkeypatch.setattr(oracle, "overlay_decompose", doubled)
    expected = []
    for a in range(9):
        d = natural_alias(9, a).coset_count
        expected.append((f"(m,a)=(9,{a})", "d cosets on d distinct lines",
                         f"{2 * d} cosets on {d} lines"))
    report = oracle._suite_overlay(12)
    assert report.failures == tuple(expected)
    assert report.cases_run == sum(range(1, 13))


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
    """The three turns of the last coset of MMT(m, a), with what each must
    fail: 1/(2*d*|alpha - beta|) moves the dance off its chords; so does
    1/(2*m*|alpha - beta|), half a line step, after which v no longer
    divides (alpha - beta)*u*m, although the floored quotient is still the
    coset's own n when alpha > beta; and 1/|alpha - beta|, a symmetry of
    the dance, is only out of range."""
    analysis = natural_alias(m, a)
    span = abs(analysis.reduced_dance.alpha - analysis.reduced_dance.beta)
    name = f"(m,a)=({m},{a})"
    return [
        (Fraction(1, 2 * analysis.coset_count * span),
         (name, "rotated dances on their cosets", "rotation fails")),
        (Fraction(1, 2 * m * span),
         (name, "rotated dances on their cosets", "rotation fails")),
        (Fraction(1, span),
         (name, "rotations in [0, 1/|alpha-beta|)", "rotation out of range")),
    ]


def test_suite_overlay_checks_the_coset_count_times_the_rate(monkeypatch):
    # MMT(6,1)'s rate off by one: d*m' = 1*7 is not m, and the graph leaves
    # the batch, so nothing else fails
    real = oracle.overlay_decompose

    def off(m, a):
        dec = real(m, a)
        if (m, a) != (6, 1):
            return dec
        return dec._replace(analysis=dec.analysis._replace(
            reduced_rate=dec.analysis.reduced_rate + 1))

    monkeypatch.setattr(oracle, "overlay_decompose", off)
    report = oracle._suite_overlay(6)
    assert report.cases_run == 21
    assert report.failures == (("(m,a)=(6,1)", "d*m' = m", "1*7"),)


def test_suite_overlay_checks_rotations(monkeypatch):
    for turn, failure in _rotation_faults(206, 35):
        _turn_last_coset(monkeypatch, 206, 35, turn)
        report = oracle._suite_overlay(206)
        assert report.failures == (failure,)
        assert report.cases_run == sum(range(1, 207))


@pytest.mark.parametrize("m, a", [(207, 35), (207, 34), (9, 6)])
def test_rotation_checks_other_graphs(m, a, monkeypatch):
    assert oracle._partition_failures(m)[0] == []
    for turn, failure in _rotation_faults(m, a):
        _turn_last_coset(monkeypatch, m, a, turn)
        assert oracle._partition_failures(m)[0] == [failure]


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
    overlay_report = oracle._suite_overlay(6)
    assert overlay_report.failures == (
        ("(m,a)=(5,2)", "a decomposition", "ZeroDivisionError: Fraction(0, 0)"),)
    assert overlay_report.cases_run == 21


def _own_trig_radius_failures(dec):
    """The radius failures of one diagonal graph on its own: four trig
    arrays of its own, where the suite shares one table per modulus."""
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


def _radii_off_by_one(monkeypatch):
    """Every radius off by one, so that each chord's distance is printed."""
    real = oracle.offset_family_radius
    monkeypatch.setattr(oracle, "offset_family_radius", lambda c: real(c) + 1)


def test_diagonal_radii_from_shared_table_are_bit_identical(monkeypatch):
    _radii_off_by_one(monkeypatch)
    graphs = 0
    for m in range(1, 121):
        decs = [overlay_decompose(m, a) for a in range(m)]
        diagonal = [dec for dec in decs if dec.analysis.reduced_dance == PlanetDance(1, 1)]
        found = oracle._partition_failures(m)[0]
        assert found == [failure for dec in diagonal
                         for failure in _own_trig_radius_failures(dec)]
        assert len(found) == m * len(diagonal)
        graphs += len(diagonal)
    assert graphs > 0


def test_rotation_failures_come_before_radius_failures(monkeypatch):
    # at m = 12 the graphs a = 1 and a = 7 alias <1,1>, and a = 5 <1,-1>
    decs = [overlay_decompose(12, a) for a in range(12)]
    (turn, failure), *_ = _rotation_faults(12, 5)
    _turn_last_coset(monkeypatch, 12, 5, turn)
    _radii_off_by_one(monkeypatch)
    found = oracle._partition_failures(12)[0]
    assert found == [failure, *_own_trig_radius_failures(decs[1]),
                     *_own_trig_radius_failures(decs[7])]
    assert [name for name, _, _ in found[1:]] == [
        f"(m,a)=(12,{a}) chord {i}" for a in (1, 7) for i in range(12)]


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


def _on_every_chord(weight):
    """A wrong curve that lies on every chord: the point A + w*(B - A) of
    the chord from A to B at each parameter, w = weight(alpha, beta)."""
    def curve(spec, s):
        w = weight(spec.alpha, spec.beta)
        ax, ay = np.cos(2 * np.pi * spec.alpha * s), np.sin(2 * np.pi * spec.alpha * s)
        bx, by = np.cos(2 * np.pi * spec.beta * s), np.sin(2 * np.pi * spec.beta * s)
        return ax + w * (bx - ax), ay + w * (by - ay)
    return curve


@pytest.mark.parametrize("weight, passing", [
    (lambda alpha, beta: 0.0, []),  # the chord's start
    # its end: the curve of <1,0> is that point
    (lambda alpha, beta: 1.0, ["<1,0>"]),
    (lambda alpha, beta: 0.5, []),  # its midpoint
    # (alpha*A + beta*B)/(alpha + beta), the formula with alpha and beta exchanged
    (lambda alpha, beta: beta / (alpha + beta), []),
], ids=["start", "end", "midpoint", "exchanged"])
def test_suite_envelope_fails_a_curve_that_only_lies_on_the_chords(
        monkeypatch, weight, passing):
    # each curve lies on its chords, so only the derivative of
    # (P - A) x (B - A) at fixed P, zero only on the envelope, fails it
    report = oracle._suite_envelope(6)
    assert report.passed and report.cases_run == 45
    monkeypatch.setattr(cycloid, "cycloid_point", _on_every_chord(weight))
    # the suite's 45 cases, each checked, since its report keeps 20 failures
    reports = {f"<{alpha},{beta}>": cycloid.verify_envelope(PlanetDance(alpha, beta), 720)
               for alpha, beta in oracle.reduced_dances(6)
               if alpha != 0 and alpha + beta != 0 and alpha != beta}
    assert len(reports) == 45
    assert [case for case, r in reports.items() if r.passed()] == passing
    # the line distances are rounding error
    assert max(r.max_line_distance for r in reports.values()) < 1e-12
    assert len(oracle._suite_envelope(6).failures) == 20


def test_dance_suites_run_every_dance_of_the_bound():
    # each suite that takes the dance bound runs more dances at 8 than at 6;
    # envelope and cusp_count once ran bound 6's at any larger bound
    runs = {suite.__name__: (suite(6), suite(8))
            for suite in (oracle._suite_aliasing, oracle._suite_intersections,
                          oracle._suite_envelope, oracle._suite_cusps)}
    for name, (six, eight) in runs.items():
        assert six.passed and eight.passed and six.cases_run < eight.cases_run, name
    assert [r.cases_run for r in runs["_suite_envelope"]] == [45, 85]
    assert [r.cases_run for r in runs["_suite_cusps"]] == [46, 86]


def test_brute_intersections_validation():
    with pytest.raises(ValueError):
        brute_intersections(PlanetDance(6, 4), PlanetDance(1, 0))


def _no_array(*args, **kwargs):
    raise AssertionError("an array was allocated")


@pytest.mark.parametrize("m", [oracle._MAX_M + 1, 10**6, 0])
def test_brute_shortest_vectors_rejects_a_modulus_past_the_cap(monkeypatch, m):
    # refused before any array is built: at 10**6 the box takes 8 GiB
    monkeypatch.setattr(np, "arange", _no_array)
    with pytest.raises(ValueError):
        brute_shortest_vectors(m)


@pytest.mark.parametrize("speed", [oracle._MAX_BOUND + 1, 10**6])
def test_brute_intersections_rejects_a_speed_past_the_cap(monkeypatch, speed):
    # refused before any array is built: <1,10**6> against <10**6,1>
    # spans a box of about 10**12 integer points
    pairs = [(PlanetDance(1, speed), PlanetDance(speed, 1)),
             (PlanetDance(1, 0), PlanetDance(1, -speed)),
             (PlanetDance(speed, -1), PlanetDance(0, 1))]
    monkeypatch.setattr(np, "arange", _no_array)
    for d1, d2 in pairs:
        with pytest.raises(ValueError):
            brute_intersections(d1, d2)


def test_reduced_dances_rejects_a_bound_past_the_cap():
    with pytest.raises(ValueError):
        reduced_dances(oracle._MAX_BOUND + 1)
    assert len(reduced_dances(oracle._MAX_BOUND)) > 1


def test_intersection_formula_small_range():
    dances = reduced_dances(3)
    for i, (a1, b1) in enumerate(dances):
        for a2, b2 in dances[i:]:
            formula = intersection_count(PlanetDance(a1, b1), PlanetDance(a2, b2))
            brute = brute_intersections(PlanetDance(a1, b1), PlanetDance(a2, b2))
            assert formula == brute


def test_reduced_dances_contents():
    dances = reduced_dances(2)
    assert (0, 1) in dances
    assert (1, -2) in dances
    assert (2, 2) not in dances
    assert all(PlanetDance(a, b).reduced for a, b in dances)


def _sampled_keys(alpha, betas, m):
    """Row i: the m-sampling of <alpha, betas[i]>, chord k as the int64 key
    (alpha*k mod m)*m + (betas[i]*k mod m); how the identities suite made
    its keys before they were batched per modulus."""
    k = np.arange(m, dtype=np.int64)
    return alpha * k % m * m + betas[:, None] * k % m


def _as_sets(keys, m):
    """Each row of keys below m*m as a set in canonical form: sorted, each
    repeat replaced by m*m, sorted again."""
    keys = np.sort(keys, axis=1)
    keys[:, 1:][keys[:, 1:] == keys[:, :-1]] = m * m
    return np.sort(keys, axis=1)


def _reference_identities(max_m, sampled_keys=_sampled_keys):
    """`oracle._suite_identities` as one loop per (m, alpha), the reference
    for the batched suite: at each m the shift failures by sign (+m, then
    -m), alpha and speed, rows compared chord by chord, then the
    invertibility failures by alpha and a, rows compared as sets.
    Reads `oracle.gcd`, so a fault injected there reaches both."""
    failures = []
    cases = 0
    speeds = np.arange(-20, 21, dtype=np.int64)
    for m in range(1, min(max_m, 60) + 1):
        differs = []
        for alpha in range(1, 21):
            betas = alpha * speeds
            cases += len(speeds)
            rows = sampled_keys(alpha, np.concatenate((betas, betas + m, betas - m)), m)
            base, *others = np.split(rows, 3)
            differs.append([np.flatnonzero((base != other).any(axis=1)) for other in others])
        for sign, shift in enumerate((m, -m)):
            for alpha in range(1, 21):
                for i in differs[alpha - 1][sign]:
                    failures.append((f"shift <{alpha},{alpha * int(speeds[i]) + shift}> m={m}",
                                     "equal", "differs"))
        for alpha in range(1, 13):
            a = np.arange(m, dtype=np.int64)
            cases += m
            lhs = _as_sets(sampled_keys(1, a, m), m)
            rhs = _as_sets(sampled_keys(alpha, alpha * a, m), m)
            equal = (lhs == rhs).all(axis=1)
            invertible = oracle.gcd(alpha, m) == 1
            for i in np.flatnonzero(equal != invertible):
                failures.append((f"invertibility alpha={alpha} m={m} a={i}",
                                 str(invertible), str(bool(equal[i]))))
    return VerificationReport("sampling_identities", cases, tuple(failures[:20]),
                              (f"m <= {min(max_m, 60)} of max_m {max_m}",))


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
                                    oracle._sample_keys(alphas, alphas * a, m))
        for alpha in range(1, 13):
            for i in range(m):
                one, other = sample_pairs(1, i, m), sample_pairs(alpha, alpha * i, m)
                assert batched[alpha - 1, i] == np.array_equal(one, other), (alpha, m, i)
        unequal += int((~batched).sum())
    assert unequal > 0


def test_samplings_visit_each_key_equally_often():
    # k -> (alpha*k mod m, beta*k mod m) is a homomorphism from Z_m, so each
    # key of its image comes m/|image| times and equal sets sort alike
    alphas, betas = np.meshgrid(np.arange(21), np.arange(-40, 41), indexing="ij")
    alphas, betas = alphas.ravel()[:, None], betas.ravel()[:, None]
    for m in range(1, 61):
        k = np.arange(m, dtype=np.int64)
        keys = alphas * k % m * m + betas * k % m
        # one np.unique for every dance: key x of row r is r*m*m + x
        unique, counts = np.unique(keys + np.arange(len(keys))[:, None] * m * m,
                                   return_counts=True)
        sizes = np.bincount(unique // (m * m))
        assert len(sizes) == len(keys) and (m % sizes == 0).all(), m
        assert (counts == m // sizes[unique // (m * m)]).all(), m
    # <2,2> at m=4 visits each of its two keys twice
    keys = oracle._sample_keys(np.int32(2), np.array([2], dtype=np.int32), 4)
    assert keys.tolist() == [[0, 10, 0, 10]]
    assert (sample_pairs(2, 2, 4) @ np.array([4, 1])).tolist() == [0, 10]


def test_suite_identities_cases_and_failures(monkeypatch):
    report = oracle._suite_identities(60)
    assert report.passed and report.cases_run == 71160
    # an expectation flipped at one modulus fails every alpha there
    monkeypatch.setattr(oracle, "gcd", _gcd_flipped_at_7)
    report = oracle._suite_identities(8)
    assert len(report.failures) == 20
    assert report.failures[0] == ("invertibility alpha=1 m=7 a=0", "False", "True")
    monkeypatch.undo()
    # the -m rows off by one: failures come in the order of m, then alpha, then speed
    monkeypatch.setattr(oracle, "_sample_keys", _minus_rows_off_by_one(oracle._sample_keys))
    report = oracle._suite_identities(3)
    assert report.failures[:2] == (("shift <1,-22> m=2", "equal", "differs"),
                                   ("shift <1,-21> m=2", "equal", "differs"))


@pytest.mark.parametrize("max_m", [1, 2, 3, 8, 60])
def test_suite_identities_matches_reference(monkeypatch, max_m):
    assert oracle._suite_identities(max_m) == _reference_identities(max_m)
    monkeypatch.setattr(oracle, "gcd", _gcd_flipped_at_7)
    assert oracle._suite_identities(max_m) == _reference_identities(max_m)
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "_sample_keys", _minus_rows_off_by_one(oracle._sample_keys))
    assert oracle._suite_identities(max_m) == _reference_identities(
        max_m, _minus_rows_off_by_one(_sampled_keys))


def test_same_sets_compares_sorted_rows():
    m = 7
    # <3,5> at m=7 samples m distinct keys
    row = oracle._sample_keys(np.int32(3), np.array([5], dtype=np.int32), m)
    assert len(set(row[0].tolist())) == m
    assert oracle._same_sets(row, row.copy()).tolist() == [True]
    # the same set in another order compares equal, once sorted
    assert oracle._same_sets(row, row[:, ::-1]).tolist() == [True]
    # one key changed compares unequal
    changed = row.copy()
    changed[0, 2] = min(set(range(m * m)) - set(row[0].tolist()))
    assert oracle._same_sets(row, changed).tolist() == [False]
    # the invertible pairs <1,a> and <alpha,alpha*a> differ term by term for
    # alpha > 1 and are equal as sets; the (m, m) rows broadcast against
    # the (m - 2, m, m) rows
    alphas = np.arange(2, m, dtype=np.int32)[:, None]
    a = np.arange(m, dtype=np.int32)
    lhs, rhs = oracle._sample_keys(np.int32(1), a, m), oracle._sample_keys(alphas, alphas * a, m)
    assert not (lhs == rhs).all(axis=-1).any()
    same = oracle._same_sets(lhs, rhs)
    assert same.shape == (m - 2, m) and same.all()


def _shifted_rows_rolled(keys):
    """`keys` with the chords of every row of the beta + m and beta - m
    thirds of a shift batch turned by one place: the same sets of keys,
    in another order."""
    def rolled(alphas, betas, m):
        out = keys(alphas, betas, m)
        third = betas.shape[-1] // 3
        out[:, third:] = np.roll(out[:, third:], 1, axis=-1)
        return out
    return rolled


def test_shift_rows_compare_chord_by_chord(monkeypatch):
    m = 7
    speeds = np.arange(-oracle._SPEED, oracle._SPEED + 1, dtype=np.int32)
    betas = np.arange(1, oracle._SHIFT_ALPHAS + 1, dtype=np.int32)[:, None] * speeds
    assert oracle._shift_failures(betas, m) == []
    monkeypatch.setattr(oracle, "_sample_keys", _shifted_rows_rolled(oracle._sample_keys))
    failures = oracle._shift_failures(betas, m)
    # every shifted row holds its base row's keys, and every row that is
    # not constant (alpha = 7, 14 sample the one key 0) is reported
    alphas = np.arange(1, oracle._SHIFT_ALPHAS + 1, dtype=np.int32)[:, None]
    keys = oracle._sample_keys(alphas, np.concatenate((betas, betas + m, betas - m), axis=1), m)
    base, *others = np.split(keys, 3, axis=1)
    assert all(oracle._same_sets(base, other).all() for other in others)
    expected = [(f"shift <{alpha},{alpha * speed + shift}> m={m}", "equal", "differs")
                for shift in (m, -m) for alpha in range(1, oracle._SHIFT_ALPHAS + 1)
                if alpha % m for speed in speeds.tolist()]
    assert failures == expected


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


def test_every_suite_grows_with_its_bounds_or_names_its_cap():
    # both sizes lie above every cap: m = 60 of the identities and m = 40
    # of the correspondence suite's API check
    small, large = ([report for report, _ in verify_all(*size)] for size in ((61, 2), (64, 3)))
    assert [r.suite for r in small] == [r.suite for r in large]
    capped = {}
    for before, after in zip(small, large):
        assert before.passed and after.passed, after.suite
        if after.cases_run <= before.cases_run:
            capped[after.suite] = after.info
    assert capped == {
        "family_predictions": ("b <= 9 near m = 200, both kinds, whatever max_m and bound",),
        "sampling_identities": ("m <= 60 of max_m 64",),
    }
    # a suite that grows may still stop part of its work short, and names where
    assert {r.suite: r.info for r in large}["stitch_sampling_correspondence"] == (
        "mmt_chords for m <= 40 of max_m 64",)


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


# (65, 2) runs 65 + 60 + 65 + 65 + 5 = 260 jobs, more than one byte numbers
@pytest.mark.parametrize("max_m, bound", [(1, 1), (20, 3), (60, 4), (65, 2)])
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


#: The five suites that `verify_all` runs whole, and the units of one
#: modulus that it runs of the other four.
_SUITES = ["_suite_intersections", "_suite_aliasing", "_suite_envelope",
           "_suite_families", "_suite_cusps"]
_UNITS = ["_partition_failures", "_identities_failures", "_correspondence_failures",
          "_shortest_vector_failures"]


def _patch_suites(monkeypatch, suite):
    """Replace every whole suite and every unit by ``suite(real, args)``,
    where real is the function it replaces."""
    for name in _SUITES + _UNITS:
        real = getattr(oracle, name)
        monkeypatch.setattr(oracle, name,
                            lambda *args, real=real: suite(real, args))


@pytest.fixture
def fault_in(monkeypatch):
    """``fault_in(child, fault)`` makes every suite and unit call
    ``fault()`` in the forked child (``child``) or in this process (not
    ``child``), after it writes a byte to a pipe.  The other process waits
    for that byte, up to 10 s, before it runs a job, so that the faulting
    process takes a job whichever split the two processes make."""
    taken, tell = os.pipe()
    caller = os.getpid()

    def fault_in(child, fault):
        def suite(real, args):
            if (os.getpid() != caller) == child:
                os.write(tell, b"\0")
                fault()
            else:
                select.select([taken], [], [], 10)
            return real(*args)

        _patch_suites(monkeypatch, suite)

    yield fault_in
    os.close(taken)
    os.close(tell)


def test_verify_all_runs_every_suite_once_in_either_process(monkeypatch, tmp_path):
    log = tmp_path / "ran"

    def suite(real, args):
        result = real(*args)
        time.sleep(0.02)  # so that neither process can take every job
        with open(log, "a") as f:  # one short append per job
            f.write(f"{real.__name__}{args} {os.getpid()}\n")
        return result

    # the bound suites whole, then every unit, by m, largest first
    jobs = [f"{name}(1,)" for name in _SUITES[:3]] + ["_suite_families()", "_suite_cusps(1,)"]
    jobs += [f"{unit}({m},)" for m in range(8, 0, -1) for unit in _UNITS]
    _patch_suites(monkeypatch, suite)
    pairs = verify_all(8, 1)
    _assert_no_child_left()
    lines = [line.split() for line in log.read_text().splitlines()]
    assert sorted(job for job, _ in lines) == sorted(jobs)
    if hasattr(os, "fork"):
        pids = {pid for _, pid in lines}
        assert len(pids) == 2 and str(os.getpid()) in pids
    # a unit suite's time is the sum of its eight units' times
    units = {"overlay_partition", "sampling_identities", "stitch_sampling_correspondence",
             "shortest_vector"}
    assert len(pairs) == 9 and all(seconds >= 0.02 * (8 if report.suite in units else 1)
                                   for report, seconds in pairs)
    # without os.fork this process runs the list in order
    log.unlink()
    monkeypatch.delattr(os, "fork", raising=False)
    verify_all(8, 1)
    lines = [line.split() for line in log.read_text().splitlines()]
    assert [job for job, _ in lines] == jobs
    assert {pid for _, pid in lines} == {str(os.getpid())}


class _Stop(Exception):
    """Raised by a stand-in runner once it has seen the job list."""


def test_the_queue_fits_one_pipe_page(monkeypatch):
    # the job numbers, two bytes each, are written to the pipe before the
    # fork, while nothing reads it; pipe(7): a pipe holds as little as one
    # page, 4,096 bytes, once its user is over pipe-user-pages-soft, and a
    # larger write would then block forever
    seen = []

    def runner(jobs):
        seen.extend(jobs)
        raise _Stop

    monkeypatch.setattr(oracle, "_run_suites", runner)
    with pytest.raises(_Stop):
        verify_all(oracle._MAX_M, oracle._MAX_BOUND)
    assert len(seen) == 3 * 600 + 60 + 5 == 1865
    assert 2 * len(seen) == 3730 <= 4096
    monkeypatch.undo()
    # as many trivial jobs run, each result back under its own number
    done = oracle._run_suites([(abs, -number) for number in range(len(seen))])
    assert [done[number][0] for number in range(len(seen))] == list(range(len(seen)))


@forks
@pytest.mark.parametrize("error", [ValueError("no such modulus: 7"),
                                   ZeroDivisionError("Fraction(0, 0)")])
def test_verify_all_reraises_a_child_suite_error(fault_in, error):
    def fault():
        raise error

    fault_in(True, fault)
    with pytest.raises(type(error)) as raised:
        verify_all(3, 1)
    assert type(raised.value) is type(error) and str(raised.value) == str(error)
    _assert_no_child_left()


def test_verify_all_reraises_a_unit_error(monkeypatch):
    # the last job, shortest_vector's unit at m = 1, raises in whichever
    # process takes it
    real = oracle._shortest_vector_failures

    def broken(m):
        if m == 1:
            raise ValueError("no such modulus: 1")
        return real(m)

    monkeypatch.setattr(oracle, "_shortest_vector_failures", broken)
    with pytest.raises(ValueError, match="no such modulus: 1"):
        verify_all(20, 1)
    _assert_no_child_left()


@forks
def test_verify_all_names_a_silent_child_exit(fault_in):
    # the child leaves at once, without sending anything
    fault_in(True, lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with status 3"):
        verify_all(3, 1)
    _assert_no_child_left()


@forks
def test_verify_all_reaps_the_child_when_this_side_raises(fault_in):
    def fault():
        raise KeyError("this side")

    fault_in(False, fault)
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
