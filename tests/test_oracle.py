"""Tests pinning the closed forms to their brute-force oracles."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from stitchlab import oracle, torusgeo
from stitchlab.dances import PlanetDance, sample_pairs
from stitchlab.oracle import (
    VerificationReport,
    brute_intersections,
    brute_shortest_vectors,
    reduced_dances,
    verify_all,
)
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
    # the tie flag flipped
    real = torusgeo.natural_alias

    def flipped(m, a):
        analysis = real(m, a)
        return replace(analysis, tie=not analysis.tie)

    monkeypatch.setattr(oracle, "natural_alias", flipped)
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


def test_suite_families_checks_rotation_step(monkeypatch):
    assert oracle._suite_families().passed
    # the floor rotations step by 1/(b + r), not by 1/r
    real = oracle.predict_family
    monkeypatch.setattr(oracle, "predict_family", lambda m, b, kind: replace(
        real(m, b, kind), rotation_step=Fraction(1, m % b)))
    report = oracle._suite_families()
    assert len(report.failures) == 9
    assert all(cell.startswith("floor") for cell, _, _ in report.failures)
    assert report.failures[0] == ("floor b=4 r=2 m=198", "rotations 0 1/2",
                                  "rotations 0 1/6")


def test_brute_intersections_counts():
    assert brute_intersections(PlanetDance(1, 2), PlanetDance(3, 2)) == 4
    assert brute_intersections(PlanetDance(1, 0), PlanetDance(0, 1)) == 1
    assert brute_intersections(PlanetDance(3, 2), PlanetDance(3, 2)) is None


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


def test_sampled_sets_agree_with_sample_pairs():
    # the invertibility pairs <1,a> and <alpha,alpha*a> of the identities suite
    unequal = 0
    for m in range(1, 31):
        a = np.arange(m, dtype=np.int64)
        for alpha in range(1, 13):
            lhs = oracle._sampled_sets(1, a, m)
            rhs = oracle._sampled_sets(alpha, alpha * a, m)
            batched = (lhs == rhs).all(axis=1)
            for i in range(m):
                one, other = sample_pairs(1, i, m), sample_pairs(alpha, alpha * i, m)
                assert batched[i] == np.array_equal(one, other), (alpha, m, i)
            unequal += int((~batched).sum())
    assert unequal > 0


def test_sampled_sets_canonical_form():
    # <2,0> and <2,2> at m=4 share (0,0) and differ in one pair
    rows = oracle._sampled_sets(2, np.array([0, 2, 6]), 4)
    assert rows.tolist() == [[0, 8, 16, 16], [0, 10, 16, 16], [0, 10, 16, 16]]
    # <2,2> visits each key twice; its row holds the set once, then sentinels
    keys = sample_pairs(2, 2, 4) @ np.array([4, 1])
    assert rows[1, :len(keys)].tolist() == keys.tolist()


def test_suite_identities_cases_and_failures(monkeypatch):
    report = oracle._suite_identities(60)
    assert report.passed and report.cases_run == 71160
    # an expectation flipped at one modulus fails every alpha there
    monkeypatch.setattr(oracle, "gcd", lambda x, m: 2 if m == 7 else math.gcd(x, m))
    report = oracle._suite_identities(8)
    assert len(report.failures) == 20
    assert report.failures[0] == ("invertibility alpha=1 m=7 a=0", "False", "True")
    monkeypatch.undo()
    # the -m rows off by one: failures come in the order of a, then m
    real = oracle._sampled_sets

    def shifted_wrong(alpha, betas, m):
        third = len(betas) // 3
        return real(alpha, np.concatenate((betas[:2 * third], betas[2 * third:] + 1)), m)

    monkeypatch.setattr(oracle, "_sampled_sets", shifted_wrong)
    report = oracle._suite_identities(3)
    assert report.failures[:2] == (("shift <1,-22> m=2", "equal", "differs"),
                                   ("shift <1,-23> m=3", "equal", "differs"))


def test_verify_all_trivial_bounds():
    reports = verify_all(1, 1)
    assert all(isinstance(r, VerificationReport) for r in reports)
    assert all(r.passed for r in reports)
    assert [r.suite for r in reports] == sorted(r.suite for r in reports)


def test_verify_all_moderate_bounds():
    reports = verify_all(20, 3)
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
