"""Tests pinning the closed forms to their brute-force oracles."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from stitchlab import oracle
from stitchlab.cycloid import ORACLE_TOL, tangency_point
from stitchlab.dances import PlanetDance, sample_pairs
from stitchlab.oracle import (
    VerificationReport,
    brute_intersections,
    brute_minimal_norms,
    brute_nearest,
    brute_tangency,
    reduced_dances,
    verify_all,
)
from stitchlab.torusgeo import intersection_count, shortest_sample_vector


def test_brute_nearest_known_cases():
    assert brute_nearest(206, 35) == (6, 4)
    assert brute_nearest(207, 35) == (6, 3)
    assert brute_nearest(100, 34) == (3, 2)
    assert brute_nearest(50, 25) == (2, 0)
    assert brute_nearest(1, 0) == (1, 0)


def test_brute_nearest_agrees_with_search():
    # full vector agreement, tie-breaks included
    for m in range(1, 80):
        for a in range(m):
            assert brute_nearest(m, a) == shortest_sample_vector(m, a)


def test_brute_minimal_norms():
    for m in (1, 2, 9, 37, 100):
        norms = brute_minimal_norms(m)
        for a in range(m):
            p, q = brute_nearest(m, a)
            assert p * p + q * q == int(norms[a])


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


def test_brute_tangency_matches_formula():
    rng = random.Random(20260826)
    pool = [(a, b) for a, b in reduced_dances(5) if a + b != 0 and a != b]
    for _ in range(50):
        alpha, beta = rng.choice(pool)
        s = Fraction(rng.randrange(1, 97), 97)
        d = PlanetDance(alpha, beta)
        expected = tangency_point(d, s)
        found = brute_tangency(d, s)
        assert expected is not None and found is not None
        assert np.hypot(found[0] - expected[0],
                        found[1] - expected[1]) < ORACLE_TOL


def test_brute_tangency_degenerate_chord():
    assert brute_tangency(PlanetDance(3, 2), Fraction(0)) is None
    with pytest.raises(ValueError):
        brute_tangency(PlanetDance(1, -1), Fraction(1, 7))


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
