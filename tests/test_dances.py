"""Tests for stitch graphs, planet dances, and samplings."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from stitchlab import dances
from stitchlab.dances import (
    PlanetDance,
    Sampling,
    StitchGraph,
    mmt_chords,
    sample,
    sample_pairs,
)
from stitchlab.kernel import MAX_INPUT, ChordSet, DirectedChord, wrap


def sampled(alpha, beta, rate):
    return sample(Sampling(PlanetDance(alpha, beta), rate))


def test_dance_canonical_orientation():
    assert PlanetDance(-3, 2) == PlanetDance(3, -2)
    assert PlanetDance(0, -1) == PlanetDance(0, 1)
    assert PlanetDance(3, 2).alpha == 3


def test_dance_reduced_flag():
    assert PlanetDance(3, 2).reduced
    assert PlanetDance(1, 0).reduced
    assert not PlanetDance(6, 4).reduced
    assert PlanetDance(0, 0).reduced


def test_stitch_graph_normalizes_multiplier():
    assert StitchGraph(12, 14).a == 2
    assert StitchGraph(12, -1).a == 11
    with pytest.raises(ValueError):
        StitchGraph(0, 1)


def test_sampling_rate_positive():
    with pytest.raises(ValueError):
        Sampling(PlanetDance(1, 2), 0)


@pytest.mark.parametrize("m", [MAX_INPUT + 1, 4 * 10**9, 0])
def test_sample_pairs_rejects_a_modulus_past_the_cap(monkeypatch, m):
    # refused before any array is built: past about 3.04e9, m*m overflows int64
    def no_array(*args, **kwargs):
        raise AssertionError("an array was allocated")

    monkeypatch.setattr(np, "arange", no_array)
    monkeypatch.setattr(np, "empty", no_array)
    with pytest.raises(ValueError):
        sample_pairs(1, 2, m)
    with pytest.raises(ValueError):
        sample_pairs(3, 2, m)


def test_mmt_chord_count():
    # start points k/m are distinct, so the canonical set keeps all m
    for m, a in [(12, 2), (30, 2), (100, 34), (9, 6)]:
        assert len(mmt_chords(StitchGraph(m, a))) == m


def test_mmt_small_example():
    chords = mmt_chords(StitchGraph(4, 2))
    starts = {c.start.turn for c in chords}
    assert starts == {Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)}
    by_start = {c.start.turn: c.end.turn for c in chords}
    assert by_start[Fraction(3, 4)] == Fraction(1, 2)


def test_multiplication_table_is_integral_sampling():
    for m, a in [(1, 0), (7, 3), (12, 2), (30, 7), (50, 25)]:
        assert mmt_chords(StitchGraph(m, a)) == sampled(1, a, m)


def test_sampling_periodicity_in_beta():
    # shifting the second speed by the rate leaves the sampling unchanged
    assert sampled(3, 2, 10) == sampled(3, 12, 10)
    assert sampled(3, 2, 10) == sampled(3, -8, 10)


def test_sampling_unit_invertibility():
    # multiplying both speeds by a unit mod m permutes the samples
    assert sampled(1, 7, 10) == sampled(3, 21, 10)
    # ... but not by a zero divisor
    assert sampled(1, 7, 10) != sampled(2, 14, 10)


def test_sample_pairs_matches_sample():
    # the integer rows and the chord sets built from them agree with the
    # Fraction loop that defines a sampling: alpha*t to beta*t (mod 1)
    for alpha, beta, m in [(1, 34, 100), (3, 2, 100), (2, 1, 9), (5, -3, 17),
                           (3, 2, 2), (2, 4, 10)]:
        reference = {
            DirectedChord(wrap(alpha * Fraction(k, m)), wrap(beta * Fraction(k, m)))
            for k in range(m)
        }
        exact = sample(Sampling(PlanetDance(alpha, beta), m))
        assert list(exact) == sorted(reference)
        assert exact == ChordSet(reference)
        expected = sorted(
            (c.start.turn.numerator * (m // c.start.turn.denominator),
             c.end.turn.numerator * (m // c.end.turn.denominator))
            for c in reference
        )
        got = sample_pairs(alpha, beta, m)
        assert got.dtype == np.int32
        assert [tuple(row) for row in got] == expected
    # <3,2> at t = 1/2 runs from 1/2 to 0
    assert DirectedChord(wrap(Fraction(1, 2)), wrap(0)) in set(sampled(3, 2, 2))


def sorted_pairs(alpha, beta, m):
    """The reference rows of `sample_pairs`: the keys x*m + y of all m
    samples, sorted with repeats dropped, and split back into rows."""
    k = np.arange(m, dtype=np.int64)
    keys = np.unique(k * (alpha % m) % m * m + k * (beta % m) % m)
    return np.stack(np.divmod(keys, m), axis=1)


@pytest.mark.parametrize("alpha, beta, count", [(0, 0, 1), (2, 4, 500000)])
def test_sample_pairs_builds_only_the_distinct_samples(monkeypatch, alpha, beta, count):
    # sample k + count repeats sample k, count = m / gcd(alpha, beta, m),
    # and the samples k < count are distinct, so no array is m long
    m = 10**6
    lengths = []
    real = np.arange

    def arange(*args, **kwargs):
        made = real(*args, **kwargs)
        lengths.append(len(made))
        return made

    monkeypatch.setattr(np, "arange", arange)
    got = sample_pairs(alpha, beta, m)
    monkeypatch.undo()
    assert lengths and max(lengths) <= count == len(got)
    assert np.array_equal(got, sorted_pairs(alpha, beta, m))


def check_against_sorted_path(alpha, beta, m):
    got = sample_pairs(alpha, beta, m)
    assert np.array_equal(got, sorted_pairs(alpha, beta, m)), (alpha, beta, m)
    # owned and writeable, so that a chord set takes it without a copy
    assert got.dtype == np.int32 and got.flags.owndata and got.flags.writeable


def test_sample_pairs_unit_alpha_matches_sorted_path():
    # the stitch graphs to m = 60, unit first speeds out of [0, m), and
    # other dances beside them
    cases = [(1, a, m) for m in range(1, 61) for a in range(m)]
    cases += [(1, -7, 60), (1, -60, 60), (1, -61, 60), (1, 67, 60), (1, 120, 60),
              (61, 5, 60), (61, -5, 60), (8, 3, 7), (1, 0, 1), (1, 5, 1), (2, -3, 1),
              (1, 999_999, 10**6), (1 + 10**6, -3, 10**6)]
    cases += [(2, 3, 10), (3, 2, 100), (0, 1, 7), (-1, 4, 9), (7, 5, 60)]
    for alpha, beta, m in cases:
        check_against_sorted_path(alpha, beta, m)


def test_sample_pairs_matches_sorted_path_for_every_small_dance():
    # every speed pair in [-m - 1, m + 1]^2: zero, negative and non-reduced
    # speeds, and speeds congruent to 1 on both sides of the modulus
    cases = 0
    for m in range(1, 25):
        for alpha in range(-m - 1, m + 2):
            for beta in range(-m - 1, m + 2):
                check_against_sorted_path(alpha, beta, m)
                cases += 1
    assert cases == 23416
    # the triples in lowest terms, as `sample` passes them, up to m < 45
    for m in range(25, 45):
        for alpha in range(-m - 1, m + 2):
            for beta in range(-m - 1, m + 2):
                if math.gcd(alpha, beta, m) == 1:
                    check_against_sorted_path(alpha, beta, m)


@pytest.mark.parametrize("window", [1, 2, 3, 7])
def test_sample_pairs_rows_do_not_depend_on_the_window(monkeypatch, window):
    # every triple in lowest terms with m < 30 (the rows depend on the
    # speeds mod m alone), and at m = 1000 dances whose windows cut the
    # starts (<7,3>, <6,-5>) or hold one start and double its ends past
    # the window (<0,1>, <500,3>): the same rows as in the default window
    cases = [(alpha, beta, m) for m in range(1, 30) for alpha in range(m)
             for beta in range(m) if math.gcd(alpha, beta, m) == 1]
    cases += [(7, 3, 1000), (6, -5, 1000), (0, 1, 1000), (500, 3, 1000)]
    want = [sample_pairs(*case) for case in cases]
    monkeypatch.setattr(dances, "_WINDOW", window)
    for case, rows in zip(cases, want):
        assert np.array_equal(sample_pairs(*case), rows), case


def lowest_terms(den, rows):
    """(den, rows) with their common factor divided out: the reference
    of a chord set's fields."""
    g = math.gcd(den, *rows.ravel().tolist())
    return den // g, rows // g


def assert_in_lowest_terms(chords):
    assert math.gcd(chords.den, *chords.rows.ravel().tolist()) == 1


def test_sample_is_built_in_lowest_terms():
    # sample divides gcd(alpha, beta, n) out of the triple before it samples;
    # the reference samples at n and divides the rows' common factor out;
    # alpha >= 0 meets every dance, as <-alpha, -beta> is <alpha, beta>
    for n in range(1, 61):
        for alpha in range(13):
            for beta in range(-12, 13):
                chords = sampled(alpha, beta, n)
                den, rows = lowest_terms(n, sorted_pairs(alpha, beta, n))
                assert chords.den == den and np.array_equal(chords.rows, rows), (alpha, beta, n)
                assert_in_lowest_terms(chords)


def test_mmt_chords_are_built_in_lowest_terms():
    for m in range(1, 61):
        for a in range(m):
            chords = mmt_chords(StitchGraph(m, a))
            assert chords.den == m and np.array_equal(chords.rows, sorted_pairs(1, a, m))
            assert_in_lowest_terms(chords)


def test_chord_set_of_chords_is_built_in_lowest_terms():
    # random chords over a common denominator D, which their turns reduce
    # below; the empty list, all-zero turns and one chord among them
    rng = random.Random(20251)
    lists = [(7, []), (12, [(0, 0)] * 3), (9, [(3, 6)]), (10, [(4, 4)]), (1, [(0, 0)])]
    for _ in range(400):
        den = rng.randint(1, 60)
        scale = rng.choice([1, 2, 3, 6])
        count = rng.choice([1, 2, 5, 20])
        lists.append((den * scale, [(scale * rng.randrange(den), scale * rng.randrange(den))
                                    for _ in range(count)]))
    for den, pairs in lists:
        chords = ChordSet(DirectedChord(wrap(Fraction(x, den)), wrap(Fraction(y, den)))
                          for x, y in pairs)
        rows = np.array(sorted(set(pairs)), dtype=np.int64).reshape(-1, 2)
        want_den, want_rows = lowest_terms(den, rows)
        assert chords.den == want_den and np.array_equal(chords.rows, want_rows), (den, pairs)
        assert_in_lowest_terms(chords)


@pytest.mark.parametrize("alpha, beta", [(1, 999999), (999983, -999979), (7, 3), (7, -3),
                                         (6, -5), (0, 1), (500000, 3)])
def test_int32_rows_are_exact_at_the_cap(alpha, beta):
    # the rows are int32, their products int64: at m = MAX_INPUT every
    # sampled k's pair, from Python ints, is a row, and the rows are the
    # m / gcd(alpha, beta, m) distinct pairs in order; the int64 product
    # c*j of sample_pairs (j a start's index) passes 2^31 for <1,999999>
    # and for beta = -3; <6,-5> has gcd(alpha, m) = 2, and <0,1> and
    # <500000,3> more ends per start than a window has rows
    m = MAX_INPUT
    rows = sample_pairs(alpha, beta, m)
    assert rows.dtype == np.int32 and len(rows) == m // math.gcd(alpha, beta, m)
    keys = rows[:, 0].astype(np.int64) * m + rows[:, 1]
    assert (np.diff(keys) > 0).all()
    ks = [0, 1, 2, m // 2, m - 2, m - 1] + random.Random(alpha).sample(range(m), 2000)
    want = np.array([alpha * k % m * m + beta * k % m for k in ks])
    assert np.array_equal(keys[np.searchsorted(keys, want)], want)


@pytest.mark.parametrize("alpha, beta", [(7, 3), (6, -5), (0, 1), (500000, 3), (1, 999999)])
def test_sample_pairs_scratch_is_one_window(alpha, beta):
    # besides its rows, sample_pairs holds only one window's products at
    # m = MAX_INPUT: no array as long as the rows, whatever the dance;
    # a small call first, so that numpy's one-time allocations are not traced
    sample_pairs(alpha, beta, 12)
    tracemalloc.start()
    try:
        rows = sample_pairs(alpha, beta, MAX_INPUT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - rows.nbytes < 500_000


def test_chord_sets_at_the_cap_are_built_alike():
    # a set built from Fraction chords at den = MAX_INPUT holds the same
    # int32 rows as one that `sample` built, so the two are equal and hash
    # alike; 3000 of the 10^6 chords of <7,3>, the first ones among them,
    # keep den = 10^6
    built = sample(Sampling(PlanetDance(7, 3), MAX_INPUT))
    assert built.den == MAX_INPUT and built.rows.dtype == np.int32
    rows = built.rows[np.r_[0:1000, 499000:500000, MAX_INPUT - 1000:MAX_INPUT]]
    chords = ChordSet(DirectedChord(wrap(Fraction(x, MAX_INPUT)), wrap(Fraction(y, MAX_INPUT)))
                      for x, y in rows.tolist())
    same = ChordSet._from_rows(MAX_INPUT, rows.copy())
    assert chords.den == MAX_INPUT and chords.rows.dtype == np.int32
    assert chords == same and hash(chords) == hash(same)
