"""Tests for the exact-arithmetic primitives."""

from fractions import Fraction

import numpy as np
import pytest

from stitchlab.kernel import (
    MAX_INPUT,
    ChordSet,
    CirclePoint,
    DirectedChord,
    brief_int,
    check_input_size,
    wrap,
)


def test_wrap_into_unit_interval():
    assert wrap(Fraction(7, 3)).turn == Fraction(1, 3)
    assert wrap(Fraction(-1, 4)).turn == Fraction(3, 4)
    assert wrap(5).turn == 0


def test_circle_point_range_enforced():
    with pytest.raises(ValueError):
        CirclePoint(Fraction(1))
    with pytest.raises(ValueError):
        CirclePoint(Fraction(-1, 2))


def test_degenerate_chord():
    p = wrap(Fraction(1, 3))
    assert DirectedChord(p, p).degenerate
    assert not DirectedChord(p, wrap(0)).degenerate


def test_chord_set_canonical():
    a = DirectedChord(wrap(0), wrap(Fraction(1, 2)))
    b = DirectedChord(wrap(Fraction(1, 4)), wrap(Fraction(3, 4)))
    assert ChordSet([a, b]) == ChordSet([b, a, b])
    assert len(ChordSet([a, a, a])) == 1
    assert hash(ChordSet([a, b])) == hash(ChordSet([b, a]))
    # the common denominator is the smallest one: quarters reduce to halves
    halves = ChordSet.from_rows(4, np.array([[0, 2]], dtype=np.int64))
    assert halves == ChordSet([a])
    assert (halves.den, halves.rows.tolist()) == (2, [[0, 1]])
    assert list(halves) == [a]


def test_chord_set_immutable():
    s = ChordSet([])
    with pytest.raises(AttributeError):
        s.chords = ()
    with pytest.raises(ValueError):
        ChordSet([DirectedChord(wrap(0), wrap(Fraction(1, 3)))]).rows[0, 1] = 2


def test_from_rows_takes_owned_arrays_and_copies_views():
    # an owned int64 array is kept, divided in place, and frozen
    owned = np.array([[0, 2], [2, 0]], dtype=np.int64)
    halves = ChordSet.from_rows(4, owned)
    assert halves.rows is owned and not owned.flags.writeable
    assert (halves.den, owned.tolist()) == (2, [[0, 1], [1, 0]])
    # a strided slice is copied, so the set cannot change under it
    base = np.array([[0, 1], [0, 2], [1, 3], [2, 1]], dtype=np.int64)
    evens = ChordSet.from_rows(4, base[::2])
    assert not np.shares_memory(evens.rows, base) and evens.rows.flags.c_contiguous
    base[0, 1] = 3
    assert evens.rows.tolist() == [[0, 1], [1, 3]]
    assert base.flags.writeable


def test_input_cap():
    check_input_size(MAX_INPUT, -MAX_INPUT)
    with pytest.raises(ValueError):
        check_input_size(MAX_INPUT + 1)
    # a chord set's common denominator is capped like a modulus
    with pytest.raises(ValueError):
        ChordSet([DirectedChord(wrap(0), wrap(Fraction(1, MAX_INPUT + 1)))])


def test_brief_int_counts_digits_of_long_values():
    assert [brief_int(v) for v in (0, -7, 10**20 - 1)] == ["0", "-7", "9" * 20]
    assert brief_int(10**20) == "+(21 digits)"
    assert brief_int(-(10**400)) == "-(401 digits)"
    assert brief_int(10**400 - 1) == "+(400 digits)"
    # past the 4300 digits that str() converts
    assert brief_int(-(10**5000) + 1) == "-(5000 digits)"
    with pytest.raises(ValueError, match=r"^integer input \+\(401 digits\) exceeds"):
        check_input_size(10**400)
