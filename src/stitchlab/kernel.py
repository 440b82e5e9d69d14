"""Exact rational arithmetic and the primitive geometric vocabulary.

Positions on the circle are exact rationals in full turns.  Chord sets
hold them as int32 numerators over one denominator, below 2^31 since
the denominator is capped; products of them are made in int64.
`Fraction` points and chords are their view at the API boundary.  Floating point enters
only where a position is mapped to plane coordinates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

if TYPE_CHECKING:
    import numpy as np

#: Inputs (modulus, multiplier, dance speeds) are capped so that every
#: numerator of a chord set fits int32 and every product of two of them,
#: or of one and a speed, fits int64 far below its limit; vectorized code
#: makes such products in int64, never in the int32 of the rows.
MAX_INPUT = 10**6


def check_input_size(*values: int) -> None:
    """Reject integers whose magnitude exceeds the desk-scale cap."""
    for v in values:
        if abs(v) > MAX_INPUT:
            raise ValueError(f"integer input {brief_int(v)} exceeds the cap {MAX_INPUT}")


def check_size(name: str, value: int) -> None:
    """Reject a size below 1, called by its ``name``, or past the cap."""
    if value < 1:
        raise ValueError(f"{name} must be positive, got {brief_int(value)}")
    check_input_size(value)


def brief_int(v: int) -> str:
    """``v`` in decimal, or, past 20 digits, its sign and digit count, such
    as ``-(401 digits)``, so that an error message stays one short line."""
    n = abs(v)
    if n < 10**20:
        return str(v)
    # a lower bound from the bit length, raised to the exact count; str()
    # would stop at Python's limit on integer-to-text conversion
    digits = int((n.bit_length() - 1) * 0.30102999566)
    while 10**digits <= n:
        digits += 1
    return f"{'-' if v < 0 else '+'}({digits} digits)"


def make_checked(cls, iterable: Iterable):
    """``_make`` of a record whose class checks its fields in ``__new__``:
    through that constructor, so that neither ``_make`` nor ``_replace``
    builds an unchecked record."""
    return cls(*iterable)


def cos_sin(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cosine and sine of each angle of a 1-D float array (radians),
    from `np.cos` and `np.sin`: every plane coordinate that is drawn gets
    its trigonometry here.  numpy may pick its routine by CPU, each within
    1 ULP of the exact value; the drawings' bytes are tested to survive a
    2-ULP change in every value (``tests/test_trig_tolerance.py``)."""
    import numpy as np

    return np.cos(angles), np.sin(angles)


class _CirclePoint(NamedTuple):
    turn: Fraction


class CirclePoint(_CirclePoint):
    """A position on the unit circle, measured in turns, in [0, 1)."""

    __slots__ = ()
    _make = classmethod(make_checked)

    def __new__(cls, turn: Fraction) -> CirclePoint:
        if not (0 <= turn < 1):
            raise ValueError(f"circle position {turn} outside [0, 1)")
        return super().__new__(cls, turn)


class DirectedChord(NamedTuple):
    """An ordered pair of circle points."""

    start: CirclePoint
    end: CirclePoint


class ChordSet:
    """A canonical finite set of directed chords.

    Row ``(x, y)`` of the read-only int32 array ``rows`` is the chord from
    ``x/den`` to ``y/den``; a product of its values must be made in int64.
    Rows are sorted in (start, end) order and unique, and every set is
    built in lowest terms, so ``den`` is minimal and equal sets have equal
    fields.  A set is built from
    :class:`DirectedChord` objects or by `dances.sample`.  Iteration
    yields :class:`DirectedChord` objects.
    """

    __slots__ = ("den", "rows")

    def __init__(self, chords: Iterable[DirectedChord]):
        import numpy as np

        # lowest terms: a prime p dividing den divides some turn's reduced
        # denominator q to its full power in den, so p divides neither that
        # turn's numerator nor den/q, nor their product, its numerator over den
        turns = [t for c in chords for t in (c.start.turn, c.end.turn)]
        den = math.lcm(*(t.denominator for t in turns))
        check_input_size(den)  # keeps the numerators below 2^31
        nums = [t.numerator * (den // t.denominator) for t in turns]
        rows = np.array(nums, dtype=np.int32).reshape(-1, 2)
        self._store(den, np.unique(rows, axis=0))

    @classmethod
    def _from_rows(cls, den: int, rows: np.ndarray) -> ChordSet:
        """The chords ``rows / den``, from an owned int32 array of sorted,
        unique rows in ``[0, den)`` and in lowest terms with ``den``, as
        `dances.sample` builds it.  The set keeps the array and makes it
        read-only, so the caller must not write to it."""
        self = object.__new__(cls)
        self._store(den, rows)
        return self

    def _store(self, den: int, rows: np.ndarray) -> None:
        rows.flags.writeable = False
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ChordSet is immutable")

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[DirectedChord]:
        for x, y in self.rows.tolist():
            yield DirectedChord(CirclePoint(Fraction(x, self.den)),
                                CirclePoint(Fraction(y, self.den)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChordSet):
            return NotImplemented
        return (self.den == other.den and self.rows.shape == other.rows.shape
                and bool((self.rows == other.rows).all()))

    def __hash__(self) -> int:
        return hash((self.den, self.rows.tobytes()))

    def __repr__(self) -> str:
        return f"ChordSet({len(self.rows)} chords)"


def wrap(r: Fraction | int) -> CirclePoint:
    """Reduce a rational position modulo one full turn into [0, 1)."""
    return CirclePoint(Fraction(r) % 1)
