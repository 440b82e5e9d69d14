"""The package's value types are immutable `NamedTuple` records.

Each one keeps the repr, equality, hashing and field order it had as a
frozen dataclass (`VerificationReport` less the `elapsed_s` field that
equality ignored), refuses assignment, and survives pickling.  The five
that check or normalize their fields do it in `__new__`, which `_make`
and `_replace` go through as well.
"""

import pickle
from fractions import Fraction

import pytest

from stitchlab.cycloid import EnvelopeReport, classify
from stitchlab.dances import PlanetDance, Sampling, StitchGraph
from stitchlab.kernel import MAX_INPUT, CirclePoint, DirectedChord, wrap
from stitchlab.oracle import VerificationReport
from stitchlab.overlay import overlay_decompose, predict_family
from stitchlab.render import RenderStyle, render_grid
from stitchlab.torusgeo import natural_alias

RECORDS = [
    (CirclePoint(Fraction(1, 3)), "CirclePoint(turn=Fraction(1, 3))"),
    (DirectedChord(wrap(Fraction(1, 4)), wrap(Fraction(3, 4))),
     "DirectedChord(start=CirclePoint(turn=Fraction(1, 4)), "
     "end=CirclePoint(turn=Fraction(3, 4)))"),
    (PlanetDance(-2, 3), "PlanetDance(alpha=2, beta=-3)"),
    (StitchGraph(10, -4), "StitchGraph(m=10, a=6)"),
    (Sampling(PlanetDance(3, 2), 7),
     "Sampling(dance=PlanetDance(alpha=3, beta=2), rate=7)"),
    (natural_alias(10, 6),
     "AliasAnalysis(m=10, a=6, shortest_vector=(2, 2), "
     "reduced_dance=PlanetDance(alpha=1, beta=1), coset_count=2, "
     "reduced_rate=5, tie=False)"),
    # permuted cosets: coset 1's n = 6 puts it at offset 6/9 = 2/3
    (overlay_decompose(9, 6),
     "OverlayDecomposition(analysis=AliasAnalysis(m=9, a=6, "
     "shortest_vector=(3, 0), reduced_dance=PlanetDance(alpha=1, beta=0), "
     "coset_count=3, reduced_rate=3, tie=False), numerators=(0, 6, 3))"),
    (predict_family(23, 4, "ceiling"),
     "FamilyPrediction(a=6, d=1, dance=PlanetDance(alpha=4, beta=1), "
     "rotation_step=Fraction(1, 3))"),
    (classify(PlanetDance(1, -2)),
     "CycloidSpec(alpha=1, beta=-2, kind='hypocycloid', "
     "fixed_radius=Fraction(3, 1), rolling_radius=Fraction(2, 1))"),
    (EnvelopeReport(3, 0.0, 0.0, 1),
     "EnvelopeReport(samples=3, max_line_distance=0.0, "
     "max_parallelism_defect=0.0, skipped_degenerate=1)"),
    (RenderStyle(), "RenderStyle(canvas_px=800, show_points=False, extend_lines=False)"),
    (render_grid(20, 2, "floor", RenderStyle(100))[0],
     "GridCell(b=2, r=1, m=19, a=9, style=RenderStyle(canvas_px=100, "
     "show_points=False, extend_lines=False))"),
    # sent from the forked verify process over a pipe, so pickling matters
    (VerificationReport("cusp_count", 2, (("<1,2>", "1", "0"),), ("a note",)),
     "VerificationReport(suite='cusp_count', cases_run=2, "
     "failures=(('<1,2>', '1', '0'),), info=('a note',))"),
]


@pytest.mark.parametrize("record, text", RECORDS,
                         ids=[type(record).__name__ for record, _ in RECORDS])
def test_record_contract(record, text):
    assert repr(record) == text
    fields = tuple(getattr(record, name) for name in record._fields)
    # equal records from equal fields, hashed as the tuple of their fields
    twin = type(record)._make(fields)
    assert type(twin) is type(record)
    assert twin == record and hash(twin) == hash(record) == hash(fields)
    assert record._replace() == record
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], fields[0])
    with pytest.raises(AttributeError):
        record.note = "no instance dictionary"
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record


def test_records_differ_by_any_field():
    dance = PlanetDance(3, 2)
    assert dance != PlanetDance(3, 1) and dance != PlanetDance(2, 2)
    assert Sampling(dance, 7) != Sampling(dance, 8)
    assert StitchGraph(10, 3) == StitchGraph(10, 13) != StitchGraph(11, 3)
    # a record is a tuple of its fields, and compares as one
    assert PlanetDance(1, 2) == (1, 2)


def test_points_and_chords_order_by_their_fields():
    a, b, c = (wrap(Fraction(k, 5)) for k in (0, 1, 3))
    assert a < b < c and sorted([c, a, b]) == [a, b, c]
    chords = [DirectedChord(b, a), DirectedChord(a, c), DirectedChord(a, b)]
    assert sorted(chords) == [DirectedChord(a, b), DirectedChord(a, c),
                              DirectedChord(b, a)]
    assert DirectedChord(a, c) < DirectedChord(b, a)


def test_checked_records_check_and_normalize_through_replace():
    dance = PlanetDance(3, 2)
    assert dance._replace(alpha=-5) == PlanetDance(5, -2)
    assert PlanetDance._make((0, -1)) == PlanetDance(0, 1)
    with pytest.raises(ValueError):
        dance._replace(beta=MAX_INPUT + 1)
    graph = StitchGraph(10, 3)
    assert graph._replace(a=-1).a == 9 and StitchGraph._make((4, 9)).a == 1
    with pytest.raises(ValueError):
        graph._replace(m=0)
    with pytest.raises(ValueError):
        graph._replace(a=-MAX_INPUT - 1)
    sampling = Sampling(dance, 7)
    for rate in (0, MAX_INPUT + 1):
        with pytest.raises(ValueError):
            sampling._replace(rate=rate)
    point = CirclePoint(Fraction(1, 3))
    for turn in (Fraction(1), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            point._replace(turn=turn)
        with pytest.raises(ValueError):
            CirclePoint._make((turn,))
    style = RenderStyle()
    assert style._replace(extend_lines=True) == RenderStyle(800, False, True)
    for canvas in (80, MAX_INPUT + 1):
        with pytest.raises(ValueError):
            style._replace(canvas_px=canvas)
        with pytest.raises(ValueError):
            RenderStyle._make((canvas, False, False))
