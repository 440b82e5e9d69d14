"""Tests for the exact-arithmetic primitives."""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import stitchlab
from stitchlab import dances
from stitchlab.cycloid import verify_envelope
from stitchlab.dances import PlanetDance, Sampling, StitchGraph, mmt_chords, sample
from stitchlab.kernel import (
    MAX_INPUT,
    ChordSet,
    CirclePoint,
    DirectedChord,
    brief_int,
    check_input_size,
    wrap,
)
from stitchlab.render import RenderStyle, render_grid
from stitchlab.torusgeo import natural_alias


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
    chord = DirectedChord(p, p)
    assert chord.start == chord.end
    chord = DirectedChord(p, wrap(0))
    assert chord.start != chord.end


def test_chord_set_canonical():
    a = DirectedChord(wrap(0), wrap(Fraction(1, 2)))
    b = DirectedChord(wrap(Fraction(1, 4)), wrap(Fraction(3, 4)))
    assert ChordSet([a, b]) == ChordSet([b, a, b])
    assert len(ChordSet([a, a, a])) == 1
    assert hash(ChordSet([a, b])) == hash(ChordSet([b, a]))
    # the common denominator is the smallest one: quarters reduce to halves
    halves = sample(Sampling(PlanetDance(0, 2), 4))
    dot = DirectedChord(wrap(0), wrap(0))
    assert halves == ChordSet([a, dot])
    assert (halves.den, halves.rows.tolist()) == (2, [[0, 0], [0, 1]])
    assert list(halves) == [dot, a]


def test_chord_set_compares_only_with_chord_sets():
    chords = mmt_chords(StitchGraph(10, 3))
    assert chords.__eq__(5) is NotImplemented
    assert not chords == 5 and chords != 5
    assert repr(chords) == "ChordSet(10 chords)"


def test_chord_set_immutable():
    s = ChordSet([])
    with pytest.raises(AttributeError):
        s.chords = ()
    with pytest.raises(ValueError):
        ChordSet([DirectedChord(wrap(0), wrap(Fraction(1, 3)))]).rows[0, 1] = 2


def test_builders_keep_the_sample_pairs_array_and_freeze_it(monkeypatch):
    # mmt_chords and sample hand the rows of sample_pairs to the set as made:
    # no copy and no pass over them, and the caller cannot write to them
    made = []
    real = dances.sample_pairs
    monkeypatch.setattr(dances, "sample_pairs",
                        lambda *args: made.append(real(*args)) or made[-1])
    sets = [mmt_chords(StitchGraph(10, 3)), sample(Sampling(PlanetDance(2, 4), 12)),
            sample(Sampling(PlanetDance(3, -1), 7))]
    assert len(made) == len(sets)
    for chords, rows in zip(sets, made):
        assert chords.rows is rows and rows.flags.owndata and not rows.flags.writeable


def test_input_cap():
    check_input_size(MAX_INPUT, -MAX_INPUT)
    with pytest.raises(ValueError):
        check_input_size(MAX_INPUT + 1)
    # a chord set's common denominator is capped like a modulus
    with pytest.raises(ValueError):
        ChordSet([DirectedChord(wrap(0), wrap(Fraction(1, MAX_INPUT + 1)))])


#: The six entry points that refuse a size through `kernel.check_size`,
#: each as a call with that size and the name its refusal gives it.
_SIZE_CHECKED = [
    ("modulus", lambda n: StitchGraph(n, 1)),
    ("modulus", lambda n: dances.sample_pairs(1, 1, n)),
    ("modulus", lambda n: natural_alias(n, 1)),
    ("sampling rate", lambda n: Sampling(PlanetDance(3, 2), n)),
    ("sample count", lambda n: verify_envelope(PlanetDance(3, 2), n)),
    ("target modulus", lambda n: render_grid(n, 3, "ceiling", RenderStyle())),
]


@pytest.mark.parametrize("name, call", _SIZE_CHECKED,
                         ids=[f"{name}-{i}" for i, (name, _) in enumerate(_SIZE_CHECKED)])
def test_size_entry_points_refuse_alike(name, call):
    for size in (0, -1):
        with pytest.raises(ValueError, match=f"^{name} must be positive, got {size}$"):
            call(size)
    with pytest.raises(ValueError,
                       match="^integer input 1000001 exceeds the cap 1000000$"):
        call(MAX_INPUT + 1)


def test_brief_int_counts_digits_of_long_values():
    assert [brief_int(v) for v in (0, -7, 10**20 - 1)] == ["0", "-7", "9" * 20]
    assert brief_int(10**20) == "+(21 digits)"
    assert brief_int(-(10**400)) == "-(401 digits)"
    assert brief_int(10**400 - 1) == "+(400 digits)"
    # past the 4300 digits that str() converts
    assert brief_int(-(10**5000) + 1) == "-(5000 digits)"
    with pytest.raises(ValueError, match=r"^integer input \+\(401 digits\) exceeds"):
        check_input_size(10**400)


#: Every public callable of the package with a parameter annotated `int`,
#: with calls that must raise `ValueError`: each just past a cap on its
#: sizes.  CAP is MAX_INPUT + 1; the oracles' counterparts stop at the
#: largest bounds that `verify_all` takes.
_PAST_CAP = {
    "kernel.check_input_size": ["kernel.check_input_size(CAP)"],
    "kernel.check_size": ["kernel.check_size('modulus', CAP)"],
    "dances.PlanetDance": ["dances.PlanetDance(CAP, 1)", "dances.PlanetDance(1, -CAP)"],
    "dances.StitchGraph": ["dances.StitchGraph(CAP, 1)", "dances.StitchGraph(5, CAP)"],
    "dances.Sampling": ["dances.Sampling(dances.PlanetDance(3, 2), CAP)"],
    "dances.sample_pairs": ["dances.sample_pairs(3, 2, CAP)"],
    "cycloid.verify_envelope": ["cycloid.verify_envelope(dances.PlanetDance(3, 2), CAP)"],
    "torusgeo.natural_alias": ["torusgeo.natural_alias(CAP, 1)",
                               "torusgeo.natural_alias(5, CAP)"],
    "overlay.overlay_decompose": ["overlay.overlay_decompose(CAP, 1)"],
    "overlay.predict_family": ["overlay.predict_family(CAP, 3, 'ceiling')",
                               "overlay.predict_family(5, CAP, 'floor')"],
    "render.RenderStyle": ["render.RenderStyle(CAP)"],
    "render.render_dance_with_curve": [
        "render.render_dance_with_curve(dances.PlanetDance(3, 2), CAP, render.RenderStyle())"],
    "render.render_grid": ["render.render_grid(CAP, 3, 'ceiling', render.RenderStyle())",
                           "render.render_grid(10, CAP, 'ceiling', render.RenderStyle())"],
    "render.render_gallery_pair": ["render.render_gallery_pair(CAP, 1, render.RenderStyle())"],
    "oracle.brute_shortest_vectors": ["oracle.brute_shortest_vectors(oracle._MAX_M + 1)"],
    "oracle.reduced_dances": ["oracle.reduced_dances(oracle._MAX_BOUND + 1)"],
    "oracle.check_bounds": ["oracle.check_bounds(oracle._MAX_M + 1, 1)",
                            "oracle.check_bounds(1, oracle._MAX_BOUND + 1)"],
    "oracle.verify_all": ["oracle.verify_all(oracle._MAX_M + 1, 1)",
                          "oracle.verify_all(1, oracle._MAX_BOUND + 1)"],
    "cli.build_report": ["cli.build_report(CAP, 1)", "cli.build_report(5, CAP)"],
}
#: Those that stay bounded at any size, with calls at HUGE = 10**400 that
#: must return within a second.
_BOUNDED = {
    "kernel.brief_int": ["kernel.brief_int(HUGE)"],
    "kernel.wrap": ["kernel.wrap(HUGE)"],
    "overlay.nearest_congruent": ["overlay.nearest_congruent(HUGE, HUGE, HUGE)"],
    "render.SvgDocument": ["render.SvgDocument(HUGE, HUGE, lambda: iter(())).data"],
}
# Each call runs in one child process under a 1 GiB address-space limit
# and prints what it raised, or "returned", and its seconds.
_LIMITED_CALLS = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from stitchlab import cli, cycloid, dances, kernel, oracle, overlay, render, torusgeo
CAP, HUGE = kernel.MAX_INPUT + 1, 10**400
outcomes = []
for call in json.loads(sys.argv[1]):
    start = time.perf_counter()
    try:
        eval(call)
        outcome = "returned"
    except Exception as exc:
        outcome = type(exc).__name__
    outcomes.append((outcome, time.perf_counter() - start))
print(json.dumps(outcomes))
"""


def _int_callables():
    """The public callables of the package's modules whose signature has a
    parameter annotated `int`, alone or in a union, as "module.name"."""
    found = set()
    for info in pkgutil.iter_modules(stitchlab.__path__):
        module = importlib.import_module(f"stitchlab.{info.name}")
        for name, obj in vars(module).items():
            if (name.startswith("_") or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            try:
                params = inspect.signature(obj).parameters.values()
            except ValueError:  # no signature: an exception class
                continue
            if any("int" in map(str.strip, str(p.annotation).split("|")) for p in params):
                found.add(f"{info.name}.{name}")
    return found


def test_every_sized_callable_refuses_or_stays_bounded():
    assert _int_callables() == set(_PAST_CAP) | set(_BOUNDED)
    calls = [call for table in (_PAST_CAP, _BOUNDED) for calls in table.values()
             for call in calls]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _LIMITED_CALLS, json.dumps(calls)],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    outcomes = dict(zip(calls, json.loads(proc.stdout)))
    for name, past_cap in _PAST_CAP.items():
        for call in past_cap:
            assert outcomes[call][0] == "ValueError", (name, call, outcomes[call])
    for name, bounded in _BOUNDED.items():
        for call in bounded:
            outcome, seconds = outcomes[call]
            assert outcome == "returned" and seconds < 1.0, (name, call, outcome, seconds)
