"""The library surface that `benchmarks/layers.py` times, on tiny inputs.

The traced benchmark run (`benchmarks/run.py --trace 1`) calls these
names with these signatures and swaps `oracle.sample_pairs` and
`cli.overlay_decompose` out at run time, so a change that breaks any of
them fails here instead of only in the benchmark.
"""

from fractions import Fraction

import numpy as np

from stitchlab import cli, oracle
from stitchlab.cycloid import classify, verify_envelope
from stitchlab.dances import (PlanetDance, Sampling, StitchGraph, mmt_chords,
                              sample, sample_pairs)
from stitchlab.kernel import ChordSet, DirectedChord, wrap
from stitchlab.overlay import overlay_decompose
from stitchlab.render import (RenderStyle, render_dance_with_curve,
                              render_gallery_pair, render_grid, render_stitch)
from stitchlab.torusgeo import natural_alias


def test_chord_construction_contract():
    m, a = 12, 5
    prebuilt = [DirectedChord(wrap(Fraction(k, m)), wrap(Fraction(a * k, m)))
                for k in range(m)]
    chords = mmt_chords(StitchGraph(m, a))
    assert ChordSet(prebuilt) == chords
    assert sample(Sampling(PlanetDance(1, a), m)) == chords
    rows = sample_pairs(1, a, m)
    assert rows.dtype == np.int64 and rows.shape == (m, 2)
    assert rows.tolist() == [[k, a * k % m] for k in range(m)]


def test_render_and_analysis_contract(monkeypatch):
    style = RenderStyle(canvas_px=100)
    chords = mmt_chords(StitchGraph(12, 5))
    assert render_stitch(chords, style).data.startswith(b"<svg ")
    assert render_dance_with_curve(PlanetDance(3, 2), 10, style).data
    assert len(render_grid(20, 3, "ceiling", style)) == 3
    assert render_gallery_pair(12, 5, style).data
    assert natural_alias(12, 5).coset_count >= 1
    assert classify(PlanetDance(3, 2)).kind == "epicycloid"
    assert verify_envelope(PlanetDance(3, 2), 20).passed()

    dec = overlay_decompose(206, 35)
    assert len(dec.cosets) == dec.analysis.coset_count == 2
    full = cli.build_report(206, 35)
    stubbed = []
    monkeypatch.setattr(cli, "overlay_decompose",
                        lambda *args: stubbed.append(args) or dec)
    assert cli.build_report(206, 35) == full
    assert stubbed == [(206, 35)]


def test_oracle_sample_pairs_is_swappable(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return sample_pairs(*args)

    assert oracle.sample_pairs is sample_pairs
    monkeypatch.setattr(oracle, "sample_pairs", counted)
    for name, args in [("_suite_aliasing", (1,)), ("_suite_identities", (2,))]:
        assert getattr(oracle, name)(*args).passed
    assert calls
