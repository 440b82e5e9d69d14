"""Per-layer timings for the traced run, taken in process.

Each measurement wraps a call into one stitchlab module's public
functions from the outside, as a span.  Calls that the oracle suites
make into `dances.sample_pairs` are counted and timed by a wrapper that
stands in for it during the suites.  Spans wrap top-level calls
only, so the self time of a layer that calls another is derived by
timing the inner layer on its own with the same inputs: overlay self
time is `overlay_decompose` minus `natural_alias`.  `build_report` self
time is timed with the CLI's `overlay_decompose` standing in with the
decomposition of the same graph, computed just before, because
subtracting two multi-second timings leaves only noise.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction

#: Suites as the acceptance tests call them, with the CLI default bounds
#: (`verify --max-m 60 --bound 4`); `_suite_families` takes no bound.
ORACLE_SUITES = [
    ("_suite_correspondence", (60,)),
    ("_suite_aliasing", (4,)),
    ("_suite_intersections", (4,)),
    ("_suite_identities", (60,)),
    ("_suite_shortest_vector", (60,)),
    ("_suite_overlay", (60,)),
    ("_suite_families", ()),
    ("_suite_envelope", (4,)),
    ("_suite_cusps", (4,)),
]
#: Fresh interpreters started to time the CLI's imports.
IMPORT_REPEATS = 5

_IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import stitchlab.cli\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1)\n"
)


class Layers:
    """Accumulates per-layer metrics while timing calls as spans."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.values: dict[str, float] = defaultdict(float)
        self.units: dict[str, str] = {}

    def call(self, metric: str, fn, *args, **attrs):
        """Run fn(*args) inside a span and add its wall time to metric."""
        with self.tracer.span(metric.rsplit(".", 1)[0], **attrs):
            start = time.perf_counter()
            result = fn(*args)
            elapsed = time.perf_counter() - start
        self.add(metric, elapsed, "s")
        return result

    def add(self, metric: str, value: float, unit: str) -> None:
        self.values[metric] += value
        self.units[metric] = unit

    def per_call(self, metric: str, fn, calls: list[tuple]) -> None:
        """Time a sweep of tiny calls as one span; report microseconds per call."""
        with self.tracer.span(metric.rsplit(".", 1)[0], calls=len(calls)):
            start = time.perf_counter()
            for args in calls:
                fn(*args)
            elapsed = time.perf_counter() - start
        self.add(metric, 1e6 * elapsed / len(calls), "us")

    def metrics(self) -> dict[str, dict]:
        return {name: {"value": self.values[name], "unit": self.units[name]}
                for name in sorted(self.values)}


def measure(tracer, render_in: dict, analyze_in: dict, env: dict) -> dict[str, dict]:
    """Time every layer; returns metrics by name with units."""
    from stitchlab import cli, oracle
    from stitchlab.cycloid import classify, verify_envelope
    from stitchlab.dances import (PlanetDance, Sampling, StitchGraph, mmt_chords,
                                  sample, sample_pairs)
    from stitchlab.kernel import ChordSet, DirectedChord, wrap
    from stitchlab.overlay import overlay_decompose
    from stitchlab.render import (RenderStyle, render_dance_with_curve,
                                  render_gallery_pair, render_grid, render_stitch)
    from stitchlab.torusgeo import natural_alias

    lay = Layers(tracer)
    style = RenderStyle()

    # chord construction and SVG emission on the stitch ladder
    for m, a in render_in["stitch"]:
        prebuilt = [DirectedChord(wrap(Fraction(k, m)), wrap(Fraction(a * k, m)))
                    for k in range(m)]
        lay.call("kernel.chordset.s", ChordSet, prebuilt, m=m, a=a)
        del prebuilt
        chords = lay.call("dances.mmt_chords.s", mmt_chords, StitchGraph(m, a), m=m, a=a)
        doc = lay.call("render.render_stitch.s", render_stitch, chords, style, m=m, a=a)
        lay.add("render.bytes", len(doc.data), "bytes")
        del chords, doc
        lay.call("dances.sample.s", sample, Sampling(PlanetDance(1, a), m), m=m, a=a)

    lay.per_call("torusgeo.natural_alias.us_per_call", natural_alias,
                 [(m, a) for m in range(1, 151) for a in range(m)])

    # analysis on the analyze workload's graphs; build_report's self time
    # is taken with the CLI's overlay_decompose answering from the
    # decomposition just computed
    graphs = analyze_in["graphs"] + analyze_in["diagonal"]
    for m, a in graphs:
        lay.call("torusgeo.natural_alias.s", natural_alias, m, a, m=m, a=a)
        dec = lay.call("overlay.overlay_decompose.s", overlay_decompose, m, a, m=m, a=a)
        cli.overlay_decompose = lambda *_: dec
        try:
            lay.call("cli.build_report.self_s", cli.build_report, m, a, m=m, a=a,
                     stub="overlay_decompose")
        finally:
            cli.overlay_decompose = overlay_decompose
        del dec
        lay.call("cli.build_report.s", cli.build_report, m, a, m=m, a=a)
    lay.add("overlay.overlay_decompose.self_s",
            lay.values["overlay.overlay_decompose.s"]
            - lay.values.pop("torusgeo.natural_alias.s"), "s")

    dances = [PlanetDance(al, be) for al in range(1, 31) for be in range(-30, 31)]
    lay.per_call("cycloid.classify.us_per_call", classify, [(d,) for d in dances])
    envelope_inputs = [(PlanetDance(al, be), 720) for al in range(1, 7)
                       for be in range(-6, 7) if al + be != 0 and al != be]
    envelope_inputs += [(PlanetDance(al, be), render_in["rate"])
                        for al, be in render_in["dances"]]
    for d, n in envelope_inputs:
        lay.call("cycloid.verify_envelope.s", verify_envelope, d, n,
                 alpha=d.alpha, beta=d.beta, n=n)

    for al, be in render_in["dances"]:
        lay.call("render.render_dance_with_curve.s", render_dance_with_curve,
                 PlanetDance(al, be), render_in["rate"], style, alpha=al, beta=be)
    m_target, b_max = render_in["grid"]
    lay.call("render.render_grid.s", render_grid, m_target, b_max, "ceiling", style)
    for m, a in render_in["gallery"]:
        lay.call("render.render_gallery_pair.s", render_gallery_pair, m, a, style,
                 m=m, a=a)

    # verify's suites; their calls into dances.sample_pairs are counted
    # and timed by a wrapper for the duration of the sweep
    pairs_s, pairs_calls = 0.0, 0

    def counted_sample_pairs(*args):
        nonlocal pairs_s, pairs_calls
        start = time.perf_counter()
        try:
            return sample_pairs(*args)
        finally:
            pairs_s += time.perf_counter() - start
            pairs_calls += 1

    oracle.sample_pairs = counted_sample_pairs
    try:
        for name, args in ORACLE_SUITES:
            with tracer.span(f"oracle.{name}"):
                start = time.perf_counter()
                report = getattr(oracle, name)(*args)
                elapsed = time.perf_counter() - start
            lay.add(f"oracle.{report.suite}.s", elapsed, "s")
            lay.add(f"oracle.{report.suite}.cases", report.cases_run, "count")
    finally:
        oracle.sample_pairs = sample_pairs
    lay.add("dances.sample_pairs.s", pairs_s, "s")
    lay.add("dances.sample_pairs.calls", pairs_calls, "count")

    numpy_s, rest_s = [], []
    for _ in range(IMPORT_REPEATS):
        with tracer.span("cli.import"):
            out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                                 capture_output=True, text=True, check=True).stdout
        t_numpy, t_rest = map(float, out.split())
        numpy_s.append(t_numpy)
        rest_s.append(t_rest)
    lay.add("cli.import_numpy.s", statistics.median(numpy_s), "s")
    lay.add("cli.import_rest.s", statistics.median(rest_s), "s")
    return lay.metrics()
