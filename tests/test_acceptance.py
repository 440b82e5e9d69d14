"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The exhaustive sweeps delegate to the oracle suites so a single
implementation of each brute-force check backs both the `verify` command
and this gate.  Each line carries the elapsed time against the pinned
budget.
"""

import hashlib
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import _gatelog
from test_byte_pins import _tree_sha

from stitchlab import cli, oracle
from stitchlab.dances import PlanetDance, Sampling, StitchGraph, mmt_chords, sample
from stitchlab.overlay import overlay_decompose


def _gate(num, name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = (f"[criterion {num:02d}] {name}: {status} "
            f"({elapsed:.2f}s / budget {budget:.0f}s"
            + (f"; {detail}" if detail else "") + ")")
    print(line)
    _gatelog.lines.append(line)
    assert ok, f"criterion {num} ({name}) failed: {detail or 'see suite output'}"
    assert elapsed < budget, f"criterion {num} ({name}) over budget: {line}"


def _suite(name, *args):
    start = time.perf_counter()
    report = getattr(oracle, name)(*args)
    return report, time.perf_counter() - start


def test_criterion_01_fundamental_correspondence():
    report, elapsed = _suite("_suite_correspondence", 300)
    _gate(1, "fundamental correspondence m<=300", report.passed, elapsed, 10.0,
          f"{report.cases_run} cases")


def test_criterion_02_mmt_100_34():
    start = time.perf_counter()
    ok = mmt_chords(StitchGraph(100, 34)) == sample(Sampling(PlanetDance(3, 2), 100))
    _gate(2, "MMT(100,34) = 100-sampling of <3,2>", ok,
          time.perf_counter() - start, 1.0)


def test_criterion_03_aliasing_equalities():
    report, elapsed = _suite("_suite_aliasing", 8)
    _gate(3, "aliased samplings agree, speeds in [-8,8]", report.passed,
          elapsed, 30.0, f"{report.cases_run} pairs")


def test_criterion_04_intersection_formula():
    report, elapsed = _suite("_suite_intersections", 8)
    _gate(4, "intersection formula vs brute count", report.passed, elapsed,
          30.0, f"{report.cases_run} pairs")


def test_criterion_05_showcase_decompositions():
    start = time.perf_counter()
    halved = overlay_decompose(206, 35)
    thirds = overlay_decompose(207, 35)
    ok = (
        halved.analysis.reduced_dance == PlanetDance(3, 2)
        and halved.analysis.coset_count == 2
        and set(map(halved.rotation, range(2))) == {Fraction(0), Fraction(1, 2)}
        and thirds.analysis.reduced_dance == PlanetDance(2, 1)
        and thirds.analysis.coset_count == 3
        and set(map(thirds.rotation, range(3)))
        == {Fraction(0), Fraction(1, 3), Fraction(2, 3)}
    )
    _gate(5, "(206,35) and (207,35) decompositions", ok,
          time.perf_counter() - start, 1.0)


def test_criterion_06_shortest_vector_search():
    report, elapsed = _suite("_suite_shortest_vector", 300)
    _gate(6, "shortest vector and tie match brute force m<=300", report.passed,
          elapsed, 30.0, f"{report.cases_run} cases")


def test_criterion_07_overlay_partition():
    report, elapsed = _suite("_suite_overlay", 300)
    _gate(7, "overlay partition and colinearity m<=300", report.passed,
          elapsed, 60.0, f"{report.cases_run} cases")


def test_criterion_08_family_grid_agreement():
    report, elapsed = _suite("_suite_families")
    _gate(8, "ceiling/floor families match decompositions", report.passed,
          elapsed, 10.0, f"{report.cases_run} cells")


def test_criterion_09_envelope_tangency():
    report, elapsed = _suite("_suite_envelope", 6)
    _gate(9, "envelope tangency < 1e-9 at 720 samples", report.passed,
          elapsed, 10.0, f"{report.cases_run} dances")


def test_criterion_10_cusp_counts():
    report, elapsed = _suite("_suite_cusps", 6)
    _gate(10, "degenerate-chord count equals |alpha-beta|", report.passed,
          elapsed, 1.0, f"{report.cases_run} dances")


def test_criterion_11_rendering_determinism(tmp_path, capsys):
    start = time.perf_counter()
    runs = []
    for tag in ("one", "two"):
        base = tmp_path / tag
        base.mkdir()
        assert cli.main(["stitch", "-m", "100", "-a", "34", "--canvas", "200",
                         "-o", str(base / "s.svg")]) == 0
        assert cli.main(["analyze", "-m", "206", "-a", "35", "--json"]) == 0
        analyze = capsys.readouterr().out
        assert cli.main(["grid", "-m", "200", "-B", "9", "--canvas", "120",
                         "-o", str(base / "grid")]) == 0
        assert cli.main(["gallery", "--canvas", "120",
                         "-o", str(base / "gal")]) == 0
        files = {}
        for p in sorted(base.rglob("*")):
            if p.is_file():
                files[str(p.relative_to(base))] = p.read_bytes()
        runs.append((analyze, files))
    grid_svgs = [n for n in runs[0][1] if n.startswith("grid") and
                 n.endswith(".svg")]
    ok = runs[0] == runs[1] and len(grid_svgs) == 36
    _gate(11, "byte-identical rendering; 36-cell grid", ok,
          time.perf_counter() - start, 30.0)


def test_criterion_12_sampling_identities():
    report, elapsed = _suite("_suite_identities", 60)
    _gate(12, "sampling identities, speeds <= 20, m <= 60",
          report.passed and report.cases_run == 71160, elapsed, 2.0,
          f"{report.cases_run} cases")


#: Runs one command, given as its arguments, from a small interpreter and
#: prints the command's wall time, its own peak RSS in KB (`os.wait4`)
#: and its exit code.  On Linux a child's peak RSS starts at the RSS of
#: the process that spawned it, so pytest must not spawn the call itself.
_LAUNCHER = """
import os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(time.perf_counter() - start, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""
#: sha256 of each output, recorded from the per-element `fmt` loops.
BOUNDED_OUTPUTS = {
    ("stitch", "-m", "1000000", "-a", "377"):
        "e45a1f242cc8bef5461bb07ebbbdbca6bf88c7e1190f19bb7d490a9e950a240b",
    ("dance", "-a", "3", "-b", "2", "-n", "1000000"):
        "83221b626dda4d2af0d4121215e71df47d51d338d356c173d979017bdddd349f",
}


def _measured_call(argv, out):
    """Wall seconds, own peak RSS in MB, exit code and output sha256 of one
    CLI call.  A file output is hashed as it is, a directory output as the
    byte pins hash one; the digest is None when the call wrote nothing."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    launched = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, sys.executable, "-m", "stitchlab.cli",
         *argv, "-o", str(out)],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    wall, maxrss_kb, code = launched.stdout.split()
    if out.is_dir():
        digest = _tree_sha(out)
    elif out.exists():
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
    else:
        digest = None
    return float(wall), int(maxrss_kb) / 1024, int(code), digest


def test_criterion_13_bounded_output(tmp_path):
    ok, walls, details = True, [], []
    for argv, digest in BOUNDED_OUTPUTS.items():
        out = tmp_path / "out.svg"
        wall, rss_mb, code, got = _measured_call(argv, out)
        same = code == 0 and got == digest
        out.unlink(missing_ok=True)
        ok = ok and same and rss_mb < 100
        walls.append(wall)
        details.append(f"{argv[0]} {wall:.2f}s {rss_mb:.0f}MB"
                       + ("" if same else " output differs"))
    _gate(13, "stitch and dance at 10^6 byte-identical, under 100 MB", ok,
          max(walls), 10.0, ", ".join(details))


#: sha256 of the `gallery --only 1000000,999999` directory, hashed as the
#: byte pins hash one, recorded from the `Fraction` torus unrolling.
GALLERY_AT_CAP = "a206a7633c6e0225415824fdbedae0b4b88f6cba24e7d898173bc00e173f22de"


def test_criterion_14_bounded_gallery(tmp_path):
    out = tmp_path / "gallery"
    wall, rss_mb, code, got = _measured_call(
        ("gallery", "--only", "1000000,999999"), out)
    same = code == 0 and got == GALLERY_AT_CAP
    shutil.rmtree(out, ignore_errors=True)  # a 296 MB file
    _gate(14, "gallery at 10^6 byte-identical, under 100 MB", same and rss_mb < 100,
          wall, 10.0, f"{rss_mb:.0f}MB" + ("" if same else ", output differs"))
