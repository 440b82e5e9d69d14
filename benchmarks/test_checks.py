"""Tests of the benchmark's output checkers and input generator.

Run with `python3 -m pytest benchmarks` from the repository root.  Each
checker must accept the program's real output and reject a deliberately
corrupted copy of it, so that no check is vacuous.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import inputs

SRC = Path(__file__).resolve().parent.parent / "src"


def cli(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "STITCHLAB_CANVAS_PX"}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, "-m", "stitchlab.cli", *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


def drop_first(svg: str, tag: str) -> str:
    return re.sub(rf"<{tag} [^>]*/>\n", "", svg, count=1)


def shift_first_x1(svg: str) -> str:
    def bump(match):
        return f'x1="{float(match.group(1)) + 0.001:.6f}"'
    return re.sub(r'x1="([-\d.]+)"', bump, svg, count=1)


@pytest.fixture(scope="module")
def stitch_svg(tmp_path_factory):
    out = tmp_path_factory.mktemp("stitch") / "s.svg"
    assert cli("stitch", "-m", "60", "-a", "7", "-o", str(out), cwd=out.parent).returncode == 0
    return out.read_text()


def test_stitch_accepts_real_output(stitch_svg):
    assert checks.check_stitch_svg(stitch_svg, 60, 7) == []
    assert checks.count_marks(stitch_svg) == 60


def test_stitch_rejects_dropped_line(stitch_svg):
    assert checks.check_stitch_svg(drop_first(stitch_svg, "line"), 60, 7)


def test_stitch_rejects_shifted_endpoint(stitch_svg):
    assert checks.check_stitch_svg(shift_first_x1(stitch_svg), 60, 7)


def test_stitch_rejects_other_multiplier(stitch_svg):
    assert checks.check_stitch_svg(stitch_svg, 60, 13)


@pytest.mark.parametrize("alpha,beta", [(3, 2), (5, -3)])
def test_dance_checker(tmp_path, alpha, beta):
    out = tmp_path / "d.svg"
    assert cli("dance", "-a", str(alpha), "-b", str(beta), "-n", "90", "-o", str(out),
               cwd=tmp_path).returncode == 0
    svg = out.read_text()
    assert checks.check_dance_svg(svg, alpha, beta, 90) == []
    assert checks.check_dance_svg(drop_first(svg, "line"), alpha, beta, 90)
    bent = re.sub(r'points="([-\d.]+),', lambda mt: f'points="{float(mt.group(1)) + 0.01:.6f},',
                  svg, count=1)
    assert checks.check_dance_svg(bent, alpha, beta, 90)


def test_grid_checker(tmp_path):
    out = tmp_path / "grid"
    assert cli("grid", "-m", "50", "-B", "4", "-o", str(out), cwd=tmp_path).returncode == 0
    assert checks.check_grid(out, 50, 4) == []
    assert checks.check_grid(out, 50, 5)  # cells for b = 5 are missing
    cell = sorted(out.glob("b3_*.svg"))[0]
    cell.write_text(drop_first(cell.read_text(), "line"))
    assert checks.check_grid(out, 50, 4)


def test_gallery_checker(tmp_path):
    out = tmp_path / "gal"
    assert cli("gallery", "--only", "30,7", "-o", str(out), cwd=tmp_path).returncode == 0
    assert checks.check_gallery(out, [(30, 7)]) == []
    assert checks.check_gallery(out, [(30, 7), (50, 25)])
    svg = out / "mmt_30_7.svg"
    text = svg.read_text()
    last_chord = text.rindex("<line ")
    svg.write_text(text[:last_chord] + text[text.index("\n", last_chord) + 1:])
    assert checks.check_gallery(out, [(30, 7)])
    svg.write_text(drop_first(text, 'circle cx="[-\\d.]+" cy="[-\\d.]+" r="2.000000"'))
    assert checks.check_gallery(out, [(30, 7)])


def analyze(m: int, a: int, cwd: Path) -> dict:
    done = cli("analyze", "-m", str(m), "-a", str(a), "--json", cwd=cwd)
    assert done.returncode == 0
    return json.loads(done.stdout)


@pytest.mark.parametrize("m,a", [(206, 35), (207, 35), (9, 6), (1000, 167), (97, 96)])
def test_analyze_accepts_real_reports(tmp_path, m, a):
    assert checks.check_analyze(analyze(m, a, tmp_path), m, a) == ([], [])


def test_analyze_rejects_wrong_d(tmp_path):
    report = analyze(206, 35, tmp_path)
    report["d"] = 1
    assert checks.check_analyze(report, 206, 35)[0]


def test_analyze_rejects_wrong_rotation(tmp_path):
    report = analyze(206, 35, tmp_path)
    report["cosets"][1]["rotation"] = "1/3"
    assert checks.check_analyze(report, 206, 35)[0]


def test_analyze_rejects_wrong_offset_and_vector(tmp_path):
    report = analyze(207, 35, tmp_path)
    report["cosets"][1]["line_offset"] = report["cosets"][2]["line_offset"]
    assert checks.check_analyze(report, 207, 35)[0]
    report = analyze(207, 35, tmp_path)
    report["shortest_vector"] = [1, 35]
    assert checks.check_analyze(report, 207, 35)[0]


def test_analyze_rejects_wrong_envelope(tmp_path):
    report = analyze(206, 35, tmp_path)
    report["envelope"]["kind"] = "hypocycloid"
    assert checks.check_analyze(report, 206, 35)[0]
    report = analyze(206, 35, tmp_path)
    report["envelope"]["cusps"] += 1
    assert checks.check_analyze(report, 206, 35)[0]


def test_analyze_names_diagonal_fault(tmp_path):
    problems, faults = checks.check_analyze(analyze(10, 6, tmp_path), 10, 6)
    assert problems == []
    assert len(faults) == 1 and checks.DIAGONAL_FAULT in faults[0]


def test_analyze_accepts_diagonal_reported_as_non_cycloid(tmp_path):
    report = analyze(10, 6, tmp_path)
    report["envelope"] = {"kind": "diagonal"}
    assert checks.check_analyze(report, 10, 6) == ([], [])


@pytest.fixture(scope="module")
def verify_payload(tmp_path_factory):
    done = cli("verify", "--max-m", "8", "--bound", "2", "--json",
               cwd=tmp_path_factory.mktemp("verify"))
    return done.returncode, json.loads(done.stdout)


def test_verify_accepts_real_output(verify_payload):
    code, payload = verify_payload
    assert checks.check_verify(payload, code, 8, 2) == []
    counts = {r["suite"]: r["cases_run"] for r in payload}
    assert counts == checks.expected_verify_cases(8, 2)


def test_verify_case_counts_at_cli_defaults():
    assert checks.expected_verify_cases(60, 4)["stitch_sampling_correspondence"] == 2650


def test_verify_rejects_missing_suite(verify_payload):
    code, payload = verify_payload
    assert checks.check_verify(payload[1:], code, 8, 2)


def test_verify_rejects_shrunken_cases(verify_payload):
    code, payload = verify_payload
    shrunk = [dict(r) for r in payload]
    shrunk[0]["cases_run"] -= 1
    assert checks.check_verify(shrunk, code, 8, 2)


def test_verify_rejects_failure_and_exit_code(verify_payload):
    code, payload = verify_payload
    failed = [dict(r) for r in payload]
    failed[-1].update(passed=False, failures=[["case", "x", "y"]])
    assert checks.check_verify(failed, 1, 8, 2)
    assert checks.check_verify(payload, 1, 8, 2)


def test_verify_allows_new_suite(verify_payload):
    code, payload = verify_payload
    extra = payload + [{"suite": "new", "cases_run": 1, "passed": True,
                        "failures": [], "info": []}]
    assert checks.check_verify(extra, code, 8, 2) == []


def test_nearest_vectors_brute_force():
    assert checks.nearest_sample_vectors(206, 35) == (52, [(6, 4)])
    assert checks.nearest_sample_vectors(10, 6) == (8, [(2, 2)])


def test_inputs_depend_on_seed_only():
    assert inputs.render_inputs(3) == inputs.render_inputs(3)
    assert inputs.analyze_inputs(3) == inputs.analyze_inputs(3)
    assert inputs.render_inputs(3) != inputs.render_inputs(4)
    assert inputs.analyze_inputs(3)["graphs"] != inputs.analyze_inputs(4)["graphs"]


def test_diagonal_graphs_fixed_and_seeded_graphs_not_diagonal():
    diagonal = inputs.diagonal_graphs()
    assert (10, 6) in diagonal and (1000, 1) in diagonal
    assert all(inputs.is_diagonal(m, a) for m, a in diagonal)
    for seed in range(5):
        spec = inputs.analyze_inputs(seed)
        assert spec["diagonal"] == diagonal
        assert not any(inputs.is_diagonal(m, a) for m, a in spec["graphs"])
        assert [m for m, _ in spec["graphs"]] == [
            m for m, n in zip(inputs.LADDER, inputs.ANALYZE_PER_RUNG) for _ in range(n)]
