"""Tests for the command-line interface."""

import argparse
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_byte_pins import CANVAS, PINS

from stitchlab import cli, oracle
from stitchlab.cycloid import offset_family_radius
from stitchlab.dances import StitchGraph, mmt_chords
from stitchlab.oracle import VerificationReport
from stitchlab.overlay import overlay_decompose
from stitchlab.torusgeo import natural_alias


def run(argv):
    return cli.main(argv)


def test_stitch_writes_svg(tmp_path):
    out = tmp_path / "out.svg"
    assert run(["stitch", "-m", "100", "-a", "34", "-o", str(out)]) == 0
    data = out.read_bytes()
    assert data.startswith(b"<svg ")
    assert data.endswith(b"</svg>\n")


def test_stitch_invalid_modulus(tmp_path, capsys):
    out = tmp_path / "out.svg"
    assert run(["stitch", "-m", "0", "-a", "1", "-o", str(out)]) == 2
    assert "modulus" in capsys.readouterr().err


def test_stitch_unwritable_path(tmp_path):
    out = tmp_path / "no" / "such" / "dir" / "out.svg"
    assert run(["stitch", "-m", "12", "-a", "2", "-o", str(out)]) == 3


def test_bad_flag_exits_2(capsys):
    for text, shown in [("twelve", "'twelve'"),
                        ("x" * 5000, "'xxxxxxxxxxxxxxxxxxxx'... (5000 characters)")]:
        with pytest.raises(SystemExit) as exc:
            run(["stitch", "-m", text, "-a", "2", "-o", "x.svg"])
        assert exc.value.code == 2
        # argparse's usage, then the error with the text shortened
        error = capsys.readouterr().err.splitlines()[-1]
        assert error == f"stitchlab stitch: error: argument -m: not an integer: {shown}"


def test_analyze_json_halved_graph(capsys):
    assert run(["analyze", "-m", "206", "-a", "35", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["d"] == 2
    assert report["natural_dance"] == {"alpha": 3, "beta": 2}
    assert [c["rotation"] for c in report["cosets"]] == ["0/1", "1/2"]
    assert report["shortest_vector"] == [6, 4]


def test_analyze_json_cardioid(capsys):
    assert run(["analyze", "-m", "100", "-a", "2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["natural_dance"] == {"alpha": 1, "beta": 2}
    assert report["envelope"]["kind"] == "epicycloid"
    assert report["envelope"]["cusps"] == 1


def test_analyze_json_axial(capsys):
    assert run(["analyze", "-m", "50", "-a", "25", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["natural_dance"] == {"alpha": 1, "beta": 0}
    assert report["d"] == 2


@pytest.mark.parametrize("m, a, radii", [(10, 6, [1.0, 0.0]), (1000, 1, [1.0])])
def test_analyze_diagonal_alias(m, a, radii, capsys):
    # <1,1> cosets are constant-separation families (dots, diameters),
    # not cycloids
    assert run(["analyze", "-m", str(m), "-a", str(a), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["natural_dance"] == {"alpha": 1, "beta": 1}
    assert report["envelope"] == {"kind": "diagonal", "radii": radii}
    # brute force: every chord line of coset k is radii[k] from the center
    d = len(radii)
    rows = mmt_chords(StitchGraph(m, a)).rows
    cosets = range(len(overlay_decompose(m, a).numerators))
    for k, radius in zip(cosets, radii, strict=True):
        for x, y in rows[k::d].tolist():
            (ax, ay), (bx, by) = [(math.cos(2 * math.pi * turn), math.sin(2 * math.pi * turn))
                                  for turn in (x / m, y / m)]
            if x == y:
                dist = math.hypot(ax, ay)
            else:
                dist = abs(ax * by - ay * bx) / math.hypot(bx - ax, by - ay)
            assert dist == pytest.approx(radius, abs=1e-12)
    assert run(["analyze", "-m", str(m), "-a", str(a)]) == 0
    assert "envelope: diagonal, coset radii 1.000000" in capsys.readouterr().out


def test_diagonal_radii_at_the_text_precision():
    # every diagonal graph with m <= 300 prints each radius as its 6-decimal
    # text form reads, and the three rational radii (Niven) exactly
    exact = {1: 1.0, 2: 0.0, 3: 0.5}  # |cos(pi c)| by the denominator of c
    graphs = 0
    for m in range(1, 301):
        for a in range(m):
            if natural_alias(m, a).reduced_dance != (1, 1):
                continue
            graphs += 1
            dec = overlay_decompose(m, a)
            radii = cli.build_report(m, a)["envelope"]["radii"]
            for k, radius in enumerate(radii):
                c = dec.offset(k)
                assert radius == float(f"{offset_family_radius(c):.6f}"), (m, a, k)
                assert radius == exact.get(c.denominator, radius), (m, a, k)
    assert graphs == 1542


def test_analyze_json_key_order(capsys):
    run(["analyze", "-m", "12", "-a", "5", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert list(report) == [
        "m", "a", "fundamental_dance", "shortest_vector", "natural_dance",
        "tie", "d", "reduced_rate", "cosets", "envelope",
    ]


def test_analyze_text_mode(capsys):
    assert run(["analyze", "-m", "206", "-a", "35"]) == 0
    out = capsys.readouterr().out
    assert "MMT(206,35)" in out
    assert "<3,2>" in out


def test_analyze_text_names_an_envelope_kind_alone(capsys):
    # the natural dance <1,-1> has no curve, cusps or radii to print
    assert run(["analyze", "-m", "10", "-a", "9"]) == 0
    out = capsys.readouterr().out
    assert "  natural dance: <1,-1>\n" in out
    assert out.endswith("\n  envelope: degenerate_diameter\n")


def test_dance_command(tmp_path):
    out = tmp_path / "dance.svg"
    assert run(["dance", "-a", "3", "-b", "2", "-n", "100", "-o", str(out)]) == 0
    assert out.exists()
    assert run(["dance", "-a", "1", "-b", "1", "-n", "0", "-o", str(out)]) == 2


@pytest.mark.parametrize("rate", ["0", "-5"])
def test_dance_rejects_nonpositive_rate(rate, tmp_path, capsys):
    out = tmp_path / "dance.svg"
    assert run(["dance", "-a", "3", "-b", "2", "-n", rate, "-o", str(out)]) == 2
    assert "sampling rate must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_grid_command(tmp_path):
    out = tmp_path / "grid"
    assert run(["grid", "-m", "200", "-B", "9", "--canvas", "120",
                "-o", str(out)]) == 0
    svgs = sorted(p.name for p in out.glob("*.svg"))
    assert len(svgs) == 36
    assert "b6_r3_m201_a34.svg" in svgs
    index = json.loads((out / "index.json").read_text())
    assert len(index["cells"]) == 36
    assert index["kind"] == "ceiling"


def test_grid_bad_bounds(tmp_path):
    assert run(["grid", "-m", "200", "-B", "1", "-o", str(tmp_path)]) == 2


@pytest.mark.parametrize("m, message", [
    ("0", "target modulus must be positive, got 0"),
    ("-7", "target modulus must be positive, got -7"),
    ("2000000", "integer input 2000000 exceeds the cap"),  # the input, not a modulus near it
])
def test_grid_rejects_bad_target(m, message, tmp_path, capsys):
    out = tmp_path / "g"
    assert run(["grid", "-m", m, "-B", "3", "-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("b_max", ["6", "1000000000"])
def test_grid_rejects_too_many_chords(b_max, tmp_path, capsys):
    out = tmp_path / "g"
    assert run(["grid", "-m", "1000000", "-B", b_max, "-o", str(out)]) == 2
    assert "draws more than 10000000 chords" in capsys.readouterr().err
    assert not out.exists()


def test_canvas_default_and_flag(tmp_path):
    out = tmp_path / "out.svg"
    assert run(["stitch", "-m", "12", "-a", "2", "-o", str(out)]) == 0
    assert 'width="800" height="800"' in out.read_text()
    assert run(["stitch", "-m", "12", "-a", "2", "--canvas", "321",
                "-o", str(out)]) == 0
    assert 'width="321" height="321"' in out.read_text()


@pytest.mark.parametrize("canvas", ["1", "80", "0", "-5"])
def test_canvas_inside_margins_rejected(canvas, tmp_path, capsys):
    # a canvas no wider than its two 40 px margins has a negative radius
    out = tmp_path / "out.svg"
    for argv in (["stitch", "-m", "12", "-a", "5"],
                 ["dance", "-a", "3", "-b", "2", "-n", "10"]):
        assert run([*argv, "--canvas", canvas, "-o", str(out)]) == 2
        assert "it must exceed 80" in capsys.readouterr().err
        assert not out.exists()
    assert run(["gallery", "--canvas", canvas, "-o", str(tmp_path / "gal")]) == 2
    assert not (tmp_path / "gal").exists()


#: A small input for each drawing command, drawn once per flag setting.
DRAWING_INPUTS = {
    "stitch": ["-m", "12", "-a", "5"],
    "dance": ["-a", "3", "-b", "2", "-n", "30"],
    "grid": ["-m", "20", "-B", "3"],
    "gallery": ["--only", "12,5"],
}


def _drawn(tmp_path, argv):
    """The bytes a drawing command writes to a new path: its file, or its
    directory's files in path order."""
    out = tmp_path / str(len(list(tmp_path.iterdir())))
    assert run([*argv, "--canvas", "160", "-o", str(out)]) == 0
    if out.is_file():
        return out.read_bytes()
    return b"".join(str(p.relative_to(out)).encode() + p.read_bytes()
                    for p in sorted(out.rglob("*")))


def test_every_drawing_flag_changes_the_output(tmp_path):
    # a store_true flag that a command registers but never reads is dead
    commands = next(action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    checked = []
    for name, argv in DRAWING_INPUTS.items():
        plain = _drawn(tmp_path, [name, *argv])
        for action in commands[name]._actions:
            if isinstance(action, argparse._StoreTrueAction):
                flag = action.option_strings[0]
                assert _drawn(tmp_path, [name, *argv, flag]) != plain, (name, flag)
                checked.append(f"{name} {flag}")
    assert checked == ["stitch --points", "stitch --extend", "dance --extend",
                       "grid --points", "grid --extend", "gallery --extend"]


@pytest.mark.parametrize("command", ["dance", "gallery"])
def test_points_only_where_drawn(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run([command, *DRAWING_INPUTS[command], "--points",
             "-o", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --points" in capsys.readouterr().err


def test_every_int_option_rejects_a_huge_value(tmp_path, capsys):
    # an integer beyond every cap, of either sign, exits 2 with a one-line
    # message that does not echo its digits, before any output; 5001 digits
    # are past the 4300 that int() reads
    commands = next(action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    inputs = {**DRAWING_INPUTS, "analyze": ["-m", "12", "-a", "5"],
              "verify": ["--max-m", "3", "--bound", "1"]}

    def refused(argv, case):
        assert run(argv) == 2, case
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("stitchlab: "), case
        assert err.count("\n") == 1 and len(err) <= 121, (*case, err)
        assert not any(tmp_path.iterdir()), case

    checked = []
    for name, parser in commands.items():
        for action in parser._actions:
            if action.type is not cli._integer:
                continue
            flag = action.option_strings[0]
            for huge in ("1" + "0" * 400, "-1" + "0" * 400, "1" + "0" * 5000, "-1" + "0" * 5000):
                argv = list(inputs[name])
                if flag in argv:
                    argv[argv.index(flag) + 1] = huge
                else:
                    argv += [flag, huge]
                if name in DRAWING_INPUTS:
                    argv += ["-o", str(tmp_path / "out")]
                refused([name, *argv], (name, flag, huge[:2], len(huge)))
            checked.append(f"{name} {flag}")
    assert checked == ["stitch -m", "stitch -a", "stitch --canvas", "analyze -m",
                       "analyze -a", "dance -a", "dance -b", "dance -n",
                       "dance --canvas", "grid -m", "grid -B", "grid --canvas",
                       "gallery --canvas", "verify --max-m", "verify --bound"]
    # text that is no pair is echoed shortened
    refused(["gallery", "--only", "1,2," + "0" * 3000, "-o", str(tmp_path / "out")],
            ("gallery", "--only"))


def test_gallery_only(tmp_path):
    out = tmp_path / "gal"
    assert run(["gallery", "--only", "100,34", "--canvas", "150",
                "-o", str(out)]) == 0
    assert [p.name for p in out.glob("*.svg")] == ["mmt_100_34.svg"]


def test_gallery_default_pairs(tmp_path):
    out = tmp_path / "gal"
    assert run(["gallery", "--canvas", "100", "-o", str(out)]) == 0
    assert len(list(out.glob("*.svg"))) == 8


def test_gallery_bad_pair(tmp_path):
    assert run(["gallery", "--only", "100", "-o", str(tmp_path)]) == 2


def test_gallery_rejected_pair_makes_no_directory(tmp_path, capsys):
    out = tmp_path / "ga"
    assert run(["gallery", "--only", "12,5", "--only", "0,1", "-o", str(out)]) == 2
    assert "modulus must be positive, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_gallery_unwritable_dir(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    assert run(["gallery", "--only", "12,5", "-o", str(blocker)]) == 3


def test_verify_small_bounds(capsys):
    assert run(["verify", "--max-m", "5", "--bound", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_json(capsys):
    assert run(["verify", "--max-m", "2", "--bound", "1", "--json"]) == 0
    first = capsys.readouterr()
    payload = json.loads(first.out)
    assert all(entry["passed"] for entry in payload)
    # per-suite wall times go to stderr, one JSON line per suite, so the
    # stdout report repeats byte for byte
    timings = [json.loads(line) for line in first.err.splitlines()]
    assert [t["suite"] for t in timings] == [e["suite"] for e in payload]
    for t in timings:
        assert isinstance(t["elapsed_s"], float) and t["elapsed_s"] >= 0
    assert run(["verify", "--max-m", "2", "--bound", "1", "--json"]) == 0
    assert capsys.readouterr().out == first.out


@pytest.mark.parametrize("flags, message", [
    (["--max-m", "1000000"], "max_m must be at most 600, got 1000000"),
    (["--max-m", "601"], "max_m must be at most 600, got 601"),
    (["--bound", "13"], "the dance bound must be at most 12, got 13"),
])
def test_verify_rejects_unbounded_work(flags, message, capsys):
    assert run(["verify", *flags, "--json"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("name, hit, error", [
    # in a whole suite (family_predictions) and in a unit of one modulus
    # (stitch_sampling_correspondence)
    ("predict_family", lambda m, b, kind: b == 5, ValueError("no family at b = 5")),
    ("sample_pairs", lambda alpha, beta, m: m == 3, ZeroDivisionError("no sampling at m = 3")),
])
def test_verify_reports_a_suite_fault_as_a_failure(name, hit, error, monkeypatch, capsys):
    # a fault of the library is no bad argument: exit 1, naming the exception
    real = getattr(oracle, name)

    def faulty(*args):
        if hit(*args):
            raise error
        return real(*args)

    monkeypatch.setattr(oracle, name, faulty)
    assert run(["verify", "--max-m", "5", "--bound", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"stitchlab: verify: {type(error).__name__}: {error}\n"


@pytest.mark.parametrize("unbuffered", [False, True])
def test_verify_json_closed_pipe_is_quiet(unbuffered):
    # the reading end is closed before the child writes, as when a reader
    # like `head` exits early; block-buffered and unbuffered stdout alike
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "stitchlab.cli", "verify", "--max-m", "3",
             "--bound", "1", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == cli.EXIT_IO


#: Runs `verify` with `os.fork` wrapped to record the process's thread
#: count at each fork, and prints the exit code and the counts.
_FORK_THREADS = (
    "import contextlib, io, os\n"
    "from stitchlab import cli\n"
    "threads, fork = [], os.fork\n"
    "def counted():\n"
    "    threads.append(len(os.listdir('/proc/self/task')))\n"
    "    return fork()\n"
    "os.fork = counted\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.main(['verify', '--max-m', '5', '--bound', '1', '--json'])\n"
    "print(code, threads)\n"
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_verify_forks_a_one_thread_process():
    # a fork from a process with more threads may deadlock the child, and
    # Python 3.12 and later warn of it; numpy's OpenBLAS starts a thread
    # at import unless told not to
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", _FORK_THREADS],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.stdout == "0 [1]\n", proc.stderr


#: Runs `cli.main` on the arguments after it and prints the exit code,
#: whether numpy was loaded and the process's thread count at the end.
_END_THREADS = (
    "import contextlib, io, os, sys\n"
    "from stitchlab import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.main(sys.argv[1:])\n"
    "print(code, 'numpy' in sys.modules, len(os.listdir('/proc/self/task')))\n"
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
@pytest.mark.parametrize("argv", [
    ["stitch", "-m", "10", "-a", "3", "-o", "{out}.svg"],
    ["dance", "-a", "3", "-b", "2", "-n", "10", "-o", "{out}.svg"],
    ["grid", "-m", "20", "-B", "2", "-o", "{out}"],
    ["gallery", "--only", "10,3", "-o", "{out}"],
    ["verify", "--max-m", "3", "--bound", "1"],
], ids=lambda argv: argv[0])
def test_every_command_loads_numpy_without_a_blas_thread(tmp_path, argv):
    # main sets OPENBLAS_NUM_THREADS=1 before a command loads numpy, so no
    # idle OpenBLAS thread spins beside the drawing or the suites
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    args = [arg.format(out=tmp_path / "out") for arg in argv]
    proc = subprocess.run([sys.executable, "-c", _END_THREADS, *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.stdout == "0 True 1\n", proc.stderr


def test_verify_reports_injected_fault(monkeypatch, capsys):
    # sabotage one suite and check the nonzero exit plus failure listing
    broken = VerificationReport("shortest_vector", 1,
                                (("(m,a)=(5,2)", "5", "4"),))
    real = oracle.verify_all

    def patched(max_m, bound):
        pairs = [(report, seconds) for report, seconds in real(max_m, bound)
                 if report.suite != "shortest_vector"]
        return sorted(pairs + [(broken, 0.0)], key=lambda pair: pair[0].suite)

    monkeypatch.setattr(oracle, "verify_all", patched)
    assert run(["verify", "--max-m", "3", "--bound", "1"]) == 1
    assert "FAIL (m,a)=(5,2)" in capsys.readouterr().out


def test_main_never_freezes_the_collector(tmp_path, capsys):
    frozen = gc.get_freeze_count()
    assert run(["analyze", "-m", "206", "-a", "35"]) == 0
    assert run(["stitch", "-m", "12", "-a", "5", "-o", str(tmp_path / "s.svg")]) == 0
    assert run(["verify", "--max-m", "3", "--bound", "1", "--json"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen


#: Runs the console script's entry point on the given arguments and
#: prints its exit code and whether it froze the collector.
_CONSOLE = (
    "import gc, sys\n"
    "from stitchlab.cli import console\n"
    "sys.argv[0] = 'stitchlab'\n"
    "code = console()\n"
    "print(code, gc.get_freeze_count() > 0)\n"
)


def test_console_script_freezes_and_writes_pinned_bytes(tmp_path):
    out = tmp_path / "s.svg"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _CONSOLE, "stitch", "-m", "100", "-a", "34",
         "--canvas", CANVAS, "-o", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert (proc.stdout, proc.stderr) == ("0 True\n", "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINS["stitch 100 34"]
