"""Command-line interface: construct, analyze, verify, and render.

Each command parses its arguments, calls the library and prints or saves
what it returns; `analyze` prints :func:`stitchlab.overlay.report`.
Exit codes: 0 success, 1 verification failure, 2 bad arguments, 3 I/O
error.  The rendering commands take the canvas size from `--canvas`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import TYPE_CHECKING

from .dances import PlanetDance, StitchGraph, mmt_chords
from .overlay import overlay_decompose, report, report_text

if TYPE_CHECKING:
    from .render import RenderStyle

GALLERY_PAIRS = [
    (200, 21), (50, 25), (100, 34), (100, 51),
    (90, 31), (400, 115), (100, 49), (206, 21),
]

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _style(args: argparse.Namespace) -> RenderStyle:
    # render is imported by the commands that draw, here and below, so
    # that analyze and --help do not load the SVG emitter
    from .render import RenderStyle

    return RenderStyle(
        canvas_px=args.canvas,
        show_points=args.points,
        extend_lines=args.extend,
    )


def build_report(m: int, a: int) -> dict:
    """The analysis report of MMT(m, a); see :func:`stitchlab.overlay.report`."""
    return report(overlay_decompose(m, a))


def cmd_stitch(args: argparse.Namespace) -> int:
    from .render import render_stitch

    doc = render_stitch(mmt_chords(StitchGraph(args.m, args.a)), _style(args))
    doc.save(args.out)
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    found = build_report(args.m, args.a)
    print(json.dumps(found, indent=2) if args.json else report_text(found))
    return EXIT_OK


def cmd_dance(args: argparse.Namespace) -> int:
    from .render import render_dance_with_curve

    doc = render_dance_with_curve(
        PlanetDance(args.alpha, args.beta), args.rate, _style(args)
    )
    doc.save(args.out)
    return EXIT_OK


def cmd_grid(args: argparse.Namespace) -> int:
    from .render import render_grid

    cells = render_grid(args.m, args.b_max, args.kind, _style(args))
    os.makedirs(args.out, exist_ok=True)
    index = []
    for cell in cells:
        name = f"b{cell.b}_r{cell.r}_m{cell.m}_a{cell.a}.svg"
        cell.doc.save(os.path.join(args.out, name))
        index.append({"b": cell.b, "r": cell.r, "m": cell.m,
                      "a": cell.a, "file": name})
    with open(os.path.join(args.out, "index.json"), "w", encoding="utf-8") as fh:
        json.dump({"m_target": args.m, "b_max": args.b_max,
                   "kind": args.kind, "cells": index}, fh, indent=2)
        fh.write("\n")
    return EXIT_OK


def _shown(text: str) -> str:
    """``repr(text)``, shortened past 20 characters to the repr of its
    first 20 and its length, as ``brief_int`` shortens integers."""
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}... ({len(text)} characters)"


def _integer(text: str) -> int:
    """``text`` as an integer, for the integer options and gallery pairs.
    A decimal past the 4300 digits ``int`` reads is read in pieces, to be
    refused as too large like any integer past the caps."""
    try:
        return int(text)
    except ValueError:
        digits = text.lstrip("+-")
        if len(text) - len(digits) > 1 or not (digits.isascii() and digits.isdigit()):
            raise argparse.ArgumentTypeError(f"not an integer: {_shown(text)}") from None
    value = _integer(digits[:-4000]) * 10**4000 + int(digits[-4000:])
    return -value if text[0] == "-" else value


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'm,a', got {_shown(text)}")
    return _integer(parts[0]), _integer(parts[1])


def cmd_gallery(args: argparse.Namespace) -> int:
    from .render import render_gallery_pair

    pairs = [_parse_pair(t) for t in args.only] if args.only else GALLERY_PAIRS
    for m, a in pairs:
        StitchGraph(m, a)  # rejects a bad pair before the directory is made
    style = _style(args)
    os.makedirs(args.out, exist_ok=True)
    for m, a in pairs:
        doc = render_gallery_pair(m, a, style)
        doc.save(os.path.join(args.out, f"mmt_{m}_{a}.svg"))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    # imported here: the oracles load numpy, which analyze and --help never need
    from . import oracle

    oracle.check_bounds(args.max_m, args.bound)  # bad arguments exit 2
    try:
        timed = oracle.verify_all(args.max_m, args.bound)
    except Exception as exc:  # a fault in a suite, not in the arguments
        print(f"stitchlab: verify: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    reports = [report for report, _ in timed]
    if args.json:
        payload = [
            {
                "suite": r.suite,
                "cases_run": r.cases_run,
                "passed": r.passed,
                "failures": r.failures,
                "info": r.info,
            }
            for r in reports
        ]
        # flushed now, so a closed stdout ends the command before the
        # timings below reach stderr
        print(json.dumps(payload, indent=2), flush=True)
        # wall times vary run to run, so they stay out of the stdout report
        for r, seconds in timed:
            print(json.dumps({"suite": r.suite, "elapsed_s": seconds}), file=sys.stderr)
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(f"{r.suite}: {r.cases_run} cases, {status}")
            for line in r.info:
                print(f"  note: {line}")
            for case, expected, got in r.failures:
                print(f"  FAIL {case}: expected {expected}, got {got}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY


def _add_style_flags(p: argparse.ArgumentParser, points: bool) -> None:
    p.add_argument("--canvas", type=_integer, default=800,
                   help="canvas size in pixels (default 800)")
    if points:
        p.add_argument("--points", action="store_true",
                       help="mark chord endpoints with dots")
    else:  # dance and gallery draw no endpoint dots
        p.set_defaults(points=False)
    p.add_argument("--extend", action="store_true",
                   help="extend chords to full lines")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stitchlab",
        description="Modular stitch graphs, planet dances, and their aliasing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stitch", help="render one stitch graph as SVG")
    p.add_argument("-m", type=_integer, required=True, help="number of points")
    p.add_argument("-a", type=_integer, required=True, help="multiplier")
    p.add_argument("-o", "--out", required=True, help="output SVG path")
    _add_style_flags(p, points=True)
    p.set_defaults(func=cmd_stitch)

    p = sub.add_parser("analyze", help="alias analysis report for MMT(m,a)")
    p.add_argument("-m", type=_integer, required=True, help="number of points")
    p.add_argument("-a", type=_integer, required=True, help="multiplier")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("dance", help="render a sampled dance with its cycloid")
    p.add_argument("-a", "--alpha", type=_integer, required=True, dest="alpha")
    p.add_argument("-b", "--beta", type=_integer, required=True, dest="beta")
    p.add_argument("-n", "--rate", type=_integer, required=True, dest="rate",
                   help="number of sample chords")
    p.add_argument("-o", "--out", required=True, help="output SVG path")
    _add_style_flags(p, points=False)
    p.set_defaults(func=cmd_dance)

    p = sub.add_parser("grid", help="grid of graphs near a target modulus")
    p.add_argument("-m", type=_integer, required=True, help="target modulus")
    p.add_argument("-B", type=_integer, required=True, dest="b_max",
                   help="largest row index b")
    p.add_argument("--kind", choices=("ceiling", "floor"), default="ceiling")
    p.add_argument("-o", "--out", required=True, help="output directory")
    _add_style_flags(p, points=True)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("gallery", help="render the eight showcase pairs")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.add_argument("--only", action="append", metavar="M,A",
                   help="render only this pair (repeatable)")
    _add_style_flags(p, points=False)
    p.set_defaults(func=cmd_gallery)

    p = sub.add_parser("verify", help="run the brute-force oracle suites")
    p.add_argument("--max-m", type=_integer, default=60, dest="max_m")
    p.add_argument("--bound", type=_integer, default=4)
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    # before numpy loads: no BLAS call is made, so OpenBLAS needs no thread to spin or fork from
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped early: say nothing, and point stdout at
        # devnull so the interpreter's last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"stitchlab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"stitchlab: {exc}", file=sys.stderr)
        return EXIT_IO


def console() -> int:
    """The `stitchlab` script and `python -m stitchlab.cli`: :func:`main`,
    then `gc.freeze()`, so that the exiting interpreter does not walk
    numpy's module cycles to collect them (about 40 ms); :func:`main`
    itself never freezes, since it runs many times in one process."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(console())
