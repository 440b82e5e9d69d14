"""Benchmark of the stitchlab CLI, end to end and per layer.

Usage, from the repository root:

    python3 benchmarks/run.py --workload render --seed 1 --seconds 20 --trace 0

Each run times `python -m stitchlab.cli` subprocesses (with
PYTHONPATH=src) over the workload's seeded inputs, repeating whole
passes until the measured time comes nearest to --seconds, and checks
every output with the independent checkers in checks.py.  With --trace 1 the
run makes one untraced and one traced pass, then times each module's
public functions in process (layers.py).  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.  A full record
of the run goes to .bench_out/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import checks
import inputs
import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: `--help` calls for setup_s, all at the start of a run, before any
#: pass has written files: untimed ones (the first may compile
#: bytecode), then timed ones.
SETUP_WARMUP = 1
SETUP_REPEATS = 9
WORKLOADS = ("render", "analyze", "verify")
#: What `verify` is run with: the CLI defaults.
VERIFY_BOUNDS = (60, 4)


class Tracer:
    """Spans (name, start, end, parent) kept in memory until the run ends."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter() - self.t0, "end": None, **attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.t0
            self._open.pop()


class NoTracer:
    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        yield None


@dataclass
class Op:
    """One CLI invocation of a workload pass."""

    label: str
    args: list[str]
    kind: str
    params: dict
    output: str | None = None  # file or directory name passed with -o
    largest: bool = False


@dataclass
class Call:
    op: Op
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: bytes
    path: Path | None


@dataclass
class Pass:
    calls: list[Call] = field(default_factory=list)
    wall_s: float = 0.0


def workload_ops(workload: str, seed: int) -> list[Op]:
    if workload == "render":
        spec = inputs.render_inputs(seed)
        top = max(m for m, _ in spec["stitch"])
        ops = [Op(f"stitch MMT({m},{a})", ["stitch", "-m", str(m), "-a", str(a)],
                  "stitch", {"m": m, "a": a}, f"stitch_{m}_{a}.svg", m == top)
               for m, a in spec["stitch"]]
        n = spec["rate"]
        ops += [Op(f"dance <{al},{be}> n={n}",
                   ["dance", "-a", str(al), "-b", str(be), "-n", str(n)],
                   "dance", {"alpha": al, "beta": be, "n": n}, f"dance_{al}_{be}.svg")
                for al, be in spec["dances"]]
        m_target, b_max = spec["grid"]
        ops.append(Op(f"grid -m {m_target} -B {b_max}",
                      ["grid", "-m", str(m_target), "-B", str(b_max)], "grid",
                      {"m_target": m_target, "b_max": b_max}, "grid"))
        ops.append(Op("gallery", ["gallery"], "gallery",
                      {"pairs": spec["gallery"]}, "gallery"))
        return ops
    if workload == "analyze":
        spec = inputs.analyze_inputs(seed)
        top = max(m for m, _ in spec["graphs"])
        return [Op(f"analyze MMT({m},{a})", ["analyze", "-m", str(m), "-a", str(a), "--json"],
                   "analyze", {"m": m, "a": a}, largest=m == top)
                for m, a in spec["graphs"] + spec["diagonal"]]
    max_m, bound = VERIFY_BOUNDS
    return [Op("verify", ["verify", "--json"], "verify",
               {"max_m": max_m, "bound": bound}, largest=True)]


#: Child processes start from this small launcher: on Linux a child's
#: peak RSS includes the RSS of the process that spawned it, and the
#: benchmark's own process holds numpy and the checkers.
_LAUNCHER = """
import json, os, subprocess, sys, time
for line in sys.stdin:
    job = json.loads(line)
    with open(job["out"], "wb") as out, open(job["err"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(job["argv"], stdout=out, stderr=err,
                                cwd=job["cwd"], env=job["env"])
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([wall, usage.ru_maxrss, proc.returncode]), flush=True)
"""


class Cli:
    """Runs the CLI from source as child processes of one launcher."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("STITCHLAB_CANVAS_PX", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(SRC)
        self.launcher = subprocess.Popen([sys.executable, "-c", _LAUNCHER],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         text=True)

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.stdout.close()
        self.launcher.wait()

    def run(self, args: list[str], out_dir: Path, tag: str) -> tuple[float, float, int, bytes]:
        """Wall seconds, peak RSS in MB (from the child's own rusage),
        exit code and stdout of one invocation."""
        out_path = out_dir / f"{tag}.out"
        job = {"argv": [sys.executable, "-m", "stitchlab.cli", *args],
               "out": str(out_path), "err": str(out_dir / f"{tag}.err"),
               "cwd": str(self.workdir), "env": self.env}
        self.launcher.stdin.write(json.dumps(job) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the process launcher exited")
        wall, maxrss_kb, code = json.loads(reply)
        return wall, maxrss_kb / 1024.0, code, out_path.read_bytes()

    def setup_s(self, repeats: int) -> list[float]:
        """Wall times of CLI calls that do no work (`--help`)."""
        times = []
        for _ in range(repeats):
            wall, _, code, _ = self.run(["--help"], self.workdir, "help")
            if code != 0:
                raise RuntimeError(f"stitchlab --help exited with {code}")
            times.append(wall)
        return times

    def run_pass(self, ops: list[Op], pass_dir: Path, tracer) -> Pass:
        pass_dir.mkdir(parents=True)
        result = Pass()
        with tracer.span("pass"):
            for i, op in enumerate(ops):
                path = pass_dir / op.output if op.output else None
                args = op.args + (["-o", str(path)] if path else [])
                with tracer.span(f"cli.{op.kind}", label=op.label):
                    wall, rss, code, stdout = self.run(args, pass_dir, f"op{i}")
                result.calls.append(Call(op, wall, rss, code, stdout, path))
                result.wall_s += wall
        return result


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    for p in files:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def check_call(call: Call) -> tuple[list[str], list[str], int]:
    """(problems, known faults, items) for one call.  Items are chord
    marks written, graphs analysed or oracle cases run."""
    op, params = call.op, call.op.params
    if op.kind != "verify" and call.returncode != 0:
        return [f"{op.label}: exit code {call.returncode}"], [], 0
    if op.kind == "stitch":
        svg = call.path.read_text(encoding="utf-8")
        return checks.check_stitch_svg(svg, params["m"], params["a"]), [], checks.count_marks(svg)
    if op.kind == "dance":
        svg = call.path.read_text(encoding="utf-8")
        problems = checks.check_dance_svg(svg, params["alpha"], params["beta"], params["n"])
        return problems, [], checks.count_marks(svg)
    if op.kind in ("grid", "gallery"):
        if op.kind == "grid":
            problems = checks.check_grid(call.path, params["m_target"], params["b_max"])
        else:
            problems = checks.check_gallery(call.path, params["pairs"])
        marks = sum(checks.count_marks(p.read_text(encoding="utf-8"))
                    for p in call.path.glob("*.svg"))
        return problems, [], marks
    if op.kind == "analyze":
        try:
            report = json.loads(call.stdout)
        except ValueError as exc:
            return [f"{op.label}: output is not JSON ({exc})"], [], 0
        problems, faults = checks.check_analyze(report, params["m"], params["a"])
        return problems, faults, 1
    try:
        payload = json.loads(call.stdout)
    except ValueError as exc:
        return [f"verify: output is not JSON ({exc})"], [], 0
    problems = checks.check_verify(payload, call.returncode, params["max_m"], params["bound"])
    return problems, [], checks.cases_run(payload)


@dataclass
class Verdicts:
    """Check results of all passes of a run."""

    problems: list[str] = field(default_factory=list)
    failed_cases: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    items_per_pass: list[int] = field(default_factory=list)
    first: dict = field(default_factory=dict)  # op index -> (digest, faults, items)

    def add_pass(self, p: Pass) -> None:
        """Check the first pass in full; later passes must repeat its
        bytes, so they inherit its verdicts."""
        items = 0
        for i, call in enumerate(p.calls):
            digest = _digest(call.path) if call.path else hashlib.sha256(call.stdout).hexdigest()
            if i not in self.first:
                problems, faults, n = check_call(call)
                self.problems += problems
                self.first[i] = (digest, faults, n)
            elif self.first[i][0] != digest:
                self.problems.append(f"{call.op.label}: output differs between passes")
            _, faults, n = self.first[i]
            items += n
            self.attempted += 1
            if faults:
                self.failed += 1
                self.failed_cases += [f for f in faults if f not in self.failed_cases]
        self.items_per_pass.append(items)


def _wants_pass(passes: list[Pass], seconds: float) -> bool:
    """Whether one more pass brings the measured time nearer to seconds."""
    measured = sum(p.wall_s for p in passes)
    return measured + measured / len(passes) / 2 < seconds


def end_to_end(passes: list[Pass], verdicts: Verdicts, setup: list[float]) -> dict:
    """Medians over the run's passes (and its `--help` calls)."""
    med = statistics.median
    largest = [next(c.wall_s for c in p.calls if c.op.largest) for p in passes]
    return {
        "setup_s": {"value": med(setup), "unit": "s"},
        "wall_s": {"value": med([p.wall_s for p in passes]), "unit": "s"},
        "largest_call_s": {"value": med(largest), "unit": "s"},
        "peak_rss_mb": {"value": med([max(c.rss_mb for c in p.calls) for p in passes]),
                        "unit": "MB"},
        "items_per_s": {"value": med([n / p.wall_s for n, p in
                                      zip(verdicts.items_per_pass, passes)]),
                        "unit": "items/s"},
    }


def machine() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "platform": platform.platform()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stitchlab" / "cli.py").is_file():
        print(f"run.py: no stitchlab sources under {SRC}", file=sys.stderr)
        return 2

    ops = workload_ops(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    cli = Cli(tmp)
    try:
        cli.setup_s(SETUP_WARMUP)
        setup = cli.setup_s(SETUP_REPEATS)
        verdicts = Verdicts()
        passes: list[Pass] = []
        tracer = Tracer() if args.trace else NoTracer()
        # untraced passes, as many whole ones as come nearest to the
        # measuring time; a traced run makes one, then one traced pass
        while not passes or (not args.trace and _wants_pass(passes, args.seconds)):
            pass_dir = tmp / f"pass{len(passes)}"
            passes.append(cli.run_pass(ops, pass_dir, NoTracer()))
            verdicts.add_pass(passes[-1])
            shutil.rmtree(pass_dir)
        e2e = end_to_end(passes, verdicts, setup)
        result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "machine": machine(),
                  "end_to_end": e2e, "setup_calls_s": setup, "passes": len(passes),
                  "calls": [[{"op": c.op.label, "wall_s": c.wall_s, "rss_mb": c.rss_mb}
                             for c in p.calls] for p in passes]}
        if args.trace:
            traced = cli.run_pass(ops, tmp / "traced", tracer)
            verdicts.add_pass(traced)
            sys.path.insert(0, str(SRC))
            with tracer.span("layers"):
                metrics = layers.measure(tracer, inputs.render_inputs(args.seed),
                                         inputs.analyze_inputs(args.seed), cli.env)
            metrics["bench.trace_overhead.ratio"] = {
                "value": traced.wall_s / passes[0].wall_s, "unit": "ratio"}
            result.update(per_layer=metrics, spans=tracer.spans)
        else:
            metrics = e2e
    finally:
        cli.close()
        shutil.rmtree(tmp, ignore_errors=True)

    correct = not verdicts.problems
    result.update(correct=correct, attempted=verdicts.attempted, failed=verdicts.failed,
                  failed_cases=verdicts.failed_cases, problems=verdicts.problems[:50])
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for problem in verdicts.problems[:20]:
        print(f"run.py: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": verdicts.attempted,
                      "failed": verdicts.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
