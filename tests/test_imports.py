"""Import hygiene of the package and its tests.

Every name a stitchlab module or test file imports is used in that file.
No linter ships with the project, so this stdlib-`ast` check stands in
for the unused-import rule.  `__future__` imports are skipped, and names
listed in a module's `__all__` count as used (re-exports).

Every public top-level name of the package is reached from the package
itself: code in another of its top-level statements refers to it, it is
exported in `stitchlab.__all__`, or it is the console script `cli.console`.
A name that only tests call is dead weight in the library.

Every parameter of a function or method of the package is read in its
body (`self`, `cls` and the parameters of dunder methods aside): a
parameter that nothing reads is a knob that does nothing.

Paths that build no arrays (`--help`, `analyze`, `import stitchlab`) must
not load numpy, whose import would dominate their start-up time, nor
`dataclasses`, which brings `inspect` and `ast` with it.  Every value
type of the package is a `NamedTuple` record, so no path loads
`dataclasses`, `verify` included.  `verify` shares its suites between
two processes with `os.fork` and pipes, so no path loads
`multiprocessing` or `concurrent.futures` either.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CHECKED = sorted(ROOT.glob("src/stitchlab/*.py")) + sorted(ROOT.glob("tests/*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_guard_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from fractions import Fraction as F\n"
        "from .kernel import wrap, embed\n"
        "__all__ = ['embed']\n"
        "x = math.pi\n"
    )
    assert unused_imports(source) == ["F", "os", "wrap"]


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _defined(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unreached_names(sources: dict[str, str], exempt: set[str]) -> list[str]:
    """`module.name` for each public top-level name that no other top-level
    statement of the modules refers to in code and that is not exempt.

    A reference is a name or an attribute in code, so a mention in a
    docstring or an import does not count; `exempt` holds bare names
    (exports) and `module.name` entries.
    """
    statements = []  # (module, names it defines, names it refers to)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            refs = {n.id if isinstance(n, ast.Name) else n.attr
                    for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}
            statements.append((module, _defined(node), refs))
    return sorted(
        f"{module}.{name}"
        for i, (module, names, _) in enumerate(statements)
        for name in names
        if not name.startswith("_") and not {name, f"{module}.{name}"} & exempt
        and not any(name in refs for j, (_, _, refs) in enumerate(statements) if j != i)
    )


def test_guard_flags_unreached_names():
    sources = {
        "a": (
            "LIMIT = 3\n"
            "def helper(x):\n"
            "    'Not one_off: a docstring mention does not count.'\n"
            "    return x < LIMIT\n"
            "def one_off():\n"
            "    return one_off\n"
            "def main():\n"
            "    return helper(1)\n"
        ),
        "b": "from .a import one_off\nclass Shown:\n    pass\ndef api():\n    pass\n",
    }
    assert unreached_names(sources, {"api", "a.main"}) == ["a.one_off", "b.Shown"]


def test_no_test_only_names():
    paths = sorted(ROOT.glob("src/stitchlab/*.py"))
    sources = {p.stem: p.read_text(encoding="utf-8") for p in paths}
    exports = next(ast.literal_eval(node.value)
                   for node in ast.parse(sources["__init__"]).body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "__all__" for t in node.targets))
    assert unreached_names(sources, set(exports) | {"cli.console"}) == []


def unread_parameters(source: str) -> list[str]:
    """`function.parameter` for each parameter that its function's body
    never loads; `self`, `cls` and dunder methods are exempt."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *filter(None, (args.vararg, args.kwarg))]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"{node.name}.{p.arg}" for p in params
                if p.arg not in ("self", "cls") and p.arg not in read]
    return sorted(out)


def test_guard_flags_unread_parameters():
    source = (
        "def f(x, tol=1e-9, *rest, key, **opts):\n"
        "    tol = 0\n"
        "    return x, key\n"
        "class C:\n"
        "    def __init__(self, unused):\n"
        "        pass\n"
        "    def method(self, n):\n"
        "        def inner(k):\n"
        "            return n\n"
        "        return inner\n"
    )
    assert unread_parameters(source) == ["f.opts", "f.rest", "f.tol", "inner.k"]


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/stitchlab/*.py")),
                         ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


# Each probe runs in a fresh interpreter and prints, as its last line,
# which of the modules that dominate start-up were loaded.  Only commands
# that build arrays may load numpy; none of these paths may load
# `dataclasses` or the `inspect` it imports, nor a process pool.
_HEAVY = ("numpy", "dataclasses", "inspect", "multiprocessing", "concurrent.futures")
_REPORT = f"print(' '.join(name for name in {_HEAVY!r} if name in sys.modules))\n"
_PROBE_MAIN = (
    "import sys\n"
    "from stitchlab.cli import main\n"
    "try:\n"
    "    main(sys.argv[1:])\n"
    "except SystemExit:\n"
    "    pass\n"
) + _REPORT
_PROBE_PACKAGE = (
    "import sys\n"
    "import stitchlab\n"
    "for name in stitchlab.__all__:\n"
    "    getattr(stitchlab, name)\n"
) + _REPORT


def _heavy_loaded(code, *argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["analyze", "-m", "10", "-a", "6"],
    ["analyze", "-m", "1000000", "-a", "1000", "--json"],
], ids=" ".join)
def test_cli_path_does_not_load_numpy(argv):
    assert _heavy_loaded(_PROBE_MAIN, *argv) == []


def test_package_import_does_not_load_numpy():
    # resolving every public name must not load them either
    assert _heavy_loaded(_PROBE_PACKAGE) == []


def test_verify_does_not_load_dataclasses():
    # verify needs numpy, and numpy imports inspect, but no record of the
    # oracles is a dataclass, and its two processes need no pool
    loaded = _heavy_loaded(_PROBE_MAIN, "verify", "--max-m", "1", "--bound", "1")
    assert "numpy" in loaded
    assert not {"dataclasses", "multiprocessing", "concurrent.futures"} & set(loaded)


def test_probe_sees_numpy_when_a_command_loads_it(tmp_path):
    out = tmp_path / "out.svg"
    assert "numpy" in _heavy_loaded(_PROBE_MAIN, "stitch", "-m", "10", "-a", "3",
                                    "-o", str(out))
    assert out.exists()
