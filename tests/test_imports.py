"""Import hygiene of the package and its tests.

Every name a stitchlab module or test file imports is used in that file.
No linter ships with the project, so this stdlib-`ast` check stands in
for the unused-import rule.  `__future__` imports are skipped, and names
listed in a module's `__all__` count as used (re-exports).

Every public top-level name of the package is reached from the package
itself: code in another of its top-level statements refers to it, it is
exported in `stitchlab.__all__`, or it is the console script `cli.console`.
A name that only tests call is dead weight in the library.  So is a
public method or property of a public class that no attribute reference
(`.name`) in the package or in `benchmarks/` reads, other than in its
own body: tests do not count, nor does a variable of the same name.

Every parameter of a function or method of the package is read in its
body (`self`, `cls` and the parameters of dunder methods aside): a
parameter that nothing reads is a knob that does nothing.  Nor does a
parameter of a private function (or of a method of a private class) to
which every call in the package passes the same literal or the same
UPPER_CASE name: it is a constant that only looks like a setting.

No package module but `cli` imports `cli` or `argparse`: the library,
the analysis report included, is read without the command line.

No package module makes a BLAS call: no `@` or `@=`, and no attribute
`dot`, `vdot`, `inner`, `matmul`, `tensordot`, `einsum` or `linalg`.
So `cli.main` sets `OPENBLAS_NUM_THREADS=1` at no cost, and no idle
OpenBLAS thread runs beside a command.

Only `SvgDocument` makes a `_RowBuffer`, and no function of the package
takes one as a parameter (annotated with it, or a parameter on which the
function calls a method of the buffer): the buffer is a decision of each
document write, which lays out the blocks that the drawing yields.

No handler that catches everything (bare, `Exception` or
`BaseException`) swallows what it caught: its body raises or reads the
exception it binds, so a fault reaches a caller or a report.

No line of a package module or test file is longer than `MAX_LINE`
characters, and every one of them parses as the oldest Python that
pyproject.toml admits, `OLDEST_PYTHON`.

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


def unreached_members(sources: dict[str, str], readers: list[str]) -> list[str]:
    """`module.Class.member` for each public method or property of a
    public top-level class of `sources` that no attribute reference in
    `sources` or `readers` names, outside the member's own body."""
    trees = {module: ast.parse(source) for module, source in sources.items()}

    def attributes(node):
        return [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)]

    read = [*(a for tree in trees.values() for a in attributes(tree)),
            *(a for source in readers for a in attributes(ast.parse(source)))]
    return sorted(
        f"{module}.{cls.name}.{member.name}"
        for module, tree in trees.items() for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for member in cls.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not member.name.startswith("_")
        and read.count(member.name) == attributes(member).count(member.name)
    )


def test_guard_flags_unreached_members():
    sources = {"a": (
        "class Shape:\n"
        "    def area(self):\n"
        "        return self.area\n"  # its own body does not count
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "    def drawn(self):\n"
        "        return 2\n"
        "    def _hidden(self):\n"
        "        return 3\n"
        "class _Private:\n"
        "    def unread(self):\n"
        "        return 4\n"
        "def main(shape):\n"
        "    size = 5\n"  # a variable of the member's name does not count
        "    return shape.drawn(), size\n"
    )}
    assert unreached_members(sources, []) == ["a.Shape.area", "a.Shape.size"]
    # a reader's attribute reference counts
    assert unreached_members(sources, ["def f(s):\n    return s.size\n"]) == ["a.Shape.area"]


def test_no_test_only_members():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(ROOT.glob("src/stitchlab/*.py"))}
    readers = [p.read_text(encoding="utf-8") for p in sorted(ROOT.glob("benchmarks/*.py"))
               if not p.name.startswith("test_")]
    assert unreached_members(sources, readers) == []


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


def _argument_values(call: ast.Call, positional: list, keyword_only: list,
                     defaults: dict) -> dict:
    """What `call` passes for each parameter it can be matched to, as ast
    nodes: an argument, a keyword or, where the call leaves the parameter
    out, its default.  A positional parameter at or after a starred
    argument, and one that a `**` call may pass, has no entry."""
    starred = next((i for i, arg in enumerate(call.args)
                    if isinstance(arg, ast.Starred)), len(positional))
    keywords = {kw.arg: kw.value for kw in call.keywords}
    out = {}
    for i, param in enumerate(positional + keyword_only):
        name = param.arg
        if starred <= i < len(positional):
            continue
        if i < min(len(call.args), len(positional)):
            out[name] = call.args[i]
        elif name in keywords:
            out[name] = keywords[name]
        elif None not in keywords and name in defaults:
            out[name] = defaults[name]
    return out


def constant_arguments(sources: list[str]) -> list[str]:
    """`function.parameter` for each parameter to which every call in the
    sources passes the same literal or the same UPPER_CASE name: a
    setting that only ever takes one value.

    Functions whose name starts with `_` are checked, and the methods of
    classes whose name starts with `_`, dunders and the first parameter
    of a method aside.  A call is matched to a function by its name or
    attribute; a name defined twice is skipped, as its calls cannot be
    told apart.
    """
    trees = [ast.parse(source) for source in sources]
    methods = {}  # each method's node, by id: whether its class is private
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.ClassDef):
            methods.update((id(f), node.name.startswith("_")) for f in node.body)
    signatures = {}  # name -> (positional, keyword-only, defaults), or None
    for node in (n for tree in trees for n in ast.walk(tree)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                node.name.startswith("__") and node.name.endswith("__")):
            continue
        if not (node.name.startswith("_") or methods.get(id(node), False)):
            continue
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        static = any(getattr(d, "id", None) == "staticmethod"
                     for d in node.decorator_list)
        if id(node) in methods and not static:
            positional = positional[1:]
        defaults = dict(zip([p.arg for p in positional][::-1], args.defaults[::-1]))
        defaults.update((p.arg, d) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d)
        signature = (positional, args.kwonlyargs, defaults)
        signatures[node.name] = None if node.name in signatures else signature
    passed = {}  # (function, parameter) -> the values its calls pass
    for node in (n for tree in trees for n in ast.walk(tree)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if signatures.get(name) is None:
            continue
        for param, value in _argument_values(node, *signatures[name]).items():
            passed.setdefault((name, param), []).append(value)

    def constant(value):
        return (isinstance(value, ast.Constant)
                or isinstance(value, ast.Name) and value.id.isupper())

    return sorted(f"{name}.{param}" for (name, param), values in passed.items()
                  if all(map(constant, values))
                  and len({ast.dump(value) for value in values}) == 1)


def test_guard_flags_constant_arguments():
    source = (
        "RED = 'red'\n"
        "def _paint(x, color, width=1, *, fill=None):\n"
        "    return x, color, width, fill\n"
        "def _plain(x, color):\n"
        "    return x, color\n"
        "def public(color):\n"
        "    return color\n"
        "class _Scene:\n"
        "    def draw(self, shape, size):\n"
        "        return shape, size\n"
        "class Shown:\n"
        "    def show(self, n):\n"
        "        return n\n"
        "def main(scene, pts, c):\n"
        "    _paint(1, RED)\n"
        "    _paint(2, RED, fill=c)\n"
        "    _plain(*pts, 'blue')\n"  # skipped: 'blue' need not be the color
        "    _plain(c, RED)\n"
        "    public(RED), public(RED)\n"
        "    scene.draw(pts, 3)\n"
        "    scene.draw(c, size=3)\n"
        "    Shown().show(4)\n"
    )
    assert constant_arguments([source]) == [
        "_paint.color", "_paint.width", "_plain.color", "draw.size"]
    # a name defined in two sources is skipped
    assert constant_arguments([source, "def _plain(y):\n    return y\n"]) == [
        "_paint.color", "_paint.width", "draw.size"]


def test_no_constant_arguments():
    paths = sorted(ROOT.glob("src/stitchlab/*.py"))
    assert constant_arguments([p.read_text(encoding="utf-8") for p in paths]) == []


def cli_imports(sources: dict[str, str]) -> list[str]:
    """`module: cli` or `module: argparse` for each package module other
    than `cli` that imports that module (or a name from it)."""
    found = set()
    for module, source in sources.items():
        if module == "cli":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = f"{node.module}." if node.module else ""
                names = [node.module or ""] + [base + alias.name for alias in node.names]
            else:
                continue
            for name in names:
                top = name.removeprefix("stitchlab.").split(".")[0]
                if top in ("cli", "argparse"):
                    found.add(f"{module}: {top}")
    return sorted(found)


def test_guard_flags_cli_imports():
    sources = {
        "__init__": "from . import cli\n",
        "oracle": "from .cli import build_report\n",
        "overlay": "from stitchlab import cli\nfrom .cycloid import classify\n",
        "render": "import argparse\nfrom typing import TYPE_CHECKING\n",
        "torusgeo": "def f():\n    from stitchlab.cli import main\n    return main\n",
        "dances": "import stitchlab.cli\nfrom .kernel import wrap\n",
        "kernel": "from argparse import Namespace\n",
        "cli": "import argparse\nfrom .overlay import report\n",
    }
    assert cli_imports(sources) == [
        "__init__: cli", "dances: cli", "kernel: argparse", "oracle: cli", "overlay: cli",
        "render: argparse", "torusgeo: cli"]


def test_only_cli_imports_cli_or_argparse():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(ROOT.glob("src/stitchlab/*.py"))}
    assert cli_imports(sources) == []


#: The attributes through which numpy hands work to its BLAS.
_BLAS = ("dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg")


def blas_calls(source: str) -> list[str]:
    """`line: @` for each `@` or `@=`, and `line: .name` for each
    attribute named in `_BLAS`, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in _BLAS:
            found.append((node.lineno, f".{node.attr}"))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_guard_flags_blas_calls():
    source = (
        "import numpy as np\n"
        "def f(a, b):\n"
        "    dot = a[0] == b[0]  # a local, not numpy's dot\n"
        "    a @= b\n"
        "    return a @ b, np.dot(a, b), a.dot(b), np.vdot(a, b), dot\n"
        "def g(a, b):\n"
        "    return np.inner(a, b), np.matmul(a, b), np.tensordot(a, b, 1)\n"
        "h = np.einsum('i,i', x, x) + np.linalg.norm(x)\n"
    )
    assert blas_calls(source) == [
        "4: @", "5: .dot", "5: .dot", "5: .vdot", "5: @", "7: .inner", "7: .matmul",
        "7: .tensordot", "8: .einsum", "8: .linalg"]


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/stitchlab/*.py")), ids=lambda p: p.name)
def test_no_blas_calls(path):
    # the premise of OPENBLAS_NUM_THREADS=1 in cli.main: with one thread,
    # OpenBLAS would run any such call on one core
    assert blas_calls(path.read_text(encoding="utf-8")) == []


def row_buffer_leaks(sources: list[str]) -> list[str]:
    """`where: _RowBuffer()` for each call that makes a `_RowBuffer`
    outside class `SvgDocument`, and `function.parameter` for each
    parameter that is annotated with `_RowBuffer` or on which its function
    calls a method of the buffer; the buffer's own methods aside."""
    trees = [ast.parse(source) for source in sources]
    methods = {f.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name == "_RowBuffer"
               for f in node.body if isinstance(f, ast.FunctionDef)}
    found = []

    def visit(node, where, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, where, child.name)
                continue
            if (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and owner != "_RowBuffer"):
                args = child.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                          *filter(None, (args.vararg, args.kwarg))]
                used = {n.func.value.id for n in ast.walk(child)
                        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                        and n.func.attr in methods and isinstance(n.func.value, ast.Name)}
                found.extend(f"{child.name}.{p.arg}" for p in params if p.arg in used
                             or p.annotation and "_RowBuffer" in ast.unparse(p.annotation))
                visit(child, child.name, owner)
                continue
            if isinstance(child, ast.Call) and owner != "SvgDocument" and "_RowBuffer" in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                found.append(f"{where}: _RowBuffer()")
            visit(child, where, owner)

    for tree in trees:
        visit(tree, "<module>", None)
    return sorted(found)


def test_guard_flags_row_buffer_leaks():
    # the drawing code as it was when every emitter took the buffer
    source = (
        "class _RowBuffer:\n"
        "    def block(self, n):\n"
        "        return self.text(n)\n"
        "    def text(self, n):\n"
        "        return n\n"
        "class SvgDocument:\n"
        "    def __init__(self, body: Callable[[_RowBuffer], Iterator[bytes]]):\n"
        "        self._body = body\n"
        "    def chunks(self):\n"
        "        yield from self._body(_RowBuffer())\n"
        "def _polyline(rows, xs):\n"
        "    return rows.text(len(xs))\n"
        "class _Scene:\n"
        "    def lines(self, rows: '_RowBuffer', n):\n"
        "        return n\n"
        "def render(xs, buffers):\n"
        "    def body(rows: _RowBuffer):\n"
        "        yield _polyline(rows, xs)\n"
        "    return body, buffers._RowBuffer()\n"
        "SCRATCH = _RowBuffer()\n"
    )
    assert row_buffer_leaks([source]) == [
        "<module>: _RowBuffer()", "__init__.body", "_polyline.rows", "body.rows",
        "lines.rows", "render: _RowBuffer()"]
    # the document making its buffer and laying out blocks in it is fine
    assert row_buffer_leaks([
        "class _RowBuffer:\n"
        "    def element_rows(self, *block):\n"
        "        return block\n"
        "class SvgDocument:\n"
        "    def chunks(self, body):\n"
        "        rows = _RowBuffer()\n"
        "        for part in body():\n"
        "            yield rows.element_rows(*part)\n"
    ]) == []


def test_only_the_document_holds_a_row_buffer():
    paths = sorted(ROOT.glob("src/stitchlab/*.py"))
    assert row_buffer_leaks([p.read_text(encoding="utf-8") for p in paths]) == []


def _catches_all(node: ast.expr | None) -> bool:
    if node is None:  # a bare except
        return True
    types = node.elts if isinstance(node, ast.Tuple) else [node]
    return any(isinstance(t, ast.Name) and t.id in ("Exception", "BaseException")
               for t in types)


def swallowed_exceptions(source: str) -> list[str]:
    """The enclosing function (`<module>` at top level) of each handler
    that catches everything and whose body neither raises nor loads the
    exception it binds."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ExceptHandler) and _catches_all(child.type):
                body = [n for stmt in child.body for n in ast.walk(stmt)]
                if not any(isinstance(n, ast.Raise)
                           or isinstance(n, ast.Name) and n.id == child.name
                           and isinstance(n.ctx, ast.Load) for n in body):
                    found.append(where)
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_guard_flags_swallowed_exceptions():
    source = (
        "try:\n"
        "    import fast\n"
        "except Exception:\n"
        "    fast = None\n"
        "def quiet(f):\n"
        "    try:\n"
        "        return f()\n"
        "    except Exception:  # the fault is lost\n"
        "        return None\n"
        "def bare(f):\n"
        "    try:\n"
        "        f()\n"
        "    except:\n"
        "        pass\n"
        "def bound(f):\n"
        "    try:\n"
        "        f()\n"
        "    except (ValueError, BaseException) as exc:\n"
        "        exc = None\n"
        "def narrow(f):\n"
        "    try:\n"
        "        f()\n"
        "    except ValueError:\n"
        "        pass\n"
        "def reraises(f, g):\n"
        "    try:\n"
        "        f()\n"
        "    except BaseException:\n"
        "        g()\n"
        "        raise\n"
        "def reports(f, out):\n"
        "    try:\n"
        "        f()\n"
        "    except Exception as exc:\n"
        "        out.append(exc)\n"
    )
    assert swallowed_exceptions(source) == ["<module>", "bare", "bound", "quiet"]


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: p.name)
def test_no_swallowed_exceptions(path):
    assert swallowed_exceptions(path.read_text(encoding="utf-8")) == []


#: The longest line a package module or test file may hold.
MAX_LINE = 99


def long_lines(source: str) -> list[int]:
    """The numbers, from 1, of the lines longer than `MAX_LINE` characters."""
    return [number for number, line in enumerate(source.splitlines(), 1)
            if len(line) > MAX_LINE]


def test_guard_flags_long_lines():
    source = "x = 1\n" + "y" * (MAX_LINE + 1) + "\n" + "z" * MAX_LINE + "\n"
    assert long_lines(source) == [2]


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: p.name)
def test_no_long_lines(path):
    assert long_lines(path.read_text(encoding="utf-8")) == []


#: The oldest Python that pyproject.toml's `requires-python` admits.
OLDEST_PYTHON = (3, 10)


def newer_syntax(source: str) -> str | None:
    """Why `source` does not parse as `OLDEST_PYTHON`, or None if it does."""
    try:
        ast.parse(source, feature_version=OLDEST_PYTHON)
    except SyntaxError as exc:
        return f"line {exc.lineno}: {exc.msg}"
    return None


def test_guard_flags_newer_syntax():
    assert newer_syntax("match x:\n    case 1:\n        pass\n") is None
    # `except*` came in 3.11
    assert newer_syntax("try:\n    pass\nexcept* ValueError:\n    pass\n") is not None


def test_oldest_python_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert 'requires-python = ">=%d.%d"' % OLDEST_PYTHON in text


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: p.name)
def test_parses_as_the_oldest_python(path):
    assert newer_syntax(path.read_text(encoding="utf-8")) is None


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
