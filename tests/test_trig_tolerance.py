"""The drawings' bytes do not depend on the last bits of the trigonometry.

`kernel.cos_sin` gives every drawn coordinate its cosine and sine, from
`np.cos` and `np.sin`, and numpy may pick a different routine per CPU.
numpy's own accuracy data (`umath-validation-set-{cos,sin}.csv` in its
test data) allows 1 ULP for float64, so any two routines that pass it
differ by at most 2 ULP in any value.  These tests wrap `cos_sin` in both
modules that draw with it (`render` and `cycloid`), move every value it
returns by up to K = 2 ULP, and require every drawing pin of
`test_byte_pins`, the golden SVG and the outputs at 10^6 of acceptance
criteria 13 and 14 to keep their sha256.  Moves of 2^20 ULP must change
a digest, which shows that the wrapper reaches the output.
"""

import hashlib
import os
import shutil

import numpy as np
import pytest
from test_acceptance import BOUNDED_OUTPUTS, GALLERY_AT_CAP
from test_byte_pins import PINS, _tree_sha, output_digest

from stitchlab import cli, cycloid, kernel, render
from stitchlab.dances import StitchGraph, mmt_chords
from stitchlab.render import RenderStyle, render_stitch

K = 2
SEED = 20261019
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "mmt_100_34.svg")
DRAWINGS = sorted(name for name in PINS
                  if name.split()[0] in ("stitch", "dance", "grid", "gallery"))
#: ULP steps per value returned by `cos_sin`, given the value count and
#: the test's seeded generator
PATTERNS = {
    "up": lambda n, rng: np.full(n, K),
    "down": lambda n, rng: np.full(n, -K),
    "mix": lambda n, rng: rng.integers(-K, K, n, endpoint=True),
}

_SIGN = np.int64(-1 << 63)
_MAGNITUDE = np.int64((1 << 63) - 1)


def _moved(values, steps):
    """Finite floats `values` moved by `steps` ULP each, up for steps > 0:
    the float64 bit patterns are mapped to integers that count ULPs in
    value order (+0.0 and -0.0 both to 0), shifted, and mapped back."""
    bits = values.view(np.int64)
    key = np.where(bits < 0, -(bits & _MAGNITUDE), bits) + steps
    return np.where(key < 0, -key | _SIGN, key).view(np.float64)


def _perturb(monkeypatch, steps):
    """Wrap `cos_sin` where it is drawn with, moving each value it returns
    by ``steps(count, rng)`` ULP."""
    rng = np.random.default_rng(SEED)

    def moved_cos_sin(angles):
        return tuple(_moved(v, steps(len(v), rng)) for v in kernel.cos_sin(angles))

    for module in (render, cycloid):
        monkeypatch.setattr(module, "cos_sin", moved_cos_sin)


def test_moved_counts_nextafter_steps():
    # equal in value: nextafter keeps the sign of a zero it steps to
    x = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 0.5, -0.7071067811865476,
                  np.finfo(float).tiny])
    for direction, sign in ((np.inf, 1), (-np.inf, -1)):
        ref = x
        for k in range(1, K + 1):
            ref = np.nextafter(ref, direction)
            assert np.array_equal(_moved(x, np.full(len(x), sign * k)), ref)


@pytest.mark.parametrize("name", DRAWINGS)
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_drawing_pins_survive_trig_error(pattern, name, monkeypatch, tmp_path, capsys):
    _perturb(monkeypatch, PATTERNS[pattern])
    assert output_digest(name, tmp_path, capsys) == PINS[name]


@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_golden_file_survives_trig_error(pattern, monkeypatch):
    _perturb(monkeypatch, PATTERNS[pattern])
    with open(GOLDEN, "rb") as fh:
        golden = fh.read()
    assert render_stitch(mmt_chords(StitchGraph(100, 34)), RenderStyle()).data == golden


def test_outputs_at_the_cap_survive_trig_error(monkeypatch, tmp_path):
    # the outputs of acceptance criteria 13 and 14, under the seeded mix
    _perturb(monkeypatch, PATTERNS["mix"])
    for argv, digest in [*BOUNDED_OUTPUTS.items(),
                         (("gallery", "--only", "1000000,999999"), GALLERY_AT_CAP)]:
        out = tmp_path / "out"
        assert cli.main([*argv, "-o", str(out)]) == 0
        if out.is_dir():
            got = _tree_sha(out)
            shutil.rmtree(out)
        else:
            got = hashlib.sha256(out.read_bytes()).hexdigest()
            out.unlink()
        assert got == digest, argv


def test_a_large_trig_error_changes_a_digest(monkeypatch, tmp_path, capsys):
    _perturb(monkeypatch, lambda n, rng: rng.integers(-1 << 20, 1 << 20, n, endpoint=True))
    changed = []
    for i, name in enumerate(DRAWINGS):
        (tmp_path / str(i)).mkdir()
        changed.append(output_digest(name, tmp_path / str(i), capsys) != PINS[name])
    assert any(changed)
