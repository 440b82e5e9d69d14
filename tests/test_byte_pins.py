"""Byte pins: sha256 of every output the chord construction feeds.

Each digest was recorded from the `Fraction`-based chord loops that the
integer chord core replaced, so any change to chord order, endpoint
rounding or float formatting on these paths shows up here.  Directory
outputs (grid, gallery) are hashed as the sorted (relative path, bytes)
pairs.
"""

import hashlib

import pytest

from stitchlab import cli
from stitchlab.overlay import overlay_decompose
from stitchlab.render import RenderStyle, render_overlay, render_torus
from stitchlab.torusgeo import natural_alias

CANVAS = "160"

PINS = {
    "stitch 100 34": "e99edc89a15a31a296084381d22971c9cef30f1d98d56f1786d535480daf8e5c",
    "stitch 100 34 --points": "e8c508601eaca86cab837872c9a525f5218216208e1efcf7deebf5c89bd0efbc",
    "stitch 100 34 --extend": "84f2f2240b34e7ec2705c8423a95663a6013707fc652a083633e5613d33abc08",
    "stitch 1 0": "fd8bbb94aa76dab8d39cc3aa352cc6fe6db9a66dc917e28f7ba79a8bca7716e3",
    "stitch 2 1 --points": "e6f10dea7be0be583832249ddfde935c59516d19bbed0060395dea1e6f3d5523",
    "dance 3 2 n100": "350d73d1f0fed39a759834a8cd13914d3e0594193346af34b0fe01582cbbc5c2",
    "dance 5 -3 n60": "7a04b0d1c973453d683f795ab213b273cd125ee933b052e343e7d6f4c783a588",
    "dance 1 -1 n50": "f593ba8f800c4ae29c0c189a5245654747f96868a582ec9f17112a51d62fa622",
    "dance 1 1 n10": "d9032094e534e44b068210646f456ac3a1c21e5be826581809e78ace6d21fd5a",
    "grid 200 9 ceiling": "6bf8cfd8e3e13223d50cc47fdd201ff74ee6ff5b261ae7c5265092b06b76b93b",
    "grid 200 9 floor": "06cf53d72a473f760abd2d5f5f460e2686f1d58ff899e4c6810cdec22eeacbf7",
    "gallery": "6a6580871bef7c6de7262e2693745c8fca3bfdb4d3cb0124729c75f95dfc9858",
    "render_torus 206 35": "b8abcd5e8f21e2dd26ca00eb490e96f71be4a12e519221d0fb892c160bdcc923",
    "render_overlay 206 35": "0814145b2acab1bb48392d73f3a67c75e521b012f98958facac8a660d7a4d689",
    "analyze 206 35": "6d9eca09b9a0d2afd4c24b3a227ace2036e294b09fe9672129e3ebfd55f4c4d0",
    "analyze 207 35": "8235a45da3c84a9ef3a742a649778d37a3faa576c780a47a18beb578f47a2819",
    "analyze 9 6": "8735635d3622a4f7c8bd51766ef957715fdbc9dea6430a65484044ad586613ee",
    "analyze 100 34": "34b045f7cdda8617cca751947d040a72289813726ad7a87b2e9f6e6268945ff4",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree_sha(root) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode() + b"\0")
            h.update(p.read_bytes() + b"\0")
    return h.hexdigest()


def _file_output(tmp_path, argv):
    out = tmp_path / "out.svg"
    assert cli.main([*argv, "--canvas", CANVAS, "-o", str(out)]) == 0
    return _sha(out.read_bytes())


def _dir_output(tmp_path, argv):
    out = tmp_path / "out"
    assert cli.main([*argv, "--canvas", CANVAS, "-o", str(out)]) == 0
    return _tree_sha(out)


def output_digest(name, tmp_path, capsys):
    """The sha256 of the output that the pin `name` stands for."""
    cmd, *rest = name.split()
    if cmd == "stitch":
        m, a, *flags = rest
        return _file_output(tmp_path, ["stitch", "-m", m, "-a", a, *flags])
    if cmd == "dance":
        alpha, beta, n = rest
        return _file_output(tmp_path, ["dance", "-a", alpha, "-b", beta,
                                       "-n", n[1:]])
    if cmd == "grid":
        m, b_max, kind = rest
        return _dir_output(tmp_path, ["grid", "-m", m, "-B", b_max,
                                      "--kind", kind])
    if cmd == "gallery":
        return _dir_output(tmp_path, ["gallery"])
    if cmd == "analyze":
        m, a = rest
        capsys.readouterr()
        assert cli.main(["analyze", "-m", m, "-a", a, "--json"]) == 0
        return _sha(capsys.readouterr().out.encode())
    m, a = map(int, rest)
    style = RenderStyle(canvas_px=int(CANVAS))
    if cmd == "render_torus":
        return _sha(render_torus(m, a, natural_alias(m, a), style).data)
    return _sha(render_overlay(overlay_decompose(m, a), style).data)


@pytest.mark.parametrize("name", sorted(PINS))
def test_output_bytes_pinned(name, tmp_path, capsys):
    assert output_digest(name, tmp_path, capsys) == PINS[name]
