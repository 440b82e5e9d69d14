"""Byte pins: sha256 of every output the chord construction feeds.

Each digest was recorded from the `Fraction`-based chord loops that the
integer chord core replaced, so any change to chord order, endpoint
rounding or float formatting on these paths shows up here.  The
`gallery --only 206,35`, `analyze 10 6` and `analyze 1000000 1000`
digests were recorded while the gallery still derived its coset lines
apart from `overlay_decompose` and every coset still carried its
chords.  The pins with m or n = 10000 and up, and those that name their
own `--canvas`, were recorded from the per-element `fmt` loops that the
block formatter replaced; at canvas 800 integer parts of two, three
(`stitch`) and four digits (the gallery's right half) go through it.
Directory outputs (grid, gallery) are hashed as the sorted (relative
path, bytes) pairs.  The `verify` pin is the stdout of `verify --json`
at its defaults, which holds every suite's case count and `info` notes;
it was recorded while `overlay_partition` still derived the coset
offsets itself and `brute_intersections` still walked `Fraction` points.
The `verify --max-m 100 --bound 6` pin, where the suites cost other
shares of the time than at the defaults, was recorded while the suites
still ran in two fixed groups, one per process.  The `verify --max-m 300
--bound 8` pin, where `overlay_partition` bounds the wall time, was
re-recorded when `envelope` and `cusp_count` stopped capping the dance
bound at 6: they now run the 85 and 86 dances of bound 8 instead of the
45 and 46 of bound 6, and every other suite's entry kept its bytes.
All three `verify` pins were re-recorded when `sampling_identities`, the
correspondence suite and `family_predictions` began to name in `info`
the range they check; no other field of any suite changed.
The `gallery --only 207,34 --only 9,6 --extend` digest was recorded
while every coset still carried its own `TorusLine`; (207, 34) aliases
<2,-1> with three nonzero offsets and (9, 6) has permuted offsets, so
it holds the torus segments for alpha > 1 and beta < 0.  The
`stitch 10000 4321 --points` and `grid 200 5 ceiling --points` digests
were recorded while the boundary dots still had their own pass over the
used positions, apart from the chords' position table.
The `analyze 18 7` digest, a diagonal graph whose radii 1, 1/2 and 1/2
print as 1.0, 0.5 and 0.5, was recorded when diagonal radii were first
rounded to the text form's 6 decimals; before, 1/2 printed as
0.49999999999999994.
An `analyze` pin is of its `--json` output, or of its text form where
the name ends in "text".  The text pins of the seven graphs with JSON
pins were recorded while the report and its text form were still built
in `cli`, before they moved to `overlay`.  `analyze 17 4` is a tie
("(tie)" after the shortest vector, `<1,4>` with 3 cusps), `analyze 22
5` a hypocycloid (`<2,-1>`, d = 2) and `analyze 10 9` a
`degenerate_diameter`, branches that no other pin reaches; they were
recorded at the same commit, in both forms.
"""

import hashlib

import pytest

from stitchlab import cli

CANVAS = "160"

PINS = {
    "stitch 100 34": "e99edc89a15a31a296084381d22971c9cef30f1d98d56f1786d535480daf8e5c",
    "stitch 100 34 --points": "e8c508601eaca86cab837872c9a525f5218216208e1efcf7deebf5c89bd0efbc",
    "stitch 100 34 --extend": "84f2f2240b34e7ec2705c8423a95663a6013707fc652a083633e5613d33abc08",
    "stitch 1 0": "fd8bbb94aa76dab8d39cc3aa352cc6fe6db9a66dc917e28f7ba79a8bca7716e3",
    "stitch 10000 4321": "0b3780bf008611ae28b91ddbe65de6a39bad5495542ccfe3d277d2d2d142f44e",
    "stitch 10000 4321 --points":
        "137432f1799d3fb708e88872abd018448c9cfd5ffe129284d6afb32f933f36e5",
    "stitch 10000 4321 --points --extend":
        "ae9cd5603fa92aa85c66bd89aba4c9514423543d7f42427ea0801ec0780421c4",
    "stitch 100000 35911 --canvas 800":
        "b064c6752aafae0c823bb4a497e73a0aeb85057a368d099389e7acdfdd8dfbb6",
    "stitch 2 1 --points": "e6f10dea7be0be583832249ddfde935c59516d19bbed0060395dea1e6f3d5523",
    "dance 3 2 n100": "350d73d1f0fed39a759834a8cd13914d3e0594193346af34b0fe01582cbbc5c2",
    "dance 5 -3 n60": "7a04b0d1c973453d683f795ab213b273cd125ee933b052e343e7d6f4c783a588",
    "dance 1 -1 n50": "f593ba8f800c4ae29c0c189a5245654747f96868a582ec9f17112a51d62fa622",
    "dance 6 -5 n10000": "04273220aa5ac655f1b2273687c8d799d5e51a979fe2a348b377001bea7f23bd",
    "dance 7 3 n10000": "eed47deeae8ac1ff706a2b2858011e15391cb33dc02aa38c70a0b58b397382c5",
    "dance 1 1 n10": "d9032094e534e44b068210646f456ac3a1c21e5be826581809e78ace6d21fd5a",
    "grid 200 9 ceiling": "6bf8cfd8e3e13223d50cc47fdd201ff74ee6ff5b261ae7c5265092b06b76b93b",
    "grid 200 9 floor": "06cf53d72a473f760abd2d5f5f460e2686f1d58ff899e4c6810cdec22eeacbf7",
    "grid 200 5 ceiling --points":
        "a3769bcf983c16fe964be40609ac0aefc319bf5b9935071651d435f4115ce9f9",
    "gallery": "6a6580871bef7c6de7262e2693745c8fca3bfdb4d3cb0124729c75f95dfc9858",
    "gallery --only 400,115 --canvas 800":
        "e674e10bd2222da8ee9edd7f6ccb655048af5f296c18267c3742ec2872d229e3",
    "gallery --only 206,35": "c55d5e2427afd8c32022b5ac9d27c55f685c3a6ce9758c99e1504e22994b1335",
    "gallery --only 207,34 --only 9,6 --extend":
        "8dde8e246c1bed4a8357e0f5c0e522239b9cf38702e177101d6a5ee1a9adb1d6",
    "analyze 206 35": "6d9eca09b9a0d2afd4c24b3a227ace2036e294b09fe9672129e3ebfd55f4c4d0",
    "analyze 207 35": "8235a45da3c84a9ef3a742a649778d37a3faa576c780a47a18beb578f47a2819",
    "analyze 9 6": "8735635d3622a4f7c8bd51766ef957715fdbc9dea6430a65484044ad586613ee",
    "analyze 100 34": "34b045f7cdda8617cca751947d040a72289813726ad7a87b2e9f6e6268945ff4",
    "analyze 10 6": "b754becf307491dff36909e0c1651aef0dab1030c81bc0fd458ab438cd711864",
    "analyze 18 7": "e208facb58cf8c657b90ed4fff898aa7bed430831091ee46703a7a93902623bd",
    "analyze 1000000 1000": "32a8f18369dc9b98894f5d671da0fc67273aa9b7ac81b18780355d5002deeeae",
    "analyze 17 4": "19b885988b0cc5b5ab92f8fea1d2232a40bc5216ab63598dfe2aa8eda5f39734",
    "analyze 22 5": "002a3f1b47388b36effbb45daee6aaa7f1be89888586dfe276f09bd401038554",
    "analyze 10 9": "0591f30617b92bb68bcced71a01dfca47f5e7583831899a7d6196b3bb1f0c5df",
    "analyze 206 35 text": "bfdf0b8988fd3672a44c1852ca5ff4777baf3ab5f1c0131543837de9463ca439",
    "analyze 207 35 text": "86bdee1a03d64bc9ff73904e78f0b7ba6896bf587c21854f41e814e2b7e2a805",
    "analyze 9 6 text": "effca39140f7b49c696824d50b187ab416a6a2d86b14ea9aa9caf599d75856fa",
    "analyze 100 34 text": "4c05d9b401ae6469242c720ff42777b996ad692e33c5ea57c693057b9e95d8df",
    "analyze 10 6 text": "dac12613b200fe5ec41454050b9ac0b0e9c318b1a9754ea2d7c5617558d495b1",
    "analyze 18 7 text": "b78bc2ea0d30203ac7881e0dda4dc994367b7e7bff3a2ff9b3b3fd4f0671c090",
    "analyze 1000000 1000 text":
        "276afefb03d1af8c464b8e7c7e3b29e47bf725ac52de52378b1f7fc725aef42c",
    "analyze 17 4 text": "fc07e8c0b7a145363a36ff2923cc137975b6fad070bb3201cd539cb6bc238909",
    "analyze 22 5 text": "dff5aba78af0bb9d1004e9741e7371cdca30a69a1f8ce994cf9d2dc9aed89431",
    "analyze 10 9 text": "988a6611b2e0198dcc290ffd2cb292f17205aa56cf5a1e38a8e4600b5e494114",
    "verify": "58a719765eb7c8eb10743f741edd2cfb6482bcb1da6ef34ec29cb21333e209f7",
    "verify --max-m 100 --bound 6":
        "baa2ba4a80cee6a35fd9360fe37716169eaa39acf5c574e551da5d7d5750803e",
    "verify --max-m 300 --bound 8":
        "3ed614817ea2b48692cbb841d99cd47a5620c87e952defde457fb104be7a21b8",
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


def _canvas(argv):
    """CANVAS unless the pin names its own `--canvas`."""
    return [] if "--canvas" in argv else ["--canvas", CANVAS]


def _file_output(tmp_path, argv):
    out = tmp_path / "out.svg"
    assert cli.main([*argv, *_canvas(argv), "-o", str(out)]) == 0
    return _sha(out.read_bytes())


def _dir_output(tmp_path, argv):
    out = tmp_path / "out"
    assert cli.main([*argv, *_canvas(argv), "-o", str(out)]) == 0
    return _tree_sha(out)


def output_digest(name, tmp_path, capsys):
    """The sha256 of the output that the pin `name` stands for."""
    cmd, *rest = name.split()
    if cmd == "stitch":
        m, a, *flags = rest
        return _file_output(tmp_path, ["stitch", "-m", m, "-a", a, *flags])
    if cmd == "dance":
        alpha, beta, n, *flags = rest
        return _file_output(tmp_path, ["dance", "-a", alpha, "-b", beta,
                                       "-n", n[1:], *flags])
    if cmd == "grid":
        m, b_max, kind, *flags = rest
        return _dir_output(tmp_path, ["grid", "-m", m, "-B", b_max,
                                      "--kind", kind, *flags])
    if cmd == "gallery":
        return _dir_output(tmp_path, ["gallery", *rest])
    if cmd == "verify":
        capsys.readouterr()
        assert cli.main(["verify", "--json", *rest]) == 0
        return _sha(capsys.readouterr().out.encode())
    m, a, *form = rest  # the JSON output, or the text form when named
    capsys.readouterr()
    json_flag = [] if form == ["text"] else ["--json"]
    assert cli.main(["analyze", "-m", m, "-a", a, *json_flag]) == 0
    return _sha(capsys.readouterr().out.encode())


@pytest.mark.parametrize("name", sorted(PINS))
def test_output_bytes_pinned(name, tmp_path, capsys):
    assert output_digest(name, tmp_path, capsys) == PINS[name]
