"""stitchlab: modular stitch graphs, planet dances, and their aliasing.

The package builds chord figures MMT(m, a) on the unit circle, finds the
two-speed "planet dance" each one most naturally samples, decomposes
graphs into rotated overlay copies, verifies cycloid envelopes
numerically, and renders everything as deterministic SVG.

Value types are immutable `NamedTuple` records; the five that check or
normalize their fields (`CirclePoint`, `PlanetDance`, `StitchGraph`,
`Sampling`, `RenderStyle`) do it in `__new__`, which `_make` and
`_replace` go through too.  Start-up stays small: outside `render` and
`oracle`, numpy is imported inside the functions that build arrays, so
`import stitchlab`, `stitchlab --help` and `stitchlab analyze` do not
load it.
"""

from .cycloid import CycloidSpec, EnvelopeReport, classify, verify_envelope
from .dances import PlanetDance, Sampling, StitchGraph, mmt_chords, sample
from .kernel import ChordSet, CirclePoint, DirectedChord, wrap
from .overlay import OverlayDecomposition, overlay_decompose, predict_family
from .torusgeo import AliasAnalysis, natural_alias

__version__ = "0.1.0"

__all__ = [
    "AliasAnalysis",
    "ChordSet",
    "CirclePoint",
    "CycloidSpec",
    "DirectedChord",
    "EnvelopeReport",
    "OverlayDecomposition",
    "PlanetDance",
    "Sampling",
    "StitchGraph",
    "classify",
    "mmt_chords",
    "natural_alias",
    "overlay_decompose",
    "predict_family",
    "sample",
    "verify_envelope",
    "wrap",
    "__version__",
]
