"""Seeded inputs for the stitchlab benchmark workloads.

The seed picks multipliers and dance speeds only.  Moduli, sample
counts and the number of calls per pass are fixed, so every seed asks
for the same amount of work and runs of different seeds can be compared.
"""

from __future__ import annotations

import random
from math import gcd

from checks import nearest_sample_vectors

#: Moduli of the stitch and analyze ladders, with calls per rung.
LADDER = (1_000, 10_000, 100_000)
STITCH_PER_RUNG = (3, 2, 1)
ANALYZE_PER_RUNG = (6, 3, 1)
#: Sample count of the two `dance` calls.
DANCE_RATE = 10_000
#: Target modulus and largest row of the `grid` call.
GRID = (200, 9)
#: The eight showcase pairs that `gallery` draws by default.
GALLERY_PAIRS = [
    (200, 21), (50, 25), (100, 34), (100, 51),
    (90, 31), (400, 115), (100, 49), (206, 21),
]
#: Graphs MMT(m, 1) have the diagonal natural dance <1,1> at any m.
DIAGONAL_IDENTITY_M = 1_000


def is_diagonal(m: int, a: int) -> bool:
    """Whether any nearest sample vector of MMT(m, a) is diagonal (t, t)."""
    _, vectors = nearest_sample_vectors(m, a)
    return any(p == q for p, q in vectors)


def diagonal_graphs() -> list[tuple[int, int]]:
    """Graphs whose natural dance is <1,1>; the same for every seed.

    The first two graphs with a unique nearest sample vector (2, 2),
    the first two with (3, 3), and MMT(1000, 1).
    """
    found: dict[int, list[tuple[int, int]]] = {2: [], 3: []}
    m = 2
    while any(len(v) < 2 for v in found.values()):
        for a in range(2, m):
            _, vectors = nearest_sample_vectors(m, a)
            if len(vectors) == 1 and vectors[0][0] == vectors[0][1]:
                t = vectors[0][0]
                if t in found and len(found[t]) < 2:
                    found[t].append((m, a))
        m += 1
    return found[2] + found[3] + [(DIAGONAL_IDENTITY_M, 1)]


def copies(m: int, a: int) -> int:
    """The number d of rotated copies of MMT(m, a), from a unique nearest
    sample vector (p, q): d = m / gcd(alpha*a - beta, m) with (alpha,
    beta) = (p, q) / gcd(p, q).  Zero when the nearest vector is a tie."""
    _, vectors = nearest_sample_vectors(m, a)
    if len(vectors) != 1:
        return 0
    p, q = vectors[0]
    g = gcd(p, q)
    return m // gcd(p // g * a - q // g, m)


def _plain_multiplier(rng: random.Random, m: int) -> int:
    while True:
        a = rng.randrange(2, m)
        if not is_diagonal(m, a):
            return a


def _single_copy_multiplier(rng: random.Random, m: int) -> int:
    """A plain multiplier whose graph is one copy (d = 1), so that the
    heaviest call costs about the same for every seed."""
    while True:
        a = _plain_multiplier(rng, m)
        if copies(m, a) == 1:
            return a


def _family_multiplier(rng: random.Random, m: int) -> int:
    """a = ceil(m/b) for a row b with gcd(b, m mod b) > 1, so the graph
    splits into d > 1 rotated copies."""
    rows = [b for b in range(3, 41) if m % b and gcd(b, m % b) > 1]
    while True:
        b = rng.choice(rows)
        a = -(-m // b)
        if not is_diagonal(m, a):
            return a


def render_inputs(seed: int) -> dict:
    """Stitch ladder with seeded multipliers, and one epicycloid and one
    hypocycloid dance with seeded speeds."""
    rng = random.Random(f"render-{seed}")
    stitch = [(m, _plain_multiplier(rng, m))
              for m, count in zip(LADDER, STITCH_PER_RUNG) for _ in range(count)]
    pairs = [(al, be) for al in range(2, 10) for be in range(1, al) if gcd(al, be) == 1]
    epi = rng.choice(pairs)
    hypo = rng.choice(pairs)
    return {
        "stitch": stitch,
        "dances": [epi, (hypo[0], -hypo[1])],
        "rate": DANCE_RATE,
        "grid": GRID,
        "gallery": GALLERY_PAIRS,
    }


def analyze_inputs(seed: int) -> dict:
    """Analyze ladder: below the top rung, plain seeded multipliers and
    ceiling-family multipliers in turn; at the top rung one single-copy
    multiplier; then the fixed diagonal graphs."""
    rng = random.Random(f"analyze-{seed}")
    graphs = []
    for m, count in zip(LADDER[:-1], ANALYZE_PER_RUNG):
        kinds = [_plain_multiplier, _family_multiplier]
        graphs += [(m, kinds[i % 2](rng, m)) for i in range(count)]
    top = LADDER[-1]
    graphs += [(top, _single_copy_multiplier(rng, top))
               for _ in range(ANALYZE_PER_RUNG[-1])]
    return {"graphs": graphs, "diagonal": diagonal_graphs()}
