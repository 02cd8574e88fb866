"""The seeded product stream of the cup-n8 workload.

A base stream of pairs (a, b) of integral basis classes of degree 2..8 at
n = 8 is drawn once with a fixed seed.  The workload seed then picks an
isometry of the K3 lattice basis (a permutation of the three hyperbolic
planes, a swap inside each plane, a swap of the two E8(-1) blocks: 96 in all)
and applies it to every label.  An isometry carries the product of two
classes to the product of their images term by term, so every seed does the
same work on different classes.  Drawing 300 fresh pairs per seed instead
gave 6.9 s and 5.3 s of product time for two seeds.
"""

import random

N = 8
DEGREES = (2, 4, 6, 8)
BASE_SEED = 20141003
STREAM_LEN = 50

PLANES = ((1, 2), (3, 4), (5, 6))
E8_BLOCKS = (range(7, 15), range(15, 23))


def isometry(seed):
    """A label map {0..23 -> 0..23} fixing the unit (0) and the point (23)."""
    rng = random.Random(seed)
    sigma = {0: 0, 23: 23}
    planes = list(PLANES)
    rng.shuffle(planes)
    for (e, f), (e2, f2) in zip(PLANES, planes):
        if rng.random() < 0.5:
            e2, f2 = f2, e2
        sigma[e], sigma[f] = e2, f2
    blocks = list(E8_BLOCKS)
    if rng.random() < 0.5:
        blocks.reverse()
    for src, dst in zip(E8_BLOCKS, blocks):
        for i, j in zip(src, dst):
            sigma[i] = j
    return sigma


def relabel(sym, sigma):
    pairs = sorted(zip(sym[0], (sigma[l] for l in sym[1])), reverse=True)
    return tuple(p for p, _ in pairs), tuple(l for _, l in pairs)


def base_pairs(bases):
    """The fixed base stream: uniform degrees, then uniform basis classes."""
    rng = random.Random(BASE_SEED)
    out = []
    for _ in range(STREAM_LEN):
        da, db = rng.choice(DEGREES), rng.choice(DEGREES)
        out.append((rng.choice(bases[da]), rng.choice(bases[db])))
    return out


def product_stream(seed, bases):
    """The workload's pairs for one seed; bases maps degree -> basis at n = 8."""
    sigma = isometry(seed)
    return [(relabel(a, sigma), relabel(b, sigma)) for a, b in base_pairs(bases)]


def assoc_triples(seed, bases):
    """Two seeded triples of degree-2 classes for the associativity check."""
    rng = random.Random(seed ^ 0x5EED)
    return [tuple(rng.choice(bases[2]) for _ in range(3)) for _ in range(2)]


DEFECT_N = 4


def defect_triple(seed):
    """A seeded triple whose products have graph defect, checked at n = DEFECT_N.

    ([3],[0])^2 meets a 3-cycle with itself, so the Euler class enters; with
    +24x in place of e = -24x the triple is not associative.  At n = 8 one such
    triple costs 7-10 s, at n = 4 a quarter of a second.
    """
    k = random.Random(seed ^ 0xDEF).randint(1, 22)
    three = ((3,), (0,))
    return three, three, ((2, 1), (0, k))
