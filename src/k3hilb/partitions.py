"""Integer partitions, and the cycles of a permutation.

Partitions are stored in lambda-notation as tuples of weakly decreasing
positive integers; the empty partition is ().  Permutations on
{0, ..., n-1} are tuples of images.
"""

from functools import cache
from itertools import groupby
from math import factorial, prod


# ---------------------------------------------------------------------------
# partitions


def part_z(p):
    """The centralizer order z = prod_i i^(m_i) * m_i! of a cycle type."""
    return prod(p) * prod(factorial(len(list(run))) for _, run in groupby(p))


def part_key(p):
    """Canonical sort key: weight, then length, then reverse-lexicographic parts.

    With this total order the refinement relation between partitions of equal
    weight is monotone (merging parts shortens the partition), which is what
    the triangular base-change matrices in :mod:`k3hilb.symfunc` rely on.
    """
    return (sum(p), len(p), tuple(-x for x in p))


@cache
def part_of_weight(w):
    """All partitions of weight w, in canonical order.  Empty for w < 0."""
    if w < 0:
        return ()

    def gen(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(sorted(gen(w, w), key=part_key))


def format_partition(p):
    """Text form ``[3-2-1]``; the empty partition prints ``[]``."""
    return "[" + "-".join(str(x) for x in p) + "]"


# ---------------------------------------------------------------------------
# permutations


def cycles_of(p):
    """Disjoint cycles of a permutation, fixed points included.

    Cycles are listed by increasing minimal element and each cycle starts at
    its minimal element.
    """
    n = len(p)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        v = p[start]
        while v != start:
            cyc.append(v)
            seen[v] = True
            v = p[v]
        out.append(tuple(cyc))
    return tuple(out)
