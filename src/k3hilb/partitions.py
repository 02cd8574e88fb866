"""Integer partitions, and the cycles of a permutation.

Partitions are stored in lambda-notation as tuples of weakly decreasing
positive integers; the empty partition is ().  Alpha-notation (the tuple of
multiplicities m_1, m_2, ...) is derived on demand.  Permutations on
{0, ..., n-1} are tuples of images.
"""

from functools import cache
from math import factorial


# ---------------------------------------------------------------------------
# partitions


def as_partition(parts):
    """Normalize an iterable of positive integers to a canonical partition tuple."""
    p = tuple(sorted((int(x) for x in parts), reverse=True))
    if any(x < 1 for x in p):
        raise ValueError(f"partition parts must be positive, got {p}")
    return p


def weight(p):
    return sum(p)


def length(p):
    return len(p)


def as_alpha(p):
    """Multiplicity view (m_1, ..., m_max) of a partition in lambda-notation."""
    if not p:
        return ()
    mult = [0] * p[0]
    for part in p:
        mult[part - 1] += 1
    return tuple(mult)


def from_alpha(alpha):
    """Inverse of :func:`as_alpha`."""
    parts = []
    for i, m in enumerate(alpha, start=1):
        if m < 0:
            raise ValueError("multiplicities must be nonnegative")
        parts.extend([i] * m)
    parts.reverse()
    return tuple(parts)


def part_z(p):
    """The centralizer order z = prod_i i^(m_i) * m_i! of a cycle type."""
    z = 1
    for i, m in enumerate(as_alpha(p), start=1):
        z *= i**m * factorial(m)
    return z


def part_conj(p):
    """Conjugate (transposed Young diagram) partition; an involution."""
    if not p:
        return ()
    return tuple(sum(1 for x in p if x >= i) for i in range(1, p[0] + 1))


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


@cache
def part_of_weight_length(w, l):
    """All partitions of weight w and length l, in canonical order."""
    if w < 0 or l < 0:
        return ()
    return tuple(p for p in part_of_weight(w) if len(p) == l)


def format_partition(p):
    """Text form ``[3-2-1]``; the empty partition prints ``[]``."""
    return "[" + "-".join(str(x) for x in p) + "]"


def parse_partition(text):
    """Inverse of :func:`format_partition`; raises ValueError on bad syntax."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"partition must be bracketed like [3-2-1], got {text!r}")
    inner = s[1:-1].strip()
    if not inner:
        return ()
    try:
        parts = [int(x) for x in inner.split("-")]
    except ValueError:
        raise ValueError(f"non-integer part in partition {text!r}") from None
    return as_partition(parts)


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
