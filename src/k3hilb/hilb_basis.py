"""The integral basis of H*(Hilb^n(K3), Z) and its symbol algebra.

A basis symbol is a pair (parts, labels): a partition in lambda-notation and
an equally long tuple of K3 basis indices, one label per part.  The same
symbol shape indexes both the creation-operator basis and the integral basis;
which one is meant is a matter of context.  Canonical form sorts the
(part, label) pairs descending.

A symbol of weight w represents a class on Hilb^n for every n >= w by padding
with parts 1 labeled by the unit; for n < w it represents zero.  Reduced
symbols carry no (1, unit) padding pairs.
"""

from functools import cache
from itertools import combinations_with_replacement, groupby, product
from math import prod

from . import k3
from .partitions import format_partition, part_of_weight, part_z

_H2_DOWN = k3.H2_INDICES[::-1]

__all__ = [
    "canonical_class",
    "an_weight",
    "deg",
    "an_z",
    "label_groups",
    "pad_class",
    "reduce_class",
    "an_sort_key",
    "hilb_base",
    "betti",
    "parse_class",
    "format_class",
    "ClassSyntaxError",
]


def canonical_class(parts, labels):
    """Build a symbol in canonical form; validates parts and label range."""
    parts = tuple(int(x) for x in parts)
    labels = tuple(int(x) for x in labels)
    if len(parts) != len(labels):
        raise ValueError(f"{len(parts)} parts but {len(labels)} labels")
    if any(p < 1 for p in parts):
        raise ValueError(f"parts must be positive: {parts}")
    if any(not 0 <= l <= 23 for l in labels):
        raise ValueError(f"labels must be K3 indices 0..23: {labels}")
    pairs = sorted(zip(parts, labels), reverse=True)
    return tuple(p for p, _ in pairs), tuple(l for _, l in pairs)


def an_weight(sym):
    return sum(sym[0])


def deg(sym):
    """Cohomological degree: 2*(weight - length) plus the label degrees."""
    parts, labels = sym
    return 2 * (sum(parts) - len(parts)) + sum(k3.deg(l) for l in labels)


def label_groups(sym):
    """The parts of sym per label, as {label: parts}; on a canonical symbol
    each label's parts come out descending."""
    groups = {}
    for p, l in zip(*sym):
        groups[l] = groups.get(l, ()) + (p,)
    return groups


def an_z(sym):
    """Order of the stabilizer of a labeled cycle type under conjugation: the
    product of the centralizer orders z of the canonical symbol's label groups."""
    return prod(map(part_z, label_groups(sym).values()))


def pad_class(sym, n):
    """The symbol at ambient n: pad with (1, unit) pairs, or None if overweight."""
    parts, labels = sym
    w = sum(parts)
    if w > n:
        return None
    k = n - w
    return parts + (1,) * k, labels + (k3.UNIT,) * k


def reduce_class(sym):
    """Strip (1, unit) padding pairs."""
    pairs = [(p, l) for p, l in zip(*sym) if (p, l) != (1, k3.UNIT)]
    return tuple(p for p, _ in pairs), tuple(l for _, l in pairs)


def an_sort_key(sym):
    """Canonical total order on symbols: weight, then parts, then labels."""
    parts, labels = sym
    return (sum(parts), parts, labels)


def _shapes(n, d):
    """Cycle types of Hilb^n that carry classes of degree d, sorted as tuples.

    A shape of length l = n - e spends 2e of the degree on its parts and
    leaves d - 2e for the labels, at most 4 per part; so e <= d/2 and
    e <= (4n - d)/2.  Each shape is built from a partition mu of e: add 1 to
    every part and pad with 1s.
    """
    out = []
    for e in range(min(d, 4 * n - d) // 2 + 1):
        for mu in part_of_weight(e):
            if len(mu) <= n - e:
                out.append(tuple(m + 1 for m in mu) + (1,) * (n - e - len(mu)))
    out.sort()
    return out


def _group_labels(count, budget):
    """Weakly decreasing labels of `count` equal parts with label degree `budget`."""
    out = []
    for c23 in range(min(count, budget // 4), -1, -1):
        c2 = budget // 2 - 2 * c23
        if c23 + c2 > count:
            break
        head = (k3.POINT,) * c23
        tail = (k3.UNIT,) * (count - c23 - c2)
        mids = combinations_with_replacement(_H2_DOWN, c2)
        out.extend(head + mid + tail for mid in mids)
    return out


def _labels(counts, budget):
    """Labels of groups of `counts` equal parts that share label degree `budget`."""
    if not counts:
        return [()] if budget == 0 else []
    first, rest = counts[0], counts[1:]
    out = []
    for b in range(max(0, budget - 4 * sum(rest)), min(budget, 4 * first) + 1, 2):
        pairs = product(_group_labels(first, b), _labels(rest, budget - b))
        out.extend(head + tail for head, tail in pairs)
    return out


@cache
def hilb_base(n, d):
    """The degree-d basis symbols for Hilb^n, in canonical order.

    Shapes come in ascending order; within a shape the labels are the
    products of per-group label multisets, sorted as plain tuples.
    """
    if d % 2:
        return ()
    out = []
    for parts in _shapes(n, d):
        counts = [len(list(g)) for _, g in groupby(parts)]
        labels = sorted(_labels(counts, d - 2 * (n - len(parts))))
        out.extend((parts, l) for l in labels)
    return tuple(out)


def betti(n, d):
    """len(hilb_base(n, d)) without building the basis, from Goettsche's series
    prod_m (1 - t^(2m-2) q^m)^-1 (1 - t^(2m) q^m)^-22 (1 - t^(2m+2) q^m)^-1."""
    if d % 2 or not 0 <= d <= 4 * n:
        return 0
    h = min(d, 4 * n - d) // 2  # Poincare duality
    c = [[0] * (h + 1) for _ in range(n + 1)]  # c[w][e]: coefficient of q^w t^2e
    c[0][0] = 1
    for m in range(1, n + 1):
        for shift, power in ((m - 1, 1), (m, 22), (m + 1, 1)):
            for _ in range(power if shift <= h else 0):
                for w in range(m, n + 1):  # times 1 / (1 - t^(2 shift) q^m), in place
                    for e in range(shift, h + 1):
                        c[w][e] += c[w - m][e - shift]
    return c[n][h]


def format_class(sym):
    """Text form ``([3-2-1],[6,7,23])``; the empty symbol prints ``([],[])``."""
    parts, labels = sym
    return f"({format_partition(parts)},[{','.join(str(l) for l in labels)}])"


class ClassSyntaxError(ValueError):
    """Malformed class text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_class(text):
    """Parse the ``([p-p-...],[l,l,...])`` grammar back into a canonical symbol.

    Non-canonical pair order is canonicalized, never rejected; length
    mismatches and out-of-range labels raise ValueError.  Parts and labels are
    ASCII digits: "1_0", "+1" or a full-width digit raise ClassSyntaxError.
    """
    s = text.strip()
    offset = len(text) - len(text.lstrip())

    def fail(msg, pos):
        raise ClassSyntaxError(msg, offset + pos)

    for i, ch in enumerate(s):
        if ch not in "()[]-, 0123456789":
            fail(f"unexpected character {ch!r}", i)
    if not s.startswith("("):
        fail("expected '('", 0)
    if not s.endswith(")"):
        fail("expected ')'", len(s) - 1)
    body = s[1:-1]
    lb = body.find("[")
    rb = body.find("]")
    if lb == -1 or rb == -1 or rb < lb:
        fail("expected bracketed partition like [2-1]", 1)
    # keep the positional pairing with the labels: do not sort parts here
    part_inner = body[lb + 1 : rb].strip()
    if part_inner:
        try:
            parts = [int(x) for x in part_inner.split("-")]
        except ValueError:
            fail("non-integer part in partition", 1 + lb)
    else:
        parts = []
    rest = body[rb + 1 :]
    comma = rest.find(",")
    if comma == -1:
        fail("expected ',' between partition and labels", 1 + rb + 1)
    lab = rest[comma + 1 :].strip()
    lab_pos = 1 + rb + 1 + comma + 1
    if not (lab.startswith("[") and lab.endswith("]")):
        fail("expected bracketed label list like [1,0]", lab_pos)
    inner = lab[1:-1].strip()
    if inner:
        try:
            labels = [int(x) for x in inner.split(",")]
        except ValueError:
            fail("non-integer label", lab_pos)
    else:
        labels = []
    try:
        return canonical_class(parts, labels)
    except ValueError as exc:
        fail(str(exc), 0)
