"""The symmetric-group model for the cohomology ring of Hilb^n(K3).

Elements are spanned by terms (pi, labels): a permutation of {0,...,n-1}
written in disjoint cycles, each cycle carrying a K3 basis class.  The
product of two terms is supported on pi*tau and is computed orbit by orbit of
the subgroup <pi, tau>: cup all labels inside an orbit, multiply by e^g for
the graph defect g of the orbit, where e = m(coprod(1)) = -24*x is the Euler
class under the sign-twisted pairing, then redistribute onto the
pi*tau-cycles with the iterated adjoint comultiplication.

The product works on the two cycle lists: the orbits are the components of
cycles that share a point, and most products die on a zero cup of some
orbit's labels before any pi*tau-cycle is walked.  mult_sn checks its terms.

Symbols (parts, labels) embed by symmetrization: a symbol maps to the sum of
all conjugates of its model term.  to_sn returns the distinct conjugates and
the integer multiplicity with which each occurs; mult_an combines both to
multiply symbols, staying in exact integers.  It multiplies at the ambient
min(n, s(a) + s(b)), s the weight without the (1, unit) padding, rescales to
n, and reads off classes directly, never forming canonical terms.  Neither
the conjugates nor symbol products are cached: no workload repeats them.

The integral product (qin_wang) multiplies by every class of cycle type
(1^k) or (2, 1^k) with distinct H^2 labels, or (1^k) with one label
doubled, on the integral symbols; mult_an serves the creation expansions of
the other factors, and the all-creation test oracle.
"""

from functools import cache
from itertools import permutations
from math import factorial, perm

from . import k3
from .k3 import UNIT
from .hilb_basis import an_z, canonical_class, pad_class, reduce_class
from .partitions import cycles_of

__all__ = [
    "canonical_term",
    "model_term",
    "common_orbits",
    "mult_sn",
    "to_sn",
    "mult_an",
]


def _orient_cycle(cyc):
    """Rotate a cycle so its maximal element comes first."""
    m = cyc.index(max(cyc))
    return cyc[m:] + cyc[:m]


def _term_sort_key(piece):
    cyc, label = piece
    return (-len(cyc), -label, tuple(-v for v in cyc))


def canonical_term(pieces):
    """Canonical form of a labeled-cycle term: oriented cycles, fixed sort."""
    out = [(_orient_cycle(tuple(c)), label) for c, label in pieces]
    out.sort(key=_term_sort_key)
    return tuple(out)


def model_term(parts, labels):
    """The model term of a symbol: cycles on consecutive points, largest first."""
    pieces = []
    start = 0
    for size, label in zip(parts, labels):
        pieces.append((tuple(range(start, start + size)), label))
        start += size
    return canonical_term(pieces)


def common_orbits(p, t):
    """Orbits of the subgroup generated by two permutations on the same points,
    found by the product's orbit walk, as sorted tuples ordered by (size, elements)."""
    if len(p) != len(t):
        raise ValueError("permutations act on different point sets")
    t1, t2 = ([(c, UNIT) for c in cycles_of(q)] for q in (p, t))
    orbits, _ = _orbits(t1, _term_arrays(t1, len(p))[1], t2, _term_arrays(t2, len(t))[1])
    result = [tuple(sorted(v for i in ps for v in t1[i][0])) for ps, _ in orbits]
    result.sort(key=lambda orb: (len(orb), orb))
    return result


def _defect(orbit_size, n_p, n_t, n_pt):
    twice = orbit_size + 2 - n_p - n_t - n_pt
    if twice < 0 or twice % 2:
        raise ArithmeticError(
            f"graph defect 2g = {twice} is not a nonnegative even integer"
        )
    return twice // 2


def _term_arrays(term, n):
    """The next-point and point-to-piece arrays of a term on n points, in one pass."""
    nxt, owner = [0] * n, [0] * n
    for i, (cyc, _) in enumerate(term):
        prev = cyc[-1]
        for v in cyc:
            nxt[prev] = v
            owner[v] = i
            prev = v
    return nxt, owner


def _orbits(t1, own1, t2, own2):
    """The orbits of <p, t> for terms t1 of p and t2 of t on the same points.

    The components of the pieces of t1 and t2 sharing a point, as a list of
    (t1 piece indices, t2 piece indices), and the orbit index of each t1
    piece; own1 and own2 map each point to the index of its piece.
    """
    orbit_of = [-1] * len(t1)
    taken = [False] * len(t2)
    orbits = []
    for start in range(len(t1)):
        if orbit_of[start] >= 0:
            continue
        orbit_of[start] = k = len(orbits)
        ps, ts = [start], []
        for i in ps:  # grows while it is walked
            for v in t1[i][0]:
                j = own2[v]
                if not taken[j]:
                    taken[j] = True
                    ts.append(j)
                    for w in t2[j][0]:
                        if orbit_of[own1[w]] < 0:
                            orbit_of[own1[w]] = k
                            ps.append(own1[w])
        orbits.append((ps, ts))
    return orbits, orbit_of


def _orbit_factors(t1, t2, arrays2):
    """The product of two canonical terms, orbit by orbit of <p, t>.

    One list of (pieces, coeff) options per common orbit: the labels inside
    the orbit are cupped, multiplied by e^g for its graph defect g and
    redistributed onto the p*t-cycles inside it.  None when an orbit
    contributes nothing.  The terms must split the same points {0, ..., n-1}
    into cycles (mult_sn checks this); arrays2 is _term_arrays(t2, n).
    """
    t, own2 = arrays2
    p, own1 = _term_arrays(t1, len(t))
    orbits, orbit_of = _orbits(t1, own1, t2, own2)

    # most products die here, on a zero cup of some orbit's labels
    glued = []
    for ps, ts in orbits:
        cls = k3.cup_list([t1[i][1] for i in ps] + [t2[j][1] for j in ts])
        if not cls:
            return None
        glued.append(cls)

    # the p*t-cycles, v -> p[t[v]], sorted into their orbits
    targets = [[] for _ in orbits]
    for cyc in cycles_of([p[v] for v in t]):
        targets[orbit_of[own1[cyc[0]]]].append(cyc)

    factors = []
    for (ps, ts), cls, target in zip(orbits, glued, targets):
        g = _defect(sum(len(t1[i][0]) for i in ps), len(ps), len(ts), len(target))
        if g:
            cls = k3.euler_power_multiplier(g)(cls)
        pieces = []
        for r, v in cls.items():
            for out_labels, w in k3._coprod_items(len(target), r):
                pieces.append((tuple(zip(target, out_labels)), v * w))
        if not pieces:
            return None
        factors.append(pieces)
    return factors


def _expand(factors, key_of, acc):
    """Add the product of the factors to acc, keyed by key_of(pieces)."""

    def rec(i, pieces, coeff):
        if i == len(factors):
            key = key_of(pieces)
            acc[key] = acc.get(key, 0) + coeff
            return
        for more, v in factors[i]:
            rec(i + 1, pieces + more, coeff * v)

    if factors is not None:
        rec(0, (), 1)


@cache
def _mult_sn_items(t1, t2):
    """Product of two canonical terms, as sorted ((term, coeff), ...) items."""
    acc = {}
    arrays2 = _term_arrays(t2, sum(len(c) for c, _ in t2))
    _expand(_orbit_factors(t1, t2, arrays2), canonical_term, acc)
    return tuple((term, v) for term, v in sorted(acc.items()) if v)


def mult_sn(a, b):
    """Product of two terms on the same points 0..n-1 as a sparse {term: coeff} map."""
    a, b = canonical_term(a), canonical_term(b)
    pa, pb = (sorted(v for c, _ in term for v in c) for term in (a, b))
    if pa != pb or pa != list(range(len(pa))):
        raise ValueError(f"{a} and {b} are not disjoint cycles on the same 0..n-1")
    return dict(_mult_sn_items(a, b))


def _symmetrized_shape(parts, labels):
    """Distinct conjugates of the model term of (parts, labels), plus multiplicity.

    Conjugates are enumerated one cycle at a time: the least free point opens
    a cycle of a (part, label) pair still wanted, and an ordered choice of
    the other free points closes it.  Every cycle starts at its least point
    and the cycles open in increasing order, so each conjugate comes out
    once.  The multiplicity is n!/#terms, the size of the stabilizer.
    """
    terms = []

    def rec(free, wanted, pieces):
        if not free:
            terms.append(canonical_term(pieces))
            return
        v, rest = free[0], free[1:]
        for i, (size, label) in enumerate(wanted):
            if i and wanted[i - 1] == wanted[i]:
                continue
            left = wanted[:i] + wanted[i + 1 :]
            for tail in permutations(rest, size - 1):
                cycle = (v, *tail)
                rec([u for u in rest if u not in cycle], left, pieces + [(cycle, label)])

    rec(list(range(sum(parts))), list(zip(parts, labels)), [])
    terms.sort()
    mult, rem = divmod(factorial(sum(parts)), len(terms))
    if rem:
        raise ArithmeticError("conjugate count does not divide n!")
    return tuple(terms), mult


def to_sn(sym, n):
    """Distinct conjugates of a symbol's model term at ambient n, with multiplicity.

    multiplicity * (sum of the returned terms) equals the full symmetrization
    sum over all of S_n; the multiplicity equals the labeled stabilizer order.
    """
    padded = pad_class(sym, n)
    if padded is None:
        raise ValueError(f"symbol of weight {sum(sym[0])} does not fit ambient n={n}")
    terms, mult = _symmetrized_shape(*padded)
    assert mult == an_z(padded)
    return terms, mult


def _reduced_key(pieces):
    """Sorted (length, label) pairs of a term's cycles, without (1, unit) ones."""
    key = [(len(c), lab) for c, lab in pieces if lab != UNIT or len(c) > 1]
    key.sort(reverse=True)
    return tuple(key)


def _mult_kernel(a, b, n):
    """The product of reduced symbols at n, a symmetrized, computed at m <= n.

    Let O be the (1, unit) points of b's model; Sym(O) fixes the model, so a
    conjugate of a whose cycles use k points of O lies in an orbit of size
    (n - s(b))_k / h at ambient n and (m - s(b))_k / h at m, with the same
    product up to unit fixed points.  So the class sums at m are collected
    per k and scaled by the ratio of the falling factorials, then by a's
    stabilizer order at n, as in the full symmetrization.
    """
    sa, sb = sum(a[0]), sum(b[0])
    m = min(n, sa + sb)
    terms, _ = to_sn(a, m)
    b_model = model_term(*pad_class(b, m))
    b_arrays = _term_arrays(b_model, m)
    per_k = {}
    for t in terms:
        # the points from s(b) on, in one pass, outside the (1, unit) cycles
        k = len([v for c, lab in t if lab != UNIT or len(c) > 1 for v in c if v >= sb])
        _expand(_orbit_factors(t, b_model, b_arrays), _reduced_key, per_k.setdefault(k, {}))
    mult = an_z(pad_class(a, n))
    acc = {}
    for k, sums in per_k.items():
        num, den = perm(n - sb, k), perm(m - sb, k)
        for key, v in sums.items():
            q, rem = divmod(v * num, den)
            if rem:
                raise ArithmeticError(f"orbit sum {v} at m={m} does not rescale to n={n}")
            if q:
                acc[key] = acc.get(key, 0) + q
    return {
        pad_class((tuple(p for p, _ in key), tuple(lab for _, lab in key)), n): mult * v
        for key, v in acc.items()
    }


def mult_an(a, b, n, *, canonical=False):
    """Product of two creation symbols at ambient n, as {symbol: int coeff}.

    Symbols heavier than n are the zero class, so the product is empty.  The
    S_n kernel symmetrizes the side with the larger stabilizer at the
    reduced ambient: it has the fewer conjugates, and (a, b) and (b, a) run
    the same computation.
    canonical=True takes a and b as canonical symbols, as the integral base
    change makes them, and does not validate them again.
    """
    if canonical:
        a, b = reduce_class(a), reduce_class(b)
    else:
        a = reduce_class(canonical_class(*a))
        b = reduce_class(canonical_class(*b))
    sa, sb = sum(a[0]), sum(b[0])
    if sa > n or sb > n:
        return {}
    m = min(n, sa + sb)
    if (an_z(pad_class(a, m)), a) < (an_z(pad_class(b, m)), b):
        a, b = b, a
    return _mult_kernel(a, b, n)
