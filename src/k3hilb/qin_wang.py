"""Base change with the integral basis, the integral cup product, and the
universal (polynomial-in-n) structure constants.

An integral-basis symbol expands into creation symbols label by label: the
unit-labeled subpartition contributes a single term weighted 1/z, the
point-labeled subpartition passes through, and each H^2-labeled subpartition
expands through the inverse power-sum/monomial base change.  The inverse
direction uses z and the forward base change, and always lands in integers.

Every degree-2 class acts on the integral symbols themselves, in integers,
through Lehn's operators read as moves of parts between labels: ([1],[alpha])
as a derivation (_mult_divisor) and ([2],[gamma]) as a cut-and-join
(_mult_boundary).  So does every class of cycle type (1^n) or (2, 1^k) whose
H^2 labels are pairwise distinct, or (1^n) with one H^2 label twice, through
those two moves (_mult_identity, _mult_two_cycle, _mult_doubled).  The other
factors of a product go to creation symbols, are multiplied in the
symmetric-group model and come back once, as integers over one denominator.
"""

from collections import Counter
from fractions import Fraction
from functools import cache, partial
from itertools import combinations, product
from math import factorial, gcd, prod
from typing import NamedTuple

from . import k3
from .hilb_basis import (
    an_sort_key,
    canonical_class,
    deg,
    label_groups,
    pad_class,
    reduce_class,
)
from .k3 import POINT, UNIT
from .lehn_sorger import mult_an
from .partitions import part_of_weight, part_z
from .symfunc import _weight_block, psi

__all__ = [
    "int_to_crea",
    "crea_to_int",
    "cup_int",
    "cup_int_list",
    "cup_universal",
    "UniversalCoeff",
    "NonIntegralError",
]


class NonIntegralError(ArithmeticError):
    """A coefficient that must be an integer came out fractional."""


def _tensor(factor_lists):
    """Combine per-label expansions into full symbols with multiplied weights;
    the labels differ, so every combination is its own symbol."""
    out = []
    for combo in product(*factor_lists):
        pairs = sorted((pair for pairs, _ in combo for pair in pairs), reverse=True)
        sym = (tuple(p for p, _ in pairs), tuple(l for _, l in pairs))
        out.append((sym, prod(c for _, c in combo)))
    return tuple(sorted(out))


def _int_to_crea_items(sym):
    """(den, items): the creation coefficients of the padded canonical symbol
    sym as integers over den, the unit parts' z times, per H^2 label, the
    denominator of its psi^-1 row."""
    den, factors = 1, []
    for label, parts in label_groups(sym).items():
        if label == 0:
            den *= part_z(parts)
        if label in (0, 23):
            opts = [(parts, 1)]
        else:
            # the row of psi^-1 scaled by its diagonal d, in lowest terms
            w = sum(parts)
            index, block, inv_rows = _weight_block(w)
            i = index[parts]
            row = inv_rows[i]
            g = gcd(block[i][i], *row)
            den *= block[i][i] // g
            opts = [(rho, r // g) for rho, r in zip(part_of_weight(w), row) if r]
        factors.append([(tuple((p, label) for p in rho), c) for rho, c in opts])
    return den, _tensor(factors)


def _crea_to_int_items(sym):
    factors = []
    for label, parts in label_groups(sym).items():
        if label in (0, 23):
            opts = [(parts, part_z(parts) if label == 0 else 1)]
        else:
            opts = [(nu, psi(parts, nu)) for nu in part_of_weight(sum(parts))]
        factors.append([(tuple((p, label) for p in nu), c) for nu, c in opts if c])
    return _tensor(factors)


def int_to_crea(sym, n):
    """Expand an integral-basis symbol into creation symbols at ambient n.

    Exact rational coefficients; the zero class (overweight symbol) gives {}.
    """
    padded = pad_class(canonical_class(*sym), n)
    den, items = _int_to_crea_items(padded) if padded else (1, ())
    return {s: Fraction(v, den) for s, v in items}


def crea_to_int(sym, n):
    """Expand a creation symbol in the integral basis; integer coefficients."""
    padded = pad_class(canonical_class(*sym), n)
    if padded is None:
        return {}
    return dict(_crea_to_int_items(padded))


def _crea_product(acc, items, n):
    out = {}
    for p, va in acc.items():
        for q, vb in items:
            w = va * vb
            for e, z in mult_an(p, q, n, canonical=True).items():
                out[e] = out.get(e, 0) + w * z
    return {e: v for e, v in out.items() if v}


def _divide(vec, den):
    """The vector vec / den, divided exactly."""
    for v in vec.values():
        if v % den:
            raise NonIntegralError(f"non-integral coefficient {Fraction(v, den)}")
    return {s: v // den for s, v in vec.items() if v}


def _to_integral(acc, den):
    """The integral coefficients of the creation class acc / den, divided exactly."""
    out = {}
    for e, v in acc.items():
        for s, c in _crea_to_int_items(e):
            out[s] = out.get(s, 0) + v * c
    return _divide(out, den)


# Multiplication by a degree-2 class on the integral symbols.  Each label's
# parts mu stand for one symmetric function in the creation operators of that
# label: p_mu/z_mu for the unit, m_mu for an H^2 label and p_mu for the
# point.  A state {label: parts} is a padded symbol grouped by label.


def _kind(label):
    """The label's function type: UNIT, POINT, or 1 for an H^2 label."""
    return label if label in (UNIT, POINT) else 1


def _without(parts, p):
    i = parts.index(p)
    return parts[:i] + parts[i + 1 :]


def _with(parts, p):
    return tuple(sorted((*parts, p), reverse=True))


@cache
def _removals(kind, parts):
    """k*d/dp_k of one label's function of `parts`, for every k, as (k, rest, c).

    A unit part k goes with c = 1 (the 1/z factors cancel) and a point part k
    with c = k*m_k.  An H^2 label drops a sub-multiset kappa, |kappa| = k,
    with c = (-1)^(l-1)*k*(l-1)!/prod m_i(kappa)!, l = l(kappa): the
    coefficient of m_(mu-kappa) in k*dm_mu/dp_k.
    """
    counts = Counter(parts)
    if kind != 1:
        return tuple((k, _without(parts, k), 1 if kind == UNIT else k * m) for k, m in counts.items())
    out = []
    for drop in product(*(range(m + 1) for m in counts.values())):
        length = sum(drop)
        if length:
            k = sum(p * d for p, d in zip(counts, drop))
            c = k * factorial(length - 1) // prod(map(factorial, drop))
            rest = tuple(p for (p, m), d in zip(counts.items(), drop) for _ in range(m - d))
            out.append((k, rest, (-1) ** (length - 1) * c))
    return tuple(out)


@cache
def _additions(kind, parts, k):
    """p_k times one label's function of `parts`, as (new parts, c).

    The unit takes a new part k with c = k*m_k of the result, the point one
    with c = 1.  An H^2 label grows a part j in {0} and its parts to j + k,
    with c the multiplicity of j + k in the result.
    """
    if kind != 1:
        new = _with(parts, k)
        return ((new, k * new.count(k) if kind == UNIT else 1),)
    out = []
    for j in dict.fromkeys((0, *parts)):
        new = _with(_without(parts, j) if j else parts, j + k)
        out.append((new, new.count(j + k)))
    return tuple(out)


def _symbol(state):
    """The canonical symbol of a state."""
    pairs = [(p, l) for l, parts in state.items() for p in parts]
    pairs.sort(reverse=True)
    return tuple(zip(*pairs))


def _mult_divisor(alpha, sym):
    """The padded canonical symbol sym times ([1],[alpha]), alpha in H^2 or the
    point, as {padded symbol: int}: the derivation q_k(b) -> k*q_k(alpha.b)
    (Lehn, Invent. Math. 136, 1999), that is R_k = k*d/dp_k on each label b
    (_removals) followed by p_k on alpha.b (_additions).  A unit part moves to
    alpha, the parts of an H^2 label b to the point with B(alpha, b), and
    point parts stay; for alpha the point only the unit parts move.
    """
    groups = label_groups(sym)
    out = {}
    for l, parts in groups.items():
        for r, u in k3.cup_items(alpha, l):
            for k, rest, c in _removals(_kind(l), parts):
                for new, x in _additions(_kind(r), rest if r == l else groups.get(r, ()), k):
                    t = _symbol({**groups, l: rest, r: new})
                    out[t] = out.get(t, 0) + c * u * x
    return {t: v for t, v in out.items() if v}


def _mult_boundary(sym, gamma=UNIT):
    """The padded canonical symbol sym times ([2],[gamma]), as {padded
    symbol: int}; gamma = UNIT is the boundary class.

    Lehn's cut-and-join operator (Invent. Math. 136, 1999) as moves of parts
    between labels, gamma cupped into each (Lehn and Sorger, Duke Math. J.
    110, 2001).  Summed over ordered choices, the cuts, R_k on a label l,
    then p_j on l1 and p_(k-j) on l2 for 0 < j < k and each term l1 (x) l2 of
    the coproduct of gamma.l, and the joins, R_k on l, R_k' on m, then
    p_(k+k') on gamma.l.m, give p_2(gamma): ([2],[gamma]) for gamma in H^2
    or the point, twice the boundary class p_2/z_2, halved exactly.
    """
    groups = label_groups(sym)
    out = {}
    for l, parts in groups.items():
        cuts = k3.cup_items(gamma, l)
        for k, rest, c in _removals(_kind(l), parts):
            cut = {**groups, l: rest}
            for r, u in cuts:
                for (l1, l2), x in k3._coprod_items(2, r):
                    for j in range(1, k):
                        for p1, x1 in _additions(_kind(l1), cut.get(l1, ()), j):
                            p2s = _additions(_kind(l2), p1 if l2 == l1 else cut.get(l2, ()), k - j)
                            for p2, x2 in p2s:
                                t = _symbol({**cut, l1: p1, l2: p2})
                                out[t] = out.get(t, 0) + c * u * x * x1 * x2
            for m, parts_m in cut.items():
                joins = k3.cup_items(gamma, l, m)
                for k2, rest2, c2 in _removals(_kind(m), parts_m) if joins else ():
                    for r, u in joins:
                        for new, x in _additions(_kind(r), rest2 if r == m else cut.get(r, ()), k + k2):
                            t = _symbol({**cut, m: rest2, r: new})
                            out[t] = out.get(t, 0) + c * c2 * u * x
    return _divide(out, 2 if gamma == UNIT else 1)


def _apply(op, vec):
    """The operator op, {symbol: int} -> {symbol: int}, on the vector vec."""
    out = {}
    for s, v in vec.items():
        for t, c in op(s).items():
            out[t] = out.get(t, 0) + v * c
    return {t: v for t, v in out.items() if v}


def _mult_identity(labels, sym):
    """The padded canonical symbol sym times I(A), the padded class of cycle
    type (1^n) with non-unit labels A = `labels`, as {padded symbol: int}.
    An H^2 label may appear twice here only as one term of _mult_doubled.

    In Lehn and Sorger's model (Invent. Math. 152, 2003) I(A) is the sum over
    the injective placements of A into the n points, all in the identity
    sector.  Peel the first label a: D_a = _mult_divisor(a, .) places a on
    every point of each placement of A - a.  A free point gives I(A), a point
    of the point class 0, and the point of a label b gives a.b = B(a, b) times
    the point class, a term of I(A - a - b + pt) = D_pt I(A - a - b).  So

        I(A) = D_a I(A - a) - sum_(b in A - a) B(a, b) D_pt I(A - a - b),

    with I of no labels the class 1.
    """
    if not labels:
        return {sym: 1}
    a, rest = labels[0], labels[1:]
    out = _apply(partial(_mult_divisor, a), _mult_identity(rest, sym))
    d_pt = partial(_mult_divisor, POINT)
    for i, b in enumerate(rest):
        if c := k3.bil(a, b):
            for t, v in _apply(d_pt, _mult_identity(rest[:i] + rest[i + 1 :], sym)).items():
                out[t] = out.get(t, 0) - c * v
    return {t: v for t, v in out.items() if v}


def _mult_two_cycle(gamma, labels, sym):
    """The padded canonical symbol sym times C(gamma; A), the padded class of
    cycle type (2, 1^k) with gamma on the 2-cycle and the non-unit labels A
    on 1-cycles, its H^2 labels pairwise distinct, as {padded symbol: int}.

    In Lehn and Sorger's model C(gamma; A) is 1/h times the sum over the
    transpositions labelled gamma and the injective placements of A off
    their points, h = 2 for gamma the unit, else 1.  M_gamma I_A, with
    M_gamma = _mult_boundary(., gamma) and I_A = _mult_identity(A, .), also
    puts a label a, or two labels a, b, on those points, 2 ways each:

        C(gamma; A) = M_gamma I_A - (2/h) (sum_a C(gamma.a; A - a)
                                            + sum_{a, b} C(gamma.a.b; A - a - b))
    """
    out = _apply(partial(_mult_boundary, gamma=gamma), _mult_identity(labels, sym))
    w = 1 if gamma == UNIT else 2
    index = range(len(labels))
    for on in (*combinations(index, 1), *combinations(index, 2)):  # on the 2-cycle
        rest = tuple(l for p, l in enumerate(labels) if p not in on)
        for r, u in k3.cup_items(gamma, *(labels[p] for p in on)):
            for t, v in _mult_two_cycle(r, rest, sym).items():
                out[t] = out.get(t, 0) - w * u * v
    return {t: v for t, v in out.items() if v}


def _mult_doubled(alpha, labels, sym):
    """The padded canonical symbol sym times the padded class of cycle type
    (1^n) with non-unit labels `labels`, alpha in H^2 twice and every other
    H^2 label once, as {padded symbol: int}: m_(1,1)(alpha) = (p_1(alpha)^2
    - p_2(alpha))/2, so the identity-sector class with alpha placed twice,
    minus C(alpha; the other labels), halved exactly."""
    out = _mult_identity(labels, sym)
    for t, v in _mult_two_cycle(alpha, tuple(l for l in labels if l != alpha), sym).items():
        out[t] = out.get(t, 0) - v
    return _divide(out, 2)


def _operator(sym):
    """The action of the padded symbol sym as a factor, or None.

    ([1],[alpha]), alpha in H^2, and ([2],[0]) are tested first, in O(1).
    Then a class of cycle type (1^n) or (2, 1^k) with distinct H^2 labels,
    or (1^n) with one H^2 label twice.  A label three times, two doubled
    labels or the 2-cycle's H^2 label on a 1-cycle need a longer cycle.
    """
    parts, labels = sym
    if parts[:1] == (1,) and 0 < labels[0] == sum(labels) < POINT:
        return partial(_mult_divisor, labels[0])
    if parts[:1] == (2,) and sum(parts) == len(parts) + 1 and not any(labels):
        return _mult_boundary
    if parts[:1] not in ((1,), (2,)) or sum(parts) != len(parts) + parts[0] - 1:
        return None
    h2 = [l for l in labels if 0 < l < POINT]
    repeats = len(h2) - len(set(h2))
    ones = tuple(filter(None, labels[parts[0] - 1 :]))  # the 1-cycles' labels
    if parts[0] == 2 and not repeats:
        return partial(_mult_two_cycle, labels[0], ones)
    if parts[0] == 1 and repeats <= 1:  # labels sort descending, so twice is adjacent
        doubled = [a for a, b in zip(h2, h2[1:]) if a == b]
        return partial(_mult_doubled, doubled[0], ones) if doubled else partial(_mult_identity, ones)
    return None


def _start(ops):
    """The factor a product of operators alone starts from: the first that
    takes _mult_two_cycle or _mult_doubled, the dearest to apply, else the
    boundary class, else the first."""
    for i, op in enumerate(ops):
        if getattr(op, "func", None) in (_mult_two_cycle, _mult_doubled):
            return i
    return ops.index(_mult_boundary) if _mult_boundary in ops else 0


def _cup(factors, n, canonical=False):
    """The factors that are operators (_operator) act on the integral
    symbols; the others are multiplied as creation numerators over one
    denominator and divided back exactly.  A product of operator factors
    alone starts from the factor _start picks."""
    padded = [pad_class(f if canonical else canonical_class(*f), n) for f in factors]
    if None in padded:
        return {}
    ops = list(map(_operator, padded))
    rest = [s for s, op in zip(padded, ops) if op is None]
    if not rest:  # only operators
        i = _start(ops)
        rest = [padded[i]]
        del ops[i]
    acc = {rest[0]: 1}
    if len(rest) > 1:
        den, items = _int_to_crea_items(rest[0])
        acc = dict(items)
        for d, items in map(_int_to_crea_items, rest[1:]):
            acc = _crea_product(acc, items, n)
            den *= d
        acc = _to_integral(acc, den)
    for op in filter(None, ops):
        acc = _apply(op, acc)
    return acc


def cup_int(a, b, n):
    """Cup product of two integral classes on Hilb^n, as {symbol: int}."""
    return _cup((a, b), n)


def cup_int_list(factors, n, *, canonical=False):
    """Cup product of a list of integral classes; equals iterated cup_int.

    Classes of cycle type (1^n) or (2, 1^k) with distinct H^2 labels, or
    (1^n) with one H^2 label twice, act on the integral symbols (_operator);
    the others stay in the creation basis until the end.  canonical=True
    takes the factors as canonical symbols, as `hilb_base` makes them, and
    does not validate them again.
    """
    if not factors:
        raise ValueError("need at least one factor")
    return _cup(factors, n, canonical)


# ---------------------------------------------------------------------------
# universal structure constants


class UniversalCoeff(NamedTuple):
    """A reduced target symbol with its coefficient polynomial in n (ascending)."""

    target: tuple
    poly: tuple

    def evaluate(self, n):
        acc = Fraction(0)
        for c in reversed(self.poly):
            acc = acc * n + c
        return acc

    def pretty(self):
        terms = []
        for i, c in enumerate(self.poly):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*n")
            else:
                terms.append(f"{c}*n^{i}")
        return "c(n) = " + (" + ".join(terms) if terms else "0")


class UniversalDegreeError(ArithmeticError):
    """A validation sample disagreed with the interpolated polynomial."""


def _lagrange(points):
    coeffs = [Fraction(0)] * len(points)
    for xi, yi in points:
        basis = [Fraction(1)]
        denom = Fraction(1)
        for xj, _ in points:
            if xj == xi:
                continue
            basis = [Fraction(0)] + basis
            for k in range(len(basis) - 1):
                basis[k] -= basis[k + 1] * xj
            denom *= xi - xj
        w = Fraction(yi) / denom
        for k, c in enumerate(basis):
            coeffs[k] += w * c
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def cup_universal(a, b):
    """The structure-constant polynomials c(n) of a product of reduced symbols.

    Products are sampled at consecutive ambient sizes starting at
    max(weight(a), weight(b)); each reduced target of weight w is interpolated
    from samples with n >= w, one spare sample per target cross-checks the
    degree bound weight(a) + weight(b) - w.
    """
    a = reduce_class(canonical_class(*a))
    b = reduce_class(canonical_class(*b))
    wa, wb = sum(a[0]), sum(b[0])
    n0 = max(wa, wb)
    total_deg = deg(a) + deg(b)
    min_target_weight = (total_deg + 3) // 4
    max_degree = wa + wb - min_target_weight
    top = max(wa + wb + 1, n0 + max_degree + 1)

    samples = {}
    for n in range(n0, top + 1):
        samples[n] = {
            reduce_class(sym): c for sym, c in cup_int(a, b, n).items()
        }

    targets = sorted({t for obs in samples.values() for t in obs}, key=an_sort_key)
    out = []
    for target in targets:
        wt = sum(target[0])
        bound = wa + wb - wt
        nodes = [n for n in range(max(n0, wt), top + 1)]
        interp_nodes = nodes[: bound + 1]
        points = [(n, samples[n].get(target, 0)) for n in interp_nodes]
        poly = _lagrange(points)
        uc = UniversalCoeff(target, poly)
        for n in nodes[bound + 1 :]:
            expected = samples[n].get(target, 0)
            if uc.evaluate(n) != expected:
                raise UniversalDegreeError(
                    f"target {target}: interpolant predicts {uc.evaluate(n)} "
                    f"at n={n} but the product gives {expected}"
                )
        out.append(uc)
    return out
