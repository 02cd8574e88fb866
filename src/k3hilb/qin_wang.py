"""Base change with the integral basis, the integral cup product, and the
universal (polynomial-in-n) structure constants.

An integral-basis symbol expands into creation symbols label by label: the
unit-labeled subpartition contributes a single term weighted 1/z, the
point-labeled subpartition passes through, and each H^2-labeled subpartition
expands through the inverse power-sum/monomial base change.  The inverse
direction uses z and the forward base change, and always lands in integers.

A divisor class ([1],[alpha]), alpha in H^2, multiplies as a derivation on
the integral symbols themselves, in integers (_mult_divisor).  The other
factors of a product go to creation symbols, are multiplied in the
symmetric-group model and come back once, as integers over one denominator.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product
from math import factorial, lcm, prod
from typing import NamedTuple

from .hilb_basis import (
    an_sort_key,
    canonical_class,
    deg,
    pad_class,
    reduce_class,
)
from .k3 import POINT, bil
from .lehn_sorger import mult_an
from .partitions import part_of_weight, part_z
from .symfunc import psi, psi_inv

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


def _label_subparts(sym):
    """Split a symbol into its per-label subpartitions, labels ascending."""
    buckets = {}
    for p, l in zip(*sym):
        buckets.setdefault(l, []).append(p)
    return [
        (label, tuple(sorted(parts, reverse=True)))
        for label, parts in sorted(buckets.items())
    ]


def _tensor(factor_lists):
    """Combine per-label expansions into full symbols with multiplied weights;
    the labels differ, so every combination is its own symbol."""
    out = []
    for combo in product(*factor_lists):
        pairs = sorted((pair for pairs, _ in combo for pair in pairs), reverse=True)
        sym = (tuple(p for p, _ in pairs), tuple(l for _, l in pairs))
        out.append((sym, prod(c for _, c in combo)))
    return tuple(sorted(out))


@cache
def _int_to_crea_items(sym):
    """(den, items): the creation coefficients of sym as integers over den, the
    unit parts' z times the lcm of the psi_inv denominators of each H^2 label."""
    den, factors = 1, []
    for label, parts in _label_subparts(sym):
        if label == 0:
            den *= part_z(parts)
        if label in (0, 23):
            opts = [(parts, 1)]
        else:
            opts = [(rho, psi_inv(parts, rho)) for rho in part_of_weight(sum(parts))]
            d = lcm(*(c.denominator for _, c in opts))
            den *= d
            opts = [(rho, c.numerator * d // c.denominator) for rho, c in opts if c]
        factors.append([(tuple((p, label) for p in rho), c) for rho, c in opts])
    return den, _tensor(factors)


@cache
def _crea_to_int_items(sym):
    factors = []
    for label, parts in _label_subparts(sym):
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


def _to_integral(acc, den):
    """The integral coefficients of the creation class acc / den, divided exactly."""
    out = {}
    for e, v in acc.items():
        for s, c in _crea_to_int_items(e):
            out[s] = out.get(s, 0) + v * c
    for v in out.values():
        if v % den:
            raise NonIntegralError(f"non-integral coefficient {Fraction(v, den)}")
    return {s: v // den for s, v in out.items() if v}


def _mult_divisor(alpha, sym):
    """The padded canonical symbol sym times ([1],[alpha]), alpha in H^2, as
    {padded symbol: int}: the derivation q_k(b) -> k*q_k(alpha.b) (Lehn,
    Invent. Math. 136, 1999) on the integral symbols.  A unit part k moves to
    alpha (p_k times the alpha parts' m_mu; the 1/z factors cancel exactly).
    Parts kappa of an H^2 label b, of length l, move as one part |kappa| to the
    point with B(alpha, b)*(-1)^(l-1)*|kappa|*(l-1)!/prod m_i(kappa)!, the
    coefficient of m_(mu-kappa) in |kappa|*dm_mu/dp_|kappa|.  Point parts
    contribute nothing.
    """
    pairs = list(zip(*sym))
    groups = {}
    for (p, l), m in Counter(pairs).items():
        groups.setdefault(l, {})[p] = m
    mu = groups.get(alpha, {})
    moves = [  # (pairs dropped, pair added, coefficient)
        ([(k, 0)] + [(j, alpha)] * (j > 0), (j + k, alpha), mu.get(j + k, 0) + 1)
        for k in groups.get(0, ())
        for j in (0, *mu)
    ]
    for beta, kappa in groups.items():
        b = bil(alpha, beta) if 0 < beta < POINT else 0
        for counts in product(*(range(m + 1) for m in kappa.values())) if b else ():
            drop = [(p, beta) for p, m in zip(kappa, counts) for _ in range(m)]
            size, length = sum(p for p, _ in drop), len(drop)
            if length:
                c = size * factorial(length - 1) // prod(map(factorial, counts))
                moves.append((drop, (size, POINT), b * (-1) ** (length - 1) * c))
    out = {}
    for drop, new, c in moves:
        rest = pairs + [new]
        for pair in drop:
            rest.remove(pair)
        rest.sort(reverse=True)
        out[tuple(zip(*rest))] = c
    return out


def _divisor(sym):
    """alpha if the padded symbol sym is ([1],[alpha]), alpha in H^2, else 0."""
    parts, labels = sym
    return labels[0] if parts[:1] == (1,) and 0 < labels[0] == sum(labels) < POINT else 0


def _cup(factors, n, canonical=False):
    """Divisor classes act by _mult_divisor; the other factors are multiplied
    as creation numerators over one denominator and divided back exactly."""
    padded = [pad_class(f if canonical else canonical_class(*f), n) for f in factors]
    if None in padded:
        return {}
    alphas = [a for a in map(_divisor, padded) if a]
    rest = [s for s in padded if not _divisor(s)]
    if not rest:  # only divisor classes: start from the first
        rest, alphas = padded[:1], alphas[1:]
    acc = {rest[0]: 1}
    if len(rest) > 1:
        den, items = _int_to_crea_items(rest[0])
        acc = dict(items)
        for d, items in map(_int_to_crea_items, rest[1:]):
            acc = _crea_product(acc, items, n)
            den *= d
        acc = _to_integral(acc, den)
    for alpha in alphas:
        nxt = {}
        for s, v in acc.items():
            for t, c in _mult_divisor(alpha, s).items():
                nxt[t] = nxt.get(t, 0) + v * c
        acc = {t: v for t, v in nxt.items() if v}
    return acc


def cup_int(a, b, n):
    """Cup product of two integral classes on Hilb^n, as {symbol: int}."""
    return _cup((a, b), n)


def cup_int_list(factors, n, *, canonical=False):
    """Cup product of a list of integral classes; equals iterated cup_int.

    Divisor classes act by _mult_divisor; the others stay in the creation
    basis until the end.  canonical=True takes the factors as canonical
    symbols, as `hilb_base` makes them, and does not validate them again.
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
