"""Base change between power-sum and monomial symmetric functions.

All arithmetic is exact: the matrix psi (power sums in terms of monomials) is
integral, its inverse is rational.  Whole weight blocks are computed at once
and memoized, since downstream basis conversions hit the same blocks over and
over.

The block for weight w is built from the Hall scalar products <m_mu, p_lam>:
expanding the augmented monomial function over set partitions of the parts of
mu gives its power-sum expansion with Moebius weights, and the power sums are
orthogonal with <p_lam, p_lam> = z_lam.  psi is then obtained by inverting the
block, which is lower triangular in the canonical partition order (merging
parts can only shorten a partition).
"""

from fractions import Fraction
from functools import cache
from math import factorial

from . import store
from .partitions import as_alpha, part_of_weight, part_z

__all__ = [
    "psi",
    "psi_inv",
    "monomial_scalar_power",
    "invert_lower_triangular",
]


def _set_partitions(n):
    """All set partitions of range(n) as tuples of blocks (tuples of indices)."""
    if n == 0:
        yield ()
        return
    for rest in _set_partitions(n - 1):
        element = n - 1
        yield rest + ((element,),)
        for i, block in enumerate(rest):
            yield rest[:i] + (block + (element,),) + rest[i + 1 :]


def invert_lower_triangular(basis, entry):
    """Invert a lower-triangular matrix given as a function on basis pairs.

    `entry(a, b)` must vanish whenever a precedes b in `basis`, with nonzero
    diagonal.  Returns the inverse as a function; raises ValueError on a zero
    diagonal entry.  Exact rationals throughout.
    """
    position = {b: i for i, b in enumerate(basis)}
    memo = {}

    def inv(a, b):
        i, j = position[a], position[b]
        if i < j:
            return Fraction(0)
        key = (i, j)
        if key in memo:
            return memo[key]
        diag = Fraction(entry(a, a))
        if diag == 0:
            raise ValueError(f"zero diagonal entry at {a}")
        if i == j:
            value = 1 / diag
        else:
            acc = Fraction(0)
            for k in range(j, i):
                e = entry(a, basis[k])
                if e:
                    acc += Fraction(e) * inv(basis[k], b)
            value = -acc / diag
        memo[key] = value
        return value

    return inv


def _build_block(w):
    basis = part_of_weight(w)
    index = {p: i for i, p in enumerate(basis)}
    k = len(basis)

    # Moebius-weighted refinement counts: acc[mu][lam] is the coefficient of
    # p_lam in the augmented monomial function of mu.
    acc = [[0] * k for _ in range(k)]
    for mi, mu in enumerate(basis):
        for blocks in _set_partitions(len(mu)):
            merged = tuple(sorted((sum(mu[b] for b in block) for block in blocks), reverse=True))
            mob = 1
            for block in blocks:
                c = len(block) - 1
                mob *= (-1) ** c * factorial(c)
            acc[mi][index[merged]] += mob

    inv_block = []
    for mi, mu in enumerate(basis):
        norm = 1
        for m in as_alpha(mu):
            norm *= factorial(m)
        inv_block.append(tuple(Fraction(acc[mi][j], norm) for j in range(k)))
    inv_block = tuple(inv_block)

    # psi = inverse of the psi^-1 block; lower triangular in canonical order.
    if any(inv_block[i][j] for i in range(k) for j in range(i + 1, k)):
        raise ArithmeticError(f"psi^-1 block of weight {w} is not lower triangular")
    inv_fn = invert_lower_triangular(basis, lambda a, b: inv_block[index[a]][index[b]])
    psi_frac = [[inv_fn(basis[i], basis[j]) for j in range(k)] for i in range(k)]
    for row in psi_frac:
        for x in row:
            if x.denominator != 1:
                raise ArithmeticError(f"non-integral psi entry {x} at weight {w}")
    psi_block = tuple(tuple(int(x) for x in row) for row in psi_frac)
    return basis, index, inv_block, psi_block


@cache
def _weight_block(w):
    key = {"kind": "psi_block", "weight": w}

    def encode(block):
        _, _, inv_block, psi_block = block
        return {
            "psi_inv": [[[str(x.numerator), str(x.denominator)] for x in row] for row in inv_block],
            "psi": [[str(x) for x in row] for row in psi_block],
        }

    def decode(payload):
        basis = part_of_weight(w)
        index = {p: i for i, p in enumerate(basis)}
        inv_block = tuple(
            tuple(Fraction(int(n), int(d)) for n, d in row) for row in payload["psi_inv"]
        )
        psi_block = tuple(tuple(int(x) for x in row) for row in payload["psi"])
        return basis, index, inv_block, psi_block

    return store.cached(key, lambda: _build_block(w), encode=encode, decode=decode)


def psi(lam, mu):
    """Integer coefficient of the monomial function m_mu in the power sum p_lam."""
    if sum(lam) != sum(mu):
        return 0
    basis, index, _, psi_block = _weight_block(sum(lam))
    return psi_block[index[tuple(lam)]][index[tuple(mu)]]


def psi_inv(mu, lam):
    """Exact rational coefficient of p_lam in the monomial function m_mu."""
    if sum(lam) != sum(mu):
        return Fraction(0)
    basis, index, inv_block, _ = _weight_block(sum(mu))
    return inv_block[index[tuple(mu)]][index[tuple(lam)]]


def monomial_scalar_power(mu, lam):
    """Hall scalar product <m_mu, p_lam>; an integer, zero across weights."""
    if sum(lam) != sum(mu):
        return 0
    value = psi_inv(mu, lam) * part_z(tuple(lam))
    if value.denominator != 1:
        raise ArithmeticError(f"<m_{mu}, p_{lam}> = {value} is not integral")
    return int(value)
