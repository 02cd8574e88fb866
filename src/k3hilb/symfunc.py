"""Base change between power-sum and monomial symmetric functions, in integers.

psi(lam, mu), the coefficient of m_mu in p_lam, counts the ways to put the
parts of lam into l(mu) boxes with sums mu (Macdonald, Symmetric Functions and
Hall Polynomials, I.6).  A weight block of psi is lower triangular in the
canonical partition order (merging parts can only shorten a partition), with
diagonal psi(mu, mu) = prod_i m_i(mu)!; row mu of its inverse, scaled by that
diagonal, is integral and is solved from the diagonal down.  Blocks are
memoized whole.  A nonzero entry above the diagonal or an inexact division in
the solve raises ArithmeticError.
"""

from fractions import Fraction
from functools import cache

from .partitions import part_of_weight

__all__ = ["psi", "psi_inv"]


def _fill(parts, room, memo):
    """Ways to place `parts` into boxes with `room` left, filling every box."""
    if not parts:
        return int(not any(room))
    key = (parts, room)
    if key not in memo:
        p, rest = parts[0], parts[1:]
        memo[key] = sum(
            _fill(rest, tuple(sorted(room[:i] + (r - p,) + room[i + 1 :], reverse=True)), memo)
            for i, r in enumerate(room)
            if r >= p
        )
    return memo[key]


def _scaled_inverse(block):
    """Rows of the inverse of a lower-triangular integer block, row i scaled
    by block[i][i], solved in integers from the diagonal down."""
    k = len(block)
    if any(block[i][j] for i in range(k) for j in range(i + 1, k)):
        raise ArithmeticError("psi block is not lower triangular")
    rows = []
    for i in range(k):
        row = [0] * k
        row[i] = 1
        for j in range(i - 1, -1, -1):
            q, r = divmod(-sum(row[v] * block[v][j] for v in range(j + 1, i + 1)), block[j][j])
            if r:
                raise ArithmeticError(f"non-integral scaled psi^-1 entry at {(i, j)}")
            row[j] = q
        rows.append(tuple(row))
    return tuple(rows)


@cache
def _weight_block(w):
    basis = part_of_weight(w)
    memo = {}
    psi_block = tuple(tuple(_fill(lam, mu, memo) for mu in basis) for lam in basis)
    index = {p: i for i, p in enumerate(basis)}
    return index, psi_block, _scaled_inverse(psi_block)


def psi(lam, mu):
    """Integer coefficient of the monomial function m_mu in the power sum p_lam."""
    if sum(lam) != sum(mu):
        return 0
    index, psi_block, _ = _weight_block(sum(lam))
    return psi_block[index[tuple(lam)]][index[tuple(mu)]]


def psi_inv(mu, lam):
    """Exact rational coefficient of p_lam in the monomial function m_mu."""
    if sum(lam) != sum(mu):
        return Fraction(0)
    index, psi_block, inv_rows = _weight_block(sum(mu))
    i = index[tuple(mu)]
    return Fraction(inv_rows[i][index[tuple(lam)]], psi_block[i][i])
