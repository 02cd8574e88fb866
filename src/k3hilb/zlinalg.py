"""Exact integer linear algebra: Smith normal form, cokernels, and invariants
of symmetric forms (signature, parity, unimodularity).

Matrices are plain lists of rows of Python integers, so nothing ever
overflows.  The Smith reduction picks the remaining entry of least absolute
value as pivot, which keeps coefficient growth tolerable on the large
cup-product matrices this library produces.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

__all__ = [
    "smith_normal_form",
    "cokernel",
    "CokernelStructure",
    "image_order",
    "signature",
    "parity",
    "rank",
    "has_full_column_rank",
    "is_unimodular_gram",
    "identity_matrix",
    "mat_vec",
    "write_matrix",
    "read_matrix",
]


def identity_matrix(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def _row_hermite(a, u, row0, col0):
    """Row echelon reduction over Z of the block a[row0:, col0:], in place.

    Entries above each new pivot are immediately reduced modulo the pivot,
    which keeps all entries determinant-bounded instead of letting repeated
    eliminations square them; this is what makes Smith reduction of the large
    cup-product matrices feasible without modular arithmetic.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    r = row0
    prev_rows = []
    for col in range(col0, n):
        piv = None
        for i in range(r, m):
            if a[i][col] and (piv is None or abs(a[i][col]) < abs(a[piv][col])):
                piv = i
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            if u is not None:
                u[r], u[piv] = u[piv], u[r]
        while True:
            p = a[r][col]
            swapped = False
            for i in range(r + 1, m):
                val = a[i][col]
                if val:
                    q = val // p
                    if q:
                        arow, irow = a[r], a[i]
                        irow[col:] = [x - q * y for x, y in zip(irow[col:], arow[col:])]
                        if u is not None:
                            urow, uirow = u[r], u[i]
                            u[i] = [x - q * y for x, y in zip(uirow, urow)]
                    if a[i][col]:
                        a[r], a[i] = a[i], a[r]
                        if u is not None:
                            u[r], u[i] = u[i], u[r]
                        swapped = True
                        break
            if not swapped:
                break
        if a[r][col] < 0:
            a[r] = [-x for x in a[r]]
            if u is not None:
                u[r] = [-x for x in u[r]]
        p = a[r][col]
        for j in prev_rows:
            val = a[j][col]
            q = val // p
            if q:
                arow, jrow = a[r], a[j]
                jrow[col:] = [x - q * y for x, y in zip(jrow[col:], arow[col:])]
                if u is not None:
                    urow, ujrow = u[r], u[j]
                    u[j] = [x - q * y for x, y in zip(ujrow, urow)]
        prev_rows.append(r)
        r += 1
        if r == m:
            break


def _col_hermite(a, row0, col0):
    """Column echelon reduction of the block a[row0:, col0:], in place."""
    m = len(a)
    n = len(a[0]) if m else 0
    r = col0
    prev_cols = []

    def col_op(dst, src, q):
        for row in a[row0:]:
            row[dst] -= q * row[src]

    def col_swap(i, j):
        for row in a[row0:]:
            row[i], row[j] = row[j], row[i]

    for rowi in range(row0, m):
        piv = None
        arow = a[rowi]
        for j in range(r, n):
            if arow[j] and (piv is None or abs(arow[j]) < abs(arow[piv])):
                piv = j
        if piv is None:
            continue
        if piv != r:
            col_swap(r, piv)
        while True:
            p = arow[r]
            swapped = False
            for j in range(r + 1, n):
                val = arow[j]
                if val:
                    q = val // p
                    if q:
                        col_op(j, r, q)
                    if arow[j]:
                        col_swap(r, j)
                        swapped = True
                        break
            if not swapped:
                break
        if arow[r] < 0:
            for row in a[row0:]:
                row[r] = -row[r]
        p = arow[r]
        for j in prev_cols:
            q = arow[j] // p
            if q:
                col_op(j, r, q)
        prev_cols.append(r)
        r += 1
        if r == n:
            break


_RECONDITION_DIM = 64
_RECONDITION_BITS = 192
_RECONDITION_EVERY = 16


def _needs_recondition(a, t, m, n):
    for i in range(t, m):
        row = a[i]
        for j in range(t, n):
            if row[j].bit_length() > _RECONDITION_BITS:
                return True
    return False


def smith_normal_form(mat, transforms=False):
    """Invariant factors of an integer matrix, optionally with the row transform.

    Returns the list of positive invariant factors d_1 | d_2 | ... | d_r
    (r = rank); with transforms=True returns (factors, U) where U is
    unimodular and U * mat * V is the diagonal Smith form for some unimodular
    V.  Column operations never touch U, so V is not built: rows r and beyond
    of U * mat vanish and d_i divides row i, which is all that the order of
    an image in the cokernel depends on.

    Pivots are the remaining entries of least absolute value.  Large inputs
    get a Hermite reconditioning pass up front and whenever entries swell,
    which keeps the arithmetic determinant-bounded.
    """
    a = [[int(x) for x in row] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ValueError("ragged matrix")
    u = identity_matrix(m) if transforms else None

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, f, start):
        # columns left of `start` are already cleared in both rows
        asrc, adst = a[src], a[dst]
        adst[start:] = [x + f * y for x, y in zip(adst[start:], asrc[start:])]
        if u is not None:
            usrc, udst = u[src], u[dst]
            u[dst] = [x + f * y for x, y in zip(udst, usrc)]

    def add_col(src, dst, f, start):
        for row in a[start:]:
            row[dst] += f * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]

    limit = min(m, n)
    recondition = limit >= _RECONDITION_DIM
    if recondition:
        _row_hermite(a, u, 0, 0)
        _col_hermite(a, 0, 0)
    t = 0
    while t < limit:
        if recondition and t and t % _RECONDITION_EVERY == 0 and _needs_recondition(a, t, m, n):
            _row_hermite(a, u, t, t)
            _col_hermite(a, t, t)
        # minimal-absolute-value pivot in the remaining submatrix
        best = None
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                val = row[j]
                if val:
                    size = abs(val)
                    if best is None or size < best[0]:
                        best = (size, i, j)
                        if size == 1:
                            break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)

        while True:
            if a[t][t] < 0:
                negate_row(t)
            p = a[t][t]
            dirty = False
            for i in range(t + 1, m):
                val = a[i][t]
                if val:
                    q = val // p
                    if q:
                        add_row(t, i, -q, t)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n):
                val = a[t][j]
                if val:
                    q = val // p
                    if q:
                        add_col(t, j, -q, t)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # pivot row and column are clean; enforce divisibility
            p = a[t][t]
            if p == 1:
                break
            offender = None
            for i in range(t + 1, m):
                row = a[i]
                for j in range(t + 1, n):
                    if row[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1, t)

        t += 1

    factors = [a[i][i] for i in range(limit) if a[i][i]]
    if transforms:
        return factors, u
    return factors


@dataclass(frozen=True)
class CokernelStructure:
    """Torsion invariant factors (each > 1, in a divisibility chain) + free rank."""

    torsion: tuple
    free_rank: int

    @classmethod
    def from_factors(cls, factors, rows):
        """The cokernel of a matrix with `rows` rows and these invariant factors."""
        return cls(torsion=tuple(d for d in factors if d != 1), free_rank=rows - len(factors))

    def describe(self):
        parts = [f"Z/{d}" for d in self.torsion]
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"


def dedup_columns(mat):
    """Drop duplicate and zero columns; the column span is unchanged."""
    if not mat or not mat[0]:
        return [row[:] for row in mat]
    seen = set()
    keep = []
    for j, col in enumerate(zip(*mat)):
        if any(col) and col not in seen:
            seen.add(col)
            keep.append(j)
    return [[row[j] for j in keep] for row in mat]


def cokernel(mat):
    """Structure of Z^rows / column-span(mat)."""
    return CokernelStructure.from_factors(smith_normal_form(dedup_columns(mat)), len(mat))


def image_order(factors, u, vec):
    """Order of the torsion component of a vector's image in the cokernel.

    `factors` and `u` are the invariant factors and row transform from
    `smith_normal_form(..., transforms=True)`.  Returns 0 (infinite) if the
    image has a free component that is not a multiple of the torsion exponent
    (in particular any nonzero one when there is no torsion); otherwise the
    torsion component is independent of the choice of splitting, and its
    exact order is returned.
    """
    w = mat_vec(u, vec)
    r = len(factors)
    torsion = [(d, w[i]) for i, d in enumerate(factors) if d > 1]
    exponent = torsion[-1][0] if torsion else 1
    free_gcd = gcd(*w[r:])
    if free_gcd and (exponent == 1 or free_gcd % exponent):
        return 0
    order = 1
    for d, wi in torsion:
        rem = wi % d
        order = lcm(order, d // gcd(d, rem if rem else d))
    return order


def signature(g):
    """Signature of a nondegenerate symmetric integer matrix, exactly.

    Rational congruence diagonalization with symmetric pivoting; a pair of
    indices with zero diagonal but nonzero pairing forms a hyperbolic block
    and contributes zero.  Raises ValueError on a degenerate form.
    """
    n = len(g)
    for i in range(n):
        if len(g[i]) != n:
            raise ValueError("not square")
        for j in range(i):
            if g[i][j] != g[j][i]:
                raise ValueError("not symmetric")
    a = [[Fraction(x) for x in row] for row in g]
    active = list(range(n))
    sig = 0
    while active:
        k = next((i for i in active if a[i][i] != 0), None)
        if k is not None:
            d = a[k][k]
            sig += 1 if d > 0 else -1
            rest = [i for i in active if i != k]
            ak = a[k]
            for i in rest:
                f = a[i][k] / d
                if f:
                    ai = a[i]
                    for j in rest:
                        ai[j] -= f * ak[j]
            active = rest
        else:
            k = active[0]
            l = next((j for j in active[1:] if a[k][j] != 0), None)
            if l is None:
                raise ValueError("degenerate symmetric form")
            c = a[k][l]
            rest = [i for i in active if i != k and i != l]
            ak, al = a[k], a[l]
            for i in rest:
                x = a[i][l] / c
                y = a[i][k] / c
                if x or y:
                    ai = a[i]
                    for j in rest:
                        ai[j] -= x * ak[j] + y * al[j]
            active = rest
    return sig


def parity(g):
    """'odd' if some diagonal entry is odd, else 'even'.

    For integral symmetric forms an odd vector exists exactly when a basis
    vector has odd self-pairing.
    """
    n = len(g)
    return "odd" if any(g[i][i] % 2 for i in range(n)) else "even"


def _rank_mod_p(mat, p):
    m = np.array(mat, dtype=object) % p
    m = m.astype(np.int64)
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i, c]:
                piv = i
                break
        if piv is None:
            continue
        m[[r, piv]] = m[[piv, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        nz = np.nonzero(m[r + 1 :, c])[0]
        if nz.size:
            block = m[r + 1 :][nz]
            m[r + 1 :][nz] = (block - np.outer(block[:, c], m[r])) % p
        r += 1
        if r == rows:
            break
    return r


def _rank_exact(mat):
    a = [[Fraction(x) for x in row] for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        d = a[r][c]
        a[r] = [x / d for x in a[r]]
        for i in range(r + 1, rows):
            f = a[i][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return r


_CERT_PRIMES = (1_000_003, 998_244_353)


def rank(mat):
    """Exact rank over the integers."""
    if not mat or not mat[0]:
        return 0
    # a modular rank is a lower bound; once one reaches the maximum we are done
    full = min(len(mat), len(mat[0]))
    if any(_rank_mod_p(mat, p) == full for p in _CERT_PRIMES):
        return full
    return _rank_exact(mat)


def has_full_column_rank(mat):
    """True iff the columns are linearly independent over Q (hence over Z)."""
    if not mat or not mat[0]:
        return True
    return rank(mat) == len(mat[0])


def is_unimodular_gram(g):
    """True iff all Smith invariant factors are 1 (unimodular lattice)."""
    n = len(g)
    factors = smith_normal_form(g)
    return len(factors) == n and all(d == 1 for d in factors)


def write_matrix(mat, path):
    """Plain text export: a `rows cols` header line, then one row per line."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m} {n}\n")
        for row in mat:
            fh.write(" ".join(str(x) for x in row) + "\n")


def read_matrix(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("expected 'rows cols' header")
        m, n = int(header[0]), int(header[1])
        values = fh.read().split()
    if len(values) != m * n:
        raise ValueError(f"expected {m * n} entries, found {len(values)}")
    it = iter(values)
    return [[int(next(it)) for _ in range(n)] for _ in range(m)]
