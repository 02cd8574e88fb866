"""Exact integer linear algebra: Smith normal form, cokernels, and the
signature and determinant of symmetric forms.

Matrices are plain lists of rows of Python integers, so nothing ever
overflows; nothing beyond the standard library is imported.  The Smith
reduction first eliminates the +-1 entries of the sparse cup-product
matrices, cheapest first, and then reduces the small residual with pivots
of least absolute value.  A symmetric form given as sparse rows gets its
signature and determinant together, from one fraction-free elimination
per connected block.
"""

import re
from heapq import heappop, heappush
from math import gcd, lcm
from typing import NamedTuple

__all__ = [
    "smith_form",
    "smith_normal_form",
    "cokernel",
    "CokernelStructure",
    "image_order",
    "form_invariants",
    "signature",
    "sparse_mat_vec",
    "write_matrix",
    "read_matrix",
]


def _unit_pass(rows, u):
    """Eliminate with unit pivots, cheapest first by Markowitz cost, in place.

    `rows` are sparse rows {column: value} and `u` their sparse row transforms
    (or None).  A pivot at a +-1 entry (i, j) of cost (row nonzeros - 1) *
    (column nonzeros - 1) clears column j from every other row; row i is then
    emptied, since column operations with column j would clear the rest of it
    and change no row still in play.  Returns the pivot rows in order; their
    invariant factors are all 1, and the rows left nonzero are the residual.
    """
    cols = {}
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, set()).add(i)
    heap = []

    def push(i, j):
        if rows[i][j] in (1, -1):
            heappush(heap, ((len(rows[i]) - 1) * (len(cols[j]) - 1), i, j))

    for i, row in enumerate(rows):
        for j in row:
            push(i, j)
    pivots = []
    while heap:
        cost, i, j = heappop(heap)
        prow = rows[i]
        s = prow.get(j)
        if s not in (1, -1) or cost != (len(prow) - 1) * (len(cols[j]) - 1):
            continue  # stale: every change of an entry's cost pushed it anew
        pivots.append(i)
        rows[i] = {}
        for c in prow:
            cols[c].discard(i)
        changed = list(cols[j])
        for k in changed:
            row = rows[k]
            f = row[j] * s
            for c, x in prow.items():
                y = row.get(c, 0) - f * x
                if y:
                    row[c] = y
                    cols[c].add(k)
                else:
                    del row[c]
                    cols[c].discard(k)
            if u is not None:
                uk = u[k]
                for c, x in u[i].items():
                    y = uk.get(c, 0) - f * x
                    if y:
                        uk[c] = y
                    else:
                        del uk[c]
        for k in changed:
            for c in rows[k]:
                push(k, c)
        for c in prow:
            for k in cols[c]:
                push(k, c)
    return pivots


def _residual_smith(a, u):
    """Invariant factors of a dense matrix by least-absolute-value pivots, in place.

    Row operations are mirrored on the dense transform `u` unless it is None.
    """
    m = len(a)
    n = len(a[0]) if m else 0

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
    t = 0
    while t < limit:
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
            offender = next((i for i in range(t + 1, m) if any(x % p for x in a[i][t + 1 :])), None)
            if offender is None:
                break
            add_row(offender, t, 1, t)

        t += 1

    return [a[i][i] for i in range(limit) if a[i][i]]


def smith_form(rows, transforms=False):
    """Invariant factors of an integer matrix given as sparse rows, optionally
    with the row transform.

    `rows` are {column: value} maps; they are not modified.  Returns the list
    of positive invariant factors d_1 | d_2 | ... | d_r (r = rank); with
    transforms=True returns (factors, U) where U, as sparse rows, is
    unimodular and U * mat * V is the diagonal Smith form for some unimodular
    V.  Column operations never touch U, so V is not built: rows r and beyond
    of U * mat vanish and d_i divides row i, which is all that the order of
    an image in the cokernel depends on.

    A sparse pass first eliminates with +-1 pivots (Dumas, Saunders and
    Villard, J. Symbolic Comput. 32, 2001); the dense residual it leaves is
    reduced with pivots of least absolute value.  U is the unit pass's
    transforms of its pivot rows, then those of the residual rows under the
    residual loop's transform, then those of the rows the pass zeroed.
    """
    m = len(rows)
    rows = [{j: int(x) for j, x in row.items() if x} for row in rows]
    u = [{i: 1} for i in range(m)] if transforms else None
    pivots = _unit_pass(rows, u)
    rest = [i for i, row in enumerate(rows) if row]
    cols = sorted({j for i in rest for j in rows[i]})
    residual = [[rows[i].get(j, 0) for j in cols] for i in rest]
    u2 = [[int(i == j) for j in range(len(rest))] for i in range(len(rest))] if transforms else None
    factors = [1] * len(pivots) + _residual_smith(residual, u2)
    if not transforms:
        return factors

    def combine(terms):
        # the sparse row sum(f * u[i] for f, i in terms)
        row = {}
        for f, i in terms:
            for k, x in u[i].items():
                row[k] = row.get(k, 0) + f * x
        return {k: x for k, x in row.items() if x}

    done = set(pivots).union(rest)
    combined = [combine([(f, i) for f, i in zip(w, rest) if f]) for w in u2]
    zeroed = [u[i] for i in range(m) if i not in done]
    return factors, [u[i] for i in pivots] + combined + zeroed


def smith_normal_form(mat, transforms=False):
    """`smith_form` of a dense matrix, given and returned (U) as lists of rows."""
    n = len(mat[0]) if mat else 0
    if any(len(row) != n for row in mat):
        raise ValueError("ragged matrix")
    result = smith_form([{j: x for j, x in enumerate(row) if x} for row in mat], transforms)
    if not transforms:
        return result
    factors, u = result
    return factors, [[row.get(k, 0) for k in range(len(mat))] for row in u]


class CokernelStructure(NamedTuple):
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


def sparse_mat_vec(rows, vec):
    """The product of sparse rows {column: value} with a dense vector."""
    return [sum(x * vec[k] for k, x in row.items()) for row in rows]


def image_order(factors, u, vec):
    """Order of the torsion component of a vector's image in the cokernel.

    `factors` and `u` are the invariant factors and the sparse row transform
    from `smith_form(..., transforms=True)`.  Returns 0 (infinite) if the
    image has a free component that is not a multiple of the torsion exponent
    (in particular any nonzero one when there is no torsion); otherwise the
    torsion component is independent of the choice of splitting, and its
    exact order is returned.
    """
    w = sparse_mat_vec(u, vec)
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


def _blocks(rows):
    """The connected blocks of a symmetric sparse form, as lists of indices."""
    seen = set()
    for s in range(len(rows)):
        if s in seen:
            continue
        seen.add(s)
        block = [s]
        for i in block:
            for j in rows[i]:
                if j not in seen:
                    seen.add(j)
                    block.append(j)
        yield block


def _block_invariants(rows, block):
    """(signature, determinant) of one connected block, eliminating in place.

    Fraction-free elimination with diagonal pivots (Bareiss, Math. Comp. 22,
    1968): after k pivots every entry is a (k+1)-minor, the pivot `prev` is
    the leading k-minor M_k, and the k-th diagonal entry of the rational
    LDL^T is M_k / M_(k-1).  A row the pivot row does not meet is only
    multiplied by M_k / M_(k-1), so it is kept as stored with the pivot
    `stamp` it was current at, and rescaled exactly when next touched.  When
    every active diagonal entry is 0, e_k += e_l (a unimodular congruence)
    makes a_kk = 2 a_kl.  An empty row makes the form degenerate.
    """
    stamp = dict.fromkeys(block, 1)
    active = set(block)
    prev, sig, det = 1, 0, 1

    def current(i):
        if stamp[i] != prev:
            s = stamp[i]
            rows[i] = {j: v * prev // s for j, v in rows[i].items()}
            stamp[i] = prev
        return rows[i]

    def size(i):
        return len(rows[i])

    while active:
        # fewest nonzeros first, for the least fill
        pivots = [i for i in active if i in rows[i]]
        k = min(pivots or active, key=size)
        if not pivots:
            pk = current(k)
            if not pk:
                active.discard(k)
                det = 0
                continue
            l = min(pk, key=size)
            pl = current(l)
            new = dict(pk)
            for j, x in pl.items():
                new[j] = new.get(j, 0) + x
            rows[k] = {j: v for j, v in new.items() if v}
            # the column move on every row meeting l, row k included (a_kl
            # != 0), at each row's own stamp; a_ll = 0, so row l keeps a_lk
            for i in pl:
                row = rows[i]
                v = row.get(k, 0) + row[l]
                if v:
                    row[k] = v
                else:
                    row.pop(k, None)
            continue
        pk = current(k)
        rows[k] = {}
        active.discard(k)
        p = pk.pop(k)
        sig += 1 if (p > 0) == (prev > 0) else -1
        for i in pk:
            row = current(i)
            f = row.pop(k)
            new = {j: p * v for j, v in row.items()}
            for j, x in pk.items():
                new[j] = new.get(j, 0) - f * x
            rows[i] = {j: v // prev for j, v in new.items() if v}
            stamp[i] = p
        prev = p
    return sig, det * prev


def form_invariants(rows):
    """Signature and determinant of a symmetric integer form, exactly.

    `rows` are sparse rows {column: value}, symmetric; they are not modified.
    One elimination per connected block; the signature of a degenerate form
    (determinant 0) counts its nondegenerate part.
    """
    rows = [{j: v for j, v in row.items() if v} for row in rows]
    sig, det = 0, 1
    for block in _blocks(rows):
        s, d = _block_invariants(rows, block)
        sig += s
        det *= d
    return sig, det


def signature(g):
    """Signature of a nondegenerate symmetric integer matrix, exactly.

    Raises ValueError on a degenerate, non-square or non-symmetric matrix.
    """
    n = len(g)
    for i in range(n):
        if len(g[i]) != n:
            raise ValueError("not square")
        for j in range(i):
            if g[i][j] != g[j][i]:
                raise ValueError("not symmetric")
    sig, det = form_invariants([{j: x for j, x in enumerate(row) if x} for row in g])
    if not det:
        raise ValueError("degenerate symmetric form")
    return sig


_INT_TOKEN = re.compile(r"[+-]?[0-9]+")


def write_matrix(mat, path):
    """Plain text export: a `rows cols` header line, then one row per line."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m} {n}\n")
        for row in mat:
            fh.write(" ".join(str(x) for x in row) + "\n")


def _parse_int(token):
    if not _INT_TOKEN.fullmatch(token):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def read_matrix(path):
    """Read the format of `write_matrix`; malformed input raises ValueError."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("expected 'rows cols' header")
        m, n = (_parse_int(x) for x in header)
        if m < 0 or n < 0:
            raise ValueError(f"negative dimension in header: {' '.join(header)!r}")
        values = [_parse_int(x) for x in fh.read().split()]
    if len(values) != m * n:
        raise ValueError(f"expected {m * n} entries, found {len(values)}")
    return [values[i * n : (i + 1) * n] for i in range(m)]
