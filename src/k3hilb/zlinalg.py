"""Exact integer linear algebra: Smith normal form, cokernels, and the
signature and determinant of symmetric forms.

Matrices are plain lists of rows of Python integers, so nothing ever
overflows; nothing beyond the standard library is imported.  The Smith
reduction is one elimination over sparse rows that never rescans them per
pivot: +-1 column singletons from a worklist, the other +-1 entries by lazy
Markowitz cost, then the least entries from a heap, with one scan per
distinct factor to prove that it divides every entry left.  A symmetric
form given as sparse rows gets its signature and determinant together, from
one fraction-free elimination per connected block.
"""

from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import NamedTuple

__all__ = [
    "smith_form",
    "smith_normal_form",
    "CokernelStructure",
    "image_order",
    "form_invariants",
    "signature",
    "sparse_mat_vec",
]


def _eliminate(rows, u):
    """Smith-reduce sparse rows in place; returns the pivots as (row, factor).

    `rows` are sparse rows {column: value} and `u` their sparse row transforms
    (or None); only row operations are mirrored on `u`.  Pivots are taken, in
    this order of preference, from a worklist of the columns with one entry,
    at +-1, which need no arithmetic (the singleton removal of LaMacchia and
    Odlyzko, CRYPTO '90); from a heap of the +-1 entries, cheapest first by
    Markowitz cost (row nonzeros - 1) * (column nonzeros - 1) (Dumas, Saunders
    and Villard, J. Symbolic Comput. 32, 2001), kept lazily: a leaving pivot
    row pushes nothing and a popped entry whose cost has risen goes back; and,
    once no +-1 entry is left, from a heap of every live entry keyed on
    (|x|, cost), which each changed row joins.  A pivot is reduced until it
    divides every entry left: row operations clear its column and column
    operations its row, a remainder of either becomes the pivot, and a row
    with an entry the pivot does not divide is added to the pivot row.  A scan
    that finds no such row proves that |p| divides every live entry; integer
    row and column moves keep that true, so a later pivot of the same |p|
    skips the scan.  The settled pivot's row is emptied, since column
    operations would clear it and change no row still in play.  The factors
    come out as a divisibility chain.
    """
    cols = {}
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, set()).add(i)
    live = {i for i, row in enumerate(rows) if row}
    dirty = set()
    content = 0  # |p| of the last scan that found every live entry divisible

    def cost(i, j):
        return (len(rows[i]) - 1) * (len(cols[j]) - 1)

    def add_row(k, i, f):
        # row k += f * row i, on the rows and on u
        dirty.add(k)
        row = rows[k]
        for c, x in rows[i].items():
            y = row.get(c, 0) + f * x
            if y:
                row[c] = y
                cols[c].add(k)
            else:
                del row[c]
                cols[c].discard(k)
        if not row:
            live.discard(k)
        if u is not None:
            uk = u[k]
            for c, x in u[i].items():
                y = uk.get(c, 0) + f * x
                if y:
                    uk[c] = y
                else:
                    del uk[c]

    def settle(i, j):
        # reduce the pivot (i, j) until it divides every entry left
        nonlocal content
        while True:
            p = rows[i][j]
            rest = [k for k in cols[j] if k != i]
            for k in rest:
                q = rows[k][j] // p
                if q:
                    add_row(k, i, -q)
            rest = [k for k in rest if j in rows[k]]
            if rest:
                i = min(rest, key=lambda k: abs(rows[k][j]))
                continue
            if p in (1, -1):
                return i, 1
            row = rows[i]
            dirty.add(i)
            for c in [c for c in row if c != j]:
                # column c -= (row[c] // p) * column j, which meets no other row
                r = row[c] % p
                if r:
                    row[c] = r
                else:
                    del row[c]
                    cols[c].discard(i)
            if len(row) > 1:
                j = min((c for c in row if c != j), key=lambda c: abs(row[c]))
                continue
            if abs(p) == content:
                return i, content
            k = next((k for k in live if k != i and any(x % p for x in rows[k].values())), None)
            if k is None:
                content = abs(p)
                return i, content
            add_row(i, k, 1)

    singles = [j for j, col in cols.items() if len(col) == 1 and rows[min(col)][j] in (1, -1)]
    # the worklist takes the singleton columns' entries first, so they stay out
    units = [(cost(i, j), i, j) for i in live for j, x in rows[i].items() if x in (1, -1) and len(cols[j]) > 1]
    heapify(units)
    least = None
    pivots = []
    while True:
        if singles:
            j = singles.pop()
            if not cols[j]:
                continue  # its row left as the pivot of another singleton
            (i,) = cols[j]
        elif units:
            c, i, j = heappop(units)
            if rows[i].get(j) not in (1, -1):
                continue
            if cost(i, j) > c:
                heappush(units, (cost(i, j), i, j))
                continue
        else:
            if least is None:
                least = [(abs(x), cost(i, j), i, j) for i in live for j, x in rows[i].items()]
                heapify(least)
            if not least:
                return pivots
            a, _, i, j = heappop(least)
            if abs(rows[i].get(j, 0)) != a:
                continue  # changed: its row was pushed again
        dirty.clear()
        i, d = settle(i, j)
        pivots.append((i, d))
        prow = rows[i]
        rows[i] = {}
        live.discard(i)
        for c in prow:
            col = cols[c]
            col.discard(i)
            if len(col) == 1 and rows[min(col)][c] in (1, -1):
                singles.append(c)
        for k in dirty:
            for c, x in rows[k].items():
                if x in (1, -1):
                    heappush(units, (cost(k, c), k, c))
                if least is not None:
                    heappush(least, (abs(x), cost(k, c), k, c))


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

    One sparse elimination (`_eliminate`): +-1 column singletons from a
    worklist, the other +-1 pivots by lazy Markowitz cost, then the least
    entries from a heap, one divisibility scan proving each distinct factor.  U
    is the transforms of the pivot rows in pivot order, then those of the
    rows it zeroed, in index order.
    """
    m = len(rows)
    rows = [{j: int(x) for j, x in row.items() if x} for row in rows]
    u = [{i: 1} for i in range(m)] if transforms else None
    pivots = _eliminate(rows, u)
    factors = [d for _, d in pivots]
    if not transforms:
        return factors
    done = {i for i, _ in pivots}
    return factors, [u[i] for i, _ in pivots] + [u[i] for i in range(m) if i not in done]


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
