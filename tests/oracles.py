"""Independent oracles used by the tests.

Everything here is deliberately implemented from first principles, without
calling into the code paths under test: partition counts from the pentagonal
recurrence, base-change coefficients from brute polynomial expansion, basis
dimensions from a truncated two-variable product series, and symbol products
from the fully naive double symmetrization.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial, gcd, prod


# ---------------------------------------------------------------------------
# partitions


@lru_cache(maxsize=None)
def partition_count(n):
    """p(n) via the pentagonal-number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        total += sign * (partition_count(n - g1) + partition_count(n - g2))
        k += 1
    return total


def brute_partitions(n):
    """All weakly decreasing positive tuples summing to n (direct recursion)."""
    out = []

    def rec(remaining, maximum, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for x in range(min(remaining, maximum), 0, -1):
            acc.append(x)
            rec(remaining - x, x, acc)
            acc.pop()

    rec(n, n, [])
    return out


# ---------------------------------------------------------------------------
# symmetric functions: psi by explicit polynomial expansion


def psi_by_expansion(lam, mu):
    """Coefficient of the monomial with exponents mu in the power sum p_lam.

    Expands p_lam literally in max(6, weight) variables as a sparse
    polynomial over exponent vectors.
    """
    w = sum(lam)
    if w != sum(mu):
        return 0
    nvars = max(6, w)
    poly = {(0,) * nvars: 1}
    for part in lam:
        new = {}
        for expo, coeff in poly.items():
            for v in range(nvars):
                bumped = list(expo)
                bumped[v] += part
                key = tuple(bumped)
                new[key] = new.get(key, 0) + coeff
        poly = new
    target = tuple(mu) + (0,) * (nvars - len(mu))
    return poly.get(target, 0)


# ---------------------------------------------------------------------------
# basis dimensions: truncated product series with 24 colored variables


def hilb_betti_series(nmax):
    """Coefficients h[n][d] of prod_m (1-t^(2m-2)q^m)^-1 (1-t^(2m)q^m)^-22 (1-t^(2m+2)q^m)^-1.

    Returns a list over n of dicts from cohomological degree d to the rank.
    """
    series = [dict() for _ in range(nmax + 1)]
    series[0][0] = 1
    for m in range(1, nmax + 1):
        for tdeg, mult in ((2 * m - 2, 1), (2 * m, 22), (2 * m + 2, 1)):
            new = [dict() for _ in range(nmax + 1)]
            for n in range(nmax + 1):
                for j in range(0, (nmax - n) // m + 1):
                    c = comb(mult - 1 + j, j)
                    for d, v in series[n].items():
                        key = d + tdeg * j
                        tgt = new[n + m * j]
                        tgt[key] = tgt.get(key, 0) + v * c
            series = new
    return series


# ---------------------------------------------------------------------------
# symmetric-group model: naive symmetrization


def conjugate_term(term, sigma):
    return tuple((tuple(sigma[v] for v in cyc), lab) for cyc, lab in term)


def naive_symmetrization(term, n, canonical):
    """Multiset of canonical conjugates of a term over all of S_n."""
    counts = {}
    for sigma in permutations(range(n)):
        t = canonical(conjugate_term(term, sigma))
        counts[t] = counts.get(t, 0) + 1
    return counts


def naive_mult_an(a, b, n):
    """Symbol product computed with no shortcuts: both factors are expanded as
    full sums over all S_n conjugates, multiplied term by term, and the
    coefficient of each class is read off one representative term.
    """
    from k3hilb.hilb_basis import an_z, canonical_class, pad_class
    from k3hilb.lehn_sorger import canonical_term, model_term, mult_sn

    pa, pb = pad_class(a, n), pad_class(b, n)
    if pa is None or pb is None:
        return {}
    acc = {}
    for sa in permutations(range(n)):
        ta = canonical_term(conjugate_term(model_term(*pa), sa))
        for sb in permutations(range(n)):
            tb = canonical_term(conjugate_term(model_term(*pb), sb))
            for t, v in mult_sn(ta, tb).items():
                acc[t] = acc.get(t, 0) + v
    out = {}
    for t in acc:
        sym = canonical_class(
            tuple(len(c) for c, _ in t), tuple(lab for _, lab in t)
        )
        if sym in out:
            continue
        rep = model_term(*sym)
        coeff = acc.get(rep, 0)
        z = an_z(sym)
        assert coeff % z == 0
        if coeff:
            out[sym] = coeff // z
    return {s: v for s, v in out.items() if v}


# ---------------------------------------------------------------------------
# exact helpers for linear-algebra tests


def rational_rank(mat):
    rows = [list(map(Fraction, r)) for r in mat]
    cols = len(rows[0]) if rows else 0
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        d = rows[rank][c]
        rows[rank] = [x / d for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def mat_mul(a, b):
    if not a or not b:
        return [[] for _ in a]
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def det(mat):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("not square")
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def minor_gcd(mat, k):
    """gcd of all k x k minors (the k-th determinantal divisor up to sign)."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    g = 0
    for rows in combinations(range(m), k):
        for cols in combinations(range(n), k):
            g = gcd(g, det([[mat[i][j] for j in cols] for i in rows]))
    return g


def assert_smith_factors(mat, factors):
    """factors are a divisibility chain of positive integers, as long as the
    rank r of mat, whose product is the gcd of the r x r minors of mat."""
    r = rational_rank(mat)
    assert len(factors) == r
    assert all(d > 0 for d in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    assert prod(factors) == minor_gcd(mat, r)


def assert_smith_row_transform(mat, factors, u):
    """u is the row transform of a Smith form of mat with the given factors.

    Checks |det u| = 1, that rows r and beyond of u * mat vanish and that d_i
    divides row i.  Given that factors are mat's invariant factors (known by
    construction, or certified by assert_smith_factors), this holds exactly
    when some unimodular V gives u * mat * V = diag(factors): write
    u * mat = diag(factors) * C; the gcd of the r x r minors of mat is
    prod(d_i) times that of C, so C's is 1, C is the top of a unimodular W,
    and V = W^-1.
    """
    assert abs(det(u)) == 1
    ua = mat_mul(u, mat)
    r = len(factors)
    assert not any(x for row in ua[r:] for x in row)
    for d, row in zip(factors, ua):
        assert all(x % d == 0 for x in row)


def perm_count_of_cycle_type(lam, n):
    """Number of permutations in S_n with the given cycle type, by enumeration."""
    from k3hilb.partitions import cycle_type

    return sum(1 for p in permutations(range(n)) if cycle_type(p) == lam)
