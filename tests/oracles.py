"""Independent oracles used by the tests.

Everything here is deliberately implemented from first principles, without
calling into the code paths under test: partition counts from the pentagonal
recurrence, basis symbols by a memoized recursion over operator sequences,
base-change coefficients from brute polynomial expansion and from Moebius sums
over set partitions, basis dimensions from a truncated two-variable product
series, symbol products from the fully naive double symmetrization, from all
conjugates at the full ambient or from the S_n kernel alone, symbol conjugates
by skip-and-retry enumeration, the orbits of two permutations by folding
cycles together, the orbit product of two terms from permutation tuples, the
creation pairing from symbol products, the integral base change and integral
products through exact Fractions, cokernel reports through the dense matrix
views and a dense row transform, integer ranks from sparse elimination over
one large prime field (the Smith form only settles a rank-deficient case),
and signatures by rational congruence diagonalization.
The helpers at the end are small ones that only the tests call.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, factorial, gcd, lcm, prod


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
# symmetric functions: psi by explicit polynomial expansion, psi^-1 by Moebius
# sums over set partitions


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


def _set_partitions(n):
    """All set partitions of range(n) as tuples of blocks (tuples of indices)."""
    if n == 0:
        yield ()
        return
    for rest in _set_partitions(n - 1):
        yield rest + ((n - 1,),)
        for i, block in enumerate(rest):
            yield rest[:i] + (block + (n - 1,),) + rest[i + 1 :]


def psi_inv_by_moebius(mu, lam):
    """Coefficient of p_lam in m_mu from Moebius weights over set partitions.

    The augmented monomial function of mu is the sum, over set partitions of
    the parts of mu, of prod_blocks (-1)^(|B|-1) (|B|-1)! times the power sum
    of the merged parts; m_mu is that divided by prod_i m_i(mu)!.
    """
    if sum(lam) != sum(mu):
        return Fraction(0)
    acc = 0
    for blocks in _set_partitions(len(mu)):
        merged = tuple(sorted((sum(mu[b] for b in block) for block in blocks), reverse=True))
        if merged == tuple(lam):
            acc += prod((-1) ** (len(b) - 1) * factorial(len(b) - 1) for b in blocks)
    return Fraction(acc, prod(factorial(list(mu).count(p)) for p in set(mu)))


# ---------------------------------------------------------------------------
# basis symbols: recursion over (size, label) operator sequences


@lru_cache(maxsize=None)
def _operators(n, d, max_size, max_label):
    """Weakly decreasing (size, label) sequences of total weight n, degree d."""
    from k3hilb import k3

    if n == 0:
        return ((),) if d == 0 else ()
    if n < 0 or d < 0 or d % 2:
        return ()
    out = []
    for size in range(min(n, max_size), 0, -1):
        top_label = max_label if size == max_size else 23
        for label in range(top_label, -1, -1):
            rest_deg = d - (2 * (size - 1) + k3.deg(label))
            if rest_deg < 0:
                continue
            for rest in _operators(n - size, rest_deg, size, label):
                out.append(((size, label),) + rest)
    return tuple(out)


def hilb_operators(n, d):
    """All multisets of (part size, label) of weight n and degree d.

    Returned canonically sorted (pairs descending), without duplicates.
    """
    return _operators(n, d, n, 23)


def operator_symbols(n, d):
    """The symbols of `hilb_operators(n, d)` in enumeration order, unsorted."""
    return [
        (tuple(p for p, _ in op), tuple(l for _, l in op))
        for op in hilb_operators(n, d)
    ]


def check_reduced_weight_bounds(sym):
    """Weight window for reduced symbols: deg/4 <= weight <= deg."""
    from k3hilb.hilb_basis import an_weight, deg

    w = an_weight(sym)
    d = deg(sym)
    return d <= 4 * w and w <= d


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
# K3 lattice


def indices_of_degree(d):
    """The K3 basis indices of cohomological degree d."""
    from k3hilb import k3

    return tuple(i for i in k3.INDICES if k3.deg(i) == d)


def h2_gram_matrix():
    """The 22 x 22 matrix of B restricted to H^2."""
    from k3hilb import k3

    h2 = indices_of_degree(2)
    return [[k3.bil(i, j) for j in h2] for i in h2]


# ---------------------------------------------------------------------------
# permutations, as tuples of images on {0, ..., n-1}


def identity_perm(n):
    return tuple(range(n))


def compose(p, q):
    """Composition p*q acting as (p*q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(q)))


def perm_from_cycles(n, cycles):
    """Permutation on n points from disjoint cycles (fixed points may be omitted)."""
    images = list(range(n))
    seen = set()
    for cyc in cycles:
        for v in cyc:
            if v in seen or not 0 <= v < n:
                raise ValueError(f"invalid cycle decomposition on {n} points: {cycles}")
            seen.add(v)
        for a, b in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
            images[a] = b
    return tuple(images)


def cycle_type(p):
    """Partition of the cycle lengths of a permutation (fixed points count as 1)."""
    from k3hilb.partitions import cycles_of

    return as_partition(len(c) for c in cycles_of(p))


def part_permute(p):
    """A canonical permutation with cycle type p.

    Cycles are laid out left-to-right on consecutive integers, largest part
    first, so the cycle containing 0 has length p[0].
    """
    cycles = []
    start = 0
    for size in p:
        cycles.append(tuple(range(start, start + size)))
        start += size
    return perm_from_cycles(start, cycles)


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


def common_orbits_by_folding(p, t):
    """Orbits of the subgroup generated by two permutations on the same points,
    as `lehn_sorger.common_orbits` gives them.

    Computed by folding the cycles of t into the cycles of p, merging
    everything an incoming cycle touches.  Returned as sorted tuples, ordered
    by (size, elements).
    """
    from k3hilb.partitions import cycles_of

    if len(p) != len(t):
        raise ValueError("permutations act on different point sets")
    orbits = [set(c) for c in cycles_of(p)]
    for cyc in cycles_of(t):
        touched = set(cyc)
        rest = []
        for orb in orbits:
            if orb & touched:
                touched |= orb
            else:
                rest.append(orb)
        rest.append(touched)
        orbits = rest
    result = [tuple(sorted(orb)) for orb in orbits]
    result.sort(key=lambda orb: (len(orb), orb))
    return result


def graph_defect(p, t, orbit):
    """The graph defect g of a common orbit of p and t: by Riemann-Hurwitz,
    2g = |orbit| + 2 minus the cycles of p, t and p*t inside the orbit."""
    from k3hilb.partitions import cycles_of

    members = set(orbit)
    inside = sum(
        1 for perm in (p, t, compose(p, t)) for c in cycles_of(perm) if c[0] in members
    )
    twice = len(members) + 2 - inside
    if twice < 0 or twice % 2:
        raise ArithmeticError(f"graph defect 2g = {twice} is not a nonnegative even integer")
    return twice // 2


def orbit_factors_by_permutations(t1, t2):
    """The orbit factors of two canonical terms, as `lehn_sorger._orbit_factors`
    gives them, from permutation tuples.

    Both terms become image tuples, checked by `perm_from_cycles`; p*t is
    composed and split into cycles by `cycles_of`, and the orbits come from
    `common_orbits_by_folding`.  Each orbit's pieces, p*t-cycles and graph
    defect are found by scanning every cycle for a point of the orbit.
    """
    from k3hilb import k3
    from k3hilb.lehn_sorger import _defect
    from k3hilb.partitions import cycles_of

    n = sum(len(c) for c, _ in t1)
    if sum(len(c) for c, _ in t2) != n:
        raise ValueError("terms live on different point counts")
    p = perm_from_cycles(n, [c for c, _ in t1])
    t = perm_from_cycles(n, [c for c, _ in t2])
    pt_cycles = cycles_of(compose(p, t))

    factors = []
    for orbit in common_orbits_by_folding(p, t):
        members = set(orbit)
        labels = [lab for c, lab in t1 if c[0] in members]
        labels += [lab for c, lab in t2 if c[0] in members]
        target = [c for c in pt_cycles if c[0] in members]
        g = _defect(
            len(orbit),
            sum(1 for c, _ in t1 if c[0] in members),
            sum(1 for c, _ in t2 if c[0] in members),
            len(target),
        )
        glued = k3.euler_power_multiplier(g)(k3.cup_list(labels))
        pieces = []
        for r, v in glued.items():
            for out_labels, w in k3._coprod_items(len(target), r):
                pieces.append((tuple(zip(target, out_labels)), v * w))
        if not pieces:
            return None
        factors.append(pieces)
    return factors


def symmetrized_shape_by_enumeration(parts, labels):
    """Distinct conjugates of the model term of (parts, labels), plus multiplicity.

    For each group of equal (part, label) pairs, every support of every
    remaining size-subset is tried at each level and those whose minimum is
    not above the previous one are skipped; every cyclic arrangement of each
    support is taken.  The multiplicity is n!/#terms.
    """
    from k3hilb.lehn_sorger import canonical_term

    n = sum(parts)
    groups = []
    for size, label in zip(parts, labels):
        if groups and groups[-1][0] == (size, label):
            groups[-1][1] += 1
        else:
            groups.append([(size, label), 1])
    terms = []

    def fill_group(points, gi, count, floor, pieces):
        if count == 0:
            place(points, gi + 1, pieces)
            return
        size, label = groups[gi][0]
        for support in combinations(sorted(points), size):
            if support[0] <= floor:
                continue
            remaining = points - set(support)
            for rest in permutations(support[:-1]):
                pieces.append(((support[-1],) + rest, label))
                fill_group(remaining, gi, count - 1, support[0], pieces)
                pieces.pop()

    def place(points, gi, pieces):
        if gi == len(groups):
            terms.append(canonical_term(pieces))
            return
        fill_group(points, gi, groups[gi][1], -1, pieces)

    place(frozenset(range(n)), 0, [])
    terms = tuple(sorted(set(terms)))
    mult, rem = divmod(factorial(n), len(terms))
    assert rem == 0
    return terms, mult


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


def full_ambient_mult_an(a, b, n):
    """Symbol product on all n points: every conjugate of a's model term at
    ambient n is multiplied by b's model term with `mult_sn`, each product
    term is read off as a class, and the sum is scaled by a's stabilizer
    order.  No reduced ambient, no choice of the symmetrized side.
    """
    from k3hilb.hilb_basis import canonical_class, pad_class
    from k3hilb.lehn_sorger import model_term, mult_sn, to_sn

    pa, pb = pad_class(canonical_class(*a), n), pad_class(canonical_class(*b), n)
    if pa is None or pb is None:
        return {}
    terms, mult = to_sn(pa, n)
    b_model = model_term(*pb)
    acc = {}
    for t in terms:
        for term, v in mult_sn(t, b_model).items():
            sym = canonical_class(tuple(len(c) for c, _ in term), tuple(lab for _, lab in term))
            acc[sym] = acc.get(sym, 0) + mult * v
    return {s: v for s, v in acc.items() if v}


@lru_cache(maxsize=None)
def _int_to_crea_memo(sym):
    """`qin_wang._int_to_crea_items`, memoized here: the creation-path oracle
    redoes the same base changes far more often than any command does."""
    from k3hilb.qin_wang import _int_to_crea_items

    return _int_to_crea_items(sym)


@lru_cache(maxsize=None)
def _crea_to_int_memo(sym):
    """`qin_wang._crea_to_int_items`, memoized like `_int_to_crea_memo`."""
    from k3hilb.qin_wang import _crea_to_int_items

    return _crea_to_int_items(sym)


@lru_cache(maxsize=None)
def _mult_an_memo(a, b, n):
    """`lehn_sorger.mult_an` on canonical symbols, memoized like
    `_int_to_crea_memo`: the oracle meets the same creation products for
    many classes, and the S_n kernel is its only path."""
    from k3hilb.lehn_sorger import mult_an

    return tuple(mult_an(a, b, n, canonical=True).items())


def cup_by_creation(factors, n):
    """`qin_wang.cup_int_list` with every factor in the creation basis: each
    factor's integer numerators over its denominator, multiplied through
    `qin_wang.mult_an` (memoized, unless a test replaced it), then divided
    back exactly.  No factor takes an operator on the integral symbols
    (`qin_wang._operator`), and `mult_an` has one path, the S_n kernel, so
    this oracle shares no cut-and-join or placement of labels with the
    operators it checks."""
    from k3hilb import lehn_sorger, qin_wang
    from k3hilb.hilb_basis import canonical_class, pad_class

    padded = [pad_class(canonical_class(*f), n) for f in factors]
    if None in padded:
        return {}
    mult = _mult_an_memo
    if qin_wang.mult_an is not lehn_sorger.mult_an:
        mult = lambda a, b, n: qin_wang.mult_an(a, b, n, canonical=True).items()  # noqa: E731
    scaled = [_int_to_crea_memo(s) for s in padded]
    den, acc = scaled[0]
    acc = dict(acc)
    for d, items in scaled[1:]:
        out = {}
        for p, va in acc.items():
            for q, vb in items:
                for e, z in mult(p, q, n):
                    out[e] = out.get(e, 0) + va * vb * z
        acc = {e: v for e, v in out.items() if v}
        den *= d
    out = {}
    for e, v in acc.items():
        for s, c in _crea_to_int_memo(e):
            out[s] = out.get(s, 0) + v * c
    if any(v % den for v in out.values()):
        raise qin_wang.NonIntegralError(f"a coefficient of {factors} at n={n} is not divisible by {den}")
    return {s: v // den for s, v in out.items() if v}


# ---------------------------------------------------------------------------
# integral base change and products through Fractions


def _label_subparts(sym):
    buckets = {}
    for p, l in zip(*sym):
        buckets.setdefault(l, []).append(p)
    return [(label, tuple(sorted(parts, reverse=True))) for label, parts in sorted(buckets.items())]


def _fraction_tensor(factor_lists):
    from k3hilb.hilb_basis import canonical_class

    out = {}
    for combo in product(*factor_lists):
        pairs = []
        coeff = Fraction(1)
        for pair_list, c in combo:
            pairs.extend(pair_list)
            coeff *= c
        sym = canonical_class(tuple(p for p, _ in pairs), tuple(l for _, l in pairs))
        out[sym] = out.get(sym, Fraction(0)) + coeff
    return {sym: c for sym, c in out.items() if c}


def _fraction_base_change(sym, inverse):
    from k3hilb.partitions import part_of_weight, part_z
    from k3hilb.symfunc import psi, psi_inv

    factors = []
    for label, parts in _label_subparts(sym):
        pairs_of = lambda rho, lab=label: tuple((p, lab) for p in rho)
        if label == 0:
            z = part_z(parts)
            factors.append([(pairs_of(parts), Fraction(1, z) if inverse else Fraction(z))])
        elif label == 23:
            factors.append([(pairs_of(parts), Fraction(1))])
        else:
            opts = []
            for rho in part_of_weight(sum(parts)):
                c = psi_inv(parts, rho) if inverse else Fraction(psi(parts, rho))
                if c:
                    opts.append((pairs_of(rho), c))
            factors.append(opts)
    return _fraction_tensor(factors)


def int_to_crea_by_fractions(sym, n):
    """Creation coefficients of an integral-basis symbol at n, as {symbol: Fraction}:
    1/z on the unit parts, psi_inv on each H^2 label, accumulated in Fractions."""
    from k3hilb.hilb_basis import canonical_class, pad_class

    padded = pad_class(canonical_class(*sym), n)
    return {} if padded is None else _fraction_base_change(padded, True)


def crea_to_int_by_fractions(sym, n):
    """Integral coefficients of a creation symbol at n, as {symbol: Fraction}."""
    from k3hilb.hilb_basis import canonical_class, pad_class

    padded = pad_class(canonical_class(*sym), n)
    return {} if padded is None else _fraction_base_change(padded, False)


def cup_int_by_fractions(a, b, n):
    """The integral product with every coefficient a Fraction until the end."""
    from k3hilb.lehn_sorger import mult_an

    acc = {}
    for p, va in int_to_crea_by_fractions(a, n).items():
        for q, vb in int_to_crea_by_fractions(b, n).items():
            for e, z in mult_an(p, q, n).items():
                for s, c in crea_to_int_by_fractions(e, n).items():
                    acc[s] = acc.get(s, Fraction(0)) + va * vb * z * c
    assert all(v.denominator == 1 for v in acc.values())
    return {s: int(v) for s, v in acc.items() if v}


def direct_middle_gram(n):
    """The middle Gram matrix of Hilb^n from every pairwise integral product.

    One `cup_int` per pair of degree-2n basis symbols, read off at the top
    class: the all-pairs construction, with no use of the creation-basis
    pairing or its support.
    """
    from k3hilb.hilb_basis import hilb_base
    from k3hilb.qin_wang import cup_int

    basis = hilb_base(n, 2 * n)
    m = len(basis)
    g = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            g[i][j] = g[j][i] = integrate(n, cup_int(basis[i], basis[j], n))
    return g


def creation_gram_by_products(n):
    """The creation-basis pairing on `hilb_base(n, 2n)` as sparse index rows.

    Row p multiplies only the symbols q on p's Nakajima support (same
    partition, and labels with nonzero K3 pairings under a part-preserving
    matching); each entry is the top-class coefficient of `mult_an(p, q, n)`.
    """
    from k3hilb import k3
    from k3hilb.analysis import top_class
    from k3hilb.hilb_basis import canonical_class, hilb_base
    from k3hilb.lehn_sorger import mult_an

    basis = hilb_base(n, 2 * n)
    index = {sym: i for i, sym in enumerate(basis)}
    top = top_class(n)
    rows = []
    for p in basis:
        parts, labels = p
        partners = [[m for m in k3.INDICES if k3.bil(l, m)] for l in labels]
        support = {canonical_class(parts, beta) for beta in product(*partners)}
        row = {index[q]: mult_an(p, q, n).get(top, 0) for q in support}
        rows.append({j: v for j, v in row.items() if v})
    return rows


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


def rank_mod_p(mat, p=(1 << 61) - 1):
    """Rank over F_p by sparse row echelon form, rows as {column: value}."""
    pivots = {}  # leading column -> row with leading entry 1
    for row in mat:
        r = {j: x % p for j, x in enumerate(row) if x % p}
        while r:
            c = min(r)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(r[c], -1, p)
                pivots[c] = {j: x * inv % p for j, x in r.items()}
                break
            f = r[c]
            for j, x in piv.items():
                y = (r.get(j, 0) - f * x) % p
                if y:
                    r[j] = y
                else:
                    del r[j]
    return len(pivots)


def rank(mat):
    """Exact rank over the integers.

    A rank mod p is a lower bound, so reaching min(rows, cols) settles it;
    otherwise the number of Smith invariant factors is the rank.
    """
    if not mat or not mat[0]:
        return 0
    full = min(len(mat), len(mat[0]))
    if rank_mod_p(mat) == full:
        return full
    from k3hilb.zlinalg import smith_normal_form

    return len(smith_normal_form(mat))


def has_full_column_rank(mat):
    """True iff the columns are linearly independent over Q (hence over Z)."""
    if not mat or not mat[0]:
        return True
    return rank(mat) == len(mat[0])


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


def fraction_signature(g):
    """Signature of a nondegenerate symmetric integer matrix, by rational
    congruence diagonalization with symmetric pivoting.

    A pair of indices with zero diagonal but nonzero pairing forms a
    hyperbolic block and contributes zero.  Raises ValueError on a
    degenerate form.
    """
    n = len(g)
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
            # the form stays symmetric, so column k is supported where row k is
            nz = [j for j in rest if ak[j]]
            for i in nz:
                f = a[i][k] / d
                ai = a[i]
                for j in nz:
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
            nz = [j for j in rest if ak[j] or al[j]]
            for i in nz:
                x = a[i][l] / c
                y = a[i][k] / c
                ai = a[i]
                for j in nz:
                    ai[j] -= x * ak[j] + y * al[j]
            active = rest
    return sig


def block_signature(gc):
    """Signature of a sparse symmetric form, summed over its connected blocks
    by `fraction_signature`."""
    seen = set()
    sig = 0
    for s in range(len(gc)):
        if s in seen:
            continue
        seen.add(s)
        block = [s]
        for i in block:
            for j in gc[i]:
                if j not in seen:
                    seen.add(j)
                    block.append(j)
        sig += fraction_signature([[gc[i].get(j, 0) for j in block] for i in block])
    return sig


def parity(g):
    """'odd' if some diagonal entry of a dense form is odd, else 'even'.

    For integral symmetric forms an odd vector exists exactly when a basis
    vector has odd self-pairing.
    """
    return "odd" if any(g[i][i] % 2 for i in range(len(g))) else "even"


def is_unimodular_gram(g):
    """True iff all Smith invariant factors of the dense g are 1."""
    from k3hilb.zlinalg import smith_normal_form

    factors = smith_normal_form(g)
    return len(factors) == len(g) and all(d == 1 for d in factors)


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


def assert_sparse_smith_row_transform(rows, factors, u):
    """The sparse half of assert_smith_row_transform, for matrices too large
    to make dense: rows r and beyond of u * rows vanish and d_i divides row i,
    with `rows` and `u` as sparse rows {column: value}.  |det u| = 1 is not
    checked."""
    assert len(u) == len(rows)
    r = len(factors)
    for i, urow in enumerate(u):
        acc = {}
        for k, x in urow.items():
            for c, y in rows[k].items():
                acc[c] = acc.get(c, 0) + x * y
        bad = [c for c, v in acc.items() if (v % factors[i] if i < r else v)]
        assert not bad, (i, bad[:3])


def perm_count_of_cycle_type(lam, n):
    """Number of permutations in S_n with the given cycle type, by enumeration."""
    return sum(1 for p in permutations(range(n)) if cycle_type(p) == lam)


# ---------------------------------------------------------------------------
# dense matrices and row transforms


def identity_matrix(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def mat_vec(a, v):
    """Dense matrix times vector, over the vector's support."""
    support = [(j, x) for j, x in enumerate(v) if x]
    return [sum(row[j] * x for j, x in support) for row in a]


def dense_image_order(factors, u, vec):
    """The order of the torsion component of vec's image in the cokernel, from
    a dense row transform u; 0 when it has a free component that is not a
    multiple of the torsion exponent."""
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


def dense_cokernel_report(n, kind, check_generators=False):
    """`analysis.cokernel_report` through the dense matrix views: the full
    matrix, `dedup_columns`, the dense Smith form with a dense U, and orders
    from dense U * v."""
    from k3hilb import analysis, zlinalg
    from k3hilb.hilb_basis import hilb_base

    h2 = len(hilb_base(n, 2))
    if kind == "h2xh4":
        mat, domain_dim, degree = analysis.mixed_matrix(n), h2 * len(hilb_base(n, 4)), 6
    else:
        kpow = 2 if kind == "sym2" else 3
        mat, domain_dim, degree = analysis.sym_power_matrix(n, kpow), comb(h2 + kpow - 1, kpow), 2 * kpow
    generators = analysis._known_generators(kind, n) if check_generators else []
    mat_d = zlinalg.dedup_columns(mat)
    if not generators:
        factors = zlinalg.smith_normal_form(mat_d)
    else:
        factors, u = zlinalg.smith_normal_form(mat_d, transforms=True)
    checks = []
    for name, cls, expected, *primary in generators:
        vec = analysis.class_vector(cls, n, degree)
        if expected == 0:
            order = 0 if gcd(*mat_vec(u, vec)[len(factors) :]) == 1 else -1
        else:
            order = dense_image_order(factors, u, vec)
            if primary:
                order = analysis._primary_part(order, primary[0])
        checks.append(analysis.GeneratorCheck(name=name, expected_order=expected, order=order))
    return analysis.QuotientReport(
        n=n,
        map_kind=kind,
        domain_dim=domain_dim,
        codomain_dim=len(mat),
        cokernel=zlinalg.CokernelStructure.from_factors(factors, len(mat)),
        generator_checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# helpers that only the tests call, kept here rather than in the package


def as_partition(parts):
    """Normalize an iterable of positive integers to a canonical partition tuple."""
    p = tuple(sorted((int(x) for x in parts), reverse=True))
    if any(x < 1 for x in p):
        raise ValueError(f"partition parts must be positive, got {p}")
    return p


def part_conj(p):
    """Conjugate (transposed Young diagram) partition; an involution."""
    if not p:
        return ()
    return tuple(sum(1 for x in p if x >= i) for i in range(1, p[0] + 1))


def part_of_weight_length(w, l):
    """All partitions of weight w and length l, in canonical order."""
    from k3hilb.partitions import part_of_weight

    if w < 0 or l < 0:
        return ()
    return tuple(p for p in part_of_weight(w) if len(p) == l)


def parse_partition(text):
    """Inverse of `partitions.format_partition`; raises ValueError on bad syntax."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"partition must be bracketed like [3-2-1], got {text!r}")
    inner = s[1:-1].strip()
    if not inner:
        return ()
    try:
        parts = [int(x) for x in inner.split("-")]
    except ValueError:
        raise ValueError(f"non-integer part in partition {text!r}") from None
    return as_partition(parts)


def coprod_n(k, i):
    """Iterated comultiplication as a sparse {tuple of k indices: coeff} map."""
    from k3hilb import k3

    return dict(k3._coprod_items(k, i))


def monomial_scalar_power(mu, lam):
    """Hall scalar product <m_mu, p_lam>; an integer, zero across weights."""
    from k3hilb.partitions import part_z
    from k3hilb.symfunc import psi_inv

    if sum(lam) != sum(mu):
        return 0
    value = psi_inv(mu, lam) * part_z(tuple(lam))
    if value.denominator != 1:
        raise ArithmeticError(f"<m_{mu}, p_{lam}> = {value} is not integral")
    return int(value)


def verify_quotient_generator(n, cls, matrix, expected_order, degree):
    """Check that a class's image in coker(matrix) has exactly the given order.

    Order 0 means infinite order, checked as primitivity in the free part of
    the quotient.  For finite orders the torsion component of the image is
    measured; when the image also has a free component this is well defined
    only because that component is a multiple of the torsion exponent.
    """
    from k3hilb import analysis, zlinalg

    vec = analysis.class_vector(cls, n, degree)
    rows = [{j: x for j, x in enumerate(row) if x} for row in zlinalg.dedup_columns(matrix)]
    factors, u = zlinalg.smith_form(rows, transforms=True)
    return analysis._generator_order(factors, u, vec, expected_order) == expected_order


def cokernel(mat):
    """Structure of Z^rows / column-span(mat) for a dense matrix."""
    from k3hilb import zlinalg

    factors = zlinalg.smith_normal_form(zlinalg.dedup_columns(mat))
    return zlinalg.CokernelStructure.from_factors(factors, len(mat))


def integrate(n, vec):
    """Evaluation against the fundamental class: the top-symbol coefficient.

    Requires a homogeneous class of top degree 4n (symbols at ambient n).
    """
    from k3hilb.analysis import top_class
    from k3hilb.hilb_basis import an_weight, deg

    for sym in vec:
        if deg(sym) != 4 * n or an_weight(sym) != n:
            raise ValueError(f"not a top-degree class at n={n}: contains {sym}")
    return vec.get(top_class(n), 0)
