"""Cup-product multiplication maps and their cokernels, the integral pairing
on the middle cohomology, and the named quotient generators.

Matrices are assembled column by column from exact cup products, in one
process.  Cokernels and lattice invariants come out of :mod:`k3hilb.zlinalg`.
"""

from collections import Counter
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations_with_replacement, groupby, product
from math import comb, factorial, gcd, prod
from operator import itemgetter
from typing import NamedTuple

from . import k3, zlinalg
from .hilb_basis import betti, canonical_class, hilb_base, pad_class
from .partitions import part_of_weight
from .qin_wang import _apply, _int_to_crea_items, _operator, cup_int_list

__all__ = [
    "sym_power_matrix",
    "mixed_matrix",
    "creation_pairing",
    "creation_gram",
    "middle_gram_matrix",
    "middle_lattice",
    "bns_form_signature",
    "QuotientReport",
    "cokernel_report",
    "class_one_power",
    "class_x_power",
    "class_alpha_generator",
    "class_K",
    "MAP_KINDS",
]

MAP_KINDS = ("sym2", "sym3", "h2xh4")


def _columns(domain, n):
    """The products of the factor tuples of `domain` at n, as sparse columns,
    composed from operators (`qin_wang._operator`), one per distinct head: a
    column (f_1, ..., f_k) is f_1's operator on the product of its tail
    (f_2, ..., f_k), memoized per tail; one factor's product is its padded symbol.
    """
    ops, tails = {}, {}

    def column(factors):
        head, tail = factors[0], factors[1:]
        op = ops.get(head) or ops.setdefault(head, _operator(pad_class(head, n)))
        if op is None:
            raise ValueError(f"{head} acts as no operator at n={n}")
        if tail not in tails:
            tails[tail] = column(tail) if tail[1:] else {pad_class(tail[0], n): 1}
        vec = tails[tail]
        # on a product of one term, the operator on its symbol alone
        return op(*vec) if list(vec.values()) == [1] else _apply(op, vec)

    return [column(factors) for factors in domain]


def _assemble(rows, sparse_columns):
    index = {sym: i for i, sym in enumerate(rows)}
    mat = [[0] * len(sparse_columns) for _ in rows]
    for j, col in enumerate(sparse_columns):
        for sym, c in col.items():
            mat[index[sym]][j] = c
    return mat


def _distinct_rows(rows, sparse_columns):
    """The rows of `zlinalg.dedup_columns(_assemble(rows, sparse_columns))`, sparse:
    the distinct nonzero columns in first-seen order."""
    index = {sym: i for i, sym in enumerate(rows)}
    distinct = dict.fromkeys(frozenset(col.items()) for col in sparse_columns)
    distinct.pop(frozenset(), None)
    out = [{} for _ in rows]
    for j, col in enumerate(distinct):
        for sym, c in col:
            out[index[sym]][j] = c
    return out


def sym_power_matrix(n, kpow):
    """Matrix of the k-th power map from degree-2 classes into degree 2k.

    Columns are indexed by multisets of size k over the 23 degree-2 basis
    classes, rows by the degree-2k basis of Hilb^n.
    """
    domain = combinations_with_replacement(hilb_base(n, 2), kpow)
    return _assemble(hilb_base(n, 2 * kpow), _columns(domain, n))


def mixed_matrix(n):
    """Matrix of the pairing of degree-2 with degree-4 classes into degree 6.

    The domain is the full tensor product: columns run over ordered pairs.
    """
    domain = product(hilb_base(n, 2), hilb_base(n, 4))
    return _assemble(hilb_base(n, 6), _columns(domain, n))


def top_class(n):
    """The degree-4n symbol of all point classes, normalized to integral 1."""
    return canonical_class((1,) * n, (k3.POINT,) * n)


@cache
def _partners():
    """Per K3 index i, the pairs (j, B(i, j)) with B(i, j) != 0, from one table of B."""
    return [[(j, b) for j, b in enumerate(row) if b] for row in k3.gram_matrix()]


@cache
def _block_pairing(part, labels):
    """Pairing of a block of k parts `part` labelled `labels`, as (beta, value) items.

    The value is ((-1)^(part-1) part)^k times the permanent sum over sigma in
    S_k of prod_i B(labels_i, beta_sigma(i)), beta descending.  Each ordering
    of beta is one tuple of the product below; sigma meets it once per
    permutation of beta's equal labels.
    """
    acc = {}
    for pairs in product(*(_partners()[l] for l in labels)):
        beta = tuple(sorted((j for j, _ in pairs), reverse=True))
        acc[beta] = acc.get(beta, 0) + prod(b for _, b in pairs)
    scale = ((-1) ** (part - 1) * part) ** len(labels)
    return tuple(
        (beta, scale * v * prod(factorial(beta.count(j)) for j in set(beta)))
        for beta, v in acc.items()
        if v
    )


def creation_pairing(sym):
    """The pairing of a creation symbol with every creation symbol, as {symbol: value}.

    q_k(a) has adjoint (-1)^k q_-k(a) and [q_k(a), q_m(b)] = k delta_(k+m,0)
    B(a, b) (Nakajima, Ann. Math. 145, 1997; Lehn and Sorger, Invent. Math.
    152, 2003).  So q_lambda(alpha)|0> pairs only with q_lambda(beta)|0>, to
    (-1)^(n - l(lambda)) prod(lambda) sum_sigma prod_i B(alpha_i, beta_sigma(i)),
    sigma over the permutations of equal parts: a product over their blocks.
    """
    row = {(): 1}
    for part, run in groupby(zip(*sym), key=itemgetter(0)):
        block = _block_pairing(part, tuple(l for _, l in run))
        row = {head + beta: v * w for head, v in row.items() for beta, w in block}
    return {(sym[0], beta): v for beta, v in row.items()}


def _creation_rows(basis):
    """The creation pairing on `basis`, which must hold every partner of its
    symbols, as symmetric sparse rows {j: value} over its indices."""
    index = {sym: i for i, sym in enumerate(basis)}
    return [{index[q]: v for q, v in creation_pairing(p).items()} for p in basis]


def creation_gram(n):
    """The middle pairing in the creation basis, as symmetric sparse rows.

    Row and column indices follow `hilb_base(n, 2n)`; row i is {j: value}
    over the nonzero entries.
    """
    return _creation_rows(hilb_base(n, 2 * n))


def _integral_gram(gc, basis):
    """G_int = C^T G_crea C as symmetric sparse rows, C the creation coefficients
    of the integral basis.

    `gc` is the creation pairing on `basis` as sparse rows; every creation
    symbol of a basis element must lie in `basis`, as it does for
    `hilb_base(n, 2n)`.  Each column of C comes as integers over one
    denominator, so every sum is taken in integers; an entry that does not
    divide back is not integral.
    """
    index = {sym: i for i, sym in enumerate(basis)}
    cols, scale = [], []
    for a in basis:
        d, items = _int_to_crea_items(a)  # a basis symbol is its own padding
        cols.append([(index[p], c) for p, c in items])
        scale.append(d)
    crows = [[] for _ in basis]
    for a, col in enumerate(cols):
        for p, c in col:
            crows[p].append((a, c))
    g = []
    for b, col in enumerate(cols):
        # G_int is symmetric, so column b is row b
        h = {}
        for q, c in col:
            for p, v in gc[q].items():
                h[p] = h.get(p, 0) + c * v
        acc = {}
        for p, x in h.items():
            for a, c in crows[p]:
                acc[a] = acc.get(a, 0) + c * x
        row = {}
        for a, v in acc.items():
            d = scale[a] * scale[b]
            if v % d:
                raise ArithmeticError(
                    f"non-integral pairing of {basis[a]} and {basis[b]}: {Fraction(v, d)}"
                )
            if v:
                row[a] = v // d
        g.append(row)
    return g


def middle_gram_matrix(n):
    """Gram matrix of the integral pairing on the degree-2n basis of Hilb^n, dense.

    Built as C^T G_crea C from the creation-basis pairing, so no integral
    product is ever taken.
    """
    rows = _integral_gram(creation_gram(n), hilb_base(n, 2 * n))
    return [[row.get(j, 0) for j in range(len(rows))] for row in rows]


class LatticeReport(NamedTuple):
    n: int
    rank: int
    parity: str
    signature: int
    unimodular: bool | None = None


# H^2(K3) = U^3 + (-E8)^2 in k3's layout: the labels of the first hyperbolic
# plane and of the first E8 block; the other summands are copies of these
_HYPERBOLIC, _E8 = (1, 2), tuple(range(7, 15))
_H2_SUMMANDS = (_HYPERBOLIC,) * 3 + (_E8,) * 2


def _summand_symbols(labels, w):
    """The weight-w symbols all of whose labels lie in `labels`, canonical: per
    partition of w, one multiset of the labels per group of equal parts."""
    down = sorted(labels, reverse=True)
    out = []
    for lam in part_of_weight(w):
        runs = [len(list(run)) for _, run in groupby(lam)]
        multisets = product(*(combinations_with_replacement(down, m) for m in runs))
        out.extend((lam, sum(groups, ())) for groups in multisets)
    return out


def _multisets(r, k):
    """The number of k-multisets from r elements."""
    return comb(r + k - 1, k) if r else int(k == 0)


@cache
def _label_form(labels):
    """The inertia (p, q) and |det| of B on `labels`; ValueError if degenerate."""
    rows = [{j: k3.bil(x, y) for j, y in enumerate(labels)} for x in labels]
    sig, det = zlinalg.form_invariants(rows)
    if not det:
        raise ValueError(f"B is degenerate on the labels {labels}")
    return (len(labels) + sig) // 2, (len(labels) - sig) // 2, abs(det)


@cache
def _permanent(alpha, beta):
    """sum over sigma in S_k of prod_i B(alpha_i, beta_sigma(i)), for label
    tuples sorted alike: expanded along alpha_1, one term per distinct label
    of beta, times its multiplicity."""
    if not alpha:
        return 1
    row = dict(_partners()[alpha[0]])
    return sum(
        beta.count(y) * row[y] * _permanent(alpha[1:], beta[:j] + beta[j + 1 :])
        for j, y in enumerate(beta)
        if y in row and (not j or beta[j - 1] != y)
    )


def _crea_entry(parts, alpha, beta):
    """The creation pairing of (parts, alpha) with (parts, beta): see
    `creation_pairing`, one permanent per group of equal parts."""
    v = (-1) ** (sum(parts) - len(parts)) * prod(parts)
    i = 0
    for _, run in groupby(parts):
        j = i + len(list(run))
        v *= _permanent(alpha[i:j], beta[i:j])
        i = j
    return v


@cache
def _summand_invariants(labels, w):
    """(signature, odd, |det|) of M_w, the integral Gram on the weight-w
    symbols all of whose labels lie in `labels`, without building it.

    Those symbols pair only among themselves, so M_w is a union of connected
    blocks of the weight-w middle Gram.  Over Q, M_w = C^T G C, with G the
    creation pairing on the same symbols and C the creation coefficients of
    the integral basis: square, and triangular since psi^-1 is, label by
    label (Qin and Wang, Math. Ann. 331, 2005).  So:
    - sigma(M_w) = sigma(G), by Sylvester's law of inertia.  G is
      block-diagonal by cycle type lambda; a block is (-1)^(w - l(lambda))
      prod(lambda) times the tensor product, over the part sizes, of the
      permanent form on m-multisets of labels, m the multiplicity of the
      part.  That form is Sym^m(B_S) in a rescaled basis, of signature
      sum_b (-1)^b N(p, m - b) N(q, b) for B_S of inertia (p, q), N(r, k)
      the number of k-multisets from r elements.
    - M_w is odd iff some <b, b> is, each computed from b's creation
      expansion, where only terms of equal cycle type pair.
    - |det M_w| = |det C|^2 |det G|.  |det C| is the product over b of b's
      own coefficient c_bb / d_b; |det G| is |det B_S|^(sum_s l(s) / r) times
      prod_s prod(lambda(s)) prod_(part, label) m(s)!, over the symbols s,
      r = |labels|, m(s) the multiplicity of a (part, label) pair in s: the
      determinant of the permanent form in the multiset basis.
    Raises ValueError if B is degenerate on `labels`.
    """
    p, q, det_b = _label_form(labels)

    def sym_signature(m):
        return sum((-1) ** b * _multisets(p, m - b) * _multisets(q, b) for b in range(m + 1))

    sig = sum(
        (-1) ** (w - len(lam)) * prod(sym_signature(len(list(run))) for _, run in groupby(lam))
        for lam in part_of_weight(w)
    )
    odd, nums, dens, length = False, Counter(), Counter(), 0
    for s in _summand_symbols(labels, w):
        d, items = _int_to_crea_items(s)  # a summand symbol is its own padding
        v = sum(
            ca * cb * _crea_entry(a[0], a[1], b[1])
            for a, ca in items
            for b, cb in items
            if a[0] == b[0]
        )
        if v % (d * d):
            raise ArithmeticError(f"non-integral self-pairing of {s}: {Fraction(v, d * d)}")
        odd = odd or bool(v // (d * d) % 2)
        c = dict(items)[s]
        mult = prod(factorial(len(list(run))) for _, run in groupby(zip(*s)))
        nums[prod(s[0]) * mult * c * c] += 1
        dens[d * d] += 1
        length += len(s[0])
    # each distinct factor raised to its count: no product grows symbol by symbol
    num, den = (prod(x**k for x, k in counts.items()) for counts in (nums, dens))
    det, rest = divmod(num * det_b ** (length // len(labels)), den)
    if length % len(labels) or rest:
        raise ArithmeticError(f"non-integral determinant of the summand {labels} at weight {w}")
    return sig, odd, det


def _tensor_sums(a, b):
    """(signature, odd) of sum_(u+v=w) A_u (x) B_v for every w, from those of
    A_u and B_v: the signature multiplies over (x) and adds over the sum, and a
    tensor product has an odd diagonal entry iff every factor has one."""
    return [
        (
            sum(a[u][0] * b[w - u][0] for u in range(w + 1)),
            any(a[u][1] and b[w - u][1] for u in range(w + 1)),
        )
        for w in range(len(a))
    ]


def middle_lattice(n, check_unimodular=False):
    """Rank, parity, signature and unimodularity of the middle lattice of Hilb^n.

    The lattice is read off its orthogonal summands; the full Gram matrix
    (`middle_gram_matrix`) is never built.  A padded symbol of degree 2n is
    (U, P, H): unit parts U, point parts P with l(U) = l(P), and H^2-labelled
    parts H of weight n - |U| - |P|.  Nakajima's pairing (Ann. Math. 145,
    1997) matches a part only with an equal part whose label pairs with its
    own, and the integral basis is a product of per-label functions, so
    (U, P, H) pairs only with (P, U, H'), to eps(U) eps(P) <H, H'>, eps(mu) =
    (-1)^(|mu| - l(mu)).  A block with U = P is F_(n - 2|U|), the pairing on
    the H parts; the blocks with U != P come in hyperbolic pairs, of
    signature 0, zero diagonal and |det| = |det F|^2.  In turn F_w is the sum
    over w_1 + ... + w_5 = w of the tensor products of the M_(w_i) of the
    summands U, U, U, -E8, -E8 of H^2(K3), whose signature, parity and |det|
    come in closed form (`_summand_invariants`): no Gram matrix is built or
    eliminated.  So the signature is sum_j p(j) sigma(F_(n - 2j)), the
    lattice is odd iff some F_(n - 2j) is, and unimodular iff every M_w,
    w <= n, is; the rank is `betti(n, 2n)`.
    """
    forms = [[_summand_invariants(labels, w)[:2] for w in range(n + 1)] for labels in _H2_SUMMANDS]
    f = reduce(_tensor_sums, forms)
    blocks = [(len(part_of_weight(j)), f[n - 2 * j]) for j in range(n // 2 + 1)]
    unimodular = None
    if check_unimodular:
        unimodular = all(
            _summand_invariants(labels, w)[2] == 1
            for labels in (_HYPERBOLIC, _E8)
            for w in range(n + 1)
        )
    return LatticeReport(
        n=n,
        rank=betti(n, 2 * n),
        parity="odd" if any(odd for _, (_, odd) in blocks) else "even",
        signature=sum(count * sig for count, (sig, _) in blocks),
        unimodular=unimodular,
    )


def bns_form_signature():
    """Signature of (a, b) -> integral of a.b.(boundary half-class)^2 on H^2 of Hilb^2."""
    basis = hilb_base(2, 2)
    d = canonical_class((2,), (k3.UNIT,))
    top = top_class(2)

    def entry(a, b):
        return cup_int_list([a, b, d, d], 2).get(top, 0)

    g = [[entry(a, b) for b in basis] for a in basis]
    return zlinalg.signature(g)


# ---------------------------------------------------------------------------
# named classes appearing as quotient generators


def class_one_power(*parts):
    """The class 1^(parts) as a single reduced symbol, e.g. class_one_power(3)."""
    return {canonical_class(parts, (k3.UNIT,) * len(parts)): 1}


def class_x_power(*parts):
    """The class x^(parts), all labels the point class."""
    return {canonical_class(parts, (k3.POINT,) * len(parts)): 1}


def class_alpha_generator(i):
    """The degree-6 generator attached to the i-th degree-2 class.

    An integral combination of products of the i-labeled symbols with boundary
    powers; one such class per i = 1..22 generates a torsion factor of the
    degree-6 quotient by mixed products.  It includes -(B(e_i, e_i)/2)*c0,
    c0 = -3*([2-1-1],[0,23,0]) - ([4],[0]), which vanishes below n = 4.
    """
    if not 1 <= i <= 22:
        raise ValueError("need an H^2 index 1..22")
    c = canonical_class
    b = k3.bil(i, i)
    return {
        c((2, 1, 1), (k3.UNIT, k3.POINT, k3.UNIT)): 3 * b // 2,
        c((4,), (k3.UNIT,)): b // 2,
        c((1, 1, 1), (i, i, i)): 1,
        c((2, 1), (i, i)): -3,
        c((3,), (i,)): 3,
        c((2, 1, 1), (k3.UNIT, i, i)): 3,
        c((2, 2), (k3.UNIT, i)): -6,
        c((2, 2, 1), (k3.UNIT, k3.UNIT, i)): 6,
        c((3, 1), (k3.UNIT, i)): -3,
    }


def class_K():
    """The distinguished degree-6 class built from the H^2 pairing.

    Assembled as twice the class first (all half-integral coefficients pair
    up), checked even, then halved.
    """
    c = canonical_class
    twice = {}

    def add(sym, v):
        twice[sym] = twice.get(sym, 0) + v

    for i in range(1, 23):
        for j in range(1, 23):
            if i == j:
                continue
            b = k3.bil(i, j)
            if not b:
                continue
            add(c((1, 1, 1), (i, i, j)), 2 * b)
            add(c((2, 1), (i, j)), -4 * b)
            add(c((2, 1, 1), (k3.UNIT, i, j)), 3 * b)
    for i in range(1, 23):
        b = k3.bil(i, i)
        if not b:
            continue
        add(c((1, 1, 1), (i, i, i)), 2 * b)
        add(c((2, 1), (i, i)), -4 * b)
        add(c((2, 1, 1), (k3.UNIT, i, i)), 3 * b)
    add(c((2,), (k3.POINT,)), 2)
    add(c((2, 1), (k3.UNIT, k3.POINT)), -2)

    out = {}
    for sym, v in twice.items():
        if v % 2:
            raise ArithmeticError(f"coefficient of {sym} in 2K is odd: {v}")
        if v:
            out[sym] = v // 2
    return out


def combine_classes(*weighted):
    """Integer combination of class dicts: combine_classes((cls, coeff), ...)."""
    out = {}
    for cls, w in weighted:
        for sym, v in cls.items():
            out[sym] = out.get(sym, 0) + w * v
    return {sym: v for sym, v in out.items() if v}


def class_vector(cls, n, degree):
    """Coordinates of a class dict in the degree-d basis at ambient n.

    Symbols too heavy for n are the zero class and are dropped.
    """
    basis = hilb_base(n, degree)
    index = {sym: i for i, sym in enumerate(basis)}
    vec = [0] * len(basis)
    for sym, v in cls.items():
        padded = pad_class(sym, n)
        if padded is None:
            continue
        if padded not in index:
            raise ValueError(f"{padded} is not a degree-{degree} basis symbol")
        vec[index[padded]] += v
    return vec


def _generator_order(factors, u, vec, expected, primary=None):
    """The order of a generator's image as checked against `expected`.

    Expected order 0 (infinite) is checked as primitivity in the free part of
    the quotient: 0 if the image is primitive there, else -1.  Otherwise the
    torsion order of the image (see `zlinalg.image_order`), restricted to its
    p-primary part when a prime `primary` is given.
    """
    if expected == 0:
        return 0 if gcd(*zlinalg.sparse_mat_vec(u[len(factors) :], vec)) == 1 else -1
    order = zlinalg.image_order(factors, u, vec)
    return _primary_part(order, primary) if primary else order


class GeneratorCheck(NamedTuple):
    name: str
    expected_order: int
    order: int

    @property
    def ok(self):
        return self.order == self.expected_order


class QuotientReport(NamedTuple):
    n: int
    map_kind: str
    domain_dim: int
    codomain_dim: int
    cokernel: zlinalg.CokernelStructure
    generator_checks: tuple = ()


def _primary_part(order, p):
    """The p-power dividing an order; 0 stays 0 (infinite)."""
    if order == 0:
        return 0
    part = 1
    while order % p == 0:
        order //= p
        part *= p
    return part


def _known_generators(kind, n):
    """Named generator classes with expected orders, as (name, class, order[, p]).

    A fourth entry p restricts the check to the p-primary component of the
    image: the order-2 claim for 1^(4) at n=4 holds for its 2-part (the full
    image also carries an odd-order component).
    """
    if kind == "sym2" and n == 3:
        return [("1^(3)", class_one_power(3), 3)]
    if kind == "sym3" and n == 2:
        return [("x^(2)", class_x_power(2), 2)]
    if kind == "h2xh4":
        alphas = [(f"alpha_{i} class", class_alpha_generator(i)) for i in range(1, 23)]
        if n == 3:
            return [(name, cls, 3) for name, cls in alphas] + [("K", class_K(), 3)]
        if n == 4:
            return (
                [(name, cls, 6) for name, cls in alphas]
                + [("1^(4) (2-part)", class_one_power(4), 2, 2)]
                + [("K - 38*1^(4)", combine_classes((class_K(), 1), (class_one_power(4), -38)), 108)]
            )
        if n == 5:
            free = combine_classes(
                (class_K(), 1), (class_one_power(4), -16), (class_one_power(3, 2), 21)
            )
            # all factors are free here; the named classes generate summands
            return [(name, cls, 0) for name, cls in alphas] + [
                ("K - 16*1^(4) + 21*1^(3,2)", free, 0)
            ]
    return []


def cokernel_report(n, kind, check_generators=False):
    """Cokernel structure of one of the three multiplication maps.

    kind 'sym2'/'sym3': square/cube map out of the degree-2 classes;
    'h2xh4': the degree-2 times degree-4 pairing into degree 6.
    """
    if kind in ("sym2", "sym3"):
        kpow = 2 if kind == "sym2" else 3
        domain = list(combinations_with_replacement(hilb_base(n, 2), kpow))
        degree = 2 * kpow
    elif kind == "h2xh4":
        domain = list(product(hilb_base(n, 2), hilb_base(n, 4)))
        degree = 6
    else:
        raise ValueError(f"unknown map kind {kind!r}; expected one of {MAP_KINDS}")
    rows = _distinct_rows(hilb_base(n, degree), _columns(domain, n))
    generators = _known_generators(kind, n) if check_generators else []
    if generators:
        # one Smith reduction with transforms serves the cokernel and every
        # generator check
        factors, u = zlinalg.smith_form(rows, transforms=True)
        checks = tuple(
            GeneratorCheck(
                name=name,
                expected_order=expected,
                order=_generator_order(
                    factors, u, class_vector(cls, n, degree), expected, *primary
                ),
            )
            for name, cls, expected, *primary in generators
        )
    else:
        factors = zlinalg.smith_form(rows)
        checks = ()
    return QuotientReport(
        n=n,
        map_kind=kind,
        domain_dim=len(domain),
        codomain_dim=len(rows),
        cokernel=zlinalg.CokernelStructure.from_factors(factors, len(rows)),
        generator_checks=checks,
    )
