"""Cup-product multiplication maps and their cokernels, the integral pairing
on the middle cohomology, and the named quotient generators.

Matrices are assembled column by column from exact cup products; columns are
independent, so assembly optionally fans out over a process pool.  Cokernels
and lattice invariants come out of :mod:`k3hilb.zlinalg`.
"""

import multiprocessing
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, product
from math import gcd

from . import k3, store, zlinalg
from .hilb_basis import an_weight, canonical_class, deg, hilb_base, pad_class
from .qin_wang import cup_int, cup_int_list

__all__ = [
    "sym_power_matrix",
    "mixed_matrix",
    "integrate",
    "middle_gram_matrix",
    "middle_lattice",
    "bns_form_signature",
    "QuotientReport",
    "cokernel_report",
    "verify_quotient_generator",
    "class_one_power",
    "class_x_power",
    "class_alpha_generator",
    "class_K",
    "MAP_KINDS",
]

MAP_KINDS = ("sym2", "sym3", "h2xh4")


def _pool_map(fn, args, jobs):
    if jobs and jobs > 1:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(jobs) as pool:
            return pool.map(fn, args, chunksize=max(1, len(args) // (8 * jobs)))
    return [fn(a) for a in args]


def _sym_column(task):
    factors, n = task
    return cup_int_list(list(factors), n)


def _pair_column(task):
    (a, b), n = task
    return cup_int(a, b, n)


def _assemble(rows, sparse_columns):
    index = {sym: i for i, sym in enumerate(rows)}
    mat = [[0] * len(sparse_columns) for _ in rows]
    for j, col in enumerate(sparse_columns):
        for sym, c in col.items():
            mat[index[sym]][j] = c
    return mat


def sym_power_matrix(n, kpow, jobs=1):
    """Matrix of the k-th power map from degree-2 classes into degree 2k.

    Columns are indexed by multisets of size k over the 23 degree-2 basis
    classes, rows by the degree-2k basis of Hilb^n.
    """
    rows = hilb_base(n, 2 * kpow)
    cols = list(combinations_with_replacement(hilb_base(n, 2), kpow))
    return store.cached(
        {"kind": "sym_power_matrix", "n": n, "k": kpow},
        lambda: _assemble(rows, _pool_map(_sym_column, [(c, n) for c in cols], jobs)),
        encode=store.encode_int_matrix,
        decode=store.decode_int_matrix,
    )


def mixed_matrix(n, jobs=1):
    """Matrix of the pairing of degree-2 with degree-4 classes into degree 6.

    The domain is the full tensor product: columns run over ordered pairs.
    """
    if n < 2:
        raise ValueError("mixed map needs n >= 2")
    rows = hilb_base(n, 6)
    cols = list(product(hilb_base(n, 2), hilb_base(n, 4)))
    return store.cached(
        {"kind": "mixed_matrix", "n": n},
        lambda: _assemble(rows, _pool_map(_pair_column, [(c, n) for c in cols], jobs)),
        encode=store.encode_int_matrix,
        decode=store.decode_int_matrix,
    )


def top_class(n):
    """The degree-4n symbol of all point classes, normalized to integral 1."""
    return canonical_class((1,) * n, (k3.POINT,) * n)


def integrate(n, vec):
    """Evaluation against the fundamental class: the top-symbol coefficient.

    Requires a homogeneous class of top degree 4n (symbols at ambient n).
    """
    top = top_class(n)
    for sym in vec:
        if deg(sym) != 4 * n or an_weight(sym) != n:
            raise ValueError(f"not a top-degree class at n={n}: contains {sym}")
    return vec.get(top, 0)


def _gram_row(task):
    i, n = task
    basis = hilb_base(n, 2 * n)
    a = basis[i]
    top = top_class(n)
    return [cup_int(a, basis[j], n).get(top, 0) for j in range(i, len(basis))]


def _gram(n, jobs):
    m = len(hilb_base(n, 2 * n))
    half = _pool_map(_gram_row, [(i, n) for i in range(m)], jobs)
    g = [[0] * m for _ in range(m)]
    for i in range(m):
        for off, val in enumerate(half[i]):
            g[i][i + off] = val
            g[i + off][i] = val
    return g


def middle_gram_matrix(n, jobs=1):
    """Gram matrix of the integral pairing on the degree-2n basis of Hilb^n."""
    return store.cached(
        {"kind": "middle_gram", "n": n},
        lambda: _gram(n, jobs),
        encode=store.encode_int_matrix,
        decode=store.decode_int_matrix,
    )


@dataclass(frozen=True)
class LatticeReport:
    n: int
    rank: int
    parity: str
    signature: int
    unimodular: bool | None = None


def middle_lattice(n, jobs=1, check_unimodular=False):
    """Rank, parity and signature of the middle-cohomology lattice of Hilb^n."""
    g = middle_gram_matrix(n, jobs=jobs)
    uni = zlinalg.is_unimodular_gram(g) if check_unimodular else None
    return LatticeReport(
        n=n,
        rank=len(g),
        parity=zlinalg.parity(g),
        signature=zlinalg.signature(g),
        unimodular=uni,
    )


def bns_form_signature(jobs=1):
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
    degree-6 quotient by mixed products.
    """
    if not 1 <= i <= 22:
        raise ValueError("need an H^2 index 1..22")
    c = canonical_class
    return {
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
        return 0 if gcd(*zlinalg.mat_vec(u, vec)[len(factors) :]) == 1 else -1
    order = zlinalg.image_order(factors, u, vec)
    return _primary_part(order, primary) if primary else order


def verify_quotient_generator(n, cls, matrix, expected_order, degree):
    """Check that a class's image in coker(matrix) has exactly the given order.

    Order 0 means infinite order, checked as primitivity in the free part of
    the quotient.  For finite orders the torsion component of the image is
    measured; when the image also has a free component this is well defined
    only because that component is a multiple of the torsion exponent.
    """
    vec = class_vector(cls, n, degree)
    factors, u = zlinalg.smith_normal_form(zlinalg.dedup_columns(matrix), transforms=True)
    return _generator_order(factors, u, vec, expected_order) == expected_order


@dataclass(frozen=True)
class GeneratorCheck:
    name: str
    expected_order: int
    order: int

    @property
    def ok(self):
        return self.order == self.expected_order


@dataclass(frozen=True)
class QuotientReport:
    n: int
    map_kind: str
    domain_dim: int
    codomain_dim: int
    cokernel: zlinalg.CokernelStructure
    generator_checks: tuple = field(default=())


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


def cokernel_report(n, kind, check_generators=False, jobs=1):
    """Cokernel structure of one of the three multiplication maps.

    kind 'sym2'/'sym3': square/cube map out of the degree-2 classes;
    'h2xh4': the degree-2 times degree-4 pairing into degree 6.
    """
    if kind == "sym2":
        mat = sym_power_matrix(n, 2, jobs=jobs)
        degree = 4
    elif kind == "sym3":
        mat = sym_power_matrix(n, 3, jobs=jobs)
        degree = 6
    elif kind == "h2xh4":
        mat = mixed_matrix(n, jobs=jobs)
        degree = 6
    else:
        raise ValueError(f"unknown map kind {kind!r}; expected one of {MAP_KINDS}")
    generators = _known_generators(kind, n) if check_generators else []
    if generators:
        # one Smith reduction with transforms serves the cokernel and every
        # generator check
        factors, u = zlinalg.smith_normal_form(zlinalg.dedup_columns(mat), transforms=True)
        coker = zlinalg.CokernelStructure.from_factors(factors, len(mat))
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
        coker = zlinalg.cokernel(mat)
        checks = ()
    return QuotientReport(
        n=n,
        map_kind=kind,
        domain_dim=len(mat[0]) if mat else 0,
        codomain_dim=len(mat),
        cokernel=coker,
        generator_checks=checks,
    )
