"""Integral cohomology of a projective K3 surface.

Basis indices 0..23: index 0 is the unit in H^0, indices 1..22 span H^2, and
index 23 is the point class x in H^4.  The intersection form on H^2 is
U + U + U + (-E8) + (-E8) laid out on index ranges 1-2, 3-4, 5-6, 7-14, 15-22,
extended to all of H* by B(1, x) = 1.

The comultiplication is the adjoint of the cup product with the sign twist
(B (x) B)(coprod(a), b (x) c) = -B(a, b cup c); iterating it produces the
k-fold coproducts used by the symmetric-group model.  The Euler class that
enters a product once per unit of graph defect is the composite
e = m(coprod(1)); under the sign-twisted pairing it is -24*x.
"""

from functools import cache

UNIT = 0
POINT = 23
INDICES = tuple(range(24))
H2_INDICES = tuple(range(1, 23))

# negative E8 intersection matrix
E8 = (
    (-2, 1, 0, 0, 0, 0, 0, 0),
    (1, -2, 1, 0, 0, 0, 0, 0),
    (0, 1, -2, 1, 0, 0, 0, 0),
    (0, 0, 1, -2, 1, 0, 0, 0),
    (0, 0, 0, 1, -2, 1, 1, 0),
    (0, 0, 0, 0, 1, -2, 0, 1),
    (0, 0, 0, 0, 1, 0, -2, 0),
    (0, 0, 0, 0, 0, 1, 0, -2),
)

# its integral inverse
INV_E8 = (
    (-2, -3, -4, -5, -6, -4, -3, -2),
    (-3, -6, -8, -10, -12, -8, -6, -4),
    (-4, -8, -12, -15, -18, -12, -9, -6),
    (-5, -10, -15, -20, -24, -16, -12, -8),
    (-6, -12, -18, -24, -30, -20, -15, -10),
    (-4, -8, -12, -16, -20, -14, -10, -7),
    (-3, -6, -9, -12, -15, -10, -8, -5),
    (-2, -4, -6, -8, -10, -7, -5, -4),
)


def deg(i):
    """Cohomological degree of the basis class with index i."""
    if i == UNIT:
        return 0
    if i == POINT:
        return 4
    if 1 <= i <= 22:
        return 2
    raise ValueError(f"not a K3 index: {i}")


def _table(e8_table):
    """A 24 x 24 form from its block layout: B(1, x) = 1, the three hyperbolic
    planes on 1-2, 3-4, 5-6 and e8_table on 7-14 and 15-22."""
    rows = [[0] * 24 for _ in INDICES]
    rows[UNIT][POINT] = rows[POINT][UNIT] = 1
    for lo in (1, 3, 5):
        rows[lo][lo + 1] = rows[lo + 1][lo] = 1
    for lo in (7, 15):
        for a, row in enumerate(e8_table):
            rows[lo + a][lo : lo + 8] = row
    return tuple(map(tuple, rows))


# B and its inverse, built once
_B, _B_INV = _table(E8), _table(INV_E8)


def _entry(table, i, j):
    if not (0 <= i <= 23 and 0 <= j <= 23):
        raise ValueError(f"not a K3 index pair: ({i}, {j})")
    return table[i][j]


def bil(i, j):
    """The symmetric bilinear form B on H*(S, Z)."""
    return _entry(_B, i, j)


def bil_inv(i, j):
    """Entry of the inverse of B; integral since B is unimodular."""
    return _entry(_B_INV, i, j)


def gram_matrix():
    """The full 24 x 24 matrix of B."""
    return [list(row) for row in _B]


def cup_list(factors):
    """Cup product of a list of basis classes, as a sparse {index: coeff} map.

    The empty product is the unit; any product of total degree > 4 vanishes.
    """
    nontrivial = [i for i in factors if i != UNIT]
    if not nontrivial:
        return {UNIT: 1}
    if len(nontrivial) == 1:
        return {nontrivial[0]: 1}
    if len(nontrivial) == 2:
        i, j = nontrivial
        if i == POINT or j == POINT:
            return {}
        b = bil(i, j)
        return {POINT: b} if b else {}
    return {}


@cache
def cup_items(*factors):
    """cup_list(factors) as items, cached for the product rules, which read
    it once per label they meet."""
    return tuple(cup_list(factors).items())


def _coprod2(k):
    """Sparse coefficients of the comultiplication of basis class k.

    The adjoint of the cup product under the sign twist, in closed form:
    coprod(x) = -x(x)x, coprod(a) = -(a(x)x + x(x)a) for a in H^2, and
    coprod(1) = -(1(x)x + x(x)1 + sum of B^-1_ij e_i(x)e_j over H^2).
    """
    if k == POINT:
        acc = {(POINT, POINT): -1}
    elif k == UNIT:
        acc = {(UNIT, POINT): -1, (POINT, UNIT): -1}
        for i in H2_INDICES:
            for j in H2_INDICES:
                acc[i, j] = -_B_INV[i][j]
    elif k in H2_INDICES:
        acc = {(k, POINT): -1, (POINT, k): -1}
    else:
        raise ValueError(f"not a K3 index: {k}")
    return tuple((key, v) for key, v in sorted(acc.items()) if v)


@cache
def _coprod_items(k, i):
    """(k-1)-fold iterated comultiplication of basis class i, as sorted items."""
    if k < 0:
        raise ValueError("coproduct arity must be nonnegative")
    if k == 0:
        # counit convention: only the point class pairs with the empty tensor
        return (((), 1),) if i == POINT else ()
    if k == 1:
        return (((i,), 1),)
    if k == 2:
        return _coprod2(i)
    acc = {}
    for (a, b), w in _coprod2(i):
        for rest, v in _coprod_items(k - 1, b):
            key = (a,) + rest
            acc[key] = acc.get(key, 0) + w * v
    return tuple((key, v) for key, v in sorted(acc.items()) if v)


@cache
def _euler_items():
    acc = {}
    for (i, j), w in _coprod2(UNIT):
        for m, v in cup_list([i, j]).items():
            acc[m] = acc.get(m, 0) + w * v
    return tuple((m, v) for m, v in sorted(acc.items()) if v)


def euler_power_multiplier(g):
    """Multiplication by the g-th power of the Euler class e = m(coprod(1)).

    Returns an operator on sparse K3 classes: the identity for g = 0; for
    g = 1 the unit component maps to -24*x and positive degrees die; for g >= 2
    everything dies since x cup x = 0.
    """
    if g < 0:
        raise ValueError("Euler power must be nonnegative")

    def op(cls):
        out = {i: c for i, c in cls.items() if c}
        euler = _euler_items()
        for _ in range(g):
            acc = {}
            for i, c in out.items():
                for m, v in euler:
                    for r, w in cup_list([i, m]).items():
                        acc[r] = acc.get(r, 0) + c * v * w
            out = {r: c for r, c in acc.items() if c}
        return out

    return op
