import random

import pytest
import numpy as np
from hypothesis import assume, given, settings, strategies as st

from k3hilb import zlinalg
from k3hilb.zlinalg import (
    CokernelStructure,
    dedup_columns,
    form_invariants,
    image_order,
    signature,
    smith_form,
    smith_normal_form,
    sparse_mat_vec,
)
import oracles
from oracles import cokernel, det, identity_matrix


def test_snf_examples():
    assert smith_normal_form(identity_matrix(4)) == [1, 1, 1, 1]
    assert smith_normal_form([[3]]) == [3]
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([]) == []
    assert smith_normal_form([[], []]) == []


def test_snf_divisibility_and_det_random():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 8)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        factors = smith_normal_form(mat)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        d = det(mat)
        if d:
            prod = 1
            for f in factors:
                prod *= f
            assert prod == abs(d)
        else:
            assert len(factors) < n


def test_snf_transforms_verified_random():
    rng = random.Random(5)
    for _ in range(40):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        factors, u = smith_normal_form(mat, transforms=True)
        assert factors == smith_normal_form(mat)
        oracles.assert_smith_factors(mat, factors)
        oracles.assert_smith_row_transform(mat, factors, u)


@given(
    st.lists(
        st.lists(st.integers(min_value=-20, max_value=20), min_size=3, max_size=3),
        min_size=2,
        max_size=5,
    )
)
@settings(max_examples=40, deadline=None)
def test_snf_rank_matches_rational_rank(rows):
    factors = smith_normal_form(rows)
    assert len(factors) == oracles.rational_rank(rows)


def scrambled_diagonal(diag, m, n, seed, ops=260):
    """Hide a known Smith form behind random unimodular row/column moves."""
    rng = random.Random(seed)
    a = [[0] * n for _ in range(m)]
    for i, d in enumerate(diag):
        a[i][i] = d
    for _ in range(ops):
        kind = rng.randrange(4)
        if kind == 0:
            i, j = rng.sample(range(m), 2)
            f = rng.choice((-1, 1))
            a[j] = [x + f * y for x, y in zip(a[j], a[i])]
        elif kind == 1:
            i, j = rng.sample(range(n), 2)
            f = rng.choice((-1, 1))
            for row in a:
                row[j] += f * row[i]
        elif kind == 2:
            i, j = rng.sample(range(m), 2)
            a[i], a[j] = a[j], a[i]
        else:
            i, j = rng.sample(range(n), 2)
            for row in a:
                row[i], row[j] = row[j], row[i]
    return a


def test_snf_large_scrambled_unit_pass_and_residual():
    # the unit pivots come first and take most of the rank; the non-unit
    # factors come from the least-absolute-value pivots of the same
    # elimination
    diag = [1] * 70 + [2] * 4 + [6] * 2 + [12]
    mat = scrambled_diagonal(diag, 80, 90, seed=11)
    assert smith_normal_form(mat) == diag
    factors, u = smith_normal_form(mat, transforms=True)
    assert factors == diag
    oracles.assert_smith_row_transform(mat, factors, u)


def test_snf_scrambled_few_units_residual_does_the_work():
    # only three factors are units, so at most three unit pivots are taken
    # from the heap and the least-absolute-value pivots reduce the rest of
    # the 72 x 70 matrix
    diag = [1] * 3 + [2] * 60 + [6] * 3 + [30]
    mat = scrambled_diagonal(diag, 72, 70, seed=17)
    assert smith_normal_form(mat) == diag
    factors, u = smith_normal_form(mat, transforms=True)
    assert factors == diag
    oracles.assert_smith_row_transform(mat, factors, u)


@pytest.mark.parametrize("seed", [23, 29, 31])
def test_snf_scrambled_three_non_unit_values(seed):
    # three distinct non-unit values, each proved to divide every live entry
    # by one scan and then taken without one; the least-entry heap meets
    # ties across rows
    diag = [1] * 20 + [2] * 5 + [4] * 3 + [12] * 2
    mat = scrambled_diagonal(diag, 34, 32, seed=seed)
    assert smith_normal_form(mat) == diag
    factors, u = smith_normal_form(mat, transforms=True)
    assert factors == diag
    oracles.assert_smith_row_transform(mat, factors, u)


@pytest.mark.parametrize("kind", ["sym2", "sym3", "h2xh4"])
def test_smith_form_row_transform_on_cokernel_maps_hilb3(kind, monkeypatch):
    # the pivot order decides U, and the generator orders are read through
    # it: certify U on the real maps, on sparse rows
    from k3hilb import analysis

    seen = []

    def spy(rows, transforms=False):
        seen.append(rows)
        return smith_form(rows, transforms)

    monkeypatch.setattr(zlinalg, "smith_form", spy)
    report = analysis.cokernel_report(3, kind)
    (rows,) = seen
    factors, u = smith_form(rows, transforms=True)
    assert zlinalg.CokernelStructure.from_factors(factors, len(rows)) == report.cokernel
    oracles.assert_sparse_smith_row_transform(rows, factors, u)


@pytest.mark.parametrize(
    "mat,diag",
    [
        # the least pivot divides nothing else: a row is added to the pivot row
        ([[2, 0], [0, 3]], [1, 6]),
        ([[6, 0], [0, 4]], [2, 12]),
        ([[0, 3], [2, 0], [0, 0]], [1, 6]),
        # the pivot row is reduced by column moves to a smaller pivot
        ([[4, 6]], [2]),
        ([[4], [6]], [2]),
        # negative pivots
        ([[-2, 0], [0, -3]], [1, 6]),
        ([[-6, 0], [0, 4]], [2, 12]),
        ([[-4, -6]], [2]),
        ([[0, -4], [-6, 0]], [2, 12]),
        ([[-4, 6], [6, -4]], [2, 10]),
        # no +-1 entry: the unit heap starts empty
        ([[2, 4], [6, 8]], [2, 4]),
        # 2 is proved to divide every live entry; the next least entry, 4,
        # does not divide 6, so its scan must run and the factor is 2 again
        ([[2, 0, 0], [0, 4, 0], [0, 0, 6]], [2, 2, 12]),
        # the first 2 fails its scan and settles at 1, which proves nothing:
        # the second 2 must scan again and meet the second 3
        ([[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]], [1, 1, 6, 6]),
    ],
    ids=[
        "2.3",
        "6.4",
        "3.2-tall",
        "4-6",
        "4-6-column",
        "neg2.3",
        "neg6.4",
        "neg4-6",
        "4.6-anti",
        "neg4.6",
        "no-unit",
        "content-then-larger",
        "failed-scan",
    ],
)
def test_snf_non_unit_pivots(mat, diag):
    # the factors are certified by the minors, U by |det U| = 1 and the rows
    # of U * mat, independently of the elimination
    assert smith_normal_form(mat) == diag
    oracles.assert_smith_factors(mat, diag)
    factors, u = smith_normal_form(mat, transforms=True)
    assert factors == diag
    oracles.assert_smith_row_transform(mat, factors, u)
    rows = [{j: x for j, x in enumerate(row) if x} for row in mat]
    assert smith_form(rows) == diag


def test_smith_form_sym3_hilb3_mod_p_ranks():
    # the cube map on Hilb^3 has factors 1 (2047 times), 2 (230), 36 (22)
    # and 72; most of its rank comes from unit pivots, its torsion from the
    # least-absolute-value ones.  Over F_p the rank drops by the number of
    # factors p divides, and the sparse echelon form of the oracle shares no
    # code with the Smith elimination
    from k3hilb import analysis

    mat = zlinalg.dedup_columns(analysis.sym_power_matrix(3, 3))
    assert (len(mat), len(mat[0])) == (2554, 2300)
    factors = smith_normal_form(mat)
    assert factors == [1] * 2047 + [2] * 230 + [36] * 22 + [72]
    for p, rank in ((2, 2047), (3, 2277), ((1 << 61) - 1, 2300)):
        assert oracles.rank_mod_p(mat, p) == rank == len(factors) - sum(d % p == 0 for d in factors)


# mostly zeros, some units, some larger entries: the shape of the
# cup-product matrices, where the unit pivots do most of the elimination
_SPARSE_ENTRY = st.one_of(
    st.sampled_from([0, 0, 0, 0, 0, 1, -1]),
    st.integers(min_value=-30, max_value=30),
)
_SPARSE_MATRIX = st.tuples(st.integers(1, 10), st.integers(1, 10)).flatmap(
    lambda shape: st.lists(
        st.lists(_SPARSE_ENTRY, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)


@given(_SPARSE_MATRIX)
@settings(max_examples=60, deadline=None)
def test_snf_random_sparse_matrices(mat):
    factors, u = smith_normal_form(mat, transforms=True)
    assert factors == smith_normal_form(mat)
    oracles.assert_smith_factors(mat, factors)
    oracles.assert_smith_row_transform(mat, factors, u)


def _sparse_test_matrix(rng):
    """A small random integer matrix, its zero rows, zero columns and duplicate
    columns spliced in: returns (base, padded) as dense lists of rows."""
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    entries = [0, 0, 0, 1, -1, 1, -1, 2, -3, 4, 6, -9]
    base = [[rng.choice(entries) for _ in range(n)] for _ in range(m)]
    cols = [list(col) for col in zip(*base)]
    for _ in range(rng.randint(0, 3)):
        extra = [0] * m if rng.random() < 0.4 or not cols else list(rng.choice(cols))
        cols.insert(rng.randint(0, len(cols)), extra)
    padded = [list(row) for row in zip(*cols)]
    for _ in range(rng.randint(0, 2)):
        padded.insert(rng.randint(0, len(padded)), [0] * len(cols))
    return base, padded


def test_smith_form_sparse_rows_random():
    # zero rows, zero columns and repeated columns change no invariant factor,
    # so the factors of the padded matrix are those of the small base one,
    # certified by its minors
    rng = random.Random(13)
    for _ in range(500):
        base, mat = _sparse_test_matrix(rng)
        rows = [{j: x for j, x in enumerate(row) if x} for row in mat]
        copy = [dict(row) for row in rows]
        factors, u = smith_form(rows, transforms=True)
        assert rows == copy
        assert smith_form(rows) == factors == smith_normal_form(base)
        oracles.assert_smith_factors(base, factors)
        assert all(set(row) <= set(range(len(mat))) and all(row.values()) for row in u)
        dense_u = [[row.get(k, 0) for k in range(len(mat))] for row in u]
        assert smith_normal_form(mat, transforms=True) == (factors, dense_u)
        # |det U| = 1, rows r... of U*A vanish and d_i divides row i
        oracles.assert_smith_row_transform(mat, factors, dense_u)
        for _ in range(3):
            vec = [rng.choice((0, 0, 1, -1, 2, 3)) for _ in mat]
            assert sparse_mat_vec(u, vec) == oracles.mat_vec(dense_u, vec)
            assert image_order(factors, u, vec) == oracles.dense_image_order(factors, dense_u, vec)


def test_smith_form_empty_and_zero_rows():
    assert smith_form([]) == []
    assert smith_form([{}, {}], transforms=True) == ([], [{0: 1}, {1: 1}])
    assert smith_form([{3: 0}, {5: 2}], transforms=True) == ([2], [{1: 1}, {0: 1}])


def test_cokernel_examples():
    free3 = cokernel([[] for _ in range(3)])
    assert free3 == CokernelStructure(torsion=(), free_rank=3)
    assert cokernel([[3]]) == CokernelStructure(torsion=(3,), free_rank=0)
    mixed = cokernel([[2, 0], [0, 0]])
    assert mixed == CokernelStructure(torsion=(2,), free_rank=1)
    assert mixed.describe() == "Z/2 + Z^1"


def test_dedup_columns():
    mat = [[1, 0, 1, 2], [3, 0, 3, 4]]
    assert dedup_columns(mat) == [[1, 2], [3, 4]]
    assert cokernel(mat) == cokernel(dedup_columns(mat))


def order_in_cokernel(mat, vec):
    rows = [{j: x for j, x in enumerate(row) if x} for row in dedup_columns(mat)]
    factors, u = smith_form(rows, transforms=True)
    return image_order(factors, u, vec)


def test_image_order():
    assert order_in_cokernel([[3]], [1]) == 3
    assert order_in_cokernel([[3]], [3]) == 1
    assert order_in_cokernel([[2, 0], [0, 0]], [1, 0]) == 2
    assert order_in_cokernel([[2, 0], [0, 0]], [0, 1]) == 0
    assert order_in_cokernel([[6, 0], [0, 4]], [3, 2]) == 2


def test_image_order_free_part_multiple_of_exponent():
    # Z/2 + Z: the image (1, 2) has free component 2, a multiple of the
    # exponent 2, so its torsion component (order 2) is well defined
    assert order_in_cokernel([[2, 0], [0, 0]], [1, 2]) == 2
    assert order_in_cokernel([[2, 0], [0, 0]], [1, 3]) == 0
    # with no torsion any nonzero free component has infinite order
    assert order_in_cokernel([[1, 0], [0, 0]], [0, 2]) == 0
    assert order_in_cokernel([[1, 0], [0, 0]], [5, 0]) == 1


def test_signature_examples():
    assert signature([[0, 1], [1, 0]]) == 0
    assert signature([[1]]) == 1
    assert signature([[2, 0], [0, -3]]) == 0
    assert signature([[1, 0, 0], [0, 2, 0], [0, 0, 5]]) == 3
    with pytest.raises(ValueError):
        signature([[0, 0], [0, 1]])
    with pytest.raises(ValueError):
        signature([[1, 2], [3, 4]])


def test_signature_random_properties():
    rng = random.Random(7)
    checked = 0
    for _ in range(60):
        n = rng.randint(1, 6)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        g = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
        if det(g) == 0:
            continue
        s = signature(g)
        neg = [[-x for x in row] for row in g]
        assert signature(neg) == -s
        assert (s - n) % 2 == 0
        checked += 1
    assert checked > 20


@st.composite
def _sparse_forms(draw):
    """Sparse nondegenerate symmetric integer matrices; with a zero diagonal
    the first elimination step is the hyperbolic one."""
    n = draw(st.integers(1, 8))
    zero_diagonal = draw(st.booleans())
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1 if zero_diagonal else i, n):
            g[i][j] = g[j][i] = draw(st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3]))
    assume(det(g) != 0)
    return g


def _unimodular(rng, n):
    """A random product of elementary integer column moves."""
    p = identity_matrix(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            p = [[-x if k == i else x for k, x in enumerate(row)] for row in p]
        else:
            c = rng.choice((-2, -1, 1, 2))
            p = [[x + c * row[j] if k == i else x for k, x in enumerate(row)] for row in p]
    return p


@given(_sparse_forms(), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_signature_sparse_forms(g, seed):
    # |entries| <= 3 and n <= 8, so a nondegenerate form has no eigenvalue
    # below |det| / 24^7 > 2e-10, far above the float error
    eig = np.linalg.eigvalsh(np.array(g, dtype=float))
    assert all(abs(x) > 1e-11 for x in eig)
    s = signature(g)
    assert s == sum(1 for x in eig if x > 0) - sum(1 for x in eig if x < 0)
    p = _unimodular(random.Random(seed), len(g))
    pt = [list(col) for col in zip(*p)]
    assert signature(oracles.mat_mul(pt, oracles.mat_mul(g, p))) == s


def _random_form(rng, n, zero_diagonal, values=(0, 0, 0, 1, -1, 2, -3, 5)):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1 if zero_diagonal else i, n):
            g[i][j] = g[j][i] = rng.choice(values)
    return g


def _sparse(g):
    return [{j: x for j, x in enumerate(row) if x} for row in g]


def test_form_invariants_match_fraction_oracle():
    # half the forms have an all-zero diagonal, so the elimination must take
    # the hyperbolic step e_k += e_l, which makes a_kk = 2 a_kl
    rng = random.Random(20261019)
    nondegenerate = 0
    for t in range(2000):
        g = _random_form(rng, rng.randint(1, 9), zero_diagonal=t % 2 == 0)
        sig, d = form_invariants(_sparse(g))
        assert d == det(g), g
        if d:
            assert sig == oracles.fraction_signature(g) == signature(g), g
            nondegenerate += 1
        else:
            with pytest.raises(ValueError):
                signature(g)
    assert 1200 < nondegenerate < 1900


def test_form_invariants_degenerate_forms():
    rng = random.Random(11)
    for t in range(300):
        n = rng.randint(2, 7)
        # a repeated row and column: det 0 by construction
        g = _random_form(rng, n - 1, zero_diagonal=t % 2 == 0, values=(0, 1, -1, 2))
        g = [row + row[-1:] for row in g]
        g.append(list(g[-1]))
        sig, d = form_invariants(_sparse(g))
        assert d == 0
        with pytest.raises(ValueError):
            signature(g)
        # the signature counts the nondegenerate part; with |entries| <= 2 and
        # n <= 7 the nonzero eigenvalues multiply to a nonzero integer minor
        # sum, so none is below 14^-5 > 1e-6, far above the float error
        eig = np.linalg.eigvalsh(np.array(g, dtype=float))
        assert sig == sum(x > 1e-9 for x in eig) - sum(x < -1e-9 for x in eig)
    assert form_invariants([{}, {2: 1}, {1: 1}]) == (0, 0)
    with pytest.raises(ValueError):
        signature([[1, 0], [0]])
    with pytest.raises(ValueError):
        signature([[0, 1, 0], [1, 0, 0]])


def test_form_invariants_leaves_rows_unchanged():
    rows = [{0: 2, 1: 1}, {0: 1, 1: 2}]
    assert form_invariants(rows) == (2, 3)
    assert rows == [{0: 2, 1: 1}, {0: 1, 1: 2}]


def test_parity():
    assert oracles.parity([[0, 1], [1, 0]]) == "even"
    assert oracles.parity([[1]]) == "odd"
    assert oracles.parity([[2, 1], [1, 4]]) == "even"


def test_rank_and_full_column_rank():
    assert oracles.rank([[1, 2], [2, 4]]) == 1
    assert oracles.rank([[1, 0], [0, 1], [5, 7]]) == 2
    assert oracles.has_full_column_rank([[1, 0], [0, 1], [5, 7]])
    assert not oracles.has_full_column_rank([[1, 2], [2, 4]])
    rng = random.Random(13)
    for _ in range(30):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        assert oracles.rank(mat) == oracles.rational_rank(mat)
        assert oracles.has_full_column_rank(mat) == (oracles.rational_rank(mat) == n)


def test_unimodular_gram():
    assert oracles.is_unimodular_gram([[0, 1], [1, 0]])
    assert not oracles.is_unimodular_gram([[2]])
    assert oracles.is_unimodular_gram(identity_matrix(5))
