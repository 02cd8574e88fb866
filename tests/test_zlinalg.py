import random

import pytest
from hypothesis import given, settings, strategies as st

from k3hilb import zlinalg
from k3hilb.zlinalg import (
    CokernelStructure,
    cokernel,
    dedup_columns,
    has_full_column_rank,
    identity_matrix,
    image_order,
    is_unimodular_gram,
    parity,
    rank,
    read_matrix,
    signature,
    smith_normal_form,
    write_matrix,
)
import oracles
from oracles import det


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


def test_snf_large_scrambled_hits_reconditioned_path():
    # big enough to trigger the Hermite reconditioning pass
    diag = [1] * 70 + [2] * 4 + [6] * 2 + [12]
    mat = scrambled_diagonal(diag, 80, 90, seed=11)
    assert smith_normal_form(mat) == diag
    factors, u = smith_normal_form(mat, transforms=True)
    assert factors == diag
    oracles.assert_smith_row_transform(mat, factors, u)


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
    factors, u = smith_normal_form(dedup_columns(mat), transforms=True)
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


def test_parity():
    assert parity([[0, 1], [1, 0]]) == "even"
    assert parity([[1]]) == "odd"
    assert parity([[2, 1], [1, 4]]) == "even"


def test_rank_and_full_column_rank():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1], [5, 7]]) == 2
    assert has_full_column_rank([[1, 0], [0, 1], [5, 7]])
    assert not has_full_column_rank([[1, 2], [2, 4]])
    rng = random.Random(13)
    for _ in range(30):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        assert rank(mat) == oracles.rational_rank(mat)
        assert has_full_column_rank(mat) == (oracles.rational_rank(mat) == n)


def test_unimodular_gram():
    assert is_unimodular_gram([[0, 1], [1, 0]])
    assert not is_unimodular_gram([[2]])
    assert is_unimodular_gram(identity_matrix(5))


def test_matrix_io_round_trip(tmp_path):
    mat = [[1, -2, 3], [10**30, 0, -(7**40)]]
    path = tmp_path / "m.txt"
    write_matrix(mat, path)
    assert read_matrix(path) == mat
    empty = tmp_path / "e.txt"
    write_matrix([], empty)
    assert read_matrix(empty) == []
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1 2 3\n")
    with pytest.raises(ValueError):
        read_matrix(bad)
