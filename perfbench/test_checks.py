"""Each checker accepts a right answer and rejects a deliberately wrong one.

Run with: python3 -m pytest perfbench/test_checks.py
"""

import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import inputs  # noqa: E402

# Z^3 / span of the columns below is Z/2 + Z/6 + Z (invariant factors 2, 6)
COKER_COLUMNS = [[2, 0, 0], [0, 6, 0]]


def _rows(columns):
    return [list(r) for r in zip(*columns)]


def test_rank_mod_p_sees_torsion_primes():
    cols = checks.columns_of(_rows(COKER_COLUMNS))
    ranks = {p: checks.rank_mod_p(cols, p) for p in (checks.LARGE_PRIME, 2, 3)}
    # rank 2 over Q, dropping by one for each invariant factor p divides
    assert ranks == {checks.LARGE_PRIME: 2, 2: 0, 3: 1}


def test_rank_mod_p_matches_dense_elimination():
    rng = random.Random(5)
    for _ in range(40):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        rows = [[rng.choice((0, 0, 1, -1, 2, 3)) for _ in range(n)] for _ in range(m)]
        for p in (2, 3, 7):
            assert checks.rank_mod_p(checks.columns_of(rows), p) == _dense_rank(rows, p)


def _dense_rank(rows, p):
    a = [[x % p for x in r] for r in rows]
    r = 0
    for c in range(len(a[0])):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c] * inv
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
    return r


def test_det_exact():
    assert checks.det_exact([[2, 1], [1, 1]]) == 1
    assert checks.det_exact([[0, 1], [1, 0]]) == -1
    big = [[10**6, 1], [3, 10**6]]
    assert checks.det_exact(big) == 10**12 - 3


def test_check_gram_accepts_and_rejects():
    hyperbolic_plus_one = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]  # odd, signature 1, det -1
    e8_like = [[2, -1], [-1, 1]]  # positive definite, det 1, even diagonal entry 2 and odd 1
    assert checks.check_gram(e8_like, 2, "odd", 2) == []
    assert checks.check_gram(e8_like, 2, "even", 2)
    assert checks.check_gram(e8_like, 2, "odd", 0)
    assert checks.check_gram(e8_like, 3, "odd", 2)
    assert any("determinant" in p for p in checks.check_gram(hyperbolic_plus_one, 3, "odd", 1))
    assert any("symmetric" in p for p in checks.check_gram([[1, 1], [0, 1]], 2, "odd", 2))
    degenerate = [[1, 1], [1, 1]]
    assert any("near 0" in p for p in checks.check_gram(degenerate, 2, "odd", 1))


COKER_TEXT = (
    "map sym2 at n=3: 276 -> 299\n"
    "torsion: [3], free rank: 23\n"
    "generator 1^(3): order 3 (expected 3) ok\n"
)


def test_check_cokernel_text():
    assert checks.check_cokernel_text(COKER_TEXT, 276, 299, (3,), 23, {"1^(3)": 3}) == []
    assert checks.check_cokernel_text(COKER_TEXT, 276, 299, (3, 3), 23)
    assert checks.check_cokernel_text(COKER_TEXT, 276, 299, (3,), 22)
    assert checks.check_cokernel_text(COKER_TEXT, 276, 300, (3,), 23)
    mismatch = COKER_TEXT.replace("order 3 (expected 3) ok", "order 1 (expected 3) MISMATCH")
    assert checks.check_cokernel_text(mismatch, 276, 299, (3,), 23, {"1^(3)": 3})
    assert checks.check_cokernel_text("garbage", 276, 299, (3,), 23)


def test_parse_lattice():
    assert checks.parse_lattice("rank 276, odd, signature 156, unimodular\n") == (276, "odd", 156, True)
    try:
        checks.parse_lattice("rank 276, odd, signature 156, NOT unimodular\n")
    except ValueError:
        pass
    else:
        raise AssertionError("a non-unimodular transcript parsed")


def test_check_product():
    a = ((2,), (0,))  # degree 2
    b = ((1, 1), (5, 0))  # degree 2
    good = {((2, 1), (5, 0)): 3, ((1, 1), (23, 0)): -1}
    assert checks.check_product(a, b, 3, good) == []
    assert checks.check_product(a, b, 3, {((2,), (0,)): 1})  # degree 2, not 4
    assert checks.check_product(a, b, 3, {((2, 1), (5, 0)): 1.5})
    assert checks.check_product(a, b, 3, {((2, 1), (5, 0)): 0})
    assert checks.check_product(a, b, 2, good)  # weight 3 does not fit n = 2


def _poly_cup(a, b, n):
    """A commutative, associative toy product on symbols: add the parts."""
    return {(tuple(sorted(a[0] + b[0], reverse=True)), ()): 1}


def _broken_cup(a, b, n):
    if a[0] == (1,):
        return {(tuple(sorted(a[0] + b[0], reverse=True)), ()): 2}
    return _poly_cup(a, b, n)


def test_check_associative():
    x, y, z = ((1,), ()), ((2,), ()), ((3,), ())
    assert checks.check_associative(_poly_cup, [(x, y, z)], 9) == []
    assert checks.check_associative(_broken_cup, [(x, y, z)], 9)


def test_check_denes():
    power = {sym: want for sym, want in checks.denes_targets(3, 8).items()}
    assert power == {((4, 1, 1, 1, 1), (0,) * 5): 16, ((3, 2, 1, 1, 1), (0,) * 5): 9}
    assert checks.check_denes(power, 3, 8) == []
    power[((4, 1, 1, 1, 1), (0,) * 5)] = 15
    assert checks.check_denes(power, 3, 8)


def test_isometries_preserve_the_k3_form():
    e8 = [[-2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (5, 7)):
        e8[i][j] = e8[j][i] = 1

    def form(i, j):
        i, j = min(i, j), max(i, j)
        if i == 0:
            return int(j == 23)
        if j == 23:
            return 0
        for lo in (1, 3, 5):
            if lo <= i <= j <= lo + 1:
                return int(i != j)
        for lo in (7, 15):
            if lo <= i <= j <= lo + 7:
                return e8[i - lo][j - lo]
        return 0

    seen = set()
    for seed in range(200):
        sigma = inputs.isometry(seed)
        assert sorted(sigma.values()) == list(range(24))
        assert all(form(sigma[i], sigma[j]) == form(i, j) for i in range(24) for j in range(24))
        seen.add(tuple(sorted(sigma.items())))
    assert 64 < len(seen) <= 96  # the group has 3! * 2^3 * 2 = 96 elements
