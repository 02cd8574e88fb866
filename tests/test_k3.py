import pytest

from k3hilb import k3, zlinalg
import oracles


def test_e8_tables_are_inverse():
    prod = oracles.mat_mul([list(r) for r in k3.E8], [list(r) for r in k3.INV_E8])
    assert prod == oracles.identity_matrix(8)
    assert oracles.det([list(r) for r in k3.E8]) == 1


def test_bil_paper_entries():
    assert k3.bil(0, 23) == 1
    assert k3.bil(23, 0) == 1
    assert k3.bil(0, 0) == 0
    assert k3.bil(23, 23) == 0
    assert k3.bil(0, 5) == 0
    assert k3.bil(1, 2) == 1
    assert k3.bil(1, 1) == 0
    assert k3.bil(3, 4) == 1
    assert k3.bil(5, 6) == 1
    assert k3.bil(7, 7) == -2
    assert k3.bil(7, 8) == 1
    assert k3.bil(2, 3) == 0  # different blocks are orthogonal
    assert k3.bil(14, 15) == 0


def test_bil_inv_entries_and_identity():
    assert k3.bil_inv(7, 7) == -2
    assert k3.bil_inv(0, 23) == 1
    for i in k3.INDICES:
        for j in k3.INDICES:
            total = sum(k3.bil(i, m) * k3.bil_inv(m, j) for m in k3.INDICES)
            assert total == (1 if i == j else 0)


@pytest.mark.parametrize("i,j", [(24, 0), (0, 24), (-1, 0), (0, -1), (-24, 5)])
def test_form_tables_reject_indices_out_of_range(i, j):
    # the tables are tuples, so a negative index must not wrap around
    for form in (k3.bil, k3.bil_inv):
        with pytest.raises(ValueError):
            form(i, j)


def test_gram_matrix_is_a_fresh_copy():
    g = k3.gram_matrix()
    g[7][7] = 5
    assert k3.gram_matrix()[7][7] == k3.bil(7, 7) == -2


def test_bil_symmetric_unimodular_signature():
    g = k3.gram_matrix()
    assert all(g[i][j] == g[j][i] for i in k3.INDICES for j in k3.INDICES)
    assert abs(oracles.det(g)) == 1
    h2 = oracles.h2_gram_matrix()
    assert zlinalg.signature(h2) == -16
    assert oracles.parity(h2) == "even"
    assert zlinalg.signature([list(r) for r in k3.E8]) == -8


def test_degrees():
    assert k3.deg(0) == 0
    assert k3.deg(23) == 4
    assert all(k3.deg(i) == 2 for i in range(1, 23))
    assert oracles.indices_of_degree(2) == k3.H2_INDICES
    with pytest.raises(ValueError):
        k3.deg(24)


def test_cup_list():
    assert k3.cup_list([]) == {0: 1}
    for j in k3.INDICES:
        assert k3.cup_list([0, j]) == {j: 1}
    assert k3.cup_list([1, 2]) == {23: 1}
    assert k3.cup_list([1, 1]) == {}
    assert k3.cup_list([7, 7]) == {23: -2}
    assert k3.cup_list([1, 2, 3]) == {}
    assert k3.cup_list([1, 23]) == {}
    assert k3.cup_list([23, 23]) == {}
    assert k3.cup_list([0, 0, 23]) == {23: 1}


def test_cup_commutative_associative():
    for i in k3.INDICES:
        for j in k3.INDICES:
            assert k3.cup_list([i, j]) == k3.cup_list([j, i])
    # multilinear associativity on basis triples via the list form
    for i in (0, 1, 7, 23):
        for j in (0, 2, 8):
            for m in (0, 1, 15, 23):
                left = {}
                for r, v in k3.cup_list([i, j]).items():
                    for s, w in k3.cup_list([r, m]).items():
                        left[s] = left.get(s, 0) + v * w
                right = {}
                for r, v in k3.cup_list([j, m]).items():
                    for s, w in k3.cup_list([i, r]).items():
                        right[s] = right.get(s, 0) + v * w
                assert {k: v for k, v in left.items() if v} == {
                    k: v for k, v in right.items() if v
                }


def test_coprod_identity_and_counit():
    for i in k3.INDICES:
        assert oracles.coprod_n(1, i) == {(i,): 1}
    assert oracles.coprod_n(0, 23) == {(): 1}
    for i in range(23):
        assert oracles.coprod_n(0, i) == {}


def test_coprod_adjointness_all_triples():
    # (B x B)(coprod(a), b x c) = -B(a, b cup c) over all 24^3 basis triples
    for a in k3.INDICES:
        items = oracles.coprod_n(2, a)
        lhs = {}
        for (i, j), w in items.items():
            for b in k3.INDICES:
                bib = k3.bil(i, b)
                if not bib:
                    continue
                for c in k3.INDICES:
                    bjc = k3.bil(j, c)
                    if bjc:
                        lhs[(b, c)] = lhs.get((b, c), 0) + w * bib * bjc
        rhs = {}
        for b in k3.INDICES:
            for c in k3.INDICES:
                val = -sum(
                    v * k3.bil(a, m) for m, v in k3.cup_list([b, c]).items()
                )
                if val:
                    rhs[(b, c)] = val
        assert {k: v for k, v in lhs.items() if v} == rhs


def test_coprod_coassociative():
    for a in k3.INDICES:
        left = {}
        right = {}
        for (i, j), w in oracles.coprod_n(2, a).items():
            for (p, q), u in oracles.coprod_n(2, i).items():
                left[(p, q, j)] = left.get((p, q, j), 0) + w * u
            for (p, q), u in oracles.coprod_n(2, j).items():
                right[(i, p, q)] = right.get((i, p, q), 0) + w * u
        left = {k: v for k, v in left.items() if v}
        right = {k: v for k, v in right.items() if v}
        assert left == right == oracles.coprod_n(3, a)


def test_cup_coprod_composite_on_unit():
    # the composite of multiplication after comultiplication scales the unit
    # to -24 times the point class: the sign is forced by the adjoint
    # convention carrying the minus sign
    acc = {}
    for (i, j), w in oracles.coprod_n(2, k3.UNIT).items():
        for m, v in k3.cup_list([i, j]).items():
            acc[m] = acc.get(m, 0) + w * v
    assert {k: v for k, v in acc.items() if v} == {k3.POINT: -24}


def test_euler_power_multiplier():
    # e = m(coprod(1)) = -24*x; the value +24*x made the cup product on
    # Hilb^4 non-associative (see test_qin_wang)
    ident = k3.euler_power_multiplier(0)
    assert ident({0: 2, 5: 1}) == {0: 2, 5: 1}
    once = k3.euler_power_multiplier(1)
    assert once({0: 1}) == {23: -24}
    assert once({0: 3, 7: 5}) == {23: -72}
    assert once({7: 5, 23: 1}) == {}
    twice = k3.euler_power_multiplier(2)
    assert twice({0: 1, 7: 2, 23: 3}) == {}
    with pytest.raises(ValueError):
        k3.euler_power_multiplier(-1)
